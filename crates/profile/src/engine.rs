//! Cell-granularity work-stealing execution engine.
//!
//! The experimental grid of the paper is embarrassingly parallel: every
//! **(instance × scheduler)** pair — a *cell* — is an independent solve.
//! This module executes that grid on a pool of workers that share one
//! mutex-guarded set of task queues and one [`Condvar`], on `std` alone:
//!
//! * **Decomposition.** Each instance contributes one *prep* task (memory
//!   bounds + the interestingness filter) which, once executed, fans out
//!   into one *solve* task per scheduler. Prep runs on whichever worker
//!   takes it; the solve cells land on that worker's own deque, whose back
//!   end it takes from next — and whose front end any idle worker can
//!   steal from. A one-instance straggler therefore occupies at most
//!   `schedulers.len()` workers instead of pinning a single one, which is
//!   what kills the load imbalance of one-task-per-instance sharding.
//! * **Shared work.** Prep runs Liu's algorithm once: its peak gives the
//!   memory bounds and its traversal travels, behind an [`Arc`], in every
//!   solve task of the instance, so the `OptMinMem` cell reuses it (see
//!   [`SolveContext::set_liu_traversal`]). The traversal is freed with the
//!   instance's last cell. Each worker owns one [`SolveContext`], so the
//!   FiF simulator's buffers are reused across all the cells it runs.
//! * **Task order.** A worker takes the back of its own deque, then the
//!   next prep, then the front of a peer's deque, round-robin after its
//!   id. Preps are queued largest-subtree-first: the biggest instance of
//!   the grid starts *first*, so its cells overlap with all the small ones
//!   instead of starting last and dragging the tail. The lock is held only
//!   to take, push and count tasks, never while a task runs; a worker that
//!   finds nothing waits on the condvar until a fan-out queues cells or
//!   the last task finishes.
//! * **Results.** Every finished cell is written into a pre-sized slot
//!   array (one [`OnceLock`] per cell), outside the lock. The worker that
//!   completes the *last* cell of an instance sends the assembled row
//!   through a **bounded** channel; the caller's thread re-orders the (at
//!   most `threads`-deep out-of-order window of) arrivals and hands rows to
//!   the streaming sink in deterministic instance order while the grid is
//!   still running.
//! * **Failure.** Every task has a key, its rank in instance order:
//!   instance `i`'s prep, then its cells in scheduler order. A failing task
//!   stores its error in its slot and lowers the queues' `failed` key to
//!   its own; workers then drop unrun every queued task keyed above it —
//!   mid-instance, not merely at the next instance boundary — but still
//!   run the lower ones. A panic inside a task (a user
//!   [`Scheduler`](oocts_core::scheduler::Scheduler) that panics, say) is
//!   caught and recorded the same way, as [`CellFailure::Panic`]. After the
//!   join, the lowest-indexed recorded error is reported: the lowest
//!   failing key, the same error at every thread count.
//!
//! [`run_experiment`](crate::runner::run_experiment) runs entirely on this
//! engine; per-worker steal/execute counters and the wall-clock of the run
//! surface as [`EngineStats`] on
//! [`ExperimentResults`](crate::runner::ExperimentResults).

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use oocts_core::scheduler::SolveContext;
use oocts_minmem::opt_min_mem;
use oocts_tree::Schedule;

use crate::bounds::MemoryBounds;
use crate::metric::performance;
use crate::runner::{CellFailure, ExperimentConfig, ExperimentError, InstanceResult};

/// Counters of one worker thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed (solve cells plus prep tasks). Tasks
    /// dropped unrun after a failure are not counted.
    pub executed: u64,
    /// Tasks taken from the front of a peer's deque.
    pub stolen: u64,
    /// Prep tasks taken from the shared prep queue. Every prep is taken
    /// from there, so over a run this sums to the number of instances.
    pub injected: u64,
}

/// Execution statistics of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of worker threads of the run.
    pub threads: usize,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Scheduler cells executed (prep tasks excluded).
    pub cells: u64,
    /// Wall-clock of the whole run, seeding and join included. The only
    /// machine-dependent field next to the per-cell wall-times.
    pub elapsed: Duration,
}

impl EngineStats {
    /// Total tasks executed across all workers.
    pub fn total_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum()
    }

    /// Total tasks taken by stealing from a peer's deque.
    pub fn total_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Total prep tasks taken from the shared prep queue.
    pub fn total_injected(&self) -> u64 {
        self.workers.iter().map(|w| w.injected).sum()
    }
}

/// One work item. `Prep` computes an instance's bounds and fans out its
/// solve cells; `Solve` runs one scheduler on one prepared instance (the
/// memory value and the Liu traversal travel in the task, so solving never
/// has to look the prep result back up).
#[derive(Debug)]
enum Task {
    Prep(usize),
    Solve {
        instance: usize,
        alg: usize,
        memory: u64,
        traversal: Arc<Schedule>,
    },
}

impl Task {
    /// The task's rank in instance order, given `algs` schedulers: instance
    /// `i`'s prep is `i·(algs+1)`, its cell `a` is `i·(algs+1)+1+a`.
    fn key(&self, algs: usize) -> usize {
        match *self {
            Task::Prep(i) => i * (algs + 1),
            Task::Solve { instance, alg, .. } => instance * (algs + 1) + 1 + alg,
        }
    }
}

/// What a finished task leaves for the queues.
enum Outcome {
    /// Nothing to queue: a cell succeeded, or prep filtered its instance out.
    Done,
    /// Prep kept the instance: queue one solve cell per scheduler.
    FanOut {
        instance: usize,
        memory: u64,
        traversal: Arc<Schedule>,
    },
    /// The task failed; its error is in its slot.
    Failed,
}

/// The task queues, behind [`Shared::queues`].
struct Queues {
    /// One deque per worker: its owner takes from the back, thieves from
    /// the front.
    locals: Vec<VecDeque<Task>>,
    /// Every instance's prep, by descending node count, then index.
    preps: VecDeque<usize>,
    /// Tasks queued or running; workers exit when it reaches zero.
    pending: usize,
    /// The key of the lowest failed task, `usize::MAX` while none failed.
    failed: usize,
}

impl Queues {
    /// Takes worker `id`'s next task: the back of its own deque, then the
    /// next prep, then the front of a peer's deque, round-robin after `id`.
    /// A task keyed above [`Queues::failed`] is dropped unrun, since it can
    /// no longer change the reported error.
    // lint: no_alloc
    fn take(&mut self, id: usize, algs: usize, stats: &mut WorkerStats) -> Option<Task> {
        let n = self.locals.len();
        loop {
            let task = if let Some(task) = self.locals[id].pop_back() {
                task
            } else if let Some(i) = self.preps.pop_front() {
                stats.injected += 1;
                Task::Prep(i)
            } else if let Some(task) = (1..n).find_map(|d| self.locals[(id + d) % n].pop_front()) {
                stats.stolen += 1;
                task
            } else {
                return None;
            };
            if task.key(algs) <= self.failed {
                stats.executed += 1;
                return Some(task);
            }
            self.pending -= 1;
        }
    }
}

/// The deterministic measurements of one finished cell.
struct CellDone {
    io_volume: u64,
    performance: f64,
    peak_memory: u64,
    /// `SolveReport::wall_time`: scheduling only.
    schedule_wall: Duration,
    /// Engine-measured wall-clock of the whole cell (scheduling + FiF
    /// replay + validation).
    cell_wall: Duration,
}

type CellSlot = OnceLock<Result<CellDone, ExperimentError>>;

/// An instance's prep outcome: `Ok(None)` once prep ran and the instance was
/// filtered out, `Ok(Some((bounds, memory)))` otherwise, `Err` if prep
/// panicked.
type PrepSlot = OnceLock<Result<Option<(MemoryBounds, u64)>, ExperimentError>>;

/// A completed instance's index and row (`None` if the filter dropped it).
type Row = (usize, Option<InstanceResult>);

/// Everything the workers share. Results are write-once slots and atomic
/// countdowns; only task distribution goes through the one lock.
struct Shared<'a> {
    instances: &'a [(String, oocts_tree::Tree)],
    config: &'a ExperimentConfig,
    /// Number of scheduler columns.
    algs: usize,
    /// Per-instance prep outcome.
    prep: Vec<PrepSlot>,
    /// Pre-sized cell slots, indexed `instance * algs + scheduler`.
    cells: Vec<CellSlot>,
    /// Per-instance outstanding task count; the worker that drops it to
    /// zero assembles and emits the row.
    remaining: Vec<AtomicUsize>,
    /// Solve cells executed (for [`EngineStats::cells`]).
    cells_run: AtomicUsize,
    /// The task queues and their counters.
    queues: Mutex<Queues>,
    /// Wakes idle workers when cells are fanned out or `pending` reaches
    /// zero. A failure needs no wake-up: an idle worker saw every queue
    /// empty, and only a fan-out refills one.
    wake: Condvar,
}

impl Shared<'_> {
    fn lock(&self) -> MutexGuard<'_, Queues> {
        // Tasks run outside the lock, so poisoning would take an engine bug;
        // the counters are still consistent then.
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs the experiment grid and returns the ordered kept rows plus the
/// engine counters. `on_row` observes every row, in instance order, as soon
/// as its instance completes — typically long before the grid finishes.
pub(crate) fn run(
    instances: &[(String, oocts_tree::Tree)],
    config: &ExperimentConfig,
    mut on_row: impl FnMut(&InstanceResult),
) -> Result<(Vec<InstanceResult>, EngineStats), ExperimentError> {
    let started = Instant::now();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        config.threads
    }
    .max(1);

    let n = instances.len();
    let algs = config.schedulers.len();
    // Largest subtree first: the straggler candidates start before anything
    // else. Ties break on instance index, so the order is deterministic.
    let mut preps: Vec<usize> = (0..n).collect();
    preps.sort_by_key(|&i| (Reverse(instances[i].1.len()), i));
    let shared = Shared {
        instances,
        config,
        algs,
        prep: (0..n).map(|_| OnceLock::new()).collect(),
        cells: (0..n * algs).map(|_| OnceLock::new()).collect(),
        remaining: (0..n).map(|_| AtomicUsize::new(1)).collect(),
        cells_run: AtomicUsize::new(0),
        queues: Mutex::new(Queues {
            locals: (0..threads).map(|_| VecDeque::new()).collect(),
            preps: preps.into(),
            pending: n,
            failed: usize::MAX,
        }),
        wake: Condvar::new(),
    };

    // The streaming channel: bounded, so workers slow down rather than run
    // away from a slow consumer.
    let (tx, rx) = sync_channel::<Row>(2 * threads);

    let mut results = Vec::with_capacity(n);
    let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|id| {
                let shared = &shared;
                let tx = tx.clone();
                scope.spawn(move || worker_loop(id, shared, &tx))
            })
            .collect();
        drop(tx);

        // Consume rows as instances complete. Workers may finish instances
        // slightly out of order (the window is at most one in-flight
        // instance per worker); a small reorder buffer restores the
        // deterministic instance order for the sink.
        let mut next = 0usize;
        let mut buffer: BTreeMap<usize, Option<InstanceResult>> = BTreeMap::new();
        while let Ok((i, row)) = rx.recv() {
            buffer.insert(i, row);
            while let Some(row) = buffer.remove(&next) {
                if let Some(r) = row {
                    on_row(&r);
                    results.push(r);
                }
                next += 1;
            }
        }

        // Task bodies never unwind (see `execute`), so a worker panic is an
        // engine bug: re-raise it rather than return a short `Ok`.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    if shared.lock().failed != usize::MAX {
        // The lowest-indexed recorded error wins, whatever the thread
        // interleaving was: an instance's prep precedes its cells.
        let mut cells = shared.cells.into_iter();
        for prep in shared.prep {
            if let Some(Err(e)) = prep.into_inner() {
                return Err(e);
            }
            for cell in cells.by_ref().take(algs) {
                if let Some(Err(e)) = cell.into_inner() {
                    return Err(e);
                }
            }
        }
    }
    let stats = EngineStats {
        threads,
        workers: worker_stats,
        cells: shared.cells_run.load(Ordering::Acquire) as u64,
        elapsed: started.elapsed(),
    };
    Ok((results, stats))
}

/// One worker: takes and runs tasks until none is queued or running
/// anywhere, waiting on the condvar while only its peers hold work.
fn worker_loop(id: usize, shared: &Shared<'_>, tx: &SyncSender<Row>) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut cx = SolveContext::new();
    let mut queues = shared.lock();
    loop {
        let Some(task) = queues.take(id, shared.algs, &mut stats) else {
            if queues.pending == 0 {
                // The grid is done: release the peers still waiting.
                shared.wake.notify_all();
                return stats;
            }
            queues = shared
                .wake
                .wait(queues)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        let key = task.key(shared.algs);
        drop(queues);
        let outcome = execute(task, shared, tx, &mut cx);
        queues = shared.lock();
        match outcome {
            Outcome::Done => {}
            Outcome::FanOut {
                instance,
                memory,
                traversal,
            } => {
                // Pushed in reverse so the owner's back-end takes run the
                // cells in scheduler order; thieves take from the front.
                for alg in (0..shared.algs).rev() {
                    queues.locals[id].push_back(Task::Solve {
                        instance,
                        alg,
                        memory,
                        traversal: Arc::clone(&traversal),
                    });
                }
                queues.pending += shared.algs;
                shared.wake.notify_all();
            }
            Outcome::Failed => queues.failed = queues.failed.min(key),
        }
        queues.pending -= 1;
    }
}

/// Runs one task, outside the lock. The task that completes an instance
/// streams its row.
fn execute(
    task: Task,
    shared: &Shared<'_>,
    tx: &SyncSender<Row>,
    cx: &mut SolveContext,
) -> Outcome {
    match task {
        Task::Prep(i) => match catch_unwind(AssertUnwindSafe(|| prep_instance(i, shared))) {
            Ok(Some((memory, traversal))) => {
                // Counted before the cells are queued, so no thief can
                // complete the instance early.
                shared.remaining[i].fetch_add(shared.algs, Ordering::AcqRel);
                finish_task(i, shared, tx);
                Outcome::FanOut {
                    instance: i,
                    memory,
                    traversal,
                }
            }
            Ok(None) => {
                finish_task(i, shared, tx);
                Outcome::Done
            }
            Err(panic) => {
                let _ = shared.prep[i].set(Err(ExperimentError {
                    instance: shared.instances[i].0.clone(),
                    scheduler: String::new(),
                    source: CellFailure::Panic(panic_message(panic.as_ref())),
                }));
                Outcome::Failed
            }
        },
        Task::Solve {
            instance,
            alg,
            memory,
            traversal,
        } => {
            if solve_cell(instance, alg, memory, traversal, shared, cx) {
                finish_task(instance, shared, tx);
                Outcome::Done
            } else {
                Outcome::Failed
            }
        }
    }
}

/// Runs Liu's algorithm on one instance, records its bounds and memory in
/// the prep slot, and returns the memory value with the Liu traversal, or
/// `None` if the interestingness filter drops the instance.
fn prep_instance(i: usize, shared: &Shared<'_>) -> Option<(u64, Arc<Schedule>)> {
    let (_, tree) = &shared.instances[i];
    let (traversal, peak) = opt_min_mem(tree);
    let bounds = MemoryBounds::with_peak(tree, peak);
    let kept = !shared.config.filter_interesting || bounds.is_interesting();
    let memory = bounds.memory(shared.config.bound);
    let _ = shared.prep[i].set(Ok(kept.then_some((bounds, memory))));
    kept.then(|| (memory, Arc::new(traversal)))
}

/// Runs one scheduler cell and records it in its slot. Returns `false` if
/// the scheduler failed or panicked.
fn solve_cell(
    i: usize,
    a: usize,
    memory: u64,
    traversal: Arc<Schedule>,
    shared: &Shared<'_>,
    cx: &mut SolveContext,
) -> bool {
    let cell_started = Instant::now();
    let (name, tree) = &shared.instances[i];
    let scheduler = &shared.config.schedulers[a];
    cx.set_liu_traversal(Some(traversal));
    let solved = catch_unwind(AssertUnwindSafe(|| scheduler.solve_in(tree, memory, cx)));
    // Drop this cell's reference now, so the instance's last cell frees the
    // traversal.
    cx.set_liu_traversal(None);
    let source = match solved {
        Ok(Ok(report)) => {
            let done = CellDone {
                io_volume: report.io_volume,
                performance: performance(memory, report.io_volume),
                peak_memory: report.peak_memory,
                schedule_wall: report.wall_time,
                cell_wall: cell_started.elapsed(),
            };
            let _ = shared.cells[i * shared.algs + a].set(Ok(done));
            shared.cells_run.fetch_add(1, Ordering::AcqRel);
            return true;
        }
        Ok(Err(error)) => CellFailure::Tree(error),
        Err(panic) => {
            // The panic may have left `cx` half-updated, and this worker
            // may still run lower-keyed cells: start them afresh.
            *cx = SolveContext::new();
            CellFailure::Panic(panic_message(panic.as_ref()))
        }
    };
    let _ = shared.cells[i * shared.algs + a].set(Err(ExperimentError {
        instance: name.clone(),
        scheduler: scheduler.name(),
        source,
    }));
    false
}

/// The message of a caught panic: its `&str` or `String` payload.
fn panic_message(panic: &(dyn Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Marks one task of instance `i` finished. The worker that finishes the
/// instance's *last* task assembles its row from the cell slots and streams
/// it out.
fn finish_task(i: usize, shared: &Shared<'_>, tx: &SyncSender<Row>) {
    if shared.remaining[i].fetch_sub(1, Ordering::AcqRel) == 1 {
        let row = assemble_row(i, shared);
        // Send failure means the consumer is gone, which only happens on
        // teardown; the run result no longer matters then.
        let _ = tx.send((i, row));
    }
}

/// Builds the [`InstanceResult`] of a completed instance (`None` if the
/// filter dropped it). Only called once per instance, by the worker that
/// finished its last cell.
fn assemble_row(i: usize, shared: &Shared<'_>) -> Option<InstanceResult> {
    let (bounds, memory) = (*shared.prep[i].get()?.as_ref().ok()?)?;
    let (name, tree) = &shared.instances[i];
    let mut io_volumes = Vec::with_capacity(shared.algs);
    let mut performances = Vec::with_capacity(shared.algs);
    let mut peak_memories = Vec::with_capacity(shared.algs);
    let mut wall_times = Vec::with_capacity(shared.algs);
    let mut cell_times = Vec::with_capacity(shared.algs);
    for a in 0..shared.algs {
        // An instance only completes once every cell succeeded, so each
        // slot is filled; `?` (dropping the row) is the benign way out
        // should that invariant ever break.
        let done = shared.cells[i * shared.algs + a].get()?.as_ref().ok()?;
        io_volumes.push(done.io_volume);
        performances.push(done.performance);
        peak_memories.push(done.peak_memory);
        wall_times.push(done.schedule_wall);
        cell_times.push(done.cell_wall);
    }
    Some(InstanceResult {
        name: name.clone(),
        nodes: tree.len(),
        bounds,
        memory,
        io_volumes,
        performances,
        peak_memories,
        wall_times,
        cell_times,
    })
}
