//! Cell-granularity work-stealing execution engine.
//!
//! The experimental grid of the paper is embarrassingly parallel: every
//! **(instance × scheduler)** pair — a *cell* — is an independent solve.
//! This module executes that grid on a pool of workers with per-worker
//! work-stealing deques ([`crossbeam::deque`]):
//!
//! * **Decomposition.** Each instance contributes one *prep* task (memory
//!   bounds + the interestingness filter) which, once executed, fans out
//!   into one *solve* task per scheduler. Prep runs on whichever worker
//!   claims it; the solve cells land on that worker's own deque, where its
//!   LIFO pop keeps them cache-hot — and where any idle worker can steal
//!   them. A one-instance straggler therefore occupies at most
//!   `schedulers.len()` workers instead of pinning a single one, which is
//!   what kills the load imbalance of one-task-per-instance sharding.
//! * **Shared work.** Prep runs Liu's algorithm once: its peak gives the
//!   memory bounds and its traversal travels, behind an [`Arc`], in every
//!   solve task of the instance, so the `OptMinMem` cell reuses it (see
//!   [`SolveContext::set_liu_traversal`]). The traversal is freed with the
//!   instance's last cell. Each worker owns one [`SolveContext`], so the
//!   FiF simulator's buffers are reused across all the cells it runs.
//! * **Seeding order.** Initial work is ordered largest-subtree-first: the
//!   biggest instance of the grid starts *first*, so its cells overlap with
//!   all the small ones instead of starting last and dragging the tail.
//!   Each worker is seeded with one of the largest instances directly; the
//!   remainder waits in the global [`Injector`] (FIFO, so workers drain it
//!   in descending size order).
//! * **Results.** Every finished cell is written into a pre-sized slot
//!   array (one [`OnceLock`] per cell) — no global results mutex anywhere
//!   on the hot path. The worker that completes the *last* cell of an
//!   instance sends the assembled row through a **bounded** channel; the
//!   caller's thread re-orders the (at most `threads`-deep out-of-order
//!   window of) arrivals and hands rows to the streaming sink in
//!   deterministic instance order while the grid is still running.
//! * **Cancellation.** The first failing cell stores its error in its slot
//!   and raises a single [`AtomicBool`]; every worker checks the flag
//!   between cells — mid-instance, not merely at the next instance
//!   boundary — and drains out. A panic inside a task (a user
//!   [`Scheduler`](oocts_core::scheduler::Scheduler) that panics, say) is
//!   caught and recorded the same way, as [`CellFailure::Panic`]. After the
//!   join, the lowest-indexed recorded error is reported, independent of
//!   thread scheduling.
//!
//! [`run_experiment`](crate::runner::run_experiment) runs entirely on this
//! engine; per-worker steal/execute counters and the wall-clock of the run
//! surface as [`EngineStats`] on
//! [`ExperimentResults`](crate::runner::ExperimentResults).

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use oocts_core::scheduler::SolveContext;
use oocts_minmem::opt_min_mem;
use oocts_tree::Schedule;

use crate::bounds::MemoryBounds;
use crate::metric::performance;
use crate::runner::{CellFailure, ExperimentConfig, ExperimentError, InstanceResult};

/// Counters of one worker thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed (solve cells plus prep tasks).
    pub executed: u64,
    /// Tasks acquired by stealing from another worker's deque.
    pub stolen: u64,
    /// Tasks acquired from the global injector queue.
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

    /// Total tasks acquired by stealing from a peer's deque.
    pub fn total_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Total tasks acquired from the global injector.
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

/// Where a worker got its current task from.
enum Source {
    Local,
    Injected,
    Stolen,
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

/// Everything the workers share. All hot-path state is atomic or
/// write-once; nothing here is behind a mutex.
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
    /// Globally outstanding tasks; workers exit when it reaches zero.
    pending: AtomicUsize,
    /// Raised by the first failing cell; checked between cells.
    cancelled: AtomicBool,
    /// Solve cells executed (for [`EngineStats::cells`]).
    cells_run: AtomicUsize,
    /// Overflow seed work, drained in descending instance size.
    injector: Injector<Task>,
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
    let shared = Shared {
        instances,
        config,
        algs,
        prep: (0..n).map(|_| OnceLock::new()).collect(),
        cells: (0..n * algs).map(|_| OnceLock::new()).collect(),
        remaining: (0..n).map(|_| AtomicUsize::new(1)).collect(),
        pending: AtomicUsize::new(n),
        cancelled: AtomicBool::new(false),
        cells_run: AtomicUsize::new(0),
        injector: Injector::new(),
    };

    // Initial work, largest subtree first: the straggler candidates start
    // before anything else. Ties break on instance index, so seeding is
    // deterministic.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(instances[i].1.len()), i));

    let locals: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<Task>> = locals.iter().map(Worker::stealer).collect();
    for (rank, &i) in order.iter().enumerate() {
        // One seed per worker deque; the rest queues in the injector in
        // descending size order.
        if rank < threads {
            locals[rank].push(Task::Prep(i));
        } else {
            shared.injector.push(Task::Prep(i));
        }
    }

    // The streaming channel: bounded, so workers slow down rather than run
    // away from a slow consumer.
    let (tx, rx) = channel::bounded::<(usize, Option<InstanceResult>)>(2 * threads);

    let mut results = Vec::with_capacity(n);
    let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = locals
            .into_iter()
            .enumerate()
            .map(|(id, local)| {
                let shared = &shared;
                let stealers = &stealers;
                let tx = tx.clone();
                scope.spawn(move || worker_loop(id, local, stealers, shared, &tx))
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

    if shared.cancelled.load(Ordering::Acquire) {
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

/// One worker: pop local work, fall back to the injector, then steal from
/// peers; park briefly when everything is dry. Exits when the grid is done
/// or a cell failed.
fn worker_loop(
    id: usize,
    local: Worker<Task>,
    stealers: &[Stealer<Task>],
    shared: &Shared<'_>,
    tx: &channel::Sender<(usize, Option<InstanceResult>)>,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut cx = SolveContext::new();
    let mut dry_polls = 0u32;
    loop {
        if shared.cancelled.load(Ordering::Acquire) || shared.pending.load(Ordering::Acquire) == 0 {
            break;
        }
        let task = match local.pop() {
            Some(task) => Some((task, Source::Local)),
            None => acquire_task(id, &local, stealers, shared),
        };
        match task {
            Some((task, source)) => {
                dry_polls = 0;
                stats.executed += 1;
                match source {
                    Source::Local => {}
                    Source::Injected => stats.injected += 1,
                    Source::Stolen => stats.stolen += 1,
                }
                execute(task, &local, shared, tx, &mut cx);
            }
            None => {
                // Nothing anywhere: another worker is still producing (or
                // the run is about to end). Yield first, then back off to a
                // short sleep so an idle pool does not spin at 100% while a
                // straggler finishes.
                dry_polls += 1;
                if dry_polls < 32 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }
    stats
}

/// Acquires work for an empty worker: global injector first (descending
/// instance size), then peers round-robin starting after `id`. Bounded
/// retries on [`Steal::Retry`] keep the attempt non-blocking.
// lint: no_alloc
fn acquire_task(
    id: usize,
    local: &Worker<Task>,
    stealers: &[Stealer<Task>],
    shared: &Shared<'_>,
) -> Option<(Task, Source)> {
    for _ in 0..8 {
        match shared.injector.steal() {
            Steal::Success(task) => return Some((task, Source::Injected)),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    let n = stealers.len();
    for d in 1..n {
        let victim = &stealers[(id + d) % n];
        for _ in 0..4 {
            match victim.steal_batch_and_pop(local) {
                Steal::Success(task) => return Some((task, Source::Stolen)),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

fn execute(
    task: Task,
    local: &Worker<Task>,
    shared: &Shared<'_>,
    tx: &channel::Sender<(usize, Option<InstanceResult>)>,
    cx: &mut SolveContext,
) {
    match task {
        Task::Prep(i) => {
            let prepped = match catch_unwind(AssertUnwindSafe(|| prep_instance(i, shared))) {
                Ok(prepped) => prepped,
                Err(panic) => {
                    let failure = ExperimentError {
                        instance: shared.instances[i].0.clone(),
                        scheduler: String::new(),
                        source: CellFailure::Panic(panic_message(panic.as_ref())),
                    };
                    let _ = shared.prep[i].set(Err(failure));
                    shared.cancelled.store(true, Ordering::Release);
                    return;
                }
            };
            if let Some((memory, traversal)) = prepped {
                shared.remaining[i].fetch_add(shared.algs, Ordering::AcqRel);
                shared.pending.fetch_add(shared.algs, Ordering::AcqRel);
                // Pushed in reverse so the owner's LIFO pop runs the cells
                // in scheduler order; thieves steal from the other end.
                for alg in (0..shared.algs).rev() {
                    local.push(Task::Solve {
                        instance: i,
                        alg,
                        memory,
                        traversal: Arc::clone(&traversal),
                    });
                }
            }
            finish_task(i, shared, tx);
        }
        Task::Solve {
            instance,
            alg,
            memory,
            traversal,
        } => {
            if solve_cell(instance, alg, memory, traversal, shared, cx) {
                finish_task(instance, shared, tx);
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
/// the scheduler failed or panicked, after raising the cancellation flag.
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
    // A panic may leave `cx` half-updated; that is harmless, because the
    // cancellation raised below stops this worker before its next cell.
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
        Err(panic) => CellFailure::Panic(panic_message(panic.as_ref())),
    };
    let _ = shared.cells[i * shared.algs + a].set(Err(ExperimentError {
        instance: name.clone(),
        scheduler: scheduler.name(),
        source,
    }));
    shared.cancelled.store(true, Ordering::Release);
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
/// it out; every path then decrements the global pending count.
fn finish_task(
    i: usize,
    shared: &Shared<'_>,
    tx: &channel::Sender<(usize, Option<InstanceResult>)>,
) {
    if shared.remaining[i].fetch_sub(1, Ordering::AcqRel) == 1 {
        let row = assemble_row(i, shared);
        // Send failure means the consumer is gone, which only happens on
        // teardown; the run result no longer matters then.
        let _ = tx.send((i, row));
    }
    shared.pending.fetch_sub(1, Ordering::AcqRel);
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
