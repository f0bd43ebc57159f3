//! Straggler regression suite for the cell-granularity execution engine.
//!
//! The grid is the worst case for sharding by instance: one huge instance
//! (a 2^18-node complete binary tree, as in the stress suite) plus 63 tiny
//! ones. One task per instance would pin a single worker for the huge
//! instance's *entire* scheduler row; the engine's cell sharding spreads
//! the row's cells over the pool, so the critical path shrinks from the sum
//! of the row to its slowest cell.
//!
//! The wall-clock comparison is only meaningful with real parallel
//! hardware, so it is `#[ignore]`d (CI runs it in release, like the stress
//! suite) and additionally skips itself on hosts with fewer than four
//! available CPUs:
//!
//! ```text
//! cargo test --release --test straggler -- --ignored --nocapture
//! ```
//!
//! The cheap structural checks (steal counters, cell accounting) run
//! everywhere, single-core included.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use oocts::gen::random::{complete_kary, uniform_attachment_tree};
use oocts::prelude::*;
use oocts::profile::bounds::MemoryBound;
use oocts::tree::TreeError;

/// The comparable-cost scheduler row (`oocts_bench::perf::IMBAL_SCHEDULERS`):
/// `RecExpand` is excluded because its superlinear cost on the
/// huge instance would make the row a single-cell critical path that no
/// cell-level balancing can split.
const ROW: &str = "PostOrderMinIO,OptMinMem,PostOrderMinMem";

/// One huge complete binary tree plus `tiny_count` small random trees.
fn straggler_instances(huge_height: usize, tiny_count: usize) -> Vec<(String, Tree)> {
    let mut huge = complete_kary(2, huge_height, 1);
    // Depth-dependent weights, as in the stress suite: heavier towards the
    // leaves so postorder and optimal traversals genuinely differ.
    for node in huge.node_ids().collect::<Vec<_>>() {
        let w = 1 + (huge.depth(node) as u64) * 3 + (node.index() as u64 % 5);
        huge.set_weight(node, w);
    }
    let mut instances = vec![("straggler-huge".to_string(), huge)];
    for k in 0..tiny_count as u64 {
        instances.push((
            format!("straggler-tiny-{k:02}"),
            uniform_attachment_tree(120, 1..=9, 0x57A6 + k),
        ));
    }
    instances
}

/// Runs the grid once and returns the engine's own wall-clock and stats.
fn timed_run(
    instances: &[(String, Tree)],
    threads: usize,
) -> (Duration, EngineStats, ExperimentResults) {
    let row = SchedulerRegistry::with_builtins().get_list(ROW).unwrap();
    timed_run_with(instances, row, threads)
}

/// [`timed_run`] with an explicit scheduler row.
fn timed_run_with(
    instances: &[(String, Tree)],
    schedulers: Vec<Arc<dyn Scheduler>>,
    threads: usize,
) -> (Duration, EngineStats, ExperimentResults) {
    let mut config = ExperimentConfig::new(schedulers, MemoryBound::Middle);
    config.threads = threads;
    let results = run_experiment(instances, &config).expect("Middle bound is feasible");
    let stats = results.engine.clone().expect("the engine reports stats");
    (stats.elapsed, stats, results)
}

/// The summed cell wall-times of the huge instance's row: what sharding by
/// instance would run back to back on one worker, and so a lower bound on
/// that decomposition's wall-clock.
fn huge_row_sum(results: &ExperimentResults) -> Duration {
    results
        .results
        .iter()
        .find(|r| r.name == "straggler-huge")
        .expect("the huge instance is kept")
        .cell_times
        .iter()
        .sum()
}

/// The headline regression: with at least four real workers, the whole
/// grid must finish before the huge row alone would have on one worker,
/// because cell sharding no longer serializes that row. Ignored by
/// default — it is a wall-time benchmark and needs parallel hardware to
/// mean anything.
#[test]
#[ignore = "straggler wall-time benchmark: run explicitly in release (CI does)"]
fn cell_sharding_beats_the_straggler_row_sum_with_four_workers() {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    if cpus < 4 {
        println!("skipped: needs >= 4 available CPUs, host has {cpus}");
        return;
    }
    let instances = straggler_instances(17, 63); // 2^18 - 1 huge nodes
    let threads = cpus.min(8);

    // Warm-up run (page-in, allocator steady state), then take the best of
    // two timed runs to damp scheduler noise.
    let _ = timed_run(&instances, threads);
    let runs: Vec<_> = (0..2).map(|_| timed_run(&instances, threads)).collect();
    let cell_wall = runs.iter().map(|r| r.0).min().unwrap();
    let row_sum = runs.iter().map(|r| huge_row_sum(&r.2)).min().unwrap();
    let ratio = row_sum.as_secs_f64() / cell_wall.as_secs_f64();
    println!(
        "straggler x{threads}: huge row sum {:.1} ms, cell elapsed {:.1} ms, ratio {ratio:.2}",
        row_sum.as_secs_f64() * 1e3,
        cell_wall.as_secs_f64() * 1e3,
    );
    assert!(
        cell_wall < row_sum,
        "the grid took no less than the huge row alone: {cell_wall:?} >= {row_sum:?}"
    );

    // Steals are what spreads the huge row: the thieves must have fired.
    assert!(
        runs[0].1.total_stolen() > 0,
        "no cells were stolen on the straggler grid"
    );
}

/// How long a huge-instance cell waits for a second worker.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(30);

/// The workers that have started a cell of the huge instance.
#[derive(Default)]
struct Rendezvous {
    started: Mutex<Vec<ThreadId>>,
    met: Condvar,
    timed_out: AtomicBool,
}

impl Rendezvous {
    /// Records the calling worker, then blocks until a second worker has
    /// started a cell of the huge instance too (or the timeout expires,
    /// which the test reports as a failure).
    fn arrive(&self) {
        let me = std::thread::current().id();
        let mut started = self
            .started
            .lock()
            .expect("no worker panics inside the rendezvous");
        if !started.contains(&me) {
            started.push(me);
        }
        self.met.notify_all();
        let (_started, wait) = self
            .met
            .wait_timeout_while(started, RENDEZVOUS_TIMEOUT, |s| s.len() < 2)
            .expect("no worker panics inside the rendezvous");
        if wait.timed_out() {
            self.timed_out.store(true, Ordering::SeqCst);
        }
    }
}

/// A row scheduler whose cells of the huge instance wait at the
/// rendezvous before scheduling.
struct MeetOnHuge {
    inner: Arc<dyn Scheduler>,
    huge_nodes: usize,
    rendezvous: Arc<Rendezvous>,
}

impl Scheduler for MeetOnHuge {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&self, tree: &Tree, memory: u64) -> Result<Schedule, TreeError> {
        if tree.len() == self.huge_nodes {
            self.rendezvous.arrive();
        }
        self.inner.schedule(tree, memory)
    }
}

/// Cheap structural check, meaningful even on a single-core host: the
/// huge instance's solve cells land in one worker's deque (largest-first
/// seeding) and idle workers steal them while their owner is busy.
///
/// The owner's first huge cell waits until a second worker has started
/// another cell of the huge instance. Cells are only ever pushed to the
/// deque of the worker that ran the instance's prep, so that second
/// worker must have stolen its cell: the steal is forced, not raced for.
#[test]
fn thieves_steal_the_straggler_cells() {
    let instances = straggler_instances(10, 15); // 2^11 - 1 huge nodes
    let rendezvous = Arc::new(Rendezvous::default());
    let row = SchedulerRegistry::with_builtins()
        .get_list(ROW)
        .unwrap()
        .into_iter()
        .map(|inner| {
            Arc::new(MeetOnHuge {
                inner,
                huge_nodes: instances[0].1.len(),
                rendezvous: Arc::clone(&rendezvous),
            }) as Arc<dyn Scheduler>
        })
        .collect();
    let (_, stats, results) = timed_run_with(&instances, row, 4);
    assert!(
        !rendezvous.timed_out.load(Ordering::SeqCst),
        "no second worker started a huge cell within {RENDEZVOUS_TIMEOUT:?}"
    );

    assert_eq!(stats.threads, 4);
    assert_eq!(stats.workers.len(), 4);
    assert_eq!(stats.cells, 16 * 3, "16 instances x 3 scheduler cells");
    assert_eq!(
        stats.total_executed(),
        16 * 4,
        "one prep plus three solve cells per instance"
    );
    assert!(
        stats.total_stolen() > 0,
        "idle workers must steal the huge instance's cells"
    );
    assert!(stats.total_injected() > 0, "overflow work is injected");
    assert_eq!(results.results.len(), 16);
    // Per-cell wall-times are recorded for every scheduler column.
    for a in 0..3 {
        assert!(results.total_cell_time(a) > Duration::ZERO);
    }
}
