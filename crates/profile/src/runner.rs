//! Multi-threaded experiment runner.
//!
//! Evaluates a set of [`Scheduler`]s over a dataset of instances, one memory
//! bound at a time, and collects per-instance I/O volumes and performances.
//! Execution is delegated to the work-stealing [`crate::engine`]:
//! the experiment matrix is decomposed into (instance × scheduler) cells,
//! distributed over per-worker deques, and re-assembled into deterministic
//! instance order — see the module docs of [`crate::engine`] for the full
//! protocol. Each cell stays sequential inside, exactly like the paper's
//! simulations.
//!
//! The runner is generic over the strategy set: anything implementing
//! [`Scheduler`] — built-in or user-defined, typically obtained from
//! [`oocts_core::registry::SchedulerRegistry`] — flows through
//! [`run_experiment`], the Dolan–Moré profiles and the CSV export under its
//! registered name.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use oocts_core::scheduler::{synth_schedulers, trees_schedulers, Scheduler};
use oocts_tree::{Tree, TreeError};

use crate::bounds::{MemoryBound, MemoryBounds};
use crate::engine::{self, EngineStats};
use crate::profile::PerformanceProfile;

/// Configuration of one experiment (one dataset × one memory bound).
#[derive(Clone)]
pub struct ExperimentConfig {
    /// The scheduling strategies to compare.
    pub schedulers: Vec<Arc<dyn Scheduler>>,
    /// Which of the paper's memory bounds to use.
    pub bound: MemoryBound,
    /// Number of worker threads (0 = one per available CPU).
    pub threads: usize,
    /// Skip instances whose optimal in-core peak equals the structural lower
    /// bound (no I/O is ever needed on them); the paper filters the TREES
    /// dataset this way.
    pub filter_interesting: bool,
}

impl ExperimentConfig {
    /// A configuration comparing the given strategies at the given bound.
    pub fn new(schedulers: Vec<Arc<dyn Scheduler>>, bound: MemoryBound) -> Self {
        ExperimentConfig {
            schedulers,
            bound,
            threads: 0,
            filter_interesting: false,
        }
    }

    /// The paper's SYNTH configuration (four strategies) at the given bound.
    pub fn synth(bound: MemoryBound) -> Self {
        ExperimentConfig::new(synth_schedulers(), bound)
    }

    /// The paper's TREES configuration (three strategies, filtered) at the
    /// given bound.
    pub fn trees(bound: MemoryBound) -> Self {
        ExperimentConfig {
            filter_interesting: true,
            ..ExperimentConfig::new(trees_schedulers(), bound)
        }
    }

    /// The names of the configured strategies, in column order.
    pub fn scheduler_names(&self) -> Vec<String> {
        self.schedulers.iter().map(|s| s.name()).collect()
    }
}

impl std::fmt::Debug for ExperimentConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentConfig")
            .field("schedulers", &self.scheduler_names())
            .field("bound", &self.bound)
            .field("threads", &self.threads)
            .field("filter_interesting", &self.filter_interesting)
            .finish()
    }
}

/// Results of one strategy set on one instance.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// Instance name.
    pub name: String,
    /// Number of tasks of the instance.
    pub nodes: usize,
    /// The instance's memory bounds.
    pub bounds: MemoryBounds,
    /// The concrete memory value used.
    pub memory: u64,
    /// I/O volume of every strategy, in the order of the configuration.
    pub io_volumes: Vec<u64>,
    /// Performance `(M + IO)/M` of every strategy.
    pub performances: Vec<f64>,
    /// In-core peak of every strategy's schedule.
    pub peak_memories: Vec<u64>,
    /// Scheduling wall-time of every strategy on this instance (the
    /// [`oocts_core::scheduler::SolveReport::wall_time`] of each cell).
    /// Non-deterministic; the CSV export and all regression comparisons
    /// deliberately exclude it.
    pub wall_times: Vec<Duration>,
    /// Engine-measured wall-time of every *cell* — scheduling plus schedule
    /// replay and validation, everything the worker spent on the
    /// (instance × scheduler) pair. Non-deterministic, excluded from the
    /// CSV export like [`wall_times`](Self::wall_times).
    pub cell_times: Vec<Duration>,
}

impl InstanceResult {
    /// `true` if at least two strategies obtained different I/O volumes — the
    /// restriction used in the right-hand plot of Figure 5.
    pub fn algorithms_differ(&self) -> bool {
        self.io_volumes.windows(2).any(|w| w[0] != w[1])
    }

    /// This instance's CSV row (RFC-4180-quoted, newline-terminated) — one
    /// line of [`ExperimentResults::to_csv`]. Streaming consumers emit
    /// [`csv_header`] once and then one row per
    /// [`run_experiment_streaming`] callback; the concatenation is
    /// byte-identical to the batch export.
    pub fn csv_row(&self) -> String {
        let mut out = String::with_capacity(self.name.len() + 8 * 12 + self.io_volumes.len() * 12);
        push_csv_cell(&mut out, &self.name);
        let _ = write!(
            out,
            ",{},{},{},{}",
            self.nodes, self.bounds.lower_bound, self.bounds.peak_incore, self.memory
        );
        for io in &self.io_volumes {
            let _ = write!(out, ",{io}");
        }
        out.push('\n');
        out
    }
}

/// The CSV header line (newline-terminated) for the given scheduler-name
/// columns, RFC-4180-quoted like the rows of
/// [`InstanceResult::csv_row`].
pub fn csv_header(scheduler_names: &[String]) -> String {
    let mut out =
        String::with_capacity(32 + scheduler_names.iter().map(|n| n.len() + 4).sum::<usize>());
    out.push_str("instance,nodes,lb,peak,memory");
    for name in scheduler_names {
        out.push(',');
        // Quote the whole `io_<name>` cell: a quote opening after the
        // `io_` prefix would be literal per RFC 4180.
        push_csv_cell(&mut out, &format!("io_{name}"));
    }
    out.push('\n');
    out
}

/// A failure inside [`run_experiment`], pinned to the cell that produced it.
///
/// The runner abandons the remaining cells on the first error; this type
/// records *which* (instance, scheduler) cell failed so a failure deep in a
/// thousand-instance matrix is diagnosable without a re-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentError {
    /// Name of the instance whose evaluation failed.
    pub instance: String,
    /// Name of the scheduler that failed on it; empty if the instance's
    /// memory-bound computation failed before any scheduler ran.
    pub scheduler: String,
    /// The underlying failure.
    pub source: CellFailure,
}

/// What went wrong in a failed cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// The scheduler, or the FiF replay of its schedule, returned an error.
    Tree(TreeError),
    /// The cell panicked; the panic message.
    Panic(String),
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Tree(e) => e.fmt(f),
            CellFailure::Panic(message) => write!(f, "panicked: {message}"),
        }
    }
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.scheduler.is_empty() {
            write!(
                f,
                "memory bounds failed on instance {:?}: {}",
                self.instance, self.source
            )
        } else {
            write!(
                f,
                "scheduler {} failed on instance {:?}: {}",
                self.scheduler, self.instance, self.source
            )
        }
    }
}

impl std::error::Error for ExperimentError {
    /// The [`TreeError`] behind a [`CellFailure::Tree`]; a panic has none.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.source {
            CellFailure::Tree(e) => Some(e),
            CellFailure::Panic(_) => None,
        }
    }
}

/// The collected results of an experiment.
#[derive(Clone)]
pub struct ExperimentResults {
    /// The strategies compared (column order of the per-instance vectors).
    pub schedulers: Vec<Arc<dyn Scheduler>>,
    /// The memory bound used.
    pub bound: MemoryBound,
    /// One entry per (kept) instance.
    pub results: Vec<InstanceResult>,
    /// Execution statistics of the engine run that produced these results
    /// (threads, per-worker steal/execute counters, wall-clock). `None` on
    /// results assembled outside the engine (e.g. by deserialization).
    pub engine: Option<EngineStats>,
}

impl std::fmt::Debug for ExperimentResults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentResults")
            .field("schedulers", &self.scheduler_names())
            .field("bound", &self.bound)
            .field("results", &self.results)
            .field("engine", &self.engine)
            .finish()
    }
}

/// Quotes one CSV cell per RFC 4180: cells containing a comma, a double
/// quote, or a line break are wrapped in double quotes, with inner quotes
/// doubled. Plain cells are appended as-is.
fn push_csv_cell(out: &mut String, cell: &str) {
    if cell.contains(['"', ',', '\n', '\r']) {
        out.push('"');
        for c in cell.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(cell);
    }
}

impl ExperimentResults {
    /// The names of the compared strategies, in column order.
    pub fn scheduler_names(&self) -> Vec<String> {
        self.schedulers.iter().map(|s| s.name()).collect()
    }

    /// Builds the Dolan–Moré performance profile of these results.
    pub fn profile(&self) -> PerformanceProfile {
        let names = self.scheduler_names();
        let mut perfs = vec![Vec::with_capacity(self.results.len()); self.schedulers.len()];
        for r in &self.results {
            for (a, &p) in r.performances.iter().enumerate() {
                perfs[a].push(p);
            }
        }
        PerformanceProfile::from_performances(names, perfs)
    }

    /// The subset of instances on which the strategies do not all obtain the
    /// same I/O volume (right-hand plots of Figures 5, 9, 11). Column order
    /// is preserved.
    pub fn restricted_to_differing(&self) -> ExperimentResults {
        ExperimentResults {
            schedulers: self.schedulers.clone(),
            bound: self.bound,
            results: self
                .results
                .iter()
                .filter(|r| r.algorithms_differ())
                .cloned()
                .collect(),
            engine: self.engine.clone(),
        }
    }

    /// Total I/O volume of strategy column `a` over all kept instances.
    pub fn total_io(&self, a: usize) -> u64 {
        self.results.iter().map(|r| r.io_volumes[a]).sum()
    }

    /// Mean performance of strategy column `a` over all kept instances
    /// (`NaN` on an empty result set).
    pub fn mean_performance(&self, a: usize) -> f64 {
        let sum: f64 = self.results.iter().map(|r| r.performances[a]).sum();
        sum / self.results.len() as f64
    }

    /// Largest in-core peak reported by strategy column `a`.
    pub fn max_peak(&self, a: usize) -> u64 {
        self.results
            .iter()
            .map(|r| r.peak_memories[a])
            .max()
            .unwrap_or(0)
    }

    /// Total scheduling wall-time of strategy column `a` (sum of the
    /// per-instance [`oocts_core::scheduler::SolveReport::wall_time`]s).
    pub fn total_schedule_time(&self, a: usize) -> Duration {
        self.results.iter().map(|r| r.wall_times[a]).sum()
    }

    /// Total engine-measured cell wall-time of strategy column `a` (sum of
    /// the per-instance [`InstanceResult::cell_times`] — the full
    /// schedule-and-replay cost, not just the scheduling part).
    pub fn total_cell_time(&self, a: usize) -> Duration {
        self.results.iter().map(|r| r.cell_times[a]).sum()
    }

    /// Per-instance CSV (one row per instance, one I/O column per strategy),
    /// RFC-4180-quoted where needed. Byte-identical to streaming
    /// [`csv_header`] + [`InstanceResult::csv_row`] per row.
    pub fn to_csv(&self) -> String {
        let mut out = csv_header(&self.scheduler_names());
        for r in &self.results {
            out.push_str(&r.csv_row());
        }
        out
    }
}

/// Runs every strategy of the configuration on every instance and collects
/// the results. Instance order is preserved.
///
/// # Errors
/// Returns the error of the lowest-indexed failing cell, naming the
/// (instance, scheduler) pair; the remaining work is abandoned as soon as
/// any worker records an error. The paper's memory bounds are feasible by
/// construction, so an error indicates a misconfigured instance or a buggy
/// strategy.
pub fn run_experiment(
    instances: &[(String, Tree)],
    config: &ExperimentConfig,
) -> Result<ExperimentResults, ExperimentError> {
    run_experiment_streaming(instances, config, |_| {})
}

/// Like [`run_experiment`], but additionally hands every completed row to
/// `on_row` — in deterministic instance order — as soon as its instance
/// finishes, typically long before the whole grid does. This is how the
/// figure binaries stream CSV rows to disk while large instances are still
/// being solved.
///
/// Rows observed by `on_row` before an error surfaces are valid results of
/// their instances; on error, the partial stream simply ends early.
///
/// # Errors
/// Exactly like [`run_experiment`]: the lowest-indexed failing cell wins.
pub fn run_experiment_streaming(
    instances: &[(String, Tree)],
    config: &ExperimentConfig,
    on_row: impl FnMut(&InstanceResult),
) -> Result<ExperimentResults, ExperimentError> {
    let (results, stats) = engine::run(instances, config, on_row)?;
    Ok(ExperimentResults {
        schedulers: config.schedulers.clone(),
        bound: config.bound,
        results,
        engine: Some(stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_core::scheduler::PostOrderMinIo;
    use oocts_tree::{Schedule, TreeBuilder, TreeError};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::RecvTimeoutError;

    fn instance(seed: u64) -> (String, Tree) {
        // Small deterministic trees with varying weights.
        let mut b = TreeBuilder::new();
        let r = b.add_root(1 + seed % 3);
        let a = b.add_child(r, 2 + seed % 5);
        b.add_child(a, 6 + seed % 4);
        let c = b.add_child(r, 2);
        b.add_child(c, 5 + seed % 7);
        (format!("inst-{seed}"), b.build().unwrap())
    }

    /// 32 healthy instances plus `inst-poison` at index 17, the only one
    /// with 6 nodes.
    fn poisoned_grid() -> Vec<(String, Tree)> {
        let mut instances: Vec<_> = (0..32).map(instance).collect();
        let mut b = TreeBuilder::new();
        let r = b.add_root(2);
        let a = b.add_child(r, 3);
        b.add_child(a, 4);
        let c = b.add_child(r, 1);
        let d = b.add_child(c, 5);
        b.add_child(d, 2);
        instances.insert(17, ("inst-poison".to_string(), b.build().unwrap()));
        instances
    }

    #[test]
    fn runner_covers_all_instances_in_order() {
        let instances: Vec<_> = (0..16).map(instance).collect();
        let config = ExperimentConfig {
            threads: 4,
            ..ExperimentConfig::new(trees_schedulers(), MemoryBound::Middle)
        };
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        assert_eq!(res.results.len(), 16);
        for (i, r) in res.results.iter().enumerate() {
            assert_eq!(r.name, format!("inst-{i}"));
            assert_eq!(r.io_volumes.len(), 3);
        }
        // Deterministic across runs (and thread counts).
        let res1 = run_experiment(
            &instances,
            &ExperimentConfig {
                threads: 1,
                ..config.clone()
            },
        )
        .expect("feasible bounds");
        for (a, b) in res.results.iter().zip(&res1.results) {
            assert_eq!(a.io_volumes, b.io_volumes);
        }
    }

    #[test]
    fn filtering_drops_uninteresting_instances() {
        // A chain has peak == LB: always filtered.
        let mut b = TreeBuilder::new();
        let r = b.add_root(3);
        let x = b.add_child(r, 4);
        b.add_child(x, 5);
        let chain = ("chain".to_string(), b.build().unwrap());
        let interesting = instance(1);
        let config = ExperimentConfig {
            threads: 1,
            filter_interesting: true,
            ..ExperimentConfig::new(vec![Arc::new(PostOrderMinIo)], MemoryBound::Middle)
        };
        let res = run_experiment(&[chain, interesting], &config).expect("feasible bounds");
        assert_eq!(res.results.len(), 1);
        assert_eq!(res.results[0].name, "inst-1");
    }

    #[test]
    fn profile_and_csv_are_consistent() {
        let instances: Vec<_> = (0..8).map(instance).collect();
        let config = ExperimentConfig::synth(MemoryBound::Middle);
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        let profile = res.profile();
        assert_eq!(profile.instances(), res.results.len());
        assert_eq!(profile.algorithms().len(), 4);
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), res.results.len() + 1);
        // The restriction keeps only instances where algorithms differ.
        let diff = res.restricted_to_differing();
        for r in &diff.results {
            assert!(r.algorithms_differ());
        }
    }

    #[test]
    fn csv_quotes_instance_names_per_rfc4180() {
        let (_, tree) = instance(3);
        let instances = vec![
            ("plain".to_string(), tree.clone()),
            ("with,comma".to_string(), tree.clone()),
            ("with \"quotes\"".to_string(), tree.clone()),
            ("both,\"of\",them".to_string(), tree),
        ];
        let config = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::new(vec![Arc::new(PostOrderMinIo)], MemoryBound::Middle)
        };
        let csv = run_experiment(&instances, &config)
            .expect("feasible bounds")
            .to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("plain,"));
        assert!(lines[2].starts_with("\"with,comma\","));
        assert!(lines[3].starts_with("\"with \"\"quotes\"\"\","));
        assert!(lines[4].starts_with("\"both,\"\"of\"\",them\","));
        // Every row still has the same number of (parsed) columns: a quoted
        // cell counts as one even though it contains commas.
        for line in &lines[1..] {
            let mut cols = 0;
            let mut in_quotes = false;
            for c in line.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => cols += 1,
                    _ => {}
                }
            }
            assert_eq!(cols, 5, "bad column count in {line:?}");
        }
    }

    /// A scheduler that always fails, to exercise error propagation.
    #[derive(Debug)]
    struct AlwaysFails;

    impl Scheduler for AlwaysFails {
        fn name(&self) -> String {
            "AlwaysFails".to_string()
        }

        fn schedule(&self, _tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            Err(TreeError::Empty)
        }
    }

    #[test]
    fn scheduler_errors_propagate_out_of_the_runner() {
        // Every instance fails. Repeated rounds give the thread
        // interleavings a chance to differ; the reported error must not.
        let instances: Vec<_> = (0..4).map(instance).collect();
        for round in 0..200 {
            for threads in [1, 2, 4, 8] {
                let config = ExperimentConfig {
                    threads,
                    ..ExperimentConfig::new(vec![Arc::new(AlwaysFails)], MemoryBound::Middle)
                };
                let err = run_experiment(&instances, &config).unwrap_err();
                assert_eq!(err.source, CellFailure::Tree(TreeError::Empty));
                assert!(std::error::Error::source(&err).is_some());
                assert_eq!(err.scheduler, "AlwaysFails");
                // The lowest-indexed failing instance wins, whatever the
                // thread interleaving.
                assert_eq!(err.instance, "inst-0", "round {round}, threads = {threads}");
            }
        }
    }

    /// A scheduler that fails on exactly one instance (by node count), to
    /// inject an error in the middle of a concurrent matrix.
    #[derive(Debug)]
    struct FailsOn {
        nodes: usize,
    }

    impl Scheduler for FailsOn {
        fn name(&self) -> String {
            format!("FailsOn(nodes={})", self.nodes)
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            if tree.len() == self.nodes {
                Err(TreeError::NotTopological(tree.root()))
            } else {
                Ok(Schedule::postorder(tree))
            }
        }
    }

    #[test]
    fn concurrent_error_names_the_failing_instance() {
        // One instance poisoned mid-matrix. Every worker thread races past
        // it; the error must still name that exact (instance, scheduler)
        // cell.
        let instances = poisoned_grid();

        for threads in [2, 8] {
            let config = ExperimentConfig {
                threads,
                ..ExperimentConfig::new(
                    vec![Arc::new(PostOrderMinIo), Arc::new(FailsOn { nodes: 6 })],
                    MemoryBound::Middle,
                )
            };
            let err = run_experiment(&instances, &config).unwrap_err();
            assert_eq!(err.instance, "inst-poison", "threads = {threads}");
            assert_eq!(err.scheduler, "FailsOn(nodes=6)");
            assert!(matches!(
                err.source,
                CellFailure::Tree(TreeError::NotTopological(_))
            ));
            let rendered = err.to_string();
            assert!(rendered.contains("inst-poison"), "{rendered}");
            assert!(rendered.contains("FailsOn"), "{rendered}");
        }
    }

    /// A scheduler that panics on exactly one instance (by node count).
    #[derive(Debug)]
    struct PanicsOn {
        nodes: usize,
    }

    impl Scheduler for PanicsOn {
        fn name(&self) -> String {
            "PanicsOn".to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            assert!(tree.len() != self.nodes, "boom on {} nodes", self.nodes);
            Ok(Schedule::postorder(tree))
        }
    }

    #[test]
    fn a_panicking_scheduler_is_an_error_not_a_hang() {
        // One instance poisoned mid-matrix. At 1 thread the only worker
        // panics; at 2 and 8 the others are still busy. Each run happens on
        // its own thread under a watchdog, so a hang fails the test instead
        // of stalling the suite.
        for threads in [1, 2, 8] {
            let (tx, rx) = std::sync::mpsc::channel();
            let run = std::thread::spawn(move || {
                let instances = poisoned_grid();
                let config = ExperimentConfig {
                    threads,
                    ..ExperimentConfig::new(
                        vec![Arc::new(PostOrderMinIo), Arc::new(PanicsOn { nodes: 6 })],
                        MemoryBound::Middle,
                    )
                };
                let _ = tx.send(run_experiment(&instances, &config).map(|r| r.results.len()));
            });
            let outcome = match rx.recv_timeout(Duration::from_secs(60)) {
                Ok(outcome) => outcome,
                Err(RecvTimeoutError::Timeout) => {
                    panic!("run_experiment hung at {threads} threads")
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("run_experiment panicked at {threads} threads")
                }
            };
            run.join()
                .expect("the run thread sent its outcome and returned");
            let err = outcome.expect_err("a panicking cell must fail the run");
            assert_eq!(err.instance, "inst-poison", "threads = {threads}");
            assert_eq!(err.scheduler, "PanicsOn");
            assert_eq!(
                err.source,
                CellFailure::Panic("boom on 6 nodes".to_string()),
                "threads = {threads}"
            );
            // A panic carries no underlying `TreeError`.
            assert!(std::error::Error::source(&err).is_none());
            let rendered = err.to_string();
            assert!(rendered.contains("panicked: boom"), "{rendered}");
        }
    }

    /// Schedulers for the mid-instance-abort test below. On the big
    /// instance, `GateFirst` blocks until the poison instance has failed
    /// (plus a grace period for the worker loop to record the failure); on
    /// the small poison instance it fails immediately. `CountSecond`
    /// records whether it was ever invoked on the big instance — it must not
    /// be, because the engine drops every higher-keyed task *between*
    /// scheduler cells once a task failed.
    #[derive(Debug)]
    struct GateFirst {
        poisoned: Arc<AtomicBool>,
        big_nodes: usize,
    }

    impl Scheduler for GateFirst {
        fn name(&self) -> String {
            "GateFirst".to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            if tree.len() == self.big_nodes {
                // Wait (bounded) for the poison instance to fail on the
                // other worker, then give its worker loop time to record
                // the failure.
                let started = std::time::Instant::now();
                while !self.poisoned.load(Ordering::Acquire) {
                    assert!(
                        started.elapsed() < Duration::from_secs(10),
                        "poison instance never failed; is the runner still parallel?"
                    );
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(200));
                Ok(Schedule::postorder(tree))
            } else {
                self.poisoned.store(true, Ordering::Release);
                Err(TreeError::Empty)
            }
        }
    }

    #[derive(Debug)]
    struct CountSecond {
        ran_on_big: Arc<AtomicBool>,
        big_nodes: usize,
    }

    impl Scheduler for CountSecond {
        fn name(&self) -> String {
            "CountSecond".to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            if tree.len() == self.big_nodes {
                self.ran_on_big.store(true, Ordering::Release);
            }
            Ok(Schedule::postorder(tree))
        }
    }

    #[test]
    fn cancellation_aborts_mid_instance_between_scheduler_cells() {
        // Instance 0 is the poison (5 nodes), instance 1 is "big" (9 nodes).
        // With two workers, the big instance's first cell blocks until the
        // poison instance has failed; by the time it returns, the failure
        // is recorded and the second scheduler must never run on the big
        // instance. The poison has to be the lower-indexed instance: the
        // cells of instances below a failure still run.
        let mut b = TreeBuilder::new();
        let r = b.add_root(1);
        let mut prev = r;
        for w in 2..10u64 {
            prev = b.add_child(prev, w);
        }
        let big = ("big".to_string(), b.build().unwrap());
        assert_eq!(big.1.len(), 9);
        let small = instance(0);
        assert_eq!(small.1.len(), 5);

        let poisoned = Arc::new(AtomicBool::new(false));
        let ran_on_big = Arc::new(AtomicBool::new(false));
        let config = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::new(
                vec![
                    Arc::new(GateFirst {
                        poisoned: Arc::clone(&poisoned),
                        big_nodes: 9,
                    }),
                    Arc::new(CountSecond {
                        ran_on_big: Arc::clone(&ran_on_big),
                        big_nodes: 9,
                    }),
                ],
                MemoryBound::Middle,
            )
        };
        let err = run_experiment(&[small, big], &config).unwrap_err();
        assert_eq!(err.instance, "inst-0");
        assert_eq!(err.scheduler, "GateFirst");
        assert!(
            !ran_on_big.load(Ordering::Acquire),
            "the second scheduler cell of the big instance ran after the \
             poison error; cancellation must abort mid-instance"
        );
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        // 32 threads is more workers than instances: most of them find no
        // work, wait, and must still exit cleanly.
        let instances: Vec<_> = (0..24).map(instance).collect();
        let config = ExperimentConfig::synth(MemoryBound::Middle);
        let algs = config.schedulers.len() as u64;
        let run = |threads: usize| {
            let res = run_experiment(
                &instances,
                &ExperimentConfig {
                    threads,
                    ..config.clone()
                },
            )
            .expect("feasible bounds");
            let stats = res.engine.clone().expect("the engine reports stats");
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.workers.len(), threads);
            assert_eq!(stats.cells, res.results.len() as u64 * algs);
            assert_eq!(
                stats.total_executed(),
                instances.len() as u64 + stats.cells,
                "one prep per instance plus every cell, threads = {threads}"
            );
            res
        };
        let single = run(1);
        for threads in [2, 8, 32] {
            let parallel = run(threads);
            assert_eq!(single.results.len(), parallel.results.len());
            for (a, b) in single.results.iter().zip(&parallel.results) {
                // Everything except wall-clock time is identical, order
                // included.
                assert_eq!(a.name, b.name);
                assert_eq!(a.nodes, b.nodes);
                assert_eq!(a.bounds, b.bounds);
                assert_eq!(a.memory, b.memory);
                assert_eq!(a.io_volumes, b.io_volumes);
                assert_eq!(a.performances, b.performances);
                assert_eq!(a.peak_memories, b.peak_memories);
            }
            // And the CSV export is byte-identical.
            assert_eq!(single.to_csv(), parallel.to_csv());
        }
    }

    #[test]
    fn per_cell_measurements_are_plumbed_through() {
        let instances: Vec<_> = (0..6).map(instance).collect();
        let config = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::new(trees_schedulers(), MemoryBound::Middle)
        };
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        for r in &res.results {
            assert_eq!(r.peak_memories.len(), 3);
            assert_eq!(r.wall_times.len(), 3);
            // A schedule can never run below the structural lower bound.
            for &peak in &r.peak_memories {
                assert!(peak >= r.bounds.lower_bound);
            }
        }
        for a in 0..3 {
            assert_eq!(
                res.total_io(a),
                res.results.iter().map(|r| r.io_volumes[a]).sum::<u64>()
            );
            assert!(res.mean_performance(a) >= 1.0);
            assert!(res.max_peak(a) >= res.results[0].bounds.lower_bound);
            // Summed wall-time is finite and consistent with the cells.
            let total = res.total_schedule_time(a);
            assert_eq!(
                total,
                res.results
                    .iter()
                    .map(|r| r.wall_times[a])
                    .sum::<std::time::Duration>()
            );
        }
    }

    /// A user-defined scheduler: plain postorder, defined outside oocts-core.
    #[derive(Debug)]
    struct PlainPostorder;

    impl Scheduler for PlainPostorder {
        fn name(&self) -> String {
            "PlainPostorder".to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            Ok(Schedule::postorder(tree))
        }
    }

    /// A scheduler whose name needs quoting (any two-parameter spec renders
    /// a `", "` in its canonical name).
    #[derive(Debug)]
    struct CommaName;

    impl Scheduler for CommaName {
        fn name(&self) -> String {
            "Tuned(a=1, b=2)".to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            Ok(Schedule::postorder(tree))
        }
    }

    #[test]
    fn csv_quotes_whole_header_cells_for_comma_names() {
        let instances = vec![instance(2)];
        let config = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::new(vec![Arc::new(CommaName)], MemoryBound::Middle)
        };
        let csv = run_experiment(&instances, &config)
            .expect("feasible bounds")
            .to_csv();
        let header = csv.lines().next().unwrap();
        // The quote must open at the start of the cell, prefix included.
        assert!(
            header.ends_with(",\"io_Tuned(a=1, b=2)\""),
            "bad header: {header}"
        );
    }

    #[test]
    fn custom_scheduler_flows_through_runner_profile_and_csv() {
        let instances: Vec<_> = (0..6).map(instance).collect();
        let mut config = ExperimentConfig::synth(MemoryBound::Middle);
        config.schedulers.push(Arc::new(PlainPostorder));
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        assert_eq!(res.scheduler_names().last().unwrap(), "PlainPostorder");
        for r in &res.results {
            assert_eq!(r.io_volumes.len(), 5);
        }
        let profile = res.profile();
        assert!(profile.algorithms().contains(&"PlainPostorder".to_string()));
        let csv = res.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",io_PlainPostorder"));
    }

    #[test]
    fn restricted_to_differing_preserves_column_order() {
        let instances: Vec<_> = (0..12).map(instance).collect();
        let config = ExperimentConfig::synth(MemoryBound::LowerBound);
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        let names = res.scheduler_names();
        let diff = res.restricted_to_differing();
        assert_eq!(diff.scheduler_names(), names, "column order must survive");
        // Per-instance columns still line up with the (unchanged) headers.
        for r in &diff.results {
            let original = res.results.iter().find(|o| o.name == r.name).unwrap();
            assert_eq!(r.io_volumes, original.io_volumes);
            assert_eq!(r.performances, original.performances);
        }
    }
}
