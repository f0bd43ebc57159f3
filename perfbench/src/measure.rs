//! Engine batches and failure accounting.
//!
//! One batch runs every configuration of a workload as one
//! `run_experiment_streaming` call each, on the calling thread, which only
//! drains the row stream into the CSV digest. The engine is a closed batch:
//! the next call starts when the previous one has returned.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oocts_bench::perf::Fnv64;
use oocts_profile::runner::{
    csv_header, run_experiment_streaming, ExperimentConfig, ExperimentResults,
};
use oocts_tree::Tree;

use crate::check::check_rows;
use crate::host::process_cpu;

/// Deliberate output corruption, so the self-tests can show that the
/// checks fail the run. Applied to the first batch only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// The first streamed row never reaches the sink or the results.
    DropRow,
    /// The batch digest absorbs bytes no row produced.
    CorruptDigest,
}

/// A workload's instances and engine configurations.
pub struct Grid {
    pub instances: Vec<(String, Tree)>,
    pub configs: Vec<ExperimentConfig>,
    /// Instances each configuration keeps after its filter, computed
    /// independently of the engine.
    pub kept: Vec<usize>,
}

impl Grid {
    /// Cells one batch attempts.
    pub fn cells(&self) -> u64 {
        self.configs
            .iter()
            .zip(&self.kept)
            .map(|(c, &k)| (k * c.schedulers.len()) as u64)
            .sum()
    }
}

/// What one batch measured and produced.
pub struct Batch {
    /// Wall time of the batch's engine calls.
    pub solve: Duration,
    /// Process on-CPU time over the same interval.
    pub cpu: Duration,
    /// Engine-measured wall time of every cell, in milliseconds.
    pub cell_ms: Vec<f64>,
    /// Mean cell time of every row (instance), in milliseconds.
    pub row_ms: Vec<f64>,
    /// Tree nodes summed over the cells.
    pub nodes: u64,
    /// FNV-1a digest of the streamed CSV of every call.
    pub digest: String,
    /// Time spent inside the row callback (traced batches only).
    pub sink: Duration,
    pub executed: u64,
    pub stolen: u64,
    pub injected: u64,
    pub violations: Vec<String>,
    pub results: Vec<ExperimentResults>,
}

/// Runs one batch. `traced` times the row callback; `fault` corrupts the
/// output on purpose.
pub fn run_batch(grid: &Grid, traced: bool, fault: Fault, watchdog: &Watchdog) -> Batch {
    watchdog.begin(grid.cells());
    let mut digest = Fnv64::new();
    let mut sink = Duration::ZERO;
    // Cells that returned `Err`, or whose row is missing.
    let mut failed = 0u64;
    let mut violations = Vec::new();
    let mut results = Vec::new();
    let mut drop_row = fault == Fault::DropRow;

    let cpu_started = process_cpu();
    let started = Instant::now();
    for (config, &kept) in grid.configs.iter().zip(&grid.kept) {
        digest.update(csv_header(&config.scheduler_names()).as_bytes());
        let mut streamed = 0usize;
        let outcome = run_experiment_streaming(&grid.instances, config, |row| {
            streamed += 1;
            if drop_row && streamed == 1 {
                return;
            }
            let at = traced.then(Instant::now);
            digest.update(row.csv_row().as_bytes());
            if let Some(at) = at {
                sink += at.elapsed();
            }
        });
        let algs = config.schedulers.len() as u64;
        match outcome {
            Ok(mut r) => {
                if drop_row && !r.results.is_empty() {
                    r.results.remove(0);
                }
                failed += kept.saturating_sub(r.results.len()) as u64 * algs;
                violations.extend(check_rows(&r, kept));
                results.push(r);
            }
            Err(e) => {
                failed += kept.saturating_sub(streamed) as u64 * algs;
                violations.push(format!("{}: engine error: {e}", config.bound));
            }
        }
        drop_row = false;
    }
    let solve = started.elapsed();
    let cpu = process_cpu().saturating_sub(cpu_started);
    if fault == Fault::CorruptDigest {
        digest.update(b"corrupt");
    }
    watchdog.end(failed);

    let mut cell_ms = Vec::new();
    let mut row_ms = Vec::new();
    let mut nodes = 0u64;
    let (mut executed, mut stolen, mut injected) = (0, 0, 0);
    for r in &results {
        for row in &r.results {
            let row_cells = row.cell_times.iter().map(|t| t.as_secs_f64() * 1e3);
            cell_ms.extend(row_cells.clone());
            row_ms.push(row_cells.sum::<f64>() / row.cell_times.len() as f64);
            nodes += (row.nodes * row.cell_times.len()) as u64;
        }
        if let Some(e) = &r.engine {
            executed += e.total_executed();
            stolen += e.total_stolen();
            injected += e.total_injected();
        }
    }
    Batch {
        solve,
        cpu,
        cell_ms,
        row_ms,
        nodes,
        digest: digest.render(),
        sink,
        executed,
        stolen,
        injected,
        violations,
        results,
    }
}

/// Cells attempted and failed so far, plus those of the batch in flight.
#[derive(Debug, Default, Clone, Copy)]
pub struct Progress {
    pub attempted: u64,
    pub failed: u64,
    pub in_flight: u64,
}

/// Ends the process with a failure result when the run overruns its
/// deadline. A scheduler that panics can leave the engine waiting forever
/// for its cell; the benchmark must then report the cells it lost rather
/// than stall.
pub struct Watchdog {
    progress: Arc<Mutex<Progress>>,
    stop: mpsc::Sender<()>,
    thread: JoinHandle<()>,
}

impl Watchdog {
    pub fn start(deadline: Duration) -> Watchdog {
        let progress = Arc::new(Mutex::new(Progress::default()));
        let (stop, stopped) = mpsc::channel::<()>();
        let shared = Arc::clone(&progress);
        let thread = std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(deadline) {
                let p = *lock(&shared);
                eprintln!("perfbench: the run overran its {deadline:?} deadline");
                println!(
                    "{}",
                    crate::result_line(false, p.attempted, p.failed + p.in_flight, &[])
                );
                std::process::exit(1);
            }
        });
        Watchdog {
            progress,
            stop,
            thread,
        }
    }

    fn begin(&self, cells: u64) {
        let mut p = lock(&self.progress);
        p.attempted += cells;
        p.in_flight = cells;
    }

    fn end(&self, failed: u64) {
        let mut p = lock(&self.progress);
        p.failed += failed;
        p.in_flight = 0;
    }

    /// Stops the watchdog and returns the final tally.
    pub fn stop(self) -> Progress {
        drop(self.stop);
        self.thread
            .join()
            .expect("the watchdog thread does not panic");
        let p = *lock(&self.progress);
        p
    }
}

fn lock(progress: &Mutex<Progress>) -> MutexGuard<'_, Progress> {
    // The guarded counters are plain integers, valid after any update.
    progress.lock().unwrap_or_else(|e| e.into_inner())
}
