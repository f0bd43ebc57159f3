//! The traced sequential pass: one thread calls each layer's public
//! function for every cell of the workload and records a span around each
//! call. Spans stay in memory and are written out when the run ends.
//!
//! Span names with a dot name a layer (`gen.*`, `sparse.*`, `minmem.*`,
//! `core.*`, `tree.*`); `pass` and `grid` (one engine configuration) only
//! give the calls structure, and every call span carries its instance id.
//! A cell is its schedule, FiF and peak spans. A span's self time is its
//! wall time minus its children's.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use oocts_core::postorder::post_order_min_io;
use oocts_core::scheduler::{ExpansionStats, FullRecExpand, RecExpand, Scheduler};
use oocts_minmem::{opt_min_mem, post_order_min_mem};
use oocts_profile::bounds::MemoryBounds;
use oocts_profile::runner::ExperimentResults;
use oocts_sparse::ordering::compute_ordering;
use oocts_sparse::{
    assembly_tree, grid_laplacian_2d, grid_laplacian_3d, random_symmetric, AssemblyOptions,
};
use oocts_tree::{fif_io, peak_memory, Schedule, Tree, TreeError};

use crate::host::ThreadCpu;
use crate::measure::Grid;
use crate::workload::{trees_jobs, GenCall, PatternSpec, Workload};

/// Spans around calls on trees this small skip the on-CPU reading: a
/// `/proc` read costs about 2 µs, as much as a whole 40-node cell.
const CPU_SAMPLE_MIN_NODES: usize = 1000;

/// The layer spans, each reported as `<name>_ms`.
pub const LAYER_SPANS: [&str; 13] = [
    "gen.synth",
    "gen.trees",
    "sparse.pattern",
    "sparse.ordering",
    "sparse.assembly",
    "minmem.liu_peak",
    "minmem.opt_min_mem",
    "minmem.postorder_min_mem",
    "core.postorder_min_io",
    "core.rec_expand",
    "core.full_rec_expand",
    "tree.fif",
    "tree.peak",
];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    /// Index of the instance the call works on.
    pub instance: Option<u32>,
    /// On-CPU nanoseconds of the thread during the span, where sampled.
    pub cpu: Option<u64>,
}

impl Span {
    pub fn wall(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cpu: ThreadCpu,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cpu: ThreadCpu::open(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one. The on-CPU
    /// reading happens outside the span's wall interval.
    pub fn open(&mut self, name: &'static str, instance: Option<usize>, sample_cpu: bool) -> usize {
        let cpu = if sample_cpu { self.cpu.now() } else { None };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            instance: instance.map(|i| i as u32),
            cpu,
        });
        self.open.push(index as u32);
        index
    }

    /// Closes the innermost open span and returns its wall nanoseconds.
    pub fn close(&mut self) -> u64 {
        let end = self.now();
        let index = self.open.pop().expect("close follows open") as usize;
        let cpu_end = self.spans[index].cpu.and_then(|_| self.cpu.now());
        let span = &mut self.spans[index];
        span.end = end;
        span.cpu = span.cpu.zip(cpu_end).map(|(a, b)| b.saturating_sub(a));
        span.wall()
    }

    /// Runs `f` inside a span; returns its result and the span's wall ns.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        instance: Option<usize>,
        sample_cpu: bool,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        self.open(name, instance, sample_cpu);
        let out = std::hint::black_box(f());
        (out, self.close())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall nanoseconds summed per span name.
    pub fn wall_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.wall();
        }
        out
    }

    /// Self time of the layer spans as a share of the root span's wall
    /// time: how much of the pass the layer spans account for.
    pub fn layer_share(&self) -> f64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.wall();
            }
        }
        let layer_self: u64 = self
            .spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name.contains('.'))
            .map(|(s, &c)| s.wall().saturating_sub(c))
            .sum();
        let root = self.spans.first().map_or(0, Span::wall);
        if root == 0 {
            0.0
        } else {
            layer_self as f64 / root as f64
        }
    }

    /// Writes the spans as Chrome trace-event JSON (viewable in Perfetto),
    /// one complete event per span with its parent, instance and on-CPU
    /// time as arguments.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"otherData\":{{\"workload\":\"{workload}\",\"seed\":{seed}}},\"traceEvents\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"instance\":{},\"wall_ns\":{},\"cpu_ns\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start as f64 / 1e3,
                s.wall() as f64 / 1e3,
                opt(s.parent.map(u64::from)),
                opt(s.instance.map(u64::from)),
                s.wall(),
                opt(s.cpu),
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// The scheduler behind each column, called through its layer's public
/// function as `Scheduler::solve` would.
#[derive(Debug, Clone, Copy)]
enum Column {
    PostOrderMinIo,
    OptMinMem,
    PostOrderMinMem,
    RecExpand,
    FullRecExpand,
}

impl Column {
    fn of(scheduler: &str) -> Option<Column> {
        Some(match scheduler {
            "PostOrderMinIO" => Column::PostOrderMinIo,
            "OptMinMem" => Column::OptMinMem,
            "PostOrderMinMem" => Column::PostOrderMinMem,
            "RecExpand" => Column::RecExpand,
            "FullRecExpand" => Column::FullRecExpand,
            _ => return None,
        })
    }

    fn span(self) -> &'static str {
        match self {
            Column::PostOrderMinIo => "core.postorder_min_io",
            Column::OptMinMem => "minmem.opt_min_mem",
            Column::PostOrderMinMem => "minmem.postorder_min_mem",
            Column::RecExpand => "core.rec_expand",
            Column::FullRecExpand => "core.full_rec_expand",
        }
    }

    fn schedule(self, tree: &Tree, memory: u64) -> Result<(Schedule, ExpansionStats), TreeError> {
        let plain = |s: Schedule| Ok((s, ExpansionStats::default()));
        match self {
            Column::PostOrderMinIo => plain(post_order_min_io(tree, memory).0),
            Column::OptMinMem => plain(opt_min_mem(tree).0),
            Column::PostOrderMinMem => plain(post_order_min_mem(tree).0),
            Column::RecExpand => RecExpand::default().schedule_with_stats(tree, memory),
            Column::FullRecExpand => FullRecExpand.schedule_with_stats(tree, memory),
        }
    }
}

/// What the pass measured besides its spans.
#[derive(Debug, Default)]
pub struct PassTotals {
    /// Σ prep (`MemoryBounds::of`) wall ns.
    pub prep_ns: u64,
    /// Σ cell (schedule + FiF + peak) wall ns.
    pub cell_ns: u64,
    /// Σ schedule-call wall ns.
    pub schedule_ns: u64,
    /// Σ over engine calls of the slowest instance's prep + slowest cell.
    pub critical_path_ns: u64,
    /// Tree nodes replayed by FiF.
    pub fif_nodes: u64,
    pub expansions: u64,
    pub forced_io: u64,
    pub cap_hits: u64,
    pub violations: Vec<String>,
}

/// Runs the sequential pass over the workload's gen calls and every cell
/// of `grid`, and checks each cell against the engine's `results` (one per
/// configuration).
pub fn sequential_pass(
    workload: Workload,
    seed: u64,
    reduced: bool,
    grid: &Grid,
    results: &[ExperimentResults],
) -> (Tracer, PassTotals) {
    let mut t = Tracer::new();
    let mut totals = PassTotals::default();
    t.open("pass", None, true);
    for call in workload.gen_calls(seed, reduced) {
        let (generated, _) = t.span(call.span_name(), None, true, || call.run());
        if let GenCall::Trees(config) = call {
            let replayed = replay_trees(&mut t, config.trees_scale, config.seed);
            let expected: Vec<(String, Tree)> =
                generated.into_iter().map(|i| (i.name, i.tree)).collect();
            if replayed != expected {
                totals
                    .violations
                    .push("the sparse replay differs from trees_dataset".into());
            }
        }
    }
    for (config, engine) in grid.configs.iter().zip(results) {
        t.open("grid", None, true);
        let columns: Vec<Option<Column>> = config
            .scheduler_names()
            .iter()
            .map(|n| Column::of(n))
            .collect();
        let mut rows = engine.results.iter();
        let mut slowest_path = 0;
        for (i, (name, tree)) in grid.instances.iter().enumerate() {
            let sample = tree.len() >= CPU_SAMPLE_MIN_NODES;
            let (bounds, prep) = t.span("minmem.liu_peak", Some(i), sample, || {
                MemoryBounds::of(tree)
            });
            totals.prep_ns += prep;
            if config.filter_interesting && !bounds.is_interesting() {
                continue;
            }
            let memory = bounds.memory(config.bound);
            let row = rows.next().filter(|r| &r.name == name);
            if row.is_none() {
                totals
                    .violations
                    .push(format!("{} {name}: no engine row", config.bound));
            }
            let mut slowest_cell = 0;
            for (a, column) in columns.iter().enumerate() {
                let Some(column) = *column else {
                    totals
                        .violations
                        .push(format!("column {a}: not a built-in scheduler"));
                    continue;
                };
                let (scheduled, schedule_ns) = t.span(column.span(), Some(i), sample, || {
                    column.schedule(tree, memory)
                });
                totals.schedule_ns += schedule_ns;
                let mut cell_ns = schedule_ns;
                let cell = scheduled.and_then(|(schedule, stats)| {
                    let (io, fif_ns) = t.span("tree.fif", Some(i), sample, || {
                        fif_io(tree, &schedule, memory)
                    });
                    let (peak, peak_ns) = t.span("tree.peak", Some(i), sample, || {
                        peak_memory(tree, &schedule)
                    });
                    cell_ns += fif_ns + peak_ns;
                    Ok((io?.total_io, peak?, stats))
                });
                totals.cell_ns += cell_ns;
                slowest_cell = slowest_cell.max(cell_ns);
                totals.fif_nodes += tree.len() as u64;
                match cell {
                    Ok((io, peak, stats)) => {
                        totals.expansions += stats.expansions as u64;
                        totals.forced_io += stats.forced_io;
                        totals.cap_hits += u64::from(stats.hit_iteration_cap);
                        if let Some(row) = row {
                            if (row.io_volumes[a], row.peak_memories[a]) != (io, peak) {
                                totals.violations.push(format!(
                                    "{} {name} column {a}: sequential io/peak {io}/{peak}, \
                                     engine {}/{}",
                                    config.bound, row.io_volumes[a], row.peak_memories[a]
                                ));
                            }
                        }
                    }
                    Err(e) => totals
                        .violations
                        .push(format!("{} {name} column {a}: {e}", config.bound)),
                }
            }
            slowest_path = slowest_path.max(prep + slowest_cell);
        }
        t.close();
        totals.critical_path_ns += slowest_path;
    }
    t.close();
    (t, totals)
}

/// Replays the `sparse` calls of `trees_dataset` one span per call and
/// returns the named trees they produce.
fn replay_trees(t: &mut Tracer, scale: usize, seed: u64) -> Vec<(String, Tree)> {
    let mut out = Vec::new();
    for job in trees_jobs(scale, seed) {
        let (pattern, _) = t.span("sparse.pattern", None, true, || match job.spec {
            PatternSpec::Grid2d { nx, ny, nine_point } => grid_laplacian_2d(nx, ny, nine_point),
            PatternSpec::Grid3d { nx, ny, nz } => grid_laplacian_3d(nx, ny, nz),
            PatternSpec::Random {
                n, degree, seed, ..
            } => random_symmetric(n, degree, seed),
        });
        for &ordering in &job.orderings {
            let (perm, _) = t.span("sparse.ordering", None, true, || {
                compute_ordering(&pattern, ordering, job.grid(ordering))
            });
            let (tree, _) = t.span("sparse.assembly", None, true, || {
                assembly_tree(&pattern.permute(&perm), AssemblyOptions::default())
            });
            if let Ok(tree) = tree {
                out.push((job.instance_name(ordering), tree));
            }
        }
    }
    out
}
