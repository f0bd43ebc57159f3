//! The four workloads: what they generate, which grid they run, and the
//! fixed facts the checks compare against. README.md gives the reasons for
//! each choice.

use std::sync::Arc;

use oocts_bench::perf::IMBAL_SCHEDULERS;
use oocts_core::registry::SchedulerRegistry;
use oocts_core::scheduler::Scheduler;
use oocts_gen::dataset::{synth_dataset, trees_dataset, DatasetConfig, Instance};
use oocts_profile::bounds::MemoryBound;
use oocts_profile::runner::ExperimentConfig;
use oocts_sparse::ordering::Ordering;
use oocts_tree::Tree;

/// Engine workers of every workload run.
pub const WORKERS: usize = 2;

/// The seed a run uses when `--seed` is not given; the pinned digests are
/// those of this seed at full size.
pub const DEFAULT_SEED: u64 = 24301;

/// SYNTH trees per `synth-mid` batch (the paper uses 330; cut so that
/// several batches fit in one measured run).
const SYNTH_MID_TREES: usize = 60;
/// Nodes of every SYNTH tree of `synth-mid` (the paper's size).
const SYNTH_NODES: usize = 3000;
/// TREES dataset scale of `trees-all`.
const TREES_SCALE: usize = 2;
/// Copies of the TREES instances in each `trees-all` call. One copy makes a
/// call of ~50 ms whose last few cells, run alone, set its length; with
/// eight the call measures the schedulers rather than its own tail.
const TREES_COPIES: usize = 8;
/// The huge and the small trees of `imbal-huge`.
const IMBAL_HUGE_NODES: usize = 1 << 20;
const IMBAL_SMALL: (usize, usize) = (63, 250);
/// The many tiny trees of `tiny-grid`.
const TINY: (usize, usize) = (40_000, 40);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SynthMid,
    TreesAll,
    ImbalHuge,
    TinyGrid,
}

/// One call into `gen` that builds part of a workload's inputs.
#[derive(Debug, Clone, Copy)]
pub enum GenCall {
    Synth(DatasetConfig),
    Trees(DatasetConfig),
}

impl GenCall {
    pub fn span_name(self) -> &'static str {
        match self {
            GenCall::Synth(_) => "gen.synth",
            GenCall::Trees(_) => "gen.trees",
        }
    }

    pub fn run(self) -> Vec<Instance> {
        match self {
            GenCall::Synth(config) => synth_dataset(&config),
            GenCall::Trees(config) => trees_dataset(&config),
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SynthMid,
        Workload::TreesAll,
        Workload::ImbalHuge,
        Workload::TinyGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthMid => "synth-mid",
            Workload::TreesAll => "trees-all",
            Workload::ImbalHuge => "imbal-huge",
            Workload::TinyGrid => "tiny-grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// FNV-1a digest of the streamed CSV of one batch at full size and
    /// [`DEFAULT_SEED`].
    pub fn pinned_digest(self) -> &'static str {
        match self {
            Workload::SynthMid => "0x517b250be4e1cce7",
            Workload::TreesAll => "0x7419574c4f43e7a8",
            Workload::ImbalHuge => "0x721d9e9c56bea984",
            Workload::TinyGrid => "0x47a248159cce1021",
        }
    }

    /// The tail percentile of `cell_ms_tail`: the highest of p90, p99 and
    /// p99.9 that leaves at least ten of one batch's distinct cells beyond
    /// it. Repeated batches and `trees-all`'s copies rerun the same cells,
    /// so they add no cells here.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::SynthMid | Workload::TreesAll | Workload::ImbalHuge => 0.90,
            Workload::TinyGrid => 0.999,
        }
    }

    /// The `gen` calls that build the workload's instances.
    pub fn gen_calls(self, seed: u64, reduced: bool) -> Vec<GenCall> {
        let synth = |count, nodes, seed| {
            GenCall::Synth(DatasetConfig {
                synth_instances: count,
                synth_nodes: nodes,
                trees_scale: 1,
                seed,
            })
        };
        match (self, reduced) {
            (Workload::SynthMid, false) => vec![synth(SYNTH_MID_TREES, SYNTH_NODES, seed)],
            (Workload::SynthMid, true) => vec![synth(6, 300, seed)],
            (Workload::TreesAll, _) => vec![GenCall::Trees(DatasetConfig {
                synth_instances: 0,
                synth_nodes: 0,
                trees_scale: if reduced { 1 } else { TREES_SCALE },
                seed,
            })],
            (Workload::ImbalHuge, false) => vec![
                synth(1, IMBAL_HUGE_NODES, seed),
                synth(IMBAL_SMALL.0, IMBAL_SMALL.1, seed.wrapping_add(1)),
            ],
            (Workload::ImbalHuge, true) => vec![
                synth(1, 6_000, seed),
                synth(IMBAL_SMALL.0, 150, seed.wrapping_add(1)),
            ],
            (Workload::TinyGrid, false) => vec![synth(TINY.0, TINY.1, seed)],
            (Workload::TinyGrid, true) => vec![synth(2_000, TINY.1, seed)],
        }
    }

    /// Builds the instances: the set-up phase that `setup_s` times.
    pub fn generate(self, seed: u64, reduced: bool) -> Vec<(String, Tree)> {
        // A second call's SYNTH names would repeat the first's.
        let mut out = Vec::new();
        for (call, prefix) in self
            .gen_calls(seed, reduced)
            .into_iter()
            .zip(["", "small-"])
        {
            out.extend(
                call.run()
                    .into_iter()
                    .map(|i| (format!("{prefix}{}", i.name), i.tree)),
            );
        }
        out
    }

    /// The instances the engine grid runs: the generated ones, repeated
    /// [`TREES_COPIES`] times for `trees-all` (twice at reduced size).
    pub fn grid_instances(
        self,
        instances: Vec<(String, Tree)>,
        reduced: bool,
    ) -> Vec<(String, Tree)> {
        let copies = match (self, reduced) {
            (Workload::TreesAll, false) => TREES_COPIES,
            (Workload::TreesAll, true) => 2,
            _ => return instances,
        };
        (0..copies)
            .flat_map(|k| {
                instances
                    .iter()
                    .map(move |(name, tree)| (format!("{name}#{k}"), tree.clone()))
            })
            .collect()
    }

    /// The engine configurations of one batch, run in this order.
    pub fn configs(self) -> Vec<ExperimentConfig> {
        let mut configs: Vec<ExperimentConfig> = match self {
            Workload::SynthMid => vec![ExperimentConfig::synth(MemoryBound::Middle)],
            Workload::TreesAll => MemoryBound::ALL
                .iter()
                .map(|&b| ExperimentConfig::trees(b))
                .collect(),
            Workload::ImbalHuge | Workload::TinyGrid => {
                vec![ExperimentConfig::new(
                    imbal_schedulers(),
                    MemoryBound::Middle,
                )]
            }
        };
        for c in &mut configs {
            c.threads = WORKERS;
        }
        configs
    }
}

fn imbal_schedulers() -> Vec<Arc<dyn Scheduler>> {
    SchedulerRegistry::with_builtins()
        .get_list(IMBAL_SCHEDULERS)
        .expect("the built-in IMBAL scheduler list parses")
}

/// How one sparse pattern of the TREES dataset is generated.
#[derive(Debug, Clone, Copy)]
pub enum PatternSpec {
    Grid2d {
        nx: usize,
        ny: usize,
        nine_point: bool,
    },
    Grid3d {
        nx: usize,
        ny: usize,
        nz: usize,
    },
    Random {
        n: usize,
        degree: f64,
        seed: u64,
        rep: usize,
    },
}

/// One pattern of the TREES dataset and the orderings applied to it, in
/// the order `trees_dataset` makes its `sparse` calls. `gen` does not
/// expose its per-matrix steps, so the traced pass replays them from this
/// list and checks that the replay yields exactly `trees_dataset`'s trees.
#[derive(Debug, Clone)]
pub struct PatternJob {
    pub spec: PatternSpec,
    pub orderings: Vec<Ordering>,
}

impl PatternJob {
    /// The instance name `trees_dataset` gives the tree of one ordering.
    pub fn instance_name(&self, ordering: Ordering) -> String {
        match self.spec {
            PatternSpec::Grid2d { nx, ny, nine_point } => format!(
                "grid2d-{nx}x{ny}{}-{ordering:?}",
                if nine_point { "-9pt" } else { "" }
            ),
            PatternSpec::Grid3d { nx, ny, nz } => format!("grid3d-{nx}x{ny}x{nz}-{ordering:?}"),
            PatternSpec::Random { n, degree, rep, .. } => {
                format!("rand-{n}-deg{degree}-s{rep}-{ordering:?}")
            }
        }
    }

    /// The `(nx, ny)` grid nested dissection needs, for 2-D grids.
    pub fn grid(&self, ordering: Ordering) -> Option<(usize, usize)> {
        match self.spec {
            PatternSpec::Grid2d { nx, ny, .. } if ordering == Ordering::NestedDissection => {
                Some((nx, ny))
            }
            _ => None,
        }
    }
}

/// The pattern jobs of `trees_dataset` at scale 1 or 2 (the scales the
/// benchmark uses), mirroring `oocts_gen::dataset`.
pub fn trees_jobs(scale: usize, seed: u64) -> Vec<PatternJob> {
    let grids: &[(usize, usize)] = if scale == 1 {
        &[(20, 20), (30, 20), (40, 25), (60, 10)]
    } else {
        &[
            (20, 20),
            (30, 30),
            (40, 40),
            (60, 40),
            (70, 70),
            (100, 20),
            (150, 12),
            (45, 35),
        ]
    };
    let grids3d: &[(usize, usize, usize)] = if scale == 1 {
        &[(6, 6, 6), (8, 8, 6)]
    } else {
        &[(8, 8, 8), (10, 10, 8), (12, 12, 10)]
    };
    let randoms: &[(usize, f64)] = if scale == 1 {
        &[(300, 3.0), (500, 4.0), (400, 2.5)]
    } else {
        &[
            (500, 3.0),
            (800, 4.0),
            (1200, 5.0),
            (2000, 3.5),
            (600, 2.5),
            (1500, 3.0),
        ]
    };
    let reps = if scale == 1 { 2 } else { 3 };

    let mut jobs = Vec::new();
    for &(nx, ny) in grids {
        for nine_point in [false, true] {
            jobs.push(PatternJob {
                spec: PatternSpec::Grid2d { nx, ny, nine_point },
                orderings: vec![
                    Ordering::NestedDissection,
                    Ordering::ReverseCuthillMcKee,
                    Ordering::MinimumDegree,
                ],
            });
        }
    }
    for &(nx, ny, nz) in grids3d {
        jobs.push(PatternJob {
            spec: PatternSpec::Grid3d { nx, ny, nz },
            orderings: vec![Ordering::Natural, Ordering::ReverseCuthillMcKee],
        });
    }
    for (i, &(n, degree)) in randoms.iter().enumerate() {
        for rep in 0..reps {
            jobs.push(PatternJob {
                spec: PatternSpec::Random {
                    n,
                    degree,
                    seed: seed.wrapping_add((i * 97 + rep * 7919) as u64),
                    rep,
                },
                orderings: vec![Ordering::MinimumDegree, Ordering::ReverseCuthillMcKee],
            });
        }
    }
    jobs
}
