//! # oocts-bench — figure regeneration and the golden corpus
//!
//! One binary per figure of the paper (see the workspace DESIGN.md for the
//! experiment index), all sharing the machinery of this library crate:
//!
//! | binary | paper figure |
//! |---|---|
//! | `fig02_counterexamples` | Section 4.3/4.4, Figure 2(a)/(b)/(c) |
//! | `fig04_synth_mid` | Figure 4 (SYNTH, M = (LB+Peak−1)/2) |
//! | `fig05_trees_mid` | Figure 5 (TREES, same bound) |
//! | `fig08_synth_lb` | Figure 8 (SYNTH, M1 = LB) |
//! | `fig09_trees_lb` | Figure 9 (TREES, M1 = LB) |
//! | `fig10_synth_peak` | Figure 10 (SYNTH, M2 = Peak − 1) |
//! | `fig11_trees_peak` | Figure 11 (TREES, M2 = Peak − 1) |
//! | `figA_examples` | Appendix A, Figures 6 and 7 |
//!
//! Every binary accepts `--trees N`, `--nodes K`, `--scale S`, `--seed X`,
//! `--threads T`, `--algos a,b,c` (strategy selection through the
//! [`oocts_core::registry::SchedulerRegistry`], parameterized specs such as
//! `RecExpand(max_rounds=5)` included) and `--quick`; run with `--help` for
//! details. Output is a short ASCII performance-profile table plus a CSV
//! block, ready to be pasted into EXPERIMENTS.md.
//!
//! Besides the figure binaries, `emit_corpus` regenerates the golden
//! regression corpus under `tests/corpus/` (see [`corpus`]). [`perf`] holds
//! the scheduler row and the CSV digest that the repository's `perfbench/`
//! harness shares.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod corpus;
pub mod perf;

use std::sync::Arc;
use std::time::Instant;

use oocts_core::registry::SchedulerRegistry;
use oocts_core::scheduler::{FullRecExpand, OptMinMem, PostOrderMinIo, Scheduler};
use oocts_gen::dataset::{synth_dataset, trees_dataset, DatasetConfig};
use oocts_gen::paper;
use oocts_minmem::opt_min_mem;
use oocts_profile::bounds::MemoryBound;
use oocts_profile::runner::{run_experiment, ExperimentConfig, ExperimentResults};
use oocts_tree::{fif_io, Tree};

/// Command-line options shared by all figure binaries.
#[derive(Clone)]
pub struct Cli {
    /// Number of SYNTH instances.
    pub trees: usize,
    /// Number of nodes per SYNTH instance.
    pub nodes: usize,
    /// TREES dataset scale (1–4).
    pub scale: usize,
    /// Base random seed.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Include FullRecExpand in SYNTH runs (expensive).
    pub full: bool,
    /// Strategy selection (`--algos a,b,c`, resolved once through the
    /// scheduler registry at parse time); `None` keeps each figure's
    /// paper-default set.
    pub algos: Option<Vec<Arc<dyn Scheduler>>>,
}

impl std::fmt::Debug for Cli {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cli")
            .field("trees", &self.trees)
            .field("nodes", &self.nodes)
            .field("scale", &self.scale)
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .field("full", &self.full)
            .field("algos", &self.algo_names())
            .finish()
    }
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            trees: 330,
            nodes: 3000,
            scale: 2,
            seed: 0x5eed,
            threads: 0,
            full: true,
            algos: None,
        }
    }
}

/// A command-line usage error from [`Cli::parse`]: the offending option and
/// what was wrong with its value. Rendered, it reads like
/// `--threads: invalid value "many" (expected a number)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// The option the error is about (e.g. `--threads`).
    pub option: String,
    /// What was wrong with it.
    pub message: String,
}

impl CliError {
    fn new(option: &str, message: impl Into<String>) -> CliError {
        CliError {
            option: option.to_string(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.option, self.message)
    }
}

impl std::error::Error for CliError {}

/// The one-line usage string shared by all figure binaries.
pub const USAGE: &str = "options: --trees N --nodes K --scale S --seed X --threads T \
                         --algos a,b,c --no-full --quick";

impl Cli {
    /// Parses the common command-line options; exits on `--help`.
    ///
    /// # Errors
    /// Returns a [`CliError`] on an unknown option, a missing value, or a
    /// value that does not parse (including `--algos` names the scheduler
    /// registry rejects). Binaries report it via [`Cli::parse_or_exit`].
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
        let mut cli = Cli::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| CliError::new(name, "missing value"))
            };
            fn number<T: std::str::FromStr>(name: &str, raw: String) -> Result<T, CliError> {
                raw.parse().map_err(|_| {
                    CliError::new(name, format!("invalid value {raw:?} (expected a number)"))
                })
            }
            match arg.as_str() {
                "--trees" => cli.trees = number("--trees", value("--trees")?)?,
                "--nodes" => cli.nodes = number("--nodes", value("--nodes")?)?,
                "--scale" => cli.scale = number("--scale", value("--scale")?)?,
                "--seed" => cli.seed = number("--seed", value("--seed")?)?,
                "--threads" => cli.threads = number("--threads", value("--threads")?)?,
                "--algos" => {
                    let registry = SchedulerRegistry::with_builtins();
                    let list = value("--algos")?;
                    cli.algos = Some(
                        registry
                            .get_list(&list)
                            .map_err(|e| CliError::new("--algos", e.to_string()))?,
                    );
                }
                "--no-full" => cli.full = false,
                "--quick" => {
                    cli.trees = 30;
                    cli.nodes = 500;
                    cli.scale = 1;
                }
                "--help" | "-h" => {
                    println!("{USAGE}");
                    println!(
                        "registered schedulers: {}",
                        SchedulerRegistry::with_builtins().names().join(", ")
                    );
                    std::process::exit(0);
                }
                other => return Err(CliError::new(other, "unknown option")),
            }
        }
        Ok(cli)
    }

    /// [`Cli::parse`] for binaries: on a usage error, prints the error and
    /// the usage string to stderr and exits with code 2.
    pub fn parse_or_exit(args: impl IntoIterator<Item = String>) -> Cli {
        Cli::parse(args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        })
    }

    /// The names of the schedulers selected with `--algos`; `None` if the
    /// flag was not given.
    pub fn algo_names(&self) -> Option<Vec<String>> {
        self.algos
            .as_ref()
            .map(|s| s.iter().map(|s| s.name()).collect())
    }

    fn dataset_config(&self) -> DatasetConfig {
        DatasetConfig {
            synth_instances: self.trees,
            synth_nodes: self.nodes,
            trees_scale: self.scale,
            seed: self.seed,
        }
    }
}

/// The overhead thresholds at which profiles are tabulated (fractions).
pub const REPORT_THRESHOLDS: [f64; 9] = [0.0, 0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00, 2.00];

/// Runs the SYNTH experiment of the paper (Figures 4, 8 and 10 depending on
/// the memory bound) and returns the formatted report.
pub fn synth_figure(cli: &Cli, bound: MemoryBound, figure: &str) -> String {
    let started = Instant::now();
    let ds = synth_dataset(&cli.dataset_config());
    let instances: Vec<(String, Tree)> = ds.into_iter().map(|i| (i.name, i.tree)).collect();
    let mut config = ExperimentConfig::synth(bound);
    if let Some(schedulers) = &cli.algos {
        config.schedulers = schedulers.clone();
    } else if !cli.full {
        config
            .schedulers
            .retain(|s| s.name() != FullRecExpand.name());
    }
    config.threads = cli.threads;
    let results = run_experiment(&instances, &config)
        .expect("paper memory bounds are feasible by construction");
    render_report(figure, &results, started)
}

/// Runs the TREES experiment of the paper (Figures 5, 9 and 11 depending on
/// the memory bound) and returns the formatted report. The report includes
/// both the full profile and the profile restricted to instances on which the
/// algorithms differ (the right-hand plots of the paper).
pub fn trees_figure(cli: &Cli, bound: MemoryBound, figure: &str) -> String {
    let started = Instant::now();
    let ds = trees_dataset(&cli.dataset_config());
    let instances: Vec<(String, Tree)> = ds.into_iter().map(|i| (i.name, i.tree)).collect();
    let mut config = ExperimentConfig::trees(bound);
    if let Some(schedulers) = &cli.algos {
        config.schedulers = schedulers.clone();
    }
    config.threads = cli.threads;
    let results = run_experiment(&instances, &config)
        .expect("paper memory bounds are feasible by construction");
    let mut out = render_report(figure, &results, started);
    let differing = results.restricted_to_differing();
    out.push_str(&format!(
        "\n-- restricted to the {} instances where the heuristics differ --\n",
        differing.results.len()
    ));
    if !differing.results.is_empty() {
        out.push_str(&differing.profile().to_ascii(&REPORT_THRESHOLDS));
    }
    out
}

fn render_report(figure: &str, results: &ExperimentResults, started: Instant) -> String {
    let profile = results.profile();
    let mut out = String::new();
    out.push_str(&format!(
        "=== {figure} — memory bound {}, {} instances, {} algorithms, {:.1}s ===\n",
        results.bound,
        results.results.len(),
        results.schedulers.len(),
        started.elapsed().as_secs_f64()
    ));
    out.push_str(&profile.to_ascii(&REPORT_THRESHOLDS));
    out.push('\n');
    for (a, name) in results.scheduler_names().iter().enumerate() {
        out.push_str(&format!(
            "{:<18} win-rate {:>6.1}%   mean overhead {:>7.2}%\n",
            name,
            profile.win_rate(a) * 100.0,
            profile.mean_overhead(a) * 100.0
        ));
    }
    out.push_str("\nCSV profile:\n");
    out.push_str(&profile.to_csv(&REPORT_THRESHOLDS));
    out
}

/// Reproduces the counterexamples of Sections 4.3 and 4.4 (Figure 2):
/// the best postorder against the 1-I/O reference on the Figure 2(a) family,
/// and OptMinMem against the 2k-I/O reference on the Figure 2(c) family.
pub fn counterexamples_report() -> String {
    let mut out = String::new();

    out.push_str("=== Figure 2(a) family: postorder traversals are not competitive ===\n");
    out.push_str("levels  nodes   M  reference_io  postorder_io  ratio\n");
    let m = 64;
    for levels in [0usize, 2, 4, 8, 16, 32] {
        let (tree, reference) = paper::fig2a_family(levels, m);
        let ref_io = fif_io(&tree, &reference, m).unwrap().total_io;
        let po = PostOrderMinIo.solve(&tree, m).unwrap();
        out.push_str(&format!(
            "{levels:>6}  {:>5}  {m:>2}  {ref_io:>12}  {:>12}  {:>5.1}\n",
            tree.len(),
            po.io_volume,
            po.io_volume as f64 / ref_io.max(1) as f64
        ));
    }

    out.push_str("\n=== Figure 2(b): OptMinMem trades 1 unit of peak for extra I/O (M = 6) ===\n");
    {
        let tree = paper::fig2b();
        let m = paper::FIG2B_MEMORY;
        let po = oocts_tree::Schedule::postorder(&tree);
        let po_io = fif_io(&tree, &po, m).unwrap().total_io;
        let po_peak = oocts_tree::peak_memory(&tree, &po).unwrap();
        let (mm_sched, mm_peak) = opt_min_mem(&tree);
        let mm_io = fif_io(&tree, &mm_sched, m).unwrap().total_io;
        out.push_str(&format!(
            "one chain after the other: peak {po_peak}, {po_io} I/Os\n\
             OptMinMem:                 peak {mm_peak}, {mm_io} I/Os\n"
        ));
    }

    out.push_str("\n=== Figure 2(c) family: OptMinMem is not competitive (M = 4k) ===\n");
    out.push_str("    k  nodes     M  reference_io  optminmem_io  ratio  k(k+1)\n");
    for k in [2u64, 4, 8, 16, 32, 64] {
        let (tree, reference, m) = paper::fig2c_family(k);
        let ref_io = fif_io(&tree, &reference, m).unwrap().total_io;
        let mm = OptMinMem.solve(&tree, m).unwrap();
        out.push_str(&format!(
            "{k:>5}  {:>5}  {m:>4}  {ref_io:>12}  {:>12}  {:>5.1}  {:>6}\n",
            tree.len(),
            mm.io_volume,
            mm.io_volume as f64 / ref_io.max(1) as f64,
            k * (k + 1)
        ));
    }
    out
}

/// Ablation study (not a paper figure): how the quality of `RecExpand`
/// changes with the number of expansion iterations allowed per node
/// (the paper fixes this to 2; `FullRecExpand` is the unbounded limit).
///
/// Reports, for a small SYNTH-like set, the total I/O volume summed over the
/// dataset and the average performance for each iteration limit.
pub fn recexpand_ablation_report(cli: &Cli) -> String {
    use oocts_core::recexpand::rec_expand_with_limit;
    use oocts_profile::bounds::MemoryBounds;

    let cfg = DatasetConfig {
        synth_instances: cli.trees.min(40),
        synth_nodes: cli.nodes.min(1000),
        trees_scale: 1,
        seed: cli.seed,
    };
    let instances = synth_dataset(&cfg);
    let limits: [Option<usize>; 5] = [Some(1), Some(2), Some(3), Some(5), None];

    let mut out = String::new();
    out.push_str(&format!(
        "=== RecExpand ablation: expansion-iteration limit ({} trees of {} nodes, M = mid) ===\n",
        cfg.synth_instances, cfg.synth_nodes
    ));
    out.push_str("limit      total_io     mean_perf   expansions\n");
    for limit in limits {
        let mut total_io = 0u64;
        let mut perf_sum = 0.0;
        let mut expansions = 0usize;
        for inst in &instances {
            let bounds = MemoryBounds::of(&inst.tree);
            let memory = bounds.memory(MemoryBound::Middle);
            let outcome = rec_expand_with_limit(&inst.tree, memory, limit).expect("feasible");
            let io = fif_io(&inst.tree, &outcome.schedule, memory)
                .unwrap()
                .total_io;
            total_io += io;
            perf_sum += oocts_profile::metric::performance(memory, io);
            expansions += outcome.expansions;
        }
        let label = match limit {
            Some(l) => format!("{l}"),
            None => "full".to_string(),
        };
        out.push_str(&format!(
            "{label:<8} {total_io:>11} {:>13.5} {expansions:>12}\n",
            perf_sum / instances.len() as f64
        ));
    }
    out
}

/// Reproduces the worked examples of Appendix A (Figures 6 and 7).
pub fn appendix_examples_report() -> String {
    let mut out = String::new();
    let cases = [
        ("Figure 6", paper::fig6(), paper::FIG6_MEMORY),
        ("Figure 7", paper::fig7(), paper::FIG7_MEMORY),
    ];
    for (name, tree, m) in cases {
        out.push_str(&format!("=== {name} (M = {m}) ===\n"));
        let (_, opt) = oocts_core::brute_force_min_io(&tree, m).unwrap();
        out.push_str(&format!("optimal I/O volume: {opt}\n"));
        for scheduler in oocts_core::scheduler::synth_schedulers() {
            let report = scheduler.solve(&tree, m).unwrap();
            out.push_str(&format!(
                "{:<18} {:>3} I/Os\n",
                report.scheduler, report.io_volume
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_parses_options() {
        let cli = parse(&["--trees", "5", "--nodes", "100", "--seed", "9", "--no-full"]).unwrap();
        assert_eq!(cli.trees, 5);
        assert_eq!(cli.nodes, 100);
        assert_eq!(cli.seed, 9);
        assert!(!cli.full);
        let quick = parse(&["--quick"]).unwrap();
        assert_eq!(quick.trees, 30);
    }

    #[test]
    fn cli_rejects_unknown_options() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert_eq!(err.option, "--bogus");
        assert_eq!(err.message, "unknown option");
    }

    #[test]
    fn cli_rejects_bad_numeric_values() {
        let err = parse(&["--threads", "many"]).unwrap_err();
        assert_eq!(err.option, "--threads");
        assert!(err.message.contains("\"many\""), "{err}");
        assert!(err.message.contains("expected a number"), "{err}");
        let err = parse(&["--scale", "2.5"]).unwrap_err();
        assert_eq!(err.option, "--scale");
        let err = parse(&["--trees", "-3"]).unwrap_err();
        assert_eq!(err.option, "--trees");
        // The rendered form names the flag, so the user knows what to fix.
        assert!(err.to_string().starts_with("--trees: "), "{err}");
    }

    #[test]
    fn cli_rejects_missing_values() {
        let err = parse(&["--seed"]).unwrap_err();
        assert_eq!(err.option, "--seed");
        assert_eq!(err.message, "missing value");
        let err = parse(&["--algos"]).unwrap_err();
        assert_eq!(err.option, "--algos");
    }

    #[test]
    fn cli_resolves_algos_through_the_registry() {
        let cli = parse(&["--algos", "postorderminio,RecExpand(max_rounds=4)"]).unwrap();
        assert_eq!(
            cli.algo_names().unwrap(),
            ["PostOrderMinIO", "RecExpand(max_rounds=4)"]
        );
        let schedulers = cli.algos.as_ref().unwrap();
        assert_eq!(schedulers.len(), 2);
        assert_eq!(schedulers[1].name(), "RecExpand(max_rounds=4)");
    }

    #[test]
    fn cli_rejects_unknown_algos() {
        let err = parse(&["--algos", "NoSuchScheduler"]).unwrap_err();
        assert_eq!(err.option, "--algos");
        assert!(err.message.contains("NoSuchScheduler"), "{err}");
    }

    #[test]
    fn synth_figure_honours_algo_selection() {
        let mut cli =
            Cli::parse(["--quick", "--algos", "PostOrderMinIO,OptMinMem"].map(str::to_string))
                .unwrap();
        cli.trees = 4;
        cli.nodes = 150;
        let report = synth_figure(&cli, MemoryBound::Middle, "Figure 4 (selected)");
        assert!(report.contains("2 algorithms"));
        assert!(report.contains("PostOrderMinIO"));
        assert!(!report.contains("RecExpand"));
    }

    #[test]
    fn counterexample_report_shows_growing_ratio() {
        let report = counterexamples_report();
        assert!(report.contains("Figure 2(a)"));
        assert!(report.contains("Figure 2(c)"));
        assert!(report.contains("OptMinMem"));
    }

    #[test]
    fn appendix_report_contains_both_examples() {
        let report = appendix_examples_report();
        assert!(report.contains("Figure 6"));
        assert!(report.contains("Figure 7"));
        assert!(report.contains("optimal I/O volume: 3"));
    }

    #[test]
    fn ablation_report_runs_and_is_monotone_in_spirit() {
        let mut cli = Cli::parse(["--quick".to_string()]).unwrap();
        cli.trees = 5;
        cli.nodes = 200;
        let report = recexpand_ablation_report(&cli);
        assert!(report.contains("RecExpand ablation"));
        // One line per limit plus the two headers.
        assert_eq!(report.lines().count(), 2 + 5);
    }

    #[test]
    fn synth_figure_quick_run() {
        let mut cli = Cli::parse(["--quick".to_string()]).unwrap();
        cli.trees = 6;
        cli.nodes = 200;
        cli.full = false;
        let report = synth_figure(&cli, MemoryBound::Middle, "Figure 4 (quick)");
        assert!(report.contains("Figure 4"));
        assert!(report.contains("PostOrderMinIO"));
        assert!(report.contains("CSV profile"));
    }

    #[test]
    fn trees_figure_quick_run() {
        let mut cli = Cli::parse(["--quick".to_string()]).unwrap();
        cli.scale = 1;
        cli.threads = 0;
        let report = trees_figure(&cli, MemoryBound::Middle, "Figure 5 (quick)");
        assert!(report.contains("Figure 5"));
        assert!(report.contains("restricted to"));
    }
}
