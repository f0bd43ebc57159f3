//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload synth-mid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Builds the workload's instances (timed as set-up), runs engine batches
//! for `--seconds`, checks every output, and prints the metrics: with
//! `--trace 0` the end-to-end ones, with `--trace 1` the per-layer ones
//! from a traced run. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0 only
//! when every check passed and no cell failed. README.md lists the
//! workloads and metrics; `--reduced` shrinks the inputs for the
//! self-tests and `--fault` corrupts the output to show the checks work.

mod check;
mod host;
mod measure;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use oocts_profile::bounds::MemoryBounds;
use serde::value::Value;

use measure::{run_batch, Batch, Fault, Grid, Watchdog};
use stats::{median, percentile, quartile_spread, sorted};
use workload::{Workload, DEFAULT_SEED, WORKERS};

const USAGE: &str = "usage: perfbench --workload synth-mid|trees-all|imbal-huge|tiny-grid \
                     [--seed N] [--seconds S] [--trace 0|1] [--reduced] \
                     [--fault drop-row|corrupt-digest]";

/// Set-ups per run: at least `SETUP_REPS`, and more until `SETUP_SECONDS`
/// have passed; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
/// Fewest measured batches per run (of each kind, in a traced run).
const MIN_BATCHES: usize = 3;
/// The whole run, set-up and traced pass included, must end by then (a
/// traced `trees-all` run takes ~70 s on the 2-vCPU host it was tuned on).
const DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reduced: bool,
    fault: Fault,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::SynthMid,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reduced: false,
        fault: Fault::None,
    };
    while let Some(flag) = args.next() {
        if flag == "--reduced" {
            parsed.reduced = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&parsed.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--fault" => {
                parsed.fault = match value.as_str() {
                    "drop-row" => Fault::DropRow,
                    "corrupt-digest" => Fault::CorruptDigest,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    samples: usize,
    /// How the value summarises its samples.
    stat: String,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str, samples: usize, stat: &str) -> Metric {
        Metric {
            name: name.to_string(),
            // A value is always a finite JSON number; a ratio over an empty
            // base reads 0.
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
            stat: stat.to_string(),
        }
    }

    /// The median of per-batch samples, with their quartile spread.
    fn median_of(name: &str, samples: &[f64], unit: &'static str) -> Metric {
        let stat = format!("median, IQR/median {:.4}", quartile_spread(samples));
        Metric::new(name, median(samples), unit, samples.len(), &stat)
    }
}

/// The last stdout line of a run.
pub(crate) fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let watchdog = Watchdog::start(DEADLINE);
    let workload = args.workload;

    // Set-up: instance generation only (`gen` and, for TREES, `sparse`).
    let mut setup_s = Vec::new();
    let mut instances = Vec::new();
    let setup_started = Instant::now();
    while setup_s.len() < SETUP_REPS || setup_started.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(std::mem::take(&mut instances));
        let started = Instant::now();
        instances = std::hint::black_box(workload.generate(args.seed, args.reduced));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let instances = workload.grid_instances(instances, args.reduced);
    let configs = workload.configs();
    let kept = configs
        .iter()
        .map(|c| {
            if c.filter_interesting {
                instances
                    .iter()
                    .filter(|(_, t)| MemoryBounds::of(t).is_interesting())
                    .count()
            } else {
                instances.len()
            }
        })
        .collect();
    let grid = Grid {
        instances,
        configs,
        kept,
    };

    // One checked warm-up batch, then the measured window. A traced run
    // alternates plain and traced batches so that drift hits both alike.
    let mut batches = vec![run_batch(&grid, false, args.fault, &watchdog)];
    batches[0].results.clear();
    let mut plain: Vec<Batch> = Vec::new();
    let mut traced: Vec<Batch> = Vec::new();
    let tail = workload.tail_percentile();
    let window = Instant::now();
    loop {
        // Only the last traced batch's rows are needed later (to cross-check
        // the sequential pass); dropping the rest keeps memory flat.
        let mut batch = run_batch(&grid, false, Fault::None, &watchdog);
        batch.results.clear();
        plain.push(batch);
        if args.trace {
            if let Some(previous) = traced.last_mut() {
                previous.results.clear();
            }
            traced.push(run_batch(&grid, true, Fault::None, &watchdog));
        }
        if window.elapsed().as_secs_f64() >= args.seconds && plain.len() >= MIN_BATCHES {
            break;
        }
    }

    let mut violations: Vec<String> = Vec::new();
    let (metrics, pass) = if args.trace {
        let last = traced.last().expect("the window runs at least one batch");
        let (tracer, totals) =
            trace::sequential_pass(workload, args.seed, args.reduced, &grid, &last.results);
        let metrics = per_layer(&plain, &traced, &tracer, &totals);
        violations.extend(totals.violations.iter().cloned());
        (metrics, Some(tracer))
    } else {
        (end_to_end(&setup_s, &plain, tail), None)
    };

    batches.extend(plain);
    batches.extend(traced);
    let digest = batches[0].digest.clone();
    for b in &batches {
        violations.extend(b.violations.iter().cloned());
        if b.digest != digest {
            violations.push(format!("batch digests differ: {} vs {digest}", b.digest));
        }
    }
    let pinned = args.seed == DEFAULT_SEED && !args.reduced;
    if pinned && digest != workload.pinned_digest() {
        violations.push(format!(
            "digest {digest} differs from the pinned {}",
            workload.pinned_digest()
        ));
    }
    let tally = watchdog.stop();
    let correct = violations.is_empty() && tally.failed == 0;

    // Report: run facts, host facts, digest, metrics, then the result line.
    let mut facts: Vec<(&str, String)> = vec![
        ("workload", workload.name().into()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("reduced", args.reduced.to_string()),
        ("workers", WORKERS.to_string()),
        ("batches", batches.len().to_string()),
        ("instances", grid.instances.len().to_string()),
        ("cells_per_batch", grid.cells().to_string()),
        ("tail_percentile", tail.to_string()),
        ("csv_fnv64", digest),
        ("digest_pinned", pinned.to_string()),
    ];
    facts.extend(host::facts());
    for (key, value) in &facts {
        println!("# {key}: {value}");
    }
    for m in &metrics {
        println!(
            "{:<30} {:>16.6} {:<8} n={} ({})",
            m.name, m.value, m.unit, m.samples, m.stat
        );
    }
    for v in violations.iter().take(20) {
        eprintln!("perfbench: check failed: {v}");
    }
    if let Err(e) = write_outputs(&args, &facts, &metrics, pass.as_ref()) {
        eprintln!("perfbench: could not write the result files: {e}");
    }
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of the plain batches.
fn end_to_end(setup_s: &[f64], plain: &[Batch], tail: f64) -> Vec<Metric> {
    let solve: Vec<f64> = plain.iter().map(|b| b.solve.as_secs_f64()).collect();
    let throughput: Vec<f64> = plain
        .iter()
        .map(|b| b.nodes as f64 / b.solve.as_secs_f64())
        .collect();
    // Clock ticks are 10 ms, too coarse for one batch: average the window.
    let cpu = plain.iter().map(|b| b.cpu.as_secs_f64()).sum::<f64>() / plain.len() as f64;
    let rows: Vec<f64> = plain
        .iter()
        .flat_map(|b| b.row_ms.iter().copied())
        .collect();
    let cells = sorted(
        &plain
            .iter()
            .flat_map(|b| b.cell_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let tail_stat = format!("nearest-rank p{}", tail * 100.0);
    vec![
        Metric::median_of("setup_s", setup_s, "s"),
        Metric::median_of("solve_s", &solve, "s"),
        Metric::median_of("nodes_per_s", &throughput, "1/s"),
        Metric::new(
            "cell_ms_p50",
            median(&rows),
            "ms",
            rows.len(),
            "median over instances of the mean cell time",
        ),
        Metric::new(
            "cell_ms_tail",
            percentile(&cells, tail),
            "ms",
            cells.len(),
            &tail_stat,
        ),
        Metric::new("cpu_s", cpu, "s", plain.len(), "mean per batch"),
        Metric::new(
            "peak_rss_mb",
            host::peak_rss_mib(),
            "MiB",
            1,
            "VmHWM at exit",
        ),
    ]
}

/// The per-layer metrics of a traced run.
fn per_layer(
    plain: &[Batch],
    traced: &[Batch],
    tracer: &trace::Tracer,
    totals: &trace::PassTotals,
) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let med = |f: &dyn Fn(&Batch) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let n = traced.len();
    let solve_s = med(&|b| b.solve.as_secs_f64());
    let plain_s = median(
        &plain
            .iter()
            .map(|b| b.solve.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let cpu_s = traced.iter().map(|b| b.cpu.as_secs_f64()).sum::<f64>() / n as f64;
    let cell_sum_ms = med(&|b| b.cell_ms.iter().sum());
    let prep_ms = ms(totals.prep_ns);
    let busy_ms = prep_ms + cell_sum_ms;
    let walls = tracer.wall_by_name();
    let wall = |name: &str| ms(walls.get(name).copied().unwrap_or(0));
    let spans = tracer.spans().len();
    let pass = "sequential pass";

    let mut out: Vec<Metric> = trace::LAYER_SPANS
        .iter()
        .map(|&name| Metric::new(&format!("{name}_ms"), wall(name), "ms", spans, pass))
        .collect();
    out.extend([
        Metric::new(
            "core.expansions",
            totals.expansions as f64,
            "count",
            1,
            pass,
        ),
        Metric::new("core.forced_io", totals.forced_io as f64, "count", 1, pass),
        Metric::new("core.cap_hits", totals.cap_hits as f64, "count", 1, pass),
        Metric::new(
            "core.schedule_share",
            totals.schedule_ns as f64 / totals.cell_ns as f64,
            "ratio",
            1,
            pass,
        ),
        Metric::new(
            "tree.fif_ns_per_node",
            wall("tree.fif") * 1e6 / totals.fif_nodes as f64,
            "ns/node",
            1,
            pass,
        ),
        Metric::new(
            "profile.critical_path_ms",
            ms(totals.critical_path_ns),
            "ms",
            1,
            pass,
        ),
        Metric::new(
            "profile.cell_sum_ms",
            cell_sum_ms,
            "ms",
            n,
            "median of traced batches",
        ),
        Metric::new(
            "profile.cell_inflation",
            cell_sum_ms / ms(totals.cell_ns),
            "ratio",
            n,
            "engine cells / sequential cells",
        ),
        Metric::new(
            "profile.utilisation",
            busy_ms / (WORKERS as f64 * solve_s * 1e3),
            "ratio",
            n,
            "(prep + cells) / (workers x solve)",
        ),
        Metric::new(
            "profile.engine_overhead_ms",
            WORKERS as f64 * solve_s * 1e3 - busy_ms,
            "ms",
            n,
            "workers x solve - prep - cells",
        ),
        Metric::new(
            "profile.cpu_per_busy",
            cpu_s * 1e3 / busy_ms,
            "ratio",
            n,
            "cpu / (prep + cells)",
        ),
        Metric::new(
            "profile.executed",
            med(&|b| b.executed as f64),
            "count",
            n,
            "median",
        ),
        Metric::new(
            "profile.stolen",
            med(&|b| b.stolen as f64),
            "count",
            n,
            "median",
        ),
        Metric::new(
            "profile.injected",
            med(&|b| b.injected as f64),
            "count",
            n,
            "median",
        ),
        Metric::new(
            "profile.sink_ms",
            med(&|b| b.sink.as_secs_f64() * 1e3),
            "ms",
            n,
            "median",
        ),
        Metric::new(
            "trace.overhead_ms",
            (solve_s - plain_s) * 1e3,
            "ms",
            n + plain.len(),
            "median traced - median plain solve",
        ),
        Metric::new(
            "trace.layer_share",
            tracer.layer_share(),
            "ratio",
            spans,
            pass,
        ),
    ]);
    out
}

/// Writes the run's facts and metrics, and in a traced run its spans, to
/// `perfbench/out/`.
fn write_outputs(
    args: &Args,
    facts: &[(&str, String)],
    metrics: &[Metric],
    tracer: Option<&trace::Tracer>,
) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut facts_json = Value::object();
    for (key, value) in facts {
        facts_json.set(key, Value::Str(value.clone()));
    }
    let mut metrics_json = Value::object();
    for m in metrics {
        metrics_json.set(
            &m.name,
            Value::object()
                .with("value", Value::F64(m.value))
                .with("unit", Value::Str(m.unit.into()))
                .with("samples", Value::U64(m.samples as u64))
                .with("stat", Value::Str(m.stat.clone())),
        );
    }
    let doc = Value::object()
        .with("facts", facts_json)
        .with("metrics", metrics_json);
    std::fs::write(dir.join(format!("{stem}.json")), doc.render_pretty())?;
    if let Some(tracer) = tracer {
        let path: PathBuf = dir.join(format!("{stem}.trace.json"));
        tracer.write(&path, args.workload.name(), args.seed)?;
    }
    Ok(())
}
