//! Regenerates the golden regression corpus: one `*.tree` snapshot per
//! instance of [`oocts_bench::corpus::corpus_instances`] plus their
//! `golden.tsv` expectations, written into `DIR`. The committed copy lives
//! in `tests/corpus/`:
//!
//! ```text
//! cargo run --release -p oocts-bench --bin emit_corpus -- tests/corpus
//! ```
//!
//! `--seed X` picks another generation seed (default `0x5eed`, the one the
//! committed corpus uses). Usage errors exit with code 2.

use std::path::Path;
use std::process::ExitCode;

use oocts_bench::corpus::{corpus_golden, corpus_instances, DEFAULT_SEED};
use oocts_gen::corpus::{format_golden, format_instance};

const USAGE: &str = "usage: emit_corpus DIR [--seed X]";

/// What the command line asked for.
enum Mode {
    Emit { dir: String, seed: u64 },
    Help,
}

/// Parses the command line; a `String` error is a usage error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Mode, String> {
    let mut dir = None;
    let mut seed = DEFAULT_SEED;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("missing value for --seed")?
                    .parse()
                    .map_err(|_| "--seed wants a number".to_string())?;
            }
            "--help" | "-h" => return Ok(Mode::Help),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other if dir.is_none() => dir = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let dir = dir.ok_or("missing the output directory")?;
    Ok(Mode::Emit { dir, seed })
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Mode::Emit { dir, seed }) => match emit(Path::new(&dir), seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("emit_corpus: {message}");
                ExitCode::FAILURE
            }
        },
        Ok(Mode::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("emit_corpus: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Writes the corpus of `seed` into `dir`.
fn emit(dir: &Path, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let instances = corpus_instances(seed);
    let golden = corpus_golden(&instances).map_err(|e| e.to_string())?;
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    for inst in &instances {
        let text = format_instance(&inst.name, &inst.tree).map_err(|e| e.to_string())?;
        write(&format!("{}.tree", inst.name), &text)?;
    }
    write("golden.tsv", &format_golden(&golden))?;
    println!(
        "emit_corpus: wrote {} instances and {} golden records to {}",
        instances.len(),
        golden.len(),
        dir.display()
    );
    Ok(())
}
