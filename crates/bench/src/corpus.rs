//! The golden regression corpus committed under `tests/corpus/`: which
//! instances it holds and the expectations `golden.tsv` records for them.
//! The `emit_corpus` binary writes both; `tests/golden.rs` replays them.

use oocts_core::scheduler::builtin_schedulers;
use oocts_gen::corpus::GoldenRecord;
use oocts_gen::dataset::{synth_dataset, trees_dataset, DatasetConfig, Instance};
use oocts_profile::bounds::MemoryBound;
use oocts_profile::runner::{run_experiment, ExperimentConfig, ExperimentError};
use oocts_tree::Tree;

/// The seed the committed corpus was generated with (`emit_corpus`'s
/// default).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// The instances snapshotted into the golden corpus (`tests/corpus/`):
/// a handful of small SYNTH trees plus the smallest TREES assembly trees,
/// all deterministic in `seed`.
///
/// Small on purpose — the golden suite replays every instance under every
/// built-in scheduler (`FullRecExpand` included) in debug builds.
pub fn corpus_instances(seed: u64) -> Vec<Instance> {
    let mut instances = synth_dataset(&DatasetConfig {
        synth_instances: 5,
        synth_nodes: 220,
        trees_scale: 1,
        seed,
    });
    for inst in &mut instances {
        inst.name = format!("corpus-{}", inst.name);
    }
    let mut trees = trees_dataset(&DatasetConfig {
        synth_instances: 0,
        synth_nodes: 0,
        trees_scale: 1,
        seed,
    });
    trees.sort_by_key(|i| i.tree.len());
    for mut inst in trees.into_iter().take(3) {
        inst.name = format!("corpus-{}", inst.name);
        instances.push(inst);
    }
    instances
}

/// Computes the golden expectations of a corpus: every instance solved by
/// every built-in scheduler at the `Middle` memory bound, through the same
/// [`run_experiment`] path the golden suite replays.
///
/// # Errors
/// Propagates the first [`ExperimentError`]; the corpus instances are
/// feasible under the paper's bounds by construction.
pub fn corpus_golden(instances: &[Instance]) -> Result<Vec<GoldenRecord>, ExperimentError> {
    let named: Vec<(String, Tree)> = instances
        .iter()
        .map(|i| (i.name.clone(), i.tree.clone()))
        .collect();
    let config = ExperimentConfig::new(builtin_schedulers(), MemoryBound::Middle);
    let results = run_experiment(&named, &config)?;
    let names = results.scheduler_names();
    let mut records = Vec::with_capacity(results.results.len() * names.len());
    for res in &results.results {
        for (a, scheduler) in names.iter().enumerate() {
            records.push(GoldenRecord {
                instance: res.name.clone(),
                scheduler: scheduler.clone(),
                memory: res.memory,
                io_volume: res.io_volumes[a],
                peak_memory: res.peak_memories[a],
            });
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_gen::corpus::{format_golden, format_instance};
    use std::path::Path;

    #[test]
    fn corpus_is_deterministic_and_golden_covers_every_cell() {
        let a = corpus_instances(7);
        let b = corpus_instances(7);
        assert_eq!(a.len(), 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.tree, y.tree);
        }
        let golden = corpus_golden(&a).expect("corpus instances are feasible");
        assert_eq!(golden.len(), a.len() * builtin_schedulers().len());
        assert!(golden.iter().any(|r| r.scheduler == "FullRecExpand"));
        assert!(golden
            .iter()
            .all(|r| r.peak_memory >= 1 && r.instance.starts_with("corpus-")));
    }

    /// The emitter at its default seed reproduces the committed corpus
    /// byte for byte: every `*.tree` file, nothing more, and `golden.tsv`.
    #[test]
    fn default_seed_reproduces_the_committed_corpus() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .unwrap_or_else(|e| panic!("cannot read tests/corpus/{name}: {e}"))
        };

        let instances = corpus_instances(DEFAULT_SEED);
        let mut emitted: Vec<String> = Vec::new();
        for inst in &instances {
            let file = format!("{}.tree", inst.name);
            let text = format_instance(&inst.name, &inst.tree).unwrap();
            assert!(text == read(&file), "tests/corpus/{file} differs");
            emitted.push(file);
        }
        emitted.sort();
        let mut committed: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tree"))
            .collect();
        committed.sort();
        assert_eq!(emitted, committed, "emitted and committed instance sets");

        let golden = corpus_golden(&instances).expect("corpus instances are feasible");
        assert!(
            format_golden(&golden) == read("golden.tsv"),
            "tests/corpus/golden.tsv differs"
        );
    }
}
