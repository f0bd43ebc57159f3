//! Pieces of the engine benchmark shared with the repository's `perfbench/`
//! harness: the comparable-cost scheduler row of the imbalanced grid and the
//! streamed-CSV digest.

/// The scheduler specs of the imbalanced grid: one huge instance plus many
/// tiny ones. `FullRecExpand` and `RecExpand` are excluded: their
/// superlinear cost on the huge instance would make that row a
/// *single-cell* critical path, which no cell-granularity balancing can
/// split — the grid is built to measure load balancing, so its per-cell
/// costs must be comparable.
pub const IMBAL_SCHEDULERS: &str = "PostOrderMinIO,OptMinMem,PostOrderMinMem";

/// Streaming FNV-1a 64-bit digest, rendered `0x`-hex — the checksum behind
/// `perfbench`'s `csv_fnv64` field. Fed row by row as the engine streams
/// results, so it also proves the streamed CSV equals the batch export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorbs `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest rendered as `0x`-prefixed lowercase hex.
    pub fn render(self) -> String {
        format!("{:#018x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_core::registry::SchedulerRegistry;
    use oocts_gen::dataset::{synth_dataset, DatasetConfig};
    use oocts_profile::bounds::MemoryBound;
    use oocts_profile::runner::{csv_header, run_experiment_streaming, ExperimentConfig};
    use oocts_tree::Tree;

    #[test]
    fn streamed_csv_digest_matches_the_batch_export() {
        // A small imbalanced grid: one 6000-node SYNTH tree plus 63 tiny
        // ones, solved at 3 threads so rows arrive out of order.
        let synth = |instances, nodes, seed| {
            synth_dataset(&DatasetConfig {
                synth_instances: instances,
                synth_nodes: nodes,
                trees_scale: 1,
                seed,
            })
        };
        let instances: Vec<(String, Tree)> = synth(1, 6_000, 0x5eed)
            .into_iter()
            .map(|i| ("imbal-huge".to_string(), i.tree))
            .chain(
                synth(63, 150, 0x5eee)
                    .into_iter()
                    .map(|i| (format!("imbal-{}", i.name), i.tree)),
            )
            .collect();
        let registry = SchedulerRegistry::with_builtins();
        let mut exp = ExperimentConfig::new(
            registry
                .get_list("PostOrderMinIO,OptMinMem,RecExpand,PostOrderMinMem")
                .unwrap(),
            MemoryBound::Middle,
        );
        exp.threads = 3;
        let mut digest = Fnv64::new();
        digest.update(csv_header(&exp.scheduler_names()).as_bytes());
        let results = run_experiment_streaming(&instances, &exp, |row| {
            digest.update(row.csv_row().as_bytes());
        })
        .expect("feasible");
        let mut batch = Fnv64::new();
        batch.update(results.to_csv().as_bytes());
        assert_eq!(digest.render(), batch.render());
        assert!(digest.render().starts_with("0x"));
        assert_eq!(digest.render().len(), 18);
    }
}
