//! Output checks: the row invariants every engine result must satisfy.
//! A violation fails the run; it is never reported as a metric.

use oocts_profile::runner::ExperimentResults;

/// Checks every row of one engine call against the invariants of the
/// paper's model, and the row count against the kept instances. Returns
/// one message per violation.
pub fn check_rows(results: &ExperimentResults, kept: usize) -> Vec<String> {
    let mut violations = Vec::new();
    if results.results.len() != kept {
        violations.push(format!(
            "{}: {} rows, {kept} kept instances",
            results.bound,
            results.results.len()
        ));
    }
    let opt = results
        .scheduler_names()
        .iter()
        .position(|n| n == "OptMinMem");
    for row in &results.results {
        let at = |what: String| format!("{} {}: {what}", results.bound, row.name);
        let (lb, peak, m) = (row.bounds.lower_bound, row.bounds.peak_incore, row.memory);
        if !(lb <= m && m <= peak) {
            violations.push(at(format!("not LB {lb} <= M {m} <= peak_incore {peak}")));
        }
        if let Some(a) = opt {
            if row.peak_memories[a] != peak {
                violations.push(at(format!(
                    "OptMinMem peak {} != peak_incore {peak}",
                    row.peak_memories[a]
                )));
            }
        }
        for a in 0..row.io_volumes.len() {
            let (io, p) = (row.io_volumes[a], row.peak_memories[a]);
            if io < p.saturating_sub(m) || (p <= m && io != 0) {
                violations.push(at(format!("column {a}: io {io} with peak {p}, M {m}")));
            }
            let performance = row.performances[a];
            if performance.is_nan() || performance < 1.0 {
                violations.push(at(format!("column {a}: performance {performance} < 1")));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_gen::dataset::{synth_dataset, DatasetConfig};
    use oocts_profile::bounds::MemoryBound;
    use oocts_profile::runner::{run_experiment, ExperimentConfig};

    fn results() -> ExperimentResults {
        let instances: Vec<_> = synth_dataset(&DatasetConfig {
            synth_instances: 4,
            synth_nodes: 60,
            trees_scale: 1,
            seed: 7,
        })
        .into_iter()
        .map(|i| (i.name, i.tree))
        .collect();
        let mut config = ExperimentConfig::synth(MemoryBound::Middle);
        config.threads = 2;
        run_experiment(&instances, &config).expect("feasible bounds")
    }

    #[test]
    fn engine_rows_pass() {
        assert_eq!(check_rows(&results(), 4), Vec::<String>::new());
    }

    #[test]
    fn a_dropped_row_is_caught() {
        let mut r = results();
        r.results.remove(1);
        assert_eq!(check_rows(&r, 4).len(), 1);
    }

    #[test]
    fn broken_invariants_are_caught() {
        let mut r = results();
        r.results[0].memory = r.results[0].bounds.peak_incore + 1;
        r.results[1].peak_memories[1] += 1;
        r.results[2].io_volumes[0] = 0;
        r.results[2].peak_memories[0] = r.results[2].memory + 5;
        r.results[3].performances[2] = 0.5;
        let v = check_rows(&r, 4);
        for name in ["synth-000", "synth-001", "synth-002", "synth-003"] {
            assert!(
                v.iter().any(|m| m.contains(name)),
                "{name} not flagged: {v:?}"
            );
        }
    }
}
