//! Cross-crate integration tests: the full pipelines of the paper, from
//! instance generation (synthetic or multifrontal) through scheduling to the
//! evaluation harness, all driven through the `Scheduler` trait API.

use std::sync::Arc;

use oocts::prelude::*;
use oocts_core::brute_force_min_io;
use oocts_gen::dataset::{synth_dataset, trees_dataset, DatasetConfig};
use oocts_gen::paper;
use oocts_gen::random_binary_tree;
use oocts_profile::bounds::{MemoryBound, MemoryBounds};
use oocts_sparse::ordering::nested_dissection_2d;
use oocts_sparse::{assembly_tree, grid_laplacian_2d, AssemblyOptions};
use oocts_tree::{fif_io, TreeError};

/// The full multifrontal pipeline: matrix → ordering → assembly tree →
/// out-of-core schedules, with the expected dominance relations.
#[test]
fn multifrontal_pipeline_end_to_end() {
    let side = 24;
    let pattern = grid_laplacian_2d(side, side, false);
    let permuted = pattern.permute(&nested_dissection_2d(side, side));
    let tree = assembly_tree(&permuted, AssemblyOptions::default()).unwrap();
    tree.validate().unwrap();

    let bounds = MemoryBounds::of(&tree);
    assert!(bounds.peak_incore >= bounds.lower_bound);
    let memory = bounds.memory(MemoryBound::Middle);

    let mut ios = Vec::new();
    for scheduler in trees_schedulers() {
        let report = scheduler.solve(&tree, memory).unwrap();
        report.schedule.validate(&tree).unwrap();
        ios.push((scheduler, report.io_volume));
    }
    // Every strategy is feasible, and the measured I/O is consistent with a
    // re-simulation of its schedule.
    for (scheduler, io) in &ios {
        let schedule = scheduler.schedule(&tree, memory).unwrap();
        assert_eq!(fif_io(&tree, &schedule, memory).unwrap().total_io, *io);
    }
    // At the in-core peak no strategy needs any I/O.
    for scheduler in trees_schedulers() {
        assert_eq!(
            scheduler
                .solve(&tree, bounds.peak_incore)
                .unwrap()
                .io_volume,
            0
        );
    }
}

/// The SYNTH pipeline at a reduced scale, through the parallel runner and the
/// performance-profile machinery.
#[test]
fn synth_experiment_end_to_end() {
    let cfg = DatasetConfig {
        synth_instances: 8,
        synth_nodes: 400,
        trees_scale: 1,
        seed: 11,
    };
    let instances: Vec<_> = synth_dataset(&cfg)
        .into_iter()
        .map(|i| (i.name, i.tree))
        .collect();
    let results = run_experiment(&instances, &ExperimentConfig::synth(MemoryBound::Middle))
        .expect("feasible bounds");
    assert_eq!(results.results.len(), 8);
    let profile = results.profile();
    // RecExpand and FullRecExpand should (essentially) never lose to
    // OptMinMem; allow no exception on this small deterministic set.
    let idx = |name: &str| profile.algorithms().iter().position(|a| a == name).unwrap();
    let re = idx("RecExpand");
    let mm = idx("OptMinMem");
    for r in &results.results {
        assert!(
            r.io_volumes[re] <= r.io_volumes[mm],
            "RecExpand lost to OptMinMem on {}",
            r.name
        );
    }
    // The profile curve of every algorithm reaches 1.0 for a large threshold.
    for a in 0..profile.algorithms().len() {
        assert!((profile.fraction_within(a, 1e6) - 1.0).abs() < 1e-12);
    }
}

/// The TREES dataset builder, the paper's filtering rule, and the runner.
#[test]
fn trees_experiment_end_to_end() {
    let cfg = DatasetConfig::quick();
    let instances: Vec<_> = trees_dataset(&cfg)
        .into_iter()
        .map(|i| (i.name, i.tree))
        .collect();
    assert!(!instances.is_empty());
    let mut config = ExperimentConfig::trees(MemoryBound::Middle);
    config.threads = 1;
    let results = run_experiment(&instances, &config).expect("feasible bounds");
    // Filtering keeps only instances where I/O can actually be forced.
    assert!(results.results.len() <= instances.len());
    for r in &results.results {
        assert!(r.bounds.peak_incore > r.bounds.lower_bound);
    }
    // The restricted view only keeps instances where heuristics differ, in
    // the same column order.
    let differing = results.restricted_to_differing();
    assert!(differing.results.len() <= results.results.len());
    assert_eq!(differing.scheduler_names(), results.scheduler_names());
}

/// A scheduler defined entirely outside `oocts-core` runs through
/// `run_experiment`, appears in the performance profile and the CSV under
/// its registered name, and its column tracks its own `solve` reports.
#[test]
fn user_defined_scheduler_end_to_end() {
    /// Visits children heaviest-subtree-last; no relation to any built-in.
    #[derive(Debug)]
    struct HeaviestLast;

    impl Scheduler for HeaviestLast {
        fn name(&self) -> String {
            "HeaviestLast".to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            fn subtree_weight(tree: &Tree, node: NodeId) -> u64 {
                tree.weight(node)
                    + tree
                        .children(node)
                        .iter()
                        .map(|&c| subtree_weight(tree, c))
                        .sum::<u64>()
            }
            fn emit(tree: &Tree, node: NodeId, order: &mut Vec<NodeId>) {
                let mut children = tree.children(node).to_vec();
                children.sort_by_key(|&c| subtree_weight(tree, c));
                for c in children {
                    emit(tree, c, order);
                }
                order.push(node);
            }
            let mut order = Vec::with_capacity(tree.len());
            emit(tree, tree.root(), &mut order);
            Ok(Schedule::new(order))
        }
    }

    let mut registry = SchedulerRegistry::with_builtins();
    registry.register(Arc::new(HeaviestLast)).unwrap();

    let cfg = DatasetConfig {
        synth_instances: 6,
        synth_nodes: 300,
        trees_scale: 1,
        seed: 23,
    };
    let instances: Vec<_> = synth_dataset(&cfg)
        .into_iter()
        .map(|i| (i.name, i.tree))
        .collect();

    let schedulers: Vec<Arc<dyn Scheduler>> = ["RecExpand", "HeaviestLast"]
        .iter()
        .map(|n| registry.get(n).unwrap())
        .collect();
    let config = ExperimentConfig::new(schedulers, MemoryBound::Middle);
    let results = run_experiment(&instances, &config).expect("feasible bounds");

    assert_eq!(results.results.len(), instances.len());
    assert_eq!(results.scheduler_names(), ["RecExpand", "HeaviestLast"]);

    // The profile knows the custom strategy by its registered name.
    let profile = results.profile();
    let col = profile
        .algorithms()
        .iter()
        .position(|a| a == "HeaviestLast")
        .expect("custom scheduler in the profile");
    assert!((profile.fraction_within(col, 1e9) - 1.0).abs() < 1e-12);

    // So does the CSV header, and the column matches direct solve() calls.
    let csv = results.to_csv();
    assert!(csv.lines().next().unwrap().ends_with(",io_HeaviestLast"));
    let custom = registry.get("HeaviestLast").unwrap();
    for ((name, tree), row) in instances.iter().zip(&results.results) {
        assert_eq!(&row.name, name);
        let expected = custom.solve(tree, row.memory).unwrap().io_volume;
        assert_eq!(row.io_volumes[1], expected);
    }
}

/// Regression: the five pre-0.2 `Algorithm` strategies produce bit-identical
/// I/O volumes through the trait API on the Figure 6 tree and a SYNTH
/// sample. Expected values were captured by running the closed enum before
/// the `Scheduler` redesign (PR 3).
#[test]
fn builtin_io_volumes_match_pre_refactor_enum() {
    let registry = SchedulerRegistry::with_builtins();
    let names = [
        "PostOrderMinIO",
        "OptMinMem",
        "RecExpand",
        "FullRecExpand",
        "PostOrderMinMem",
    ];
    let solve_all = |tree: &Tree, memory: u64| -> Vec<u64> {
        names
            .iter()
            .map(|n| {
                registry
                    .get(n)
                    .unwrap()
                    .solve(tree, memory)
                    .unwrap()
                    .io_volume
            })
            .collect()
    };

    assert_eq!(
        solve_all(&paper::fig6(), paper::FIG6_MEMORY),
        [4, 4, 3, 3, 4]
    );

    let cfg = DatasetConfig {
        synth_instances: 4,
        synth_nodes: 300,
        trees_scale: 1,
        seed: 2017,
    };
    let expected: [[u64; 5]; 4] = [
        [145, 17, 17, 17, 259],
        [150, 2, 2, 2, 156],
        [166, 2, 2, 2, 179],
        [134, 13, 13, 13, 134],
    ];
    for (inst, expected) in synth_dataset(&cfg).iter().zip(expected) {
        let memory = MemoryBounds::of(&inst.tree).memory(MemoryBound::Middle);
        assert_eq!(
            solve_all(&inst.tree, memory),
            expected,
            "I/O volumes changed on {}",
            inst.name
        );
    }

    // Figure 6 through the trait: the five strategies of the pre-trait
    // enum, in its order, report the volumes it reported.
    let fig6 = paper::fig6();
    let volumes: Vec<(String, u64)> = builtin_schedulers()
        .iter()
        .take(5)
        .map(|s| {
            let res = s.solve(&fig6, paper::FIG6_MEMORY).unwrap();
            (s.name(), res.io_volume)
        })
        .collect();
    let expected = [
        ("PostOrderMinIO", 4),
        ("OptMinMem", 4),
        ("RecExpand", 3),
        ("FullRecExpand", 3),
        ("PostOrderMinMem", 4),
    ];
    assert_eq!(volumes.len(), expected.len());
    for ((name, io), (expected_name, expected_io)) in volumes.iter().zip(expected) {
        assert_eq!((name.as_str(), *io), (expected_name, expected_io));
    }
}

/// Paper examples reproduced through the public API (Appendix A).
#[test]
fn appendix_examples_through_public_api() {
    let fig6 = paper::fig6();
    let (_, opt6) = brute_force_min_io(&fig6, paper::FIG6_MEMORY).unwrap();
    assert_eq!(opt6, 3);
    assert_eq!(
        FullRecExpand
            .solve(&fig6, paper::FIG6_MEMORY)
            .unwrap()
            .io_volume,
        3,
        "FullRecExpand is optimal on Figure 6"
    );
    assert_eq!(
        OptMinMem
            .solve(&fig6, paper::FIG6_MEMORY)
            .unwrap()
            .io_volume,
        4,
        "OptMinMem pays 4 I/Os on Figure 6"
    );

    let fig7 = paper::fig7();
    let (_, opt7) = brute_force_min_io(&fig7, paper::FIG7_MEMORY).unwrap();
    assert_eq!(opt7, 3);
    assert_eq!(
        PostOrderMinIo
            .solve(&fig7, paper::FIG7_MEMORY)
            .unwrap()
            .io_volume,
        3,
        "PostOrderMinIO is optimal on Figure 7"
    );
    assert!(
        FullRecExpand
            .solve(&fig7, paper::FIG7_MEMORY)
            .unwrap()
            .io_volume
            > 3,
        "FullRecExpand cannot be optimal on Figure 7"
    );
}

/// The counterexample families show the unbounded competitive ratios claimed
/// in Sections 4.3 and 4.4.
#[test]
fn counterexample_ratios_grow() {
    // Figure 2(a): postorder I/O grows linearly with the number of leaves
    // while the reference stays at 1.
    let m = 32;
    let mut previous = 0;
    for levels in [0usize, 4, 8] {
        let (tree, reference) = paper::fig2a_family(levels, m);
        let reference_io = fif_io(&tree, &reference, m).unwrap().total_io;
        assert_eq!(reference_io, 1);
        let po = PostOrderMinIo.solve(&tree, m).unwrap().io_volume;
        assert!(po > previous, "postorder I/O must keep growing");
        assert!(po >= (levels as u64 + 1) * (m / 2 - 1));
        previous = po;
    }
    // Figure 2(c): OptMinMem I/O grows quadratically in k while the reference
    // grows linearly.
    for k in [4u64, 8, 16] {
        let (tree, reference, memory) = paper::fig2c_family(k);
        let reference_io = fif_io(&tree, &reference, memory).unwrap().total_io;
        assert_eq!(reference_io, 2 * k);
        let mm = OptMinMem.solve(&tree, memory).unwrap().io_volume;
        assert!(
            mm >= k * k / 2,
            "OptMinMem should pay Θ(k²) I/Os, got {mm} for k = {k}"
        );
    }
}

/// Homogeneous random trees: Theorem 4 through the public API.
#[test]
fn homogeneous_theorem4_through_public_api() {
    for seed in 0..5u64 {
        let tree = random_binary_tree(200, 1..=1, seed);
        let labels = homogeneous::labels(&tree, 3).unwrap();
        let w_t = labels.total_io();
        let po = PostOrderMinIo.solve(&tree, 3).unwrap().io_volume;
        assert_eq!(po, w_t, "PostOrderMinIO achieves W(T) on homogeneous trees");
        let others: [Arc<dyn Scheduler>; 2] = [Arc::new(OptMinMem), Arc::new(RecExpand::default())];
        for scheduler in others {
            assert!(scheduler.solve(&tree, 3).unwrap().io_volume >= w_t);
        }
    }
}

/// Library quickstart from the README, kept compiling and correct.
#[test]
fn readme_quickstart() {
    let mut b = TreeBuilder::new();
    let root = b.add_root(4);
    let a = b.add_child(root, 8);
    b.add_child(a, 2);
    b.add_child(root, 10);
    let tree = b.build().unwrap();

    let (schedule, peak) = opt_min_mem(&tree);
    assert_eq!(peak_memory(&tree, &schedule).unwrap(), peak);

    let m = tree.min_feasible_memory();
    let io = fif_io(&tree, &schedule, m).unwrap();
    let report = RecExpand::default().solve(&tree, m).unwrap();
    assert!(report.io_volume <= io.total_io);

    let registry = SchedulerRegistry::with_builtins();
    let tuned = registry.get("RecExpand(max_rounds=4)").unwrap();
    assert!(tuned.solve(&tree, m).unwrap().io_volume <= io.total_io);
}
