//! Differential tests of the bitset minimum-degree ordering against the
//! list-based implementation it replaced (`reference`).
//!
//! Both eliminate the live vertex with the smallest (exact external degree,
//! vertex id) at every step, so their permutations must be equal on every
//! pattern: random patterns with isolated vertices and several components,
//! connected random patterns, orders on the 64-bit word boundaries of the
//! bitset rows, grids, a path, a complete graph and stars.
//!
//! The ignored test replays every MinimumDegree pattern of the default
//! TREES dataset (scale 2); the reference needs about 8 s there in release:
//!
//! ```text
//! cargo test --release -p oocts-sparse --test md_reference -- --include-ignored
//! ```

mod reference;

use oocts_sparse::pattern::SymmetricPattern;
use oocts_sparse::{grid_laplacian_2d, grid_laplacian_3d, minimum_degree, random_symmetric};
use proptest::prelude::*;

/// Splitmix64 step: every random choice below derives from one sampled seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, bound: usize) -> usize {
    (next(state) % bound as u64) as usize
}

/// About `avg_degree · n / 2` uniformly random edges: below an average
/// degree of about 2 this leaves isolated vertices and many components.
fn random_edges(n: usize, avg_degree: f64, state: &mut u64) -> SymmetricPattern {
    let m = (avg_degree * n as f64 / 2.0) as usize;
    let edges: Vec<(usize, usize)> = (0..m).map(|_| (below(state, n), below(state, n))).collect();
    SymmetricPattern::from_edges(n, edges)
}

/// Random edges inside `k` blocks whose vertices are scattered over the
/// whole id range, so the components interleave in every bitset row.
fn random_blocks(n: usize, avg_degree: f64, state: &mut u64) -> SymmetricPattern {
    let k = 1 + below(state, 6);
    let block: Vec<usize> = (0..n).map(|_| below(state, k)).collect();
    let mut members = vec![Vec::new(); k];
    for (v, &b) in block.iter().enumerate() {
        members[b].push(v);
    }
    let mut edges = Vec::new();
    for _ in 0..(avg_degree * n as f64 / 2.0) as usize {
        let list = &members[below(state, k)];
        if list.len() > 1 {
            edges.push((
                list[below(state, list.len())],
                list[below(state, list.len())],
            ));
        }
    }
    SymmetricPattern::from_edges(n, edges)
}

fn assert_same(pattern: &SymmetricPattern, what: &str) {
    assert_eq!(
        minimum_degree(pattern),
        reference::minimum_degree(pattern),
        "{what} (n = {})",
        pattern.order()
    );
}

fn path(n: usize) -> SymmetricPattern {
    SymmetricPattern::from_edges(n, (1..n).map(|v| (v - 1, v)))
}

fn complete(n: usize) -> SymmetricPattern {
    SymmetricPattern::from_edges(n, (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))))
}

fn star(n: usize, centre: usize) -> SymmetricPattern {
    SymmetricPattern::from_edges(n, (0..n).map(|v| (centre, v)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_patterns_match_the_reference(
        n in 0usize..=300,
        avg_degree in 0.0f64..8.0,
        mode in 0usize..3,
        seed in 0u64..=u64::MAX,
    ) {
        let mut state = seed;
        let pattern = match mode {
            0 => random_edges(n, avg_degree, &mut state),
            1 => random_blocks(n, avg_degree, &mut state),
            _ => random_symmetric(n.max(1), avg_degree, seed),
        };
        assert_same(&pattern, &format!("mode {mode}, avg degree {avg_degree:.2}, seed {seed}"));
    }
}

#[test]
fn orders_on_word_boundaries_match_the_reference() {
    for n in [63, 64, 65, 127, 128, 129] {
        let mut state = n as u64;
        for avg_degree in [0.5, 2.0, 4.0, 8.0] {
            assert_same(&random_edges(n, avg_degree, &mut state), "random edges");
            assert_same(&random_blocks(n, avg_degree, &mut state), "random blocks");
            assert_same(
                &random_symmetric(n, avg_degree, n as u64),
                "random_symmetric",
            );
        }
        assert_same(&SymmetricPattern::new(n), "no edges");
        assert_same(&path(n), "path");
        assert_same(&complete(n), "complete graph");
        assert_same(&star(n, 0), "star, centre first");
        assert_same(&star(n, n - 1), "star, centre last");
    }
}

#[test]
fn grids_and_structured_patterns_match_the_reference() {
    for (nx, ny) in [(1, 1), (1, 7), (5, 5), (8, 8), (20, 20), (30, 12), (70, 3)] {
        assert_same(&grid_laplacian_2d(nx, ny, false), "5-point grid");
        assert_same(&grid_laplacian_2d(nx, ny, true), "9-point grid");
    }
    for (nx, ny, nz) in [(2, 2, 2), (4, 4, 4), (6, 5, 4), (8, 8, 6)] {
        assert_same(&grid_laplacian_3d(nx, ny, nz), "3-D grid");
    }
    for n in [1, 2, 3, 100] {
        assert_same(&path(n), "path");
        assert_same(&complete(n), "complete graph");
        assert_same(&star(n, 0), "star, centre first");
        assert_same(&star(n, n - 1), "star, centre last");
    }
}

/// Every MinimumDegree pattern `oocts_gen::dataset::trees_dataset` orders
/// at scale 2 with the default seed 24301: 16 grids and 18 random
/// matrices. The sizes and seeds mirror that function's scale-2 branch.
#[test]
#[ignore = "the reference takes ~8 s in release; run with --include-ignored"]
fn default_trees_corpus_matches_the_reference() {
    let grids = [
        (20, 20),
        (30, 30),
        (40, 40),
        (60, 40),
        (70, 70),
        (100, 20),
        (150, 12),
        (45, 35),
    ];
    let mut checked = 0;
    for (nx, ny) in grids {
        for nine in [false, true] {
            assert_same(
                &grid_laplacian_2d(nx, ny, nine),
                &format!("grid {nx}x{ny} nine={nine}"),
            );
            checked += 1;
        }
    }
    let random = [
        (500, 3.0),
        (800, 4.0),
        (1200, 5.0),
        (2000, 3.5),
        (600, 2.5),
        (1500, 3.0),
    ];
    let base_seed: u64 = 24301;
    for (i, (n, avg_degree)) in random.into_iter().enumerate() {
        for rep in 0..3 {
            let seed = base_seed.wrapping_add((i * 97 + rep * 7919) as u64);
            assert_same(
                &random_symmetric(n, avg_degree, seed),
                &format!("random seed {seed}"),
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 34);
}
