//! Differential tests of the step-indexed FiF pass against the heap
//! simulator it replaced (`reference`).
//!
//! On valid schedules the two must agree bit for bit on `total_io`, `τ` and
//! `peak_in_core`: random trees (zero weights included), random valid
//! orders that are not postorders, postorders, and schedules of one or more
//! disjoint subtrees, at memory bounds from the feasibility bound up to the
//! schedule's in-core peak. On invalid schedules (a repeated node, an
//! unknown node, a missing child, a parent before its child, too little
//! memory together with a structural fault further on) both must return
//! the same `TreeError`. All runs of a case share one `FifScratch`, so
//! reuse after an error is covered too.
//!
//! ```text
//! cargo test --release -p oocts-tree --test fif_reference
//! ```

mod reference;

use oocts_tree::{fif_io, fif_io_with, peak_memory, FifScratch, NodeId, Schedule, Tree, TreeError};
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

/// A random tree of `n` nodes with `parent(i) < i`, from one of four
/// shapes: uniform attachment, chain-biased, bounded fan-out, and a broom
/// (a few leaves on the root beside one long, sparsely branched chain).
/// About one weight in five is zero.
///
/// The broom's leaves stay resident while the chain runs, so its heap
/// fills with stale entries and is compacted many times before a heavy
/// chain node forces those leaves out.
fn random_tree(n: usize, state: &mut u64) -> Tree {
    let mode = next(state) % 4;
    let bristles = 1 + below(state, 5);
    let mut parents = vec![None; n];
    for (i, slot) in parents.iter_mut().enumerate().skip(1) {
        let p = match mode {
            0 => below(state, i),
            1 if !next(state).is_multiple_of(8) => i - 1,
            1 => below(state, i),
            2 => i - 1 - below(state, 4.min(i)),
            _ if i <= bristles + 1 => 0,
            _ if next(state).is_multiple_of(8) => bristles + 1 + below(state, i - bristles - 1),
            _ => i - 1,
        };
        *slot = Some(p);
    }
    let weights: Vec<u64> = (0..n)
        .map(|_| match next(state) % 5 {
            0 => 0,
            _ => 1 + next(state) % 30,
        })
        .collect();
    Tree::from_parents(&weights, &parents).unwrap()
}

/// One to three pairwise disjoint subtree roots, or just the tree's root.
fn random_roots(tree: &Tree, state: &mut u64) -> Vec<NodeId> {
    if next(state).is_multiple_of(3) {
        return vec![tree.root()];
    }
    let is_ancestor = |a: NodeId, mut b: NodeId| loop {
        if a == b {
            return true;
        }
        match tree.parent(b) {
            Some(p) => b = p,
            None => return false,
        }
    };
    let mut roots: Vec<NodeId> = Vec::new();
    for _ in 0..1 + below(state, 3) {
        let r = NodeId::from_index(below(state, tree.len()));
        if roots
            .iter()
            .all(|&q| !is_ancestor(q, r) && !is_ancestor(r, q))
        {
            roots.push(r);
        }
    }
    roots
}

/// A valid schedule of the subtrees under `roots`: their postorders one
/// after the other, or a uniformly random topological order of their union
/// (almost never a postorder).
fn random_schedule(tree: &Tree, roots: &[NodeId], state: &mut u64) -> Schedule {
    let nodes: Vec<NodeId> = roots
        .iter()
        .flat_map(|&r| tree.subtree_postorder(r).iter().copied())
        .collect();
    if next(state).is_multiple_of(4) {
        return Schedule::new(nodes);
    }
    let mut waiting: Vec<usize> = (0..tree.len())
        .map(|i| tree.children(NodeId::from_index(i)).len())
        .collect();
    let mut ready: Vec<NodeId> = nodes.iter().copied().filter(|&v| tree.is_leaf(v)).collect();
    let mut order = Vec::with_capacity(nodes.len());
    while !ready.is_empty() {
        let v = ready.swap_remove(below(state, ready.len()));
        order.push(v);
        if let Some(p) = tree.parent(v) {
            waiting[p.index()] -= 1;
            if waiting[p.index()] == 0 && !roots.contains(&v) {
                ready.push(p);
            }
        }
    }
    assert_eq!(order.len(), nodes.len());
    Schedule::new(order)
}

/// The largest `w̄_i` over the scheduled nodes: below it no memory works.
fn feasibility_bound(tree: &Tree, schedule: &Schedule) -> u64 {
    schedule
        .iter()
        .map(|v| tree.execution_weight(v))
        .max()
        .unwrap_or(0)
}

/// Runs the reference, `fif_io` and `fif_io_with` on one input and asserts
/// all three agree; returns the common outcome.
fn assert_same(
    tree: &Tree,
    schedule: &Schedule,
    memory: u64,
    scratch: &mut FifScratch,
) -> Result<u64, TreeError> {
    let want = reference::fif_io(tree, schedule, memory);
    let got = fif_io(tree, schedule, memory);
    assert_eq!(
        got,
        want,
        "fif_io at M = {memory} on {:?}",
        schedule.order()
    );
    let got_with = fif_io_with(tree, schedule, memory, scratch);
    assert_eq!(got_with, want, "fif_io_with at M = {memory}");
    let outcome = got_with.map(|io| {
        let total = io.total_io;
        scratch.recycle(io.tau);
        total
    });
    if let Ok(io) = &want {
        assert_eq!(Ok(io.peak_in_core), peak_memory(tree, schedule));
    }
    outcome
}

/// Valid schedules at memory bounds spanning `[LB, peak]` plus an
/// unconstrained one and one below LB.
fn check_valid(n: usize, seed: u64, scratch: &mut FifScratch) {
    let mut state = seed;
    let tree = random_tree(n, &mut state);
    let roots = random_roots(&tree, &mut state);
    let schedule = random_schedule(&tree, &roots, &mut state);
    schedule.validate(&tree).unwrap();
    let lb = feasibility_bound(&tree, &schedule);
    let peak = peak_memory(&tree, &schedule).unwrap();
    let mut bounds = vec![lb, peak, u64::MAX / 4];
    for _ in 0..4 {
        bounds.push(lb + next(&mut state) % (peak - lb + 1));
    }
    for m in bounds {
        let io = assert_same(&tree, &schedule, m, scratch).unwrap();
        if m >= peak {
            assert_eq!(io, 0, "no I/O at or above the in-core peak");
        }
    }
    if lb > 0 {
        let err = assert_same(&tree, &schedule, lb - 1, scratch).unwrap_err();
        assert!(matches!(err, TreeError::InsufficientMemory { .. }));
    }
}

/// Recognizes the error a corrupted schedule must produce.
type FaultKind = fn(&TreeError) -> bool;

/// One corruption of a valid full schedule per structural fault, each also
/// replayed with too little memory for the very first step, so the memory
/// failure comes before the structural one in schedule order.
fn check_invalid(n: usize, seed: u64, scratch: &mut FifScratch) {
    let mut state = seed;
    let tree = random_tree(n, &mut state);
    let valid = random_schedule(&tree, &[tree.root()], &mut state).into_order();
    let mut faulty: Vec<(Vec<NodeId>, FaultKind)> = Vec::new();

    let mut dup = valid.clone();
    let copied = dup[below(&mut state, n)];
    dup.insert(below(&mut state, n + 1), copied);
    faulty.push((dup, |e| matches!(e, TreeError::DuplicateNode(_))));

    let mut unknown = valid.clone();
    let stranger = NodeId::from_index(n + below(&mut state, 3));
    unknown.insert(below(&mut state, n + 1), stranger);
    faulty.push((unknown, |e| matches!(e, TreeError::UnknownNode(_))));

    if n >= 2 {
        let non_root = |state: &mut u64| loop {
            let v = NodeId::from_index(below(state, n));
            if let Some(p) = tree.parent(v) {
                break (v, p);
            }
        };

        // A non-root node dropped while its parent stays scheduled.
        let mut missing = valid.clone();
        let (gone, _) = non_root(&mut state);
        missing.retain(|&v| v != gone);
        faulty.push((missing, |e| matches!(e, TreeError::MissingChild { .. })));

        // A parent moved in front of one of its children.
        let mut early = valid.clone();
        let (child, parent) = non_root(&mut state);
        early.retain(|&v| v != parent);
        let to = early.iter().position(|&v| v == child).unwrap();
        early.insert(to, parent);
        faulty.push((early, |e| matches!(e, TreeError::NotTopological(_))));
    }

    let lb = tree.min_feasible_memory();
    for (order, expected) in faulty {
        let schedule = Schedule::new(order);
        let err = assert_same(&tree, &schedule, lb, scratch).unwrap_err();
        assert!(expected(&err), "unexpected error {err:?}");
        // Too little memory for the first node, a structural fault later:
        // the structural fault is what gets reported.
        let first = schedule.order()[0];
        let first = if first.index() < n {
            tree.execution_weight(first)
        } else {
            0
        };
        if first > 0 {
            let err = assert_same(&tree, &schedule, first - 1, scratch).unwrap_err();
            assert!(expected(&err), "memory fault masked {err:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Small trees: many shapes, schedules and bounds per case.
    #[test]
    fn small_valid_schedules_match_the_reference(n in 1usize..40, seed in 0u64..u64::MAX) {
        let mut scratch = FifScratch::new();
        check_valid(n, seed, &mut scratch);
    }

    /// Every structural fault, alone and behind a memory fault.
    #[test]
    fn invalid_schedules_fail_like_the_reference(n in 1usize..40, seed in 0u64..u64::MAX) {
        let mut scratch = FifScratch::new();
        check_invalid(n, seed, &mut scratch);
        check_valid(n, seed ^ 0x5bd1_e995, &mut scratch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Trees large enough for the heap to be compacted many times.
    #[test]
    fn large_valid_schedules_match_the_reference(n in 2_000usize..8_000, seed in 0u64..u64::MAX) {
        let mut scratch = FifScratch::new();
        check_valid(n, seed, &mut scratch);
    }
}

#[test]
fn empty_schedule_simulates_to_nothing() {
    let tree = Tree::singleton(3);
    let empty = Schedule::new(Vec::new());
    let mut scratch = FifScratch::new();
    assert_eq!(assert_same(&tree, &empty, 0, &mut scratch), Ok(0));
}
