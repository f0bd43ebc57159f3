//! Memory and I/O simulation of schedules.
//!
//! Two simulators are provided:
//!
//! * [`peak_memory`] / [`memory_profile`] — the *in-core* profiler: how much
//!   main memory a schedule needs when no I/O is allowed;
//! * [`fif_io`] — the *out-of-core* simulator: given a memory bound `M`, run
//!   the schedule and perform I/O with the **Furthest-in-the-Future** (FiF)
//!   eviction policy, which by Theorem 1 of the paper produces an I/O function
//!   `τ` of minimum total volume for that schedule.
//!
//! Every scheduling algorithm in the workspace returns only a schedule `σ`;
//! the I/O volume charged to it is always the volume reported by [`fif_io`],
//! which keeps comparisons between heuristics fair and matches the paper's
//! methodology.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::TreeError;
use crate::schedule::Schedule;
use crate::tree::{NodeId, Tree};

/// Memory usage of one scheduled step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStep {
    /// The executed node.
    pub node: NodeId,
    /// Memory in use while the node executes (other active data + `w̄_i`).
    pub peak_during: u64,
    /// Memory in use right after the node completes (active data only).
    pub resident_after: u64,
}

/// The in-core memory profile of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryProfile {
    steps: Vec<ProfileStep>,
}

impl MemoryProfile {
    /// Per-step memory usage, in schedule order.
    pub fn steps(&self) -> &[ProfileStep] {
        &self.steps
    }

    /// The peak memory of the schedule: the maximum over all steps of the
    /// memory in use during execution.
    pub fn peak(&self) -> u64 {
        self.steps.iter().map(|s| s.peak_during).max().unwrap_or(0)
    }

    /// Memory resident after the last scheduled step (the output of the last
    /// node plus any still-active data).
    pub fn final_resident(&self) -> u64 {
        self.steps.last().map(|s| s.resident_after).unwrap_or(0)
    }
}

/// Computes the in-core memory profile of `schedule` on `tree`.
///
/// Fails if the schedule is not a valid (partial) traversal of the tree.
pub fn memory_profile(tree: &Tree, schedule: &Schedule) -> Result<MemoryProfile, TreeError> {
    schedule.validate(tree)?;
    let mut resident = 0u64;
    let mut steps = Vec::with_capacity(schedule.len());
    for node in schedule.iter() {
        let cw = tree.children_weight(node);
        let w = tree.weight(node);
        let peak_during = resident + w.saturating_sub(cw);
        resident = resident - cw + w;
        steps.push(ProfileStep {
            node,
            peak_during,
            resident_after: resident,
        });
    }
    Ok(MemoryProfile { steps })
}

/// The in-core peak memory of `schedule` on `tree` (paper: the MinMem
/// objective evaluated on one schedule).
pub fn peak_memory(tree: &Tree, schedule: &Schedule) -> Result<u64, TreeError> {
    Ok(memory_profile(tree, schedule)?.peak())
}

/// Result of an out-of-core (FiF) simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoResult {
    /// Total volume of I/O (units written to disk): `Σ_i τ(i)`.
    pub total_io: u64,
    /// The induced I/O function `τ`, indexed by node id. `τ(i) = 0` for nodes
    /// that are not part of the schedule.
    pub tau: Vec<u64>,
    /// Peak in-core memory the schedule would need with an unlimited memory
    /// (useful to decide whether any I/O was unavoidable).
    pub peak_in_core: u64,
}

impl IoResult {
    /// The paper's performance metric for an out-of-core execution:
    /// `(M + IO) / M` (Section 6.2). A schedule without I/O scores 1.0.
    pub fn performance(&self, memory: u64) -> f64 {
        assert!(memory > 0, "memory bound must be positive");
        (memory + self.total_io) as f64 / memory as f64
    }
}

/// Reusable buffers for [`fif_io_with`].
///
/// The FiF simulator needs one node-indexed array (the step of every node),
/// three step-indexed ones and a heap with its insertion buffer; callers that replay many schedules
/// (the RecExpand expansion loop, the engine's workers, the golden corpus)
/// keep one `FifScratch` and amortize every buffer across runs. Returned
/// `τ` vectors can be handed back via [`FifScratch::recycle`] so even the
/// output buffer rotates through a pool.
#[derive(Debug, Default)]
pub struct FifScratch {
    /// Execution step of each node, indexed by node id (`usize::MAX`: not
    /// scheduled).
    positions: Vec<usize>,
    /// Per step: units of the step's output currently in main memory.
    in_mem: Vec<u64>,
    /// Per step: units of the step's children written to disk so far.
    evicted: Vec<u64>,
    /// Per step: children of the step's node executed so far.
    kids_seen: Vec<u32>,
    /// Active data as `(consumer step, Reverse(node id), own step)`.
    heap: BinaryHeap<(usize, Reverse<u32>, usize)>,
    /// Entries produced since the last eviction, not yet in `heap`.
    pending: Vec<(usize, Reverse<u32>, usize)>,
    tau_pool: Vec<Vec<u64>>,
}

impl FifScratch {
    /// Creates an empty scratch space; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a `τ` buffer (from a previous [`IoResult`]) to the pool so
    /// the next simulation reuses its capacity.
    pub fn recycle(&mut self, mut tau: Vec<u64>) {
        tau.clear();
        self.tau_pool.push(tau);
    }
}

/// Runs `schedule` on `tree` under memory bound `memory`, performing I/O with
/// the Furthest-in-the-Future policy, and returns the I/O volume and the
/// induced I/O function `τ`.
///
/// By Theorem 1 of the paper this is an I/O-optimal `τ` for the given
/// schedule, so the returned volume is "the" I/O cost of the schedule.
///
/// Fails with [`Schedule::validate`]'s error if the schedule is invalid, and
/// otherwise with [`TreeError::InsufficientMemory`] if some node needs more
/// than `memory` units on its own (`w̄_i > M`), in which case no traversal
/// exists.
pub fn fif_io(tree: &Tree, schedule: &Schedule, memory: u64) -> Result<IoResult, TreeError> {
    fif_io_with(tree, schedule, memory, &mut FifScratch::new())
}

/// Scratch-reusing variant of [`fif_io`]: one pass over the schedule that
/// validates it and simulates it, allocation-free once `scratch` has warmed
/// up.
///
/// All per-node state lives at the node's *step*, so the pass reads the
/// state arrays in schedule order. A node's children are consumed as one
/// sum: their resident data is `children_weight − evicted[step]`.
// lint: no_alloc
pub fn fif_io_with(
    tree: &Tree,
    schedule: &Schedule,
    memory: u64,
    scratch: &mut FifScratch,
) -> Result<IoResult, TreeError> {
    let FifScratch {
        positions,
        in_mem,
        evicted,
        kids_seen,
        heap,
        pending,
        tau_pool,
    } = scratch;
    let order = schedule.order();

    // Scatter the steps; the first unknown or repeated node is exactly the
    // first fault `Schedule::validate` reports.
    positions.clear();
    positions.resize(tree.len(), usize::MAX);
    for (step, &node) in order.iter().enumerate() {
        match positions.get_mut(node.index()) {
            None => return Err(TreeError::UnknownNode(node)),
            Some(pos) if *pos != usize::MAX => return Err(TreeError::DuplicateNode(node)),
            Some(pos) => *pos = step,
        }
    }

    in_mem.clear();
    in_mem.resize(order.len(), 0);
    evicted.clear();
    evicted.resize(order.len(), 0);
    kids_seen.clear();
    kids_seen.resize(order.len(), 0);
    let mut tau = tau_pool.pop().unwrap_or_default();
    tau.resize(tree.len(), 0);
    let mut total_io = 0u64;
    let mut resident = 0u64; // Σ in_mem over active steps
    let mut peak_in_core = 0u64;
    let mut in_core_resident = 0u64; // resident if no I/O were ever done
    let mut live = 0usize; // produced and not yet consumed

    // Max-heap of active data keyed by the step at which its consumer (the
    // parent) executes; the data needed furthest in the future sits on top.
    // New entries wait in `pending` and join the heap only when an eviction
    // needs it, so data consumed before the next eviction never enters it.
    // An entry goes stale for good once its consumer has run or its data is
    // all on disk; stale entries are skipped when popped and compacted away
    // once they outnumber the live ones.
    heap.clear();
    pending.clear();

    for (step, &node) in order.iter().enumerate() {
        let kids = tree.child_range(node).len();
        let w = tree.weight(node);
        let cw = tree.children_weight(node);
        let wbar = w.max(cw);
        // A child still missing here is either scheduled later or not at all.
        if kids_seen[step] as usize != kids || wbar > memory {
            // lint: allow(L006, cold path: runs once, when the schedule is rejected)
            return Err(reject(tree, schedule, node, wbar, memory));
        }

        // In-core accounting (for `peak_in_core`).
        peak_in_core = peak_in_core.max(in_core_resident + w.saturating_sub(cw));
        in_core_resident = in_core_resident - cw + w;

        // Units of the children still in memory; the evicted rest must be
        // read back before the node can execute. Reads are not counted as
        // I/O but the space they occupy is part of w̄_i.
        let children_in_mem = cw - evicted[step];
        let others_resident = resident - children_in_mem;

        // Evict non-children active data, furthest-in-the-future first, until
        // the node fits.
        let mut to_evict = (others_resident + wbar).saturating_sub(memory);
        if to_evict > 0 {
            heap.extend(pending.drain(..));
        }
        while to_evict > 0 {
            let (consumer, Reverse(raw), victim) = heap
                .pop()
                // lint: allow(L001, to_evict > 0 implies some non-child active data is resident, so the heap holds a live entry)
                .expect("eviction needed but no active data to evict");
            // Consumed earlier, a child of this node, or already on disk.
            if consumer <= step || in_mem[victim] == 0 {
                continue;
            }
            let amount = in_mem[victim].min(to_evict);
            in_mem[victim] -= amount;
            if let Some(children_evicted) = evicted.get_mut(consumer) {
                *children_evicted += amount;
            }
            resident -= amount;
            tau[NodeId(raw).index()] += amount;
            total_io = total_io.saturating_add(amount);
            to_evict -= amount;
            if in_mem[victim] > 0 {
                heap.push((consumer, Reverse(raw), victim)); // lint: allow(L003, re-push into the scratch heap: capacity amortized across runs)
            }
        }

        // Read children back (no I/O counted), consume them, produce the
        // node's output fully in memory.
        resident -= children_in_mem;
        live = live + 1 - kids;
        in_mem[step] = w;
        resident = resident.saturating_add(w);
        let consumer = match tree.parent(node) {
            Some(p) => positions[p.index()],
            // The subtree root's output is needed "after the end" of the
            // schedule: furthest in the future of all.
            None => usize::MAX,
        };
        if let Some(seen) = kids_seen.get_mut(consumer) {
            *seen += 1;
        }
        // lint: allow(L003, push into the scratch buffer: capacity amortized across runs)
        pending.push((consumer, Reverse(node.0), step));
        if heap.len() + pending.len() > 2 * live + 1024 {
            let live_entry = |&(consumer, _, own): &(usize, Reverse<u32>, usize)| {
                consumer > step && in_mem[own] > 0
            };
            heap.retain(live_entry);
            pending.retain(live_entry);
        }

        debug_assert!(
            resident <= memory || resident - w <= memory.saturating_sub(wbar),
            "resident data exceeds the memory bound after step {step}"
        );
    }

    // Invariant layer: every test that reaches the simulator doubles as an
    // invariant test in debug builds.
    // lint: allow(L006, debug-only validation, compiled out of release hot paths)
    debug_assert!(tree.validate().is_ok(), "fif_io ran on a malformed tree");
    debug_assert_eq!(
        total_io,
        tau.iter().sum::<u64>(),
        "total I/O must equal the sum of the induced τ"
    );
    Ok(IoResult {
        total_io,
        tau,
        peak_in_core,
    })
}

/// The error of a schedule that [`fif_io_with`] cannot run at `node`: the
/// schedule's structural fault if it has one (exactly
/// [`Schedule::validate`]'s error), [`TreeError::InsufficientMemory`] for
/// `node` otherwise.
#[cold]
fn reject(
    tree: &Tree,
    schedule: &Schedule,
    node: NodeId,
    required: u64,
    available: u64,
) -> TreeError {
    match schedule.validate(tree) {
        Err(fault) => fault,
        Ok(()) => {
            debug_assert!(required > available, "a valid schedule was rejected");
            TreeError::InsufficientMemory {
                node,
                required,
                available,
            }
        }
    }
}

/// Checks that `(schedule, tau)` is a *valid traversal* of `tree` under
/// memory bound `memory`, following the three conditions of Section 3.1, and
/// returns its total I/O volume.
pub fn check_traversal(
    tree: &Tree,
    schedule: &Schedule,
    tau: &[u64],
    memory: u64,
) -> Result<u64, TreeError> {
    schedule.validate(tree)?;
    assert_eq!(tau.len(), tree.len(), "tau must be indexed by node id");
    for node in tree.node_ids() {
        if tau[node.index()] > tree.weight(node) {
            return Err(TreeError::IoExceedsWeight {
                node,
                io: tau[node.index()],
                weight: tree.weight(node),
            });
        }
    }
    // resident = Σ over active nodes of (w_k − τ(k)); active means produced
    // and not yet consumed by the parent.
    let mut resident = 0u64;
    let mut active = vec![false; tree.len()];
    for node in schedule.iter() {
        let w = tree.weight(node);
        let cw = tree.children_weight(node);
        let wbar = w.max(cw);
        // Children contribute w_k − τ(k) to the resident set right now, but
        // during the execution of `node` they must be entirely in memory, so
        // the memory in use is (resident − Σ_children (w_k − τ(k))) + w̄_i.
        let children_resident: u64 = tree
            .children(node)
            .iter()
            .map(|&c| tree.weight(c) - tau[c.index()])
            .sum();
        let used = resident - children_resident + wbar;
        if used > memory {
            return Err(TreeError::MemoryExceeded {
                node,
                used,
                available: memory,
            });
        }
        for &c in tree.children(node) {
            debug_assert!(active[c.index()]);
            active[c.index()] = false;
        }
        resident -= children_resident;
        active[node.index()] = true;
        resident += w - tau[node.index()];
    }
    Ok(tau.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    /// root(5) <- a(3) <- c(4) ; root <- b(2)
    fn sample() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.add_root(5);
        let a = b.add_child(r, 3);
        b.add_child(a, 4);
        b.add_child(r, 2);
        b.build().unwrap()
    }

    #[test]
    fn profile_of_postorder() {
        let t = sample();
        let s = Schedule::postorder(&t);
        // postorder = [c, a, b, root]
        let p = memory_profile(&t, &s).unwrap();
        let peaks: Vec<u64> = p.steps().iter().map(|s| s.peak_during).collect();
        // c: 4 ; a: 4 (c's 4 in memory, output 3 <= 4) ; b: 3 + 2 = 5 ;
        // root: max(5, 3+2) = 5.
        assert_eq!(peaks, vec![4, 4, 5, 5]);
        assert_eq!(p.peak(), 5);
        assert_eq!(p.final_resident(), 5);
        assert_eq!(peak_memory(&t, &s).unwrap(), 5);
    }

    #[test]
    fn fif_no_io_when_memory_large() {
        let t = sample();
        let s = Schedule::postorder(&t);
        let r = fif_io(&t, &s, 100).unwrap();
        assert_eq!(r.total_io, 0);
        assert_eq!(r.peak_in_core, 5);
        assert!((r.performance(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fif_exact_memory_no_io() {
        let t = sample();
        let s = Schedule::postorder(&t);
        let r = fif_io(&t, &s, 5).unwrap();
        assert_eq!(r.total_io, 0);
    }

    #[test]
    fn fif_io_counted_when_memory_tight() {
        let t = sample();
        let s = Schedule::postorder(&t);
        // M = 4: executing b (w=2) with a's output (3) resident needs 5 > 4,
        // so 1 unit of a is written; executing root needs a and b entirely in
        // memory: 5 > 4 is infeasible? No: w̄_root = 5 > M = 4, infeasible.
        assert!(matches!(
            fif_io(&t, &s, 4),
            Err(TreeError::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn fif_evicts_furthest_in_future() {
        // root(3) <- mid(2) <- leaf(4), and root <- leaf2(1).
        // postorder: leaf(4), mid(2), leaf2(1), root(3).
        let mut b = TreeBuilder::new();
        let r = b.add_root(3);
        let mid = b.add_child(r, 2);
        let leaf = b.add_child(mid, 4);
        b.add_child(r, 1);
        let t = b.build().unwrap();
        let s = Schedule::postorder(&t);
        // With M = 4: executing mid holds leaf's 4 units (w̄ = 4, fits with
        // nothing else active). Executing leaf2 (w = 1) with mid's 2 units
        // resident fits (3 ≤ 4). The root needs mid + leaf2 = 3 ≤ 4. No I/O.
        let res = fif_io(&t, &s, 4).unwrap();
        assert_eq!(res.total_io, 0);
        // With M = 3: executing mid still needs w̄ = 4 > 3 → infeasible.
        assert!(fif_io(&t, &s, 3).is_err());
        // Sanity: leaf weight irrelevant to eviction order here, but tau must
        // stay all-zero in the feasible run.
        assert!(res.tau.iter().all(|&x| x == 0));
        assert_eq!(tree_leaf_check(&t, leaf), 4);
    }

    fn tree_leaf_check(t: &Tree, leaf: NodeId) -> u64 {
        t.weight(leaf)
    }

    #[test]
    fn fif_partial_eviction_and_tau() {
        // root(2) <- a(3), root <- b(3); chain under a: a <- a1(4).
        // postorder [a1, a, b, root], M = 6.
        let mut bld = TreeBuilder::new();
        let r = bld.add_root(2);
        let a = bld.add_child(r, 3);
        bld.add_child(a, 4);
        bld.add_child(r, 3);
        let t = bld.build().unwrap();
        let s = Schedule::postorder(&t);
        assert_eq!(peak_memory(&t, &s).unwrap(), 6);
        let res = fif_io(&t, &s, 6).unwrap();
        assert_eq!(res.total_io, 0);

        // M = 5: executing b (w=3) with a (3) resident → evict 1 unit of a;
        // then the root needs a and b entirely in memory: w̄_root = 6 > 5
        // → infeasible.
        assert!(fif_io(&t, &s, 5).is_err());
    }

    #[test]
    fn fif_counts_sibling_eviction() {
        // root(1) with two chains: a(2) <- la(6) and b(2) <- lb(6).
        // Postorder [la, a, lb, b, root].
        let mut bld = TreeBuilder::new();
        let r = bld.add_root(1);
        let a = bld.add_child(r, 2);
        bld.add_child(a, 6);
        let b = bld.add_child(r, 2);
        bld.add_child(b, 6);
        let t = bld.build().unwrap();
        let s = Schedule::postorder(&t);
        // Peak of the postorder is 8 (producing lb while a's 2 units are
        // active), so M = 8 needs no I/O.
        assert_eq!(peak_memory(&t, &s).unwrap(), 8);
        let res = fif_io(&t, &s, 8).unwrap();
        assert_eq!(res.total_io, 0);
        // M = 7: producing lb (6 units) with a's 2 units active exceeds the
        // bound by 1, so exactly one unit of a is written out (and read back
        // for the root). All other steps fit.
        let res7 = fif_io(&t, &s, 7).unwrap();
        assert_eq!(res7.total_io, 1);
        assert_eq!(res7.tau[a.index()], 1);
        assert_eq!(res7.tau.iter().sum::<u64>(), 1);
        // The traversal (σ, FiF τ) must be valid under M = 7.
        assert_eq!(check_traversal(&t, &s, &res7.tau, 7).unwrap(), 1);
        // And invalid if we pretend no I/O happened.
        assert!(check_traversal(&t, &s, &vec![0; t.len()], 7).is_err());
    }

    #[test]
    fn check_traversal_rejects_overcommitted_tau() {
        let t = sample();
        let s = Schedule::postorder(&t);
        let mut tau = vec![0u64; t.len()];
        tau[2] = 100; // exceeds w = 4
        assert!(matches!(
            check_traversal(&t, &s, &tau, 10),
            Err(TreeError::IoExceedsWeight { .. })
        ));
    }

    #[test]
    fn check_traversal_detects_memory_violation() {
        let t = sample();
        let s = Schedule::postorder(&t);
        let tau = vec![0u64; t.len()];
        assert!(matches!(
            check_traversal(&t, &s, &tau, 4),
            Err(TreeError::MemoryExceeded { .. })
        ));
        assert_eq!(check_traversal(&t, &s, &tau, 5).unwrap(), 0);
    }

    #[test]
    fn subtree_schedule_simulation() {
        let t = sample();
        let s = Schedule::new(vec![NodeId(2), NodeId(1)]);
        let p = memory_profile(&t, &s).unwrap();
        assert_eq!(p.peak(), 4);
        let r = fif_io(&t, &s, 4).unwrap();
        assert_eq!(r.total_io, 0);
    }
}
