//! The node-indexed heap FiF simulator that `oocts_tree::fif_io` replaced,
//! kept as the reference the step-indexed pass is tested against. The
//! algorithm is unchanged; only its scratch buffers became local and its
//! debug assertions plain ones.
//!
//! It validates the schedule up front, keeps every working array indexed
//! by node id and walks each node's children; its heap holds one lazily
//! invalidated entry per produced node and is never compacted.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use oocts_tree::{IoResult, NodeId, Schedule, Tree, TreeError};

/// Reference `fif_io`: [`Schedule::validate`], then the heap simulation.
pub fn fif_io(tree: &Tree, schedule: &Schedule, memory: u64) -> Result<IoResult, TreeError> {
    schedule.validate(tree)?;
    let positions = schedule.positions(tree);

    // in_mem[i] = units of node i's output currently in main memory
    // (meaningful only while i is active).
    let mut in_mem = vec![0u64; tree.len()];
    let mut active = vec![false; tree.len()];
    let mut tau = vec![0u64; tree.len()];
    let mut total_io = 0u64;
    let mut resident = 0u64; // Σ in_mem over active nodes
    let mut peak_in_core = 0u64;
    let mut in_core_resident = 0u64; // resident if no I/O were ever done

    // Max-heap of active nodes keyed by the step at which their parent (the
    // consumer of their data) executes; the node needed furthest in the
    // future sits on top. Entries are lazily invalidated.
    let mut heap: BinaryHeap<(usize, Reverse<u32>)> = BinaryHeap::new();

    for (step, node) in schedule.iter().enumerate() {
        let w = tree.weight(node);
        let cw = tree.children_weight(node);
        let wbar = w.max(cw);
        if wbar > memory {
            return Err(TreeError::InsufficientMemory {
                node,
                required: wbar,
                available: memory,
            });
        }

        // In-core accounting (for `peak_in_core`).
        peak_in_core = peak_in_core.max(in_core_resident + w.saturating_sub(cw));
        in_core_resident = in_core_resident - cw + w;

        // Units of the children currently evicted; they must be read back
        // before the node can execute. Reads are not counted as I/O but the
        // space they occupy is part of w̄_i.
        let children_in_mem: u64 = tree.children(node).iter().map(|&c| in_mem[c.index()]).sum();
        let others_resident = resident - children_in_mem;

        // Evict non-children active data, furthest-in-the-future first, until
        // the node fits.
        let mut to_evict = (others_resident + wbar).saturating_sub(memory);
        while to_evict > 0 {
            let (par_pos, Reverse(raw)) = heap
                .pop()
                .expect("eviction needed but no active data to evict");
            let victim = NodeId(raw);
            let stale = !active[victim.index()]
                || in_mem[victim.index()] == 0
                || tree.parent(victim) == Some(node)
                || par_pos != parent_position(tree, &positions, victim);
            if stale {
                continue;
            }
            let amount = in_mem[victim.index()].min(to_evict);
            in_mem[victim.index()] -= amount;
            resident -= amount;
            tau[victim.index()] += amount;
            total_io = total_io.saturating_add(amount);
            to_evict -= amount;
            if in_mem[victim.index()] > 0 {
                heap.push((par_pos, Reverse(victim.0)));
            }
        }

        // Read children back (no I/O counted), consume them, produce the
        // node's output fully in memory.
        for &c in tree.children(node) {
            assert!(active[c.index()]);
            resident -= in_mem[c.index()];
            in_mem[c.index()] = 0;
            active[c.index()] = false;
        }
        active[node.index()] = true;
        in_mem[node.index()] = w;
        resident = resident.saturating_add(w);
        heap.push((parent_position(tree, &positions, node), Reverse(node.0)));

        assert!(
            resident <= memory || resident - w <= memory.saturating_sub(wbar),
            "resident data exceeds the memory bound after step {step}"
        );
    }

    assert_eq!(total_io, tau.iter().sum::<u64>());
    Ok(IoResult {
        total_io,
        tau,
        peak_in_core,
    })
}

fn parent_position(tree: &Tree, positions: &[usize], node: NodeId) -> usize {
    match tree.parent(node) {
        Some(p) => positions[p.index()],
        // The subtree root's output is needed "after the end" of the
        // schedule: furthest in the future of all.
        None => usize::MAX,
    }
}
