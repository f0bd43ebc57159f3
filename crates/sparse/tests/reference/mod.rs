//! The list-based minimum-degree ordering that the bitset elimination graph
//! in `oocts_sparse::ordering::minimum_degree` replaced, kept as the
//! reference the new body is tested against. The algorithm is unchanged.
//!
//! It keeps the elimination graph as sorted adjacency lists and a lazy
//! `(degree, vertex)` min-heap; eliminating `v` rebuilds the list of every
//! neighbour with `retain` + `push` + `sort_unstable` + `dedup`. Each step
//! therefore eliminates the live vertex with the lexicographically smallest
//! (exact external degree, vertex id).

use oocts_sparse::pattern::SymmetricPattern;

/// Reference minimum-degree ordering (new-to-old permutation).
pub fn minimum_degree(pattern: &SymmetricPattern) -> Vec<usize> {
    let n = pattern.order();
    // Working adjacency as sorted vectors; eliminated vertices are emptied.
    let mut adj: Vec<Vec<usize>> = (0..n).map(|i| pattern.neighbors(i).to_vec()).collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Simple binary-heap of (degree, vertex) with lazy invalidation.
    use std::cmp::Reverse;
    let mut heap: std::collections::BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|i| Reverse((adj[i].len(), i))).collect();

    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || adj[v].len() != deg {
            continue; // stale entry
        }
        eliminated[v] = true;
        order.push(v);
        // Form the clique of v's remaining neighbours.
        let nbs: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        for (idx, &u) in nbs.iter().enumerate() {
            // Remove v from u's list and add the other clique members.
            let mut list = std::mem::take(&mut adj[u]);
            list.retain(|&x| x != v && !eliminated[x]);
            for &w in &nbs[idx + 1..] {
                list.push(w);
            }
            for &w in &nbs[..idx] {
                list.push(w);
            }
            list.sort_unstable();
            list.dedup();
            let new_deg = list.len();
            adj[u] = list;
            heap.push(Reverse((new_deg, u)));
        }
        adj[v].clear();
    }
    order
}
