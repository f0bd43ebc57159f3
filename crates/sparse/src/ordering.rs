//! Fill-reducing orderings.
//!
//! Sparse direct solvers permute the matrix before factorizing it to limit
//! fill-in; the choice of ordering also shapes the elimination tree (deep and
//! narrow for band-preserving orderings, shallow and bushy for nested
//! dissection). Three classical heuristics are provided, plus the natural
//! ordering, so the assembly-tree generator can produce the variety of tree
//! shapes found in the University of Florida collection.
//!
//! All functions return a *new-to-old* permutation `perm`: vertex `i` of the
//! permuted matrix is vertex `perm[i]` of the original one
//! (see [`crate::pattern::SymmetricPattern::permute`]).

use crate::pattern::SymmetricPattern;

/// The ordering strategies available to the assembly-tree pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Keep the natural (identity) ordering.
    Natural,
    /// Reverse Cuthill–McKee: bandwidth-reducing, gives deep and narrow
    /// elimination trees.
    ReverseCuthillMcKee,
    /// Minimum degree on the elimination graph: the classical fill-reducing
    /// heuristic, gives irregular trees.
    MinimumDegree,
    /// Nested dissection (grids only): gives shallow, balanced trees.
    NestedDissection,
}

/// Identity permutation.
pub fn natural(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Reverse Cuthill–McKee ordering, started from a pseudo-peripheral vertex of
/// each connected component.
pub fn reverse_cuthill_mckee(pattern: &SymmetricPattern) -> Vec<usize> {
    let n = pattern.order();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let root = pseudo_peripheral(pattern, start);
        // BFS from root, visiting neighbours by increasing degree.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        visited[root] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbs: Vec<usize> = pattern
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| !visited[u])
                .collect();
            nbs.sort_by_key(|&u| pattern.degree(u));
            for u in nbs {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Finds a pseudo-peripheral vertex by repeated BFS (George–Liu heuristic).
fn pseudo_peripheral(pattern: &SymmetricPattern, start: usize) -> usize {
    let mut current = start;
    let mut current_ecc = 0usize;
    for _ in 0..4 {
        let (farthest, ecc) = bfs_farthest(pattern, current);
        if ecc > current_ecc {
            current_ecc = ecc;
            current = farthest;
        } else {
            break;
        }
    }
    current
}

fn bfs_farthest(pattern: &SymmetricPattern, start: usize) -> (usize, usize) {
    let n = pattern.order();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    let mut far = (start, 0usize);
    while let Some(v) = queue.pop_front() {
        for &u in pattern.neighbors(v) {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                if dist[u] > far.1
                    || (dist[u] == far.1 && pattern.degree(u) < pattern.degree(far.0))
                {
                    far = (u, dist[u]);
                }
                queue.push_back(u);
            }
        }
    }
    far
}

/// Minimum-degree ordering computed on the explicitly updated elimination
/// graph.
///
/// Each step eliminates the live vertex with the lexicographically smallest
/// (exact external degree, vertex id) and joins its live neighbours into a
/// clique. Degrees are exact: there is no mass elimination, no supervariable
/// detection and no approximate degree, so the order is fully determined by
/// the pattern (every TREES tree built on it depends on that).
///
/// The elimination graph is one bitset row of `⌈n/64⌉` words per vertex,
/// and a lazy `(degree, vertex)` min-heap picks the pivot. Eliminating `v`
/// ORs `v`'s row into each neighbour's over the word span of `v`'s
/// neighbours only, and the newly added bits are counted with `popcount`
/// in the same pass. The rows take `n·⌈n/64⌉·8` bytes (3.0 MB at
/// `n = 4900`, 72 MB at `n = 24000`), held only while the function runs.
pub fn minimum_degree(pattern: &SymmetricPattern) -> Vec<usize> {
    use std::cmp::Reverse;
    let n = pattern.order();
    let words = n.div_ceil(64);
    let mut order = Vec::with_capacity(n);
    if n == 0 {
        return order;
    }
    let mut rows = vec![0u64; n * words];
    // deg[v] = popcount of v's row while v is live, usize::MAX once it is
    // eliminated, so `deg[v] != d` alone marks a heap entry as stale.
    let mut deg = vec![0usize; n];
    for (v, row) in rows.chunks_exact_mut(words).enumerate() {
        for &u in pattern.neighbors(v) {
            row[u / 64] |= 1 << (u % 64);
        }
        deg[v] = row.iter().map(|w| w.count_ones() as usize).sum();
    }
    let mut heap: std::collections::BinaryHeap<Reverse<(usize, usize)>> = deg
        .iter()
        .enumerate()
        .map(|(v, &d)| Reverse((d, v)))
        .collect();
    let mut row_v = vec![0u64; words];
    let mut nbs = Vec::new();

    while let Some(Reverse((d, v))) = heap.pop() {
        if deg[v] != d {
            continue; // stale entry
        }
        deg[v] = usize::MAX;
        order.push(v);
        let base = v * words;
        nbs.clear();
        for (w, &word) in rows[base..base + words].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                nbs.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        let (Some(&first), Some(&last)) = (nbs.first(), nbs.last()) else {
            continue; // isolated in the elimination graph
        };
        let span = first / 64..last / 64 + 1;
        row_v[span.clone()].copy_from_slice(&rows[base + span.start..base + span.end]);
        for &u in &nbs {
            let row_u = &mut rows[u * words..(u + 1) * words];
            row_u[v / 64] &= !(1 << (v % 64));
            // `u` is in v's row but never in its own, so it counts once
            // among the added bits.
            let mut added = 0usize;
            for (a, &b) in row_u[span.clone()].iter_mut().zip(&row_v[span.clone()]) {
                added += (b & !*a).count_ones() as usize;
                *a |= b;
            }
            row_u[u / 64] &= !(1 << (u % 64));
            deg[u] = deg[u] - 1 + added - 1;
            heap.push(Reverse((deg[u], u)));
        }
    }
    order
}

/// Nested dissection for a 2-D grid of `nx × ny` vertices numbered row-major
/// (as produced by [`crate::generators::grid_laplacian_2d`]).
///
/// The grid is recursively split along its longer dimension; separator
/// vertices are numbered last, which yields the classical shallow and
/// balanced elimination trees.
pub fn nested_dissection_2d(nx: usize, ny: usize) -> Vec<usize> {
    let mut perm = Vec::with_capacity(nx * ny);
    // Recursion on sub-rectangles [x0, x1) × [y0, y1).
    fn recurse(nx: usize, x0: usize, x1: usize, y0: usize, y1: usize, perm: &mut Vec<usize>) {
        let w = x1 - x0;
        let h = y1 - y0;
        if w == 0 || h == 0 {
            return;
        }
        if w <= 2 && h <= 2 {
            for y in y0..y1 {
                for x in x0..x1 {
                    perm.push(y * nx + x);
                }
            }
            return;
        }
        if w >= h {
            // Vertical separator at mid column.
            let mid = x0 + w / 2;
            recurse(nx, x0, mid, y0, y1, perm);
            recurse(nx, mid + 1, x1, y0, y1, perm);
            for y in y0..y1 {
                perm.push(y * nx + mid);
            }
        } else {
            let mid = y0 + h / 2;
            recurse(nx, x0, x1, y0, mid, perm);
            recurse(nx, x0, x1, mid + 1, y1, perm);
            for x in x0..x1 {
                perm.push(mid * nx + x);
            }
        }
    }
    recurse(nx, 0, nx, 0, ny, &mut perm);
    perm
}

/// Applies the requested ordering to a pattern, returning the permutation.
///
/// `grid` must be provided (as `(nx, ny)`) for [`Ordering::NestedDissection`].
pub fn compute_ordering(
    pattern: &SymmetricPattern,
    ordering: Ordering,
    grid: Option<(usize, usize)>,
) -> Vec<usize> {
    match ordering {
        Ordering::Natural => natural(pattern.order()),
        Ordering::ReverseCuthillMcKee => reverse_cuthill_mckee(pattern),
        Ordering::MinimumDegree => minimum_degree(pattern),
        Ordering::NestedDissection => {
            // lint: allow(L001, documented precondition: callers pass the grid for NestedDissection)
            let (nx, ny) = grid.expect("nested dissection needs the grid dimensions");
            assert_eq!(nx * ny, pattern.order(), "grid does not match the pattern");
            nested_dissection_2d(nx, ny)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_laplacian_2d, random_symmetric};

    fn is_permutation(perm: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        if perm.len() != n {
            return false;
        }
        for &p in perm {
            if p >= n || seen[p] {
                return false;
            }
            seen[p] = true;
        }
        true
    }

    #[test]
    fn all_orderings_are_permutations() {
        let p = grid_laplacian_2d(7, 5, false);
        assert!(is_permutation(&natural(p.order()), p.order()));
        assert!(is_permutation(&reverse_cuthill_mckee(&p), p.order()));
        assert!(is_permutation(&minimum_degree(&p), p.order()));
        assert!(is_permutation(&nested_dissection_2d(7, 5), 35));
        let r = random_symmetric(60, 4.0, 3);
        assert!(is_permutation(&reverse_cuthill_mckee(&r), 60));
        assert!(is_permutation(&minimum_degree(&r), 60));
    }

    #[test]
    fn rcm_reduces_bandwidth_on_grids() {
        // The natural ordering of an nx × ny grid has bandwidth nx; RCM should
        // not make it worse (up to a small constant).
        let (nx, ny) = (20, 4);
        let p = grid_laplacian_2d(nx, ny, false);
        let perm = reverse_cuthill_mckee(&p);
        let q = p.permute(&perm);
        let bandwidth = |pat: &SymmetricPattern| {
            (0..pat.order())
                .flat_map(|i| pat.neighbors(i).iter().map(move |&j| i.abs_diff(j)))
                .max()
                .unwrap_or(0)
        };
        assert!(bandwidth(&q) <= ny + 1, "RCM bandwidth {}", bandwidth(&q));
    }

    #[test]
    fn nested_dissection_numbers_separator_last() {
        let perm = nested_dissection_2d(5, 5);
        // The top-level separator is the middle column (x = 2); its vertices
        // must be the last 5 of the permutation.
        let last: Vec<usize> = perm[20..].to_vec();
        for &v in &last {
            assert_eq!(v % 5, 2, "vertex {v} is not on the middle column");
        }
    }

    #[test]
    fn minimum_degree_starts_with_a_minimum_degree_vertex() {
        let p = grid_laplacian_2d(6, 6, false);
        let perm = minimum_degree(&p);
        // Corners have degree 2, the global minimum on a grid.
        assert_eq!(p.degree(perm[0]), 2);
    }

    #[test]
    fn minimum_degree_of_an_empty_pattern_is_empty() {
        assert!(minimum_degree(&SymmetricPattern::new(0)).is_empty());
    }

    #[test]
    fn minimum_degree_of_a_single_vertex() {
        assert_eq!(minimum_degree(&SymmetricPattern::new(1)), vec![0]);
    }

    #[test]
    fn minimum_degree_orders_isolated_vertices_by_id() {
        for n in [2, 63, 64, 65, 130] {
            assert_eq!(minimum_degree(&SymmetricPattern::new(n)), natural(n));
        }
    }

    #[test]
    fn minimum_degree_handles_an_edge_across_a_word_boundary() {
        // Vertices 0 and 64 sit in different words of every bitset row. All
        // other vertices are isolated (degree 0) and go first by id; then 0
        // (degree 1, the smaller id), after which 64 has degree 0.
        let p = SymmetricPattern::from_edges(70, [(0, 64)]);
        let mut expected: Vec<usize> = (1..70).filter(|&v| v != 64).collect();
        expected.extend([0, 64]);
        assert_eq!(minimum_degree(&p), expected);
    }
}
