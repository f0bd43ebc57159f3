//! Multifrontal assembly trees.
//!
//! In the multifrontal method every column (or supernode) of the factor is
//! processed in a dense *frontal matrix*; eliminating its pivots leaves a
//! *contribution block* that is passed to — and assembled into — the parent's
//! front. The dependency structure is the elimination tree, and the datum a
//! node sends to its parent is its contribution block: exactly the task-tree
//! model of the paper, with `w_i` = (size of the contribution block of `i`).
//!
//! This module turns a (permuted) sparsity pattern into such a task tree.

use oocts_tree::{Tree, TreeError};

use crate::etree::elimination_tree;
use crate::pattern::SymmetricPattern;
use crate::symbolic::column_counts;

/// Options of the assembly-tree construction.
#[derive(Debug, Clone, Copy)]
pub struct AssemblyOptions {
    /// Fuse a node into its parent when it is an only child whose elimination
    /// does not change the front structure (`cc_child = cc_parent + 1`), the
    /// classical fundamental-supernode amalgamation. Reduces the number of
    /// tasks the way real multifrontal solvers do.
    pub amalgamate: bool,
    /// Weights are contribution-block *areas* (`(cc−1)²`, the default, in
    /// "matrix entries" units) when `true`; contribution-block *orders*
    /// (`cc − 1`) when `false`. Areas are what the multifrontal method
    /// actually stores.
    pub square_weights: bool,
}

impl Default for AssemblyOptions {
    fn default() -> Self {
        AssemblyOptions {
            amalgamate: true,
            square_weights: true,
        }
    }
}

/// Builds the multifrontal assembly tree of `pattern` (already permuted by
/// the chosen fill-reducing ordering).
///
/// Node weights are contribution-block sizes; the (virtual, weight-1) root is
/// added only if the pattern is disconnected, so that the result is always a
/// single tree.
pub fn assembly_tree(
    pattern: &SymmetricPattern,
    options: AssemblyOptions,
) -> Result<Tree, TreeError> {
    let n = pattern.order();
    let parent = elimination_tree(pattern);
    let counts = column_counts(pattern, &parent);

    // Contribution block of column j: the cc[j] − 1 off-diagonal rows of its
    // front remain after eliminating the pivot.
    let weight_of = |j: usize| -> u64 {
        let cb = counts[j].saturating_sub(1);
        let w = if options.square_weights { cb * cb } else { cb };
        w.max(1)
    };

    // Amalgamation: map every column to its representative task.
    let mut representative: Vec<usize> = (0..n).collect();
    if options.amalgamate {
        // A column j is fused into its parent p when it is p's only child and
        // cc[j] = cc[p] + 1 (fundamental supernode condition).
        let mut n_children = vec![0usize; n];
        for p in parent.iter().flatten() {
            n_children[*p] += 1;
        }
        // Process in reverse topological order (children have smaller index
        // than parents in an elimination tree) so chains collapse fully.
        for j in (0..n).rev() {
            if let Some(p) = parent[j] {
                if n_children[p] == 1 && counts[j] == counts[p] + 1 {
                    representative[j] = p;
                }
            }
        }
        // Path-compress the representative mapping.
        for j in (0..n).rev() {
            let r = representative[j];
            if r != j {
                representative[j] = representative[r];
            }
        }
    }

    // Build the task list: one task per representative column.
    let mut task_of = vec![usize::MAX; n];
    let mut weights = Vec::new();
    let mut reps = Vec::new();
    for j in 0..n {
        if representative[j] == j {
            task_of[j] = weights.len();
            weights.push(weight_of(j));
            reps.push(j);
        }
    }
    // Parent of a task: the task of the representative of the parent column
    // of its representative column.
    let mut parents: Vec<Option<usize>> = Vec::with_capacity(weights.len());
    for &j in &reps {
        let p = parent[j].map(|p| task_of[representative[p]]);
        parents.push(p);
    }

    // If the elimination structure is a forest, bind the roots under one
    // virtual root task of weight 1.
    let roots: Vec<usize> = parents
        .iter()
        .enumerate()
        .filter_map(|(t, p)| if p.is_none() { Some(t) } else { None })
        .collect();
    if roots.len() > 1 {
        let virtual_root = weights.len();
        weights.push(1);
        parents.push(None);
        for r in roots {
            parents[r] = Some(virtual_root);
        }
    }

    Tree::from_parents(&weights, &parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_laplacian_2d, random_symmetric};
    use crate::ordering::{nested_dissection_2d, reverse_cuthill_mckee};

    #[test]
    fn tridiagonal_assembly_tree_is_a_chain_after_amalgamation_is_disabled() {
        let p = SymmetricPattern::from_edges(6, (0..5).map(|i| (i, i + 1)));
        let t = assembly_tree(
            &p,
            AssemblyOptions {
                amalgamate: false,
                square_weights: true,
            },
        )
        .unwrap();
        assert_eq!(t.len(), 6);
        // Every non-root node has exactly one child except the deepest leaf.
        assert_eq!(t.leaves().len(), 1);
        // Contribution blocks of a tridiagonal matrix are 1×1 ⇒ weight 1.
        assert!(t.node_ids().all(|n| t.weight(n) == 1));
    }

    #[test]
    fn amalgamation_reduces_node_count() {
        let g = grid_laplacian_2d(10, 10, false);
        let q = g.permute(&nested_dissection_2d(10, 10));
        let full = assembly_tree(
            &q,
            AssemblyOptions {
                amalgamate: false,
                square_weights: true,
            },
        )
        .unwrap();
        let amal = assembly_tree(&q, AssemblyOptions::default()).unwrap();
        assert_eq!(full.len(), 100);
        assert!(amal.len() < full.len());
        assert!(
            amal.len() > 10,
            "amalgamation should not collapse everything"
        );
    }

    #[test]
    fn assembly_tree_weights_grow_towards_the_root_on_grids() {
        // With nested dissection the separators eliminated late have the
        // largest fronts, hence the heaviest contribution blocks; the leaves
        // (subdomain interiors) stay light. Note the tree root itself is the
        // *last* pivot: its contribution block is empty by construction.
        let (nx, ny) = (12, 12);
        let g = grid_laplacian_2d(nx, ny, false);
        let q = g.permute(&nested_dissection_2d(nx, ny));
        let t = assembly_tree(&q, AssemblyOptions::default()).unwrap();
        assert_eq!(t.weight(t.root()), 1, "the last pivot has an empty block");
        let max_w = t.node_ids().map(|n| t.weight(n)).max().unwrap();
        let max_leaf_w = t.leaves().iter().map(|&l| t.weight(l)).max().unwrap();
        // The heaviest datum belongs to a top-separator column and dwarfs the
        // leaves.
        assert!(
            max_w >= 100,
            "expected a heavy separator block, got {max_w}"
        );
        assert!(max_w > max_leaf_w);
        let heaviest = t.node_ids().max_by_key(|&n| t.weight(n)).unwrap();
        assert!(!t.is_leaf(heaviest));
        assert!(t.min_feasible_memory() >= max_w);
    }

    #[test]
    fn disconnected_pattern_gets_a_virtual_root() {
        let p = SymmetricPattern::from_edges(4, [(0, 1), (2, 3)]);
        let t = assembly_tree(
            &p,
            AssemblyOptions {
                amalgamate: false,
                square_weights: true,
            },
        )
        .unwrap();
        assert_eq!(t.len(), 5);
        t.validate().unwrap();
    }

    #[test]
    fn random_matrices_give_valid_trees_under_all_orderings() {
        let r = random_symmetric(120, 4.0, 21);
        for perm in [
            crate::ordering::natural(120),
            reverse_cuthill_mckee(&r),
            crate::ordering::minimum_degree(&r),
        ] {
            let q = r.permute(&perm);
            let t = assembly_tree(&q, AssemblyOptions::default()).unwrap();
            t.validate().unwrap();
            assert!(t.len() <= 120);
            assert!(t.len() > 1);
        }
    }
}
