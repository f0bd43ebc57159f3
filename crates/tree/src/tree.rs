//! Rooted in-trees of tasks with weighted output data, stored as a flat
//! arena.
//!
//! # Arena layout
//!
//! The tree is a struct-of-arrays indexed by [`NodeId`]:
//!
//! ```text
//! weights        [w_0, w_1, …, w_{n-1}]          one u64 per node (SoA)
//! parent         [p_0, p_1, …, p_{n-1}]          u32; NO_PARENT for the root
//! child_start    [s_0, s_1, …, s_n]              CSR offsets (n + 1 entries)
//! children_flat  [c …]                           all child lists, concatenated
//! ```
//!
//! `children(i)` is the contiguous slice
//! `children_flat[child_start[i] .. child_start[i+1]]` — no per-node `Vec`,
//! no pointer chasing. On top of the structure the constructor precomputes
//! the derived arrays every scheduler needs:
//!
//! ```text
//! children_weight  Σ_{j child of i} w_j           O(1) lookups in simulators
//! postorder        DFS postorder of the whole tree (children in stored order)
//! postorder_pos    position of each node in `postorder`
//! subtree_size     nodes in the subtree rooted at i (including i)
//! depth            root = 0
//! ```
//!
//! Because the postorder visits every subtree contiguously (ending at its
//! root), [`Tree::subtree_postorder`] is a **slice** of the precomputed
//! order: traversals allocate nothing. Structural mutation is confined to
//! [`Tree::splice_above`] (the node-expansion primitive), which patches the
//! CSR arena in place — the new node's single-child list is appended at the
//! tail, the parent's child slot is overwritten — and then rebuilds the
//! derived arrays in O(n); callers (the `RecExpand` expansion loop) run an
//! O(n log n) scheduling pass after every splice, so the rebuild is
//! asymptotically free.

use crate::error::TreeError;

/// Identifier of a node (task) inside a [`Tree`].
///
/// Node identifiers are dense indices (`0..tree.len()`); they are stable under
/// the structural mutations used by the node-expansion machinery (expansion
/// only *adds* nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Sentinel parent index of the root node in the flat parent array.
const NO_PARENT: u32 = u32::MAX;

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        // lint: allow(L001, documented panic: the u32-width node id is a deliberate API contract)
        NodeId(u32::try_from(index).expect("node index overflows u32"))
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId::from_index(value)
    }
}

/// A rooted in-tree of tasks, stored as a flat arena (see the module docs
/// for the layout).
///
/// Every node `i` produces one output datum of `weight(i)` memory units that
/// is consumed by its unique parent. Dependencies are directed towards the
/// root: a node can only execute after all of its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// Output datum size per node (SoA weight array).
    weights: Vec<u64>,
    /// Parent index per node; `NO_PARENT` marks the root.
    parent: Vec<u32>,
    /// CSR offsets into `children_flat`; `len() + 1` entries.
    child_start: Vec<u32>,
    /// All child lists, concatenated in node-index order.
    children_flat: Vec<NodeId>,
    /// Precomputed `Σ_{j child of i} w_j`.
    children_weight: Vec<u64>,
    /// Precomputed DFS postorder of the whole tree (children in stored
    /// order, every subtree contiguous and ending at its root).
    postorder: Vec<NodeId>,
    /// Position of each node in `postorder`.
    postorder_pos: Vec<u32>,
    /// Number of nodes in the subtree rooted at each node (including it).
    subtree_size: Vec<u32>,
    /// Depth of each node (root = 0).
    depth: Vec<u32>,
    /// Maximum depth over all nodes.
    height: u32,
    root: NodeId,
}

impl Tree {
    /// Builds a tree from a parent array.
    ///
    /// `parents[i]` is the parent of node `i` (or `None` for the root);
    /// `weights[i]` is the size of node `i`'s output datum. Exactly one node
    /// must have no parent.
    pub fn from_parents(weights: &[u64], parents: &[Option<usize>]) -> Result<Self, TreeError> {
        if weights.is_empty() {
            return Err(TreeError::Empty);
        }
        assert_eq!(
            weights.len(),
            parents.len(),
            "weights and parents must have the same length"
        );
        let n = weights.len();
        let mut parent = vec![NO_PARENT; n];
        let mut root = None;
        // CSR construction by counting sort: count children per node, prefix
        // sum into offsets, then fill in ascending child-index order (the
        // same order the old per-node `Vec`s were pushed in).
        let mut counts = vec![0u32; n + 1];
        for (i, &p) in parents.iter().enumerate() {
            match p {
                Some(p) => {
                    if p >= n {
                        return Err(TreeError::UnknownNode(NodeId::from_index(p)));
                    }
                    parent[i] = NodeId::from_index(p).0;
                    counts[p] += 1;
                }
                None => match root {
                    None => root = Some(NodeId::from_index(i)),
                    Some(r) => return Err(TreeError::MultipleRoots(r, NodeId::from_index(i))),
                },
            }
        }
        let root = root.ok_or(TreeError::NoRoot)?;
        let mut child_start = vec![0u32; n + 1];
        for i in 0..n {
            child_start[i + 1] = child_start[i] + counts[i];
        }
        let mut cursor = child_start.clone();
        let mut children_flat = vec![NodeId(0); child_start[n] as usize];
        let mut placed = 0usize;
        for (i, &p) in parents.iter().enumerate() {
            if let Some(p) = p {
                children_flat[cursor[p] as usize] = NodeId::from_index(i);
                cursor[p] += 1;
                placed += 1;
            }
        }
        debug_assert_eq!(placed, n - 1, "every non-root node is someone's child");

        let mut tree = Tree {
            weights: weights.to_vec(),
            parent,
            child_start,
            children_flat,
            children_weight: Vec::new(),
            postorder: Vec::new(),
            postorder_pos: Vec::new(),
            subtree_size: Vec::new(),
            depth: Vec::new(),
            height: 0,
            root,
        };
        tree.recompute_derived()?;
        Ok(tree)
    }

    /// Builds a single-node tree (just a root of the given weight).
    pub fn singleton(weight: u64) -> Self {
        Tree {
            weights: vec![weight],
            parent: vec![NO_PARENT],
            child_start: vec![0, 0],
            children_flat: Vec::new(),
            children_weight: vec![0],
            postorder: vec![NodeId(0)],
            postorder_pos: vec![0],
            subtree_size: vec![1],
            depth: vec![0],
            height: 0,
            root: NodeId(0),
        }
    }

    /// Rebuilds every derived array (children weights, postorder, positions,
    /// subtree sizes, depths) from the structural arrays in O(n).
    ///
    /// Doubles as the acyclicity check: a parent structure with a cycle
    /// leaves the cycle's nodes unreachable from the root, so the DFS
    /// postorder comes up short and the lowest-index unreached node is
    /// reported — the same node the old walk-to-root check blamed.
    fn recompute_derived(&mut self) -> Result<(), TreeError> {
        let n = self.len();
        self.children_weight.clear();
        self.children_weight.resize(n, 0);
        for i in 0..n {
            self.children_weight[i] = self
                .children(NodeId::from_index(i))
                .iter()
                .map(|&c| self.weights[c.index()])
                .sum();
        }

        // Iterative DFS postorder from the root, children in stored order.
        self.postorder.clear();
        self.postorder.reserve(n);
        let mut stack: Vec<(NodeId, u32)> = Vec::with_capacity(64);
        stack.push((self.root, 0));
        while let Some((node, child_idx)) = stack.pop() {
            let kids = self.children(node);
            if (child_idx as usize) < kids.len() {
                let child = kids[child_idx as usize];
                stack.push((node, child_idx + 1));
                stack.push((child, 0));
            } else {
                self.postorder.push(node);
            }
        }
        if self.postorder.len() != n {
            // Some node never reaches the root by parent pointers.
            let mut reached = vec![false; n];
            for &node in &self.postorder {
                reached[node.index()] = true;
            }
            let lowest = (0..n)
                .find(|&i| !reached[i])
                .map(NodeId::from_index)
                .unwrap_or(self.root);
            return Err(TreeError::Cycle(lowest));
        }

        self.postorder_pos.clear();
        self.postorder_pos.resize(n, 0);
        for (pos, &node) in self.postorder.iter().enumerate() {
            self.postorder_pos[node.index()] = pos as u32;
        }

        // Subtree sizes bottom-up over the postorder (children first).
        self.subtree_size.clear();
        self.subtree_size.resize(n, 0);
        for &node in &self.postorder {
            let mut size = 1u32;
            for &c in self.children(node) {
                size += self.subtree_size[c.index()];
            }
            self.subtree_size[node.index()] = size;
        }

        // Depths top-down over the reversed postorder (parents first).
        self.depth.clear();
        self.depth.resize(n, 0);
        let mut height = 0u32;
        for &node in self.postorder.iter().rev() {
            let d = match self.parent(node) {
                Some(p) => self.depth[p.index()] + 1,
                None => 0,
            };
            self.depth[node.index()] = d;
            height = height.max(d);
        }
        self.height = height;
        Ok(())
    }

    /// Number of nodes in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the tree has no nodes (never the case for a built tree).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The size `w_i` of node `i`'s output datum.
    // lint: no_alloc
    #[inline]
    pub fn weight(&self, node: NodeId) -> u64 {
        self.weights[node.index()]
    }

    /// Mutable access to a node weight (used by generators and tests).
    /// Keeps the precomputed children-weight of the parent in sync.
    pub fn set_weight(&mut self, node: NodeId, weight: u64) {
        let old = self.weights[node.index()];
        self.weights[node.index()] = weight;
        if let Some(p) = self.parent(node) {
            self.children_weight[p.index()] = self.children_weight[p.index()] - old + weight;
        }
    }

    /// The parent of `node`, or `None` for the root.
    // lint: no_alloc
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let raw = self.parent[node.index()];
        if raw == NO_PARENT {
            None
        } else {
            Some(NodeId(raw))
        }
    }

    /// The children of `node`: a contiguous slice of the CSR child arena.
    // lint: no_alloc
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children_flat[self.child_range(node)]
    }

    /// The range of `node`'s children inside [`Tree::children_flat`].
    // lint: no_alloc
    #[inline]
    pub fn child_range(&self, node: NodeId) -> std::ops::Range<usize> {
        let i = node.index();
        self.child_start[i] as usize..self.child_start[i + 1] as usize
    }

    /// The concatenated child lists of all nodes (CSR payload); index it
    /// with [`Tree::child_range`]. Useful for schedulers that reorder
    /// children in a flat scratch copy instead of per-node `Vec`s.
    // lint: no_alloc
    #[inline]
    pub fn children_flat(&self) -> &[NodeId] {
        &self.children_flat
    }

    /// `true` if `node` has no children.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        let i = node.index();
        self.child_start[i] == self.child_start[i + 1]
    }

    /// Iterator over all node ids, in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::from_index)
    }

    /// All leaves of the tree.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&n| self.is_leaf(n)).collect()
    }

    /// Sum of the children output sizes of `node` (precomputed: O(1)).
    // lint: no_alloc
    #[inline]
    pub fn children_weight(&self, node: NodeId) -> u64 {
        self.children_weight[node.index()]
    }

    /// Memory needed to execute `node` in isolation:
    /// `w̄_i = max(w_i, Σ_{j child of i} w_j)` (paper, Section 3.1).
    // lint: no_alloc
    #[inline]
    pub fn execution_weight(&self, node: NodeId) -> u64 {
        self.weight(node).max(self.children_weight(node))
    }

    /// The minimum memory bound for which the tree can be executed at all
    /// (with unlimited I/O): `LB = max_i w̄_i` (paper, Section 6.1).
    pub fn min_feasible_memory(&self) -> u64 {
        self.node_ids()
            .map(|n| self.execution_weight(n))
            .max()
            .unwrap_or(0)
    }

    /// Sum of all node weights.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Maximum node weight.
    pub fn max_weight(&self) -> u64 {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Number of nodes in the subtree rooted at `node` (including `node`);
    /// precomputed, O(1).
    // lint: no_alloc
    #[inline]
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.subtree_size[node.index()] as usize
    }

    /// The nodes of the subtree rooted at `node`, in postorder: every node
    /// appears after all of its children.
    ///
    /// A slice of the precomputed whole-tree postorder (subtrees are
    /// contiguous in it, ending at their root) — no allocation, no
    /// traversal.
    // lint: no_alloc
    #[inline]
    pub fn subtree_postorder(&self, node: NodeId) -> &[NodeId] {
        let end = self.postorder_pos[node.index()] as usize + 1;
        let start = end - self.subtree_size[node.index()] as usize;
        &self.postorder[start..end]
    }

    /// The nodes of the subtree rooted at `node`, in DFS preorder.
    ///
    /// Allocates the result; prefer [`Tree::subtree_postorder`] (a slice of
    /// the precomputed arena) when the order within the subtree is
    /// topological-first anyway.
    pub fn subtree_nodes(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.subtree_size(node));
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n).iter().copied());
        }
        out
    }

    /// Postorder over the whole tree (children before parents); precomputed,
    /// returned as a slice of the arena.
    // lint: no_alloc
    #[inline]
    pub fn postorder(&self) -> &[NodeId] {
        &self.postorder
    }

    /// Position of `node` in the precomputed whole-tree [`Tree::postorder`].
    // lint: no_alloc
    #[inline]
    pub fn postorder_position(&self, node: NodeId) -> usize {
        self.postorder_pos[node.index()] as usize
    }

    /// Depth of `node` (the root has depth 0); precomputed, O(1).
    // lint: no_alloc
    #[inline]
    pub fn depth(&self, node: NodeId) -> usize {
        self.depth[node.index()] as usize
    }

    /// Height of the tree: the maximum depth over all nodes; precomputed,
    /// O(1).
    #[inline]
    pub fn height(&self) -> usize {
        self.height as usize
    }

    /// `true` iff all nodes have output size exactly 1 (a *homogeneous* tree
    /// in the sense of Section 4.2 of the paper).
    pub fn is_homogeneous(&self) -> bool {
        self.weights.iter().all(|&w| w == 1)
    }

    /// Adds a new node above `node`: the new node takes `node`'s place as a
    /// child of `node`'s parent (or becomes the root), and `node` becomes its
    /// only child. Returns the new node's id.
    ///
    /// This is the structural primitive behind node expansion
    /// (see [`crate::expand`]). The CSR arena is patched in place (the new
    /// node's single-child list goes at the tail; the parent's child slot is
    /// overwritten) and the derived traversal arrays are rebuilt in O(n).
    pub fn splice_above(&mut self, node: NodeId, weight: u64) -> NodeId {
        let new = NodeId::from_index(self.len());
        let old_parent = self.parent[node.index()];
        self.weights.push(weight);
        self.parent.push(old_parent);
        self.parent[node.index()] = new.0;
        // The new node's child list is [node], appended at the arena tail.
        self.children_flat.push(node);
        self.child_start.push(
            u32::try_from(self.children_flat.len())
                // lint: allow(L001, children_flat holds at most one entry per u32-indexed node)
                .expect("child arena exceeds u32 offsets"),
        );
        if old_parent == NO_PARENT {
            self.root = new;
        } else {
            let range = self.child_range(NodeId(old_parent));
            let slot = self.children_flat[range.clone()]
                .iter()
                .position(|&c| c == node)
                // lint: allow(L001, parent/child links are a Tree construction invariant)
                .expect("parent/child links out of sync");
            self.children_flat[range.start + slot] = new;
        }
        self.recompute_derived()
            // lint: allow(L001, splicing one node into an acyclic tree cannot create a cycle)
            .expect("splice_above preserves acyclicity");
        new
    }

    /// Validates the internal consistency of the tree (used in tests and by
    /// deserialization call sites).
    pub fn validate(&self) -> Result<(), TreeError> {
        if self.is_empty() {
            return Err(TreeError::Empty);
        }
        let n = self.len();
        debug_assert_eq!(self.parent.len(), n);
        debug_assert_eq!(self.child_start.len(), n + 1);
        let mut seen_as_child = vec![false; n];
        for node in self.node_ids() {
            if let Some(p) = self.parent(node) {
                if p.index() >= n {
                    return Err(TreeError::UnknownNode(p));
                }
                if !self.children(p).contains(&node) {
                    return Err(TreeError::UnknownNode(node));
                }
            }
            for &c in self.children(node) {
                if c.index() >= n {
                    return Err(TreeError::UnknownNode(c));
                }
                if self.parent(c) != Some(node) {
                    return Err(TreeError::UnknownNode(c));
                }
                // A node listed twice (under one parent or several) would be
                // consumed twice by the simulator.
                if seen_as_child[c.index()] {
                    return Err(TreeError::DuplicateNode(c));
                }
                seen_as_child[c.index()] = true;
            }
        }
        if self.parent(self.root).is_some() {
            return Err(TreeError::NoRoot);
        }
        self.check_acyclic()
    }

    /// Every node must reach the root by following parent pointers: walk the
    /// children from the root and require full coverage (O(n), iterative).
    fn check_acyclic(&self) -> Result<(), TreeError> {
        let n = self.len();
        let mut reached = vec![false; n];
        let mut stack = vec![self.root];
        let mut count = 0usize;
        while let Some(node) = stack.pop() {
            if reached[node.index()] {
                continue;
            }
            reached[node.index()] = true;
            count += 1;
            stack.extend(self.children(node).iter().copied());
        }
        if count == n {
            Ok(())
        } else {
            let lowest = (0..n)
                .find(|&i| !reached[i])
                .map(NodeId::from_index)
                .unwrap_or(self.root);
            Err(TreeError::Cycle(lowest))
        }
    }
}

/// Incremental builder for [`Tree`] values: the only construction path into
/// the frozen arena besides [`Tree::from_parents`] (which it delegates to).
///
/// ```
/// use oocts_tree::TreeBuilder;
///
/// let mut b = TreeBuilder::new();
/// let root = b.add_root(4);
/// let left = b.add_child(root, 2);
/// let _leaf = b.add_child(left, 7);
/// let _right = b.add_child(root, 3);
/// let tree = b.build().unwrap();
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.weight(root), 4);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TreeBuilder {
    weights: Vec<u64>,
    parents: Vec<Option<usize>>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        TreeBuilder {
            weights: Vec::with_capacity(n),
            parents: Vec::with_capacity(n),
        }
    }

    /// Adds the root node. Must be called exactly once.
    pub fn add_root(&mut self, weight: u64) -> NodeId {
        self.push(weight, None)
    }

    /// Adds a child of `parent` with the given output size.
    pub fn add_child(&mut self, parent: NodeId, weight: u64) -> NodeId {
        self.push(weight, Some(parent.index()))
    }

    fn push(&mut self, weight: u64, parent: Option<usize>) -> NodeId {
        let id = NodeId::from_index(self.weights.len());
        self.weights.push(weight);
        self.parents.push(parent);
        id
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if no node has been added yet.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Finalizes the frozen arena tree.
    pub fn build(self) -> Result<Tree, TreeError> {
        Tree::from_parents(&self.weights, &self.parents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        // root(5) with children a(3) and b(2); a has leaf c(4).
        let mut b = TreeBuilder::new();
        let r = b.add_root(5);
        let a = b.add_child(r, 3);
        b.add_child(a, 4);
        b.add_child(r, 2);
        b.build().unwrap()
    }

    #[test]
    fn validate_rejects_corrupted_trees() {
        // The public constructors refuse these shapes, so corrupt the
        // private arena fields directly: validate() is the last line of
        // defense for future in-place mutation code.
        // sample(): children_flat = [1, 3, 2] with child_start = [0,2,3,3,3].

        // A two-cycle in the parent/children links: 0 <-> 1 (and node 2's
        // slot in 1's children overwritten by 0).
        let mut t = sample();
        t.parent[0] = 1;
        t.children_flat[2] = NodeId(0);
        assert!(matches!(
            t.validate(),
            Err(TreeError::NoRoot | TreeError::Cycle(_) | TreeError::UnknownNode(_))
        ));

        // The same node listed as a child twice (node 3's slot under the
        // root overwritten by a second 1).
        let mut t = sample();
        t.children_flat[1] = NodeId(1);
        assert!(matches!(
            t.validate(),
            Err(TreeError::DuplicateNode(NodeId(1)) | TreeError::UnknownNode(_))
        ));

        // A children list referencing a node outside the tree.
        let mut t = sample();
        t.children_flat[1] = NodeId(99);
        assert!(matches!(t.validate(), Err(TreeError::UnknownNode(_))));

        // A child whose parent link points elsewhere.
        let mut t = sample();
        t.parent[3] = 1;
        assert!(t.validate().is_err());

        // An empty tree.
        let t = Tree {
            weights: Vec::new(),
            parent: Vec::new(),
            child_start: vec![0],
            children_flat: Vec::new(),
            children_weight: Vec::new(),
            postorder: Vec::new(),
            postorder_pos: Vec::new(),
            subtree_size: Vec::new(),
            depth: Vec::new(),
            height: 0,
            root: NodeId(0),
        };
        assert_eq!(t.validate(), Err(TreeError::Empty));
    }

    #[test]
    fn builder_and_accessors() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.weight(NodeId(0)), 5);
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(3)]);
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
        assert!(t.is_leaf(NodeId(2)));
        assert!(!t.is_leaf(NodeId(0)));
        assert_eq!(t.leaves(), vec![NodeId(2), NodeId(3)]);
        assert_eq!(t.total_weight(), 14);
        assert_eq!(t.max_weight(), 5);
        assert_eq!(t.height(), 2);
        assert_eq!(t.depth(NodeId(2)), 2);
        t.validate().unwrap();
    }

    #[test]
    fn csr_layout_is_contiguous_and_consistent() {
        let t = sample();
        // children_flat concatenates the child lists in node-index order.
        assert_eq!(t.children_flat(), &[NodeId(1), NodeId(3), NodeId(2)]);
        assert_eq!(t.child_range(NodeId(0)), 0..2);
        assert_eq!(t.child_range(NodeId(1)), 2..3);
        assert_eq!(t.child_range(NodeId(2)), 3..3);
        // children() is exactly the child_range slice of children_flat.
        for n in t.node_ids() {
            assert_eq!(t.children(n), &t.children_flat()[t.child_range(n)]);
        }
        // Precomputed children weights match a recomputation.
        for n in t.node_ids() {
            let direct: u64 = t.children(n).iter().map(|&c| t.weight(c)).sum();
            assert_eq!(t.children_weight(n), direct);
        }
    }

    #[test]
    fn set_weight_keeps_children_weight_in_sync() {
        let mut t = sample();
        assert_eq!(t.children_weight(NodeId(0)), 5);
        t.set_weight(NodeId(1), 10);
        assert_eq!(t.weight(NodeId(1)), 10);
        assert_eq!(t.children_weight(NodeId(0)), 12);
        t.set_weight(NodeId(1), 1);
        assert_eq!(t.children_weight(NodeId(0)), 3);
        // Re-weighting the root touches no parent.
        t.set_weight(NodeId(0), 9);
        assert_eq!(t.weight(NodeId(0)), 9);
    }

    #[test]
    fn execution_weights() {
        let t = sample();
        // root: max(5, 3 + 2) = 5 ; a: max(3, 4) = 4 ; leaf c: 4 ; leaf b: 2.
        assert_eq!(t.execution_weight(NodeId(0)), 5);
        assert_eq!(t.execution_weight(NodeId(1)), 4);
        assert_eq!(t.execution_weight(NodeId(2)), 4);
        assert_eq!(t.execution_weight(NodeId(3)), 2);
        assert_eq!(t.min_feasible_memory(), 5);
    }

    #[test]
    fn postorder_is_topological() {
        let t = sample();
        let po = t.postorder();
        assert_eq!(po.len(), t.len());
        let pos: std::collections::HashMap<_, _> =
            po.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in t.node_ids() {
            assert_eq!(pos[&n], t.postorder_position(n));
            if let Some(p) = t.parent(n) {
                assert!(pos[&n] < pos[&p]);
            }
        }
    }

    #[test]
    fn from_parents_detects_errors() {
        assert_eq!(Tree::from_parents(&[], &[]), Err(TreeError::Empty));
        assert!(matches!(
            Tree::from_parents(&[1, 1], &[None, None]),
            Err(TreeError::MultipleRoots(_, _))
        ));
        assert!(matches!(
            Tree::from_parents(&[1, 1], &[Some(1), Some(0)]),
            Err(TreeError::NoRoot) | Err(TreeError::Cycle(_))
        ));
        assert!(matches!(
            Tree::from_parents(&[1], &[Some(5)]),
            Err(TreeError::UnknownNode(_))
        ));
        // A cycle hanging off a valid rooted part: nodes 1 <-> 2 never reach
        // the root; the lowest-index cycle node is blamed.
        assert_eq!(
            Tree::from_parents(&[1, 1, 1], &[None, Some(2), Some(1)]),
            Err(TreeError::Cycle(NodeId(1)))
        );
    }

    #[test]
    fn splice_above_keeps_structure() {
        let mut t = sample();
        let a = NodeId(1);
        let new = t.splice_above(a, 99);
        t.validate().unwrap();
        assert_eq!(t.weight(new), 99);
        assert_eq!(t.parent(a), Some(new));
        assert_eq!(t.parent(new), Some(NodeId(0)));
        assert!(t.children(NodeId(0)).contains(&new));
        assert!(!t.children(NodeId(0)).contains(&a));
        // The new node keeps a's old slot, so sibling order is preserved.
        assert_eq!(t.children(NodeId(0)), &[new, NodeId(3)]);
        // Derived arrays were rebuilt: the subtree below `new` grew by one.
        assert_eq!(t.subtree_size(new), 3);
        assert_eq!(t.depth(NodeId(2)), 3);
        assert_eq!(t.height(), 3);
        assert_eq!(t.children_weight(NodeId(0)), 99 + 2);
    }

    #[test]
    fn splice_above_root_changes_root() {
        let mut t = sample();
        let old_root = t.root();
        let new = t.splice_above(old_root, 1);
        t.validate().unwrap();
        assert_eq!(t.root(), new);
        assert_eq!(t.parent(old_root), Some(new));
        assert_eq!(t.postorder().last(), Some(&new));
    }

    #[test]
    fn homogeneous_detection() {
        let t = sample();
        assert!(!t.is_homogeneous());
        let h = Tree::from_parents(&[1, 1, 1], &[None, Some(0), Some(0)]).unwrap();
        assert!(h.is_homogeneous());
    }

    #[test]
    fn subtree_queries() {
        let t = sample();
        assert_eq!(t.subtree_size(NodeId(1)), 2);
        assert_eq!(t.subtree_size(t.root()), 4);
        let po = t.subtree_postorder(NodeId(1));
        assert_eq!(po, &[NodeId(2), NodeId(1)]);
        // The whole-tree postorder is itself the root's subtree slice.
        assert_eq!(t.subtree_postorder(t.root()), t.postorder());
        // Preorder subtree listing still starts at the subtree root.
        let pre = t.subtree_nodes(NodeId(1));
        assert_eq!(pre[0], NodeId(1));
        assert_eq!(pre.len(), 2);
    }

    #[test]
    fn deep_chain_builds_without_quadratic_blowup() {
        // A 200k-deep chain: O(n) construction and O(1) depth queries; the
        // old walk-to-root acyclicity check would take O(n^2) here.
        let n = 200_000usize;
        let weights = vec![1u64; n];
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        let t = Tree::from_parents(&weights, &parents).unwrap();
        assert_eq!(t.height(), n - 1);
        assert_eq!(t.depth(NodeId::from_index(n - 1)), n - 1);
        assert_eq!(t.subtree_size(t.root()), n);
        assert_eq!(t.postorder().first(), Some(&NodeId::from_index(n - 1)));
        t.validate().unwrap();
    }
}
