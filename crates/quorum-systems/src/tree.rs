//! The Tree quorum system of Agrawal & El Abbadi.

use quorum_core::lanes::Lanes;
use quorum_core::{DeltaEvaluator, ElementId, ElementSet, QuorumError, QuorumSystem};

use crate::composition::{CompositionDeltaEval, ROOT};
use crate::dispatch_lane_block;

/// Largest representable height: `2^26 − 1` nodes.
const MAX_HEIGHT: usize = 25;

/// The Tree quorum system over a complete binary tree of height `h`
/// (`n = 2^{h+1} − 1` elements, one per tree node, in heap order: the root is
/// element 0 and the children of `v` are `2v+1` and `2v+2`).
///
/// A quorum is defined recursively: either the root together with a quorum of
/// one of its subtrees, or the union of a quorum of each subtree.
///
/// Probe-complexity results from the paper:
///
/// * deterministic worst case: `PC(Tree) = n` (evasive, Lemma 2.2);
/// * probabilistic model: `PPC_p(Tree) = O(n^{log_2(1+p)})`, hence
///   `O(n^{0.585})` for every `p` (Proposition 3.6, Corollary 3.7);
/// * randomized worst case: `2(n+1)/3 ≤ PC_R(Tree) ≤ 5n/6 + 1/6`
///   (Theorems 4.7 and 4.8).
///
/// # Examples
///
/// ```
/// use quorum_core::{ElementSet, QuorumSystem};
/// use quorum_systems::TreeQuorum;
///
/// let tree = TreeQuorum::new(2).unwrap(); // 7 elements
/// // Root + root of right subtree + a leaf under it.
/// assert!(tree.contains_quorum(&ElementSet::from_iter(7, [0, 2, 5])));
/// // All four leaves form a quorum (a quorum of each subtree).
/// assert!(tree.contains_quorum(&ElementSet::from_iter(7, [3, 4, 5, 6])));
/// // The root alone does not.
/// assert!(!tree.contains_quorum(&ElementSet::from_iter(7, [0])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TreeQuorum {
    height: usize,
    n: usize,
}

impl TreeQuorum {
    /// Creates the tree system over a complete binary tree of height `h ≥ 1`.
    ///
    /// Height 0 (a single node) is rejected because the resulting coterie is
    /// the trivial singleton and none of the paper's analysis applies to it.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] if `h == 0` or if the tree
    /// would have more than `2^26` nodes.
    pub fn new(height: usize) -> Result<Self, QuorumError> {
        if height == 0 {
            return Err(QuorumError::InvalidConstruction {
                reason: "tree quorum systems require height at least 1".into(),
            });
        }
        if height > MAX_HEIGHT {
            return Err(QuorumError::InvalidConstruction {
                reason: format!("tree of height {height} is too large to represent"),
            });
        }
        let n = (1usize << (height + 1)) - 1;
        Ok(TreeQuorum { height, n })
    }

    /// Creates the largest tree system with at most `max_elements` elements,
    /// capped at the largest representable height (25).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] if `max_elements < 3`.
    pub fn with_at_most(max_elements: usize) -> Result<Self, QuorumError> {
        if max_elements < 3 {
            return Err(QuorumError::InvalidConstruction {
                reason: format!("a tree system needs at least 3 elements, got {max_elements}"),
            });
        }
        let mut h = 1;
        while h < MAX_HEIGHT && (1usize << (h + 2)) - 1 <= max_elements {
            h += 1;
        }
        Self::new(h)
    }

    /// Creates the largest tree system with at most `max(size_hint, 3)`
    /// elements. Infallible counterpart of [`TreeQuorum::with_at_most`] for
    /// size-hinted sweeps and registries.
    pub fn with_size_hint(size_hint: usize) -> Self {
        Self::with_at_most(size_hint.max(3)).expect("hint >= 3 is always valid")
    }

    /// The height of the tree.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The root element (index 0).
    pub fn root(&self) -> ElementId {
        0
    }

    /// The left child of `v`, if `v` is not a leaf.
    pub fn left(&self, v: ElementId) -> Option<ElementId> {
        let c = 2 * v + 1;
        (c < self.n).then_some(c)
    }

    /// The right child of `v`, if `v` is not a leaf.
    pub fn right(&self, v: ElementId) -> Option<ElementId> {
        let c = 2 * v + 2;
        (c < self.n).then_some(c)
    }

    /// Whether `v` is a leaf.
    pub fn is_leaf(&self, v: ElementId) -> bool {
        2 * v + 1 >= self.n
    }

    /// The leaves of the tree, in index order.
    pub fn leaves(&self) -> Vec<ElementId> {
        ((self.n / 2)..self.n).collect()
    }

    /// The depth of node `v` (root has depth 0).
    pub fn depth(&self, v: ElementId) -> usize {
        let mut d = 0;
        let mut x = v + 1;
        while x > 1 {
            x /= 2;
            d += 1;
        }
        d
    }

    fn subtree_contains_quorum(&self, v: ElementId, set: &ElementSet) -> bool {
        if self.is_leaf(v) {
            return set.contains(v);
        }
        let l = 2 * v + 1;
        let r = 2 * v + 2;
        let left = self.subtree_contains_quorum(l, set);
        let right = self.subtree_contains_quorum(r, set);
        (set.contains(v) && (left || right)) || (left && right)
    }

    /// The quorum recursion evaluated over packed trial lanes: each gate is
    /// three word operations per lane word instead of three boolean ones, and
    /// at block width `W` one traversal advances `W·64` trials.
    fn subtree_quorum_lane_block<L: Lanes>(&self, v: ElementId, lanes: &[u64]) -> L {
        if self.is_leaf(v) {
            return L::load(&lanes[v * L::WORDS..]);
        }
        let left = self.subtree_quorum_lane_block::<L>(2 * v + 1, lanes);
        let right = self.subtree_quorum_lane_block::<L>(2 * v + 2, lanes);
        L::load(&lanes[v * L::WORDS..])
            .and(left.or(right))
            .or(left.and(right))
    }

    fn green_lane_block_impl<L: Lanes>(&self, lanes: &[u64]) -> L {
        self.subtree_quorum_lane_block::<L>(0, lanes)
    }
}

impl QuorumSystem for TreeQuorum {
    fn name(&self) -> String {
        format!("Tree(h={},n={})", self.height, self.n)
    }

    fn universe_size(&self) -> usize {
        self.n
    }

    fn contains_quorum(&self, set: &ElementSet) -> bool {
        self.subtree_contains_quorum(0, set)
    }

    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        dispatch_lane_block!(self, lanes, width, out)
    }

    /// The composition evaluator on the heap layout: internal node `v` is
    /// 2-of-3 gate `internal − 1 − v` over `{v, L, R}`, so children precede
    /// parents and the root is last. An internal element feeds its own
    /// gate, a leaf its parent's.
    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        let internal = self.n / 2;
        let gate = |v: usize| (internal - 1 - v) as u32;
        let gates = (0..internal)
            .rev()
            .map(|v| (if v == 0 { ROOT } else { gate((v - 1) / 2) }, 2));
        let feeds = |e: usize| gate(if e < internal { e } else { (e - 1) / 2 });
        Some(Box::new(CompositionDeltaEval::from_index(
            gates,
            (0..=self.n as u32).collect(),
            (0..self.n).map(feeds).collect(),
        )))
    }

    fn min_quorum_size(&self) -> usize {
        // A root-to-leaf path.
        self.height + 1
    }

    fn max_quorum_size(&self) -> usize {
        // All the leaves.
        self.n.div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::{CharacteristicFunction, Coloring};

    #[test]
    fn construction_and_sizes() {
        let t = TreeQuorum::new(1).unwrap();
        assert_eq!(t.universe_size(), 3);
        let t = TreeQuorum::new(3).unwrap();
        assert_eq!(t.universe_size(), 15);
        assert_eq!(t.height(), 3);
        assert_eq!(t.min_quorum_size(), 4);
        assert_eq!(t.max_quorum_size(), 8);
        assert!(matches!(
            TreeQuorum::new(0),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            TreeQuorum::new(40),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn with_at_most_picks_largest_fitting_tree() {
        assert_eq!(TreeQuorum::with_at_most(3).unwrap().universe_size(), 3);
        assert_eq!(TreeQuorum::with_at_most(6).unwrap().universe_size(), 3);
        assert_eq!(TreeQuorum::with_at_most(7).unwrap().universe_size(), 7);
        assert_eq!(TreeQuorum::with_at_most(100).unwrap().universe_size(), 63);
        assert!(TreeQuorum::with_at_most(2).is_err());
        // The search stops at the largest representable height.
        assert_eq!(
            TreeQuorum::with_at_most((1 << 26) - 2).unwrap().height(),
            24
        );
        for max in [(1 << 26) - 1, 1 << 27, usize::MAX] {
            assert_eq!(TreeQuorum::with_at_most(max).unwrap().height(), 25);
            assert_eq!(TreeQuorum::with_size_hint(max).height(), 25);
        }
    }

    #[test]
    fn navigation() {
        let t = TreeQuorum::new(2).unwrap();
        assert_eq!(t.root(), 0);
        assert_eq!(t.left(0), Some(1));
        assert_eq!(t.right(0), Some(2));
        assert_eq!(t.left(2), Some(5));
        assert_eq!(t.left(3), None);
        assert!(t.is_leaf(3));
        assert!(t.is_leaf(6));
        assert!(!t.is_leaf(0));
        assert_eq!(t.leaves(), vec![3, 4, 5, 6]);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(1), 1);
        assert_eq!(t.depth(6), 2);
    }

    #[test]
    fn quorum_recursion_examples() {
        let t = TreeQuorum::new(2).unwrap();
        // Root-to-leaf path.
        assert!(t.contains_quorum(&ElementSet::from_iter(7, [0, 1, 3])));
        // Root + right subtree quorum (its two leaves).
        assert!(t.contains_quorum(&ElementSet::from_iter(7, [0, 5, 6])));
        // Quorum of each subtree without the root.
        assert!(t.contains_quorum(&ElementSet::from_iter(7, [1, 3, 2, 6])));
        assert!(t.contains_quorum(&ElementSet::from_iter(7, [3, 4, 5, 6])));
        // Not quorums.
        assert!(!t.contains_quorum(&ElementSet::from_iter(7, [0])));
        assert!(!t.contains_quorum(&ElementSet::from_iter(7, [0, 1])));
        assert!(!t.contains_quorum(&ElementSet::from_iter(7, [1, 3, 4])));
        assert!(!t.contains_quorum(&ElementSet::from_iter(7, [3, 4, 5])));
    }

    #[test]
    fn minimum_quorum_is_a_path_maximum_is_the_leaves() {
        let t = TreeQuorum::new(2).unwrap();
        let quorums = t.enumerate_quorums().unwrap();
        let min = quorums.iter().map(ElementSet::len).min().unwrap();
        let max = quorums.iter().map(ElementSet::len).max().unwrap();
        assert_eq!(min, t.min_quorum_size());
        assert_eq!(max, t.max_quorum_size());
        // The set of all leaves is a minimal quorum.
        assert!(quorums.contains(&ElementSet::from_iter(7, [3, 4, 5, 6])));
        // A root-to-leaf path is a minimal quorum.
        assert!(quorums.contains(&ElementSet::from_iter(7, [0, 1, 3])));
    }

    #[test]
    fn tree_is_a_nondominated_coterie() {
        for h in [1, 2, 3] {
            let t = TreeQuorum::new(h).unwrap();
            let f = CharacteristicFunction::new(&t);
            assert!(f.is_monotone().unwrap(), "Tree(h={h}) must be monotone");
            if t.universe_size() <= 24 {
                assert!(f.is_self_dual().unwrap(), "Tree(h={h}) must be ND");
            }
        }
    }

    #[test]
    fn coloring_verdict_is_exclusive() {
        let t = TreeQuorum::new(2).unwrap();
        for coloring in Coloring::enumerate_all(7) {
            assert_ne!(t.has_green_quorum(&coloring), t.has_red_quorum(&coloring));
        }
    }

    #[test]
    fn paper_figure_2_example() {
        // Fig. 2 shades a quorum consisting of the root, one internal node and
        // a leaf below it — i.e. a root-to-leaf path for h=2; verify paths of
        // the height-3 tree as quorums too.
        let t = TreeQuorum::new(3).unwrap();
        assert!(t.contains_quorum(&ElementSet::from_iter(15, [0, 2, 6, 14])));
        assert!(!t.contains_quorum(&ElementSet::from_iter(15, [0, 2, 6])));
    }

    #[test]
    fn large_tree_evaluation_is_fast_and_correct() {
        let t = TreeQuorum::new(15).unwrap(); // 65535 elements
        assert_eq!(t.universe_size(), 65_535);
        // A root-to-leaf path (always go left).
        let mut path = Vec::new();
        let mut v = 0;
        loop {
            path.push(v);
            match t.left(v) {
                Some(l) => v = l,
                None => break,
            }
        }
        assert_eq!(path.len(), 16);
        let set = ElementSet::from_iter(t.universe_size(), path);
        assert!(t.contains_quorum(&set));
        assert!(!t.contains_quorum(&ElementSet::empty(t.universe_size())));
    }
}
