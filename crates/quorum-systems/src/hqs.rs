//! The Hierarchical Quorum System (HQS) of Kumar.

use quorum_core::lanes::{majority3_lanes, Lanes};
use quorum_core::{DeltaEvaluator, ElementId, ElementSet, QuorumError, QuorumSystem};

use crate::composition::{CompositionDeltaEval, ROOT};
use crate::dispatch_lane_block;

/// Largest representable height: `3^16` leaves.
const MAX_HEIGHT: usize = 16;

/// Kumar's Hierarchical Quorum System over `n = 3^h` elements.
///
/// The elements are the leaves of a complete ternary tree of height `h`; every
/// internal node is a 2-of-3 majority gate.  A set of elements contains a
/// quorum exactly when assigning 1 to its elements (and 0 elsewhere) makes the
/// root evaluate to 1.  The quorums are the minterms of this function; they
/// all have size `2^h = n^{log_3 2} ≈ n^{0.63}`.
///
/// Probe-complexity results from the paper:
///
/// * probabilistic model at `p = 1/2`: `PPC(HQS) = Θ(n^{log_3 2.5}) = Θ(n^{0.834})`
///   and algorithm `Probe_HQS` is optimal (Theorems 3.8 and 3.9);
/// * probabilistic model at `p ≠ 1/2`: `O(n^{log_3 2}) = O(n^{0.63})`;
/// * randomized worst case: between `Ω(n^{0.834})` and `O(n^{0.887})`
///   (Corollary 4.13 and Theorem 4.10).
///
/// # Examples
///
/// ```
/// use quorum_core::{ElementSet, QuorumSystem};
/// use quorum_systems::Hqs;
///
/// let hqs = Hqs::new(1).unwrap(); // 3 leaves, 2-of-3 majority
/// assert_eq!(hqs.universe_size(), 3);
/// assert!(hqs.contains_quorum(&ElementSet::from_iter(3, [0, 2])));
/// assert!(!hqs.contains_quorum(&ElementSet::from_iter(3, [1])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hqs {
    height: usize,
    n: usize,
}

impl Hqs {
    /// Creates an HQS of height `h ≥ 1` (`3^h` leaves).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] if `h == 0` or the leaf
    /// count would exceed `3^16`.
    pub fn new(height: usize) -> Result<Self, QuorumError> {
        if height == 0 {
            return Err(QuorumError::InvalidConstruction {
                reason: "HQS requires height at least 1".into(),
            });
        }
        if height > MAX_HEIGHT {
            return Err(QuorumError::InvalidConstruction {
                reason: format!("HQS of height {height} is too large to represent"),
            });
        }
        Ok(Hqs {
            height,
            n: 3usize.pow(height as u32),
        })
    }

    /// Creates the largest HQS with at most `max_elements` leaves, capped at
    /// the largest representable height (16).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] if `max_elements < 3`.
    pub fn with_at_most(max_elements: usize) -> Result<Self, QuorumError> {
        if max_elements < 3 {
            return Err(QuorumError::InvalidConstruction {
                reason: format!("an HQS needs at least 3 elements, got {max_elements}"),
            });
        }
        let mut h = 1;
        while h < MAX_HEIGHT && 3usize.pow(h as u32 + 1) <= max_elements {
            h += 1;
        }
        Self::new(h)
    }

    /// Creates the largest HQS with at most `max(size_hint, 3)` leaves.
    /// Infallible counterpart of [`Hqs::with_at_most`] for size-hinted
    /// sweeps and registries.
    pub fn with_size_hint(size_hint: usize) -> Self {
        Self::with_at_most(size_hint.max(3)).expect("hint >= 3 is always valid")
    }

    /// The height of the ternary computation tree.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The uniform quorum size `2^h`.
    pub fn quorum_size(&self) -> usize {
        1usize << self.height
    }

    /// The leaves covered by the subtree of height `sub_height` whose leftmost
    /// leaf is `start`: the half-open range `start .. start + 3^sub_height`.
    ///
    /// Leaves are indexed left to right, so the subtree rooted at the `c`-th
    /// child (0, 1 or 2) of a node covering `start .. start + 3^k` covers
    /// `start + c·3^{k−1} .. start + (c+1)·3^{k−1}`.
    pub fn subtree_leaf_range(
        &self,
        start: ElementId,
        sub_height: usize,
    ) -> std::ops::Range<ElementId> {
        start..start + 3usize.pow(sub_height as u32)
    }

    /// Evaluates the 2-of-3 majority tree on an arbitrary leaf predicate.
    ///
    /// `leaf_value(i)` supplies the boolean value of leaf `i`; the return value
    /// is the value computed at the root.  This is the workhorse shared by
    /// [`QuorumSystem::contains_quorum`] and the probing algorithms.
    pub fn evaluate_with<F: FnMut(ElementId) -> bool>(&self, mut leaf_value: F) -> bool {
        self.eval_node(0, self.height, &mut leaf_value)
    }

    fn eval_node<F: FnMut(ElementId) -> bool>(
        &self,
        start: ElementId,
        sub_height: usize,
        leaf_value: &mut F,
    ) -> bool {
        if sub_height == 0 {
            return leaf_value(start);
        }
        let third = 3usize.pow(sub_height as u32 - 1);
        let a = self.eval_node(start, sub_height - 1, leaf_value);
        let b = self.eval_node(start + third, sub_height - 1, leaf_value);
        if a == b {
            // Third child cannot change a 2-of-3 majority.
            return a;
        }
        self.eval_node(start + 2 * third, sub_height - 1, leaf_value)
    }

    /// The 2-of-3 recursion over packed trial lanes: every gate becomes one
    /// [`quorum_core::lanes::majority3_lanes`] expression, advancing `W·64`
    /// trials per traversal at block width `W`.
    fn eval_node_lane_block<L: Lanes>(
        &self,
        start: ElementId,
        sub_height: usize,
        lanes: &[u64],
    ) -> L {
        if sub_height == 0 {
            return L::load(&lanes[start * L::WORDS..]);
        }
        let third = 3usize.pow(sub_height as u32 - 1);
        let a = self.eval_node_lane_block::<L>(start, sub_height - 1, lanes);
        let b = self.eval_node_lane_block::<L>(start + third, sub_height - 1, lanes);
        let c = self.eval_node_lane_block::<L>(start + 2 * third, sub_height - 1, lanes);
        majority3_lanes(a, b, c)
    }

    fn green_lane_block_impl<L: Lanes>(&self, lanes: &[u64]) -> L {
        self.eval_node_lane_block::<L>(0, self.height, lanes)
    }
}

impl QuorumSystem for Hqs {
    fn name(&self) -> String {
        format!("HQS(h={},n={})", self.height, self.n)
    }

    fn universe_size(&self) -> usize {
        self.n
    }

    fn contains_quorum(&self, set: &ElementSet) -> bool {
        self.evaluate_with(|leaf| set.contains(leaf))
    }

    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        dispatch_lane_block!(self, lanes, width, out)
    }

    /// The composition evaluator on the ternary heap (node `k` has children
    /// `3k+1 ..= 3k+3`, leaf `j` sits at `internal + j`): internal node `k`
    /// is 2-of-3 gate `internal − 1 − k`, so children precede parents and
    /// the root is last. A leaf feeds its parent's gate.
    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        let internal = (self.n - 1) / 2;
        let gate = |k: usize| (internal - 1 - k) as u32;
        let gates = (0..internal)
            .rev()
            .map(|k| (if k == 0 { ROOT } else { gate((k - 1) / 3) }, 2));
        Some(Box::new(CompositionDeltaEval::from_index(
            gates,
            (0..=self.n as u32).collect(),
            (0..self.n).map(|j| gate((internal + j - 1) / 3)).collect(),
        )))
    }

    fn min_quorum_size(&self) -> usize {
        self.quorum_size()
    }

    fn max_quorum_size(&self) -> usize {
        self.quorum_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::{CharacteristicFunction, Coloring};

    #[test]
    fn construction() {
        assert_eq!(Hqs::new(1).unwrap().universe_size(), 3);
        assert_eq!(Hqs::new(2).unwrap().universe_size(), 9);
        assert_eq!(Hqs::new(3).unwrap().universe_size(), 27);
        assert!(matches!(
            Hqs::new(0),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Hqs::new(17),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn with_at_most_picks_largest_fitting_height() {
        assert_eq!(Hqs::with_at_most(3).unwrap().height(), 1);
        assert_eq!(Hqs::with_at_most(8).unwrap().height(), 1);
        assert_eq!(Hqs::with_at_most(9).unwrap().height(), 2);
        assert_eq!(Hqs::with_at_most(100).unwrap().height(), 4);
        assert!(Hqs::with_at_most(2).is_err());
        // The search stops at the largest representable height.
        assert_eq!(Hqs::with_at_most(3usize.pow(16) - 1).unwrap().height(), 15);
        for max in [3usize.pow(16), 3usize.pow(17), usize::MAX] {
            assert_eq!(Hqs::with_at_most(max).unwrap().height(), 16);
            assert_eq!(Hqs::with_size_hint(max).height(), 16);
        }
    }

    #[test]
    fn quorum_size_is_two_to_the_height() {
        assert_eq!(Hqs::new(1).unwrap().quorum_size(), 2);
        assert_eq!(Hqs::new(2).unwrap().quorum_size(), 4);
        assert_eq!(Hqs::new(4).unwrap().quorum_size(), 16);
    }

    #[test]
    fn height_one_is_two_of_three_majority() {
        let hqs = Hqs::new(1).unwrap();
        assert!(hqs.contains_quorum(&ElementSet::from_iter(3, [0, 1])));
        assert!(hqs.contains_quorum(&ElementSet::from_iter(3, [1, 2])));
        assert!(hqs.contains_quorum(&ElementSet::from_iter(3, [0, 2])));
        assert!(hqs.contains_quorum(&ElementSet::full(3)));
        assert!(!hqs.contains_quorum(&ElementSet::from_iter(3, [0])));
        assert!(!hqs.contains_quorum(&ElementSet::empty(3)));
    }

    #[test]
    fn paper_figure_3_example() {
        // Fig. 3 of the paper shades the quorum {1,2,5,6} (1-based) of the
        // height-2 HQS: zero-based this is {0,1,4,5} — leaves 0,1 make the
        // first gate true, leaves 4,5 make the second gate true, so the root's
        // 2-of-3 majority is satisfied.
        let hqs = Hqs::new(2).unwrap();
        assert!(hqs.contains_quorum(&ElementSet::from_iter(9, [0, 1, 4, 5])));
        // Removing any single element breaks it (it is a minterm).
        for e in [0, 1, 4, 5] {
            assert!(!hqs.contains_quorum(&ElementSet::from_iter(
                9,
                [0, 1, 4, 5].into_iter().filter(|&x| x != e)
            )));
        }
    }

    #[test]
    fn all_minterms_have_uniform_size() {
        let hqs = Hqs::new(2).unwrap();
        let quorums = hqs.enumerate_quorums().unwrap();
        assert!(!quorums.is_empty());
        assert!(quorums.iter().all(|q| q.len() == hqs.quorum_size()));
        // 2-of-3 at the root, each child contributing a 2-of-3 of leaves:
        // 3 choices of child pair × (3 choices of leaf pair)^2 = 27 minterms.
        assert_eq!(quorums.len(), 27);
    }

    #[test]
    fn hqs_is_a_nondominated_coterie() {
        for h in [1, 2] {
            let hqs = Hqs::new(h).unwrap();
            let f = CharacteristicFunction::new(&hqs);
            assert!(f.is_monotone().unwrap(), "HQS(h={h}) must be monotone");
            assert!(f.is_self_dual().unwrap(), "HQS(h={h}) must be ND");
        }
    }

    #[test]
    fn coloring_verdict_is_exclusive() {
        let hqs = Hqs::new(2).unwrap();
        for coloring in Coloring::enumerate_all(9) {
            assert_ne!(
                hqs.has_green_quorum(&coloring),
                hqs.has_red_quorum(&coloring)
            );
        }
    }

    #[test]
    fn evaluate_with_counts_leaf_queries_lazily() {
        // When the first two children agree, the third subtree is not queried.
        let hqs = Hqs::new(1).unwrap();
        let mut queried = Vec::new();
        let value = hqs.evaluate_with(|leaf| {
            queried.push(leaf);
            true
        });
        assert!(value);
        assert_eq!(queried, vec![0, 1]);
    }

    #[test]
    fn subtree_leaf_ranges() {
        let hqs = Hqs::new(2).unwrap();
        assert_eq!(hqs.subtree_leaf_range(0, 2), 0..9);
        assert_eq!(hqs.subtree_leaf_range(0, 1), 0..3);
        assert_eq!(hqs.subtree_leaf_range(3, 1), 3..6);
        assert_eq!(hqs.subtree_leaf_range(6, 1), 6..9);
        assert_eq!(hqs.subtree_leaf_range(4, 0), 4..5);
    }

    #[test]
    fn large_hqs_evaluation() {
        let hqs = Hqs::new(9).unwrap(); // 19683 leaves
        assert_eq!(hqs.universe_size(), 19_683);
        assert!(hqs.contains_quorum(&ElementSet::full(hqs.universe_size())));
        assert!(!hqs.contains_quorum(&ElementSet::empty(hqs.universe_size())));
    }
}
