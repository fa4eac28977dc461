//! The [`QuorumSystem`] trait: the interface every quorum-system construction
//! implements.

use std::sync::Arc;

use crate::delta::DeltaEvaluator;
use crate::{Coloring, ElementSet};

/// A quorum system over the universe `{0, …, n−1}`, exposed through its
/// monotone characteristic boolean function.
///
/// Implementations answer the question "does this set of elements contain a
/// quorum?" ([`QuorumSystem::contains_quorum`]) rather than enumerating
/// quorums, because systems such as Majority have exponentially many quorums.
/// The trait only evaluates; on small universes [`crate::minimal_quorums`]
/// lists the quorums of any implementation through this oracle, and
/// `Coterie::new(n, minimal_quorums(&system)?)` materialises it.
///
/// All the constructions studied by the paper (Majority, Wheel, Crumbling
/// Walls, Triang, Tree, HQS) are nondominated coteries; implementations of
/// this trait are not required to be nondominated, but the witness-probing
/// machinery in `quorum-probe` relies on nondomination for red witnesses to be
/// meaningful (Lemma 2.1 of the paper).
pub trait QuorumSystem {
    /// Short human-readable name used in reports, e.g. `"Maj(21)"`.
    fn name(&self) -> String;

    /// Number of elements `n` in the universe.
    fn universe_size(&self) -> usize;

    /// Evaluates the monotone characteristic function: does `set` contain
    /// (a superset of) some quorum?
    fn contains_quorum(&self, set: &ElementSet) -> bool;

    /// Size of a smallest quorum (the paper's `c` for `c`-uniform systems).
    fn min_quorum_size(&self) -> usize;

    /// Size of a largest quorum (the paper's `m`).
    fn max_quorum_size(&self) -> usize;

    /// Whether the given coloring admits a fully green (live) quorum.
    fn has_green_quorum(&self, coloring: &Coloring) -> bool {
        self.contains_quorum(&coloring.green_set())
    }

    /// Whether the given coloring admits a fully red (dead) quorum.
    fn has_red_quorum(&self, coloring: &Coloring) -> bool {
        self.contains_quorum(&coloring.red_set())
    }

    /// Word-parallel evaluation of the characteristic function over
    /// `width · 64` trials per circuit traversal.
    ///
    /// Each lane word carries 64 independent trials (bit `t` set = green in
    /// trial `t`). The lanes are laid out element-major — `lanes[e * width +
    /// w]` is trial word `w` of element `e`, so each element's block is one
    /// contiguous `[u64; width]` load. On success the `width` result words
    /// are written to `out` (bit `t` of `out[w]` = trial `w·64+t` contains a
    /// green quorum) and `true` is returned. Implementations reduce quorum
    /// checks to AND/OR/threshold word operations over the lanes (see
    /// [`crate::lanes`]), so the per-trial cost drops by up to 64×; width 1
    /// is the single-word case.
    ///
    /// Implementations dispatch the widths in [`crate::lanes::LANE_WIDTHS`]
    /// to monomorphised [`crate::lanes::LaneBlock`] evaluators and return
    /// `false` (out unspecified) for any other width. The default has no
    /// lane evaluator at all and always returns `false`; batched estimators
    /// then fall back to transposing the block and calling
    /// [`QuorumSystem::contains_quorum`] per trial. The method stays
    /// object-safe (runtime `width`, no generics) so `dyn QuorumSystem`
    /// callers get the wide path too.
    ///
    /// `lanes.len()` must equal `universe_size() · width` and `out.len()` must
    /// equal `width`.
    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        let _ = (lanes, width, out);
        false
    }

    /// An incremental evaluator of the green-quorum predicate, when the
    /// family has one: a stateful [`DeltaEvaluator`] that caches per-family
    /// structure (green counters, row tallies, circuit gate values) so that
    /// re-evaluation after a small [`crate::ColoringDelta`] costs time
    /// proportional to the flips, not the universe.
    ///
    /// Returns `None` when the construction has no incremental evaluator;
    /// [`crate::delta_evaluator_for`] then falls back to the generic
    /// [`crate::RescanDeltaEvaluator`].
    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        None
    }
}

/// A dynamically typed, shareable quorum system.
///
/// Useful when heterogeneous systems are stored in one collection (e.g. the
/// benchmark sweeps over Majority, Tree and HQS instances together).
pub type DynQuorumSystem = Arc<dyn QuorumSystem + Send + Sync>;

impl<T: QuorumSystem + ?Sized> QuorumSystem for &T {
    fn name(&self) -> String {
        (**self).name()
    }
    fn universe_size(&self) -> usize {
        (**self).universe_size()
    }
    fn contains_quorum(&self, set: &ElementSet) -> bool {
        (**self).contains_quorum(set)
    }
    fn min_quorum_size(&self) -> usize {
        (**self).min_quorum_size()
    }
    fn max_quorum_size(&self) -> usize {
        (**self).max_quorum_size()
    }
    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        (**self).green_quorum_lane_block(lanes, width, out)
    }
    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        (**self).delta_evaluator()
    }
}

impl<T: QuorumSystem + ?Sized> QuorumSystem for Arc<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn universe_size(&self) -> usize {
        (**self).universe_size()
    }
    fn contains_quorum(&self, set: &ElementSet) -> bool {
        (**self).contains_quorum(set)
    }
    fn min_quorum_size(&self) -> usize {
        (**self).min_quorum_size()
    }
    fn max_quorum_size(&self) -> usize {
        (**self).max_quorum_size()
    }
    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        (**self).green_quorum_lane_block(lanes, width, out)
    }
    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        (**self).delta_evaluator()
    }
}

impl<T: QuorumSystem + ?Sized> QuorumSystem for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn universe_size(&self) -> usize {
        (**self).universe_size()
    }
    fn contains_quorum(&self, set: &ElementSet) -> bool {
        (**self).contains_quorum(set)
    }
    fn min_quorum_size(&self) -> usize {
        (**self).min_quorum_size()
    }
    fn max_quorum_size(&self) -> usize {
        (**self).max_quorum_size()
    }
    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        (**self).green_quorum_lane_block(lanes, width, out)
    }
    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        (**self).delta_evaluator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Color;

    /// A tiny hand-rolled system used to exercise the trait defaults:
    /// the 3-element majority.
    struct TestMaj3;

    impl QuorumSystem for TestMaj3 {
        fn name(&self) -> String {
            "TestMaj3".to_string()
        }
        fn universe_size(&self) -> usize {
            3
        }
        fn contains_quorum(&self, set: &ElementSet) -> bool {
            set.len() >= 2
        }
        fn min_quorum_size(&self) -> usize {
            2
        }
        fn max_quorum_size(&self) -> usize {
            2
        }
    }

    #[test]
    fn green_and_red_quorum_checks() {
        let coloring = Coloring::from_colors(vec![Color::Green, Color::Green, Color::Red]);
        assert!(TestMaj3.has_green_quorum(&coloring));
        assert!(!TestMaj3.has_red_quorum(&coloring));
        let coloring = Coloring::all_red(3);
        assert!(!TestMaj3.has_green_quorum(&coloring));
        assert!(TestMaj3.has_red_quorum(&coloring));
    }

    #[test]
    fn blanket_impls_delegate() {
        let by_ref: &dyn QuorumSystem = &TestMaj3;
        assert_eq!(by_ref.universe_size(), 3);
        let arc: DynQuorumSystem = Arc::new(TestMaj3);
        assert_eq!(arc.name(), "TestMaj3");
        assert_eq!(arc.min_quorum_size(), 2);
        let boxed: Box<dyn QuorumSystem + Send + Sync> = Box::new(TestMaj3);
        assert_eq!(boxed.max_quorum_size(), 2);
        assert!(boxed.contains_quorum(&ElementSet::from_iter(3, [0, 1])));
    }
}
