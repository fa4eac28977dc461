//! The [`QuorumSystem`] trait: the interface every quorum-system construction
//! implements.

use std::sync::Arc;

use crate::delta::DeltaEvaluator;
use crate::{Coloring, Coterie, ElementSet, QuorumError};

/// A quorum system over the universe `{0, …, n−1}`, exposed through its
/// monotone characteristic boolean function.
///
/// Implementations answer the question "does this set of elements contain a
/// quorum?" ([`QuorumSystem::contains_quorum`]) rather than enumerating
/// quorums, because systems such as Majority have exponentially many quorums.
/// Explicit enumeration is still available via
/// [`QuorumSystem::enumerate_quorums`] (with a brute-force default suitable for
/// small universes) and [`QuorumSystem::to_coterie`].
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

    /// Enumerates all minimal quorums (the minterms of the characteristic
    /// function).
    ///
    /// The default implementation brute-forces over all `2^n` subsets and is
    /// therefore restricted to universes of at most 24 elements; constructions
    /// with structure should override it.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::UniverseTooLarge`] if the default implementation
    /// is invoked on a universe with more than 24 elements.
    fn enumerate_quorums(&self) -> Result<Vec<ElementSet>, QuorumError> {
        let n = self.universe_size();
        if n > 24 {
            return Err(QuorumError::UniverseTooLarge {
                actual: n,
                limit: 24,
            });
        }
        let mut quorums = Vec::new();
        for mask in 0u64..(1u64 << n) {
            let set = ElementSet::from_mask(n, mask);
            if !self.contains_quorum(&set) {
                continue;
            }
            // Minimal iff removing any single element breaks the property.
            let minimal = set.iter().all(|e| !self.contains_quorum(&set.without(e)));
            if minimal {
                quorums.push(set);
            }
        }
        Ok(quorums)
    }

    /// Materialises the system as an explicit [`Coterie`].
    ///
    /// # Errors
    ///
    /// Propagates errors from [`QuorumSystem::enumerate_quorums`] and from
    /// coterie validation (e.g. if an implementation's characteristic function
    /// is not actually an intersecting antichain).
    fn to_coterie(&self) -> Result<Coterie, QuorumError> {
        Coterie::new(self.universe_size(), self.enumerate_quorums()?)
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
    fn enumerate_quorums(&self) -> Result<Vec<ElementSet>, QuorumError> {
        (**self).enumerate_quorums()
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
    fn enumerate_quorums(&self) -> Result<Vec<ElementSet>, QuorumError> {
        (**self).enumerate_quorums()
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
    fn enumerate_quorums(&self) -> Result<Vec<ElementSet>, QuorumError> {
        (**self).enumerate_quorums()
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
    fn default_enumeration_finds_all_pairs() {
        let quorums = TestMaj3.enumerate_quorums().unwrap();
        assert_eq!(quorums.len(), 3);
        for q in &quorums {
            assert_eq!(q.len(), 2);
        }
    }

    #[test]
    fn to_coterie_validates() {
        let coterie = TestMaj3.to_coterie().unwrap();
        assert_eq!(coterie.quorums().len(), 3);
        assert!(coterie.is_nondominated());
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

    struct Huge;
    impl QuorumSystem for Huge {
        fn name(&self) -> String {
            "Huge".into()
        }
        fn universe_size(&self) -> usize {
            100
        }
        fn contains_quorum(&self, set: &ElementSet) -> bool {
            set.len() > 50
        }
        fn min_quorum_size(&self) -> usize {
            51
        }
        fn max_quorum_size(&self) -> usize {
            51
        }
    }

    #[test]
    fn default_enumeration_rejects_large_universe() {
        let err = Huge.enumerate_quorums().unwrap_err();
        assert!(matches!(
            err,
            QuorumError::UniverseTooLarge {
                actual: 100,
                limit: 24
            }
        ));
    }
}
