//! The Majority quorum system (Thomas' voting scheme).

use quorum_core::lanes::{count_at_least_lanes, Lanes};
use quorum_core::{Coloring, ColoringDelta, DeltaEvaluator, ElementSet, QuorumError, QuorumSystem};

use crate::{dispatch_lane_block, too_large, MAX_ELEMENTS};

/// Incremental majority evaluation: a cached green count, adjusted per delta
/// by the popcounts of each dirty word split into red-ward and green-ward
/// flips — O(dirty words) per update regardless of `n`.
#[derive(Debug, Clone)]
struct MajorityDeltaEval {
    n: usize,
    threshold: usize,
    green: usize,
    verdict: bool,
    primed: bool,
}

impl DeltaEvaluator for MajorityDeltaEval {
    fn reset(&mut self, coloring: &Coloring) -> bool {
        assert_eq!(coloring.universe_size(), self.n, "universe mismatch");
        self.green = coloring.green_count();
        self.verdict = self.green >= self.threshold;
        self.primed = true;
        self.verdict
    }

    fn update(&mut self, post: &Coloring, delta: &ColoringDelta) -> bool {
        assert!(self.primed, "update before reset");
        assert_eq!(post.universe_size(), self.n, "universe mismatch");
        let words = post.red_words();
        for &(w, mask) in delta.entries() {
            let red_after = words[w as usize];
            // A flipped bit set in the post words turned red, a clear one
            // turned green; both were the opposite color before the delta.
            let lost = (mask & red_after).count_ones() as usize;
            let gained = (mask & !red_after).count_ones() as usize;
            self.green = self.green + gained - lost;
        }
        self.verdict = self.green >= self.threshold;
        self.verdict
    }

    fn verdict(&self) -> bool {
        assert!(self.primed, "verdict before reset");
        self.verdict
    }
}

/// The Majority coterie `Maj` over an odd universe of `n` elements: the
/// quorums are all subsets of size `(n+1)/2`.
///
/// Majority is the canonical nondominated coterie.  Its probe complexity is
/// `n` in the deterministic worst case (it is evasive), `n − (n−1)/(n+3)` with
/// randomization (Theorem 4.2), and `n − Θ(√n)` in the probabilistic model
/// with `p = 1/2` (Proposition 3.2).
///
/// # Examples
///
/// ```
/// use quorum_core::{ElementSet, QuorumSystem};
/// use quorum_systems::Majority;
///
/// let maj = Majority::new(7).unwrap();
/// assert_eq!(maj.universe_size(), 7);
/// assert_eq!(maj.quorum_size(), 4);
/// assert!(maj.contains_quorum(&ElementSet::from_iter(7, [0, 1, 2, 3])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Majority {
    n: usize,
}

impl Majority {
    /// Creates the majority system over `n` elements.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] unless `n` is odd and at
    /// least 3 (the paper defines Maj for odd `n`; even `n` would break the
    /// intersection property for simple majorities), or if `n` exceeds 2²⁶.
    pub fn new(n: usize) -> Result<Self, QuorumError> {
        if n < 3 || n % 2 == 0 {
            return Err(QuorumError::InvalidConstruction {
                reason: format!(
                    "majority requires an odd universe of at least 3 elements, got {n}"
                ),
            });
        }
        if n > MAX_ELEMENTS {
            return Err(too_large(format_args!("majority over {n} elements")));
        }
        Ok(Majority { n })
    }

    /// Creates the majority system whose universe is closest to `size_hint`
    /// from above: `size_hint` rounded up to an odd number, at least 3 and
    /// at most 2²⁶ − 1.
    ///
    /// Infallible counterpart of [`Majority::new`] used by sweeps and
    /// registries over heterogeneous families from a single size knob.
    pub fn with_size_hint(size_hint: usize) -> Self {
        Majority::new(size_hint.clamp(3, MAX_ELEMENTS - 1) | 1)
            .expect("odd n in [3, 2^26) is always valid")
    }

    /// The uniform quorum size `(n+1)/2`.
    pub fn quorum_size(&self) -> usize {
        self.n.div_ceil(2)
    }

    /// The threshold check at any lane width: the carry-save counter over
    /// element-major blocks advances `W·64` trials per pass.
    fn green_lane_block_impl<L: Lanes>(&self, lanes: &[u64]) -> L {
        count_at_least_lanes(
            (0..self.n).map(|e| L::load(&lanes[e * L::WORDS..])),
            self.quorum_size(),
        )
    }
}

impl QuorumSystem for Majority {
    fn name(&self) -> String {
        format!("Maj(n={})", self.n)
    }

    fn universe_size(&self) -> usize {
        self.n
    }

    fn contains_quorum(&self, set: &ElementSet) -> bool {
        set.len() >= self.quorum_size()
    }

    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        dispatch_lane_block!(self, lanes, width, out)
    }

    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        Some(Box::new(MajorityDeltaEval {
            n: self.n,
            threshold: self.quorum_size(),
            green: 0,
            verdict: false,
            primed: false,
        }))
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
    use proptest::prelude::*;
    use quorum_core::{minimal_quorums, Coloring, Coterie};

    #[test]
    fn universe_is_capped_at_two_to_the_26() {
        assert!(Majority::new(MAX_ELEMENTS - 1).is_ok());
        for n in [MAX_ELEMENTS + 1, usize::MAX] {
            assert!(matches!(
                Majority::new(n),
                Err(QuorumError::InvalidConstruction { .. })
            ));
        }
        for hint in [MAX_ELEMENTS, MAX_ELEMENTS + 1, usize::MAX] {
            assert_eq!(
                Majority::with_size_hint(hint).universe_size(),
                MAX_ELEMENTS - 1
            );
        }
        assert_eq!(Majority::with_size_hint(0).universe_size(), 3);
        assert_eq!(Majority::with_size_hint(8).universe_size(), 9);
        assert_eq!(Majority::with_size_hint(9).universe_size(), 9);
    }

    #[test]
    fn construction_validates_parity_and_size() {
        assert!(Majority::new(3).is_ok());
        assert!(Majority::new(21).is_ok());
        assert!(matches!(
            Majority::new(4),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Majority::new(1),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Majority::new(0),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn quorum_size_is_strict_majority() {
        assert_eq!(Majority::new(3).unwrap().quorum_size(), 2);
        assert_eq!(Majority::new(7).unwrap().quorum_size(), 4);
        assert_eq!(Majority::new(101).unwrap().quorum_size(), 51);
    }

    #[test]
    fn characteristic_function_thresholds_on_size() {
        let maj = Majority::new(5).unwrap();
        assert!(!maj.contains_quorum(&ElementSet::from_iter(5, [0, 1])));
        assert!(maj.contains_quorum(&ElementSet::from_iter(5, [0, 1, 2])));
        assert!(maj.contains_quorum(&ElementSet::full(5)));
        assert!(!maj.contains_quorum(&ElementSet::empty(5)));
    }

    #[test]
    fn enumeration_counts_binomials() {
        // C(5,3) = 10 quorums.
        let maj = Majority::new(5).unwrap();
        let quorums = minimal_quorums(&maj).unwrap();
        assert_eq!(quorums.len(), 10);
        assert!(quorums.iter().all(|q| q.len() == 3));
        let coterie = Coterie::new(5, quorums).unwrap();
        assert_eq!(coterie.quorum_count(), 10);
    }

    #[test]
    fn majority_is_nondominated() {
        for n in [3, 5, 7, 9] {
            crate::assert_nd_claim(&Majority::new(n).unwrap(), true);
        }
    }

    #[test]
    fn green_quorum_iff_green_majority() {
        let maj = Majority::new(5).unwrap();
        let mut coloring = Coloring::all_red(5);
        assert!(!maj.has_green_quorum(&coloring));
        assert!(maj.has_red_quorum(&coloring));
        for e in 0..3 {
            coloring.set_color(e, quorum_core::Color::Green);
        }
        assert!(maj.has_green_quorum(&coloring));
        assert!(!maj.has_red_quorum(&coloring));
    }

    #[test]
    fn exactly_one_of_green_red_quorum_exists() {
        // ND property seen through colorings: for odd n, either the greens or
        // the reds form a majority, never both, never neither.
        let maj = Majority::new(5).unwrap();
        for coloring in Coloring::enumerate_all(5) {
            let green = maj.has_green_quorum(&coloring);
            let red = maj.has_red_quorum(&coloring);
            assert_ne!(green, red);
        }
    }

    proptest! {
        #[test]
        fn prop_monotone_in_set_size(n in prop::sample::select(vec![3usize, 5, 7, 9, 11]), seed in 0u64..1000) {
            let maj = Majority::new(n).unwrap();
            // Build a nested chain of sets and check monotonicity along it.
            let mut set = ElementSet::empty(n);
            let mut previous = maj.contains_quorum(&set);
            let mut order: Vec<usize> = (0..n).collect();
            // Cheap deterministic shuffle from the seed.
            for i in (1..n).rev() {
                let j = (seed as usize + i * 7919) % (i + 1);
                order.swap(i, j);
            }
            for e in order {
                set.insert(e);
                let now = maj.contains_quorum(&set);
                prop_assert!(now || !previous, "monotonicity violated");
                previous = now;
            }
            prop_assert!(previous, "full universe must contain a quorum");
        }
    }
}
