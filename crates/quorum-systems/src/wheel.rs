//! The Wheel quorum system.

use quorum_core::lanes::Lanes;
use quorum_core::{
    Coloring, ColoringDelta, DeltaEvaluator, ElementId, ElementSet, QuorumError, QuorumSystem,
};

use crate::{dispatch_lane_block, too_large, MAX_ELEMENTS};

/// Incremental wheel evaluation: the cached hub state and a rim-green
/// counter. Each flip is an O(1) adjustment; the verdict is "hub plus any
/// rim element, or the whole rim".
#[derive(Debug, Clone)]
struct WheelDeltaEval {
    n: usize,
    hub_green: bool,
    rim_green: usize,
    verdict: bool,
    primed: bool,
}

impl WheelDeltaEval {
    fn refresh_verdict(&mut self) {
        self.verdict = (self.hub_green && self.rim_green >= 1) || self.rim_green == self.n - 1;
    }
}

impl DeltaEvaluator for WheelDeltaEval {
    fn reset(&mut self, coloring: &Coloring) -> bool {
        assert_eq!(coloring.universe_size(), self.n, "universe mismatch");
        self.hub_green = coloring.is_green(0);
        self.rim_green = coloring.green_count() - usize::from(self.hub_green);
        self.refresh_verdict();
        self.primed = true;
        self.verdict
    }

    fn update(&mut self, post: &Coloring, delta: &ColoringDelta) -> bool {
        assert!(self.primed, "update before reset");
        assert_eq!(post.universe_size(), self.n, "universe mismatch");
        for e in delta.flipped_elements() {
            if e == 0 {
                self.hub_green = post.is_green(0);
            } else if post.is_green(e) {
                self.rim_green += 1;
            } else {
                self.rim_green -= 1;
            }
        }
        self.refresh_verdict();
        self.verdict
    }

    fn verdict(&self) -> bool {
        assert!(self.primed, "verdict before reset");
        self.verdict
    }
}

/// The Wheel coterie over `n ≥ 3` elements: element 0 is the *hub*, elements
/// `1..n` form the *rim*.  The quorums are the spokes `{0, i}` for every rim
/// element `i`, plus the full rim `{1, …, n−1}`.
///
/// The Wheel is the special case `(1, n−1)`-CW of the crumbling-walls family;
/// Corollary 3.4 of the paper shows its probabilistic probe complexity is at
/// most 3 (independent of `n`), while Corollary 4.5 shows its randomized
/// worst-case probe complexity is exactly `n − 1`.
///
/// # Examples
///
/// ```
/// use quorum_core::{ElementSet, QuorumSystem};
/// use quorum_systems::Wheel;
///
/// let wheel = Wheel::new(6).unwrap();
/// assert!(wheel.contains_quorum(&ElementSet::from_iter(6, [0, 4])));      // a spoke
/// assert!(wheel.contains_quorum(&ElementSet::from_iter(6, [1, 2, 3, 4, 5]))); // the rim
/// assert!(!wheel.contains_quorum(&ElementSet::from_iter(6, [1, 2])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Wheel {
    n: usize,
}

impl Wheel {
    /// Creates the wheel system over `n` elements.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] if `n < 3` (with fewer
    /// than three elements the rim degenerates) or if `n` exceeds 2²⁶.
    pub fn new(n: usize) -> Result<Self, QuorumError> {
        if n < 3 {
            return Err(QuorumError::InvalidConstruction {
                reason: format!("wheel requires at least 3 elements, got {n}"),
            });
        }
        if n > MAX_ELEMENTS {
            return Err(too_large(format_args!("wheel over {n} elements")));
        }
        Ok(Wheel { n })
    }

    /// Creates the wheel whose universe is closest to `size_hint`
    /// (`size_hint` clamped to `[3, 2²⁶]` elements). Infallible counterpart
    /// of [`Wheel::new`] for size-hinted sweeps and registries.
    pub fn with_size_hint(size_hint: usize) -> Self {
        Wheel::new(size_hint.clamp(3, MAX_ELEMENTS)).expect("n in [3, 2^26] is always valid")
    }

    /// The hub element (index 0).
    pub fn hub(&self) -> ElementId {
        0
    }

    /// The rim elements `1..n`.
    pub fn rim(&self) -> ElementSet {
        ElementSet::from_iter(self.n, 1..self.n)
    }

    /// Hub + any rim element, or the whole rim, at any lane width: two
    /// OR/AND folds over element-major blocks.
    fn green_lane_block_impl<L: Lanes>(&self, lanes: &[u64]) -> L {
        let stride = L::WORDS;
        let mut any_rim = L::zeros();
        let mut all_rim = L::ones();
        for e in 1..self.n {
            let lane = L::load(&lanes[e * stride..]);
            any_rim = any_rim.or(lane);
            all_rim = all_rim.and(lane);
        }
        L::load(lanes).and(any_rim).or(all_rim)
    }
}

impl QuorumSystem for Wheel {
    fn name(&self) -> String {
        format!("Wheel(n={})", self.n)
    }

    fn universe_size(&self) -> usize {
        self.n
    }

    fn contains_quorum(&self, set: &ElementSet) -> bool {
        if set.contains(0) {
            // A spoke {0, i} needs any rim element alongside the hub.
            if set.len() >= 2 {
                return true;
            }
            false
        } else {
            // Without the hub only the full rim is a quorum.
            set.len() == self.n - 1
        }
    }

    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        dispatch_lane_block!(self, lanes, width, out)
    }

    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        Some(Box::new(WheelDeltaEval {
            n: self.n,
            hub_green: false,
            rim_green: 0,
            verdict: false,
            primed: false,
        }))
    }

    fn min_quorum_size(&self) -> usize {
        2
    }

    fn max_quorum_size(&self) -> usize {
        self.n - 1
    }

    fn enumerate_quorums(&self) -> Result<Vec<ElementSet>, QuorumError> {
        let mut out: Vec<ElementSet> = (1..self.n)
            .map(|i| ElementSet::from_iter(self.n, [0, i]))
            .collect();
        out.push(self.rim());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::{CharacteristicFunction, Coloring};

    #[test]
    fn universe_is_capped_at_two_to_the_26() {
        assert!(Wheel::new(MAX_ELEMENTS).is_ok());
        for n in [MAX_ELEMENTS + 1, usize::MAX] {
            assert!(matches!(
                Wheel::new(n),
                Err(QuorumError::InvalidConstruction { .. })
            ));
        }
        for hint in [MAX_ELEMENTS, MAX_ELEMENTS + 1, usize::MAX] {
            assert_eq!(Wheel::with_size_hint(hint).universe_size(), MAX_ELEMENTS);
        }
    }

    #[test]
    fn construction_rejects_tiny_universes() {
        assert!(Wheel::new(3).is_ok());
        assert!(matches!(
            Wheel::new(2),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Wheel::new(0),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn quorum_structure() {
        let wheel = Wheel::new(5).unwrap();
        assert_eq!(wheel.hub(), 0);
        assert_eq!(wheel.rim().to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(wheel.min_quorum_size(), 2);
        assert_eq!(wheel.max_quorum_size(), 4);
        let quorums = wheel.enumerate_quorums().unwrap();
        assert_eq!(quorums.len(), 5); // 4 spokes + the rim
    }

    #[test]
    fn enumeration_matches_brute_force_minterms() {
        let wheel = Wheel::new(6).unwrap();
        let mut direct = wheel.enumerate_quorums().unwrap();
        // Brute-force via the explicit coterie machinery (default impl path).
        struct Shadow(Wheel);
        impl QuorumSystem for Shadow {
            fn name(&self) -> String {
                "shadow".into()
            }
            fn universe_size(&self) -> usize {
                self.0.universe_size()
            }
            fn contains_quorum(&self, set: &ElementSet) -> bool {
                self.0.contains_quorum(set)
            }
            fn min_quorum_size(&self) -> usize {
                self.0.min_quorum_size()
            }
            fn max_quorum_size(&self) -> usize {
                self.0.max_quorum_size()
            }
        }
        let mut brute = Shadow(wheel).enumerate_quorums().unwrap();
        direct.sort();
        brute.sort();
        assert_eq!(direct, brute);
    }

    #[test]
    fn wheel_is_a_nondominated_coterie() {
        for n in [3, 4, 5, 6, 7] {
            let wheel = Wheel::new(n).unwrap();
            let coterie = wheel.to_coterie().unwrap();
            assert!(coterie.is_nondominated(), "Wheel({n}) must be ND");
            let f = CharacteristicFunction::new(&wheel);
            assert!(f.is_monotone().unwrap());
        }
    }

    #[test]
    fn hub_alone_is_not_a_quorum() {
        let wheel = Wheel::new(5).unwrap();
        assert!(!wheel.contains_quorum(&ElementSet::from_iter(5, [0])));
    }

    #[test]
    fn rim_minus_one_is_not_a_quorum() {
        let wheel = Wheel::new(5).unwrap();
        assert!(!wheel.contains_quorum(&ElementSet::from_iter(5, [1, 2, 3])));
    }

    #[test]
    fn coloring_verdicts() {
        let wheel = Wheel::new(5).unwrap();
        // Hub green, one rim green: live.
        let mut coloring = Coloring::all_red(5);
        coloring.set_color(0, quorum_core::Color::Green);
        coloring.set_color(3, quorum_core::Color::Green);
        assert!(wheel.has_green_quorum(&coloring));
        // Hub red, rim all green: live via rim; red set {0} is not a quorum.
        let mut coloring = Coloring::all_green(5);
        coloring.set_color(0, quorum_core::Color::Red);
        assert!(wheel.has_green_quorum(&coloring));
        assert!(!wheel.has_red_quorum(&coloring));
        // Hub red and one rim red: dead (red spoke), no green quorum.
        coloring.set_color(2, quorum_core::Color::Red);
        assert!(!wheel.has_green_quorum(&coloring));
        assert!(wheel.has_red_quorum(&coloring));
    }

    #[test]
    fn exactly_one_monochromatic_quorum_per_coloring() {
        let wheel = Wheel::new(6).unwrap();
        for coloring in Coloring::enumerate_all(6) {
            assert_ne!(
                wheel.has_green_quorum(&coloring),
                wheel.has_red_quorum(&coloring)
            );
        }
    }
}
