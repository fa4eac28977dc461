//! Yao-principle lower bounds for randomized probe complexity.
//!
//! Yao's minimax principle: for any input distribution `D`, the expected cost
//! of the *best deterministic* algorithm on inputs drawn from `D` lower-bounds
//! the worst-case expected cost of every randomized algorithm.  Section 4 of
//! the paper applies it with three hard distributions:
//!
//! * Majority (Theorem 4.2): uniform over colorings with exactly `(n+1)/2` red
//!   elements;
//! * Crumbling walls (Theorem 4.6): uniform over colorings with exactly one
//!   green element per row;
//! * Tree (Theorem 4.8): the two bottom levels split into `(n+1)/4` subtrees
//!   of three nodes, each independently given exactly two red nodes; all
//!   higher nodes green.
//!
//! [`best_deterministic_cost`] computes the optimal adaptive deterministic
//! cost against an explicit distribution exactly (exponential in `n`, so for
//! small instances), which turns each distribution into a certified numeric
//! lower bound.

use std::collections::HashMap;

use quorum_core::{Coloring, ElementSet, QuorumError, QuorumSystem};
use quorum_systems::{CrumblingWalls, Majority, TreeQuorum};

/// A finite probability distribution over colorings of a fixed universe.
#[derive(Debug, Clone)]
pub struct InputDistribution {
    universe: usize,
    support: Vec<(Coloring, f64)>,
}

impl InputDistribution {
    /// Builds a distribution from explicit weights.
    ///
    /// Weights are normalised to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::Empty`] if the support is empty,
    /// [`QuorumError::InvalidConstruction`] if a weight is not positive and
    /// finite, and [`QuorumError::UniverseMismatch`] if the colorings range
    /// over different universes.
    pub fn new(support: Vec<(Coloring, f64)>) -> Result<Self, QuorumError> {
        if support.is_empty() {
            return Err(QuorumError::Empty);
        }
        let universe = support[0].0.universe_size();
        let mut total = 0.0;
        for (coloring, weight) in &support {
            if coloring.universe_size() != universe {
                return Err(QuorumError::UniverseMismatch {
                    left: coloring.universe_size(),
                    right: universe,
                });
            }
            if !weight.is_finite() || *weight <= 0.0 {
                return Err(QuorumError::InvalidConstruction {
                    reason: format!(
                        "distribution weights must be positive and finite, got {weight}"
                    ),
                });
            }
            total += weight;
        }
        let support = support.into_iter().map(|(c, w)| (c, w / total)).collect();
        Ok(InputDistribution { universe, support })
    }

    /// The uniform distribution over the given colorings.
    ///
    /// # Errors
    ///
    /// Same as [`InputDistribution::new`].
    pub fn uniform(colorings: Vec<Coloring>) -> Result<Self, QuorumError> {
        Self::new(colorings.into_iter().map(|c| (c, 1.0)).collect())
    }

    /// The iid product distribution: every element red independently with
    /// probability `p` (enumerates all `2^n` colorings, so `n ≤ 20`).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::UniverseTooLarge`] when `n > 20` and
    /// [`QuorumError::InvalidConstruction`] for invalid `p`.
    pub fn iid(n: usize, p: f64) -> Result<Self, QuorumError> {
        if n > 20 {
            return Err(QuorumError::UniverseTooLarge {
                actual: n,
                limit: 20,
            });
        }
        if !(0.0..=1.0).contains(&p) || p == 0.0 || p == 1.0 {
            return Err(QuorumError::InvalidConstruction {
                reason: format!("iid distributions need 0 < p < 1, got {p}"),
            });
        }
        let support = Coloring::enumerate_all(n)
            .into_iter()
            .map(|c| {
                let r = c.red_count() as f64;
                let g = c.green_count() as f64;
                let w = p.powf(r) * (1.0 - p).powf(g);
                (c, w)
            })
            .collect();
        Self::new(support)
    }

    /// The hard distribution for Majority (Theorem 4.2): uniform over all
    /// colorings with exactly `(n+1)/2` red elements.
    pub fn majority_hard(system: &Majority) -> Self {
        let n = system.universe_size();
        let reds = system.quorum_size();
        let colorings: Vec<Coloring> = Coloring::enumerate_all(n)
            .into_iter()
            .filter(|c| c.red_count() == reds)
            .collect();
        Self::uniform(colorings).expect("the majority hard distribution is never empty")
    }

    /// The hard distribution for crumbling walls (Theorem 4.6): uniform over
    /// colorings with exactly one green element per row.
    pub fn cw_hard(system: &CrumblingWalls) -> Self {
        let n = system.universe_size();
        let mut colorings = vec![ElementSet::empty(n)];
        for row in 0..system.row_count() {
            let mut next = Vec::new();
            for greens in &colorings {
                for e in system.row_elements(row) {
                    next.push(greens.with(e));
                }
            }
            colorings = next;
        }
        let colorings = colorings
            .into_iter()
            .map(|greens| Coloring::from_green_set(&greens))
            .collect();
        Self::uniform(colorings).expect("the crumbling-walls hard distribution is never empty")
    }

    /// The hard distribution for the Tree system (Theorem 4.8): every node on
    /// levels 2 and above (counting leaves as level 0) is green; each
    /// bottom subtree of three nodes (a level-1 node and its two leaves)
    /// independently has exactly two red nodes, uniformly among the three
    /// choices.
    pub fn tree_hard(system: &TreeQuorum) -> Self {
        let n = system.universe_size();
        // Level-1 nodes are the parents of leaves: indices n/4 ... n/2 - 1 in
        // heap order (for n = 2^{h+1}-1 these are ⌊n/4⌋ .. ⌊n/2⌋-1).
        let first_parent = n / 4;
        let last_parent = n / 2 - 1;
        let mut red_sets = vec![ElementSet::empty(n)];
        for parent in first_parent..=last_parent {
            let children = [2 * parent + 1, 2 * parent + 2];
            let triple = [parent, children[0], children[1]];
            let mut next = Vec::new();
            for reds in &red_sets {
                for green_one in triple {
                    let mut extended = reds.clone();
                    for e in triple {
                        if e != green_one {
                            extended.insert(e);
                        }
                    }
                    next.push(extended);
                }
            }
            red_sets = next;
        }
        let colorings = red_sets
            .into_iter()
            .map(|reds| Coloring::from_red_set(&reds))
            .collect();
        Self::uniform(colorings).expect("the tree hard distribution is never empty")
    }

    /// Universe size of the colorings in the support.
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// The support with its (normalised) probabilities.
    pub fn support(&self) -> &[(Coloring, f64)] {
        &self.support
    }

    /// Number of colorings in the support.
    pub fn support_size(&self) -> usize {
        self.support.len()
    }

    /// The expected value of a function of the coloring.
    pub fn expectation<F: FnMut(&Coloring) -> f64>(&self, mut f: F) -> f64 {
        self.support.iter().map(|(c, w)| w * f(c)).sum()
    }
}

/// Computes the expected probe count of the *optimal adaptive deterministic*
/// algorithm on inputs drawn from `distribution`, for the given system.
///
/// By Yao's principle this value lower-bounds `PC_R(S)`, the randomized
/// worst-case probe complexity.
///
/// The computation is exact: dynamic programming over observation states, with
/// the distribution conditioned on the observations made so far.  Complexity
/// is exponential in the universe size; the guard is `n ≤ 20`.
///
/// # Errors
///
/// Returns [`QuorumError::UniverseTooLarge`] when `n > 20` and
/// [`QuorumError::UniverseMismatch`] when the distribution and system
/// universes disagree.
pub fn best_deterministic_cost<S: QuorumSystem + ?Sized>(
    system: &S,
    distribution: &InputDistribution,
) -> Result<f64, QuorumError> {
    let n = system.universe_size();
    if n > 20 {
        return Err(QuorumError::UniverseTooLarge {
            actual: n,
            limit: 20,
        });
    }
    if distribution.universe_size() != n {
        return Err(QuorumError::UniverseMismatch {
            left: distribution.universe_size(),
            right: n,
        });
    }
    let full = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    // Precompute red masks of the support for fast consistency filtering.
    let support: Vec<(u64, f64)> = distribution
        .support()
        .iter()
        .map(|(c, w)| (c.red_set().as_mask(), *w))
        .collect();

    struct Ctx<'a, S: QuorumSystem + ?Sized> {
        system: &'a S,
        n: usize,
        full: u64,
        support: Vec<(u64, f64)>,
        memo: HashMap<(u64, u64), f64>,
    }

    impl<'a, S: QuorumSystem + ?Sized> Ctx<'a, S> {
        fn contains_quorum(&self, mask: u64) -> bool {
            self.system
                .contains_quorum(&ElementSet::from_mask(self.n, mask))
        }

        fn determined(&self, green: u64, red: u64) -> bool {
            if self.contains_quorum(green) {
                return true;
            }
            let unprobed = self.full & !(green | red);
            !self.contains_quorum(green | unprobed)
        }

        /// Expected remaining probes, conditioned on the observations
        /// `(green, red)`, under optimal play.
        fn value(&mut self, green: u64, red: u64) -> f64 {
            if self.determined(green, red) {
                return 0.0;
            }
            if let Some(&v) = self.memo.get(&(green, red)) {
                return v;
            }
            // Consistent inputs and their total mass.
            let consistent: Vec<(u64, f64)> = self
                .support
                .iter()
                .copied()
                .filter(|(reds, _)| reds & green == 0 && red & !reds == 0)
                .collect();
            let mass: f64 = consistent.iter().map(|(_, w)| w).sum();
            debug_assert!(
                mass > 0.0,
                "reached an observation state with no consistent input"
            );
            let unprobed = self.full & !(green | red);
            let mut best = f64::INFINITY;
            for e in 0..self.n {
                let bit = 1u64 << e;
                if unprobed & bit == 0 {
                    continue;
                }
                let red_mass: f64 = consistent
                    .iter()
                    .filter(|(reds, _)| reds & bit != 0)
                    .map(|(_, w)| w)
                    .sum();
                let green_mass = mass - red_mass;
                let mut cost = 1.0;
                if green_mass > 0.0 {
                    cost += (green_mass / mass) * self.value(green | bit, red);
                }
                if red_mass > 0.0 {
                    cost += (red_mass / mass) * self.value(green, red | bit);
                }
                best = best.min(cost);
            }
            self.memo.insert((green, red), best);
            best
        }
    }

    let mut ctx = Ctx {
        system,
        n,
        full,
        support,
        memo: HashMap::new(),
    };
    Ok(ctx.value(0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::Color;

    #[test]
    fn distribution_construction_validates() {
        assert!(matches!(
            InputDistribution::uniform(vec![]),
            Err(QuorumError::Empty)
        ));
        let c3 = Coloring::all_green(3);
        let c4 = Coloring::all_green(4);
        assert!(matches!(
            InputDistribution::uniform(vec![c3.clone(), c4]),
            Err(QuorumError::UniverseMismatch { .. })
        ));
        assert!(matches!(
            InputDistribution::new(vec![(c3.clone(), -1.0)]),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        let d =
            InputDistribution::new(vec![(c3.clone(), 2.0), (Coloring::all_red(3), 2.0)]).unwrap();
        assert_eq!(d.support_size(), 2);
        assert!((d.support()[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(d.universe_size(), 3);
    }

    #[test]
    fn iid_distribution_weights_sum_to_one() {
        let d = InputDistribution::iid(4, 0.3).unwrap();
        assert_eq!(d.support_size(), 16);
        let total: f64 = d.support().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Expected number of red elements is n*p.
        let mean_red = d.expectation(|c| c.red_count() as f64);
        assert!((mean_red - 1.2).abs() < 1e-9);
        assert!(InputDistribution::iid(4, 0.0).is_err());
        assert!(InputDistribution::iid(40, 0.5).is_err());
    }

    #[test]
    fn majority_hard_distribution_shape() {
        let maj = Majority::new(5).unwrap();
        let d = InputDistribution::majority_hard(&maj);
        // C(5,3) = 10 colorings, each with exactly 3 reds.
        assert_eq!(d.support_size(), 10);
        assert!(d.support().iter().all(|(c, _)| c.red_count() == 3));
    }

    #[test]
    fn cw_hard_distribution_shape() {
        let wall = CrumblingWalls::triang(3).unwrap(); // widths 1,2,3
        let d = InputDistribution::cw_hard(&wall);
        assert_eq!(d.support_size(), 2 * 3);
        for (c, _) in d.support() {
            for row in 0..wall.row_count() {
                let greens = wall
                    .row_elements(row)
                    .filter(|&e| c.color(e) == Color::Green)
                    .count();
                assert_eq!(greens, 1, "each row must have exactly one green element");
            }
        }
    }

    #[test]
    fn tree_hard_distribution_shape() {
        let tree = TreeQuorum::new(2).unwrap(); // n = 7, (n+1)/4 = 2 subtrees
        let d = InputDistribution::tree_hard(&tree);
        assert_eq!(d.support_size(), 9); // 3 choices per subtree
        for (c, _) in d.support() {
            // Root is green, and exactly 4 red nodes overall (2 per subtree).
            assert_eq!(c.color(0), Color::Green);
            assert_eq!(c.red_count(), 4);
            // Every coloring in the hard distribution has a red witness only.
            assert!(tree.has_red_quorum(c));
            assert!(!tree.has_green_quorum(c));
        }
    }

    #[test]
    fn yao_bound_for_maj3_matches_the_paper() {
        // Theorem 4.2 for n = 3: PC_R(Maj) = n − (n−1)/(n+3) = 3 − 2/6 = 8/3.
        let maj = Majority::new(3).unwrap();
        let d = InputDistribution::majority_hard(&maj);
        let bound = best_deterministic_cost(&maj, &d).unwrap();
        assert!(
            (bound - 8.0 / 3.0).abs() < 1e-9,
            "expected 8/3, got {bound}"
        );
    }

    #[test]
    fn yao_bound_for_maj5_matches_the_paper() {
        // n = 5: n − (n−1)/(n+3) = 5 − 4/8 = 4.5.
        let maj = Majority::new(5).unwrap();
        let d = InputDistribution::majority_hard(&maj);
        let bound = best_deterministic_cost(&maj, &d).unwrap();
        assert!((bound - 4.5).abs() < 1e-9, "expected 4.5, got {bound}");
    }

    #[test]
    fn yao_bound_for_small_wall_is_at_least_the_theorem_value() {
        // Theorem 4.6: PC_R((1,n2,...,nk)-CW) >= (n+k)/2.
        let wall = CrumblingWalls::new(vec![1, 3, 2]).unwrap();
        let d = InputDistribution::cw_hard(&wall);
        let bound = best_deterministic_cost(&wall, &d).unwrap();
        let n = wall.universe_size() as f64;
        let k = wall.row_count() as f64;
        assert!(
            bound + 1e-9 >= (n + k) / 2.0,
            "bound {bound} below (n+k)/2 = {}",
            (n + k) / 2.0
        );
    }

    #[test]
    fn yao_bound_for_small_tree_is_at_least_the_theorem_value() {
        // Theorem 4.8: PC_R(Tree) >= 2(n+1)/3; for n = 7 that is 16/3 ≈ 5.33.
        let tree = TreeQuorum::new(2).unwrap();
        let d = InputDistribution::tree_hard(&tree);
        let bound = best_deterministic_cost(&tree, &d).unwrap();
        assert!(bound + 1e-9 >= 2.0 * 8.0 / 3.0, "bound {bound} below 16/3");
    }

    #[test]
    fn iid_distribution_reproduces_ppc() {
        // Against the iid distribution the best deterministic cost IS the
        // probabilistic probe complexity; cross-check with the exact solver.
        let maj = Majority::new(3).unwrap();
        let d = InputDistribution::iid(3, 0.5).unwrap();
        let via_yao = best_deterministic_cost(&maj, &d).unwrap();
        let via_exact = crate::exact::optimal_expected(&maj, 0.5).unwrap();
        assert!((via_yao - via_exact).abs() < 1e-9);
        assert!((via_yao - 2.5).abs() < 1e-9);
    }

    #[test]
    fn universe_mismatch_is_rejected() {
        let maj = Majority::new(5).unwrap();
        let d = InputDistribution::uniform(vec![Coloring::all_green(3)]).unwrap();
        assert!(matches!(
            best_deterministic_cost(&maj, &d),
            Err(QuorumError::UniverseMismatch { .. })
        ));
    }
}
