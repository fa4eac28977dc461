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
//! An [`InputDistribution`] holds such a distribution. The exact solver
//! computes the best deterministic cost against it under
//! [`Law::Support`](crate::exact::Law::Support), the same recursion that
//! gives `PC(S)` and `PPC_p(S)` (so for `n ≤ 15`), which turns each
//! distribution into a certified numeric lower bound:
//!
//! ```
//! use quorum_probe::exact::{optimal_cost, Law};
//! use quorum_probe::InputDistribution;
//! use quorum_systems::Majority;
//!
//! // Theorem 4.2 for n = 3: PC_R(Maj3) = 3 − 2/6 = 8/3.
//! let maj = Majority::new(3).unwrap();
//! let hard = InputDistribution::majority_hard(&maj);
//! let bound = optimal_cost(&maj, Law::Support(&hard)).unwrap();
//! assert!((bound - 8.0 / 3.0).abs() < 1e-12);
//! ```

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
    /// Weights are normalised to sum to 1, after dividing each by the
    /// largest, so weights up to `f64::MAX` keep their ratios.
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
        let mut largest = 0.0f64;
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
            largest = largest.max(*weight);
        }
        // Scaled by the largest weight, the sum stays within the support's
        // length instead of overflowing to an all-zero law.
        let total: f64 = support.iter().map(|(_, w)| w / largest).sum();
        let support = support
            .into_iter()
            .map(|(c, w)| (c, w / largest / total))
            .collect();
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
        let mut green_sets = vec![ElementSet::empty(system.universe_size())];
        for row in 0..system.row_count() {
            green_sets = green_sets
                .iter()
                .flat_map(|greens| system.row_elements(row).map(|e| greens.with(e)))
                .collect();
        }
        let colorings = green_sets.iter().map(Coloring::from_green_set).collect();
        Self::uniform(colorings).expect("the crumbling-walls hard distribution is never empty")
    }

    /// The hard distribution for the Tree system (Theorem 4.8): every node on
    /// levels 2 and above (counting leaves as level 0) is green; each
    /// bottom subtree of three nodes (a level-1 node and its two leaves)
    /// independently has exactly two red nodes, uniformly among the three
    /// choices.
    pub fn tree_hard(system: &TreeQuorum) -> Self {
        let n = system.universe_size();
        // Level-1 nodes are the parents of leaves: indices ⌊n/4⌋ .. ⌊n/2⌋-1
        // in heap order. Each subtree's green node is its parent, then its
        // left leaf, then its right leaf.
        let mut red_sets = vec![ElementSet::empty(n)];
        for parent in n / 4..n / 2 {
            let triple = [parent, 2 * parent + 1, 2 * parent + 2];
            red_sets = red_sets
                .iter()
                .flat_map(|reds| {
                    (1..=3).map(move |i| reds.with(triple[i % 3]).with(triple[(i + 1) % 3]))
                })
                .collect();
        }
        let colorings = red_sets.iter().map(Coloring::from_red_set).collect();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{optimal_cost, Law};
    use quorum_core::Color;

    /// The best deterministic cost against `distribution`.
    fn yao_bound<S: QuorumSystem>(system: &S, distribution: &InputDistribution) -> f64 {
        optimal_cost(system, Law::Support(distribution)).unwrap()
    }

    /// The i.i.d. law at `p` as an explicit support over all `2^n` colorings.
    fn product_support(n: usize, p: f64) -> InputDistribution {
        let support = Coloring::enumerate_all(n)
            .into_iter()
            .map(|c| {
                let w = p.powf(c.red_count() as f64) * (1.0 - p).powf(c.green_count() as f64);
                (c, w)
            })
            .collect();
        InputDistribution::new(support).unwrap()
    }

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
        assert_eq!(d.support().len(), 2);
        assert!((d.support()[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(d.universe_size(), 3);
    }

    #[test]
    fn iid_distribution_weights_sum_to_one() {
        let d = product_support(4, 0.3);
        assert_eq!(d.support().len(), 16);
        let total: f64 = d.support().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Expected number of red elements is n*p.
        let mean_red: f64 = d
            .support()
            .iter()
            .map(|(c, w)| w * c.red_count() as f64)
            .sum();
        assert!((mean_red - 1.2).abs() < 1e-9);
    }

    #[test]
    fn weights_near_the_largest_float_keep_their_ratios() {
        // Three weights of f64::MAX sum past the largest float; divided by
        // the largest weight first they stay uniform, and the Yao bound of
        // Maj3's hard support is still 8/3.
        let maj = Majority::new(3).unwrap();
        let hard = InputDistribution::majority_hard(&maj);
        let heavy = InputDistribution::new(
            hard.support()
                .iter()
                .map(|(c, _)| (c.clone(), f64::MAX))
                .collect(),
        )
        .unwrap();
        assert!(heavy.support().iter().all(|&(_, w)| w == 1.0 / 3.0));
        assert_eq!(yao_bound(&maj, &heavy), yao_bound(&maj, &hard));
        assert!((yao_bound(&maj, &heavy) - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn majority_hard_distribution_shape() {
        let maj = Majority::new(5).unwrap();
        let d = InputDistribution::majority_hard(&maj);
        // C(5,3) = 10 colorings, each with exactly 3 reds.
        assert_eq!(d.support().len(), 10);
        assert!(d.support().iter().all(|(c, _)| c.red_count() == 3));
    }

    #[test]
    fn cw_hard_distribution_shape() {
        let wall = CrumblingWalls::triang(3).unwrap(); // widths 1,2,3
        let d = InputDistribution::cw_hard(&wall);
        assert_eq!(d.support().len(), 2 * 3);
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
        assert_eq!(d.support().len(), 9); // 3 choices per subtree
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
        let bound = yao_bound(&maj, &InputDistribution::majority_hard(&maj));
        assert!(
            (bound - 8.0 / 3.0).abs() < 1e-9,
            "expected 8/3, got {bound}"
        );
    }

    #[test]
    fn yao_bound_for_maj5_matches_the_paper() {
        // n = 5: n − (n−1)/(n+3) = 5 − 4/8 = 4.5.
        let maj = Majority::new(5).unwrap();
        let bound = yao_bound(&maj, &InputDistribution::majority_hard(&maj));
        assert!((bound - 4.5).abs() < 1e-9, "expected 4.5, got {bound}");
    }

    #[test]
    fn yao_bound_for_small_wall_is_at_least_the_theorem_value() {
        // Theorem 4.6: PC_R((1,n2,...,nk)-CW) >= (n+k)/2.
        let wall = CrumblingWalls::new(vec![1, 3, 2]).unwrap();
        let bound = yao_bound(&wall, &InputDistribution::cw_hard(&wall));
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
        let bound = yao_bound(&tree, &InputDistribution::tree_hard(&tree));
        assert!(bound + 1e-9 >= 2.0 * 8.0 / 3.0, "bound {bound} below 16/3");
    }

    #[test]
    fn iid_distribution_reproduces_ppc() {
        // Against the iid distribution the best deterministic cost IS the
        // probabilistic probe complexity: the support law and the iid law
        // agree.
        let maj = Majority::new(3).unwrap();
        let via_yao = yao_bound(&maj, &product_support(3, 0.5));
        let via_iid = optimal_cost(&maj, Law::Iid(0.5)).unwrap();
        assert!((via_yao - via_iid).abs() < 1e-9);
        assert!((via_yao - 2.5).abs() < 1e-9);
    }

    #[test]
    fn universe_mismatch_is_rejected() {
        let maj = Majority::new(5).unwrap();
        let d = InputDistribution::uniform(vec![Coloring::all_green(3)]).unwrap();
        assert!(matches!(
            optimal_cost(&maj, Law::Support(&d)),
            Err(QuorumError::UniverseMismatch { .. })
        ));
    }
}
