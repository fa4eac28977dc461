//! The exact (exponential-time) probe-complexity solver for small systems.
//!
//! One memoised recursion runs over knowledge states: the elements probed
//! green and the elements probed red so far, as two `u64` masks. At each
//! undetermined state it takes the cheapest unprobed element to probe: one
//! probe plus the costs of the two continuations, combined by an outcome
//! [`Law`]:
//!
//! * [`Law::Adversary`] charges the costlier outcome, `1 + max(g, r)`. The
//!   value is the deterministic worst-case probe complexity `PC(S)`.
//! * [`Law::Iid`] makes every element red independently with probability
//!   `p`, `1 + q·g + p·r`. The value is `PPC_p(S)`.
//! * [`Law::Support`] draws a coloring from an explicit distribution,
//!   conditioned on the observations: `1 + (g_mass/mass)·g +
//!   (r_mass/mass)·r`, skipping branches of zero mass. The value is the
//!   best deterministic cost against that distribution, which by Yao's
//!   principle lower-bounds the randomized `PC_R(S)` (see [`crate::yao`]
//!   for the paper's hard distributions).
//!
//! [`optimal_cost`] returns the value and [`optimal_tree`] also returns an
//! optimal [`DecisionTree`], read back from the memo's argmins: ties go to
//! the lowest element, unless a later one is better by more than `1e-15`.
//!
//! The memo holds a value and an argmin for each of the `3^n` states, so
//! values are held to `n ≤ 15` (at most 9 · 3¹⁵ bytes ≈ 129 MB) and trees
//! to `n ≤ 12`. The paper's `Maj_3` example: `PC = 3`, `PPC_{1/2} = 2.5`.

use quorum_core::{ElementSet, QuorumError, QuorumSystem};

use crate::{DecisionTree, InputDistribution};

const VALUE_LIMIT: usize = 15;
const TREE_LIMIT: usize = 12;

/// How the outcome of each probe is drawn.
#[derive(Debug, Clone, Copy)]
pub enum Law<'a> {
    /// An adversary picks the costlier outcome.
    Adversary,
    /// Every element is red independently with probability `p`.
    Iid(f64),
    /// The coloring is drawn from an explicit distribution.
    Support(&'a InputDistribution),
}

// Memo codes: a state not solved yet, a determined state (green or red
// quorum), or `PROBE + e` for the element an optimal strategy probes there.
const UNSOLVED: u8 = 0;
const GREEN: u8 = 1;
const RED: u8 = 2;
const PROBE: u8 = 3;

struct Solver<'a, S: QuorumSystem + ?Sized> {
    system: &'a S,
    law: Law<'a>,
    /// The support's red masks and weights (empty for the other laws).
    support: Vec<(u64, f64)>,
    n: usize,
    full: u64,
    /// Scratch set handed to `contains_quorum`.
    set: ElementSet,
    /// The memo, indexed by a state's base-3 code: element `e` adds `3^e`
    /// when green and `2·3^e` when red.
    value: Vec<f64>,
    choice: Vec<u8>,
}

impl<'a, S: QuorumSystem + ?Sized> Solver<'a, S> {
    fn new(system: &'a S, law: Law<'a>, limit: usize) -> Result<Self, QuorumError> {
        let n = system.universe_size();
        if n > limit {
            return Err(QuorumError::UniverseTooLarge { actual: n, limit });
        }
        let support = match law {
            Law::Adversary => Vec::new(),
            Law::Iid(p) if (0.0..=1.0).contains(&p) => Vec::new(),
            Law::Iid(p) => {
                return Err(QuorumError::InvalidConstruction {
                    reason: format!("p must be a probability, got {p}"),
                })
            }
            Law::Support(distribution) if distribution.universe_size() != n => {
                return Err(QuorumError::UniverseMismatch {
                    left: distribution.universe_size(),
                    right: n,
                })
            }
            Law::Support(distribution) => distribution
                .support()
                .iter()
                .map(|(c, w)| (c.red_set().as_mask(), *w))
                .collect(),
        };
        let states = 3usize.pow(n as u32);
        Ok(Solver {
            system,
            law,
            support,
            n,
            full: (1u64 << n) - 1,
            set: ElementSet::empty(n),
            value: vec![0.0; states],
            choice: vec![UNSOLVED; states],
        })
    }

    fn contains_quorum(&mut self, mask: u64) -> bool {
        self.set.set_word(0, mask);
        self.system.contains_quorum(&self.set)
    }

    /// The optimal expected number of probes left after observing `green`
    /// and `red`, whose base-3 code is `index`.
    fn solve(&mut self, green: u64, red: u64, index: usize) -> f64 {
        match self.choice[index] {
            UNSOLVED => {}
            GREEN | RED => return 0.0,
            _ => return self.value[index],
        }
        // Determined: the greens hold a quorum, or the reds meet every quorum.
        if self.contains_quorum(green) {
            self.choice[index] = GREEN;
            return 0.0;
        }
        if !self.contains_quorum(self.full & !red) {
            self.choice[index] = RED;
            return 0.0;
        }
        let masses = matches!(self.law, Law::Support(_)).then(|| self.masses(green, red));
        let (mut best, mut pick, mut pick_cost) = (f64::INFINITY, 0, f64::INFINITY);
        let mut step = 1;
        for e in 0..self.n {
            let bit = 1u64 << e;
            let (to_green, to_red) = (index + step, index + 2 * step);
            step *= 3;
            if (green | red) & bit != 0 {
                continue;
            }
            // The chances of a green and a red outcome; none for the adversary.
            let chances = match self.law {
                Law::Adversary => None,
                Law::Iid(p) => Some((1.0 - p, p)),
                Law::Support(_) => masses.as_ref().map(|&(mass, ref red_mass)| {
                    let share = |m: f64| if m > 0.0 { m / mass } else { 0.0 };
                    (share(mass - red_mass[e]), share(red_mass[e]))
                }),
            };
            let cost = match chances {
                None => {
                    let if_green = self.solve(green | bit, red, to_green);
                    1.0 + if_green.max(self.solve(green, red | bit, to_red))
                }
                Some((q, p)) => {
                    let mut cost = 1.0;
                    if q > 0.0 {
                        cost += q * self.solve(green | bit, red, to_green);
                    }
                    if p > 0.0 {
                        cost += p * self.solve(green, red | bit, to_red);
                    }
                    cost
                }
            };
            best = best.min(cost);
            if cost < pick_cost - 1e-15 {
                (pick, pick_cost) = (e, cost);
            }
        }
        self.value[index] = best;
        self.choice[index] = PROBE + pick as u8;
        best
    }

    /// In one pass over the support: the mass consistent with `green` and
    /// `red`, and per unprobed element the part of it in which that element
    /// is red. Each sum adds its weights in support order from `-0.0`, as
    /// `Iterator::sum` does; `exact_solver_outputs_are_pinned` pins the
    /// values these exact sums give.
    fn masses(&self, green: u64, red: u64) -> (f64, [f64; 64]) {
        let (mut mass, mut red_mass) = (-0.0, [-0.0; 64]);
        for &(reds, w) in &self.support {
            if reds & green == 0 && red & !reds == 0 {
                mass += w;
                let mut unprobed = reds & !red;
                while unprobed != 0 {
                    red_mass[unprobed.trailing_zeros() as usize] += w;
                    unprobed &= unprobed - 1;
                }
            }
        }
        (mass, red_mass)
    }

    /// An optimal tree from the state `(green, red)`, read off the memo.
    fn tree(&mut self, green: u64, red: u64, index: usize) -> DecisionTree {
        self.solve(green, red, index);
        match self.choice[index] {
            GREEN => DecisionTree::green_leaf(),
            RED => DecisionTree::red_leaf(),
            code => {
                let e = usize::from(code - PROBE);
                let (bit, step) = (1u64 << e, 3usize.pow(e as u32));
                let on_green = self.tree(green | bit, red, index + step);
                DecisionTree::probe(e, on_green, self.tree(green, red | bit, index + 2 * step))
            }
        }
    }
}

/// The optimal expected number of probes that decide `system` when the
/// outcomes follow `law`: `PC(S)` under [`Law::Adversary`], `PPC_p(S)` under
/// [`Law::Iid`], and the best deterministic cost against a distribution
/// under [`Law::Support`].
///
/// # Errors
///
/// Returns [`QuorumError::UniverseTooLarge`] when `n > 15`,
/// [`QuorumError::InvalidConstruction`] when `Law::Iid`'s `p` is not a
/// probability, and [`QuorumError::UniverseMismatch`] when a support ranges
/// over another universe.
pub fn optimal_cost<S: QuorumSystem + ?Sized>(
    system: &S,
    law: Law<'_>,
) -> Result<f64, QuorumError> {
    Ok(Solver::new(system, law, VALUE_LIMIT)?.solve(0, 0, 0))
}

/// [`optimal_cost`] together with an optimal decision tree achieving it.
///
/// # Errors
///
/// As [`optimal_cost`], but [`QuorumError::UniverseTooLarge`] already when
/// `n > 12`.
pub fn optimal_tree<S: QuorumSystem + ?Sized>(
    system: &S,
    law: Law<'_>,
) -> Result<(f64, DecisionTree), QuorumError> {
    let mut solver = Solver::new(system, law, TREE_LIMIT)?;
    let value = solver.solve(0, 0, 0);
    Ok((value, solver.tree(0, 0, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::Coloring;
    use quorum_systems::{CrumblingWalls, Hqs, Majority, TreeQuorum, Wheel};

    #[test]
    fn maj3_worked_example() {
        // Section 2.3 of the paper: PC(Maj3) = 3, PPC_{1/2}(Maj3) = 2.5.
        let maj = Majority::new(3).unwrap();
        assert_eq!(optimal_cost(&maj, Law::Adversary).unwrap(), 3.0);
        let ppc = optimal_cost(&maj, Law::Iid(0.5)).unwrap();
        assert!(
            (ppc - 2.5).abs() < 1e-12,
            "PPC(Maj3) should be 2.5, got {ppc}"
        );
    }

    #[test]
    fn maj3_optimal_trees_achieve_the_values() {
        let maj = Majority::new(3).unwrap();
        let (pc, tree) = optimal_tree(&maj, Law::Adversary).unwrap();
        assert_eq!(pc, 3.0);
        assert_eq!(tree.depth(), 3);
        tree.validate(&maj).unwrap();
        let (ppc, tree) = optimal_tree(&maj, Law::Iid(0.5)).unwrap();
        assert!((ppc - 2.5).abs() < 1e-12);
        assert!((tree.expected_depth(0.5) - 2.5).abs() < 1e-12);
        tree.validate(&maj).unwrap();
    }

    #[test]
    fn support_trees_are_valid_and_achieve_the_value() {
        // Under a support some branches carry no mass; the tree still
        // covers them, and its cost over the support is the value.
        let maj = Majority::new(5).unwrap();
        let hard = InputDistribution::majority_hard(&maj);
        let (value, tree) = optimal_tree(&maj, Law::Support(&hard)).unwrap();
        tree.validate(&maj).unwrap();
        let cost: f64 = hard
            .support()
            .iter()
            .map(|(c, w)| w * tree.evaluate(c).probes as f64)
            .sum();
        assert!((cost - value).abs() < 1e-12, "{cost} vs {value}");
        assert_eq!(value, optimal_cost(&maj, Law::Support(&hard)).unwrap());
    }

    #[test]
    fn evasive_systems_of_lemma_2_2() {
        // Maj, Wheel, CW and Tree are evasive: PC(S) = n.
        let evasive = |system: &dyn QuorumSystem| {
            optimal_cost(system, Law::Adversary).unwrap() == system.universe_size() as f64
        };
        assert!(evasive(&Majority::new(5).unwrap()));
        assert!(evasive(&Wheel::new(5).unwrap()));
        assert!(evasive(&CrumblingWalls::triang(3).unwrap()));
        assert!(evasive(&TreeQuorum::new(2).unwrap()));
    }

    #[test]
    fn hqs_height_one_is_maj3() {
        let hqs = Hqs::new(1).unwrap();
        assert_eq!(optimal_cost(&hqs, Law::Adversary).unwrap(), 3.0);
        assert!((optimal_cost(&hqs, Law::Iid(0.5)).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn hqs_height_two_probabilistic_value_is_bracketed_by_the_paper_bounds() {
        // Theorem 3.8 at p = 1/2: the directional algorithm Probe_HQS costs
        // T(h) = 2.5 * T(h-1) with T(0) = 1, i.e. 6.25 expected probes for
        // h = 2, so the true optimum is at most 6.25.  (The fully adaptive
        // optimum computed here is in fact slightly smaller — 6.140625 — a
        // known phenomenon for recursive 2-of-3 majority evaluation where
        // non-directional algorithms beat directional ones from height 2 on;
        // see EXPERIMENTS.md for the discussion of Theorem 3.9.)  It is also
        // at least the quorum size 4, the trivial information bound.
        let hqs = Hqs::new(2).unwrap();
        let value = optimal_cost(&hqs, Law::Iid(0.5)).unwrap();
        assert!(
            value <= 6.25 + 1e-9,
            "optimum must not exceed Probe_HQS's 6.25, got {value}"
        );
        assert!(
            value >= 4.0,
            "optimum cannot be below the quorum size, got {value}"
        );
        assert!(
            (value - 6.140625).abs() < 1e-9,
            "regression guard on the exact optimum, got {value}"
        );
    }

    #[test]
    fn expected_cost_is_monotone_in_system_difficulty() {
        // PPC at p=1/2 for Maj5 must exceed Maj3's.
        let maj3 = Majority::new(3).unwrap();
        let maj5 = Majority::new(5).unwrap();
        let a = optimal_cost(&maj3, Law::Iid(0.5)).unwrap();
        let b = optimal_cost(&maj5, Law::Iid(0.5)).unwrap();
        assert!(b > a);
    }

    #[test]
    fn wheel_probabilistic_optimum_is_small() {
        // Corollary 3.4: Probe_CW achieves <= 3 expected probes on the Wheel,
        // so the optimum is at most 3 (and at least 2, the minimal quorum).
        let wheel = Wheel::new(9).unwrap();
        let value = optimal_cost(&wheel, Law::Iid(0.5)).unwrap();
        assert!(value <= 3.0 + 1e-12);
        assert!(value >= 2.0);
    }

    #[test]
    fn probabilities_are_validated() {
        let maj = Majority::new(3).unwrap();
        assert!(matches!(
            optimal_cost(&maj, Law::Iid(1.5)),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            optimal_tree(&maj, Law::Iid(-0.1)),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            optimal_cost(&maj, Law::Iid(f64::NAN)),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn limits_are_enforced() {
        let maj = Majority::new(13).unwrap();
        assert!(matches!(
            optimal_tree(&maj, Law::Adversary),
            Err(QuorumError::UniverseTooLarge { limit: 12, .. })
        ));
        // Values stop at n = 15, where the memo's 3^n states fit in
        // 129 MB; Maj(17) would need 1.1·10⁸ states. Every law is refused
        // before anything is allocated.
        let maj = Majority::new(17).unwrap();
        let support = InputDistribution::uniform(vec![Coloring::all_red(17)]).unwrap();
        for law in [Law::Adversary, Law::Iid(0.5), Law::Support(&support)] {
            assert!(matches!(
                optimal_cost(&maj, law),
                Err(QuorumError::UniverseTooLarge {
                    actual: 17,
                    limit: 15
                })
            ));
        }
    }

    #[test]
    fn asymmetric_p_biases_the_cost() {
        // With p close to 0 (few failures) the expected cost approaches the
        // minimal quorum size; with p = 1/2 it is larger.
        let maj = Majority::new(7).unwrap();
        let cheap = optimal_cost(&maj, Law::Iid(0.01)).unwrap();
        let hard = optimal_cost(&maj, Law::Iid(0.5)).unwrap();
        assert!(cheap < hard);
        assert!(cheap >= maj.quorum_size() as f64);
    }
}
