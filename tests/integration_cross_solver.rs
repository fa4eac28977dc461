//! Cross-solver agreement at small n: the same probe-complexity quantities
//! computed by four independent code paths must coincide.
//!
//! For every instance of `SystemSpec::FAMILIES` that fits `n ≤ 12`:
//!
//! 1. the **exact expectimax solver** (`exact::optimal_expected`, a DP over
//!    knowledge states) and
//! 2. the **decision-tree evaluation** (`optimal_expected_tree` plus
//!    `DecisionTree::expected_depth`, a recursion over an explicit tree)
//!    must agree to floating-point precision;
//! 3. a **high-trial Monte-Carlo** run of that optimal tree over i.i.d.
//!    colorings must land inside its own confidence interval around the
//!    exact value;
//! 4. the **Yao machinery** (`best_deterministic_cost` against the explicit
//!    i.i.d. distribution — a different DP over an enumerated support) must
//!    reproduce the exact value, and as a *lower bound* it must never exceed
//!    the deterministic worst case `PC(S)`.

use probequorum::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Every distinct family instance with `n ≤ 12`, built from a spread of
/// size hints (families round hints to their own supported sizes).
fn small_family_systems() -> Vec<(String, Arc<dyn QuorumSystem + Send + Sync>)> {
    let mut seen = std::collections::HashSet::new();
    let mut systems = Vec::new();
    for family in SystemSpec::FAMILIES {
        for hint in [3usize, 5, 7, 9, 12] {
            let spec = SystemSpec::family_with_size_hint(family, hint).unwrap();
            let system = spec.build().unwrap();
            let n = system.universe_size();
            if n > 12 {
                continue;
            }
            if seen.insert((family, n)) {
                systems.push((format!("{family}(n={n})"), system));
            }
        }
    }
    systems
}

#[test]
fn every_family_has_small_instances() {
    let systems = small_family_systems();
    assert!(systems.len() >= 6, "only {} small systems", systems.len());
    for family in ["Maj", "Wheel", "Triang", "Tree", "HQS", "Grid"] {
        assert!(
            systems.iter().any(|(name, _)| name.starts_with(family)),
            "no small instance of {family}"
        );
    }
}

#[test]
fn exact_solver_decision_tree_monte_carlo_and_yao_agree() {
    let trials = 40_000u64;
    for (name, system) in small_family_systems() {
        let system = system.as_ref();
        let n = system.universe_size();
        for p in [0.3, 0.5] {
            // Path 1: the expectimax DP.
            let exact_value = exact::optimal_expected(system, p).unwrap();

            // Path 2: an optimal decision tree, evaluated by its own
            // recursion. Its claimed value and its recomputed expected depth
            // must both match the DP.
            let (tree_value, tree) = exact::optimal_expected_tree(system, p).unwrap();
            assert!(
                (tree_value - exact_value).abs() < 1e-9,
                "{name} p={p}: tree solver {tree_value} vs DP {exact_value}"
            );
            let depth = tree.expected_depth(p);
            assert!(
                (depth - exact_value).abs() < 1e-9,
                "{name} p={p}: expected depth {depth} vs DP {exact_value}"
            );

            // Path 3: high-trial Monte-Carlo of the same tree on iid
            // colorings, compared through its own confidence interval.
            let model = FailureModel::iid(p);
            let mut rng = StdRng::seed_from_u64(0xC505 ^ n as u64 ^ p.to_bits());
            let mut stats = RunningStats::new();
            for trial in 0..trials {
                let coloring = model.sample_at(n, trial, &mut rng);
                stats.push(tree.evaluate(&coloring).probes as f64);
            }
            let summary = stats.summary();
            assert!(
                summary.is_consistent_with(exact_value, 5.0),
                "{name} p={p}: Monte-Carlo {} ± {} vs exact {exact_value}",
                summary.mean,
                summary.std_error
            );

            // Path 4: the Yao-principle solver against the explicit iid
            // distribution is the same minimisation phrased over an
            // enumerated support — equality, not just a bound.
            let distribution = InputDistribution::iid(n, p).unwrap();
            let yao_value = yao::best_deterministic_cost(system, &distribution).unwrap();
            assert!(
                (yao_value - exact_value).abs() < 1e-9,
                "{name} p={p}: Yao solver {yao_value} vs DP {exact_value}"
            );

            // Yao's principle: any distributional lower bound is at most the
            // deterministic worst case PC(S).
            let pc = exact::optimal_worst_case(system).unwrap() as f64;
            assert!(
                yao_value <= pc + 1e-9,
                "{name} p={p}: Yao bound {yao_value} exceeds PC {pc}"
            );
        }
    }
}

#[test]
fn yao_hard_distributions_stay_below_the_worst_case() {
    // The paper's named hard distributions, on the families that define
    // them: each certified lower bound must respect PC(S) too.
    let maj = Majority::new(5).unwrap();
    let maj_bound =
        yao::best_deterministic_cost(&maj, &InputDistribution::majority_hard(&maj)).unwrap();
    assert!(maj_bound <= exact::optimal_worst_case(&maj).unwrap() as f64 + 1e-9);

    let wall = CrumblingWalls::new(vec![1, 2, 3]).unwrap();
    let wall_bound =
        yao::best_deterministic_cost(&wall, &InputDistribution::cw_hard(&wall)).unwrap();
    assert!(wall_bound <= exact::optimal_worst_case(&wall).unwrap() as f64 + 1e-9);
}
