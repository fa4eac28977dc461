//! Cross-solver agreement at small n: the same probe-complexity quantities
//! computed by four independent code paths must coincide.
//!
//! For every instance of `SystemSpec::FAMILIES` that fits `n ≤ 12`:
//!
//! 1. the **exact expectimax solver** (`exact::optimal_cost` under
//!    `Law::Iid`, a DP over knowledge states) and
//! 2. the **decision-tree evaluation** (`exact::optimal_tree` plus
//!    `DecisionTree::expected_depth`, a recursion over an explicit tree)
//!    must agree to floating-point precision;
//! 3. a **high-trial Monte-Carlo** run of that optimal tree over i.i.d.
//!    colorings must land inside its own confidence interval around the
//!    exact value;
//! 4. the **Yao machinery** (`Law::Support` against the i.i.d. law written
//!    out as an explicit distribution over all `2^n` colorings, conditioned
//!    on each observation) must reproduce the exact value, and as a *lower
//!    bound* it must never exceed the deterministic worst case `PC(S)`.

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
            let exact_value = exact::optimal_cost(system, exact::Law::Iid(p)).unwrap();

            // Path 2: an optimal decision tree, evaluated by its own
            // recursion. Its claimed value and its recomputed expected depth
            // must both match the DP.
            let (tree_value, tree) = exact::optimal_tree(system, exact::Law::Iid(p)).unwrap();
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
            let product = Coloring::enumerate_all(n)
                .into_iter()
                .map(|c| {
                    let (r, g) = (c.red_count() as f64, c.green_count() as f64);
                    (c, p.powf(r) * (1.0 - p).powf(g))
                })
                .collect();
            let distribution = InputDistribution::new(product).unwrap();
            let yao_value =
                exact::optimal_cost(system, exact::Law::Support(&distribution)).unwrap();
            assert!(
                (yao_value - exact_value).abs() < 1e-9,
                "{name} p={p}: Yao solver {yao_value} vs DP {exact_value}"
            );

            // Yao's principle: any distributional lower bound is at most the
            // deterministic worst case PC(S).
            let pc = exact::optimal_cost(system, exact::Law::Adversary).unwrap();
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
    let hard = InputDistribution::majority_hard(&maj);
    let maj_bound = exact::optimal_cost(&maj, exact::Law::Support(&hard)).unwrap();
    assert!(maj_bound <= exact::optimal_cost(&maj, exact::Law::Adversary).unwrap() + 1e-9);

    let wall = CrumblingWalls::new(vec![1, 2, 3]).unwrap();
    let hard = InputDistribution::cw_hard(&wall);
    let wall_bound = exact::optimal_cost(&wall, exact::Law::Support(&hard)).unwrap();
    assert!(wall_bound <= exact::optimal_cost(&wall, exact::Law::Adversary).unwrap() + 1e-9);
}

/// FNV-1a of `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of [`exact_solver_outputs_are_pinned`].
const PINNED_EXACT: u64 = 0xa0c7_1007_f136_b456;

/// Every value and optimal tree of the exact solver on the small family
/// instances, under the adversary and under i.i.d. failures at
/// p ∈ {0.1, 0.3, 0.5}; the values of the nine hard supports `reproduce
/// lower-bounds` prints; and Maj₃'s Figure 4 tree: the `f64` bits of each
/// value and the `render_ascii` text of each tree, folded into one digest.
#[test]
fn exact_solver_outputs_are_pinned() {
    let value = |hash: u64, v: f64| fnv1a(hash, &v.to_bits().to_le_bytes());
    let tree = |hash: u64, t: &DecisionTree| fnv1a(hash, t.render_ascii().as_bytes());
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (_, system) in small_family_systems() {
        let system = system.as_ref();
        let laws = [0.1, 0.3, 0.5].map(exact::Law::Iid);
        for law in [exact::Law::Adversary].into_iter().chain(laws) {
            hash = value(hash, exact::optimal_cost(system, law).unwrap());
            let (optimum, best) = exact::optimal_tree(system, law).unwrap();
            hash = tree(value(hash, optimum), &best);
        }
    }
    let mut hard: Vec<(Box<dyn QuorumSystem>, InputDistribution)> = Vec::new();
    for n in [3, 5, 7, 9] {
        let maj = Majority::new(n).unwrap();
        let d = InputDistribution::majority_hard(&maj);
        hard.push((Box::new(maj), d));
    }
    for widths in [vec![1, 2, 3], vec![1, 3, 4], vec![1, 4, 2, 3]] {
        let wall = CrumblingWalls::new(widths).unwrap();
        let d = InputDistribution::cw_hard(&wall);
        hard.push((Box::new(wall), d));
    }
    for h in [1, 2] {
        let t = TreeQuorum::new(h).unwrap();
        let d = InputDistribution::tree_hard(&t);
        hard.push((Box::new(t), d));
    }
    for (system, d) in &hard {
        let law = exact::Law::Support(d);
        hash = value(hash, exact::optimal_cost(system.as_ref(), law).unwrap());
    }
    let maj3 = Majority::new(3).unwrap();
    let (_, figure_4) = exact::optimal_tree(&maj3, exact::Law::Adversary).unwrap();
    hash = tree(hash, &figure_4);
    assert_eq!(hash, PINNED_EXACT, "digest {hash:#018x}");
}
