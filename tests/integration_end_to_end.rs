//! End-to-end integration tests: build every system family, run every
//! applicable strategy on random and adversarial colorings, and verify the
//! returned witnesses against the ground truth.

use probequorum::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every strategy must return a verified witness whose verdict matches the
/// ground truth on iid-random colorings, across all families and several
/// failure probabilities.
#[test]
fn every_strategy_returns_valid_witnesses_on_random_colorings() {
    let mut rng = StdRng::seed_from_u64(1);
    let probabilities = [0.1, 0.5, 0.9];

    let maj = Majority::new(21).unwrap();
    let wall = CrumblingWalls::new(vec![1, 4, 3, 5, 2]).unwrap();
    let tree = TreeQuorum::new(4).unwrap();
    let hqs = Hqs::new(3).unwrap();

    for &p in &probabilities {
        let model = FailureModel::iid(p);
        for _ in 0..50 {
            // Majority strategies.
            let coloring = model.sample(maj.universe_size(), &mut rng);
            for run in [
                run_strategy(&maj, &ProbeMaj::new(), &coloring, &mut rng),
                run_strategy(&maj, &RProbeMaj::new(), &coloring, &mut rng),
                run_strategy(&maj, &SequentialScan::new(), &coloring, &mut rng),
                run_strategy(&maj, &RandomScan::new(), &coloring, &mut rng),
            ] {
                run.witness.verify_strict(&maj, &coloring).unwrap();
            }

            // Crumbling-walls strategies.
            let coloring = model.sample(wall.universe_size(), &mut rng);
            for run in [
                run_strategy(&wall, &ProbeCw::new(), &coloring, &mut rng),
                run_strategy(&wall, &RProbeCw::new(), &coloring, &mut rng),
            ] {
                run.witness.verify_strict(&wall, &coloring).unwrap();
            }

            // Tree strategies.
            let coloring = model.sample(tree.universe_size(), &mut rng);
            for run in [
                run_strategy(&tree, &ProbeTree::new(), &coloring, &mut rng),
                run_strategy(&tree, &RProbeTree::new(), &coloring, &mut rng),
            ] {
                run.witness.verify_strict(&tree, &coloring).unwrap();
            }

            // HQS strategies.
            let coloring = model.sample(hqs.universe_size(), &mut rng);
            for run in [
                run_strategy(&hqs, &ProbeHqs::new(), &coloring, &mut rng),
                run_strategy(&hqs, &RProbeHqs::new(), &coloring, &mut rng),
                run_strategy(&hqs, &IrProbeHqs::new(), &coloring, &mut rng),
            ] {
                run.witness.verify_strict(&hqs, &coloring).unwrap();
            }
        }
    }
}

/// The catalogue of families builds valid nondominated coteries (except the
/// Grid baseline, which is documented as dominated) at several size hints.
#[test]
fn catalogue_families_are_nondominated_where_claimed() {
    for entry in catalogue() {
        let system = (entry.build)(12);
        if system.universe_size() <= 16 {
            let coterie = system.to_coterie().unwrap();
            let nd = coterie.is_nondominated();
            if entry.family == "Grid" {
                assert!(!nd, "the grid baseline is expected to be dominated");
            } else {
                assert!(nd, "{} should be nondominated", entry.family);
            }
        }
    }
}

/// The exact optimum never exceeds any concrete strategy's exact expected
/// cost, and the strategies never beat the information-theoretic lower bound
/// of Lemma 3.1.
#[test]
fn exact_optimum_brackets_strategy_costs() {
    let mut rng = StdRng::seed_from_u64(2);
    let p = 0.5;

    // Tree of height 2 (n = 7).
    let tree = TreeQuorum::new(2).unwrap();
    let optimum = exact::optimal_expected(&tree, p).unwrap();
    let strategy_cost = exhaustive_expected_probes(&tree, &ProbeTree::new(), p, 1, &mut rng);
    assert!(
        optimum <= strategy_cost + 1e-9,
        "optimum {optimum} vs Probe_Tree {strategy_cost}"
    );
    let c = tree.min_quorum_size();
    assert!(optimum >= c as f64, "optimum below the minimal quorum size");

    // Crumbling wall (1,2,3).
    let wall = CrumblingWalls::triang(3).unwrap();
    let optimum = exact::optimal_expected(&wall, p).unwrap();
    let strategy_cost = exhaustive_expected_probes(&wall, &ProbeCw::new(), p, 1, &mut rng);
    assert!(optimum <= strategy_cost + 1e-9);
    assert!(
        strategy_cost <= 2.0 * wall.row_count() as f64 - 1.0 + 1e-9,
        "Theorem 3.3 violated"
    );
}

/// Availability facts (Fact 2.3) hold across the catalogue at representative
/// failure probabilities, computed exactly on small instances.
#[test]
fn availability_facts_hold_across_families() {
    let systems: Vec<(&str, Box<dyn QuorumSystem>)> = vec![
        ("Maj", Box::new(Majority::new(7).unwrap())),
        ("Wheel", Box::new(Wheel::new(7).unwrap())),
        ("Triang", Box::new(CrumblingWalls::triang(3).unwrap())),
        ("Tree", Box::new(TreeQuorum::new(2).unwrap())),
        ("HQS", Box::new(Hqs::new(2).unwrap())),
    ];
    for (name, system) in &systems {
        for p in [0.05, 0.25, 0.5] {
            let fp = exact_failure_probability(system.as_ref(), p).unwrap();
            let fq = exact_failure_probability(system.as_ref(), 1.0 - p).unwrap();
            assert!(fp <= p + 1e-12, "{name}: F_p > p for p = {p}");
            assert!((fp + fq - 1.0).abs() < 1e-9, "{name}: F_p + F_(1-p) != 1");
        }
    }
}
