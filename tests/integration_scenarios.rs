//! Integration tests for the failure-scenario subsystem: the sampling laws
//! of the new models (zoned, heterogeneous, churn), scenario-matrix plan
//! cells, and thread-count determinism of churn timelines end to end.

use std::sync::Arc;

use probequorum::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Law: `Zoned` with `q = 0` is **exactly** `Iid(p)` — same RNG stream,
    /// same colorings — for every zone count, universe size and p.
    #[test]
    fn prop_zoned_q_zero_is_iid(
        n in 1usize..40,
        zone_count in 1usize..8,
        p_milli in 0u32..=1000,
        seed in 0u64..1000,
    ) {
        prop_assume!(zone_count <= n);
        let p = f64::from(p_milli) / 1000.0;
        let zoned = FailureModel::zoned(zone_count, 0.0, p);
        let iid = FailureModel::iid(p);
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        for trial in 0..8u64 {
            prop_assert_eq!(
                zoned.sample_at(n, trial, &mut rng_a),
                iid.sample_at(n, trial, &mut rng_b)
            );
        }
    }

    /// Law: `Heterogeneous` red rates converge to each element's own `p`.
    #[test]
    fn prop_heterogeneous_rates_converge(
        probs_milli in proptest::collection::vec(0u32..=1000, 2..10),
        seed in 0u64..100,
    ) {
        let probs: Vec<f64> = probs_milli.iter().map(|&m| f64::from(m) / 1000.0).collect();
        let n = probs.len();
        let model = FailureModel::heterogeneous(probs.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let trials = 2_000usize;
        let mut red_counts = vec![0usize; n];
        let mut scratch = Coloring::all_green(0);
        for trial in 0..trials {
            model.sample_into(n, trial as u64, &mut rng, &mut scratch);
            for (e, count) in red_counts.iter_mut().enumerate() {
                if scratch.is_red(e) {
                    *count += 1;
                }
            }
        }
        for (e, &count) in red_counts.iter().enumerate() {
            let rate = count as f64 / trials as f64;
            // 2000 trials ⇒ std error ≤ 0.011; 0.06 is a >5σ tolerance.
            prop_assert!(
                (rate - probs[e]).abs() < 0.06,
                "element {} converged to {} instead of {}", e, rate, probs[e]
            );
        }
    }

    /// Law: churn trajectories are a pure function of their parameters and
    /// seed.
    #[test]
    fn prop_churn_trajectories_replay_from_seed(
        n in 1usize..30,
        fail_milli in 1u32..=1000,
        repair_milli in 1u32..=1000,
        steps in 1usize..50,
        seed in 0u64..1000,
    ) {
        let fail = f64::from(fail_milli) / 1000.0;
        let repair = f64::from(repair_milli) / 1000.0;
        let a = ChurnTrajectory::generate(n, fail, repair, steps, seed);
        let b = ChurnTrajectory::generate(n, fail, repair, steps, seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), steps);
        prop_assert_eq!(a.universe_size(), n);
    }
}

/// Churn cells are bit-identical across engine thread counts: the timeline
/// is precomputed from the seed, and parallel trials only read it.
#[test]
fn churn_cells_are_bit_identical_across_thread_counts() {
    let systems = SystemRegistry::paper();
    let strategies = StrategyRegistry::paper();
    let maj = systems.build("Maj", 21).unwrap();
    let tree = systems.build("Tree", 31).unwrap();
    let n_maj = maj.universe_size();
    let n_tree = tree.universe_size();

    let build_plan = || {
        let mut plan = EvalPlan::new(0xC0DE).trials(600);
        plan.probe(
            &maj,
            &strategies.build("Probe_Maj").unwrap(),
            ColoringSource::churn(n_maj, 0.1, 0.3, 128, 5),
        );
        plan.probe(
            &tree,
            &strategies.build("Probe_Tree").unwrap(),
            ColoringSource::churn(n_tree, 0.3, 0.3, 64, 6),
        );
        plan
    };
    let single = EvalEngine::with_threads(1).run(&build_plan());
    let parallel = EvalEngine::with_threads(8).run(&build_plan());
    assert_eq!(
        single.cells, parallel.cells,
        "churn trials diverged across thread counts"
    );
}

/// The full scenario matrix — every system × strategy × scenario — runs as
/// first-class plan cells and stays deterministic across thread counts.
#[test]
fn scenario_matrix_cells_are_deterministic() {
    let systems: Vec<DynSystem> = SystemRegistry::paper()
        .entries()
        .iter()
        .map(|e| (e.build)(12))
        .collect();
    let strategies: Vec<DynProbeStrategy> = ["Probe_Maj", "Probe_Tree", "SequentialScan"]
        .iter()
        .map(|name| StrategyRegistry::paper().build(name).unwrap())
        .collect();
    let scenarios = ScenarioRegistry::standard();

    let build_plan = || {
        let mut plan = EvalPlan::new(42).trials(50);
        plan.matrix(&systems, &strategies, &scenarios);
        plan
    };
    let plan = build_plan();
    // Every system supports the sequential scan, so at least |systems| ×
    // |scenarios| cells; the typed strategies add their families' cells.
    assert!(
        plan.cell_count() >= systems.len() * scenarios.entries().len(),
        "matrix queued too few cells: {}",
        plan.cell_count()
    );

    let a = EvalEngine::with_threads(1).run(&plan);
    let b = EvalEngine::with_threads(8).run(&build_plan());
    assert_eq!(a.cells, b.cells, "scenario matrix diverged");

    // Probe counts stay within the universe bound under every scenario.
    for cell in &a.cells {
        let n = cell.universe_size.expect("matrix cells probe systems") as f64;
        assert!(
            cell.estimate.mean >= 1.0 && cell.estimate.mean <= n,
            "{cell:?}"
        );
    }
}

/// The heterogeneous and zoned sources compose with the engine's paired
/// comparisons: the same model instance in two cells yields the same label
/// and plausible means.
#[test]
fn heterogeneous_and_zoned_sources_run_through_the_engine() {
    let systems = SystemRegistry::paper();
    let strategies = StrategyRegistry::paper();
    let maj = systems.build("Maj", 15).unwrap();
    let n = maj.universe_size();
    let scan = strategies.build("SequentialScan").unwrap();

    let hotspot: Vec<f64> = (0..n).map(|e| if e < 2 { 0.95 } else { 0.05 }).collect();
    let mut plan = EvalPlan::new(77).trials(400);
    plan.probe(&maj, &scan, ColoringSource::heterogeneous(hotspot));
    plan.probe(&maj, &scan, ColoringSource::zoned_correlated(3, 0.3, 0.8));
    let report = EvalEngine::new().run(&plan);

    assert!(report.cells[0].model.contains("hetero"));
    assert!(report.cells[1].model.contains("zoned"));
    for cell in &report.cells {
        assert!(cell.estimate.mean >= 1.0 && cell.estimate.mean <= n as f64);
    }
}

/// Churn sources shared via one trajectory give *paired* colorings: two
/// strategies on the same timeline see identical inputs per trial.
#[test]
fn shared_churn_trajectory_pairs_cells() {
    let systems = SystemRegistry::paper();
    let strategies = StrategyRegistry::paper();
    let maj = systems.build("Maj", 9).unwrap();
    let n = maj.universe_size();
    let trajectory = Arc::new(ChurnTrajectory::generate(n, 0.2, 0.4, 32, 17));

    // A deterministic strategy probing the identical timeline in two cells
    // must produce identical trial streams (the RNG differs per cell, but
    // Probe_Maj ignores it).
    let probe = strategies.build("Probe_Maj").unwrap();
    let mut plan = EvalPlan::new(5).trials(200);
    plan.probe(
        &maj,
        &probe,
        ColoringSource::churn_trajectory(Arc::clone(&trajectory)),
    );
    plan.probe(
        &maj,
        &probe,
        ColoringSource::churn_trajectory(Arc::clone(&trajectory)),
    );
    let report = EvalEngine::new().run(&plan);
    assert_eq!(
        report.cells[0].estimate, report.cells[1].estimate,
        "identical timeline + deterministic strategy must match exactly"
    );
}

/// Stationarity: the long-run time-average per-element availability of a
/// churn trajectory converges to the fail/repair chain's stationary
/// distribution `p_repair / (p_fail + p_repair)` — the law every churn
/// experiment's "stationary red" column relies on.
#[test]
fn churn_time_average_availability_matches_the_stationary_distribution() {
    let n = 30usize;
    let steps = 6_000usize;
    for (fail, repair, seed) in [
        (0.05, 0.15, 11u64),
        (0.3, 0.5, 12),
        (0.02, 0.02, 13),
        (0.5, 0.1, 14),
    ] {
        let trajectory = ChurnTrajectory::generate(n, fail, repair, steps, seed);
        let expected_availability = repair / (fail + repair);
        assert!(
            (trajectory.stationary_red_fraction() - (1.0 - expected_availability)).abs() < 1e-12
        );

        let green_steps: usize = trajectory
            .iter()
            .map(|coloring| coloring.green_count())
            .sum();
        let availability = green_steps as f64 / (n * steps) as f64;
        // Mixing time is ~1/(fail+repair) steps, so the slowest chain here
        // (0.04 total rate) still yields thousands of effective samples:
        // 0.03 is a multi-sigma tolerance for every regime.
        assert!(
            (availability - expected_availability).abs() < 0.03,
            "fail={fail} repair={repair}: time-average availability \
             {availability} vs stationary {expected_availability}"
        );

        // Convergence, not coincidence: the second half of the timeline
        // alone agrees with the stationary value too, so the average is not
        // carried by a lucky initial draw.
        let half: usize = trajectory
            .iter()
            .skip(steps / 2)
            .map(|coloring| coloring.green_count())
            .sum();
        let half_availability = half as f64 / (n * (steps - steps / 2)) as f64;
        assert!(
            (half_availability - expected_availability).abs() < 0.04,
            "fail={fail} repair={repair}: second-half availability \
             {half_availability} vs stationary {expected_availability}"
        );
    }
}
