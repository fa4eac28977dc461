//! Integration tests for the registry-driven parallel evaluation engine:
//! thread-count-independent determinism, registry coverage, and paper
//! values read off plan cells.

use probequorum::prelude::*;
use probequorum::sim::eval::{trial_values, TrialRng};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Builds a representative plan: several systems × strategies × sources,
/// including a custom Monte-Carlo cell.
fn representative_plan(base_seed: u64) -> EvalPlan {
    let systems = SystemRegistry::paper();
    let strategies = StrategyRegistry::paper();
    let mut plan = EvalPlan::new(base_seed).trials(400);

    let maj = systems.build("Maj", 21).unwrap();
    let triang = systems.build("Triang", 21).unwrap();
    let tree = systems.build("Tree", 31).unwrap();
    let hqs = systems.build("HQS", 27).unwrap();

    plan.probe(
        &maj,
        &strategies.build("Probe_Maj").unwrap(),
        ColoringSource::iid(0.5),
    );
    plan.probe(
        &maj,
        &strategies.build("R_Probe_Maj").unwrap(),
        ColoringSource::exact_red_count(11),
    );
    plan.probe(
        &triang,
        &strategies.build("Probe_CW").unwrap(),
        ColoringSource::iid(0.3),
    );
    plan.probe(
        &tree,
        &strategies.build("Probe_Tree").unwrap(),
        ColoringSource::iid(0.5),
    );
    plan.probe(
        &hqs,
        &strategies.build("IR_Probe_HQS").unwrap(),
        ColoringSource::iid(0.5),
    );
    plan.probe(
        &maj,
        &strategies.build("RandomScan").unwrap(),
        ColoringSource::iid(0.5),
    );
    plan.custom("uniform-mean", 400, |_, rng| {
        use rand::Rng;
        rng.gen_range(0.0f64..1.0)
    });
    plan
}

/// The tentpole determinism guarantee: a parallel run and a forced
/// single-thread run of the same plan produce **bit-identical** reports.
#[test]
fn eval_report_is_bit_identical_across_thread_counts() {
    let plan = representative_plan(0xC0FFEE);
    let parallel = EvalEngine::with_threads(8).run(&plan);
    let single = EvalEngine::with_threads(1).run(&plan);
    assert_eq!(parallel.cells.len(), single.cells.len());
    for (a, b) in parallel.cells.iter().zip(&single.cells) {
        // Estimate is all f64 fields compared exactly: bit-identical or bust.
        assert_eq!(a, b, "cell diverged between thread counts");
    }
    assert_eq!(parallel.fingerprint().1, single.fingerprint().1);

    // And the same plan run twice is identical, too.
    let again = EvalEngine::with_threads(8).run(&plan);
    assert_eq!(parallel.fingerprint().1, again.fingerprint().1);
}

/// Different base seeds must actually change the trials.
#[test]
fn base_seed_changes_results() {
    let a = EvalEngine::new().run(&representative_plan(1));
    let b = EvalEngine::new().run(&representative_plan(2));
    assert_ne!(
        a.fingerprint().1,
        b.fingerprint().1,
        "different seeds produced identical reports"
    );
}

/// The shared trial runner is deterministic and order-preserving.
#[test]
fn trial_values_are_deterministic() {
    let f = |trial: u64, rng: &mut TrialRng| {
        use rand::Rng;
        trial as f64 + rng.gen_range(0.0f64..1.0)
    };
    let a = trial_values(1_000, 42, 7, f);
    let b = trial_values(1_000, 42, 7, f);
    assert_eq!(a, b);
    // Values are indexed by trial, not by completion order.
    for (i, v) in a.iter().enumerate() {
        assert!(*v >= i as f64 && *v < i as f64 + 1.0);
    }
    // A different cell id gives a different stream.
    let c = trial_values(1_000, 42, 8, f);
    assert_ne!(a, c);
}

/// Registry coverage: every system family × every compatible strategy runs
/// without panicking on a small universe, under each failure model flavour.
#[test]
fn every_registry_pair_runs_on_small_universes() {
    let systems = SystemRegistry::paper();
    let strategies = StrategyRegistry::paper();
    let pairs = strategies.compatible_pairs(&systems, 9);
    assert!(!pairs.is_empty());

    let mut plan = EvalPlan::new(99).trials(40);
    for (system, strategy) in &pairs {
        let n = system.universe_size();
        plan.probe(system, strategy, ColoringSource::iid(0.5));
        plan.probe(system, strategy, ColoringSource::exact_red_count(n / 2));
        plan.probe(
            system,
            strategy,
            ColoringSource::fixed(Coloring::all_green(n)),
        );
    }
    let report = EvalEngine::new().run(&plan);
    assert_eq!(report.cells.len(), pairs.len() * 3);
    for cell in &report.cells {
        let n = cell.universe_size.expect("probe cells record the universe") as f64;
        assert!(
            cell.estimate.mean >= 1.0,
            "{}/{} probed nothing",
            cell.system,
            cell.strategy
        );
        assert!(
            cell.estimate.mean <= n,
            "{}/{} overprobed",
            cell.system,
            cell.strategy
        );
    }
}

/// An expected probe count is one plan cell: PPC_{1/2}(Maj5) = 4.125 exactly
/// (Probe_Maj is optimal), the cell's estimate is consistent with it, and
/// the same plan reproduces the estimate bit for bit.
#[test]
fn one_cell_plan_matches_the_exact_probe_complexity() {
    let maj = Majority::new(5).unwrap();
    let exact = exact::optimal_cost(&maj, exact::Law::Iid(0.5)).unwrap();
    let mut plan = EvalPlan::new(StdRng::seed_from_u64(11).next_u64()).trials(5_000);
    plan.probe(
        &erase_system(maj),
        &typed_strategy::<Majority, _>(ProbeMaj::new()),
        ColoringSource::iid(0.5),
    );
    let first = EvalEngine::new().run(&plan).cells[0].estimate;
    let second = EvalEngine::with_threads(1).run(&plan).cells[0].estimate;
    assert_eq!(first, second, "the same plan must reproduce the estimate");
    assert!(
        first.is_consistent_with(exact, 5.0),
        "estimate {first:?} vs exact {exact}"
    );
}

/// A worst-case search laid out as one-cell-per-coloring matches the legacy
/// `estimate_worst_case` semantics.
#[test]
fn per_coloring_cells_support_worst_case_searches() {
    let systems = SystemRegistry::paper();
    let strategies = StrategyRegistry::paper();
    let maj = systems.build("Maj", 5).unwrap();
    let scan = strategies.build("SequentialScan").unwrap();

    let colorings = Coloring::enumerate_all(5);
    let mut plan = EvalPlan::new(3);
    plan.probe_each_coloring(&maj, &scan, &colorings, 1);
    let report = EvalEngine::new().run(&plan);
    let worst = report.max_mean_cell().unwrap();
    // Maj5 is evasive: some coloring forces all 5 probes from the scan.
    assert_eq!(worst.estimate.mean, 5.0);
}
