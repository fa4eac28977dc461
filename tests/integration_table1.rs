//! Integration tests that reproduce, in miniature, every row of Table 1 of the
//! paper and the Maj3 worked example of Section 2.3.  The full-size
//! reproduction lives in the `bench` crate (`cargo run -p bench --bin
//! reproduce`); these tests keep the claims under `cargo test`.

use probequorum::prelude::*;
use probequorum::sim::eval::{fit_points, CellReport};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One engine cell whose base seed is the next word of `rng`.
fn one_cell(
    system: &DynSystem,
    strategy: &DynProbeStrategy,
    source: ColoringSource,
    trials: usize,
    rng: &mut StdRng,
) -> CellReport {
    let mut plan = EvalPlan::new(rng.next_u64()).trials(trials);
    plan.probe(system, strategy, source);
    EvalEngine::new().run(&plan).cells.remove(0)
}

/// The power-law fit of a sweep at p: one cell per system.
fn sweep_fit(
    systems: &[DynSystem],
    strategy: &DynProbeStrategy,
    p: f64,
    trials: usize,
    rng: &mut StdRng,
) -> PowerLawFit {
    let cells: Vec<CellReport> = systems
        .iter()
        .map(|system| one_cell(system, strategy, ColoringSource::iid(p), trials, rng))
        .collect();
    fit_power_law(&fit_points(&cells))
}

/// Section 2.3: PC(Maj3) = 3, PC_R(Maj3) = 8/3, PPC_{1/2}(Maj3) = 5/2.
#[test]
fn maj3_worked_example() {
    let maj = Majority::new(3).unwrap();

    // Deterministic worst case.
    let (pc, tree) = exact::optimal_tree(&maj, exact::Law::Adversary).unwrap();
    assert_eq!(pc, 3.0);
    tree.validate(&maj).unwrap();

    // Probabilistic model.
    let ppc = exact::optimal_cost(&maj, exact::Law::Iid(0.5)).unwrap();
    assert!((ppc - 2.5).abs() < 1e-12);

    // Randomized worst case: lower bound via Yao on the hard distribution and
    // the matching algorithm R_Probe_Maj.
    let hard = InputDistribution::majority_hard(&maj);
    let lower = exact::optimal_cost(&maj, exact::Law::Support(&hard)).unwrap();
    assert!((lower - 8.0 / 3.0).abs() < 1e-9);
    let mut rng = StdRng::seed_from_u64(1);
    let worst = estimate_worst_case(&maj, &RProbeMaj::new(), 2_000, &mut rng);
    assert!(
        (worst.expected_probes - 8.0 / 3.0).abs() < 0.1,
        "measured {}",
        worst.expected_probes
    );
}

/// Table 1, Maj column: probabilistic ≈ n − Θ(√n); randomized = n − (n−1)/(n+3).
#[test]
fn table1_majority_row() {
    let n = 21;
    let maj = erase_system(Majority::new(n).unwrap());
    let probe_maj = typed_strategy::<Majority, _>(ProbeMaj::new());
    let mut rng = StdRng::seed_from_u64(2);

    // Probabilistic model at p = 1/2: between n − 3√n and n.
    let estimate = one_cell(&maj, &probe_maj, ColoringSource::iid(0.5), 20_000, &mut rng).estimate;
    let sqrt_n = (n as f64).sqrt();
    assert!(
        estimate.mean < n as f64,
        "must save something over probing everything"
    );
    assert!(
        estimate.mean > n as f64 - 3.0 * sqrt_n,
        "saving should be O(sqrt n): measured {}",
        estimate.mean
    );

    // Probabilistic model at p = 0.2: about (n/2)/0.8.
    let estimate = one_cell(&maj, &probe_maj, ColoringSource::iid(0.2), 20_000, &mut rng).estimate;
    let predicted = bounds::maj_probabilistic(n, 0.2);
    assert!(
        (estimate.mean - predicted).abs() < 1.0,
        "measured {} vs predicted {predicted}",
        estimate.mean
    );

    // Randomized worst case: the hard input has exactly (n+1)/2 red elements;
    // on that distribution R_Probe_Maj pays n − (n−1)/(n+3) in expectation.
    let estimate = one_cell(
        &maj,
        &typed_strategy::<Majority, _>(RProbeMaj::new()),
        ColoringSource::exact_red_count(n.div_ceil(2)),
        20_000,
        &mut rng,
    )
    .estimate;
    let predicted = bounds::maj_randomized_exact(n);
    assert!(
        (estimate.mean - predicted).abs() < 4.0 * estimate.std_error + 0.05,
        "measured {} vs predicted {predicted}",
        estimate.mean
    );
}

/// Table 1, Triang column: probabilistic ≤ 2k − 1 (and ≥ 2k − Θ(√k));
/// randomized between (n+k)/2 and (n+k)/2 + log k.
#[test]
fn table1_triang_row() {
    let k = 12;
    let triang = CrumblingWalls::triang(k).unwrap();
    let n = triang.universe_size();
    let mut rng = StdRng::seed_from_u64(3);

    // Probabilistic model.
    let estimate = one_cell(
        &erase_system(triang.clone()),
        &typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        ColoringSource::iid(0.5),
        20_000,
        &mut rng,
    )
    .estimate;
    assert!(
        estimate.mean <= (2 * k - 1) as f64 + 4.0 * estimate.std_error,
        "Theorem 3.3"
    );
    assert!(
        estimate.mean >= k as f64,
        "cannot certify with fewer probes than a quorum"
    );

    // Randomized worst case: measured on colorings sampled from the paper's
    // hard distribution (exactly one green per row, uniformly placed), bounded
    // by Theorem 4.4 / Corollary 4.5.  The full distribution has ∏ n_i members
    // so we sample rather than enumerate.
    let sampled: Vec<Coloring> = (0..60)
        .map(|_| {
            let mut greens = ElementSet::empty(n);
            for row in 0..triang.row_count() {
                let elements = triang.row_elements(row);
                greens.insert(elements.start + rng.gen_range(0..elements.len()));
            }
            Coloring::from_green_set(&greens)
        })
        .collect();
    // 1000 runs per coloring: the max over 60 noisy estimates is biased
    // upward by a couple of standard errors, so the per-coloring estimates
    // must be tight for the Corollary 4.5 comparison to be meaningful.
    let worst = worst_case_over_colorings(&triang, &RProbeCw::new(), &sampled, 1_000, &mut rng);
    let upper = bounds::triang_randomized_upper(n, k);
    let lower = bounds::cw_randomized_lower(n, k);
    assert!(
        worst.expected_probes <= upper + 1.0,
        "measured {} vs Corollary 4.5 upper {upper}",
        worst.expected_probes
    );
    assert!(
        worst.expected_probes + 1.0 >= lower,
        "measured {} vs Theorem 4.6 lower {lower}",
        worst.expected_probes
    );
}

/// Table 1, Tree column: probabilistic O(n^0.585); randomized between 2n/3 and
/// 5n/6.
#[test]
fn table1_tree_row() {
    let mut rng = StdRng::seed_from_u64(4);

    // Probabilistic exponent.
    let trees: Vec<DynSystem> = (3..=8)
        .map(|h| erase_system(TreeQuorum::new(h).unwrap()))
        .collect();
    let probe_tree = typed_strategy::<TreeQuorum, _>(ProbeTree::new());
    let fit = sweep_fit(&trees, &probe_tree, 0.5, 3_000, &mut rng);
    assert!(
        fit.exponent < 0.75 && fit.exponent > 0.45,
        "Tree probabilistic exponent {} should be near 0.585",
        fit.exponent
    );

    // Randomized worst case on a height-3 tree (n = 15): evaluate R_Probe_Tree
    // on the paper's hard distribution (which contains the adversarial
    // inputs), staying below the Theorem 4.7 upper bound.
    let tree = TreeQuorum::new(3).unwrap();
    let n = tree.universe_size();
    let hard = InputDistribution::tree_hard(&tree);
    let colorings: Vec<Coloring> = hard.support().iter().map(|(c, _)| c.clone()).collect();
    let worst = worst_case_over_colorings(&tree, &RProbeTree::new(), &colorings, 200, &mut rng);
    assert!(
        worst.expected_probes <= bounds::tree_randomized_upper(n) + 0.6,
        "measured {} vs 5n/6 + 1/6",
        worst.expected_probes
    );

    // Yao lower bound computed exactly on the hard distribution of the
    // height-2 tree (n = 7): Theorem 4.8 says it forces exactly 2(n+1)/3.
    let small = TreeQuorum::new(2).unwrap();
    let hard = InputDistribution::tree_hard(&small);
    let lower = exact::optimal_cost(&small, exact::Law::Support(&hard)).unwrap();
    assert!(
        (lower - bounds::tree_randomized_lower(7)).abs() < 1e-6,
        "Theorem 4.8: hard distribution forces exactly 2(n+1)/3, got {lower}"
    );
}

/// Table 1, HQS column: probabilistic Θ(n^0.834) at p = 1/2 and cheaper for
/// biased p; randomized upper bound O(n^0.887) via IR_Probe_HQS and lower
/// bound Ω(n^0.834).
#[test]
fn table1_hqs_row() {
    let mut rng = StdRng::seed_from_u64(5);
    let hqss: Vec<DynSystem> = (2..=6)
        .map(|h| erase_system(Hqs::new(h).unwrap()))
        .collect();
    let probe_hqs = typed_strategy::<Hqs, _>(ProbeHqs::new());

    // Probabilistic exponent at p = 1/2.
    let fit = sweep_fit(&hqss, &probe_hqs, 0.5, 3_000, &mut rng);
    let expected = bounds::hqs_probabilistic_exponent_symmetric();
    assert!(
        (fit.exponent - expected).abs() < 0.08,
        "HQS probabilistic exponent {} should be near {expected}",
        fit.exponent
    );

    // Biased p is strictly cheaper (O(n^0.63)).
    let biased_fit = sweep_fit(&hqss, &probe_hqs, 0.2, 3_000, &mut rng);
    assert!(
        biased_fit.exponent < fit.exponent - 0.05,
        "biased exponent {} should be visibly below the symmetric one {}",
        biased_fit.exponent,
        fit.exponent
    );

    // Randomized worst case: IR_Probe_HQS is never worse than R_Probe_HQS on
    // the all-same-color inputs and both stay below n; the full exponent
    // comparison is part of the bench harness.  Here we check the Maj3-style
    // base case and that the strategies cope with the hardest small instance.
    let hqs = Hqs::new(2).unwrap();
    let worst_plain = estimate_worst_case(&hqs, &RProbeHqs::new(), 300, &mut rng);
    let worst_improved = estimate_worst_case(&hqs, &IrProbeHqs::new(), 300, &mut rng);
    assert!(worst_plain.expected_probes <= 9.0);
    assert!(worst_improved.expected_probes <= 9.0);
    assert!(worst_plain.expected_probes >= 4.0);
    assert!(worst_improved.expected_probes >= 4.0);
}

/// Lemma 2.2 (evasiveness) and Theorem 4.1 (max-quorum lower bound) on small
/// instances of every family.
#[test]
fn deterministic_worst_case_and_trivial_randomized_lower_bound() {
    let systems: Vec<(&str, Box<dyn QuorumSystem>)> = vec![
        ("Maj", Box::new(Majority::new(7).unwrap())),
        ("Wheel", Box::new(Wheel::new(6).unwrap())),
        ("CW", Box::new(CrumblingWalls::new(vec![1, 2, 3]).unwrap())),
        ("Tree", Box::new(TreeQuorum::new(2).unwrap())),
    ];
    for (name, system) in &systems {
        let pc = exact::optimal_cost(system.as_ref(), exact::Law::Adversary).unwrap();
        assert_eq!(
            pc,
            system.universe_size() as f64,
            "{name} should be evasive (Lemma 2.2)"
        );
        assert!(
            bounds::randomized_lower_max_quorum(system.max_quorum_size()) <= pc,
            "{name}: Theorem 4.1 sanity"
        );
    }
    // HQS is NOT known to be evasive from Lemma 2.2; its deterministic probe
    // complexity for h=1 equals 3 — still n for that size.
    let hqs = Hqs::new(1).unwrap();
    assert_eq!(
        exact::optimal_cost(&hqs, exact::Law::Adversary).unwrap(),
        3.0
    );
}
