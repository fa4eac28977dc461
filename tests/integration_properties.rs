//! Cross-crate property-based tests: random quorum-system shapes, random
//! colorings, random strategies — the invariants of the paper must hold for
//! all of them.

use probequorum::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy for generating ND-shaped crumbling walls (first row width 1,
/// remaining rows width 2–5, up to 6 rows).
fn nd_wall() -> impl Strategy<Value = CrumblingWalls> {
    proptest::collection::vec(2usize..=5, 1..=5).prop_map(|mut widths| {
        let mut all = vec![1usize];
        all.append(&mut widths);
        CrumblingWalls::new(all).expect("generated widths are valid")
    })
}

/// Random coloring of a universe of size `n` derived from a bit vector.
fn coloring_for(n: usize, bits: &[bool]) -> Coloring {
    Coloring::from_fn(n, |e| {
        if bits[e % bits.len()] {
            Color::Red
        } else {
            Color::Green
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ND-shaped walls are self-dual (nondominated) — checked on the
    /// coterie of their enumerated minimal quorums for small instances.
    #[test]
    fn nd_walls_are_self_dual(wall in nd_wall()) {
        let n = wall.universe_size();
        prop_assume!(n <= 16);
        let coterie = Coterie::new(n, minimal_quorums(&wall).unwrap()).unwrap();
        prop_assert!(coterie.is_nondominated());
    }

    /// On every wall and coloring, Probe_CW and R_Probe_CW return witnesses
    /// that verify strictly, and Probe_CW never probes more than n elements.
    #[test]
    fn cw_strategies_always_verify(wall in nd_wall(), bits in proptest::collection::vec(any::<bool>(), 1..32), seed in 0u64..1000) {
        let n = wall.universe_size();
        let coloring = coloring_for(n, &bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let run = run_strategy(&wall, &ProbeCw::new(), &coloring, &mut rng);
        prop_assert!(run.witness.verify_strict(&wall, &coloring).is_ok());
        prop_assert!(run.probes <= n);
        let run = run_strategy(&wall, &RProbeCw::new(), &coloring, &mut rng);
        prop_assert!(run.witness.verify_strict(&wall, &coloring).is_ok());
    }

    /// For every coloring of a tree system exactly one of the green/red
    /// quorums exists (self-duality), and Probe_Tree finds it.
    #[test]
    fn tree_self_duality_and_probing(height in 1usize..4, bits in proptest::collection::vec(any::<bool>(), 1..32), seed in 0u64..1000) {
        let tree = TreeQuorum::new(height).unwrap();
        let n = tree.universe_size();
        let coloring = coloring_for(n, &bits);
        prop_assert_ne!(tree.has_green_quorum(&coloring), tree.has_red_quorum(&coloring));
        let mut rng = StdRng::seed_from_u64(seed);
        let run = run_strategy(&tree, &ProbeTree::new(), &coloring, &mut rng);
        prop_assert_eq!(run.witness.is_green(), tree.has_green_quorum(&coloring));
        prop_assert!(run.witness.elements().len() >= tree.min_quorum_size());
        prop_assert!(run.witness.elements().len() <= tree.max_quorum_size());
    }

    /// HQS witnesses always have exactly the uniform quorum size, whatever the
    /// strategy and coloring.
    #[test]
    fn hqs_witnesses_are_uniform(height in 1usize..4, bits in proptest::collection::vec(any::<bool>(), 1..32), seed in 0u64..1000) {
        let hqs = Hqs::new(height).unwrap();
        let n = hqs.universe_size();
        let coloring = coloring_for(n, &bits);
        let mut rng = StdRng::seed_from_u64(seed);
        for run in [
            run_strategy(&hqs, &ProbeHqs::new(), &coloring, &mut rng),
            run_strategy(&hqs, &RProbeHqs::new(), &coloring, &mut rng),
            run_strategy(&hqs, &IrProbeHqs::new(), &coloring, &mut rng),
        ] {
            prop_assert_eq!(run.witness.elements().len(), hqs.quorum_size());
            prop_assert!(run.witness.verify_strict(&hqs, &coloring).is_ok());
        }
    }

    /// The optimal expected probe count (exact solver) is sandwiched between
    /// the minimal quorum size and the universe size, and is monotone in p on
    /// [0, 1/2] for the Majority system: it never falls from p to a second
    /// drawn p′ ∈ [p, 1/2].
    #[test]
    fn exact_solver_bounds_for_majority(n in prop::sample::select(vec![3usize, 5, 7]), p_milli in 0usize..=500, step in 0usize..=500) {
        let maj = Majority::new(n).unwrap();
        let p = p_milli as f64 / 1000.0;
        let value = exact::optimal_cost(&maj, exact::Law::Iid(p)).unwrap();
        prop_assert!(value >= maj.quorum_size() as f64 - 1e-9);
        prop_assert!(value <= n as f64 + 1e-9);
        // Monotonicity towards p = 1/2 (failures make probing harder).
        let p_harder = (p_milli + step * (500 - p_milli) / 500) as f64 / 1000.0;
        let harder = exact::optimal_cost(&maj, exact::Law::Iid(p_harder)).unwrap();
        prop_assert!(harder + 1e-9 >= value, "PPC({p_harder}) = {harder} < PPC({p}) = {value}");
    }

    /// Witness verification rejects tampered witnesses: dropping an element
    /// from a minimal witness always breaks it.
    #[test]
    fn tampered_witnesses_are_rejected(bits in proptest::collection::vec(any::<bool>(), 1..32), seed in 0u64..1000) {
        let hqs = Hqs::new(2).unwrap();
        let coloring = coloring_for(9, &bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let run = run_strategy(&hqs, &ProbeHqs::new(), &coloring, &mut rng);
        // HQS witnesses are minimal quorums, so removing any element must
        // invalidate them.
        let witness = run.witness;
        for e in witness.elements().to_vec() {
            let tampered = Witness::new(witness.kind(), witness.elements().without(e));
            prop_assert!(tampered.verify(&hqs, &coloring).is_err());
        }
    }
}

/// Deterministic cross-check (not a proptest): for every coloring of the
/// height-2 HQS, the three strategies agree with each other and with the
/// ground truth.
#[test]
fn hqs_strategies_agree_everywhere() {
    let hqs = Hqs::new(2).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for coloring in Coloring::enumerate_all(9) {
        let truth = hqs.has_green_quorum(&coloring);
        for _ in 0..2 {
            assert_eq!(
                run_strategy(&hqs, &ProbeHqs::new(), &coloring, &mut rng)
                    .witness
                    .is_green(),
                truth
            );
            assert_eq!(
                run_strategy(&hqs, &RProbeHqs::new(), &coloring, &mut rng)
                    .witness
                    .is_green(),
                truth
            );
            assert_eq!(
                run_strategy(&hqs, &IrProbeHqs::new(), &coloring, &mut rng)
                    .witness
                    .is_green(),
                truth
            );
        }
    }
}
