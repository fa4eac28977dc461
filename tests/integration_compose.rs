//! Equivalence suite for recursive threshold compositions: on random
//! composition trees the word-parallel lane circuit, the scalar and delta
//! evaluators and the enumerated coterie must tell the same story, and the
//! Tree, HQS and Grid systems re-expressed as `Compose` trees must be
//! bit-identical to the native constructions across the scalar, lane and
//! delta evaluation paths and across engine thread counts.

use probequorum::prelude::*;
use probequorum::sim::eval::universal_strategy;
use proptest::prelude::*;
use quorum_core::lanes::LANE_WIDTHS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random composition tree over the elements of `elements`, each
/// appearing as at least one leaf: the slice is cut into 2–4 contiguous
/// chunks, singleton chunks become leaves, larger chunks recurse. One gate
/// in three also takes an extra leaf repeating an element of `0..n`, and the
/// gate's threshold is drawn from `1..=children`, or is 0 (constant true)
/// one time in eight.
fn random_compose(rng: &mut StdRng, elements: &[ElementId], n: usize) -> SystemSpec {
    assert!(elements.len() >= 2);
    let chunk_count = rng.gen_range(2..=elements.len().min(4));
    // Random cut points partition the slice into `chunk_count` chunks.
    let mut cuts = vec![0, elements.len()];
    while cuts.len() < chunk_count + 1 {
        let cut = rng.gen_range(1..elements.len());
        if !cuts.contains(&cut) {
            cuts.push(cut);
        }
    }
    cuts.sort_unstable();
    let mut children: Vec<SystemSpec> = cuts
        .windows(2)
        .map(|w| {
            let chunk = &elements[w[0]..w[1]];
            if chunk.len() == 1 {
                SystemSpec::Leaf(chunk[0])
            } else {
                random_compose(rng, chunk, n)
            }
        })
        .collect();
    if rng.gen_range(0..3) == 0 {
        children.push(SystemSpec::Leaf(rng.gen_range(0..n)));
    }
    let threshold = if rng.gen_range(0..8) == 0 {
        0
    } else {
        rng.gen_range(1..=children.len())
    };
    SystemSpec::Compose {
        threshold,
        children,
    }
}

/// Lane words for `n` elements at `width` words each, every element biased
/// toward all-zero or all-one lanes so that AND and OR gates decide every
/// lane before their last leaf: exact `0` or `u64::MAX` words, the AND or OR
/// of three random words, or uniform words.
fn biased_lanes(rng: &mut StdRng, n: usize, width: usize) -> Vec<u64> {
    let mut lanes = Vec::with_capacity(n * width);
    for _ in 0..n {
        let bias = rng.gen_range(0..5);
        for _ in 0..width {
            lanes.push(match bias {
                0 => 0,
                1 => u64::MAX,
                2 => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
                3 => rng.gen::<u64>() | rng.gen::<u64>() | rng.gen::<u64>(),
                _ => rng.gen(),
            });
        }
    }
    lanes
}

/// Scalar reference: does any of the enumerated quorums lie inside the
/// green set of `coloring`?
fn enumerated_verdict(quorums: &[ElementSet], coloring: &Coloring) -> bool {
    let n = coloring.universe_size();
    let green = ElementSet::from_iter(n, (0..n).filter(|&e| coloring.is_green(e)));
    quorums.iter().any(|q| q.is_subset(&green))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random composition trees with n ≤ 16 elements (repeated leaves
    /// and constant-true gates included), the lane circuit at widths 1, 4
    /// and 8, the scalar evaluator, the delta evaluator and the enumerated
    /// coterie agree on every packed trial of a biased lane block.
    #[test]
    fn random_trees_lane_scalar_coterie_agree(seed in 0u64..10_000, n in 2usize..=16) {
        let mut rng = StdRng::seed_from_u64(seed);
        let elements: Vec<ElementId> = (0..n).collect();
        let spec = random_compose(&mut rng, &elements, n);
        prop_assert!(spec.validate().is_ok(), "generated specs are valid");
        let system = spec.build().unwrap();
        prop_assert_eq!(system.universe_size(), n);

        // Random trees need not be intersecting; the coterie of the
        // enumerated minimal quorums must be refused with the typed error
        // exactly when they hold a disjoint pair, never panic.
        let quorums = minimal_quorums(system.as_ref()).unwrap();
        match Coterie::new(n, quorums.clone()) {
            Ok(coterie) => {
                prop_assert_eq!(find_disjoint_pair(coterie.quorums()), None);
            }
            Err(QuorumError::NotIntersecting { .. }) => {
                prop_assert!(find_disjoint_pair(&quorums).is_some());
            }
            // A constant-true root: the empty quorum is no coterie.
            Err(QuorumError::Empty) => {
                prop_assert_eq!(&quorums, &vec![ElementSet::empty(n)]);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }

        // Word w of the width-8 block, as a single-word lane slice.
        const MAX_WIDTH: usize = 8;
        let lanes = biased_lanes(&mut rng, n, MAX_WIDTH);
        let word = |w: usize| -> Vec<u64> { (0..n).map(|e| lanes[e * MAX_WIDTH + w]).collect() };
        let mut singles = [0u64; MAX_WIDTH];
        for (w, single) in singles.iter_mut().enumerate() {
            prop_assert!(system.green_quorum_lane_block(&word(w), 1, std::slice::from_mut(single)));
        }
        for width in LANE_WIDTHS {
            let block: Vec<u64> = (0..n * width)
                .map(|i| lanes[(i / width) * MAX_WIDTH + i % width])
                .collect();
            let mut out = vec![0u64; width];
            prop_assert!(system.green_quorum_lane_block(&block, width, &mut out));
            prop_assert_eq!(&out[..], &singles[..width], "lane block at width {}", width);
        }

        // The delta evaluator walks the same trials one coloring after
        // another.
        let mut delta_eval = delta_evaluator_for(&system);
        let mut previous: Option<Coloring> = None;
        for (w, verdicts) in singles.iter().enumerate() {
            let words = word(w);
            for lane in 0..64 {
                let coloring = Coloring::from_fn(n, |e| {
                    if (words[e] >> lane) & 1 == 1 {
                        Color::Green
                    } else {
                        Color::Red
                    }
                });
                let scalar = system.has_green_quorum(&coloring);
                prop_assert_eq!((verdicts >> lane) & 1 == 1, scalar, "lane vs scalar");
                prop_assert_eq!(enumerated_verdict(&quorums, &coloring), scalar, "enumeration vs scalar");
                let delta = match &previous {
                    None => delta_eval.reset(&coloring),
                    Some(before) => delta_eval.update(&coloring, &before.diff(&coloring)),
                };
                prop_assert_eq!(delta, scalar, "delta vs scalar");
                previous = Some(coloring);
            }
        }
    }

}

/// The Tree/HQS/Grid-as-Compose pairs of the construction API, with their
/// native counterparts.
fn as_compose_pairs() -> Vec<(&'static str, DynQuorumSystem, SystemSpec)> {
    vec![
        (
            "tree(h=3)",
            std::sync::Arc::new(TreeQuorum::new(3).unwrap()),
            SystemSpec::tree_as_compose(3),
        ),
        (
            "hqs(h=2)",
            std::sync::Arc::new(Hqs::new(2).unwrap()),
            SystemSpec::hqs_as_compose(2),
        ),
        (
            "grid(4x4)",
            std::sync::Arc::new(Grid::new(4, 4).unwrap()),
            SystemSpec::grid_as_compose(4, 4),
        ),
    ]
}

/// Scalar, lane and lane-block evaluation of the as-Compose trees must be
/// bit-identical to the native systems on shared random inputs.
#[test]
fn as_compose_matches_native_on_scalar_and_lane_paths() {
    let mut rng = StdRng::seed_from_u64(0xC0_FFEE);
    for (name, native, spec) in as_compose_pairs() {
        let composed = spec.build().unwrap();
        let n = native.universe_size();
        assert_eq!(composed.universe_size(), n, "{name}");
        assert_eq!(
            composed.min_quorum_size(),
            native.min_quorum_size(),
            "{name}"
        );
        assert_eq!(
            composed.max_quorum_size(),
            native.max_quorum_size(),
            "{name}"
        );

        for _ in 0..64 {
            let coloring = Coloring::from_fn(n, |_| {
                if rng.gen_bool(0.5) {
                    Color::Green
                } else {
                    Color::Red
                }
            });
            assert_eq!(
                composed.has_green_quorum(&coloring),
                native.has_green_quorum(&coloring),
                "{name}: scalar verdict diverged"
            );
        }

        for width in LANE_WIDTHS {
            let lanes: Vec<u64> = (0..n * width).map(|_| rng.gen()).collect();
            let mut out_native = vec![0u64; width];
            let mut out_composed = vec![0u64; width];
            assert!(native.green_quorum_lane_block(&lanes, width, &mut out_native));
            assert!(composed.green_quorum_lane_block(&lanes, width, &mut out_composed));
            assert_eq!(out_native, out_composed, "{name}: lane block w={width}");
        }
    }
}

/// The delta evaluators of native and as-Compose systems must agree with
/// each other and with from-scratch evaluation on every step of a churn
/// trajectory.
#[test]
fn as_compose_matches_native_on_the_delta_path() {
    for (name, native, spec) in as_compose_pairs() {
        let composed = spec.build().unwrap();
        let n = native.universe_size();
        let trajectory = ChurnTrajectory::generate(n, 0.12, 0.3, 400, 0x5eed ^ n as u64);
        let mut native_eval = delta_evaluator_for(&native);
        let mut composed_eval = delta_evaluator_for(&composed);
        let mut walker = trajectory.walk();
        let mut primed = false;
        while let Some((coloring, delta)) = walker.step() {
            let (a, b) = if primed {
                (
                    native_eval.update(coloring, delta),
                    composed_eval.update(coloring, delta),
                )
            } else {
                primed = true;
                (native_eval.reset(coloring), composed_eval.reset(coloring))
            };
            assert_eq!(a, b, "{name}: delta verdicts diverged");
            assert_eq!(
                b,
                composed.has_green_quorum(coloring),
                "{name}: delta vs from-scratch"
            );
        }
    }
}

/// Engine reports over native and spec-built systems are bit-identical to
/// each other and across worker-thread counts. The two plans list the same
/// cells in the same order with the same base seed, so cell `i` of each
/// report draws the identical trials — any estimate difference would be a
/// behavioural divergence between the native system and its Compose form.
#[test]
fn as_compose_reports_are_bit_identical_across_thread_counts() {
    use probequorum::sim::eval::{
        erase_spec, erase_system, ColoringSource, DynSystem, EvalEngine, EvalPlan,
    };

    let plan_over = |systems: Vec<DynSystem>| {
        let mut plan = EvalPlan::new(0xBEEF).trials(400);
        let scan = universal_strategy(SequentialScan::new());
        for system in &systems {
            plan.probe(system, &scan, ColoringSource::iid(0.3));
        }
        plan
    };
    let native_plan = plan_over(
        as_compose_pairs()
            .into_iter()
            .map(|(_, native, _)| erase_system(native))
            .collect(),
    );
    let composed_plan = plan_over(
        as_compose_pairs()
            .into_iter()
            .map(|(_, _, spec)| erase_spec(&spec).unwrap())
            .collect(),
    );

    let native = EvalEngine::with_threads(1).run(&native_plan);
    let composed = EvalEngine::with_threads(1).run(&composed_plan);
    assert_eq!(native.cells.len(), composed.cells.len());
    for (a, b) in native.cells.iter().zip(&composed.cells) {
        assert_eq!(a.estimate, b.estimate, "native vs as-Compose");
    }
    for threads in [4, 8] {
        let parallel = EvalEngine::with_threads(threads).run(&composed_plan);
        assert_eq!(
            composed.fingerprint().1,
            parallel.fingerprint().1,
            "report diverged at {threads} threads"
        );
    }
}

/// Degenerate compositions neither panic nor return dominated sets: a
/// 1-of-k gate over overlapping subtrees enumerates a clean antichain, and
/// org-majority specs build systems whose blocking-set structure certifies
/// intersection.
#[test]
fn degenerate_and_org_compositions_stay_canonical() {
    // Repeated leaves: 2-of-3 over (0, 0, 1) — the quorum {0, 1} and the
    // (repeated-leaf) quorum {0} collapse to the minimal antichain {{0}}.
    let spec = SystemSpec::parse("2(0,0,1)").unwrap();
    let system = spec.build().unwrap();
    let quorums = minimal_quorums(system.as_ref()).unwrap();
    assert_eq!(quorums, vec![ElementSet::from_iter(2, [0])]);
    let coterie = Coterie::new(2, quorums).unwrap();
    assert_eq!(coterie.quorum_count(), 1);

    // A 1-of-2 of overlapping majorities is NOT intersecting ({0,1} and
    // {2,3} are disjoint quorums) — the certificate must catch it and
    // `Coterie::new` must return the typed error, not a dominated coterie.
    let spec = SystemSpec::parse("1(2(0,1,2),2(1,2,3))").unwrap();
    let system = spec.build().unwrap();
    let quorums = minimal_quorums(system.as_ref()).unwrap();
    assert!(find_disjoint_pair(&quorums).is_some());
    assert!(matches!(
        Coterie::new(4, quorums),
        Err(QuorumError::NotIntersecting { .. })
    ));
    // Raising the gate to 2-of-2 restores intersection.
    let both = SystemSpec::parse("2(2(0,1,2),2(1,2,3))").unwrap();
    let both = both.build().unwrap();
    assert_eq!(
        find_disjoint_pair(&minimal_quorums(both.as_ref()).unwrap()),
        None
    );

    // The organization majority certifies intersection and brackets its
    // availability through the blocking sets.
    let spec = SystemSpec::org_majority(3, 3);
    let system = spec.build().unwrap();
    let quorums = minimal_quorums(system.as_ref()).unwrap();
    assert_eq!(find_disjoint_pair(&quorums), None);
    let blocking = minimal_blocking_sets(system.as_ref()).unwrap();
    let bounds = availability_bounds(&blocking, 0.2);
    assert!(bounds.lower <= bounds.upper);
    assert!(bounds.upper <= 1.0);
}
