//! Million-element scale equivalence: the multi-word lane engine must be a
//! pure optimisation. Lane-block widths 4 and 8, the single-word path and
//! the scalar (no-lane-evaluator) fallback must return bit-identical
//! estimates on every family; failure-model lane fills must not
//! depend on how trial words are grouped into blocks; and the sharded
//! evaluation engine must produce bit-identical reports for every thread
//! count and shard size, from n = 64 up to n ≥ 10⁶.

use probequorum::core::lanes::LANE_WIDTHS;
use probequorum::core::DynQuorumSystem;
use probequorum::prelude::*;
use probequorum::sim::batched_failure_probability_wide;
use probequorum::sim::eval::DEFAULT_SHARD_TRIALS;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hides a system's lane evaluators, forcing the wide estimator down the
/// scalar transpose-and-`contains_quorum` fallback.
struct NoLanes(DynQuorumSystem);

impl QuorumSystem for NoLanes {
    fn name(&self) -> String {
        self.0.name()
    }
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }
    fn contains_quorum(&self, set: &ElementSet) -> bool {
        self.0.contains_quorum(set)
    }
    fn min_quorum_size(&self) -> usize {
        self.0.min_quorum_size()
    }
    fn max_quorum_size(&self) -> usize {
        self.0.max_quorum_size()
    }
}

/// Every family, at every supported block width and through the
/// scalar fallback, must produce the bit-identical failure-probability
/// estimate — including at trial counts that leave partial words and
/// partial superblocks.
#[test]
fn every_family_agrees_across_block_widths_and_the_scalar_path() {
    for family in SystemSpec::FAMILIES {
        for hint in [64usize, 200] {
            let spec = SystemSpec::family_with_size_hint(family, hint).unwrap();
            let system = spec.build().unwrap();
            for trials in [64usize, 333] {
                let seed = 0xC0DE ^ (hint as u64) ^ ((trials as u64) << 16);
                let baseline = batched_failure_probability_wide(&system, 0.3, trials, seed, 1);
                for width in LANE_WIDTHS {
                    let wide = batched_failure_probability_wide(&system, 0.3, trials, seed, width);
                    assert_eq!(
                        (baseline.mean, baseline.std_error),
                        (wide.mean, wide.std_error),
                        "{family}(hint {hint}): width {width} diverged from the single word"
                    );
                    let scalar = batched_failure_probability_wide(
                        &NoLanes(system.clone()),
                        0.3,
                        trials,
                        seed,
                        width,
                    );
                    assert_eq!(
                        (baseline.mean, baseline.std_error),
                        (scalar.mean, scalar.std_error),
                        "{family}(hint {hint}): scalar fallback at width {width} diverged"
                    );
                }
            }
        }
    }
}

fn all_models(n: usize) -> Vec<FailureModel> {
    vec![
        FailureModel::iid(0.3),
        FailureModel::heterogeneous((0..n).map(|e| (e % 10) as f64 / 10.0).collect()),
        FailureModel::zoned(n.div_ceil(9), 0.4, 0.2),
        FailureModel::exact_red_count(n / 3),
        FailureModel::churn(n, 0.1, 0.3, 64, 3),
        FailureModel::fixed(Coloring::from_fn(n, |e| {
            if e % 3 == 0 {
                Color::Red
            } else {
                Color::Green
            }
        })),
    ]
}

/// Lane fills must not depend on block grouping: one width-4 block must
/// equal four single-word fills of the same per-word RNG streams, for every
/// failure-model flavour at word-boundary and multi-word universe sizes.
#[test]
fn failure_model_lane_fills_are_invariant_under_width_regrouping() {
    for n in [64usize, 4096] {
        for model in all_models(n) {
            let width = 4usize;
            let first_word = 3u64;
            let stream = |i: u64| StdRng::seed_from_u64(0x5CA1E ^ ((first_word + i) * 0x9E37));

            let mut rngs: Vec<StdRng> = (0..width as u64).map(stream).collect();
            let mut block = vec![0u64; n * width];
            model.sample_green_lanes(n, first_word, &mut rngs, &mut block);

            for w in 0..width {
                let mut rng = [stream(w as u64)];
                let mut word = vec![0u64; n];
                model.sample_green_lanes(n, first_word + w as u64, &mut rng, &mut word);
                for e in 0..n {
                    assert_eq!(
                        word[e],
                        block[e * width + w],
                        "{} n={n}: word {w} of the block diverged at element {e}",
                        model.label()
                    );
                }
            }
        }
    }
}

/// Builds one evaluation plan at roughly the requested universe size. Small
/// universes exercise the generic `SequentialScan`; larger ones stick to the
/// paper's per-family strategies, whose probe runs stay near-linear in n.
fn plan_at(hint: usize, trials: usize, seed: u64) -> EvalPlan {
    let mut plan = EvalPlan::new(seed).trials(trials);
    if hint <= 256 {
        let scan = universal_strategy(SequentialScan::new());
        let systems = SystemRegistry::paper();
        for family in ["Maj", "Tree", "Grid"] {
            let system = systems.build(family, hint).unwrap();
            plan.probe(&system, &scan, ColoringSource::iid(0.3));
            plan.probe(&system, &scan, ColoringSource::iid(0.5));
        }
    } else {
        let maj = erase_system(Majority::new(hint | 1).unwrap());
        let probe_maj = typed_strategy::<Majority, _>(ProbeMaj::new());
        let height = (hint as f64).log2().ceil() as usize;
        let tree = erase_system(TreeQuorum::new(height).unwrap());
        let probe_tree = typed_strategy::<TreeQuorum, _>(ProbeTree::new());
        for p in [0.3, 0.5] {
            plan.probe(&maj, &probe_maj, ColoringSource::iid(p));
            plan.probe(&tree, &probe_tree, ColoringSource::iid(p));
        }
    }
    plan
}

/// The sharded engine contract from n = 64 through n = 65 537: every
/// (thread count, shard size) combination reproduces the single-thread
/// default-shard report bit for bit.
#[test]
fn engine_reports_are_bit_identical_across_threads_and_shard_sizes() {
    for (hint, trials) in [(64usize, 96usize), (4096, 96), (16_384, 16)] {
        let plan = plan_at(hint, trials, 0xFEED ^ hint as u64);
        let baseline = EvalEngine::with_threads(1).run(&plan);
        assert!(!baseline.cells.is_empty());
        for threads in [1usize, 2, 4] {
            for shard_trials in [1usize, 7, DEFAULT_SHARD_TRIALS, 10_000] {
                let engine = EvalEngine::with_threads(threads).with_shard_trials(shard_trials);
                let report = engine.run(&plan);
                assert_eq!(
                    baseline.cells, report.cells,
                    "hint {hint}: report diverged at {threads} thread(s), \
                     {shard_trials}-trial shards"
                );
            }
        }
    }
}

/// The lane engine at n = 10⁶: every block width returns the identical
/// estimate on the million-element Grid, and a rerun reproduces it.
#[test]
fn million_element_grid_is_width_and_rerun_invariant() {
    let grid = Grid::new(1_000, 1_000).unwrap();
    let trials = 64;
    let baseline = batched_failure_probability_wide(&grid, 0.25, trials, 42, 1);
    for width in LANE_WIDTHS {
        let wide = batched_failure_probability_wide(&grid, 0.25, trials, 42, width);
        assert_eq!(
            (baseline.mean, baseline.std_error),
            (wide.mean, wide.std_error),
            "width {width} diverged at n = 10^6"
        );
    }
    let again = batched_failure_probability_wide(&grid, 0.25, trials, 42, 8);
    assert_eq!(
        (baseline.mean, baseline.std_error),
        (again.mean, again.std_error)
    );
}

/// Million-trial plans tile exactly: for any shard size the shards of each
/// cell are contiguous, disjoint, in order and sum to the plan's trial
/// count — the partition the engine parallelises over.
#[test]
fn million_trial_plans_tile_exactly_for_every_shard_size() {
    let plan = plan_at(64, 1_000_000, 0xD1CE);
    let cells = plan.cell_count();
    for shard_trials in [1usize, 7, 64, DEFAULT_SHARD_TRIALS, 1 << 20] {
        let engine = EvalEngine::new().with_shard_trials(shard_trials);
        let shards = engine.shards(&plan);
        let mut next_trial = vec![0u64; cells];
        let mut totals = vec![0usize; cells];
        for shard in &shards {
            assert!(shard.trials >= 1 && shard.trials <= shard_trials);
            assert_eq!(
                shard.first_trial, next_trial[shard.cell_index],
                "shards of cell {} are not contiguous and ordered",
                shard.cell_index
            );
            next_trial[shard.cell_index] += shard.trials as u64;
            totals[shard.cell_index] += shard.trials;
        }
        assert!(
            totals.iter().all(|&t| t == 1_000_000),
            "{shard_trials}-trial tiling lost trials"
        );
    }
}
