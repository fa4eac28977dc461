//! The [`Estimate`] every engine cell reports, and exhaustive expected probe
//! counts over all colorings of a small system.
//!
//! Monte-Carlo expected probe counts come from an
//! [`EvalPlan`](crate::eval::EvalPlan) cell run by the
//! [`EvalEngine`](crate::eval::EvalEngine).

use quorum_analysis::RunningStats;
use quorum_core::{Coloring, QuorumSystem};
use quorum_probe::{run_strategy, ProbeStrategy};
use rand::Rng;

/// An estimate of an expected probe count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean of the probe count.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Smallest observed probe count.
    pub min: f64,
    /// Largest observed probe count.
    pub max: f64,
    /// Number of runs behind the estimate.
    pub samples: u64,
}

impl Estimate {
    pub(crate) fn from_stats(stats: &RunningStats) -> Self {
        let summary = stats.summary();
        Estimate {
            mean: summary.mean,
            std_error: summary.std_error,
            min: summary.min,
            max: summary.max,
            samples: summary.count,
        }
    }

    /// Whether `value` lies within `z` standard errors of the estimated mean.
    pub fn is_consistent_with(&self, value: f64, z: f64) -> bool {
        (value - self.mean).abs() <= z * self.std_error.max(1e-12)
    }
}

/// Computes the *exact* expected probe count of a deterministic strategy under
/// iid failures with probability `p`, by enumerating all `2^n` colorings and
/// weighting each by its probability.  For randomized strategies the
/// per-coloring cost is itself averaged over `runs_per_coloring` independent
/// runs, so the result is exact in the input randomness and Monte-Carlo in the
/// strategy randomness.
///
/// # Panics
///
/// Panics if `n > 20`, `runs_per_coloring == 0` or `p` is not a probability.
pub fn exhaustive_expected_probes<S, T, R>(
    system: &S,
    strategy: &T,
    p: f64,
    runs_per_coloring: usize,
    rng: &mut R,
) -> f64
where
    S: QuorumSystem + Sync + ?Sized,
    T: ProbeStrategy<S> + Sync + ?Sized,
    R: Rng,
{
    let n = system.universe_size();
    assert!(n <= 20, "exhaustive estimation is limited to n <= 20");
    assert!(
        runs_per_coloring > 0,
        "at least one run per coloring is required"
    );
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    let base_seed = rng.next_u64();
    let q = 1.0 - p;
    let weighted: Vec<(Coloring, f64)> = Coloring::enumerate_all(n)
        .into_iter()
        .map(|c| {
            let weight = p.powi(c.red_count() as i32) * q.powi(c.green_count() as i32);
            (c, weight)
        })
        .filter(|(_, weight)| *weight > 0.0)
        .collect();
    // All (coloring, run) trials flattened onto the shared parallel runner.
    let values = crate::eval::trial_values(
        weighted.len() * runs_per_coloring,
        base_seed,
        0,
        |trial, trial_rng| {
            let (coloring, _) = &weighted[trial as usize / runs_per_coloring];
            run_strategy(system, strategy, coloring, trial_rng).probes as f64
        },
    );
    weighted
        .iter()
        .zip(values.chunks_exact(runs_per_coloring))
        .map(|((_, weight), costs)| weight * costs.iter().sum::<f64>() / runs_per_coloring as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{
        erase_system, fit_points, typed_strategy, CellReport, ColoringSource, DynProbeStrategy,
        DynSystem, EvalEngine, EvalPlan,
    };
    use quorum_analysis::fit_power_law;
    use quorum_probe::exact::{optimal_cost, Law};
    use quorum_probe::strategies::{ProbeCw, ProbeHqs, ProbeMaj, ProbeTree, SequentialScan};
    use quorum_systems::{CrumblingWalls, Hqs, Majority, TreeQuorum, Wheel};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// The fitted exponent of a sweep at p = 1/2: one cell per system.
    fn sweep_exponent(
        systems: &[DynSystem],
        strategy: &DynProbeStrategy,
        trials: usize,
        rng: &mut StdRng,
    ) -> f64 {
        let cells: Vec<CellReport> = systems
            .iter()
            .map(|system| one_cell(system, strategy, ColoringSource::iid(0.5), trials, rng))
            .collect();
        fit_power_law(&fit_points(&cells)).exponent
    }

    #[test]
    fn estimate_matches_exact_value_for_maj() {
        // PPC_{1/2}(Maj3) = 2.5 and Probe_Maj is optimal for Maj.
        let mut rng = StdRng::seed_from_u64(1);
        let estimate = one_cell(
            &erase_system(Majority::new(3).unwrap()),
            &typed_strategy::<Majority, _>(ProbeMaj::new()),
            ColoringSource::iid(0.5),
            20_000,
            &mut rng,
        )
        .estimate;
        assert!(
            estimate.is_consistent_with(2.5, 4.0),
            "estimate {estimate:?}"
        );
        assert_eq!(estimate.samples, 20_000);
        assert!(estimate.min >= 2.0 && estimate.max <= 3.0);
    }

    #[test]
    fn exhaustive_matches_exact_value_for_maj() {
        let maj = Majority::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let exact_probe_maj = exhaustive_expected_probes(&maj, &ProbeMaj::new(), 0.5, 1, &mut rng);
        let optimum = optimal_cost(&maj, Law::Iid(0.5)).unwrap();
        // Probe_Maj is optimal for Majority in the probabilistic model
        // (Proposition 3.2), so the two must agree exactly.
        assert!(
            (exact_probe_maj - optimum).abs() < 1e-9,
            "Probe_Maj {exact_probe_maj} vs optimum {optimum}"
        );
    }

    #[test]
    fn crumbling_walls_meets_theorem_3_3_bound() {
        let wall = CrumblingWalls::new(vec![1, 5, 3, 7, 4]).unwrap();
        let k = wall.row_count();
        let wall = erase_system(wall);
        let probe_cw = typed_strategy::<CrumblingWalls, _>(ProbeCw::new());
        let mut rng = StdRng::seed_from_u64(3);
        for p in [0.2, 0.5, 0.8] {
            let estimate =
                one_cell(&wall, &probe_cw, ColoringSource::iid(p), 4_000, &mut rng).estimate;
            let bound = (2 * k - 1) as f64;
            assert!(
                estimate.mean <= bound + 4.0 * estimate.std_error,
                "p={p}: estimate {} exceeds 2k-1 = {bound}",
                estimate.mean
            );
        }
    }

    #[test]
    fn wheel_meets_corollary_3_4_bound() {
        let wheel = Wheel::new(50).unwrap();
        let wall = CrumblingWalls::wheel(50).unwrap();
        // Sanity: the wheel and its CW representation agree on the universe.
        assert_eq!(wheel.universe_size(), wall.universe_size());
        let mut rng = StdRng::seed_from_u64(4);
        let estimate = one_cell(
            &erase_system(wall),
            &typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
            ColoringSource::iid(0.5),
            4_000,
            &mut rng,
        )
        .estimate;
        assert!(
            estimate.mean <= 3.0 + 4.0 * estimate.std_error,
            "estimate {}",
            estimate.mean
        );
    }

    #[test]
    fn exact_red_count_model_reproduces_urn_expectation() {
        // Probing Maj under the "exactly k+1 reds" model: expected probes of
        // the sequential scan is the urn expectation of Lemma 2.8, which for
        // n = 5 (k = 2) is (k+1)(n+1)/(k+2) = 4.5.
        let mut rng = StdRng::seed_from_u64(5);
        let estimate = one_cell(
            &erase_system(Majority::new(5).unwrap()),
            &typed_strategy::<Majority, _>(SequentialScan::new()),
            ColoringSource::exact_red_count(3),
            30_000,
            &mut rng,
        )
        .estimate;
        assert!(
            estimate.is_consistent_with(4.5, 4.0),
            "estimate {estimate:?}"
        );
    }

    #[test]
    fn tree_sweep_exponent_is_sublinear() {
        // Corollary 3.7: PPC(Tree) = O(n^0.585); the fitted exponent over a
        // few sizes must be well below 1 and in the vicinity of 0.585.
        let systems: Vec<DynSystem> = (2..=7)
            .map(|h| erase_system(TreeQuorum::new(h).unwrap()))
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let probe_tree = typed_strategy::<TreeQuorum, _>(ProbeTree::new());
        let exponent = sweep_exponent(&systems, &probe_tree, 1_500, &mut rng);
        assert!(
            exponent > 0.4 && exponent < 0.75,
            "Tree exponent {exponent} should be near 0.585"
        );
    }

    #[test]
    fn hqs_sweep_exponent_is_near_0_834() {
        let systems: Vec<DynSystem> = (1..=5)
            .map(|h| erase_system(Hqs::new(h).unwrap()))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let probe_hqs = typed_strategy::<Hqs, _>(ProbeHqs::new());
        let exponent = sweep_exponent(&systems, &probe_hqs, 1_500, &mut rng);
        assert!(
            exponent > 0.75 && exponent < 0.92,
            "HQS exponent {exponent} should be near 0.834"
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = EvalPlan::new(6).trials(0);
    }

    #[test]
    #[should_panic(expected = "n <= 20")]
    fn exhaustive_rejects_large_universes() {
        let maj = Majority::new(23).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let _ = exhaustive_expected_probes(&maj, &ProbeMaj::new(), 0.5, 1, &mut rng);
    }
}
