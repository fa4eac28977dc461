//! Word-parallel Monte-Carlo estimators: 64 trials per word pass.
//!
//! The scalar availability estimator samples one coloring per trial, builds
//! its green [`quorum_core::ElementSet`] and evaluates the characteristic
//! function — thousands of operations per trial. The batched estimator here
//! flips the layout: each element contributes one **64-trial lane** (bit `t`
//! = alive in trial `t`), filled straight from the RNG by the exact
//! binary-expansion sampler of [`quorum_core::lanes::bernoulli_lanes`], and
//! the quorum availability check becomes AND/OR/popcount over lanes via
//! [`quorum_core::QuorumSystem::green_quorum_lane_block`]. Systems without
//! a lane evaluator transparently fall back to a per-trial transpose +
//! scalar check, so the estimator is total over all constructions.
//!
//! Determinism: trial word `j` of a run derives its RNG as
//! `derive_rng(base_seed, BATCH_CELL, j)` and consumes it element-
//! sequentially, whether the word is evaluated alone or inside a wider
//! superblock. Results are therefore a pure function of
//! `(system, p, trials, base_seed)` and bit-identical for any worker-thread
//! count **and any lane width** — the same contract as the evaluation engine.

use std::slice;

use quorum_analysis::RunningStats;
use quorum_core::lanes::LANE_TRIALS;
use quorum_core::{ElementSet, QuorumSystem, WORD_BITS};
use rayon::prelude::*;

use crate::eval::{derive_rng, TrialRng};
use crate::failure::fill_iid_green_lanes;
use crate::montecarlo::Estimate;

/// The reserved cell coordinate of batched availability runs in the
/// `derive_rng(base_seed, cell, trial)` space (distinct from plan cells,
/// which count up from zero).
const BATCH_CELL: u64 = u64::MAX - 1;

/// Default trial-word width of the batched estimators: 8-word superblocks,
/// i.e. 512 trials per traversal of the quorum circuit. Every width produces
/// bit-identical estimates; wider blocks amortise the circuit walk over more
/// trials at the cost of a larger working set.
pub const DEFAULT_BATCH_WIDTH: usize = 8;

/// Estimates the availability failure probability `F_p(S)` — the probability
/// that no live quorum exists under i.i.d. element failures with probability
/// `p` — evaluating **[`DEFAULT_BATCH_WIDTH`]·64 trials per circuit pass**.
///
/// Returns the estimate over exactly `trials` trials; the result is a pure
/// function of the arguments (thread-count and lane-width invariant).
///
/// # Panics
///
/// Panics if `p` is not a probability or `trials == 0`.
pub fn batched_failure_probability<S>(system: &S, p: f64, trials: usize, base_seed: u64) -> Estimate
where
    S: QuorumSystem + Sync + ?Sized,
{
    batched_failure_probability_wide(system, p, trials, base_seed, DEFAULT_BATCH_WIDTH)
}

/// [`batched_failure_probability`] at an explicit lane-block width.
///
/// The trial axis is tiled into superblocks of `width` consecutive 64-trial
/// words. Each trial word owns its own derived RNG stream and is consumed
/// element-sequentially regardless of the width it is grouped under, so
/// **every width returns the same bits** — `width` only tunes how many trials
/// each traversal of the quorum predicate amortises.
///
/// Superblocks run in parallel. Each worker allocates one element-major
/// block of `n · width` lane words per call and reuses it for every
/// superblock it runs: the i.i.d. block fill
/// ([`quorum_core::lanes::bernoulli_lane_rows`]) overwrites each word the
/// evaluator reads, so no superblock sees another's lanes, and one block per
/// worker is alive at a time.
///
/// Widths outside [`quorum_core::lanes::LANE_WIDTHS`] (and partial tail
/// blocks) transparently fall back to word-at-a-time evaluation; systems
/// without any lane evaluator fall back further to a per-trial transpose +
/// scalar check, so the estimator is total over all constructions.
///
/// # Panics
///
/// Panics if `p` is not a probability, `trials == 0`, or `width == 0`.
pub fn batched_failure_probability_wide<S>(
    system: &S,
    p: f64,
    trials: usize,
    base_seed: u64,
    width: usize,
) -> Estimate
where
    S: QuorumSystem + Sync + ?Sized,
{
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    assert!(trials > 0, "at least one trial is required");
    assert!(width > 0, "lane width must be positive");
    let n = system.universe_size();
    let words = trials.div_ceil(LANE_TRIALS);
    let superblocks: Vec<usize> = (0..words).step_by(width).collect();

    // Each superblock is independent and pure: fill an element-major block of
    // lanes (one RNG stream per trial word), evaluate the quorum predicate
    // over all of its trials in one circuit walk, return the failure words.
    let block_words: Vec<(Vec<u64>, usize)> = superblocks
        .into_par_iter()
        .map_init(
            || vec![0u64; n * width.min(words)],
            |block, first_word| {
                let w = width.min(words - first_word);
                let lanes = &mut block[..n * w];
                let mut rngs: Vec<TrialRng> = (0..w)
                    .map(|i| derive_rng(base_seed, BATCH_CELL, (first_word + i) as u64))
                    .collect();
                fill_iid_green_lanes(p, &mut rngs, lanes);
                let take = (LANE_TRIALS * w).min(trials - first_word * LANE_TRIALS);
                let mut available = vec![0u64; w];
                if !system.green_quorum_lane_block(lanes, w, &mut available) {
                    // No block evaluator at this width: gather each trial word
                    // out of the element-major layout and take the word path.
                    let mut word_lanes = vec![0u64; n];
                    for (j, out) in available.iter_mut().enumerate() {
                        for (e, lane) in word_lanes.iter_mut().enumerate() {
                            *lane = lanes[e * w + j];
                        }
                        if !system.green_quorum_lane_block(&word_lanes, 1, slice::from_mut(out)) {
                            let word_take =
                                LANE_TRIALS.min(trials - (first_word + j) * LANE_TRIALS);
                            *out = transpose_and_check(system, &word_lanes, word_take);
                        }
                    }
                }
                for word in &mut available {
                    *word = !*word;
                }
                (available, take)
            },
        )
        .collect();

    // Word-parallel fold: up to 64·width indicator trials per push, in trial
    // order, so the accumulator sees the same sequence at every width.
    let mut stats = RunningStats::new();
    for (failure_words, take) in block_words {
        stats.push_indicator_lanes(&failure_words, take);
    }
    Estimate::from_stats(&stats)
}

/// Fallback for systems without a lane evaluator: transpose the block into
/// per-trial green sets (word accumulation, one scratch set) and evaluate the
/// scalar characteristic function per trial.
fn transpose_and_check<S>(system: &S, lanes: &[u64], take: usize) -> u64
where
    S: QuorumSystem + ?Sized,
{
    let n = lanes.len();
    let mut green = ElementSet::empty(n);
    let mut available = 0u64;
    for t in 0..take {
        // Chunk the *element* axis by the set's backing-word width (which is
        // independent of the trial-lane width, even though both are 64).
        for (word_index, chunk) in lanes.chunks(WORD_BITS).enumerate() {
            let mut word = 0u64;
            for (bit, &lane) in chunk.iter().enumerate() {
                word |= ((lane >> t) & 1) << bit;
            }
            green.set_word(word_index, word);
        }
        if system.contains_quorum(&green) {
            available |= 1u64 << t;
        }
    }
    available
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_analysis::availability::exact_failure_probability;
    use quorum_systems::{Grid, Hqs, Majority, TreeQuorum};

    /// A wrapper hiding the lane evaluator, to force the transpose fallback.
    struct NoLanes<S>(S);

    impl<S: QuorumSystem> QuorumSystem for NoLanes<S> {
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

    #[test]
    fn batched_estimate_matches_exact_enumeration() {
        let maj = Majority::new(9).unwrap();
        for p in [0.2, 0.4, 0.5] {
            let exact = exact_failure_probability(&maj, p).unwrap();
            let estimate = batched_failure_probability(&maj, p, 60_000, 11);
            assert!(
                (estimate.mean - exact).abs() < 0.02,
                "p={p}: batched {} vs exact {exact}",
                estimate.mean
            );
            assert_eq!(estimate.samples, 60_000);
        }
    }

    #[test]
    fn lane_and_fallback_paths_agree_bitwise() {
        // Same seed ⇒ same lanes ⇒ identical estimates whether the quorum
        // check runs word-parallel or through the transpose fallback.
        for trials in [1usize, 63, 64, 65, 1000] {
            let tree = TreeQuorum::new(3).unwrap();
            let fast = batched_failure_probability(&tree, 0.3, trials, 5);
            let slow =
                batched_failure_probability(&NoLanes(TreeQuorum::new(3).unwrap()), 0.3, trials, 5);
            assert_eq!(fast, slow, "trials={trials}");
        }
    }

    #[test]
    fn every_lane_width_returns_the_same_bits() {
        // Widths with a block evaluator (1, 4, 8), widths forcing the gather
        // fallback (2, 3), and widths wider than the whole run (16) must all
        // reproduce the width-1 estimate exactly.
        let grid = Grid::new(4, 5).unwrap();
        for trials in [1usize, 63, 64, 65, 300, 1000] {
            let narrow = batched_failure_probability_wide(&grid, 0.35, trials, 9, 1);
            for width in [2usize, 3, 4, 8, 16] {
                let wide = batched_failure_probability_wide(&grid, 0.35, trials, 9, width);
                assert_eq!(narrow, wide, "trials={trials} width={width}");
            }
        }
    }

    #[test]
    fn default_width_matches_the_legacy_entry_point() {
        let maj = Majority::new(11).unwrap();
        assert_eq!(
            batched_failure_probability(&maj, 0.45, 2_500, 13),
            batched_failure_probability_wide(&maj, 0.45, 2_500, 13, DEFAULT_BATCH_WIDTH),
        );
    }

    #[test]
    fn wide_fallback_without_lane_evaluator_agrees_bitwise() {
        for width in [1usize, 4, 8] {
            let fast =
                batched_failure_probability_wide(&TreeQuorum::new(3).unwrap(), 0.3, 500, 5, width);
            let slow = batched_failure_probability_wide(
                &NoLanes(TreeQuorum::new(3).unwrap()),
                0.3,
                500,
                5,
                width,
            );
            assert_eq!(fast, slow, "width={width}");
        }
    }

    #[test]
    fn batched_estimates_are_thread_count_invariant() {
        // 7 777 trials are 122 words: at width 8, 16 superblocks ending in a
        // 2-word tail, so the per-worker runs are uneven and every worker
        // reuses its lane block, the tail's narrower block included.
        let hqs = Hqs::new(3).unwrap();
        for width in [1usize, 4, 8] {
            let ambient = batched_failure_probability_wide(&hqs, 0.4, 7_777, 21, width);
            for threads in [1usize, 2, 3, 8] {
                let pinned = crate::eval::EvalEngine::with_threads(threads)
                    .install(|| batched_failure_probability_wide(&hqs, 0.4, 7_777, 21, width));
                assert_eq!(ambient, pinned, "width {width}, {threads} threads");
            }
        }
    }

    #[test]
    fn extremes_are_exact() {
        let maj = Majority::new(7).unwrap();
        assert_eq!(batched_failure_probability(&maj, 0.0, 1_000, 1).mean, 0.0);
        assert_eq!(batched_failure_probability(&maj, 1.0, 1_000, 1).mean, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let maj = Majority::new(3).unwrap();
        let _ = batched_failure_probability(&maj, 0.5, 0, 1);
    }
}
