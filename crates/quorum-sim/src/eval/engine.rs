//! The parallel trial runner: executes an [`EvalPlan`] into an
//! [`EvalReport`] with deterministic per-trial seed derivation.
//!
//! # Determinism
//!
//! Every trial's RNG is derived as
//! `derive_rng(base_seed, cell_index, trial_index)` — a SplitMix64-style
//! mixing of the three coordinates — so a trial's outcome depends only on
//! the plan and the base seed, never on scheduling. Trials are tiled into
//! per-cell [`Shard`]s executed by an order-preserving `rayon` map, so the
//! report is **bit-identical** for any thread count (including 1) *and* any
//! shard size: sharding changes only which worker computes a value, never
//! the value.
//!
//! # Hot-loop layout
//!
//! Sharding is also the allocation story: each probe shard owns one scratch
//! [`Coloring`] reused across its trials (no `thread_local` machinery), and
//! custom cells never touch a scratch coloring at all. Cell lookup is one
//! index per shard instead of a `partition_point` binary search per trial.

use std::time::{Duration, Instant};

use quorum_analysis::RunningStats;
use quorum_core::Coloring;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

use super::plan::{CellTask, EvalPlan};
use crate::montecarlo::Estimate;
use crate::report::Table;

/// The per-trial generator used throughout the evaluation engine: a
/// single-word SplitMix64 stream whose seeding is one store. Swapping the
/// trial RNG is a one-line change here; every closure type below follows.
pub type TrialRng = SmallRng;

/// Default trials per [`Shard`]: big enough to amortise scratch setup and
/// scheduling, small enough to load-balance cells of a few thousand trials
/// across workers. Override per engine with [`EvalEngine::with_shard_trials`].
pub const DEFAULT_SHARD_TRIALS: usize = 512;

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG for one `(cell, trial)` coordinate of a run.
///
/// The derivation is a pure function of its arguments, which is what makes
/// engine reports independent of thread count and execution order. The
/// returned [`TrialRng`] seeds with a single store, so deriving millions of
/// per-trial generators costs three mixes and a store each.
pub fn derive_rng(base_seed: u64, cell_index: u64, trial_index: u64) -> TrialRng {
    let cell_word = mix(cell_index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let trial_word = mix(trial_index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
    TrialRng::seed_from_u64(mix(base_seed ^ cell_word ^ trial_word))
}

/// Runs `trials` independent trials of `f` in parallel with deterministic
/// per-trial RNGs, returning the observed values in trial order.
///
/// This is the shared loop behind every Monte-Carlo estimator in the
/// workspace: `f(trial_index, rng)` must be a pure function of its arguments
/// for results to be reproducible. Trials run in fixed-size chunks; results
/// are identical for any thread count.
pub fn trial_values<F>(trials: usize, base_seed: u64, cell_index: u64, f: F) -> Vec<f64>
where
    F: Fn(u64, &mut TrialRng) -> f64 + Sync,
{
    let starts: Vec<usize> = (0..trials).step_by(DEFAULT_SHARD_TRIALS).collect();
    let chunks: Vec<Vec<f64>> = starts
        .into_par_iter()
        .map(|start| {
            let len = DEFAULT_SHARD_TRIALS.min(trials - start);
            let mut out = Vec::with_capacity(len);
            for trial in start..start + len {
                let mut rng = derive_rng(base_seed, cell_index, trial as u64);
                out.push(f(trial as u64, &mut rng));
            }
            out
        })
        .collect();
    let mut values = Vec::with_capacity(trials);
    for chunk in chunks {
        values.extend(chunk);
    }
    values
}

/// The measured outcome of one [`EvalPlan`] cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The system label (`"-"` for custom cells).
    pub system: String,
    /// The strategy label (`"-"` for custom cells).
    pub strategy: String,
    /// The coloring-source / quantity label.
    pub model: String,
    /// Universe size, when the cell probes a system.
    pub universe_size: Option<usize>,
    /// Number of trials behind the estimate.
    pub trials: usize,
    /// The estimate accumulated over the cell's trials, in trial order.
    pub estimate: Estimate,
}

impl CellReport {
    /// The `(universe size, mean)` point of this cell, ready for power-law
    /// fitting of a sweep.
    ///
    /// # Panics
    ///
    /// Panics on custom cells, which probe no system.
    pub fn fit_point(&self) -> (f64, f64) {
        (
            self.universe_size.expect("fit points require probe cells") as f64,
            self.estimate.mean,
        )
    }
}

/// The `(universe size, mean)` points of a consecutive slice of sweep cells,
/// ready for `fit_power_law`.
///
/// # Panics
///
/// Panics if any cell is a custom cell (no universe size).
pub fn fit_points(cells: &[CellReport]) -> Vec<(f64, f64)> {
    cells.iter().map(CellReport::fit_point).collect()
}

/// The outcome of running an [`EvalPlan`].
///
/// Everything except [`EvalReport::wall`] and [`EvalReport::threads`] is a
/// deterministic function of the plan and its base seed.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// The plan's base seed.
    pub base_seed: u64,
    /// Worker threads used for this run (informational).
    pub threads: usize,
    /// Wall-clock time of the whole run (informational).
    pub wall: Duration,
    /// One report per plan cell, in plan order.
    pub cells: Vec<CellReport>,
}

impl EvalReport {
    /// The deterministic payload of the report: everything except timing and
    /// thread count. Two runs of the same plan and seed produce equal
    /// fingerprints regardless of parallelism.
    pub fn fingerprint(&self) -> (u64, &[CellReport]) {
        (self.base_seed, &self.cells)
    }

    /// The cell with the largest mean, if any (worst-case searches).
    pub fn max_mean_cell(&self) -> Option<&CellReport> {
        self.cells
            .iter()
            .max_by(|a, b| a.estimate.mean.total_cmp(&b.estimate.mean))
    }

    /// Renders the report as a plain-text [`Table`].
    pub fn to_table(&self) -> Table {
        let mut table = Table::new([
            "system", "n", "strategy", "model", "mean", "std_err", "trials",
        ]);
        for cell in &self.cells {
            table.add_row(vec![
                cell.system.clone(),
                cell.universe_size
                    .map_or_else(|| "-".into(), |n| n.to_string()),
                cell.strategy.clone(),
                cell.model.clone(),
                format!("{:.3}", cell.estimate.mean),
                format!("{:.3}", cell.estimate.std_error),
                cell.trials.to_string(),
            ]);
        }
        table
    }
}

/// Executes [`EvalPlan`]s.
#[derive(Debug, Clone, Copy)]
pub struct EvalEngine {
    threads: Option<usize>,
    shard_trials: usize,
}

impl Default for EvalEngine {
    fn default() -> Self {
        EvalEngine::new()
    }
}

/// One cache-sized tile of trials inside a single cell: the unit of parallel
/// work. All shards except a cell's last have exactly
/// [`EvalEngine::shard_trials`] trials. Because every trial derives its own
/// RNG from `(base_seed, cell, trial)`, the shard decomposition affects
/// scheduling and scratch reuse only — never the values produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Index of the plan cell this shard belongs to.
    pub cell_index: usize,
    /// First trial index covered by this shard.
    pub first_trial: u64,
    /// Number of consecutive trials in this shard.
    pub trials: usize,
}

impl EvalEngine {
    /// An engine using all available worker threads.
    pub fn new() -> Self {
        EvalEngine {
            threads: None,
            shard_trials: DEFAULT_SHARD_TRIALS,
        }
    }

    /// An engine pinned to `threads` worker threads (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        EvalEngine {
            threads: if threads == 0 { None } else { Some(threads) },
            shard_trials: DEFAULT_SHARD_TRIALS,
        }
    }

    /// Sets the trials-per-shard tile size (`0` restores the default).
    ///
    /// Reports are bit-identical for every shard size; tuning trades
    /// scheduling granularity against per-shard scratch amortisation.
    pub fn with_shard_trials(mut self, shard_trials: usize) -> Self {
        self.shard_trials = if shard_trials == 0 {
            DEFAULT_SHARD_TRIALS
        } else {
            shard_trials
        };
        self
    }

    /// The trials-per-shard tile size this engine schedules with.
    pub fn shard_trials(&self) -> usize {
        self.shard_trials
    }

    /// The shard decomposition this engine would use for `plan`, in
    /// execution (plan) order.
    pub fn shards(&self, plan: &EvalPlan) -> Vec<Shard> {
        let mut shards = Vec::new();
        for (cell_index, cell) in plan.cells.iter().enumerate() {
            let mut first_trial = 0usize;
            while first_trial < cell.trials {
                let len = self.shard_trials.min(cell.trials - first_trial);
                shards.push(Shard {
                    cell_index,
                    first_trial: first_trial as u64,
                    trials: len,
                });
                first_trial += len;
            }
        }
        shards
    }

    /// The number of worker threads this engine will use.
    pub fn thread_count(&self) -> usize {
        self.threads.unwrap_or_else(rayon::current_num_threads)
    }

    /// Runs `op` with this engine's thread count governing every parallel
    /// iterator inside it — including the estimators that call
    /// [`trial_values`] directly ([`crate::exhaustive_expected_probes`],
    /// [`crate::estimate_worst_case`], [`crate::worst_case_over_colorings`])
    /// and the batched estimators of [`crate::batch`].
    ///
    /// An unpinned engine ([`EvalEngine::new`]) runs `op` on the ambient
    /// configuration without building a pool.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        match self.threads {
            None => op(),
            Some(threads) => rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool construction cannot fail")
                .install(op),
        }
    }

    /// Runs every cell of `plan`, in parallel over per-cell trial shards.
    ///
    /// # Panics
    ///
    /// Propagates panics from strategies that return invalid witnesses.
    pub fn run(&self, plan: &EvalPlan) -> EvalReport {
        let started = Instant::now();
        let threads = self.thread_count();
        let values = self.install(|| self.run_trials(plan));

        // Fold each cell's values, in trial order, into its estimate.
        let mut cells = Vec::with_capacity(plan.cells.len());
        let mut offset = 0usize;
        for cell in &plan.cells {
            let mut stats = RunningStats::new();
            for &value in &values[offset..offset + cell.trials] {
                stats.push(value);
            }
            offset += cell.trials;
            cells.push(CellReport {
                system: cell.system_label.clone(),
                strategy: cell.strategy_label.clone(),
                model: cell.model_label.clone(),
                universe_size: cell.universe_size,
                trials: cell.trials,
                estimate: Estimate::from_stats(&stats),
            });
        }

        EvalReport {
            base_seed: plan.base_seed,
            threads,
            wall: started.elapsed(),
            cells,
        }
    }

    /// Executes all `(cell, trial)` pairs as per-cell shards on one parallel
    /// map, returning every trial value in plan order.
    fn run_trials(&self, plan: &EvalPlan) -> Vec<f64> {
        let shard_values: Vec<Vec<f64>> = self
            .shards(plan)
            .into_par_iter()
            .map(|shard| {
                let cell = &plan.cells[shard.cell_index];
                let mut out = Vec::with_capacity(shard.trials);
                match &cell.task {
                    CellTask::Probe {
                        system,
                        strategy,
                        source,
                    } => {
                        // One scratch coloring per shard, resampled in place:
                        // a single allocation amortised over the whole shard.
                        let mut scratch = Coloring::all_green(system.universe_size());
                        for offset in 0..shard.trials {
                            let trial_index = shard.first_trial + offset as u64;
                            let mut rng =
                                derive_rng(plan.base_seed, shard.cell_index as u64, trial_index);
                            source.sample_into(
                                system.universe_size(),
                                trial_index,
                                &mut rng,
                                &mut scratch,
                            );
                            out.push(
                                strategy.run(system.as_ref(), &scratch, &mut rng).probes as f64,
                            );
                        }
                    }
                    // Custom cells pay no scratch-coloring setup at all.
                    CellTask::Custom { sample } => {
                        for offset in 0..shard.trials {
                            let trial_index = shard.first_trial + offset as u64;
                            let mut rng =
                                derive_rng(plan.base_seed, shard.cell_index as u64, trial_index);
                            out.push(sample(trial_index, &mut rng));
                        }
                    }
                }
                out
            })
            .collect();

        let mut values = Vec::with_capacity(plan.cells.iter().map(|c| c.trials).sum());
        for shard in shard_values {
            values.extend(shard);
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ColoringSource;
    use crate::eval::{StrategyRegistry, SystemRegistry};

    fn small_plan() -> EvalPlan {
        let systems = SystemRegistry::paper();
        let strategies = StrategyRegistry::paper();
        let maj = systems.build("Maj", 13).unwrap();
        let probe = strategies.build("Probe_Maj").unwrap();
        let mut plan = EvalPlan::new(77).trials(1_300);
        plan.probe(&maj, &probe, ColoringSource::iid(0.4));
        plan.probe(&maj, &probe, ColoringSource::iid(0.6));
        plan
    }

    #[test]
    fn shards_tile_each_cell_exactly() {
        let plan = small_plan();
        let engine = EvalEngine::new().with_shard_trials(512);
        let shards = engine.shards(&plan);
        for cell_index in 0..plan.cells.len() {
            let cell_shards: Vec<&Shard> = shards
                .iter()
                .filter(|s| s.cell_index == cell_index)
                .collect();
            let total: usize = cell_shards.iter().map(|s| s.trials).sum();
            assert_eq!(total, plan.cells[cell_index].trials);
            // Contiguous, ordered, non-overlapping.
            let mut next = 0u64;
            for shard in cell_shards {
                assert_eq!(shard.first_trial, next);
                assert!(shard.trials > 0 && shard.trials <= engine.shard_trials());
                next += shard.trials as u64;
            }
        }
    }

    #[test]
    fn reports_are_bit_identical_across_shard_sizes_and_threads() {
        let plan = small_plan();
        let baseline = EvalEngine::with_threads(1).run(&plan);
        for shard_trials in [1usize, 7, 64, 512, 10_000] {
            for threads in [1usize, 4] {
                let report = EvalEngine::with_threads(threads)
                    .with_shard_trials(shard_trials)
                    .run(&plan);
                assert_eq!(
                    report.fingerprint(),
                    baseline.fingerprint(),
                    "shard_trials={shard_trials} threads={threads} diverged"
                );
            }
        }
    }

    #[test]
    fn zero_shard_trials_restores_default() {
        let engine = EvalEngine::new().with_shard_trials(0);
        assert_eq!(engine.shard_trials(), DEFAULT_SHARD_TRIALS);
    }
}
