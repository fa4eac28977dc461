//! Evaluation plans: declarative batches of `(system, strategy, model)`
//! cells executed by the [`engine`](super::engine).

use std::sync::Arc;

use quorum_core::{Coloring, Organizations};

use super::dynsys::{DynProbeStrategy, DynSystem};
use super::engine::TrialRng;
use crate::{ChurnTrajectory, FailureModel};

/// A coloring generator: `generate(trial_index, cell_rng)`.
pub type ColoringGenerator = Arc<dyn Fn(u64, &mut TrialRng) -> Coloring + Send + Sync>;

/// Where a cell's colorings come from.
#[derive(Clone)]
pub enum ColoringSource {
    /// A named failure model ([`FailureModel::iid`],
    /// [`FailureModel::exact_red_count`], [`FailureModel::fixed`],
    /// [`FailureModel::heterogeneous`], [`FailureModel::zoned`],
    /// [`FailureModel::org_zoned`], [`FailureModel::churn`]).
    Model(FailureModel),
    /// An arbitrary generator, e.g. one of the paper's hard input families.
    Generator {
        /// Label shown in reports (e.g. `"cw-hard"`).
        label: String,
        /// Draws the coloring for trial `trial_index`. Receives the cell's
        /// trial RNG; a generator that instead derives its coloring purely
        /// from `trial_index` (ignoring the RNG) yields *paired* colorings
        /// across cells — the common-random-numbers device for comparing two
        /// strategies on identical inputs.
        generate: ColoringGenerator,
    },
}

impl ColoringSource {
    /// Independent failures with probability `p`.
    pub fn iid(p: f64) -> Self {
        ColoringSource::Model(FailureModel::iid(p))
    }

    /// Exactly `reds` failed elements, uniformly placed.
    pub fn exact_red_count(reds: usize) -> Self {
        ColoringSource::Model(FailureModel::exact_red_count(reds))
    }

    /// Always the given coloring.
    pub fn fixed(coloring: Coloring) -> Self {
        ColoringSource::Model(FailureModel::fixed(coloring))
    }

    /// Independent failures with per-element probabilities (hot spots,
    /// mixed hardware).
    pub fn heterogeneous(probs: Vec<f64>) -> Self {
        ColoringSource::Model(FailureModel::heterogeneous(probs))
    }

    /// Correlated zone failures: `zone_count` contiguous zones failing
    /// wholesale with probability `q`, i.i.d. `p` inside survivors.
    pub fn zoned(zone_count: usize, q: f64, p: f64) -> Self {
        ColoringSource::Model(FailureModel::zoned(zone_count, q, p))
    }

    /// Zone failures parameterised by a fixed per-element marginal and a
    /// correlation strength in `0..=1` (see
    /// [`FailureModel::zoned_correlated`]).
    pub fn zoned_correlated(zone_count: usize, marginal: f64, correlation: f64) -> Self {
        ColoringSource::Model(FailureModel::zoned_correlated(
            zone_count,
            marginal,
            correlation,
        ))
    }

    /// Organization-aligned failures: every group of `orgs` fails wholesale
    /// with probability `q`, and surviving elements fail i.i.d. with `p`
    /// (see [`FailureModel::org_zoned`]).
    pub fn org_zoned(orgs: Arc<Organizations>, q: f64, p: f64) -> Self {
        ColoringSource::Model(FailureModel::org_zoned(orgs, q, p))
    }

    /// Organization failures parameterised by a fixed per-element marginal
    /// and a correlation strength in `0..=1` (see
    /// [`FailureModel::org_zoned_correlated`]).
    pub fn org_zoned_correlated(orgs: Arc<Organizations>, marginal: f64, correlation: f64) -> Self {
        ColoringSource::Model(FailureModel::org_zoned_correlated(
            orgs,
            marginal,
            correlation,
        ))
    }

    /// A churn timeline: trial `t` observes step `t` of a fail/repair Markov
    /// trajectory generated from `seed`, so the cell's mean is a **time
    /// average** over a realistic failure sequence.
    pub fn churn(n: usize, fail: f64, repair: f64, steps: usize, seed: u64) -> Self {
        ColoringSource::Model(FailureModel::churn(n, fail, repair, steps, seed))
    }

    /// A churn source over an existing (possibly shared) trajectory. Cells
    /// sharing one trajectory see identical colorings per trial — the
    /// common-random-numbers device for comparing strategies under churn.
    pub fn churn_trajectory(trajectory: Arc<ChurnTrajectory>) -> Self {
        ColoringSource::Model(FailureModel::churn_trajectory(trajectory))
    }

    /// A custom generator with a report label. The closure draws from the
    /// cell's trial RNG.
    pub fn generator<F>(label: impl Into<String>, generate: F) -> Self
    where
        F: Fn(&mut TrialRng) -> Coloring + Send + Sync + 'static,
    {
        ColoringSource::Generator {
            label: label.into(),
            generate: Arc::new(move |_, rng| generate(rng)),
        }
    }

    /// A generator whose coloring is a pure function of the trial index (via
    /// a private RNG seeded from `pair_seed` and the index). Cells sharing
    /// the same `pair_seed` and label see **identical colorings per trial**,
    /// so two strategies can be compared on the same inputs (common random
    /// numbers); each cell's own RNG still drives strategy randomness.
    pub fn paired_generator<F>(label: impl Into<String>, pair_seed: u64, generate: F) -> Self
    where
        F: Fn(&mut TrialRng) -> Coloring + Send + Sync + 'static,
    {
        ColoringSource::Generator {
            label: label.into(),
            generate: Arc::new(move |trial, _| {
                let mut pair_rng = super::engine::derive_rng(pair_seed, u64::MAX, trial);
                generate(&mut pair_rng)
            }),
        }
    }

    /// The label used in reports.
    pub fn label(&self) -> String {
        match self {
            ColoringSource::Model(model) => model.label(),
            ColoringSource::Generator { label, .. } => label.clone(),
        }
    }

    /// Samples the coloring of trial `trial_index` for a universe of `n`
    /// elements.
    pub fn sample(&self, n: usize, trial_index: u64, rng: &mut TrialRng) -> Coloring {
        match self {
            ColoringSource::Model(model) => model.sample_at(n, trial_index, rng),
            ColoringSource::Generator { generate, .. } => generate(trial_index, rng),
        }
    }

    /// Samples the coloring of trial `trial_index` into a caller-owned
    /// scratch coloring. Model-backed sources are allocation-free (the
    /// engine's hot loop); custom generators still allocate their coloring
    /// and move it into the scratch.
    pub fn sample_into(&self, n: usize, trial_index: u64, rng: &mut TrialRng, out: &mut Coloring) {
        match self {
            ColoringSource::Model(model) => model.sample_into(n, trial_index, rng, out),
            ColoringSource::Generator { generate, .. } => *out = generate(trial_index, rng),
        }
    }
}

/// A custom per-trial Monte-Carlo sampler: `sample(trial_index, rng)`.
pub type CustomSample = Arc<dyn Fn(u64, &mut TrialRng) -> f64 + Send + Sync>;

/// What one cell measures per trial.
#[derive(Clone)]
pub(super) enum CellTask {
    /// Sample a coloring, run the strategy, record the probe count.
    Probe {
        system: DynSystem,
        strategy: DynProbeStrategy,
        source: ColoringSource,
    },
    /// An arbitrary Monte-Carlo quantity (e.g. the urn draws of Lemma 2.8).
    Custom { sample: CustomSample },
}

/// One cell of an [`EvalPlan`]: labels plus the per-trial task.
#[derive(Clone)]
pub struct EvalCell {
    pub(super) system_label: String,
    pub(super) strategy_label: String,
    pub(super) model_label: String,
    pub(super) universe_size: Option<usize>,
    pub(super) trials: usize,
    pub(super) task: CellTask,
}

/// A batch of evaluation cells, executed together by
/// [`EvalEngine::run`](super::engine::EvalEngine::run).
///
/// Results are a pure function of `(plan, base_seed)`: every trial derives
/// its own RNG from `(base_seed, cell_index, trial_index)`, so reports are
/// bit-identical no matter how many threads execute them.
pub struct EvalPlan {
    pub(super) base_seed: u64,
    pub(super) default_trials: usize,
    pub(super) cells: Vec<EvalCell>,
}

impl EvalPlan {
    /// Creates an empty plan with the given base seed and 1000 trials per
    /// cell by default.
    pub fn new(base_seed: u64) -> Self {
        EvalPlan {
            base_seed,
            default_trials: 1_000,
            cells: Vec::new(),
        }
    }

    /// Sets the default number of trials per cell.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn trials(mut self, trials: usize) -> Self {
        assert!(trials > 0, "at least one trial is required");
        self.default_trials = trials;
        self
    }

    /// Number of cells queued so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total number of trials across all cells.
    pub fn total_trials(&self) -> usize {
        self.cells.iter().map(|c| c.trials).sum()
    }

    /// Queues a probe cell with the default trial count.
    ///
    /// # Panics
    ///
    /// Panics if `strategy` does not support `system`.
    pub fn probe(
        &mut self,
        system: &DynSystem,
        strategy: &DynProbeStrategy,
        source: ColoringSource,
    ) -> &mut Self {
        let trials = self.default_trials;
        self.probe_with_trials(system, strategy, source, trials)
    }

    /// Queues a probe cell with an explicit trial count.
    ///
    /// # Panics
    ///
    /// Panics if `strategy` does not support `system` or `trials == 0`.
    pub fn probe_with_trials(
        &mut self,
        system: &DynSystem,
        strategy: &DynProbeStrategy,
        source: ColoringSource,
        trials: usize,
    ) -> &mut Self {
        assert!(trials > 0, "at least one trial is required");
        assert!(
            strategy.supports(system.as_ref()),
            "strategy {} does not support system {}",
            strategy.name(),
            system.name()
        );
        self.cells.push(EvalCell {
            system_label: system.name(),
            strategy_label: strategy.name(),
            model_label: source.label(),
            universe_size: Some(system.universe_size()),
            trials,
            task: CellTask::Probe {
                system: Arc::clone(system),
                strategy: Arc::clone(strategy),
                source,
            },
        });
        self
    }

    /// Queues one probe cell per coloring (a worst-case-search layout: the
    /// report's per-cell means can then be maximised).
    pub fn probe_each_coloring(
        &mut self,
        system: &DynSystem,
        strategy: &DynProbeStrategy,
        colorings: &[Coloring],
        trials_per_coloring: usize,
    ) -> &mut Self {
        for coloring in colorings {
            self.probe_with_trials(
                system,
                strategy,
                ColoringSource::fixed(coloring.clone()),
                trials_per_coloring,
            );
        }
        self
    }

    /// Queues the full **scenario matrix**: every compatible `(system,
    /// strategy)` pair under every scenario of `scenarios`, with
    /// time-dependent scenarios (churn) seeded from this plan's base seed so
    /// the whole matrix is a pure function of the plan.
    ///
    /// Scenario sources are built per system (heterogeneous and churn
    /// scenarios need the universe size), which is what makes failure
    /// scenarios first-class plan cells rather than a fixed source list.
    pub fn matrix(
        &mut self,
        systems: &[DynSystem],
        strategies: &[DynProbeStrategy],
        scenarios: &super::registry::ScenarioRegistry,
    ) -> &mut Self {
        let scenario_seed = self.base_seed;
        for system in systems {
            let n = system.universe_size();
            // Build each scenario once per system: strategies then share the
            // same source (and, for churn, the same Arc-ed trajectory), so
            // they are compared on identical failure timelines.
            let sources: Vec<ColoringSource> = scenarios
                .entries()
                .iter()
                .map(|entry| (entry.build)(n, scenario_seed))
                .collect();
            for strategy in strategies {
                if !strategy.supports(system.as_ref()) {
                    continue;
                }
                for source in &sources {
                    self.probe(system, strategy, source.clone());
                }
            }
        }
        self
    }

    /// Queues a custom Monte-Carlo cell: `sample(trial_index, rng)` is
    /// averaged over the cell's trials.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn custom<F>(&mut self, label: impl Into<String>, trials: usize, sample: F) -> &mut Self
    where
        F: Fn(u64, &mut TrialRng) -> f64 + Send + Sync + 'static,
    {
        assert!(trials > 0, "at least one trial is required");
        self.cells.push(EvalCell {
            system_label: "-".into(),
            strategy_label: "-".into(),
            model_label: label.into(),
            universe_size: None,
            trials,
            task: CellTask::Custom {
                sample: Arc::new(sample),
            },
        });
        self
    }
}
