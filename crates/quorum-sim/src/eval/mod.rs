//! The unified, parallel, registry-driven evaluation engine.
//!
//! Every Monte-Carlo number in the workspace — the Table 1 reproduction, the
//! exponent sweeps, the worst-case searches, even the urn-lemma simulations —
//! is produced by one engine: an [`EvalPlan`] of `(system, strategy,
//! coloring-source)` cells executed by [`EvalEngine::run`] into an
//! [`EvalReport`]. An expected probe count is one cell; a sweep over
//! universe sizes is one cell per size, fitted through [`fit_points`]. The
//! estimators outside a plan (the exhaustive and worst-case searches, the
//! batched failure probability) draw their trials through the same
//! per-trial seed derivation ([`trial_values`], [`derive_rng`]).
//!
//! The layer has three parts:
//!
//! 1. **Dyn objects** ([`dynsys`]): [`DynSystem`] / [`DynStrategy`] erase the
//!    typed `ProbeStrategy<S>` interface so heterogeneous cells fit one plan.
//! 2. **Registries** ([`registry`]): [`SystemRegistry`] and
//!    [`StrategyRegistry`] are the fixed tables of every named family and
//!    paper strategy and pair the compatible ones; [`ScenarioRegistry`]
//!    names the failure scenarios (i.i.d., correlated zones, heterogeneous
//!    rates, churn) that [`EvalPlan::matrix`] sweeps them under.
//! 3. **Engine** ([`engine`]): rayon-parallel execution of all trials with
//!    deterministic per-trial seed derivation
//!    (`base_seed, cell, trial → TrialRng`, a one-store SplitMix64 seed), so
//!    reports are **bit-identical** for any thread count.
//!
//! # Example
//!
//! ```
//! use quorum_sim::eval::{ColoringSource, EvalEngine, EvalPlan, SystemRegistry, StrategyRegistry};
//!
//! let systems = SystemRegistry::paper();
//! let strategies = StrategyRegistry::paper();
//! let maj = systems.build("Maj", 21).unwrap();
//! let probe_maj = strategies.build("Probe_Maj").unwrap();
//!
//! let mut plan = EvalPlan::new(2001).trials(2_000);
//! plan.probe(&maj, &probe_maj, ColoringSource::iid(0.5));
//!
//! let report = EvalEngine::new().run(&plan);
//! let cell = &report.cells[0];
//! // Proposition 3.2: Probe_Maj pays n − Θ(√n) expected probes at p = 1/2.
//! assert!(cell.estimate.mean > 10.0 && cell.estimate.mean < 21.0);
//!
//! // Same plan, one thread: bit-identical estimates.
//! let single = EvalEngine::with_threads(1).run(&plan);
//! assert_eq!(report.cells, single.cells);
//! ```

pub mod dynsys;
pub mod engine;
pub mod plan;
pub mod registry;

pub use dynsys::{
    erase_spec, erase_system, typed_strategy, universal_strategy, DynProbeStrategy, DynStrategy,
    DynSystem, EvalSystem, ForAny, ForSystem,
};
pub use engine::{
    derive_rng, fit_points, trial_values, CellReport, EvalEngine, EvalReport, Shard, TrialRng,
    DEFAULT_SHARD_TRIALS,
};
pub use plan::{ColoringSource, EvalCell, EvalPlan};
pub use registry::{
    ScenarioEntry, ScenarioRegistry, StrategyEntry, StrategyRegistry, SystemEntry, SystemRegistry,
};
