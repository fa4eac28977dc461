//! # quorum-sim
//!
//! Monte-Carlo experiment harness for probe complexity: failure models that
//! generate colorings, the evaluation engine that estimates the
//! probabilistic probe complexity (`PPC_p`) and the randomized worst-case
//! probe complexity (`PC_R`) of a concrete strategy, and plain-text / CSV
//! report tables.
//!
//! At the centre sits the [`eval`] module: a parallel, registry-driven
//! evaluation engine. [`eval::EvalPlan`]s batch `(system, strategy,
//! coloring-source)` cells; [`eval::EvalEngine`] executes all their trials
//! on a rayon pool with deterministic per-trial seed derivation
//! (`base_seed, cell, trial → TrialRng`), so every report is bit-identical
//! regardless of thread count. An expected probe count is one plan cell,
//! and a sweep over universe sizes is one cell per size, fitted through
//! [`eval::fit_points`]. The [`batch`] module adds word-parallel
//! estimators that evaluate 64 trials per word pass for monotone systems,
//! and the [`workload`] module runs heavy-traffic [`WorkloadCell`]s on the
//! cluster's discrete-event scheduler (concurrent sessions, service queues,
//! load-aware probing, a message-level network whose default is the clean
//! one) with the same thread-count-invariant guarantee.
//! [`exhaustive_expected_probes`] and the worst-case searches
//! ([`worst_case_over_colorings`], [`estimate_worst_case`]) run their trials
//! on the engine's runner, [`eval::trial_values`].
//!
//! Everything is driven by caller-supplied seeds so experiments are
//! reproducible.
//!
//! ```
//! use quorum_probe::strategies::ProbeCw;
//! use quorum_sim::eval::{erase_system, typed_strategy};
//! use quorum_sim::{ColoringSource, EvalEngine, EvalPlan};
//! use quorum_systems::CrumblingWalls;
//!
//! let wall = erase_system(CrumblingWalls::triang(6).unwrap());
//! let probe_cw = typed_strategy::<CrumblingWalls, _>(ProbeCw::new());
//! let mut plan = EvalPlan::new(42).trials(2_000);
//! plan.probe(&wall, &probe_cw, ColoringSource::iid(0.5));
//! let estimate = EvalEngine::new().run(&plan).cells[0].estimate;
//! // Theorem 3.3: at most 2k − 1 = 11 expected probes.
//! assert!(estimate.mean < 11.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod eval;
pub mod failure;
pub mod montecarlo;
pub mod report;
pub mod workload;
pub mod worstcase;

pub use batch::{
    batched_failure_probability, batched_failure_probability_wide, DEFAULT_BATCH_WIDTH,
};
pub use eval::{
    ColoringSource, DynProbeStrategy, DynSystem, EvalEngine, EvalPlan, EvalReport,
    ScenarioRegistry, Shard, StrategyRegistry, SystemRegistry, TrialRng,
};
pub use failure::{ChurnTrajectory, ChurnWalker, FailureModel};
pub use montecarlo::{exhaustive_expected_probes, Estimate};
pub use report::Table;
pub use workload::{
    chaos_recovery_micros, chaos_scenarios, closed_loop_workload, net_outcomes_table,
    network_scenarios, open_poisson_workload, outcomes_table, run_live_cell, run_workload_cells,
    standard_workloads, LiveCellOutcome, NetScenario, WorkloadCell, WorkloadOutcome,
    WorkloadStrategy,
};
pub use worstcase::{estimate_worst_case, worst_case_over_colorings};
