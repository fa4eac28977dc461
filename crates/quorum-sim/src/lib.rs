//! # quorum-sim
//!
//! Monte-Carlo experiment harness for probe complexity: failure models that
//! generate colorings, estimators of the probabilistic probe complexity
//! (`PPC_p`) and of the randomized worst-case probe complexity (`PC_R`) of a
//! concrete strategy, parameter sweeps over universe sizes, and plain-text /
//! CSV report tables.
//!
//! At the centre sits the [`eval`] module: a parallel, registry-driven
//! evaluation engine. [`eval::EvalPlan`]s batch `(system, strategy,
//! coloring-source)` cells; [`eval::EvalEngine`] executes all their trials
//! on a rayon pool with deterministic per-trial seed derivation
//! (`base_seed, cell, trial → TrialRng`), so every report is bit-identical
//! regardless of thread count. The [`batch`] module adds word-parallel
//! estimators that evaluate 64 trials per word pass for monotone systems,
//! and the [`workload`] module runs heavy-traffic [`WorkloadCell`]s on the
//! cluster's discrete-event scheduler (concurrent sessions, service queues,
//! load-aware probing, a message-level network whose default is the clean
//! one) with the same thread-count-invariant guarantee. The
//! classic entry points below ([`estimate_expected_probes`],
//! [`worst_case_over_colorings`], [`sweep`], …) are thin wrappers over the
//! same engine.
//!
//! Everything is driven by caller-supplied seeds so experiments are
//! reproducible.
//!
//! ```
//! use quorum_sim::{estimate_expected_probes, FailureModel};
//! use quorum_probe::strategies::ProbeCw;
//! use quorum_systems::CrumblingWalls;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let wall = CrumblingWalls::triang(6).unwrap();
//! let mut rng = StdRng::seed_from_u64(42);
//! let estimate = estimate_expected_probes(
//!     &wall,
//!     &ProbeCw::new(),
//!     &FailureModel::iid(0.5),
//!     2_000,
//!     &mut rng,
//! );
//! // Theorem 3.3: at most 2k − 1 = 11 expected probes.
//! assert!(estimate.mean < 11.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod eval;
pub mod experiment;
pub mod failure;
pub mod montecarlo;
pub mod report;
pub mod workload;
pub mod worstcase;

pub use batch::{
    batched_availability, batched_availability_wide, batched_failure_probability,
    batched_failure_probability_wide, DEFAULT_BATCH_WIDTH,
};
pub use eval::{
    ColoringSource, DynProbeStrategy, DynSystem, EvalEngine, EvalPlan, EvalReport, RegistryBuilder,
    ScenarioRegistry, Shard, StrategyRegistry, SystemRegistry, TrialRng,
};
pub use experiment::{sweep, SweepPoint, SweepRow};
pub use failure::{epsilon_resample_delta, ChurnTrajectory, ChurnWalker, FailureModel};
pub use montecarlo::{estimate_expected_probes, exhaustive_expected_probes, Estimate};
pub use report::Table;
pub use workload::{
    chaos_recovery_micros, chaos_scenarios, closed_loop_workload, net_outcomes_table,
    network_scenarios, open_poisson_workload, outcomes_table, run_live_cell, run_workload_cells,
    standard_workloads, LiveCellOutcome, NetScenario, WorkloadCell, WorkloadOutcome,
    WorkloadStrategy,
};
pub use worstcase::{estimate_worst_case, worst_case_over_colorings};
