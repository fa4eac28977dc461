//! # probequorum
//!
//! Facade crate for the *Average Probe Complexity in Quorum Systems*
//! reproduction (Hassin & Peleg, PODC 2001 / JCSS 2006).
//!
//! It re-exports the workspace crates under stable module names so that
//! applications, the examples and the benchmark harness can depend on a single
//! crate:
//!
//! * [`core`] — universes, element sets, colorings, witnesses, coteries and
//!   the [`core::QuorumSystem`] trait (`quorum-core`);
//! * [`systems`] — Majority, Wheel, Crumbling Walls / Triang, Tree, HQS and
//!   Grid constructions, `Compose` circuits and the `SystemSpec`
//!   construction API (`quorum-systems`);
//! * [`probe`] — probe oracles, the paper's probing algorithms, decision
//!   trees, and the exact solver behind `PC`, `PPC_p` and the Yao lower
//!   bounds (`quorum-probe`);
//! * [`analysis`] — availability, the technical lemmas, statistics, power-law
//!   fitting and the paper's closed-form bounds (`quorum-analysis`);
//! * [`sim`] — the parallel registry-driven evaluation engine
//!   ([`sim::eval`]) that produces every Monte-Carlo estimate, failure
//!   models, the exhaustive and worst-case estimators and report tables
//!   (`quorum-sim`);
//! * [`cluster`] — the discrete-event workload engine that prices probe
//!   sessions under traffic and network faults, and the live runtime that
//!   replays its traces (`quorum-cluster`).
//!
//! # Quickstart
//!
//! ```
//! use probequorum::prelude::*;
//!
//! // Build the Triang system from the paper's Fig. 1 and estimate the
//! // expected number of probes needed to find a live quorum at p = 1/2:
//! // one cell of an evaluation plan, 2 000 trials.
//! let triang = erase_system(CrumblingWalls::triang(6)?);
//! let probe_cw = typed_strategy::<CrumblingWalls, _>(ProbeCw::new());
//! let mut plan = EvalPlan::new(1).trials(2_000);
//! plan.probe(&triang, &probe_cw, ColoringSource::iid(0.5));
//! let estimate = EvalEngine::new().run(&plan).cells[0].estimate;
//! // Theorem 3.3: at most 2k − 1 = 11 expected probes for the 6-row wall,
//! // even though the wall has 21 elements.
//! assert!(estimate.mean <= 11.0 + 4.0 * estimate.std_error);
//! # Ok::<(), probequorum::core::QuorumError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use quorum_analysis as analysis;
pub use quorum_cluster as cluster;
pub use quorum_core as core;
pub use quorum_probe as probe;
pub use quorum_sim as sim;
pub use quorum_systems as systems;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use quorum_analysis::{
        availability::exact_failure_probability, availability_bounds, bounds, find_disjoint_pair,
        fit_power_law, lemmas, load_imbalance, AvailabilityBounds, LogHistogram, PowerLawFit,
        RunningStats,
    };
    pub use quorum_cluster::{
        cross_validate, plan_observables, AgreementReport, ArrivalProcess, Backend, Distribution,
        Fault, FaultSchedule, FaultWindow, LinkDirection, LiveReport, LoadLedger, NetProbe,
        NetSessionPlan, NetworkModel, PlanCost, ProbePolicy, ProcessState, SessionPlan,
        SessionTrace, SimTime, SpecReport, WorkloadConfig, WorkloadReport, WorkloadSpec,
    };
    pub use quorum_core::{
        delta_evaluator_for, minimal_blocking_sets, minimal_quorums, Color, Coloring,
        ColoringDelta, Coterie, DeltaEvaluator, DynQuorumSystem, ElementId, ElementSet,
        Organizations, QuorumError, QuorumSystem, RescanDeltaEvaluator, Witness, WitnessKind,
    };
    pub use quorum_probe::{
        exact, run_strategy, strategies::*, yao, BreakerState, DecisionTree, HealthView,
        InputDistribution, ProbeOracle, ProbeRun, ProbeStrategy,
    };
    pub use quorum_sim::eval::{
        erase_spec, erase_system, typed_strategy, universal_strategy, ColoringSource,
        DynProbeStrategy, DynStrategy, DynSystem, EvalEngine, EvalPlan, EvalReport,
        ScenarioRegistry, StrategyRegistry, SystemRegistry, TrialRng,
    };
    pub use quorum_sim::{
        batched_failure_probability, chaos_recovery_micros, chaos_scenarios, closed_loop_workload,
        estimate_worst_case, exhaustive_expected_probes, net_outcomes_table, network_scenarios,
        open_poisson_workload, outcomes_table, run_live_cell, run_workload_cells,
        standard_workloads, worst_case_over_colorings, ChurnTrajectory, Estimate, FailureModel,
        LiveCellOutcome, NetScenario, Table, WorkloadCell, WorkloadOutcome, WorkloadStrategy,
    };
    pub use quorum_systems::{
        BuiltSystem, Composition, CrumblingWalls, Grid, Hqs, Majority, SpecError, SpecErrorKind,
        SystemSpec, TreeQuorum, Wheel,
    };
}

/// The README's code blocks, compiled (and, unless marked `no_run`, run)
/// as doctests.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let maj = Majority::new(3).unwrap();
        assert_eq!(maj.universe_size(), 3);
        let value = exact::optimal_cost(&maj, exact::Law::Iid(0.5)).unwrap();
        assert!((value - 2.5).abs() < 1e-12);
        assert!((bounds::maj_randomized_exact(3) - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn facade_modules_are_reachable() {
        assert_eq!(crate::systems::Wheel::new(4).unwrap().universe_size(), 4);
        assert_eq!(crate::core::ElementSet::full(6).len(), 6);
        assert!(crate::cluster::NetworkModel::clean().is_clean());
    }
}
