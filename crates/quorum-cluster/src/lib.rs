//! # quorum-cluster
//!
//! A deterministic, discrete-event simulation of the distributed system the
//! paper's probe model abstracts: a set of processors (one per quorum-system
//! element) that may crash, reached over a network with latency, probed by
//! clients via request/response RPCs with a timeout. The colorings of the
//! probe model map onto cluster states (`red` = crashed or unreachable,
//! `green` = answers), so any [`quorum_probe::ProbeStrategy`] decides a
//! session's probe sequence unchanged, and the engine prices that sequence
//! in virtual time.
//!
//! The [`workload`] module is the engine: a discrete-event scheduler
//! interleaves concurrent probing sessions (open- or closed-loop arrivals)
//! over per-node service queues, with a load ledger that load-aware probe
//! strategies consult. Its message-level layer ([`NetworkModel`],
//! [`ProbePolicy`]) makes each probe a request/response pair that loss can
//! drop, with client-side timeouts, bounded retries and hedged probes on
//! top. The model's one [`FaultSchedule`] of timed windows adds the
//! scripted faults: partitions and asymmetric links drop messages, and
//! crashes, stalls and slow nodes hit the node process.
//!
//! The [`spec`] module is the single entry point over all of it: a
//! builder-style [`WorkloadSpec`] selecting a backend — the virtual-time
//! simulator, or the [`live`] runtime that replays the same trace over OS
//! threads and bounded channels and cross-validates every logical
//! observable against the simulation.
//!
//! A single probe session is a one-session spec: the strategy picks the
//! probe sequence on a coloring, and the engine prices it in virtual time.
//!
//! ```
//! use quorum_cluster::{SessionPlan, WorkloadSpec};
//! use quorum_core::{Color, Coloring, QuorumSystem};
//! use quorum_probe::run_strategy;
//! use quorum_probe::strategies::ProbeCw;
//! use quorum_systems::CrumblingWalls;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let wall = CrumblingWalls::triang(4).unwrap();
//! let mut coloring = Coloring::all_green(wall.universe_size());
//! coloring.set_color(3, Color::Red);
//! let run = run_strategy(&wall, &ProbeCw::new(), &coloring, &mut StdRng::seed_from_u64(7));
//! assert!(run.witness.is_green());
//!
//! let outcome = WorkloadSpec::new(wall.universe_size())
//!     .sessions(1)
//!     .run_plans(7, |_, _, _| SessionPlan {
//!         colors: run.sequence.iter().map(|&e| coloring.color(e)).collect(),
//!         sequence: run.sequence.clone(),
//!         success: run.witness.is_green(),
//!     });
//! assert_eq!(outcome.report.successes, 1);
//! assert_eq!(outcome.report.probes, run.probes as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod live;
pub mod network;
pub mod spec;
pub mod time;
mod wheel;
pub mod workload;

pub use chaos::{Fault, FaultSchedule, FaultWindow, ProcessState};
pub use live::{LiveOptions, LiveReport, LiveSessionOutcome, SupervisorPolicy};
pub use network::{LinkDirection, NetworkModel, ProbePolicy};
pub use spec::{
    cross_validate, plan_observables, AgreementReport, Backend, PlanCost, SessionTrace, SpecReport,
    TracedSession, WorkloadSpec,
};
pub use time::SimTime;
pub use workload::{
    ArrivalProcess, Distribution, LoadLedger, NetProbe, NetSessionPlan, SessionPlan,
    WorkloadConfig, WorkloadReport,
};

/// Identifier of a simulated processor; identical to the quorum-system element
/// it hosts.
pub type NodeId = usize;
