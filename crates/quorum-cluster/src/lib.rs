//! # quorum-cluster
//!
//! A deterministic, discrete-event simulation of the distributed system the
//! paper's probe model abstracts: a set of processors (one per quorum-system
//! element) that may crash, reached over a network with latency, probed by a
//! client via request/response RPCs with a timeout.
//!
//! A probe of a live processor costs one round trip; a probe of a crashed
//! processor costs the full timeout.  The colorings of the probe model map
//! onto cluster states (`red` = crashed, `green` = up), so any
//! [`quorum_probe::ProbeStrategy`] can be executed against the cluster
//! unchanged — [`Cluster::probe_for_quorum`] does exactly that and accounts
//! for the RPCs and the elapsed virtual time.
//!
//! The paper has no testbed; this simulator is the substitution documented in
//! `DESIGN.md`, and it is what the mutual-exclusion and replicated-register
//! protocols in `quorum-protocols` run on.
//!
//! The [`workload`] module scales the simulator from one client to many: a
//! discrete-event scheduler interleaves concurrent probing sessions (open- or
//! closed-loop arrivals) over per-node service queues, with a load ledger
//! that load-aware probe strategies consult. Its message-level layer
//! ([`NetworkModel`], [`PartitionSchedule`], [`ProbePolicy`]) makes each
//! probe a request/response pair that loss or partitions can drop, with
//! client-side timeouts, bounded retries and hedged probes on top.
//!
//! The [`spec`] module is the single entry point over all of it: a
//! builder-style [`WorkloadSpec`] selecting a backend — the virtual-time
//! simulator, or the [`live`] runtime that replays the same trace over OS
//! threads and bounded channels and cross-validates every logical
//! observable against the simulation.
//!
//! ```
//! use quorum_cluster::{Cluster, NetworkConfig};
//! use quorum_core::QuorumSystem;
//! use quorum_probe::strategies::ProbeCw;
//! use quorum_systems::CrumblingWalls;
//!
//! let wall = CrumblingWalls::triang(4).unwrap();
//! let mut cluster = Cluster::new(wall.universe_size(), NetworkConfig::default(), 7);
//! cluster.crash(3);
//! let acquisition = cluster.probe_for_quorum(&wall, &ProbeCw::new());
//! assert!(acquisition.witness.is_green());
//! assert_eq!(acquisition.rpcs, acquisition.probes as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod live;
pub mod network;
pub mod node;
pub mod spec;
pub mod time;
mod wheel;
pub mod workload;

pub use chaos::{ChaosKind, ChaosSchedule, ChaosState, ChaosWindow};
pub use cluster::{Cluster, QuorumAcquisition};
pub use live::{LiveOptions, LiveReport, LiveSessionOutcome, SupervisorPolicy};
pub use network::{
    LinkDirection, NetworkConfig, NetworkModel, PartitionKind, PartitionSchedule, PartitionWindow,
    ProbePolicy,
};
pub use node::{NodeId, NodeState};
pub use spec::{
    cross_validate, plan_observables, AgreementReport, Backend, PlanCost, SessionTrace, SpecReport,
    TracedSession, WorkloadSpec,
};
pub use time::SimTime;
#[allow(deprecated)]
pub use workload::{run_net_workload, run_workload};
pub use workload::{
    ArrivalProcess, Distribution, LoadLedger, NetProbe, NetSessionPlan, SessionPlan,
    WorkloadConfig, WorkloadReport,
};
