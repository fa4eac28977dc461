//! The unified workload entry point: one builder-style [`WorkloadSpec`]
//! (arrivals × network model × probe policy × backend) that drives both the
//! virtual-time simulator and the real-concurrency live runtime from the
//! same [`NetSessionPlan`] / [`ProbePolicy`] types.
//!
//! It is the one run surface of the workload engine: latency-only plans
//! ([`WorkloadSpec::run_plans`]) and message-level plans
//! ([`WorkloadSpec::run`]) go through the same builder, and `quorum-sim`'s
//! workload cells are assembled on it.
//!
//! The backend axis is where the API earns its keep:
//!
//! * [`Backend::Sim`] runs the discrete-event engine exactly as before — a
//!   pure function of the seed.
//! * [`Backend::Live`] first runs the *same* simulation while recording the
//!   per-session trace ([`SessionTrace`]), then replays that trace on the
//!   real-concurrency runtime of [`crate::live`] — OS threads, bounded
//!   channels, wall-clock timeouts — and cross-validates every logical
//!   observable (ok/fail per session, probe sequences, observed colors,
//!   message counts, wasted attempts) between the two executions.
//!
//! Logical observables are *schedule-free*: [`plan_observables`] computes
//! them from a plan alone, and both the sim engine's pricing code and the
//! live runtime's measurement path share its waste classification
//! ([`attempt_is_wasted`]), so an agreement failure means one of the two
//! executions genuinely diverged — never that the bookkeeping drifted.

use quorum_core::Color;
use quorum_probe::session::AttemptLoss;
use rand::rngs::StdRng;

use crate::live::{run_live, LiveOptions, LiveReport};
use crate::network::{NetworkModel, ProbePolicy};
use crate::workload::{
    run_net_engine, ArrivalProcess, Distribution, LoadLedger, NetSessionPlan, PlanView,
    SessionPlan, WorkloadConfig, WorkloadReport,
};
use crate::{NodeId, SimTime};

/// Which execution engine a [`WorkloadSpec`] runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// The deterministic discrete-event simulator (virtual time).
    Sim,
    /// The real-concurrency runtime: the sim runs first to capture the
    /// session trace, then the trace replays over OS threads and bounded
    /// per-node channels under wall-clock time, and the two executions are
    /// cross-validated observable by observable.
    Live(LiveOptions),
}

/// One captured session of a sim run: when it arrived and what it did.
#[derive(Debug, Clone)]
pub struct TracedSession {
    /// The session index handed to the planning closure.
    pub index: u64,
    /// Virtual arrival instant.
    pub arrival: SimTime,
    /// The plan the session executed.
    pub plan: NetSessionPlan,
}

/// The full per-session trace of a sim run, in arrival order — the artifact
/// a live replay executes.
#[derive(Debug, Clone, Default)]
pub struct SessionTrace {
    /// The sessions, in the order they arrived.
    pub sessions: Vec<TracedSession>,
}

/// The schedule-free logical observables of one session plan: what both
/// backends must report identically, however their clocks tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCost {
    /// Whether the session's strategy located a live quorum.
    pub ok: bool,
    /// The probed nodes, in issue order.
    pub sequence: Vec<NodeId>,
    /// The color each probe recorded.
    pub observed: Vec<Color>,
    /// Probe attempts issued (failures and answers).
    pub probes: u64,
    /// Messages transmitted: every request sent plus every response sent
    /// (delivered or not).
    pub messages: u64,
    /// Attempts whose answer was never used (same classification as the
    /// engine's pricing code — see [`attempt_is_wasted`]).
    pub wasted: u64,
    /// Attempts that timed out at the client.
    pub timeouts: u64,
}

/// Whether failed attempt `attempt` of a probe that finally records
/// `observed` is wasted work.
///
/// The attempt that *produces* the recorded observation is not wasted: for a
/// red observation that is the final timeout. Waste is every attempt a retry
/// wrote off, plus any served-then-dropped attempt (the node did work nobody
/// consumed). This single predicate is shared by the sim engine's pricing
/// code, [`plan_observables`] and the live runtime's measurement path, so
/// the three ledgers cannot drift apart.
pub fn attempt_is_wasted(observed: Color, attempt: usize, failures: &[AttemptLoss]) -> bool {
    observed == Color::Green
        || attempt + 1 < failures.len()
        || failures[attempt] == AttemptLoss::Response
}

/// Computes the logical observables of one session plan.
///
/// The result is a pure function of the plan: probe attempts, message and
/// waste counts do not depend on queueing, hedging or wall-clock scheduling,
/// which is exactly why sim and live executions of the same trace must agree
/// on them.
pub fn plan_observables(plan: &NetSessionPlan) -> PlanCost {
    let mut cost = PlanCost {
        ok: plan.success,
        sequence: Vec::with_capacity(plan.probes.len()),
        observed: Vec::with_capacity(plan.probes.len()),
        probes: 0,
        messages: 0,
        wasted: 0,
        timeouts: 0,
    };
    for probe in &plan.probes {
        cost.sequence.push(probe.node);
        cost.observed.push(probe.observed);
        for (attempt, loss) in probe.failures.iter().enumerate() {
            cost.probes += 1;
            cost.timeouts += 1;
            cost.messages += 1; // the request was transmitted
            if *loss == AttemptLoss::Response {
                cost.messages += 1; // served, answered, answer lost
            }
            // AttemptLoss::Crash: the request was transmitted and delivered,
            // then dropped unserved — no response, no extra message.
            if attempt_is_wasted(probe.observed, attempt, &probe.failures) {
                cost.wasted += 1;
            }
        }
        if probe.observed == Color::Green {
            cost.probes += 1;
            cost.messages += 2; // request + delivered response
        }
    }
    cost
}

/// The outcome of a sim-vs-live cross-validation.
#[derive(Debug, Clone)]
pub struct AgreementReport {
    /// Whether every logical observable agreed.
    pub agree: bool,
    /// Sessions compared.
    pub sessions_checked: usize,
    /// Human-readable descriptions of the first few mismatches (capped so a
    /// systemic divergence stays readable).
    pub mismatches: Vec<String>,
}

impl AgreementReport {
    const MISMATCH_CAP: usize = 12;

    fn note(&mut self, message: String) {
        self.agree = false;
        if self.mismatches.len() < Self::MISMATCH_CAP {
            self.mismatches.push(message);
        }
    }
}

/// Cross-validates a live replay against the sim trace it was built from:
/// per session, ok/fail, the probe sequence, the observed colors and the
/// probe/message/waste/timeout counts must all match, and the live
/// aggregates must equal the sim engine's report.
pub fn cross_validate(
    trace: &SessionTrace,
    sim: &WorkloadReport,
    live: &LiveReport,
) -> AgreementReport {
    let mut report = AgreementReport {
        agree: true,
        sessions_checked: 0,
        mismatches: Vec::new(),
    };
    if live.rejected > 0 {
        report.note(format!(
            "live admission rejected {} sessions the sim ran — raise the admission limit for \
             cross-validation runs",
            live.rejected
        ));
    }
    if live.sessions.len() != trace.sessions.len() {
        report.note(format!(
            "session count: sim ran {}, live completed {}",
            trace.sessions.len(),
            live.sessions.len()
        ));
    }
    let mut live_messages = 0u64;
    for (traced, outcome) in trace.sessions.iter().zip(&live.sessions) {
        report.sessions_checked += 1;
        let expect = plan_observables(&traced.plan);
        let session = traced.index;
        if outcome.index != session {
            report.note(format!(
                "session order: trace position held #{session}, live held #{}",
                outcome.index
            ));
            continue;
        }
        if outcome.ok != expect.ok {
            report.note(format!(
                "session #{session} ok/fail: sim {}, live {}",
                expect.ok, outcome.ok
            ));
        }
        if outcome.sequence != expect.sequence {
            report.note(format!(
                "session #{session} probe sequence: sim {:?}, live {:?}",
                expect.sequence, outcome.sequence
            ));
        }
        if outcome.observed != expect.observed {
            report.note(format!(
                "session #{session} observed colors: sim {:?}, live {:?}",
                expect.observed, outcome.observed
            ));
        }
        if outcome.probes != expect.probes {
            report.note(format!(
                "session #{session} probe attempts: sim {}, live {}",
                expect.probes, outcome.probes
            ));
        }
        if outcome.messages != expect.messages {
            report.note(format!(
                "session #{session} messages: sim {}, live {}",
                expect.messages, outcome.messages
            ));
        }
        if outcome.wasted != expect.wasted {
            report.note(format!(
                "session #{session} wasted attempts: sim {}, live {}",
                expect.wasted, outcome.wasted
            ));
        }
        if outcome.timeouts != expect.timeouts {
            report.note(format!(
                "session #{session} timeouts: sim {}, live {}",
                expect.timeouts, outcome.timeouts
            ));
        }
        live_messages += outcome.messages;
    }
    // The aggregate ties the live execution to the *engine's* own counters,
    // not just to the trace: if the pricing code and the live runtime ever
    // disagreed about what a message is, this is where it surfaces.
    if live.sessions.len() == trace.sessions.len() {
        if live_messages != sim.messages {
            report.note(format!(
                "aggregate messages: sim engine {}, live {live_messages}",
                sim.messages
            ));
        }
        if live.successes != sim.successes as u64 {
            report.note(format!(
                "aggregate successes: sim engine {}, live {}",
                sim.successes, live.successes
            ));
        }
        if live.wasted != sim.wasted_probes {
            report.note(format!(
                "aggregate wasted attempts: sim engine {}, live {}",
                sim.wasted_probes, live.wasted
            ));
        }
        if live.probes != sim.probes {
            report.note(format!(
                "aggregate probe attempts: sim engine {}, live {}",
                sim.probes, live.probes
            ));
        }
    }
    // Crash accounting: the live runtime must have lost to crashes exactly
    // the requests the trace scripted as crash-fated — no more, no fewer —
    // and the sim engine must have counted the same losses.
    if live.sessions.len() == trace.sessions.len() {
        let scripted: u64 = trace
            .sessions
            .iter()
            .flat_map(|t| &t.plan.probes)
            .flat_map(|p| &p.failures)
            .filter(|&&loss| loss == AttemptLoss::Crash)
            .count() as u64;
        if live.requests_lost_to_crash != scripted {
            report.note(format!(
                "crash fates: trace scripted {scripted} crash-lost requests, live dropped {}",
                live.requests_lost_to_crash
            ));
        }
        if sim.lost_to_crash != scripted {
            report.note(format!(
                "crash fates: trace scripted {scripted} crash-lost requests, sim engine \
                 priced {}",
                sim.lost_to_crash
            ));
        }
    }
    if !live.drained_clean() {
        report.note(format!(
            "shutdown lost requests: {} delivered to nodes, {} served, {} lost to crashes",
            live.requests_delivered, live.requests_served, live.requests_lost_to_crash
        ));
    }
    report
}

/// The result of running a [`WorkloadSpec`].
///
/// The sim report is always present (the live backend runs the simulation
/// first to produce the trace); the live fields are populated only under
/// [`Backend::Live`].
#[derive(Debug)]
pub struct SpecReport {
    /// The discrete-event engine's report.
    pub report: WorkloadReport,
    /// The captured per-session trace (live backend only).
    pub trace: Option<SessionTrace>,
    /// The live runtime's report (live backend only).
    pub live: Option<LiveReport>,
    /// The sim-vs-live cross-validation (live backend only).
    pub agreement: Option<AgreementReport>,
}

impl SpecReport {
    /// The result of a sim-backend run.
    fn sim(report: WorkloadReport) -> Self {
        SpecReport {
            report,
            trace: None,
            live: None,
            agreement: None,
        }
    }

    /// Whether the run's cross-validation agreed (vacuously true for the sim
    /// backend, which has nothing to disagree with).
    pub fn agrees(&self) -> bool {
        self.agreement.as_ref().is_none_or(|a| a.agree)
    }
}

/// A complete description of one workload run: system size, arrival process,
/// network model, probe policy and execution backend, assembled builder
/// style.
///
/// ```
/// use quorum_cluster::spec::{Backend, WorkloadSpec};
/// use quorum_cluster::workload::{ArrivalProcess, NetSessionPlan, SessionPlan};
/// use quorum_cluster::SimTime;
///
/// let spec = WorkloadSpec::new(5)
///     .sessions(40)
///     .arrivals(ArrivalProcess::OpenPoisson {
///         mean_interarrival: SimTime::from_micros(300),
///     })
///     .backend(Backend::Sim);
/// let outcome = spec.run(7, |_, _, _, _| {
///     NetSessionPlan::from_plan(SessionPlan {
///         sequence: vec![0, 1, 2],
///         colors: vec![quorum_core::Color::Green; 3],
///         success: true,
///     })
/// });
/// assert_eq!(outcome.report.sessions, 40);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    nodes: usize,
    config: WorkloadConfig,
    network: NetworkModel,
    policy: ProbePolicy,
    backend: Backend,
}

impl WorkloadSpec {
    /// A spec over `nodes` nodes with LAN-flavoured defaults: open-Poisson
    /// arrivals every 250 µs, 100 sessions, 100–400 µs one-way latency,
    /// exponential 150 µs service, 5 ms probe timeout, clean network,
    /// sequential policy, sim backend.
    pub fn new(nodes: usize) -> Self {
        WorkloadSpec {
            nodes,
            config: WorkloadConfig {
                arrival: ArrivalProcess::OpenPoisson {
                    mean_interarrival: SimTime::from_micros(250),
                },
                sessions: 100,
                rpc_latency: Distribution::uniform(
                    SimTime::from_micros(100),
                    SimTime::from_micros(400),
                ),
                service: Distribution::exponential(SimTime::from_micros(150)),
                probe_timeout: SimTime::from_millis(5),
            },
            network: NetworkModel::clean(),
            policy: ProbePolicy::sequential(),
            backend: Backend::Sim,
        }
    }

    /// Replaces the whole workload configuration at once (arrivals, session
    /// count, latency, service, timeout).
    pub fn config(mut self, config: WorkloadConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, arrival: ArrivalProcess) -> Self {
        self.config.arrival = arrival;
        self
    }

    /// Sets the total session count.
    pub fn sessions(mut self, sessions: usize) -> Self {
        self.config.sessions = sessions;
        self
    }

    /// Sets the one-way RPC latency distribution.
    pub fn rpc_latency(mut self, latency: Distribution) -> Self {
        self.config.rpc_latency = latency;
        self
    }

    /// Sets the per-probe service-time distribution.
    pub fn service(mut self, service: Distribution) -> Self {
        self.config.service = service;
        self
    }

    /// Sets the client-side probe timeout.
    pub fn probe_timeout(mut self, timeout: SimTime) -> Self {
        self.config.probe_timeout = timeout;
        self
    }

    /// Sets the network model (loss, delay, fault schedule).
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the client-side probe policy (retries, backoff, hedging).
    pub fn policy(mut self, policy: ProbePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The node count of the spec.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The assembled workload configuration.
    pub fn workload_config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The network model of the spec.
    pub fn network_model(&self) -> &NetworkModel {
        &self.network
    }

    /// The probe policy of the spec.
    pub fn probe_policy(&self) -> &ProbePolicy {
        &self.policy
    }

    /// The selected backend.
    pub fn selected_backend(&self) -> &Backend {
        &self.backend
    }

    /// Runs the spec. `session(index, ledger, now, rng)` is called once per
    /// session at its (virtual) arrival time, with the live ledger and the
    /// engine's RNG: the caller samples the failure scenario, decides each
    /// element's transit fate through [`NetworkModel::probe_fate`], runs its
    /// strategy against the *observed* coloring, and returns the resulting
    /// [`NetSessionPlan`]. Failed attempts cost the configured timeout (plus
    /// the policy's backoff); answered attempts travel the delay → queue →
    /// service → delay pipeline; a hedging policy launches the session's
    /// next candidate once a probe has not resolved after the hedging delay
    /// (at most two probes in flight, the race's slower probe counted as
    /// cancelled).
    ///
    /// Under [`Backend::Sim`] this is the discrete-event engine, bit for bit.
    /// Under [`Backend::Live`] the sim runs first (same bits), its trace is
    /// replayed on the live runtime, and the two executions are
    /// cross-validated; the wall-clock side lands in [`SpecReport::live`]
    /// and the verdict in [`SpecReport::agreement`].
    ///
    /// # Panics
    ///
    /// Panics with "inconsistent workload configuration", before anything
    /// is scheduled, if the configuration is invalid
    /// ([`WorkloadConfig::is_valid`]), the network delay or hedge delay
    /// exceeds [`WorkloadConfig::MAX_DURATION`], or a fault window ends past
    /// it. Under [`Backend::Live`] the live run panics with the same
    /// message, before it starts, if the supervisor's restart delay or
    /// partition patience exceeds it. (A red observation with no failed
    /// attempts is legal: it is a *shed* probe that resolves instantly at
    /// zero cost.)
    pub fn run<F>(&self, seed: u64, mut session: F) -> SpecReport
    where
        F: FnMut(u64, &LoadLedger, SimTime, &mut StdRng) -> NetSessionPlan,
    {
        match &self.backend {
            Backend::Sim => SpecReport::sim(self.engine(seed, session)),
            Backend::Live(options) => {
                let mut trace = SessionTrace::default();
                let report = self.engine(seed, |index, ledger, now, rng| {
                    let plan = session(index, ledger, now, rng);
                    trace.sessions.push(TracedSession {
                        index,
                        arrival: now,
                        plan: plan.clone(),
                    });
                    plan
                });
                let live = run_live(
                    self.nodes,
                    &trace,
                    &self.config,
                    &self.network.faults,
                    &self.policy,
                    options,
                );
                let agreement = cross_validate(&trace, &report, &live);
                SpecReport {
                    report,
                    trace: Some(trace),
                    live: Some(live),
                    agreement: Some(agreement),
                }
            }
        }
    }

    /// Runs the spec on latency-only plans: green probes answer first try,
    /// red probes are one unanswered attempt (the timeout). `session(index,
    /// ledger, now)` is called once per session at its arrival time, with
    /// the live ledger — where a caller samples the failure scenario and
    /// runs a (possibly load-aware) probe strategy.
    ///
    /// The report is the one [`run`](Self::run) gives for the same plans
    /// widened by [`NetSessionPlan::from_plan`]. The sim backend prices the
    /// plans as they stand; the live backend widens them for its trace.
    ///
    /// # Panics
    ///
    /// Panics as [`run`](Self::run) does on an invalid configuration, or if
    /// a plan's `colors` length does not match its `sequence`.
    pub fn run_plans<F>(&self, seed: u64, mut session: F) -> SpecReport
    where
        F: FnMut(u64, &LoadLedger, SimTime) -> SessionPlan,
    {
        match self.backend {
            Backend::Sim => SpecReport::sim(self.engine(seed, |index, ledger, now, _rng| {
                session(index, ledger, now).checked()
            })),
            Backend::Live(_) => self.run(seed, |index, ledger, now, _rng| {
                NetSessionPlan::from_plan(session(index, ledger, now))
            }),
        }
    }

    /// Runs the discrete-event engine on this spec's parameters.
    fn engine<P, F>(&self, seed: u64, session: F) -> WorkloadReport
    where
        P: PlanView,
        F: FnMut(u64, &LoadLedger, SimTime, &mut StdRng) -> P,
    {
        run_net_engine(
            self.nodes,
            &self.config,
            &self.network,
            &self.policy,
            seed,
            session,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Fault, FaultSchedule};
    use crate::workload::NetProbe;

    fn lossy_plan() -> NetSessionPlan {
        NetSessionPlan {
            probes: vec![
                NetProbe {
                    node: 0,
                    observed: Color::Green,
                    failures: vec![AttemptLoss::Request, AttemptLoss::Response],
                },
                NetProbe {
                    node: 1,
                    observed: Color::Red,
                    failures: vec![AttemptLoss::Request, AttemptLoss::Request],
                },
            ],
            success: false,
        }
    }

    #[test]
    fn plan_observables_count_like_the_engine() {
        let cost = plan_observables(&lossy_plan());
        assert_eq!(cost.sequence, vec![0, 1]);
        assert_eq!(cost.observed, vec![Color::Green, Color::Red]);
        // Probe 0: 2 failures + 1 answer; probe 1: 2 failures.
        assert_eq!(cost.probes, 5);
        assert_eq!(cost.timeouts, 4);
        // Probe 0: req, req + lost resp, req + resp = 5; probe 1: 2 reqs.
        assert_eq!(cost.messages, 7);
        // Probe 0's two failures are retried-over (green) = 2; probe 1's
        // first failure is retried-over = 1; its final timeout IS the red
        // observation — not waste.
        assert_eq!(cost.wasted, 3);
        assert!(!cost.ok);
    }

    #[test]
    fn waste_classification_matches_the_documented_rule() {
        let failures = [AttemptLoss::Request, AttemptLoss::Request];
        // Green observation: every failure is waste.
        assert!(attempt_is_wasted(Color::Green, 0, &failures));
        assert!(attempt_is_wasted(Color::Green, 1, &failures));
        // Red observation: only non-final failures are waste…
        assert!(attempt_is_wasted(Color::Red, 0, &failures));
        assert!(!attempt_is_wasted(Color::Red, 1, &failures));
        // …unless the node served the request and the answer was dropped.
        let served = [AttemptLoss::Request, AttemptLoss::Response];
        assert!(attempt_is_wasted(Color::Red, 1, &served));
    }

    #[test]
    fn sim_backend_matches_the_engine() {
        let spec = WorkloadSpec::new(3).sessions(25);
        let via_spec = spec.run(11, |_, _, _, _| lossy_plan());
        assert!(via_spec.trace.is_none());
        assert!(via_spec.live.is_none());
        assert!(via_spec.agrees(), "sim backend agrees vacuously");
        let direct = run_net_engine(
            3,
            spec.workload_config(),
            spec.network_model(),
            spec.probe_policy(),
            11,
            |_, _, _, _| lossy_plan(),
        );
        assert_eq!(via_spec.report.duration, direct.duration);
        assert_eq!(via_spec.report.messages, direct.messages);
        assert_eq!(via_spec.report.latency, direct.latency);
        // The engine's aggregate counters equal the sum of plan costs: the
        // pricing code and the schedule-free observables cannot drift.
        let per_plan = plan_observables(&lossy_plan());
        assert_eq!(direct.messages, 25 * per_plan.messages);
        assert_eq!(direct.wasted_probes, 25 * per_plan.wasted);
        assert_eq!(direct.probes, 25 * per_plan.probes);
    }

    /// One small live run whose trace lost, retried, hedged and crash-fated
    /// attempts: 6 nodes on a 10 %-loss network, node 1 crashed from 2 ms
    /// to 6 ms, two attempts per probe and a 400 µs hedge.
    fn recorded_live_run() -> (SessionTrace, WorkloadReport, LiveReport) {
        let network = NetworkModel::lossy(100_000).with_faults(FaultSchedule::window(
            Fault::Crash,
            vec![1],
            SimTime::from_millis(2),
            SimTime::from_millis(6),
        ));
        let policy =
            ProbePolicy::retry(2, SimTime::from_micros(100)).with_hedge(SimTime::from_micros(400));
        let spec = WorkloadSpec::new(6)
            .sessions(40)
            .network(network.clone())
            .policy(policy)
            .backend(Backend::Live(LiveOptions::default().time_scale(0.002)));
        let outcome = spec.run(29, |index, _, now, rng| {
            let probes: Vec<NetProbe> = (0..3)
                .map(|k| {
                    let node = (index as usize + k) % 6;
                    let fate = network.probe_fate(node, true, now, &policy, rng);
                    NetProbe {
                        node,
                        observed: fate.observed,
                        failures: fate.failures,
                    }
                })
                .collect();
            let greens = probes.iter().filter(|p| p.observed == Color::Green).count();
            NetSessionPlan {
                probes,
                success: greens >= 2,
            }
        });
        let agreement = outcome.agreement.expect("the live backend validates");
        assert!(
            agreement.agree,
            "the recorded run must agree:\n{}",
            agreement.mismatches.join("\n")
        );
        (
            outcome.trace.expect("the live backend traces"),
            outcome.report,
            outcome.live.expect("the live backend reports"),
        )
    }

    /// `cross_validate` refuses every single divergence from a run it
    /// accepts, and names what diverged: each per-session observable, a
    /// dropped or reordered session, shed sessions, the sim engine's
    /// aggregates, either side's crash-loss count and an undrained node.
    #[test]
    fn cross_validate_refuses_each_divergence_by_name() {
        let (trace, sim, live) = recorded_live_run();
        let probes = || trace.sessions.iter().flat_map(|t| &t.plan.probes);
        assert!(
            probes().any(|p| p.observed == Color::Green && !p.failures.is_empty()),
            "no retried probe"
        );
        assert!(probes().any(|p| p.failures.contains(&AttemptLoss::Request)));
        assert!(probes().any(|p| p.failures.contains(&AttemptLoss::Response)));
        assert!(probes().any(|p| p.failures.contains(&AttemptLoss::Crash)));
        assert!(sim.hedges > 0, "no hedged probe");

        let refuses = |sim: &WorkloadReport, live: &LiveReport, names: &str| {
            let verdict = cross_validate(&trace, sim, live);
            assert!(!verdict.agree, "accepted a changed {names}");
            assert!(
                verdict.mismatches.iter().any(|m| m.contains(names)),
                "no mismatch names {names}: {:?}",
                verdict.mismatches
            );
        };
        let live_with = |change: &dyn Fn(&mut LiveReport)| {
            let mut copy = live.clone();
            change(&mut copy);
            copy
        };
        let sim_with = |change: &dyn Fn(&mut WorkloadReport)| {
            let mut copy = sim.clone();
            change(&mut copy);
            copy
        };
        let first = live.sessions[0].index;
        let session = |field: &str| format!("session #{first} {field}");

        refuses(
            &sim,
            &live_with(&|l| l.sessions[0].ok ^= true),
            &session("ok/fail"),
        );
        refuses(
            &sim,
            &live_with(&|l| l.sessions[0].sequence[1] = (l.sessions[0].sequence[1] + 1) % 6),
            &session("probe sequence"),
        );
        refuses(
            &sim,
            &live_with(&|l| {
                let color = &mut l.sessions[0].observed[2];
                *color = if *color == Color::Green {
                    Color::Red
                } else {
                    Color::Green
                };
            }),
            &session("observed colors"),
        );
        refuses(
            &sim,
            &live_with(&|l| l.sessions[0].probes += 1),
            &session("probe attempts"),
        );
        refuses(
            &sim,
            &live_with(&|l| l.sessions[0].messages += 1),
            &session("messages"),
        );
        refuses(
            &sim,
            &live_with(&|l| l.sessions[0].wasted += 1),
            &session("wasted attempts"),
        );
        refuses(
            &sim,
            &live_with(&|l| l.sessions[0].timeouts += 1),
            &session("timeouts"),
        );
        refuses(
            &sim,
            &live_with(&|l| {
                l.sessions.remove(5);
            }),
            "session count",
        );
        refuses(
            &sim,
            &live_with(&|l| l.sessions.swap(3, 4)),
            "session order",
        );
        refuses(&sim, &live_with(&|l| l.rejected = 1), "admission rejected");

        refuses(&sim_with(&|s| s.messages += 1), &live, "aggregate messages");
        refuses(
            &sim_with(&|s| s.probes += 1),
            &live,
            "aggregate probe attempts",
        );
        refuses(
            &sim_with(&|s| s.wasted_probes += 1),
            &live,
            "aggregate wasted attempts",
        );
        refuses(
            &sim_with(&|s| s.successes += 1),
            &live,
            "aggregate successes",
        );

        refuses(
            &sim,
            &live_with(&|l| l.requests_lost_to_crash += 1),
            "live dropped",
        );
        refuses(
            &sim_with(&|s| s.lost_to_crash += 1),
            &live,
            "sim engine priced",
        );
        refuses(
            &sim,
            &live_with(&|l| l.requests_delivered += 1),
            "shutdown lost requests",
        );
    }
}
