//! The concurrent workload engine: a discrete-event scheduler that
//! interleaves many simultaneous client probing sessions over simulated
//! nodes with service queues, connected through a message-level network.
//!
//! It models heavy traffic over an unreliable network: many clients probe
//! concurrently, nodes take time to *serve* each probe, and every probe is
//! a request/response message pair that can be lost or partitioned away:
//!
//! * **Arrivals** ([`ArrivalProcess`]): open-loop Poisson (sessions arrive at
//!   a fixed rate regardless of completions) or closed-loop think time (a
//!   fixed client population, each starting its next session a think time
//!   after the previous one finished).
//! * **Per-node service queues**: each delivered probe request travels one
//!   network delay, waits for the node's FIFO queue (ordered by probe-issue
//!   time), is served for a sampled service time, and travels back.
//! * **Message-level faults** ([`NetworkModel`]): either leg of a probe can
//!   be dropped by loss or a message-level [`crate::FaultSchedule`] window; a
//!   dropped message never arrives, so the timeout is a *client-side policy*
//!   ([`ProbePolicy`]: bounded retries with exponential backoff, hedged
//!   probes) rather than an oracle.
//! * **Load ledger** ([`LoadLedger`]): probes received, timeouts, busy time,
//!   current backlog and peak backlog per node — the signal that load-aware
//!   probe strategies consult.
//!
//! The engine knows nothing about strategies or failure models: the caller
//! supplies a `session` closure that, given the session index and the current
//! ledger, returns the plan (probe sequence, observed colors and per-attempt
//! message fates) that session will execute. `quorum-sim` builds those plans
//! by sampling a failure scenario, deciding each element's fate through the
//! network model, and running a probe strategy against the *observed*
//! coloring; the engine turns them into interleaved, queued, timed RPCs.
//! Everything is a pure function of the seed and the supplied closure, so
//! runs are bit-reproducible. [`WorkloadSpec`](crate::spec::WorkloadSpec)
//! is the entry point: `run` takes message-level plans, and `run_plans`
//! takes latency-only ones, which price exactly as `run` prices them on a
//! [`NetworkModel::clean`] network with the [`ProbePolicy::sequential`]
//! policy.
//!
//! Pending events (arrivals, probe resolutions, hedge timers) wait on a
//! timing wheel of one-microsecond slots; events a span or more ahead of the
//! clock wait in an overflow heap until the clock comes within the span.
//! The wheel fires events in `(time, schedule order)`, exactly like a binary
//! heap keyed on a schedule counter, because the engine never schedules an
//! event before the instant it is processing. The engine reads both plan
//! types through one view, so a latency-only [`SessionPlan`] is priced as it
//! stands, without being widened into a [`NetSessionPlan`], and the engine
//! allocates nothing per probe.

use std::collections::VecDeque;

use quorum_analysis::{load_imbalance, wasted_work_fraction, LogHistogram};
use quorum_core::Color;
use quorum_probe::session::AttemptLoss;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::network::{NetworkModel, ProbePolicy};
use crate::wheel::TimingWheel;
use crate::{NodeId, SimTime};

/// A distribution over durations, sampled with the engine's seeded RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Always the same duration.
    Fixed(SimTime),
    /// Uniform over `[min, max]`.
    Uniform {
        /// Smallest possible duration.
        min: SimTime,
        /// Largest possible duration.
        max: SimTime,
    },
    /// Exponential with the given mean (memoryless service/think times).
    Exponential {
        /// The mean duration.
        mean: SimTime,
    },
    /// A heavy-tailed mixture: mostly uniform over `[min, max]`, but with
    /// probability `slow_ppm` (parts per million) an exponential straggler
    /// of mean `slow` — the tail-latency regime hedged probes target.
    HeavyTail {
        /// Smallest common-case duration.
        min: SimTime,
        /// Largest common-case duration.
        max: SimTime,
        /// Mean of the straggler tail.
        slow: SimTime,
        /// Straggler probability, in parts per million.
        slow_ppm: u32,
    },
}

impl Distribution {
    /// A fixed duration.
    pub fn fixed(value: SimTime) -> Self {
        Distribution::Fixed(value)
    }

    /// Uniform over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn uniform(min: SimTime, max: SimTime) -> Self {
        assert!(min <= max, "uniform distribution needs min <= max");
        Distribution::Uniform { min, max }
    }

    /// Exponential with the given mean.
    pub fn exponential(mean: SimTime) -> Self {
        Distribution::Exponential { mean }
    }

    /// The heavy-tailed mixture: uniform `[min, max]` with an exponential
    /// straggler of mean `slow` at probability `slow_ppm`/1e6.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `slow_ppm > 1_000_000`.
    pub fn heavy_tail(min: SimTime, max: SimTime, slow: SimTime, slow_ppm: u32) -> Self {
        assert!(min <= max, "heavy-tail body needs min <= max");
        assert!(slow_ppm <= 1_000_000, "slow_ppm is parts per million");
        Distribution::HeavyTail {
            min,
            max,
            slow,
            slow_ppm,
        }
    }

    /// The mean duration.
    pub fn mean(&self) -> SimTime {
        match self {
            Distribution::Fixed(value) => *value,
            Distribution::Uniform { min, max } => {
                SimTime::from_micros((min.as_micros() + max.as_micros()) / 2)
            }
            Distribution::Exponential { mean } => *mean,
            Distribution::HeavyTail {
                min,
                max,
                slow,
                slow_ppm,
            } => {
                let body = (min.as_micros() + max.as_micros()) / 2;
                let ppm = u64::from(*slow_ppm);
                SimTime::from_micros(
                    (body * (1_000_000 - ppm) + slow.as_micros() * ppm) / 1_000_000,
                )
            }
        }
    }

    /// The largest duration among the parameters (checked against
    /// [`WorkloadConfig::MAX_DURATION`]).
    fn largest_parameter(&self) -> SimTime {
        match *self {
            Distribution::Fixed(value) => value,
            Distribution::Uniform { max, .. } => max,
            Distribution::Exponential { mean } => mean,
            Distribution::HeavyTail { max, slow, .. } => max.max(slow),
        }
    }

    /// Draws one duration.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> SimTime {
        match self {
            Distribution::Fixed(value) => *value,
            Distribution::Uniform { min, max } => {
                let (lo, hi) = (min.as_micros(), max.as_micros());
                if hi > lo {
                    SimTime::from_micros(rng.gen_range(lo..=hi))
                } else {
                    *min
                }
            }
            Distribution::Exponential { mean } => {
                // Inverse CDF on a 53-bit uniform in [0, 1); `1 - u` keeps the
                // argument of `ln` strictly positive.
                let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let draw = -(mean.as_micros() as f64) * (1.0 - u).ln();
                SimTime::from_micros(draw.round() as u64)
            }
            Distribution::HeavyTail {
                min,
                max,
                slow,
                slow_ppm,
            } => {
                if rng.gen_range(0u32..1_000_000) < *slow_ppm {
                    Distribution::Exponential { mean: *slow }.sample(rng)
                } else {
                    Distribution::Uniform {
                        min: *min,
                        max: *max,
                    }
                    .sample(rng)
                }
            }
        }
    }
}

/// How client sessions arrive at the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Open loop: inter-arrival times are drawn from an exponential with the
    /// given mean, independent of completions (a Poisson process). Offered
    /// load does not back off when the system slows down.
    OpenPoisson {
        /// Mean time between session arrivals.
        mean_interarrival: SimTime,
    },
    /// Closed loop: a fixed population of clients; each client starts its
    /// next session one think time after its previous session completed.
    /// Offered load is self-limiting — at most `clients` sessions in flight.
    ClosedLoop {
        /// Number of concurrent clients.
        clients: usize,
        /// Think time between a completion and the client's next session.
        think: Distribution,
    },
}

impl ArrivalProcess {
    /// A short label used in report rows.
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::OpenPoisson { mean_interarrival } => {
                format!("open-poisson({mean_interarrival})")
            }
            ArrivalProcess::ClosedLoop { clients, think } => {
                format!("closed({clients} clients,think={})", think.mean())
            }
        }
    }
}

/// Configuration of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// How sessions arrive.
    pub arrival: ArrivalProcess,
    /// Total number of sessions to run.
    pub sessions: usize,
    /// One-way network delay of a probe request (and of its response).
    pub rpc_latency: Distribution,
    /// Service time of one probe at a live node.
    pub service: Distribution,
    /// How long a client waits for a probe answer before the attempt is
    /// written off (a timed-out or unreachable attempt costs this much).
    pub probe_timeout: SimTime,
}

impl WorkloadConfig {
    /// The longest duration a workload may configure: one hour of virtual
    /// time. The engine adds configured durations to its 64-bit microsecond
    /// clock, so an unbounded one could wrap it, and the live runtime sleeps
    /// until fault windows end; the shipped scenarios stay under 5 s. It
    /// also bounds every fault window's end and the live supervisor's
    /// delays.
    pub const MAX_DURATION: SimTime = SimTime::from_millis(3_600_000);

    /// Whether the configuration is consistent: at least one session, a
    /// positive timeout, a closed loop with at least one client, and every
    /// duration (the timeout, the mean inter-arrival, and each parameter of
    /// the latency, service and think-time distributions) at most
    /// [`WorkloadConfig::MAX_DURATION`].
    pub fn is_valid(&self) -> bool {
        let arrival_ok = match self.arrival {
            ArrivalProcess::OpenPoisson { mean_interarrival } => {
                mean_interarrival <= Self::MAX_DURATION
            }
            ArrivalProcess::ClosedLoop { clients, think } => {
                clients >= 1 && think.largest_parameter() <= Self::MAX_DURATION
            }
        };
        self.sessions >= 1
            && self.probe_timeout > SimTime::ZERO
            && self.probe_timeout <= Self::MAX_DURATION
            && self.rpc_latency.largest_parameter() <= Self::MAX_DURATION
            && self.service.largest_parameter() <= Self::MAX_DURATION
            && arrival_ok
    }

    /// A rough estimate of the run's virtual-time horizon, used to place
    /// partition windows relative to the run (not a guarantee — queueing can
    /// stretch the actual run past it).
    pub fn horizon_hint(&self) -> SimTime {
        match self.arrival {
            ArrivalProcess::OpenPoisson { mean_interarrival } => {
                mean_interarrival.saturating_mul(self.sessions as u64)
            }
            ArrivalProcess::ClosedLoop { clients, think } => {
                let per_session = think.mean()
                    + self.service.mean().saturating_mul(4)
                    + self.rpc_latency.mean().saturating_mul(2);
                per_session.saturating_mul(self.sessions.div_ceil(clients.max(1)) as u64)
            }
        }
    }
}

/// Per-node load bookkeeping, updated as the engine issues probe RPCs.
#[derive(Debug, Clone)]
pub struct LoadLedger {
    probes: Vec<u64>,
    timeouts: Vec<u64>,
    busy: Vec<SimTime>,
    /// Outstanding service completion times per node, in FIFO order.
    outstanding: Vec<VecDeque<SimTime>>,
    peak_backlog: Vec<usize>,
}

impl LoadLedger {
    fn new(n: usize) -> Self {
        LoadLedger {
            probes: vec![0; n],
            timeouts: vec![0; n],
            busy: vec![SimTime::ZERO; n],
            outstanding: vec![VecDeque::new(); n],
            peak_backlog: vec![0; n],
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the ledger tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Probes received per node so far (timeouts included).
    pub fn probes_received(&self) -> &[u64] {
        &self.probes
    }

    /// Timed-out probes per node so far.
    pub fn timeouts(&self) -> &[u64] {
        &self.timeouts
    }

    /// Cumulative service time of node `node`.
    pub fn busy_time(&self, node: NodeId) -> SimTime {
        self.busy[node]
    }

    /// The peak backlog (requests queued or in service) node `node` reached.
    pub fn peak_backlog(&self, node: NodeId) -> usize {
        self.peak_backlog[node]
    }

    /// Requests queued or in service at `node` as of `now`.
    pub fn backlog(&self, node: NodeId, now: SimTime) -> usize {
        // Finish times are non-decreasing along the queue (see `serve`), so
        // the unfinished requests are a suffix.
        let queue = &self.outstanding[node];
        queue.len() - queue.partition_point(|&finish| finish <= now)
    }

    /// A single load score for `node` as of `now`: the current backlog in the
    /// high bits (the hot, instantaneous signal) with cumulative probes as
    /// the low-order tie-break, so idle nodes order by long-run fairness.
    pub fn score(&self, node: NodeId, now: SimTime) -> u64 {
        ((self.backlog(node, now) as u64) << 32) | self.probes[node].min(u32::MAX as u64)
    }

    /// The load-imbalance factor (max/mean) of cumulative probes per node.
    pub fn imbalance(&self) -> f64 {
        load_imbalance(&self.probes)
    }

    /// Drops completed requests (finish `<= now`) from a node's queue; the
    /// queue is FIFO in finish time, so this is a pop-front loop.
    fn prune(&mut self, node: NodeId, now: SimTime) {
        while self.outstanding[node].front().is_some_and(|&f| f <= now) {
            self.outstanding[node].pop_front();
        }
    }
}

/// What one client session will do, decided by the caller's session closure:
/// the probe order its strategy chose and the color each probe will observe.
///
/// This is the latency-only plan of
/// [`WorkloadSpec::run_plans`](crate::spec::WorkloadSpec::run_plans): a green
/// probe answers first try and a red probe is one unanswered request. The
/// sim engine prices it as it stands; [`NetSessionPlan`]s add arbitrary
/// per-attempt fates.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// The elements to probe, in order.
    pub sequence: Vec<NodeId>,
    /// The color each probe observes (`Green` = served, `Red` = timeout).
    /// Must have the same length as `sequence`.
    pub colors: Vec<Color>,
    /// Whether the session located a live quorum.
    pub success: bool,
}

/// One probe of a message-level session plan: the element, the color the
/// client ends up recording, and the transit fate of each failed attempt.
#[derive(Debug, Clone)]
pub struct NetProbe {
    /// The element (node) probed.
    pub node: NodeId,
    /// The color the client records once its attempts are exhausted or
    /// answered.
    pub observed: Color,
    /// The failed attempts, in order ([`AttemptLoss::Request`] legs cost a
    /// timeout; [`AttemptLoss::Response`] legs additionally make the node do
    /// wasted work; [`AttemptLoss::Crash`] legs deliver into a dying node
    /// that drops the work unserved). A green observation answers on the
    /// attempt after these. A red observation with *no* entries is a *shed*
    /// probe (see `quorum_probe::health`): the client declined to send, so
    /// it costs no attempts, no messages and no time.
    pub failures: Vec<AttemptLoss>,
}

/// What one client session will do under the message-level engine.
#[derive(Debug, Clone)]
pub struct NetSessionPlan {
    /// The probes, in the order the strategy issued them.
    pub probes: Vec<NetProbe>,
    /// Whether the session located a live quorum *in its observed coloring*.
    pub success: bool,
}

impl SessionPlan {
    /// Returns the plan after checking that its `colors` align with its
    /// `sequence`.
    pub(crate) fn checked(self) -> Self {
        assert_eq!(
            self.sequence.len(),
            self.colors.len(),
            "session plan colors must align with its probe sequence"
        );
        self
    }
}

impl NetSessionPlan {
    /// Adapts a latency-only [`SessionPlan`]: green probes answer first try,
    /// red probes are one unanswered attempt — the oracle semantics of the
    /// pre-network engine. The sim engine prices a [`SessionPlan`] without
    /// this conversion; the live backend's trace needs it.
    ///
    /// # Panics
    ///
    /// Panics if the plan's `colors` length does not match its `sequence`.
    pub fn from_plan(plan: SessionPlan) -> Self {
        let plan = plan.checked();
        NetSessionPlan {
            probes: plan
                .sequence
                .into_iter()
                .zip(plan.colors)
                .map(|(node, observed)| NetProbe {
                    node,
                    observed,
                    failures: match observed {
                        Color::Green => Vec::new(),
                        Color::Red => vec![AttemptLoss::Request],
                    },
                })
                .collect(),
            success: plan.success,
        }
    }
}

/// One probe as the engine prices it: the node, the color the client
/// records, and the failed attempts before that (see [`NetProbe`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeView<'a> {
    pub(crate) node: NodeId,
    pub(crate) observed: Color,
    pub(crate) failures: &'a [AttemptLoss],
}

/// The engine's read-only view of a session plan. Both plan types implement
/// it, so the engine prices a latency-only [`SessionPlan`] in place instead
/// of widening it into a [`NetSessionPlan`].
pub(crate) trait PlanView {
    /// The number of probes.
    fn len(&self) -> usize;
    /// Whether the session located a live quorum.
    fn success(&self) -> bool;
    /// Probe `index`, in issue order.
    fn probe(&self, index: usize) -> ProbeView<'_>;
}

impl PlanView for SessionPlan {
    fn len(&self) -> usize {
        self.sequence.len()
    }

    fn success(&self) -> bool {
        self.success
    }

    fn probe(&self, index: usize) -> ProbeView<'_> {
        let observed = self.colors[index];
        ProbeView {
            node: self.sequence[index],
            observed,
            failures: match observed {
                Color::Green => &[],
                Color::Red => &[AttemptLoss::Request],
            },
        }
    }
}

impl PlanView for NetSessionPlan {
    fn len(&self) -> usize {
        self.probes.len()
    }

    fn success(&self) -> bool {
        self.success
    }

    fn probe(&self, index: usize) -> ProbeView<'_> {
        let probe = &self.probes[index];
        ProbeView {
            node: probe.node,
            observed: probe.observed,
            failures: &probe.failures,
        }
    }
}

/// The measured outcome of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Sessions completed (always equals the configured count).
    pub sessions: usize,
    /// Sessions that located a live quorum.
    pub successes: usize,
    /// Total probe RPCs issued (timeouts and retries included).
    pub probes: u64,
    /// Virtual time of the last session completion.
    pub duration: SimTime,
    /// Session latency histogram, in microseconds of virtual time.
    pub latency: LogHistogram,
    /// The final load ledger.
    pub ledger: LoadLedger,
    /// Messages actually transmitted (requests sent plus responses sent,
    /// whether or not they were delivered).
    pub messages: u64,
    /// Probe attempts whose answer was never used: lost/timed-out attempts
    /// that a retry or red observation wrote off.
    pub wasted_probes: u64,
    /// Probes launched early by the hedging policy.
    pub hedges: u64,
    /// Hedge races where the slower of the two overlapped probes was
    /// cancelled in the ledger (its answer no longer gated the session).
    pub cancelled: u64,
    /// Requests delivered into crashed nodes and dropped unserved
    /// ([`AttemptLoss::Crash`] fates) — the sim-side counterpart of the live
    /// runtime's `requests_lost_to_crash`.
    pub lost_to_crash: u64,
}

impl WorkloadReport {
    /// Completed sessions per second of virtual time.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.duration == SimTime::ZERO {
            0.0
        } else {
            self.sessions as f64 / (self.duration.as_micros() as f64 / 1e6)
        }
    }

    /// Fraction of sessions that found a live quorum.
    pub fn success_rate(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.successes as f64 / self.sessions as f64
        }
    }

    /// Mean probes per session.
    pub fn probes_per_session(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.probes as f64 / self.sessions as f64
        }
    }

    /// Mean messages per session.
    pub fn messages_per_session(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.messages as f64 / self.sessions as f64
        }
    }

    /// Fraction of probe attempts whose answer was never used.
    pub fn wasted_fraction(&self) -> f64 {
        wasted_work_fraction(self.wasted_probes, self.probes)
    }

    /// The load-imbalance factor (max/mean probes per node).
    pub fn load_imbalance(&self) -> f64 {
        self.ledger.imbalance()
    }
}

/// One scheduled event. The [`TimingWheel`] fires simultaneous events in the
/// deterministic order they were scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A new session arrives (index into the session count).
    Arrival(u64),
    /// Probe `1` of session slot `0` resolves at the client: its answer
    /// arrived, or its last attempt timed out.
    Resolved(usize, usize),
    /// The hedging delay of probe `1` in session slot `0` elapsed without a
    /// resolution: consider launching the next candidate.
    HedgeDue(usize, usize),
}

#[derive(Debug)]
struct ActiveSession<P> {
    /// The plan, until the session completes and its buffers are freed.
    plan: Option<P>,
    /// The plan's probe count.
    len: usize,
    next_issue: usize,
    in_flight: usize,
    done: usize,
    started: SimTime,
    /// Whether a hedge-launched pair is currently racing; cleared (and
    /// counted as one cancellation) when the race's first probe resolves.
    hedge_race: bool,
}

/// Mutable engine counters shared by the pricing helpers.
struct EngineState {
    ledger: LoadLedger,
    probes_total: u64,
    messages: u64,
    wasted: u64,
    hedges: u64,
    cancelled: u64,
    lost_to_crash: u64,
}

impl EngineState {
    /// Queues one delivered request at `node` (arriving at `request_at`) and
    /// returns its service-finish instant.
    fn serve(&mut self, node: NodeId, request_at: SimTime, service: SimTime) -> SimTime {
        self.ledger.prune(node, request_at);
        // The queue is FIFO in probe-*issue* order (the order the pricing
        // code runs), not request-arrival order: a request issued earlier but
        // with a longer network delay is still served first. The modelling
        // simplification keeps each probe's full timeline computable at issue
        // time.
        let queue_free = self.ledger.outstanding[node]
            .back()
            .copied()
            .unwrap_or(request_at)
            .max(request_at);
        let finish = queue_free + service;
        // `LoadLedger::backlog` binary-searches on this order.
        debug_assert!(self.ledger.outstanding[node]
            .back()
            .is_none_or(|&last| last <= finish));
        self.ledger.busy[node] += service;
        self.ledger.outstanding[node].push_back(finish);
        let depth = self.ledger.outstanding[node].len();
        if depth > self.ledger.peak_backlog[node] {
            self.ledger.peak_backlog[node] = depth;
        }
        finish
    }

    /// Prices one probe issued at `now`, returning the instant it resolves
    /// at the client. Failed attempts cost the timeout (plus backoff);
    /// attempts whose response leg was dropped additionally make the node do
    /// the work. The answering attempt of a green observation goes through
    /// the delay → queue → service → delay pipeline.
    fn price_probe(
        &mut self,
        probe: ProbeView<'_>,
        now: SimTime,
        config: &WorkloadConfig,
        delay: &Distribution,
        policy: &ProbePolicy,
        rng: &mut StdRng,
    ) -> SimTime {
        let node = probe.node;
        let mut send_at = now;
        let mut last_failure = now;
        for (attempt, loss) in probe.failures.iter().enumerate() {
            self.ledger.probes[node] += 1;
            self.ledger.timeouts[node] += 1;
            self.probes_total += 1;
            self.messages += 1; // the request was transmitted
            if crate::spec::attempt_is_wasted(probe.observed, attempt, probe.failures) {
                self.wasted += 1;
            }
            if *loss == AttemptLoss::Response {
                // Delivered and served; only the answer was dropped.
                let request_at = send_at + delay.sample(rng);
                let service = config.service.sample(rng);
                self.serve(node, request_at, service);
                self.messages += 1; // the response was transmitted, then lost
            }
            if *loss == AttemptLoss::Crash {
                // Delivered into a crashing node: the queued work is dropped
                // unserved — no response message, no service time, but the
                // loss is accounted so `delivered == served + lost_to_crash`
                // can be cross-validated against the live runtime.
                self.lost_to_crash += 1;
            }
            last_failure = send_at + config.probe_timeout;
            send_at = last_failure + policy.backoff_before(attempt as u32);
        }
        match probe.observed {
            Color::Green => {
                self.ledger.probes[node] += 1;
                self.probes_total += 1;
                self.messages += 1;
                let request_at = send_at + delay.sample(rng);
                let service = config.service.sample(rng);
                let finish = self.serve(node, request_at, service);
                self.messages += 1;
                finish + delay.sample(rng)
            }
            Color::Red => {
                // A red observation with no failures is a *shed* probe: the
                // health layer declined to send, so it resolves immediately
                // (`last_failure` is still `now`) at zero cost.
                last_failure
            }
        }
    }
}

/// The discrete-event engine behind every backend: prices each session plan
/// in virtual time under `network` and `policy`, with all randomness drawn
/// from one `StdRng` seeded with `seed` — the report is a pure function of
/// `(n, config, network, policy, seed, session)`.
///
/// Events wait in a [`TimingWheel`] of one-microsecond slots, which fires
/// them in `(time, schedule order)` order. That relies on the engine never
/// scheduling before the instant it is processing: arrivals, resolutions
/// and hedge timers all lie at or after `now`.
///
/// The engine reads plans through [`PlanView`], so latency-only
/// [`SessionPlan`]s are priced as they stand, without being widened into
/// [`NetSessionPlan`]s. Nothing is allocated per probe.
pub(crate) fn run_net_engine<P, F>(
    n: usize,
    config: &WorkloadConfig,
    network: &NetworkModel,
    policy: &ProbePolicy,
    seed: u64,
    mut session: F,
) -> WorkloadReport
where
    P: PlanView,
    F: FnMut(u64, &LoadLedger, SimTime, &mut StdRng) -> P,
{
    assert!(
        config.is_valid()
            && network
                .delay
                .is_none_or(|d| d.largest_parameter() <= WorkloadConfig::MAX_DURATION)
            && network.faults.is_bounded()
            && policy
                .hedge
                .is_none_or(|h| h <= WorkloadConfig::MAX_DURATION),
        "inconsistent workload configuration"
    );
    let delay = network.delay.unwrap_or(config.rpc_latency);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = EngineState {
        ledger: LoadLedger::new(n),
        probes_total: 0,
        messages: 0,
        wasted: 0,
        hedges: 0,
        cancelled: 0,
        lost_to_crash: 0,
    };
    let mut latency = LogHistogram::new();
    let mut events = TimingWheel::new();

    // Seed the arrival stream.
    let total_sessions = config.sessions as u64;
    let mut sessions_issued: u64;
    match config.arrival {
        ArrivalProcess::OpenPoisson { mean_interarrival } => {
            let first = Distribution::exponential(mean_interarrival).sample(&mut rng);
            events.push(first, EventKind::Arrival(0));
            sessions_issued = 1;
        }
        ArrivalProcess::ClosedLoop { clients, think } => {
            sessions_issued = (clients as u64).min(total_sessions);
            for client in 0..sessions_issued {
                let at = think.sample(&mut rng);
                events.push(at, EventKind::Arrival(client));
            }
        }
    }

    let mut active: Vec<ActiveSession<P>> = Vec::new();
    let mut completed = 0usize;
    let mut successes = 0usize;
    let mut last_completion = SimTime::ZERO;

    // Issues probe `index` of session `slot` at `now`: prices it, schedules
    // its resolution and (when hedging) its hedge timer.
    let issue = |session: &mut ActiveSession<P>,
                 slot: usize,
                 index: usize,
                 now: SimTime,
                 events: &mut TimingWheel<EventKind>,
                 state: &mut EngineState,
                 rng: &mut StdRng| {
        let plan = session
            .plan
            .as_ref()
            .expect("an unfinished session keeps its plan");
        let resolve_at = state.price_probe(plan.probe(index), now, config, &delay, policy, rng);
        session.next_issue = index + 1;
        session.in_flight += 1;
        events.push(resolve_at, EventKind::Resolved(slot, index));
        if let Some(hedge) = policy.hedge {
            // Only meaningful if the probe is still unresolved at the timer
            // and a next candidate exists.
            if resolve_at > now + hedge && index + 1 < session.len {
                events.push(now + hedge, EventKind::HedgeDue(slot, index));
            }
        }
    };

    while let Some((now, kind)) = events.pop() {
        match kind {
            EventKind::Arrival(session_index) => {
                // Open-loop arrivals breed the next arrival immediately, so
                // the offered rate never reacts to completions.
                if let ArrivalProcess::OpenPoisson { mean_interarrival } = config.arrival {
                    if sessions_issued < total_sessions {
                        let gap = Distribution::exponential(mean_interarrival).sample(&mut rng);
                        events.push(now + gap, EventKind::Arrival(sessions_issued));
                        sessions_issued += 1;
                    }
                }
                let plan = session(session_index, &state.ledger, now, &mut rng);
                let len = plan.len();
                if len == 0 {
                    // A zero-probe session (degenerate but legal): completes
                    // instantly.
                    completed += 1;
                    successes += usize::from(plan.success());
                    latency.record(0);
                    last_completion = last_completion.max(now);
                    if let ArrivalProcess::ClosedLoop { think, .. } = config.arrival {
                        if sessions_issued < total_sessions {
                            let gap = think.sample(&mut rng);
                            events.push(now + gap, EventKind::Arrival(sessions_issued));
                            sessions_issued += 1;
                        }
                    }
                    continue;
                }
                let slot = active.len();
                active.push(ActiveSession {
                    plan: Some(plan),
                    len,
                    next_issue: 0,
                    in_flight: 0,
                    done: 0,
                    started: now,
                    hedge_race: false,
                });
                issue(
                    &mut active[slot],
                    slot,
                    0,
                    now,
                    &mut events,
                    &mut state,
                    &mut rng,
                );
            }
            EventKind::Resolved(slot, index) => {
                let session = &mut active[slot];
                // A hedge race ends the moment the faster of its two probes
                // resolves: the one still in flight is cancelled in the
                // ledger. Counted once per race (a pipeline that keeps
                // running past a stalled probe is not a new race), so
                // `cancelled <= hedges` always holds.
                if session.hedge_race && session.in_flight == 2 {
                    state.cancelled += 1;
                    session.hedge_race = false;
                }
                session.done += 1;
                session.in_flight -= 1;
                if session.next_issue == index + 1 && session.next_issue < session.len {
                    issue(
                        session,
                        slot,
                        index + 1,
                        now,
                        &mut events,
                        &mut state,
                        &mut rng,
                    );
                    continue;
                }
                if session.done == session.len {
                    // Session complete: free the plan's buffers. The entry
                    // itself stays, because events name sessions by their
                    // index in `active`, so `active` keeps one small record
                    // per admitted session.
                    let plan = session.plan.take().expect("a session completes once");
                    latency.record((now - session.started).as_micros());
                    completed += 1;
                    successes += usize::from(plan.success());
                    last_completion = last_completion.max(now);
                    if let ArrivalProcess::ClosedLoop { think, .. } = config.arrival {
                        if sessions_issued < total_sessions {
                            let gap = think.sample(&mut rng);
                            events.push(now + gap, EventKind::Arrival(sessions_issued));
                            sessions_issued += 1;
                        }
                    }
                }
            }
            EventKind::HedgeDue(slot, index) => {
                // Launch the next candidate only if the hedged probe is
                // still unresolved, its successor has not been issued some
                // other way, and the two-in-flight cap leaves room. The
                // first condition follows from the second: when probe
                // `index` resolves with `next_issue == index + 1`, it
                // issues its successor itself or has none, so the test
                // below can only pass while `index` is in flight.
                let session = &mut active[slot];
                if session.next_issue == index + 1
                    && session.next_issue < session.len
                    && session.in_flight < 2
                {
                    state.hedges += 1;
                    session.hedge_race = true;
                    issue(
                        session,
                        slot,
                        index + 1,
                        now,
                        &mut events,
                        &mut state,
                        &mut rng,
                    );
                }
            }
        }
    }

    debug_assert_eq!(completed, config.sessions, "every session must complete");
    WorkloadReport {
        sessions: completed,
        successes,
        probes: state.probes_total,
        duration: last_completion,
        latency,
        ledger: state.ledger,
        messages: state.messages,
        wasted_probes: state.wasted,
        hedges: state.hedges,
        cancelled: state.cancelled,
        lost_to_crash: state.lost_to_crash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Fault, FaultSchedule};
    use crate::spec::WorkloadSpec;
    use quorum_core::{Coloring, QuorumSystem};
    use quorum_probe::run_strategy;
    use quorum_probe::strategies::SequentialScan;
    use quorum_systems::Majority;

    fn lan_config(arrival: ArrivalProcess, sessions: usize) -> WorkloadConfig {
        WorkloadConfig {
            arrival,
            sessions,
            rpc_latency: Distribution::uniform(
                SimTime::from_micros(100),
                SimTime::from_micros(400),
            ),
            service: Distribution::exponential(SimTime::from_micros(200)),
            probe_timeout: SimTime::from_millis(10),
        }
    }

    /// A session closure probing a Majority system on an all-green universe.
    fn maj_sessions(n: usize) -> impl FnMut(u64, &LoadLedger, SimTime) -> SessionPlan {
        let maj = Majority::new(n).unwrap();
        move |session, _ledger, _now| {
            let coloring = Coloring::all_green(maj.universe_size());
            let mut rng = StdRng::seed_from_u64(session);
            let run = run_strategy(&maj, &SequentialScan::new(), &coloring, &mut rng);
            SessionPlan {
                colors: run.sequence.iter().map(|&e| coloring.color(e)).collect(),
                sequence: run.sequence,
                success: run.witness.is_green(),
            }
        }
    }

    #[test]
    fn open_loop_runs_every_session() {
        let n = 7;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(500),
            },
            200,
        );
        let report = WorkloadSpec::new(n)
            .config(config)
            .run_plans(1, maj_sessions(n))
            .report;
        assert_eq!(report.sessions, 200);
        assert_eq!(report.successes, 200);
        // Sequential scan on all-green Maj(7) always probes 4 elements.
        assert_eq!(report.probes, 800);
        assert!((report.probes_per_session() - 4.0).abs() < 1e-12);
        assert!(report.duration > SimTime::ZERO);
        assert!(report.throughput_per_sec() > 0.0);
        assert_eq!(report.latency.count(), 200);
        assert!(report.latency.p50().unwrap() <= report.latency.p99().unwrap());
        // Sequential scans hammer the prefix: elements 0..=3 carry all load.
        assert_eq!(report.ledger.probes_received()[0], 200);
        assert_eq!(report.ledger.probes_received()[5], 0);
        assert!(report.load_imbalance() > 1.5);
        // On a clean network every probe is one request + one response and
        // nothing is wasted, hedged or cancelled.
        assert_eq!(report.messages, 2 * report.probes);
        assert_eq!(report.wasted_probes, 0);
        assert_eq!(report.hedges, 0);
        assert_eq!(report.cancelled, 0);
        assert_eq!(report.wasted_fraction(), 0.0);
        assert!((report.messages_per_session() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn closed_loop_bounds_in_flight_sessions() {
        let n = 5;
        let clients = 3usize;
        let config = lan_config(
            ArrivalProcess::ClosedLoop {
                clients,
                think: Distribution::fixed(SimTime::from_micros(50)),
            },
            60,
        );
        let report = WorkloadSpec::new(n)
            .config(config)
            .run_plans(2, maj_sessions(n))
            .report;
        assert_eq!(report.sessions, 60);
        // At most `clients` sessions in flight ⇒ a node's backlog can never
        // exceed the client population.
        for node in 0..n {
            assert!(
                report.ledger.peak_backlog(node) <= clients,
                "node {node} backlog {} exceeds {clients} clients",
                report.ledger.peak_backlog(node)
            );
        }
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let n = 7;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(300),
            },
            100,
        );
        let spec = WorkloadSpec::new(n).config(config);
        let a = spec.run_plans(9, maj_sessions(n)).report;
        let b = spec.run_plans(9, maj_sessions(n)).report;
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.ledger.probes_received(), b.ledger.probes_received());
        let c = spec.run_plans(10, maj_sessions(n)).report;
        assert_ne!(a.duration, c.duration, "a different seed must differ");
    }

    #[test]
    fn contention_inflates_latency() {
        let n = 7;
        // Same total work, but arrivals 100x denser: queues must form and
        // the p99 latency must exceed the uncontended run's.
        let relaxed = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(50),
            },
            150,
        );
        let slammed = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(50),
            },
            150,
        );
        let spec = WorkloadSpec::new(n);
        let calm = spec
            .clone()
            .config(relaxed)
            .run_plans(3, maj_sessions(n))
            .report;
        let hot = spec.config(slammed).run_plans(3, maj_sessions(n)).report;
        let hot_p99 = hot.latency.p99().unwrap();
        let calm_p99 = calm.latency.p99().unwrap();
        assert!(
            hot_p99 > calm_p99,
            "queueing must show up in the tail: hot {hot_p99} vs calm {calm_p99}"
        );
        let busiest = (0..n).map(|e| hot.ledger.peak_backlog(e)).max().unwrap();
        assert!(busiest > 1, "dense arrivals must queue somewhere");
    }

    #[test]
    fn timeouts_are_charged_and_recorded() {
        let n = 5;
        let maj = Majority::new(n).unwrap();
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(1),
            },
            20,
        );
        // Element 0 is crashed in every session's view.
        let coloring = Coloring::from_fn(n, |e| if e == 0 { Color::Red } else { Color::Green });
        let report = WorkloadSpec::new(n)
            .config(config)
            .run_plans(4, |session, _ledger, _now| {
                let mut rng = StdRng::seed_from_u64(session);
                let run = run_strategy(&maj, &SequentialScan::new(), &coloring, &mut rng);
                SessionPlan {
                    colors: run.sequence.iter().map(|&e| coloring.color(e)).collect(),
                    sequence: run.sequence,
                    success: run.witness.is_green(),
                }
            })
            .report;
        assert_eq!(report.sessions, 20);
        assert_eq!(report.successes, 20);
        assert_eq!(report.ledger.timeouts()[0], 20);
        assert_eq!(report.ledger.timeouts()[1], 0);
        // Every session eats one 10ms timeout, so no latency can be below it.
        assert!(report.latency.min() >= SimTime::from_millis(10).as_micros());
        // A single timed-out attempt IS the red observation — not waste.
        assert_eq!(report.wasted_probes, 0);
        assert_eq!(report.wasted_fraction(), 0.0);
    }

    #[test]
    fn ledger_scores_expose_backlog_and_history() {
        let mut ledger = LoadLedger::new(2);
        ledger.probes[0] = 10;
        ledger.outstanding[1].push_back(SimTime::from_millis(5));
        let now = SimTime::from_millis(1);
        assert_eq!(ledger.backlog(0, now), 0);
        assert_eq!(ledger.backlog(1, now), 1);
        assert!(ledger.score(1, now) > ledger.score(0, now));
        // Once the request finishes, history decides.
        let later = SimTime::from_millis(6);
        assert!(ledger.score(0, later) > ledger.score(1, later));
        assert_eq!(ledger.len(), 2);
        assert!(!ledger.is_empty());
    }

    /// The binary-searched backlog equals the linear count of unfinished
    /// requests, ties at `now` included (a request finishing at `now` is
    /// done).
    #[test]
    fn backlog_matches_the_linear_count() {
        let mut ledger = LoadLedger::new(1);
        // Non-decreasing, with runs of equal finish times, as `serve` builds.
        for finish in [3, 5, 5, 5, 8, 13, 13, 20] {
            ledger.outstanding[0].push_back(SimTime::from_micros(finish));
        }
        for micros in 0..=22 {
            let now = SimTime::from_micros(micros);
            let linear = ledger.outstanding[0]
                .iter()
                .filter(|&&finish| finish > now)
                .count();
            assert_eq!(ledger.backlog(0, now), linear, "at {now}");
        }
        assert_eq!(ledger.backlog(0, SimTime::from_micros(5)), 4);
    }

    #[test]
    fn distributions_sample_sane_values() {
        let mut rng = StdRng::seed_from_u64(5);
        let fixed = Distribution::fixed(SimTime::from_micros(7));
        assert_eq!(fixed.sample(&mut rng), SimTime::from_micros(7));
        assert_eq!(fixed.mean(), SimTime::from_micros(7));
        let uniform = Distribution::uniform(SimTime::from_micros(10), SimTime::from_micros(20));
        for _ in 0..100 {
            let v = uniform.sample(&mut rng).as_micros();
            assert!((10..=20).contains(&v));
        }
        let expo = Distribution::exponential(SimTime::from_micros(1_000));
        let mean: f64 = (0..4_000)
            .map(|_| expo.sample(&mut rng).as_micros() as f64)
            .sum::<f64>()
            / 4_000.0;
        assert!((mean - 1_000.0).abs() < 100.0, "exponential mean {mean}");
    }

    #[test]
    fn heavy_tail_mixes_body_and_stragglers() {
        let mut rng = StdRng::seed_from_u64(6);
        let dist = Distribution::heavy_tail(
            SimTime::from_micros(100),
            SimTime::from_micros(200),
            SimTime::from_millis(50),
            100_000, // 10 % stragglers
        );
        // Mean: 0.9·150us + 0.1·50ms = 5.135ms.
        assert_eq!(dist.mean(), SimTime::from_micros(5_135));
        let mut body = 0usize;
        let mut tail = 0usize;
        for _ in 0..4_000 {
            let v = dist.sample(&mut rng).as_micros();
            if (100..=200).contains(&v) {
                body += 1;
            } else {
                tail += 1;
            }
        }
        let tail_rate = tail as f64 / (body + tail) as f64;
        assert!(
            (tail_rate - 0.1).abs() < 0.03,
            "straggler rate {tail_rate} should be ≈ 0.1"
        );
    }

    /// Sequential scans of Maj(n) on mixed colorings: every fifth session
    /// probes nothing, every fifth sees an all-red universe, and the rest
    /// see i.i.d. failures at p = 0.3.
    fn mixed_sessions(n: usize) -> impl FnMut(u64, &LoadLedger, SimTime) -> SessionPlan {
        let maj = Majority::new(n).unwrap();
        move |session, _ledger, _now| {
            let mut rng = StdRng::seed_from_u64(session);
            let coloring = match session % 5 {
                0 => {
                    return SessionPlan {
                        sequence: vec![],
                        colors: vec![],
                        success: false,
                    }
                }
                1 => Coloring::from_fn(n, |_| Color::Red),
                _ => Coloring::from_fn(n, |_| {
                    if rng.gen_bool(0.3) {
                        Color::Red
                    } else {
                        Color::Green
                    }
                }),
            };
            let run = run_strategy(&maj, &SequentialScan::new(), &coloring, &mut rng);
            SessionPlan {
                colors: run.sequence.iter().map(|&e| coloring.color(e)).collect(),
                sequence: run.sequence,
                success: run.witness.is_green(),
            }
        }
    }

    /// Asserts that two reports agree on every field.
    fn assert_same_report(a: &WorkloadReport, b: &WorkloadReport, case: &str) {
        assert_eq!(a.sessions, b.sessions, "{case}: sessions");
        assert_eq!(a.successes, b.successes, "{case}: successes");
        assert_eq!(a.probes, b.probes, "{case}: probes");
        assert_eq!(a.duration, b.duration, "{case}: duration");
        assert_eq!(a.latency, b.latency, "{case}: latency");
        assert_eq!(a.messages, b.messages, "{case}: messages");
        assert_eq!(a.wasted_probes, b.wasted_probes, "{case}: wasted");
        assert_eq!(a.hedges, b.hedges, "{case}: hedges");
        assert_eq!(a.cancelled, b.cancelled, "{case}: cancelled");
        assert_eq!(a.lost_to_crash, b.lost_to_crash, "{case}: lost to crash");
        let (x, y) = (&a.ledger, &b.ledger);
        assert_eq!(x.probes_received(), y.probes_received(), "{case}: probes");
        assert_eq!(x.timeouts(), y.timeouts(), "{case}: timeouts");
        for node in 0..x.len() {
            assert_eq!(x.busy_time(node), y.busy_time(node), "{case}: busy");
            assert_eq!(x.peak_backlog(node), y.peak_backlog(node), "{case}: peak");
        }
    }

    /// Latency-only plans cost the same whether the engine prices them in
    /// place (`run_plans`) or widened by `NetSessionPlan::from_plan` (`run`):
    /// same draws, same timeline, same counters, under either arrival
    /// process and every policy, zero-probe and all-red sessions included.
    /// On the clean network with the sequential policy this is the
    /// pre-network engine.
    #[test]
    fn net_engine_on_clean_network_equals_latency_engine() {
        let n = 7;
        let arrivals = [
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(300),
            },
            ArrivalProcess::ClosedLoop {
                clients: 4,
                think: Distribution::exponential(SimTime::from_micros(200)),
            },
        ];
        let policies = [
            ProbePolicy::sequential(),
            ProbePolicy::retry(3, SimTime::from_micros(500)),
            ProbePolicy::sequential().with_hedge(SimTime::from_millis(1)),
        ];
        for arrival in arrivals {
            for policy in policies {
                let case = format!("{} / {policy:?}", arrival.label());
                let spec = WorkloadSpec::new(n)
                    .config(lan_config(arrival, 150))
                    .policy(policy);
                let direct = spec.run_plans(11, mixed_sessions(n)).report;
                let mut inner = mixed_sessions(n);
                let widened = spec
                    .run(11, |index, ledger, now, _rng| {
                        NetSessionPlan::from_plan(inner(index, ledger, now))
                    })
                    .report;
                assert_same_report(&direct, &widened, &case);
                assert_eq!(direct.sessions, 150, "{case}");
                assert_eq!(direct.latency.min(), 0, "{case}: zero-probe sessions");
                if policy.hedge.is_some() {
                    assert!(direct.hedges > 0, "{case}: the hedge path must run");
                }
            }
        }
    }

    /// Retried attempts charge timeouts and backoff; response-lost attempts
    /// also make the node do wasted work.
    #[test]
    fn retries_and_lost_responses_are_priced() {
        let n = 3;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(1),
            },
            10,
        );
        let policy = ProbePolicy::retry(3, SimTime::from_micros(500));
        let report = WorkloadSpec::new(n)
            .config(config)
            .policy(policy)
            .run(13, |_index, _ledger, _now, _rng| NetSessionPlan {
                probes: vec![NetProbe {
                    node: 0,
                    observed: Color::Green,
                    failures: vec![AttemptLoss::Request, AttemptLoss::Response],
                }],
                success: true,
            })
            .report;
        assert_eq!(report.sessions, 10);
        // 3 attempts per session: 2 failed + 1 answered.
        assert_eq!(report.probes, 30);
        assert_eq!(report.wasted_probes, 20);
        assert_eq!(report.ledger.timeouts()[0], 20);
        // Messages: attempt 1 request; attempt 2 request + lost response;
        // attempt 3 request + response = 5 per session.
        assert_eq!(report.messages, 50);
        // Each session pays two timeouts plus backoff 500us + 1000us before
        // the answering attempt even starts.
        let floor = 2 * config.probe_timeout.as_micros() + 1_500;
        assert!(
            report.latency.min() >= floor,
            "latency {} below the retry floor {floor}",
            report.latency.min()
        );
        assert!(report.wasted_fraction() > 0.6 && report.wasted_fraction() < 0.7);
    }

    /// Hedging overlaps a stalled probe with its successor: the tail of the
    /// latency distribution shrinks, the observations are unchanged, and the
    /// race's loser is counted.
    #[test]
    fn hedging_overlaps_stalled_probes() {
        let n = 5;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(2),
            },
            50,
        );
        // Every session: a dead element (10ms timeout) then three greens.
        let plan = || NetSessionPlan {
            probes: vec![
                NetProbe {
                    node: 0,
                    observed: Color::Red,
                    failures: vec![AttemptLoss::Request],
                },
                NetProbe {
                    node: 1,
                    observed: Color::Green,
                    failures: vec![],
                },
                NetProbe {
                    node: 2,
                    observed: Color::Green,
                    failures: vec![],
                },
                NetProbe {
                    node: 3,
                    observed: Color::Green,
                    failures: vec![],
                },
            ],
            success: true,
        };
        let spec = WorkloadSpec::new(n).config(config);
        let sequential = spec.run(17, |_, _, _, _| plan()).report;
        let hedged_policy = ProbePolicy::sequential().with_hedge(SimTime::from_millis(1));
        let hedged = spec
            .policy(hedged_policy)
            .run(17, |_, _, _, _| plan())
            .report;
        assert_eq!(hedged.successes, sequential.successes, "ok-rate unchanged");
        assert_eq!(hedged.probes, sequential.probes, "same observations");
        // Each session hedges exactly once (past the stalled red probe),
        // and each race has exactly one loser: the pipeline continuing past
        // the stall must not be re-counted as further cancellations.
        assert_eq!(hedged.hedges, 50, "one hedge per session");
        assert_eq!(hedged.cancelled, 50, "one loser per race");
        assert!(hedged.cancelled <= hedged.hedges);
        let hedged_p50 = hedged.latency.p50().unwrap();
        let sequential_p50 = sequential.latency.p50().unwrap();
        assert!(
            hedged_p50 < sequential_p50,
            "hedging must shrink the stall: {hedged_p50} vs {sequential_p50}"
        );
    }

    /// A partitioned minority makes its nodes look dead for the window, and
    /// healing restores them — measured end to end through fates.
    #[test]
    fn partition_fates_flow_through_the_engine() {
        let n = 4;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(1),
            },
            40,
        );
        let network = NetworkModel::clean().with_faults(FaultSchedule::window(
            Fault::Isolate,
            vec![0],
            SimTime::ZERO,
            SimTime::from_millis(15),
        ));
        let policy = ProbePolicy::sequential();
        let report = WorkloadSpec::new(n)
            .config(config)
            .network(network.clone())
            .policy(policy)
            .run(19, |_, _, now, rng| {
                let fate = network.probe_fate(0, true, now, &policy, rng);
                NetSessionPlan {
                    probes: vec![NetProbe {
                        node: 0,
                        observed: fate.observed,
                        failures: fate.failures,
                    }],
                    success: fate.observed == Color::Green,
                }
            })
            .report;
        assert_eq!(report.sessions, 40);
        assert!(
            report.successes > 0 && report.successes < 40,
            "sessions inside the window fail, sessions after it succeed: {}",
            report.successes
        );
        assert_eq!(
            (40 - report.successes) as u64,
            report.ledger.timeouts()[0],
            "each partitioned session times out once"
        );
    }

    /// The literal panic message of `run`, or `None` if it returned.
    fn panic_message(run: impl FnOnce()) -> Option<&'static str> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).err()?;
        payload.downcast_ref::<&str>().copied()
    }

    /// Every configured duration — timeout, mean inter-arrival, think time,
    /// latency, service, network delay, hedge delay and fault window — runs at
    /// [`WorkloadConfig::MAX_DURATION`]. One microsecond past it, or at a
    /// huge value, both backends stop with the documented panic before
    /// anything is scheduled: a 2⁶⁴ µs timeout used to overflow the clock
    /// (debug) or wrap it into "events cannot be scheduled in the past"
    /// (release).
    #[test]
    fn every_duration_is_held_to_the_cap() {
        use crate::live::LiveOptions;
        use crate::spec::Backend;

        let plan = |index: u64, _: &LoadLedger, _: SimTime| SessionPlan {
            sequence: vec![0, 1],
            colors: vec![Color::Green, [Color::Green, Color::Red][index as usize % 2]],
            success: index % 2 == 0,
        };
        let base = WorkloadSpec::new(3).sessions(4);
        let stall = |d| FaultSchedule::window(Fault::Stall, vec![0], SimTime::ZERO, d);
        let with = |d: SimTime| -> Vec<(&str, WorkloadSpec)> {
            vec![
                ("timeout", base.clone().probe_timeout(d)),
                (
                    "inter-arrival",
                    base.clone().arrivals(ArrivalProcess::OpenPoisson {
                        mean_interarrival: d,
                    }),
                ),
                (
                    "think",
                    base.clone().arrivals(ArrivalProcess::ClosedLoop {
                        clients: 2,
                        think: Distribution::uniform(SimTime::ZERO, d),
                    }),
                ),
                ("latency", base.clone().rpc_latency(Distribution::fixed(d))),
                (
                    "service",
                    base.clone().service(Distribution::heavy_tail(
                        SimTime::ZERO,
                        SimTime::from_micros(10),
                        d,
                        500_000,
                    )),
                ),
                (
                    "delay",
                    base.clone().network(NetworkModel {
                        delay: Some(Distribution::exponential(d)),
                        ..NetworkModel::clean()
                    }),
                ),
                (
                    "hedge",
                    base.clone().policy(ProbePolicy::sequential().with_hedge(d)),
                ),
                (
                    "fault window",
                    base.clone()
                        .network(NetworkModel::clean().with_faults(stall(d))),
                ),
            ]
        };
        let cap = WorkloadConfig::MAX_DURATION;
        for (field, spec) in with(cap) {
            assert_eq!(spec.run_plans(5, plan).report.sessions, 4, "{field}");
        }
        let mut refused = with(cap + SimTime::from_micros(1));
        refused.push((
            "huge timeout",
            base.clone()
                .probe_timeout(SimTime::from_micros(u64::MAX - 10)),
        ));
        refused.push((
            "huge service",
            base.clone()
                .service(Distribution::exponential(SimTime::from_micros(
                    u64::MAX / 2,
                ))),
        ));
        for (field, spec) in refused {
            for backend in [Backend::Sim, Backend::Live(LiveOptions::default())] {
                let spec = spec.clone().backend(backend);
                assert_eq!(
                    panic_message(|| drop(spec.run_plans(5, plan))),
                    Some("inconsistent workload configuration"),
                    "{field}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "inconsistent workload configuration")]
    fn invalid_config_is_rejected() {
        let config = WorkloadConfig {
            arrival: ArrivalProcess::ClosedLoop {
                clients: 0,
                think: Distribution::fixed(SimTime::ZERO),
            },
            sessions: 10,
            rpc_latency: Distribution::fixed(SimTime::from_micros(100)),
            service: Distribution::fixed(SimTime::from_micros(100)),
            probe_timeout: SimTime::from_millis(1),
        };
        let _ = WorkloadSpec::new(3)
            .config(config)
            .run_plans(0, |_, _, _| SessionPlan {
                sequence: vec![],
                colors: vec![],
                success: false,
            });
    }

    #[test]
    #[should_panic(expected = "colors must align")]
    fn misaligned_plans_are_rejected() {
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(1),
            },
            1,
        );
        let _ = WorkloadSpec::new(3)
            .config(config)
            .run_plans(0, |_, _, _| SessionPlan {
                sequence: vec![0, 1],
                colors: vec![Color::Green],
                success: true,
            });
    }

    #[test]
    fn horizon_hint_tracks_the_arrival_model() {
        let open = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(250),
            },
            1_000,
        );
        assert_eq!(open.horizon_hint(), SimTime::from_millis(250));
        let closed = lan_config(
            ArrivalProcess::ClosedLoop {
                clients: 10,
                think: Distribution::fixed(SimTime::from_millis(1)),
            },
            100,
        );
        assert!(closed.horizon_hint() >= SimTime::from_millis(10));
    }
}
