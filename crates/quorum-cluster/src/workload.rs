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
//! event before the instant it is processing.
//!
//! The engine consumes each plan at its session's arrival: it packs the
//! plan into a pooled session record of its own and drops the caller's
//! copy at once. A record holds one `u32` word per probe, `node << 1 |
//! red`; a red probe of a latency-only [`SessionPlan`] implies one
//! unanswered request, and a [`NetSessionPlan`]'s failed attempts sit as
//! per-probe ranges of one buffer. The record's slot and buffers are reused
//! once its session completes, and each [`Distribution`] is prepared once
//! per run, so the engine allocates nothing per probe and holds plans only
//! for the sessions in flight.
//!
//! A packed plan is immutable until its session completes, so the engine
//! reads each probe's word ahead of time: issuing probe `i` copies the word
//! of probe `i + 1` into `i`'s resolution event, and the resolution issues
//! the successor from the event without going back to the record's buffer.
//! Each node's record keeps the finish time of its newest request, which is
//! the instant its FIFO queue frees up; the queue of finish times itself is
//! read only to drop finished requests and to answer
//! [`LoadLedger::backlog`], and is cleared unread once its newest request
//! has finished.

use std::collections::VecDeque;

use quorum_analysis::{load_imbalance, wasted_work_fraction, LogHistogram};
use quorum_core::Color;
use quorum_probe::session::AttemptLoss;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

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

    /// The mean duration. A hand-built `slow_ppm` above one million counts
    /// as one million, as [`sample`](Self::sample) treats it.
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
                let ppm = u64::from(*slow_ppm).min(1_000_000);
                SimTime::from_micros(
                    (body * (1_000_000 - ppm) + slow.as_micros() * ppm) / 1_000_000,
                )
            }
        }
    }

    /// Whether the distribution is well formed, however it was built: a
    /// uniform or heavy-tail body with `min <= max`, a straggler probability
    /// of at most one million parts per million, and every duration at most
    /// [`WorkloadConfig::MAX_DURATION`].
    pub(crate) fn is_valid(&self) -> bool {
        let cap = WorkloadConfig::MAX_DURATION;
        match *self {
            Distribution::Fixed(value) => value <= cap,
            Distribution::Uniform { min, max } => min <= max && max <= cap,
            Distribution::Exponential { mean } => mean <= cap,
            Distribution::HeavyTail {
                min,
                max,
                slow,
                slow_ppm,
            } => min <= max && max <= cap && slow <= cap && slow_ppm <= 1_000_000,
        }
    }

    /// Draws one duration.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> SimTime {
        self.prepare().sample(rng)
    }

    /// The sampler that draws this distribution with every per-draw
    /// constant computed once.
    pub(crate) fn prepare(&self) -> Sampler {
        // A body with `max <= min` draws nothing and returns `min`.
        let body = |min: SimTime, max: SimTime| {
            (max > min).then(|| UniformRange::new(min.as_micros(), max.as_micros()))
        };
        match *self {
            Distribution::Fixed(value) => Sampler::Fixed(value),
            Distribution::Uniform { min, max } => {
                body(min, max).map_or(Sampler::Fixed(min), Sampler::Uniform)
            }
            Distribution::Exponential { mean } => Sampler::Exponential {
                neg_mean: -(mean.as_micros() as f64),
            },
            Distribution::HeavyTail {
                min,
                max,
                slow,
                slow_ppm,
            } => Sampler::HeavyTail {
                slow_ppm,
                neg_slow: -(slow.as_micros() as f64),
                min,
                body: body(min, max),
            },
        }
    }
}

/// `rng.gen_range(lo..=hi)` over `u64` with its rejection zone computed
/// once: every draw consumes the words `gen_range` consumes and returns the
/// value it returns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UniformRange {
    lo: u64,
    /// `hi - lo`, the mask when the range holds a power of two of values.
    span: u64,
    /// The number of values, `span + 1` (wrapping to 0 for all of `u64`).
    values: u64,
    /// Whether a draw masks one word instead of rejection sampling.
    masked: bool,
    /// The largest word the rejection loop accepts.
    zone: u64,
}

impl UniformRange {
    /// The range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub(crate) const fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "cannot sample empty range");
        let span = hi - lo;
        let values = span.wrapping_add(1);
        let masked = values & span == 0;
        let zone = if masked {
            u64::MAX
        } else {
            u64::MAX - (u64::MAX % values + 1) % values
        };
        UniformRange {
            lo,
            span,
            values,
            masked,
            zone,
        }
    }

    /// Draws one value.
    #[inline]
    pub(crate) fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.masked {
            return self.lo.wrapping_add(rng.next_u64() & self.span);
        }
        loop {
            let word = rng.next_u64();
            if word <= self.zone {
                return self.lo + word % self.values;
            }
        }
    }
}

/// A uniform draw from `0..1_000_000`, as `rng.gen_range(0u32..1_000_000)`
/// draws it: the coin of a parts-per-million probability.
pub(crate) fn parts_per_million<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
    const PPM: UniformRange = UniformRange::new(0, 999_999);
    PPM.sample(rng) as u32
}

/// A [`Distribution`] prepared for repeated draws; the engine prepares each
/// of its distributions once per run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sampler {
    /// Always this duration; draws nothing.
    Fixed(SimTime),
    /// Uniform over a range of microseconds holding at least two values.
    Uniform(UniformRange),
    /// Exponential by the inverse CDF, holding the negated mean.
    Exponential { neg_mean: f64 },
    /// The straggler coin, then the exponential tail or the uniform body
    /// (`None`: fixed at `min`).
    HeavyTail {
        slow_ppm: u32,
        neg_slow: f64,
        min: SimTime,
        body: Option<UniformRange>,
    },
}

impl Sampler {
    /// Draws one duration.
    #[inline]
    pub(crate) fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> SimTime {
        match *self {
            Sampler::Fixed(value) => value,
            Sampler::Uniform(range) => SimTime::from_micros(range.sample(rng)),
            Sampler::Exponential { neg_mean } => exponential(neg_mean, rng),
            Sampler::HeavyTail {
                slow_ppm,
                neg_slow,
                min,
                body,
            } => {
                if parts_per_million(rng) < slow_ppm {
                    exponential(neg_slow, rng)
                } else {
                    body.map_or(min, |range| SimTime::from_micros(range.sample(rng)))
                }
            }
        }
    }
}

/// An exponential draw of mean `-neg_mean` by the inverse CDF on a 53-bit
/// uniform in [0, 1); `1 - u` keeps the argument of `ln` strictly positive.
fn exponential<R: RngCore + ?Sized>(neg_mean: f64, rng: &mut R) -> SimTime {
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    SimTime::from_micros(round_to_u64(neg_mean * (1.0 - u).ln()))
}

/// `x.round() as u64` without `f64::round`, which baseline x86-64 compiles
/// to a library call: truncate, then add one when the dropped fraction is
/// at least one half. Below 2⁶⁴ the truncation and the fraction are exact;
/// the saturating casts and add give `round`'s answer on negative values,
/// values past 2⁶⁴, infinities and NaN.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
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
    /// positive timeout, a closed loop with at least one client, the timeout
    /// and the mean inter-arrival at most [`WorkloadConfig::MAX_DURATION`],
    /// and well-formed latency, service and think-time distributions (each
    /// body with `min <= max`, each straggler probability at most one
    /// million parts per million, each duration within the cap).
    pub fn is_valid(&self) -> bool {
        let arrival_ok = match self.arrival {
            ArrivalProcess::OpenPoisson { mean_interarrival } => {
                mean_interarrival <= Self::MAX_DURATION
            }
            ArrivalProcess::ClosedLoop { clients, think } => clients >= 1 && think.is_valid(),
        };
        self.sessions >= 1
            && self.probe_timeout > SimTime::ZERO
            && self.probe_timeout <= Self::MAX_DURATION
            && self.rpc_latency.is_valid()
            && self.service.is_valid()
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
    nodes: Vec<NodeLoad>,
}

/// What the ledger tracks of one node besides its probe and timeout counts.
#[derive(Debug, Clone, Default)]
struct NodeLoad {
    /// The finish time of the node's newest request (zero before the
    /// first): the instant its FIFO queue frees up.
    last: SimTime,
    /// Cumulative service time.
    busy: SimTime,
    /// The most requests ever queued or in service at once.
    peak_backlog: usize,
    /// Outstanding service completion times, in FIFO order, kept only for
    /// the backlog and its peak. Finish times are non-decreasing along it,
    /// and the back, when there is one, is `last` (see [`NodeLoad::serve`]).
    queue: VecDeque<SimTime>,
}

impl NodeLoad {
    /// Queues one delivered request arriving at `request_at` and returns its
    /// service-finish instant.
    fn serve(&mut self, request_at: SimTime, service: SimTime) -> SimTime {
        debug_assert!(self.queue.back().is_none_or(|&back| back == self.last));
        if self.last <= request_at {
            // Every queued request has finished: drop them unread.
            self.queue.clear();
        } else {
            // Drop the finished prefix; the newest request is still queued.
            while self.queue.front().is_some_and(|&f| f <= request_at) {
                self.queue.pop_front();
            }
        }
        // The queue is FIFO in probe-*issue* order (the order the pricing
        // code runs), not request-arrival order: a request issued earlier but
        // with a longer network delay is still served first. The modelling
        // simplification keeps each probe's full timeline computable at issue
        // time. `finish >= last` keeps the queue sorted for
        // `LoadLedger::backlog`'s binary search.
        let finish = self.last.max(request_at) + service;
        self.busy += service;
        self.queue.push_back(finish);
        self.last = finish;
        self.peak_backlog = self.peak_backlog.max(self.queue.len());
        finish
    }
}

impl LoadLedger {
    fn new(n: usize) -> Self {
        LoadLedger {
            probes: vec![0; n],
            timeouts: vec![0; n],
            nodes: vec![NodeLoad::default(); n],
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
        self.nodes[node].busy
    }

    /// The peak backlog (requests queued or in service) node `node` reached.
    pub fn peak_backlog(&self, node: NodeId) -> usize {
        self.nodes[node].peak_backlog
    }

    /// Requests queued or in service at `node` as of `now`.
    pub fn backlog(&self, node: NodeId, now: SimTime) -> usize {
        // Finish times are non-decreasing along the queue, so the
        // unfinished requests are a suffix.
        let queue = &self.nodes[node].queue;
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
}

/// What one client session will do, decided by the caller's session closure:
/// the probe order its strategy chose and the color each probe will observe.
///
/// This is the latency-only plan of
/// [`WorkloadSpec::run_plans`](crate::spec::WorkloadSpec::run_plans): a green
/// probe answers first try and a red probe is one unanswered request. The
/// sim engine packs it at arrival without widening it; [`NetSessionPlan`]s
/// add arbitrary per-attempt fates.
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
    fn checked(self) -> Self {
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
    /// pre-network engine. The sim engine packs a [`SessionPlan`] without
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

/// A session plan the engine can pack into its own record. The engine packs
/// each plan the moment its session arrives and drops the caller's copy.
pub(crate) trait Plan {
    /// Appends the plan to `session`, whose buffers are empty, checking
    /// every probed node against `nodes`.
    fn pack(self, nodes: usize, session: &mut Session);
}

impl Plan for SessionPlan {
    fn pack(self, nodes: usize, session: &mut Session) {
        let plan = self.checked();
        session.probes.extend(
            plan.sequence
                .iter()
                .zip(&plan.colors)
                .map(|(&node, &color)| probe_word(node, color, nodes)),
        );
        session.success = plan.success;
    }
}

impl Plan for NetSessionPlan {
    fn pack(self, nodes: usize, session: &mut Session) {
        for probe in &self.probes {
            session
                .probes
                .push(probe_word(probe.node, probe.observed, nodes));
            session.failures.extend_from_slice(&probe.failures);
            session.failure_ends.push(
                u32::try_from(session.failures.len())
                    .expect("a session plan has fewer than 2^32 failed attempts"),
            );
        }
        session.success = self.success;
    }
}

/// The most nodes the engine prices: a probe packs its node into 31 bits.
const MAX_NODES: usize = 1 << 31;

/// One probe as the engine stores it: `node << 1 | red`.
fn probe_word(node: NodeId, observed: Color, nodes: usize) -> u32 {
    assert!(node < nodes, "session plan probes node {node} of {nodes}");
    ((node as u32) << 1) | u32::from(observed == Color::Red)
}

/// One admitted session as the engine holds it, packed from its plan at
/// arrival. The slot, buffers included, is reused once the session
/// completes: by then every probe has resolved, and a hedge timer fires
/// strictly before its probe resolves, so no pending event names the slot.
#[derive(Debug, Default)]
pub(crate) struct Session {
    /// Per probe, in issue order, `node << 1 | red`.
    probes: Vec<u32>,
    /// A message-level plan's failed attempts, probe after probe. Empty for
    /// a latency-only plan, whose red probes are one [`AttemptLoss::Request`]
    /// each and whose green probes answer first try.
    failures: Vec<AttemptLoss>,
    /// Per probe of a message-level plan, the end of its attempts in
    /// `failures`; empty for a latency-only plan.
    failure_ends: Vec<u32>,
    next_issue: u32,
    in_flight: u32,
    done: u32,
    started: SimTime,
    /// Whether a hedge-launched pair is currently racing; cleared (and
    /// counted as one cancellation) when the race's first probe resolves.
    hedge_race: bool,
    /// Whether the session located a live quorum.
    success: bool,
}

impl Session {
    /// Packs `plan` into the record for a session arriving at `now`,
    /// reusing its buffers.
    fn admit<P: Plan>(&mut self, plan: P, nodes: usize, now: SimTime) {
        self.probes.clear();
        self.failures.clear();
        self.failure_ends.clear();
        plan.pack(nodes, self);
        assert!(
            u32::try_from(self.probes.len()).is_ok(),
            "a session plan has fewer than 2^32 probes"
        );
        self.next_issue = 0;
        self.in_flight = 0;
        self.done = 0;
        self.started = now;
        self.hedge_race = false;
    }

    /// The probe count.
    fn len(&self) -> u32 {
        self.probes.len() as u32
    }

    /// The failed attempts of probe `index`, whose color is red when `red`.
    fn failures(&self, index: u32, red: bool) -> &[AttemptLoss] {
        if self.failure_ends.is_empty() {
            return if red { &[AttemptLoss::Request] } else { &[] };
        }
        let index = index as usize;
        let start = index.checked_sub(1).map_or(0, |i| self.failure_ends[i]);
        &self.failures[start as usize..self.failure_ends[index] as usize]
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
    /// arrived, or its last attempt timed out. `2` is the word of probe
    /// `1 + 1`, read when probe `1` was issued (0 when there is none), so
    /// that the resolution issues the successor without reading the
    /// session's probe buffer.
    Resolved(u32, u32, u32),
    /// The hedging delay of probe `1` in session slot `0` elapsed without a
    /// resolution: consider launching the next candidate.
    HedgeDue(u32, u32),
}

/// The engine's pricing parameters, pending events and mutable counters.
struct EngineState {
    ledger: LoadLedger,
    events: TimingWheel<EventKind>,
    delay: Sampler,
    service: Sampler,
    timeout: SimTime,
    policy: ProbePolicy,
    probes_total: u64,
    messages: u64,
    wasted: u64,
    hedges: u64,
    cancelled: u64,
    lost_to_crash: u64,
}

impl EngineState {
    /// Prices one probe of `node` issued at `now`, returning the instant it
    /// resolves at the client. Failed attempts cost the timeout (plus
    /// backoff); attempts whose response leg was dropped additionally make
    /// the node do the work. The answering attempt of a green observation
    /// goes through the delay → queue → service → delay pipeline.
    fn price_probe(
        &mut self,
        node: NodeId,
        observed: Color,
        failures: &[AttemptLoss],
        now: SimTime,
        rng: &mut StdRng,
    ) -> SimTime {
        let mut send_at = now;
        let mut last_failure = now;
        for (attempt, loss) in failures.iter().enumerate() {
            self.ledger.probes[node] += 1;
            self.ledger.timeouts[node] += 1;
            self.probes_total += 1;
            self.messages += 1; // the request was transmitted
            if crate::spec::attempt_is_wasted(observed, attempt, failures) {
                self.wasted += 1;
            }
            if *loss == AttemptLoss::Response {
                // Delivered and served; only the answer was dropped.
                let request_at = send_at + self.delay.sample(rng);
                let service = self.service.sample(rng);
                self.ledger.nodes[node].serve(request_at, service);
                self.messages += 1; // the response was transmitted, then lost
            }
            if *loss == AttemptLoss::Crash {
                // Delivered into a crashing node: the queued work is dropped
                // unserved — no response message, no service time, but the
                // loss is accounted so `delivered == served + lost_to_crash`
                // can be cross-validated against the live runtime.
                self.lost_to_crash += 1;
            }
            last_failure = send_at + self.timeout;
            send_at = last_failure + self.policy.backoff_before(attempt as u32);
        }
        match observed {
            Color::Green => {
                self.ledger.probes[node] += 1;
                self.probes_total += 1;
                self.messages += 1;
                let request_at = send_at + self.delay.sample(rng);
                let service = self.service.sample(rng);
                let finish = self.ledger.nodes[node].serve(request_at, service);
                self.messages += 1;
                finish + self.delay.sample(rng)
            }
            Color::Red => {
                // A red observation with no failures is a *shed* probe: the
                // health layer declined to send, so it resolves immediately
                // (`last_failure` is still `now`) at zero cost.
                last_failure
            }
        }
    }

    /// Issues probe `index` of `session` (in `slot`), whose word the caller
    /// read, at `now`: prices it, schedules its resolution and (when
    /// hedging) its hedge timer.
    fn issue(
        &mut self,
        session: &mut Session,
        slot: u32,
        index: u32,
        word: u32,
        now: SimTime,
        rng: &mut StdRng,
    ) {
        debug_assert_eq!(word, session.probes[index as usize], "issued a stale probe");
        let (node, red) = ((word >> 1) as NodeId, word & 1 == 1);
        let observed = if red { Color::Red } else { Color::Green };
        let resolve_at = self.price_probe(node, observed, session.failures(index, red), now, rng);
        session.next_issue = index + 1;
        session.in_flight += 1;
        // The successor's word rides on the resolution event: read here,
        // next to this probe's word, it spares the resolution a dependent
        // load through the session record.
        let next = session.probes.get(index as usize + 1).copied();
        let resolved = EventKind::Resolved(slot, index, next.unwrap_or(0));
        self.events.push(resolve_at, resolved);
        if let Some(hedge) = self.policy.hedge {
            // Only meaningful if the probe is still unresolved at the timer
            // and a next candidate exists.
            if resolve_at > now + hedge && next.is_some() {
                self.events
                    .push(now + hedge, EventKind::HedgeDue(slot, index));
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
/// Each plan is packed at its session's arrival into a pooled [`Session`]
/// record, and the caller's plan is dropped at once: latency-only and
/// message-level plans alike become one `u32` word per probe, with a
/// message-level plan's failed attempts as ranges of one buffer. A record's
/// slot and buffers are reused once its session completes, and every
/// distribution is prepared once per run, so nothing is allocated per
/// probe and memory follows the sessions in flight, not the sessions run.
///
/// A record is immutable from admission to completion, so the word of each
/// probe's successor travels in the probe's resolution event: an arrival
/// issues probe 0 from the record it has just packed, a resolution issues
/// the next probe straight from the event, and only a hedge timer reads
/// the record's buffer. A node's queue-free instant is the finish time its
/// record keeps, not the back of its queue.
///
/// # Panics
///
/// Panics with "inconsistent workload configuration" on an invalid
/// configuration, network delay, fault schedule or hedge delay, before
/// anything is scheduled; and if a plan probes a node outside `0..n`.
pub(crate) fn run_net_engine<P, F>(
    n: usize,
    config: &WorkloadConfig,
    network: &NetworkModel,
    policy: &ProbePolicy,
    seed: u64,
    mut session: F,
) -> WorkloadReport
where
    P: Plan,
    F: FnMut(u64, &LoadLedger, SimTime, &mut StdRng) -> P,
{
    assert!(
        config.is_valid()
            && network.delay.is_none_or(|d| d.is_valid())
            && network.faults.is_bounded()
            && policy
                .hedge
                .is_none_or(|h| h <= WorkloadConfig::MAX_DURATION),
        "inconsistent workload configuration"
    );
    assert!(
        n <= MAX_NODES,
        "the workload engine prices at most 2^31 nodes"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = EngineState {
        ledger: LoadLedger::new(n),
        events: TimingWheel::new(),
        delay: network.delay.unwrap_or(config.rpc_latency).prepare(),
        service: config.service.prepare(),
        timeout: config.probe_timeout,
        policy: *policy,
        probes_total: 0,
        messages: 0,
        wasted: 0,
        hedges: 0,
        cancelled: 0,
        lost_to_crash: 0,
    };
    let mut latency = LogHistogram::new();

    // The gap before each arrival: an exponential inter-arrival time in
    // open loop, a client's think time in closed loop.
    let (gap, open_loop, first_arrivals) = match config.arrival {
        ArrivalProcess::OpenPoisson { mean_interarrival } => {
            (Distribution::exponential(mean_interarrival), true, 1)
        }
        ArrivalProcess::ClosedLoop { clients, think } => (think, false, clients as u64),
    };
    let gap = gap.prepare();
    let total_sessions = config.sessions as u64;
    let mut sessions_issued = first_arrivals.min(total_sessions);
    for client in 0..sessions_issued {
        state
            .events
            .push(gap.sample(&mut rng), EventKind::Arrival(client));
    }

    let mut slots: Vec<Session> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut completed = 0usize;
    let mut successes = 0usize;
    let mut last_completion = SimTime::ZERO;

    while let Some((now, kind)) = state.events.pop() {
        // The start instant and the outcome of a session completing now.
        let finished = match kind {
            EventKind::Arrival(session_index) => {
                // Open-loop arrivals breed the next arrival immediately, so
                // the offered rate never reacts to completions.
                if open_loop && sessions_issued < total_sessions {
                    state.events.push(
                        now + gap.sample(&mut rng),
                        EventKind::Arrival(sessions_issued),
                    );
                    sessions_issued += 1;
                }
                let plan = session(session_index, &state.ledger, now, &mut rng);
                let slot = free.pop().unwrap_or_else(|| {
                    slots.push(Session::default());
                    u32::try_from(slots.len() - 1).expect("fewer than 2^32 sessions in flight")
                });
                let record = &mut slots[slot as usize];
                record.admit(plan, n, now);
                if let Some(&first) = record.probes.first() {
                    state.issue(record, slot, 0, first, now, &mut rng);
                    None
                } else {
                    // A zero-probe session (degenerate but legal): completes
                    // instantly.
                    free.push(slot);
                    Some((now, record.success))
                }
            }
            EventKind::Resolved(slot, index, next) => {
                let record = &mut slots[slot as usize];
                // A hedge race ends the moment the faster of its two probes
                // resolves: the one still in flight is cancelled in the
                // ledger. Counted once per race (a pipeline that keeps
                // running past a stalled probe is not a new race), so
                // `cancelled <= hedges` always holds.
                if record.hedge_race && record.in_flight == 2 {
                    state.cancelled += 1;
                    record.hedge_race = false;
                }
                record.done += 1;
                record.in_flight -= 1;
                if record.next_issue == index + 1 && record.next_issue < record.len() {
                    state.issue(record, slot, index + 1, next, now, &mut rng);
                    None
                } else if record.done == record.len() {
                    free.push(slot);
                    Some((record.started, record.success))
                } else {
                    None
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
                let record = &mut slots[slot as usize];
                if record.next_issue == index + 1
                    && record.next_issue < record.len()
                    && record.in_flight < 2
                {
                    state.hedges += 1;
                    record.hedge_race = true;
                    let word = record.probes[index as usize + 1];
                    state.issue(record, slot, index + 1, word, now, &mut rng);
                }
                None
            }
        };
        if let Some((started, success)) = finished {
            latency.record((now - started).as_micros());
            completed += 1;
            successes += usize::from(success);
            last_completion = last_completion.max(now);
            // A closed-loop client starts its next session one think time
            // after this one completed.
            if !open_loop && sessions_issued < total_sessions {
                state.events.push(
                    now + gap.sample(&mut rng),
                    EventKind::Arrival(sessions_issued),
                );
                sessions_issued += 1;
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
    use proptest::prelude::*;
    use quorum_core::{Coloring, QuorumSystem};
    use quorum_probe::run_strategy;
    use quorum_probe::strategies::SequentialScan;
    use quorum_systems::Majority;
    use rand::Rng;

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
        ledger.nodes[1].queue.push_back(SimTime::from_millis(5));
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
            ledger.nodes[0]
                .queue
                .push_back(SimTime::from_micros(finish));
        }
        for micros in 0..=22 {
            let now = SimTime::from_micros(micros);
            let linear = ledger.nodes[0]
                .queue
                .iter()
                .filter(|&&finish| finish > now)
                .count();
            assert_eq!(ledger.backlog(0, now), linear, "at {now}");
        }
        assert_eq!(ledger.backlog(0, SimTime::from_micros(5)), 4);
    }

    /// A node's queue as `serve` walked it before the node record kept its
    /// last finish: pop the finished front, then queue behind the back.
    #[derive(Default)]
    struct DequeWalk {
        busy: SimTime,
        peak_backlog: usize,
        queue: VecDeque<SimTime>,
    }

    impl DequeWalk {
        fn serve(&mut self, request_at: SimTime, service: SimTime) -> SimTime {
            while self.queue.front().is_some_and(|&f| f <= request_at) {
                self.queue.pop_front();
            }
            let queue_free = self
                .queue
                .back()
                .copied()
                .unwrap_or(request_at)
                .max(request_at);
            let finish = queue_free + service;
            self.busy += service;
            self.queue.push_back(finish);
            self.peak_backlog = self.peak_backlog.max(self.queue.len());
            finish
        }

        fn backlog(&self, now: SimTime) -> usize {
            self.queue.iter().filter(|&&finish| finish > now).count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `NodeLoad::serve` prices every request as the deque walk did:
        /// the same finish, busy time and peak backlog after each request,
        /// and the same backlog at random instants. Requests reach three
        /// nodes in issue order (a clock that only moves forward, at a
        /// per-case pace that drains or floods the queues), each after a
        /// short or long delay or at a tie: exactly a node's last finish,
        /// or exactly a finish still queued in front of it.
        #[test]
        fn serve_matches_the_deque_walk(
            pace in 1u64..800,
            script in prop::collection::vec(
                (0usize..3, 0u8..4, 0u64..1 << 16, 0u64..1 << 16),
                1..300,
            ),
        ) {
            let mut ledger = LoadLedger::new(3);
            let mut walks: Vec<DequeWalk> = (0..3).map(|_| DequeWalk::default()).collect();
            let mut clock = SimTime::ZERO;
            for (node, class, a, b) in script {
                clock += SimTime::from_micros(a % pace);
                let walk = &mut walks[node];
                let tie = match class {
                    0 => walk.queue.back().copied(),
                    1 => walk.queue.get(b as usize % walk.queue.len().max(1)).copied(),
                    _ => None,
                };
                let request_at = match (class, tie) {
                    (0 | 1, Some(finish)) => finish.max(clock),
                    (2, _) => clock + SimTime::from_micros(b % 16),
                    _ => clock + SimTime::from_micros(b % 4_096),
                };
                let service = SimTime::from_micros(a % 400);
                let finish = ledger.nodes[node].serve(request_at, service);
                prop_assert_eq!(finish, walk.serve(request_at, service));
                prop_assert_eq!(ledger.busy_time(node), walk.busy);
                prop_assert_eq!(ledger.peak_backlog(node), walk.peak_backlog);
                for now in [clock + SimTime::from_micros(b % 2_048), request_at, finish] {
                    for (node, walk) in walks.iter().enumerate() {
                        prop_assert_eq!(ledger.backlog(node, now), walk.backlog(now));
                    }
                }
            }
        }
    }

    /// `round_to_u64` is `f64::round() as u64` on random bit patterns, on
    /// random values near half-integers, and at the edges: `k ± ½` and the
    /// floats next to them, the powers 2⁵², 2⁵³, 2⁶³ and 2⁶⁴ and their
    /// neighbours, infinities, NaN and negative values.
    #[test]
    fn rounding_matches_the_library_round() {
        // `x` and the floats on either side of it.
        let with_neighbours = |x: f64| {
            let bits = x.to_bits();
            [f64::from_bits(bits - 1), x, f64::from_bits(bits + 1)]
        };
        let mut inputs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(17);
        let mut halves: Vec<u64> = vec![1, 2, 3, 1_000, (1 << 51) - 1, (1 << 51) + 1];
        halves.extend((0..1_000).map(|_| rng.next_u64() % (1 << 51)));
        for k in halves {
            for x in [k as f64 - 0.5, k as f64 + 0.5] {
                inputs.extend(with_neighbours(x));
                inputs.extend(with_neighbours(x).map(|x| -x));
            }
        }
        for power in [52, 53, 63, 64] {
            let x = 2f64.powi(power);
            inputs.extend(with_neighbours(x));
            inputs.extend(with_neighbours(x).map(|x| -x));
        }
        for _ in 0..100_000 {
            inputs.push(f64::from_bits(rng.next_u64()));
            let scale = 2f64.powi((rng.next_u64() % 70) as i32);
            inputs.push((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * scale);
        }
        for x in inputs {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        }
    }

    /// A resolution carries its successor's word and every event still
    /// fits in 16 bytes.
    #[test]
    fn events_stay_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<EventKind>(), 16);
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

    /// The per-call `Distribution::sample` as it read before distributions
    /// were prepared: the reference the prepared samplers must replay.
    fn per_call_sample(distribution: &Distribution, rng: &mut StdRng) -> SimTime {
        match *distribution {
            Distribution::Fixed(value) => value,
            Distribution::Uniform { min, max } => {
                let (lo, hi) = (min.as_micros(), max.as_micros());
                if hi > lo {
                    SimTime::from_micros(rng.gen_range(lo..=hi))
                } else {
                    min
                }
            }
            Distribution::Exponential { mean } => {
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
                if rng.gen_range(0u32..1_000_000) < slow_ppm {
                    per_call_sample(&Distribution::Exponential { mean: slow }, rng)
                } else {
                    per_call_sample(&Distribution::Uniform { min, max }, rng)
                }
            }
        }
    }

    /// The bounds of a prepared-uniform case: one value, two values, a
    /// power of two of values, 301 values, just over 2⁶³ values (where
    /// about half the words are rejected), all of `u64`, or any span.
    fn uniform_case(class: u8, lo: u64, raw: u64) -> (u64, u64) {
        let lo = lo % (1 << 40);
        match class {
            0 => (lo, lo),
            1 => (lo, lo + 1),
            2 => (lo, lo + (1u64 << (raw % 24 + 1)) - 1),
            3 => (lo, lo + 300),
            4 => (lo, lo + (1u64 << 63) + raw % (1 << 20)),
            5 => (0, u64::MAX),
            _ => (lo, lo + raw % (1 << 50)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The prepared uniform draws what `rng.gen_range(lo..=hi)` draws,
        /// word for word, and leaves the RNG in the same state.
        #[test]
        fn prepared_uniform_replays_gen_range(
            class in 0u8..7,
            lo in any::<u64>(),
            raw in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let (lo, hi) = uniform_case(class, lo, raw);
            let prepared = UniformRange::new(lo, hi);
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                prop_assert_eq!(prepared.sample(&mut a), b.gen_range(lo..=hi));
            }
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }

        /// Every prepared distribution (fixed, uniform, exponential and
        /// heavy-tail, hand-built out-of-range values included) draws what
        /// the per-call sampler drew, and so does `Distribution::sample`.
        #[test]
        fn prepared_samplers_replay_the_per_call_sampler(
            kind in 0u8..4,
            a in 0u64..10_000,
            b in 0u64..10_000,
            slow in 0u64..200_000,
            slow_ppm in prop::sample::select(vec![0u32, 1, 250_000, 999_999, 1_000_000, 2_000_000]),
            seed in any::<u64>(),
        ) {
            let (min, max) = (SimTime::from_micros(a), SimTime::from_micros(b));
            let distribution = match kind {
                0 => Distribution::Fixed(min),
                1 => Distribution::Uniform { min, max },
                2 => Distribution::Exponential { mean: SimTime::from_micros(slow) },
                _ => Distribution::HeavyTail { min, max, slow: SimTime::from_micros(slow), slow_ppm },
            };
            let prepared = distribution.prepare();
            let mut reference = StdRng::seed_from_u64(seed);
            let mut reused = StdRng::seed_from_u64(seed);
            let mut per_call = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let expected = per_call_sample(&distribution, &mut reference);
                prop_assert_eq!(prepared.sample(&mut reused), expected);
                prop_assert_eq!(distribution.sample(&mut per_call), expected);
            }
            let next = reference.next_u64();
            prop_assert_eq!(reused.next_u64(), next);
            prop_assert_eq!(per_call.next_u64(), next);
        }
    }

    /// A hand-built straggler probability past one million parts per
    /// million means a straggler on every draw, and the mean says so
    /// instead of wrapping (or overflowing, in debug builds, inside
    /// `horizon_hint`).
    #[test]
    fn mean_clamps_a_hand_built_straggler_probability() {
        let overdrawn = Distribution::HeavyTail {
            min: SimTime::from_micros(100),
            max: SimTime::from_micros(200),
            slow: SimTime::from_millis(5),
            slow_ppm: 2_000_000,
        };
        assert_eq!(overdrawn.mean(), SimTime::from_millis(5));
        let mut config = lan_config(
            ArrivalProcess::ClosedLoop {
                clients: 2,
                think: overdrawn,
            },
            10,
        );
        config.service = overdrawn;
        assert!(!config.is_valid());
        assert_eq!(config.horizon_hint(), SimTime::from_micros(5 * 25_500));
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

    /// The panic message of `run`, literal or formatted, or `None` if it
    /// returned.
    fn panic_message(run: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).err()?;
        payload
            .downcast_ref::<&str>()
            .map(|message| message.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
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
        // Hand-built distributions skip the constructors' asserts: a
        // straggler probability past one million parts per million, and a
        // body whose `min` exceeds its `max`.
        let (short, long) = (SimTime::from_micros(100), SimTime::from_micros(400));
        let overdrawn = Distribution::HeavyTail {
            min: SimTime::ZERO,
            max: SimTime::from_micros(10),
            slow: SimTime::from_millis(5),
            slow_ppm: 2_000_000,
        };
        let inverted = Distribution::Uniform {
            min: long,
            max: short,
        };
        let inverted_tail = Distribution::HeavyTail {
            min: long,
            max: short,
            slow: SimTime::from_millis(5),
            slow_ppm: 1_000,
        };
        refused.push(("service slow_ppm", base.clone().service(overdrawn)));
        refused.push((
            "think slow_ppm",
            base.clone().arrivals(ArrivalProcess::ClosedLoop {
                clients: 2,
                think: overdrawn,
            }),
        ));
        refused.push(("inverted latency", base.clone().rpc_latency(inverted)));
        refused.push(("inverted service", base.clone().service(inverted_tail)));
        refused.push((
            "inverted think",
            base.clone().arrivals(ArrivalProcess::ClosedLoop {
                clients: 2,
                think: inverted,
            }),
        ));
        refused.push((
            "inverted delay",
            base.clone().network(NetworkModel {
                delay: Some(inverted),
                ..NetworkModel::clean()
            }),
        ));
        for (field, spec) in refused {
            for backend in [Backend::Sim, Backend::Live(LiveOptions::default())] {
                let spec = spec.clone().backend(backend);
                assert_eq!(
                    panic_message(|| drop(spec.run_plans(5, plan))).as_deref(),
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

    /// Both plan types have their node ids checked against the cluster
    /// when the engine packs them.
    #[test]
    fn plans_probing_past_the_cluster_are_refused() {
        let spec = WorkloadSpec::new(3).sessions(2);
        let latency_only = || {
            drop(spec.run_plans(1, |_, _, _| SessionPlan {
                sequence: vec![0, 3],
                colors: vec![Color::Green, Color::Red],
                success: false,
            }))
        };
        let message_level = || {
            drop(spec.run(1, |_, _, _, _| NetSessionPlan {
                probes: vec![NetProbe {
                    node: 7,
                    observed: Color::Red,
                    failures: vec![AttemptLoss::Request],
                }],
                success: false,
            }))
        };
        let expected = |node: usize| Some(format!("session plan probes node {node} of 3"));
        assert_eq!(panic_message(latency_only), expected(3));
        assert_eq!(panic_message(message_level), expected(7));
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
