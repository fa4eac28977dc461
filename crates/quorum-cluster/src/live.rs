//! The real-concurrency runtime: executes a captured [`SessionTrace`] over
//! OS threads, real channels and wall-clock time, mirroring the message
//! semantics of [`crate::network`] — lost requests, lost responses,
//! client-side timeouts, exponential backoff and hedged probes from the same
//! [`ProbePolicy`] the simulator prices.
//!
//! Topology: one OS thread per node, each behind a *bounded* request
//! channel of 128 requests (a full queue blocks the sender — backpressure,
//! not loss). A driver thread starts every traced session at its arrival
//! instant, on its own thread, which executes its plan probe by probe; a
//! hedging policy races at most two probes on runner threads, exactly like
//! the simulator's two-in-flight cap. The replay compresses virtual time
//! 200×: timeouts, backoffs, hedging delays, service times and arrival gaps
//! all take 0.005 of their virtual length in wall-clock time, and the
//! logical observables do not depend on the scale.
//!
//! Fate adjudication is the trace's: the network layer here drops exactly
//! the messages the recorded [`NetProbe`] fates say were dropped, so the
//! replay is deterministic in its *logical* observables while scheduling,
//! queueing and latency are genuinely concurrent and measured on the wall
//! clock. A dropped message manifests as a real timed-out `recv` at the
//! client; a served-but-dropped response makes the node thread do the work
//! and send an answer nobody receives — the same waste the simulator
//! charges. Shutdown is graceful: closing the request channels lets every
//! node drain its queue before exiting, and [`LiveReport::drained_clean`]
//! certifies that nothing in flight was lost.
//!
//! Faults: the node threads all borrow the run's
//! [`FaultSchedule`], the one the simulator scripted the fates against.
//! Inside a crash window a worker thread genuinely dies — a crash-fated
//! request is dropped unserved (counted in
//! [`LiveReport::requests_lost_to_crash`]) and the worker exits, abandoning
//! whatever else is queued. A per-node *supervisor* thread restarts the
//! worker after the window plus a 500 µs restart delay, preferring an
//! instant when no message-level window is open (see
//! [`FaultSchedule::next_quiescent_at_or_after`]) within 5 ms, with 8
//! restarts per node: past them the node is pinned up and merely sheds the
//! remaining scripted crash work. The restarted generation inherits the
//! node's bounded queue, so shutdown still drains everything and the
//! accounting invariant
//! `requests_delivered == requests_served + requests_lost_to_crash` holds on
//! every run. Stalled nodes sleep through their window before serving (late
//! answers the client has given up on); slow nodes serve with inflated
//! service time. [`run_live`] holds every window end to
//! [`WorkloadConfig::MAX_DURATION`], so every node thread's sleep is bounded
//! too.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use quorum_core::Color;
use quorum_probe::session::AttemptLoss;

use crate::chaos::{FaultSchedule, ProcessState};
use crate::network::ProbePolicy;
use crate::spec::{attempt_is_wasted, SessionTrace};
use crate::workload::{NetProbe, WorkloadConfig};
use crate::{NodeId, SimTime};

/// How long a client waits for an answer the trace says *will* arrive
/// before giving up and letting the cross-validation flag the divergence
/// (rather than hanging the run).
const ANSWER_DEADLINE: Duration = Duration::from_secs(30);

/// How much longer a slow node takes to serve a request.
const SLOW_SERVICE_FACTOR: u32 = 4;

/// Wall-clock seconds per virtual second: time runs 200× compressed, so a
/// replay's wall stays in the milliseconds.
const TIME_SCALE: f64 = 0.005;

/// Capacity of each node's bounded request queue; a full queue blocks the
/// probing client (backpressure).
const QUEUE_CAPACITY: usize = 128;

/// Virtual delay between a supervisor seeing its worker die and the
/// earliest restart, on top of the crash window itself.
const RESTART_DELAY: SimTime = SimTime::from_micros(500);

/// Restarts allowed per node. Once they are spent the node is pinned up:
/// its final generation keeps serving (so shutdown still drains) and merely
/// drops the remaining scripted crash work.
const MAX_RESTARTS: u64 = 8;

/// How far past the due instant a supervisor waits for every message-level
/// window to close before restarting anyway — restarting into an open
/// partition just looks like another crash.
const PARTITION_PATIENCE: SimTime = SimTime::from_millis(5);

/// What one admitted session measured while executing its plan.
#[derive(Debug, Clone)]
pub struct LiveSessionOutcome {
    /// The trace index of the session.
    pub index: u64,
    /// The strategy verdict carried by the plan (the transcript checks
    /// below are what tie it to this execution).
    pub ok: bool,
    /// The nodes actually probed, in resolution-slot order.
    pub sequence: Vec<NodeId>,
    /// The color each probe actually recorded: green iff a real answer
    /// arrived, red iff every attempt timed out.
    pub observed: Vec<Color>,
    /// Probe attempts actually issued.
    pub probes: u64,
    /// Messages actually transmitted by and for this session: requests sent
    /// by the client plus responses sent by node threads (delivered or
    /// dropped).
    pub messages: u64,
    /// Attempts whose answer was never used.
    pub wasted: u64,
    /// Attempts that timed out at the client.
    pub timeouts: u64,
    /// Probes launched early by the hedging policy.
    pub hedges: u64,
    /// Hedge races whose slower probe was cancelled.
    pub cancelled: u64,
    /// Wall-clock duration from the session's start to its last probe's
    /// resolution.
    pub wall: Duration,
}

/// The report of one live run.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Sessions the trace offered.
    pub offered: u64,
    /// Sessions started (and run to completion): every offered one.
    pub admitted: u64,
    /// Admitted sessions whose strategy verdict was a located quorum.
    pub successes: u64,
    /// Probe attempts issued across all sessions.
    pub probes: u64,
    /// Messages transmitted across all sessions (requests + responses).
    pub messages: u64,
    /// Wasted attempts across all sessions.
    pub wasted: u64,
    /// Timed-out attempts across all sessions.
    pub timeouts: u64,
    /// Hedge launches across all sessions.
    pub hedges: u64,
    /// Cancelled hedge-race losers across all sessions.
    pub cancelled: u64,
    /// Requests actually enqueued at node threads.
    pub requests_delivered: u64,
    /// Requests node threads served before exiting.
    pub requests_served: u64,
    /// Requests dropped unserved by crashed (or crash-fated) workers. Every
    /// delivered request is either served or lost to a crash — see
    /// [`LiveReport::drained_clean`].
    pub requests_lost_to_crash: u64,
    /// Worker generations started beyond the first, across all nodes (the
    /// supervisors' restart count).
    pub node_restarts: u64,
    /// Worker deaths observed by supervisors, across all nodes.
    pub node_crashes: u64,
    /// The highest concurrent-session count the driver observed.
    pub peak_in_flight: usize,
    /// Wall-clock duration from the first arrival to the last session
    /// completion.
    pub wall: Duration,
    /// Per-session outcomes, in arrival order.
    pub sessions: Vec<LiveSessionOutcome>,
}

impl LiveReport {
    /// Whether graceful shutdown accounted for every node queue: every
    /// request enqueued at a node was either served or deliberately dropped
    /// by a crash before the node exited — nothing silently vanished.
    pub fn drained_clean(&self) -> bool {
        self.requests_delivered == self.requests_served + self.requests_lost_to_crash
    }

    /// Admitted sessions completed per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.admitted as f64 / secs
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of admitted sessions' wall-clock
    /// latency, or `None` when no session completed — a silent
    /// `Duration::ZERO` would be indistinguishable from a genuinely instant
    /// run.
    pub fn wall_latency_quantile(&self, q: f64) -> Option<Duration> {
        if self.sessions.is_empty() {
            return None;
        }
        let mut walls: Vec<Duration> = self.sessions.iter().map(|s| s.wall).collect();
        walls.sort_unstable();
        let rank = ((walls.len() as f64 * q).ceil() as usize).clamp(1, walls.len());
        Some(walls[rank - 1])
    }
}

/// Converts a virtual duration to a scaled wall-clock duration.
fn scaled(t: SimTime) -> Duration {
    Duration::from_nanos((t.as_micros() as f64 * 1_000.0 * TIME_SCALE).round() as u64)
}

/// The response path of one delivered request.
enum Reply {
    /// Deliver the answer to the client.
    To(SyncSender<()>),
    /// The node serves and answers, but the response leg drops the message.
    Lost,
}

/// One request enqueued at a node thread.
struct NodeRequest {
    session: usize,
    service: Duration,
    reply: Reply,
    /// The trace scripted this request to be swallowed by a crash: the
    /// worker drops it unserved (and dies if its node is inside a crash
    /// window when it processes it).
    doomed: bool,
}

/// Client-side shared state: the node channels and the run-wide counters.
struct Ctx {
    node_tx: Vec<SyncSender<NodeRequest>>,
    delivered: AtomicU64,
    policy: ProbePolicy,
    timeout: Duration,
    service: Duration,
}

impl Ctx {
    /// Enqueues one request at `node` (blocking on a full queue —
    /// backpressure) and counts the delivery.
    fn deliver(&self, session: usize, node: NodeId, reply: Reply, doomed: bool) {
        let request = NodeRequest {
            session,
            service: self.service,
            reply,
            doomed,
        };
        if self.node_tx[node].send(request).is_ok() {
            self.delivered.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What one probe execution measured.
#[derive(Debug, Clone)]
struct LiveProbe {
    node: NodeId,
    observed: Color,
    attempts: u64,
    timeouts: u64,
    wasted: u64,
}

/// Executes one probe for real: scripted-lost attempts send (or drop) a
/// request, wait out a genuine `recv` timeout and back off exponentially;
/// the answering attempt of a green observation blocks on the node's actual
/// response.
fn execute_probe(ctx: &Ctx, session: usize, probe: &NetProbe) -> LiveProbe {
    let mut out = LiveProbe {
        node: probe.node,
        observed: Color::Red,
        attempts: 0,
        timeouts: 0,
        wasted: 0,
    };
    for (attempt, loss) in probe.failures.iter().enumerate() {
        out.attempts += 1;
        out.timeouts += 1;
        if attempt_is_wasted(probe.observed, attempt, &probe.failures) {
            out.wasted += 1;
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel::<()>(1);
        match loss {
            // The request leg dropped the message: the node never sees it.
            AttemptLoss::Request => {}
            // The response leg drops: the node receives, serves and answers
            // into the void.
            AttemptLoss::Response => ctx.deliver(session, probe.node, Reply::Lost, false),
            // The node's crash swallows the delivered request unserved.
            AttemptLoss::Crash => ctx.deliver(session, probe.node, Reply::Lost, true),
        }
        // `reply_tx` stays alive in this scope, so the wait below is a real
        // timed-out receive, not an instant disconnect.
        let waited = reply_rx.recv_timeout(ctx.timeout);
        debug_assert!(waited.is_err(), "a scripted-lost attempt cannot answer");
        drop(reply_tx);
        let backoff = ctx.policy.backoff_before(attempt as u32);
        if backoff > SimTime::ZERO {
            thread::sleep(scaled(backoff));
        }
    }
    if probe.observed == Color::Green {
        out.attempts += 1;
        let (reply_tx, reply_rx) = mpsc::sync_channel::<()>(1);
        ctx.deliver(session, probe.node, Reply::To(reply_tx), false);
        // Green is recorded only if the answer actually arrives; a deadline
        // miss leaves the probe red and the cross-validation flags it.
        if reply_rx.recv_timeout(ANSWER_DEADLINE).is_ok() {
            out.observed = Color::Green;
        }
    }
    out
}

/// Everything one node's worker generations share: the (single-consumer)
/// request queue, the response tally, the run's fault schedule, and the
/// clock that maps wall time back to its virtual timeline.
struct NodeHarness<'a> {
    node: NodeId,
    rx: Mutex<Receiver<NodeRequest>>,
    responses: &'a [AtomicU64],
    faults: &'a FaultSchedule,
    start: Instant,
}

impl NodeHarness<'_> {
    /// The current instant on the virtual timeline the fault schedule is
    /// written against (wall elapsed divided by the time scale).
    fn virtual_now(&self) -> SimTime {
        SimTime::from_micros((self.start.elapsed().as_secs_f64() / TIME_SCALE * 1e6) as u64)
    }

    /// Sleeps until virtual instant `until` (no-op if already past).
    fn sleep_until(&self, until: SimTime) {
        let target = scaled(until);
        let elapsed = self.start.elapsed();
        if target > elapsed {
            thread::sleep(target - elapsed);
        }
    }
}

/// Why a worker generation ended.
enum WorkerExit {
    /// The request channel closed and the queue is drained: shutdown.
    Drained,
    /// The worker died inside a crash window; the supervisor decides when
    /// the next generation starts.
    Crashed,
}

/// One worker generation: serves the node's queue until shutdown or death.
///
/// A crash-fated (`doomed`) request is dropped unserved and — unless this
/// generation is `immortal` (restart budget exhausted) — kills the worker if
/// its node is inside a crash window right now; stale doomed requests
/// drained after a restart are dropped without dying, so the lost count
/// stays exactly the scripted one. Stalled generations sleep out the window
/// before serving (the client has long given up); slow ones serve with
/// inflated service time.
fn run_worker(h: &NodeHarness, immortal: bool) -> (WorkerExit, u64, u64) {
    let mut served = 0u64;
    let mut lost = 0u64;
    let rx = h.rx.lock().expect("one worker generation at a time");
    while let Ok(request) = rx.recv() {
        if request.doomed {
            lost += 1;
            if !immortal && h.faults.state_at(h.node, h.virtual_now()) == ProcessState::Crashed {
                return (WorkerExit::Crashed, served, lost);
            }
            continue;
        }
        let mut service = request.service;
        match h.faults.state_at(h.node, h.virtual_now()) {
            ProcessState::Stalled => {
                if let Some(end) = h.faults.disruption_end_at(h.node, h.virtual_now()) {
                    h.sleep_until(end);
                }
            }
            ProcessState::Slow => service *= SLOW_SERVICE_FACTOR,
            ProcessState::Up | ProcessState::Crashed => {}
        }
        if !service.is_zero() {
            thread::sleep(service);
        }
        // The node always answers a request it served; whether the answer
        // reaches anyone is the network's (scripted) call.
        h.responses[request.session].fetch_add(1, Ordering::Relaxed);
        served += 1;
        if let Reply::To(tx) = request.reply {
            let _ = tx.send(());
        }
    }
    (WorkerExit::Drained, served, lost)
}

/// What one node's supervisor reports after shutdown.
struct NodeOutcome {
    served: u64,
    lost_to_crash: u64,
    restarts: u64,
    crashes: u64,
}

/// The per-node supervisor: spawns worker generations, observes their
/// deaths, and restarts them — after the crash window plus
/// [`RESTART_DELAY`], preferring an instant with no open message-level
/// window within [`PARTITION_PATIENCE`]. Past [`MAX_RESTARTS`] the final
/// generation is immortal, so shutdown always drains the queue and the
/// accounting invariant holds unconditionally.
fn supervise(harness: &NodeHarness) -> NodeOutcome {
    let mut outcome = NodeOutcome {
        served: 0,
        lost_to_crash: 0,
        restarts: 0,
        crashes: 0,
    };
    loop {
        let immortal = outcome.crashes >= MAX_RESTARTS;
        let (exit, served, lost) = thread::scope(|s| {
            let worker = s.spawn(|| run_worker(harness, immortal));
            worker.join().expect("node worker completes")
        });
        outcome.served += served;
        outcome.lost_to_crash += lost;
        match exit {
            WorkerExit::Drained => return outcome,
            WorkerExit::Crashed => {
                outcome.crashes += 1;
                let now = harness.virtual_now();
                let mut due = now + RESTART_DELAY;
                if let Some(end) = harness.faults.disruption_end_at(harness.node, now) {
                    due = due.max(end);
                }
                if let Some(quiet) = harness.faults.next_quiescent_at_or_after(due) {
                    if quiet <= due + PARTITION_PATIENCE {
                        due = quiet;
                    }
                }
                harness.sleep_until(due);
                outcome.restarts += 1;
            }
        }
    }
}

/// Runs one admitted session: sequential probe execution, or a two-in-flight
/// hedged race when the policy hedges.
fn run_session(
    ctx: &Ctx,
    index: u64,
    session: usize,
    plan: &crate::workload::NetSessionPlan,
) -> LiveSessionOutcome {
    let start = Instant::now();
    let total = plan.probes.len();
    let mut slots: Vec<Option<LiveProbe>> = vec![None; total];
    let mut hedges = 0u64;
    let mut cancelled = 0u64;
    let hedge_delay = ctx.policy.hedge.map(scaled);
    match hedge_delay {
        None => {
            for (i, probe) in plan.probes.iter().enumerate() {
                slots[i] = Some(execute_probe(ctx, session, probe));
            }
        }
        // The runners borrow the plan and the context; the scope joins
        // them all before the session reports.
        Some(hedge) if total >= 1 => thread::scope(|s| {
            let (done_tx, done_rx) = mpsc::channel::<(usize, LiveProbe)>();
            let launch = |i: usize| {
                let tx = done_tx.clone();
                s.spawn(move || {
                    let out = execute_probe(ctx, session, &plan.probes[i]);
                    let _ = tx.send((i, out));
                });
            };
            launch(0);
            let mut next = 1usize;
            let mut in_flight = 1usize;
            let mut resolved = 0usize;
            let mut racing = false;
            while resolved < total {
                let message = if in_flight == 1 && next < total {
                    match done_rx.recv_timeout(hedge) {
                        Ok(message) => Some(message),
                        Err(RecvTimeoutError::Timeout) => {
                            // The frontier probe stalled past the hedging
                            // delay: launch its successor in parallel.
                            hedges += 1;
                            racing = true;
                            launch(next);
                            next += 1;
                            in_flight += 1;
                            None
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            unreachable!("probe runners outlive the race loop")
                        }
                    }
                } else {
                    Some(done_rx.recv().expect("probe runner delivers its result"))
                };
                if let Some((i, out)) = message {
                    if racing && in_flight == 2 {
                        cancelled += 1;
                    }
                    racing = false;
                    slots[i] = Some(out);
                    resolved += 1;
                    in_flight -= 1;
                    if in_flight == 0 && next < total {
                        launch(next);
                        next += 1;
                        in_flight = 1;
                    }
                }
            }
        }),
        Some(_) => {}
    }
    let mut outcome = LiveSessionOutcome {
        index,
        ok: plan.success,
        sequence: Vec::with_capacity(total),
        observed: Vec::with_capacity(total),
        probes: 0,
        messages: 0,
        wasted: 0,
        timeouts: 0,
        hedges,
        cancelled,
        wall: start.elapsed(),
    };
    for slot in slots {
        let probe = slot.expect("every probe resolved");
        outcome.sequence.push(probe.node);
        outcome.observed.push(probe.observed);
        outcome.probes += probe.attempts;
        outcome.messages += probe.attempts; // the requests; responses are
                                            // attributed after node drain
        outcome.wasted += probe.wasted;
        outcome.timeouts += probe.timeouts;
    }
    outcome
}

/// Replays a captured trace on the live runtime.
///
/// Spawns one node thread per node behind a bounded queue, starts every
/// session at its scaled arrival instant, executes every plan with real
/// timeouts/backoff/hedging, then shuts down gracefully: the request
/// channels close, every node drains its queue and reports how many
/// requests it served. Node workers crash, stall and slow down, and
/// supervisors sequence restarts, on `faults`: the schedule the trace's
/// fates were scripted against.
///
/// # Panics
///
/// Panics if a traced probe names a node outside `0..nodes`. Panics with
/// "inconsistent workload configuration", before any thread starts, if a
/// fault window ends past [`WorkloadConfig::MAX_DURATION`].
pub fn run_live(
    nodes: usize,
    trace: &SessionTrace,
    config: &WorkloadConfig,
    faults: &FaultSchedule,
    policy: &ProbePolicy,
) -> LiveReport {
    assert!(faults.is_bounded(), "inconsistent workload configuration");
    let offered = trace.sessions.len();
    for traced in &trace.sessions {
        for probe in &traced.plan.probes {
            assert!(
                probe.node < nodes,
                "traced probe names node {} of {nodes}",
                probe.node
            );
        }
    }
    let responses: Vec<AtomicU64> = (0..offered).map(|_| AtomicU64::new(0)).collect();
    // The virtual timeline's origin: arrivals and fault windows are measured
    // from here.
    let start = Instant::now();
    let (node_tx, harnesses): (Vec<_>, Vec<_>) = (0..nodes)
        .map(|node| {
            let (tx, rx) = mpsc::sync_channel::<NodeRequest>(QUEUE_CAPACITY);
            let harness = NodeHarness {
                node,
                rx: Mutex::new(rx),
                responses: &responses,
                faults,
                start,
            };
            (tx, harness)
        })
        .collect();
    let ctx = Ctx {
        node_tx,
        delivered: AtomicU64::new(0),
        policy: *policy,
        timeout: scaled(config.probe_timeout),
        service: scaled(config.service.mean()),
    };

    // Node supervisors and session workers are scoped threads: they borrow
    // the harnesses, the context and the traced plans.
    let in_flight = AtomicUsize::new(0);
    let mut peak = 0;
    let (mut sessions, wall, delivered, node_outcomes) = thread::scope(|nodes_scope| {
        let supervisors: Vec<_> = harnesses
            .iter()
            .map(|harness| nodes_scope.spawn(move || supervise(harness)))
            .collect();
        let sessions: Vec<LiveSessionOutcome> = thread::scope(|s| {
            let mut workers = Vec::with_capacity(offered);
            for (position, traced) in trace.sessions.iter().enumerate() {
                let target = scaled(traced.arrival);
                let elapsed = start.elapsed();
                if target > elapsed {
                    thread::sleep(target - elapsed);
                }
                peak = peak.max(in_flight.fetch_add(1, Ordering::AcqRel) + 1);
                let (ctx, in_flight) = (&ctx, &in_flight);
                workers.push(s.spawn(move || {
                    let outcome = run_session(ctx, traced.index, position, &traced.plan);
                    in_flight.fetch_sub(1, Ordering::AcqRel);
                    outcome
                }));
            }
            workers
                .into_iter()
                .map(|handle| handle.join().expect("session worker completes"))
                .collect()
        });
        let wall = start.elapsed();

        // Graceful shutdown: dropping the client context closes every
        // request channel; each node's current worker generation drains what
        // is queued (serving it, or dropping it if scripted to die in a
        // crash), then exits, and its supervisor reports the node's totals.
        let delivered = ctx.delivered.load(Ordering::Relaxed);
        drop(ctx);
        let node_outcomes: Vec<NodeOutcome> = supervisors
            .into_iter()
            .map(|handle| handle.join().expect("node supervisor completes"))
            .collect();
        (sessions, wall, delivered, node_outcomes)
    });
    let mut served = 0u64;
    let mut lost_to_crash = 0u64;
    let mut node_restarts = 0u64;
    let mut node_crashes = 0u64;
    for outcome in node_outcomes {
        served += outcome.served;
        lost_to_crash += outcome.lost_to_crash;
        node_restarts += outcome.restarts;
        node_crashes += outcome.crashes;
    }

    // Attribute node-sent responses to their sessions (in trace order, like
    // `responses`) now that every count is settled.
    for (outcome, sent) in sessions.iter_mut().zip(&responses) {
        outcome.messages += sent.load(Ordering::Relaxed);
    }

    let mut report = LiveReport {
        offered: offered as u64,
        admitted: sessions.len() as u64,
        successes: 0,
        probes: 0,
        messages: 0,
        wasted: 0,
        timeouts: 0,
        hedges: 0,
        cancelled: 0,
        requests_delivered: delivered,
        requests_served: served,
        requests_lost_to_crash: lost_to_crash,
        node_restarts,
        node_crashes,
        peak_in_flight: peak,
        wall,
        sessions,
    };
    for session in &report.sessions {
        report.successes += u64::from(session.ok);
        report.probes += session.probes;
        report.messages += session.messages;
        report.wasted += session.wasted;
        report.timeouts += session.timeouts;
        report.hedges += session.hedges;
        report.cancelled += session.cancelled;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Fault;
    use crate::spec::{plan_observables, TracedSession};
    use crate::workload::{ArrivalProcess, Distribution, NetSessionPlan};

    fn tiny_config(sessions: usize) -> WorkloadConfig {
        WorkloadConfig {
            arrival: ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(200),
            },
            sessions,
            rpc_latency: Distribution::fixed(SimTime::from_micros(100)),
            service: Distribution::fixed(SimTime::from_micros(100)),
            probe_timeout: SimTime::from_millis(2),
        }
    }

    fn mixed_plan() -> NetSessionPlan {
        NetSessionPlan {
            probes: vec![
                NetProbe {
                    node: 0,
                    observed: Color::Green,
                    failures: vec![AttemptLoss::Request],
                },
                NetProbe {
                    node: 1,
                    observed: Color::Red,
                    failures: vec![AttemptLoss::Response, AttemptLoss::Request],
                },
                NetProbe {
                    node: 2,
                    observed: Color::Green,
                    failures: vec![],
                },
            ],
            success: true,
        }
    }

    fn trace_of(plans: usize) -> SessionTrace {
        SessionTrace {
            sessions: (0..plans)
                .map(|i| TracedSession {
                    index: i as u64,
                    arrival: SimTime::from_micros(50 * i as u64),
                    plan: mixed_plan(),
                })
                .collect(),
        }
    }

    #[test]
    fn live_counts_match_the_plan_observables() {
        let trace = trace_of(12);
        let config = tiny_config(12);
        let report = run_live(
            3,
            &trace,
            &config,
            &FaultSchedule::none(),
            &ProbePolicy::retry(2, SimTime::ZERO),
        );
        assert_eq!(report.offered, 12);
        assert_eq!(report.admitted, 12);
        assert!(report.drained_clean(), "shutdown must drain the queues");
        let expect = plan_observables(&mixed_plan());
        for session in &report.sessions {
            assert_eq!(session.sequence, expect.sequence);
            assert_eq!(session.observed, expect.observed);
            assert_eq!(session.probes, expect.probes);
            assert_eq!(session.messages, expect.messages);
            assert_eq!(session.wasted, expect.wasted);
            assert_eq!(session.timeouts, expect.timeouts);
            assert!(session.ok);
        }
        assert_eq!(report.messages, 12 * expect.messages);
        assert!(report.wall > Duration::ZERO);
        assert!(report.sessions_per_sec() > 0.0);
        let p50 = report.wall_latency_quantile(0.5).expect("sessions ran");
        let p99 = report.wall_latency_quantile(0.99).expect("sessions ran");
        assert!(p50 <= p99);
        // Regression: with no completed sessions there is no latency to
        // rank — the quantile must refuse rather than report a zero.
        let mut empty = report.clone();
        empty.sessions.clear();
        assert_eq!(empty.wall_latency_quantile(0.5), None);
    }

    #[test]
    fn hedged_sessions_still_resolve_every_probe() {
        let trace = trace_of(6);
        let config = tiny_config(6);
        let policy = ProbePolicy::retry(2, SimTime::ZERO).with_hedge(SimTime::from_micros(500));
        let none = FaultSchedule::none();
        let report = run_live(3, &trace, &config, &none, &policy);
        assert_eq!(report.admitted, 6);
        let expect = plan_observables(&mixed_plan());
        for session in &report.sessions {
            assert_eq!(session.sequence, expect.sequence, "order is by probe slot");
            assert_eq!(
                session.messages, expect.messages,
                "hedging never changes messages"
            );
            assert!(session.cancelled <= session.hedges);
        }
        assert!(report.drained_clean());
    }

    fn crash_plan() -> NetSessionPlan {
        NetSessionPlan {
            probes: vec![
                NetProbe {
                    node: 0,
                    observed: Color::Red,
                    failures: vec![AttemptLoss::Crash, AttemptLoss::Crash],
                },
                NetProbe {
                    node: 1,
                    observed: Color::Green,
                    failures: vec![],
                },
            ],
            success: true,
        }
    }

    #[test]
    fn crashed_workers_drop_scripted_requests_and_account_for_them() {
        let sessions = 8;
        let trace = SessionTrace {
            sessions: (0..sessions)
                .map(|i| TracedSession {
                    index: i as u64,
                    arrival: SimTime::from_micros(50 * i as u64),
                    plan: crash_plan(),
                })
                .collect(),
        };
        let config = tiny_config(sessions);
        // The window comfortably covers the whole run, so the worker dies on
        // the first doomed request and shutdown happens while node 0 is
        // crashed mid-drain: the restarted generation inherits the queue.
        let crash = FaultSchedule::window(
            Fault::Crash,
            vec![0],
            SimTime::ZERO,
            SimTime::from_millis(5_000),
        );
        let report = run_live(
            2,
            &trace,
            &config,
            &crash,
            &ProbePolicy::retry(2, SimTime::ZERO),
        );
        assert_eq!(report.admitted, sessions as u64);
        assert_eq!(
            report.requests_lost_to_crash,
            2 * sessions as u64,
            "every scripted crash attempt is dropped, nothing else"
        );
        assert!(
            report.drained_clean(),
            "delivered ({}) must equal served ({}) + lost to crash ({})",
            report.requests_delivered,
            report.requests_served,
            report.requests_lost_to_crash
        );
        assert!(
            report.node_crashes >= 1,
            "the crash window kills the worker"
        );
        assert!(report.node_restarts >= 1, "the supervisor restarts it");
        assert_eq!(report.successes, sessions as u64, "node 1 still answers");
        for session in &report.sessions {
            assert_eq!(session.observed, vec![Color::Red, Color::Green]);
        }
    }

    #[test]
    fn stalled_nodes_serve_late_without_losing_work() {
        let sessions = 4;
        let plan = NetSessionPlan {
            probes: vec![NetProbe {
                node: 0,
                observed: Color::Red,
                failures: vec![AttemptLoss::Response],
            }],
            success: false,
        };
        let trace = SessionTrace {
            sessions: (0..sessions)
                .map(|i| TracedSession {
                    index: i as u64,
                    arrival: SimTime::ZERO,
                    plan: plan.clone(),
                })
                .collect(),
        };
        let config = tiny_config(sessions);
        let stall = FaultSchedule::window(
            Fault::Stall,
            vec![0],
            SimTime::ZERO,
            SimTime::from_millis(20),
        );
        let policy = ProbePolicy::sequential();
        let report = run_live(1, &trace, &config, &stall, &policy);
        assert_eq!(report.requests_lost_to_crash, 0);
        assert_eq!(report.node_crashes, 0, "stalls do not kill workers");
        assert_eq!(
            report.requests_served, report.requests_delivered,
            "the stalled node eventually serves everything"
        );
        assert!(report.drained_clean());
        assert_eq!(report.successes, 0, "every client had given up");
    }

    /// One probe of node 0 through `probe_fate` in each of two sessions of
    /// a three-node spec on the live backend, under `faults`.
    fn probe_node_zero_live(faults: FaultSchedule) {
        use crate::network::NetworkModel;
        use crate::spec::{Backend, WorkloadSpec};

        let network = NetworkModel::clean().with_faults(faults);
        let policy = ProbePolicy::sequential();
        let spec = WorkloadSpec::new(3)
            .sessions(2)
            .network(network.clone())
            .backend(Backend::Live);
        spec.run(1, |_, _, now, rng| {
            let fate = network.probe_fate(0, true, now, &policy, rng);
            NetSessionPlan {
                probes: vec![NetProbe {
                    node: 0,
                    observed: fate.observed,
                    failures: fate.failures,
                }],
                success: false,
            }
        });
    }

    fn past_max_duration() -> SimTime {
        SimTime::from_micros(u64::MAX)
    }

    /// A stalled worker sleeps until its window ends: unbounded, that was
    /// ≈ 584 years of scaled sleep.
    #[test]
    #[should_panic(expected = "inconsistent workload configuration")]
    fn a_stall_window_past_max_duration_is_refused() {
        let stall =
            FaultSchedule::window(Fault::Stall, vec![0], SimTime::ZERO, past_max_duration());
        probe_node_zero_live(stall);
    }

    /// A crashed worker's supervisor sleeps until the window ends (and
    /// debug builds overflowed adding the partition patience to it).
    #[test]
    #[should_panic(expected = "inconsistent workload configuration")]
    fn a_crash_window_past_max_duration_is_refused() {
        let crash =
            FaultSchedule::window(Fault::Crash, vec![0], SimTime::ZERO, past_max_duration());
        probe_node_zero_live(crash);
    }

    /// A direct caller of `run_live` gets the same check as the spec.
    #[test]
    #[should_panic(expected = "inconsistent workload configuration")]
    fn run_live_refuses_a_window_past_max_duration() {
        let cap = WorkloadConfig::MAX_DURATION;
        let stall =
            FaultSchedule::window(Fault::Stall, vec![0], cap, cap + SimTime::from_micros(1));
        let policy = ProbePolicy::sequential();
        run_live(3, &trace_of(2), &tiny_config(2), &stall, &policy);
    }

    #[test]
    fn zero_probe_sessions_complete_instantly() {
        let trace = SessionTrace {
            sessions: vec![TracedSession {
                index: 0,
                arrival: SimTime::ZERO,
                plan: NetSessionPlan {
                    probes: vec![],
                    success: false,
                },
            }],
        };
        let config = tiny_config(1);
        let report = run_live(
            2,
            &trace,
            &config,
            &FaultSchedule::none(),
            &ProbePolicy::sequential(),
        );
        assert_eq!(report.admitted, 1);
        assert_eq!(report.probes, 0);
        assert_eq!(report.messages, 0);
        assert!(report.drained_clean());
    }
}
