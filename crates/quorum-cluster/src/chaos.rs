//! The fault schedule: timed windows of message-level and process-level
//! faults over node subsets, the one schedule both backends execute.
//!
//! In the probe model an element that does not answer is red whatever the
//! cause. A [`FaultSchedule`] keeps the causes apart only where they behave
//! differently, as the kinds of one [`Fault`] type:
//!
//! * **Message-level** faults cut the link; the node is fine.
//!   [`Fault::Isolate`] drops both legs (the nodes are unreachable and
//!   mute), [`Fault::DropRequests`] drops requests (responses to earlier
//!   requests still pass), and [`Fault::DropResponses`] delivers requests,
//!   so the nodes do the work, and drops every response: the asymmetric-link
//!   case where effort is wasted.
//! * **Process-level** faults hit the node itself.
//!   - [`Fault::Crash`]: the node's worker dies. Requests already queued
//!     (and requests delivered into the window) are dropped unserved, which
//!     the client observes as [`AttemptLoss::Crash`](quorum_probe::AttemptLoss)
//!     timeouts. A supervisor restarts the worker after the window plus a
//!     restart delay (see [`crate::live`]).
//!   - [`Fault::Stall`]: the node accepts and eventually serves requests,
//!     but not before the client has given up: the work is done and wasted,
//!     like a response-leg fault but burning server time.
//!   - [`Fault::Slow`]: degraded service. The first attempt times out;
//!     retries (and patient policies) still get through.
//!
//! Every window is half-open, active for `from <= t < until`; a window that
//! ends where it starts, or has no nodes, is inert. Each query reads one
//! class: [`FaultSchedule::delivers`] and
//! [`FaultSchedule::next_quiescent_at_or_after`] the message-level windows,
//! [`FaultSchedule::state_at`] and the disruption queries the process-level
//! ones. A [`NetworkModel`](crate::NetworkModel) owns one schedule: the
//! simulator reads it through `probe_fate`, and the live runtime's node
//! workers and supervisors read the same schedule, so a
//! [`WorkloadSpec`](crate::WorkloadSpec) run cross-validates every fault
//! scenario.

use crate::network::LinkDirection;
use crate::{NodeId, SimTime, WorkloadConfig};

/// What a fault window does to its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Both directions are cut: the nodes are unreachable and mute.
    Isolate,
    /// Requests are dropped; responses (to earlier requests) still pass.
    DropRequests,
    /// Requests are delivered (the nodes do the work) but every response is
    /// dropped.
    DropResponses,
    /// The node process dies: queued and newly delivered requests are
    /// dropped unserved until the supervisor restarts it.
    Crash,
    /// The node freezes, then serves its backlog late: every attempt in the
    /// window times out after the node has (eventually) done the work.
    Stall,
    /// The node is degraded: the first attempt of each probe times out,
    /// later attempts behave normally.
    Slow,
}

impl Fault {
    /// Whether the fault acts on messages (`Isolate`, `DropRequests`,
    /// `DropResponses`) rather than on the node's process.
    pub fn is_message_level(self) -> bool {
        matches!(
            self,
            Fault::Isolate | Fault::DropRequests | Fault::DropResponses
        )
    }
}

/// One timed fault window over a set of nodes, active for
/// `from <= t < until`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the window is active.
    pub from: SimTime,
    /// First instant after the window (exclusive).
    pub until: SimTime,
    /// The nodes the window disrupts.
    pub nodes: Vec<NodeId>,
    /// The fault injected.
    pub fault: Fault,
}

impl FaultWindow {
    fn covers(&self, node: NodeId, at: SimTime) -> bool {
        at >= self.from && at < self.until && self.nodes.contains(&node)
    }

    fn is_inert(&self) -> bool {
        self.from >= self.until || self.nodes.is_empty()
    }

    fn blocks(&self, node: NodeId, direction: LinkDirection, at: SimTime) -> bool {
        self.covers(node, at)
            && match self.fault {
                Fault::Isolate => true,
                Fault::DropRequests => direction == LinkDirection::Request,
                Fault::DropResponses => direction == LinkDirection::Response,
                Fault::Crash | Fault::Stall | Fault::Slow => false,
            }
    }
}

/// The process state a fault schedule assigns a node at an instant, in
/// increasing severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProcessState {
    /// No process-level window covers the node: normal service.
    Up,
    /// A slow window covers the node.
    Slow,
    /// A stall window covers the node.
    Stalled,
    /// A crash window covers the node.
    Crashed,
}

/// A timed schedule of fault windows: splits and heals of the node set,
/// asymmetric links, crashes, stalls and slow nodes.
///
/// The schedule is piecewise: any number of (possibly overlapping) windows.
/// A message is delivered iff no message-level window blocks it; a node's
/// process state is its most severe covering process-level window, `Crash`
/// over `Stall` over `Slow`. [`FaultSchedule::heal_all`] clamps every
/// window, restoring a whole cluster from a given instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// The most windows [`flapping`](Self::flapping) builds; the shipped
    /// batteries build 6.
    pub const MAX_FLAPPING_WINDOWS: u64 = 1 << 16;

    /// A schedule with no faults: every node is up and reachable.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// A schedule made of explicit windows.
    pub fn from_windows(windows: Vec<FaultWindow>) -> Self {
        FaultSchedule { windows }
    }

    /// One window: `fault` hits `nodes` during `[from, until)`.
    pub fn window(fault: Fault, nodes: Vec<NodeId>, from: SimTime, until: SimTime) -> Self {
        FaultSchedule {
            windows: vec![FaultWindow {
                from,
                until,
                nodes,
                fault,
            }],
        }
    }

    /// A flapping fault: `fault` hits `nodes` for the first `down` of every
    /// `period`, repeatedly, until `until`.
    ///
    /// The windows are materialised eagerly — one per period — so `until`
    /// must be a bounded horizon (use [`FaultSchedule::heal_all`] for
    /// "flaps forever, then an operator fixes it" traces). Every bound is
    /// checked before anything is built, and no instant can overflow: each
    /// is at most `until`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, `down > period`, `until` is past
    /// [`WorkloadConfig::MAX_DURATION`], or the schedule needs more than
    /// [`MAX_FLAPPING_WINDOWS`](Self::MAX_FLAPPING_WINDOWS) windows.
    pub fn flapping(
        fault: Fault,
        nodes: Vec<NodeId>,
        period: SimTime,
        down: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(period > SimTime::ZERO, "flapping needs a positive period");
        assert!(down <= period, "downtime cannot exceed the period");
        assert!(
            until <= WorkloadConfig::MAX_DURATION,
            "flapping horizon past WorkloadConfig::MAX_DURATION"
        );
        let count = until.as_micros().div_ceil(period.as_micros());
        assert!(
            count <= Self::MAX_FLAPPING_WINDOWS,
            "flapping needs more than FaultSchedule::MAX_FLAPPING_WINDOWS windows"
        );
        let windows = (0..count)
            .map(|k| {
                let from = period.saturating_mul(k);
                FaultWindow {
                    from,
                    until: from + down.min(until - from),
                    nodes: nodes.clone(),
                    fault,
                }
            })
            .collect();
        FaultSchedule { windows }
    }

    /// A rolling restart: each node of `nodes`, in order, crashes for `down`
    /// starting `stagger` after the previous one (the first at `start`).
    /// With `stagger >= down` at most one node is ever down — the classic
    /// one-at-a-time deploy.
    ///
    /// # Panics
    ///
    /// Panics if the last window ends past [`WorkloadConfig::MAX_DURATION`].
    pub fn rolling_restart(
        nodes: Vec<NodeId>,
        start: SimTime,
        stagger: SimTime,
        down: SimTime,
    ) -> Self {
        // The last window ends latest; once it is in range no sum overflows.
        let last = nodes.len().saturating_sub(1) as u64;
        let end = start
            .checked_add(stagger.saturating_mul(last))
            .and_then(|from| from.checked_add(down));
        assert!(
            end.is_some_and(|end| end <= WorkloadConfig::MAX_DURATION),
            "rolling restart ends past WorkloadConfig::MAX_DURATION"
        );
        let windows = nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                let from = start + stagger.saturating_mul(i as u64);
                FaultWindow {
                    from,
                    until: from + down,
                    nodes: vec![node],
                    fault: Fault::Crash,
                }
            })
            .collect();
        FaultSchedule { windows }
    }

    /// The windows of the schedule.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Adds one window.
    pub fn push(&mut self, window: FaultWindow) {
        self.windows.push(window);
    }

    /// Whether the schedule never disrupts anything.
    pub fn is_empty(&self) -> bool {
        self.windows.iter().all(FaultWindow::is_inert)
    }

    /// Whether every window ends by [`WorkloadConfig::MAX_DURATION`], the
    /// bound a run puts on every configured instant.
    pub(crate) fn is_bounded(&self) -> bool {
        self.windows
            .iter()
            .all(|w| w.until <= WorkloadConfig::MAX_DURATION)
    }

    /// Heals every fault from `at` onward: windows ending later are clamped
    /// to `at`, so from `at` on every node is up and every message is
    /// delivered. Windows clamped to nothing are removed.
    pub fn heal_all(&mut self, at: SimTime) {
        for window in &mut self.windows {
            window.until = window.until.min(at);
        }
        self.windows.retain(|w| w.from < w.until);
    }

    /// Whether a message to/from `node` in `direction` sent at `at` gets
    /// through the message-level windows (loss is a separate, probabilistic
    /// layer).
    pub fn delivers(&self, node: NodeId, direction: LinkDirection, at: SimTime) -> bool {
        !self.windows.iter().any(|w| w.blocks(node, direction, at))
    }

    /// The earliest instant `t >= at` at which no message-level window is
    /// open (the network is whole), or `None` if every remaining boundary
    /// still has one open. The supervisor waits for it to sequence
    /// restarts: restarting a node into an open partition would just look
    /// like another crash to clients. Quiescence only changes at window
    /// boundaries, so `at` and the later `until` instants are the only
    /// candidates.
    pub fn next_quiescent_at_or_after(&self, at: SimTime) -> Option<SimTime> {
        let partitions = || {
            self.windows
                .iter()
                .filter(|w| w.fault.is_message_level() && !w.nodes.is_empty())
        };
        let mut candidates: Vec<SimTime> = partitions()
            .map(|w| w.until)
            .filter(|&until| until > at)
            .collect();
        candidates.push(at);
        candidates.sort_unstable();
        candidates
            .into_iter()
            .find(|&t| !partitions().any(|w| t >= w.from && t < w.until))
    }

    /// The process state of `node` at `at`, the most severe covering
    /// process-level window winning.
    pub fn state_at(&self, node: NodeId, at: SimTime) -> ProcessState {
        self.windows
            .iter()
            .filter(|w| w.covers(node, at))
            .map(|w| match w.fault {
                Fault::Crash => ProcessState::Crashed,
                Fault::Stall => ProcessState::Stalled,
                Fault::Slow => ProcessState::Slow,
                Fault::Isolate | Fault::DropRequests | Fault::DropResponses => ProcessState::Up,
            })
            .max()
            .unwrap_or(ProcessState::Up)
    }

    /// The end of the process-level disruption covering `node` at `at`, if
    /// any: the largest `until` among covering windows — when a stalled node
    /// can serve again, or the earliest instant a crashed one is worth
    /// restarting.
    pub fn disruption_end_at(&self, node: NodeId, at: SimTime) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| !w.fault.is_message_level() && w.covers(node, at))
            .map(|w| w.until)
            .max()
    }

    /// The end of the last process-level disruption of `node`, if any: the
    /// instant recovery can begin, used by recovery-time metrics.
    pub fn last_disruption_end(&self, node: NodeId) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| !w.fault.is_message_level() && !w.is_inert() && w.nodes.contains(&node))
            .map(|w| w.until)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn crash_windows_are_half_open() {
        let chaos = FaultSchedule::window(Fault::Crash, vec![0, 2], ms(10), ms(20));
        assert_eq!(chaos.state_at(0, ms(9)), ProcessState::Up);
        assert_eq!(chaos.state_at(0, ms(10)), ProcessState::Crashed);
        assert_eq!(chaos.state_at(0, ms(19)), ProcessState::Crashed);
        assert_eq!(
            chaos.state_at(0, ms(20)),
            ProcessState::Up,
            "until exclusive"
        );
        assert_eq!(chaos.state_at(1, ms(15)), ProcessState::Up, "unlisted node");
        assert_eq!(chaos.state_at(2, ms(15)), ProcessState::Crashed);
        assert_eq!(chaos.disruption_end_at(2, ms(15)), Some(ms(20)));
        assert_eq!(chaos.disruption_end_at(2, ms(20)), None);
    }

    #[test]
    fn severity_resolves_overlaps() {
        let mut chaos = FaultSchedule::window(Fault::Slow, vec![0], ms(0), ms(30));
        chaos.push(FaultWindow {
            from: ms(10),
            until: ms(20),
            nodes: vec![0],
            fault: Fault::Stall,
        });
        chaos.push(FaultWindow {
            from: ms(14),
            until: ms(16),
            nodes: vec![0],
            fault: Fault::Crash,
        });
        assert_eq!(chaos.state_at(0, ms(5)), ProcessState::Slow);
        assert_eq!(chaos.state_at(0, ms(12)), ProcessState::Stalled);
        assert_eq!(chaos.state_at(0, ms(15)), ProcessState::Crashed);
        assert_eq!(chaos.state_at(0, ms(25)), ProcessState::Slow);
    }

    #[test]
    fn message_and_process_windows_stay_in_their_class() {
        // One schedule, both classes over the same node and span.
        let mut faults = FaultSchedule::window(Fault::Isolate, vec![0], ms(10), ms(20));
        faults.push(FaultWindow {
            from: ms(10),
            until: ms(30),
            nodes: vec![0, 1],
            fault: Fault::Crash,
        });
        for at in [ms(10), ms(15), ms(19)] {
            // The crash sets the process state, whatever the partition does.
            assert_eq!(faults.state_at(0, at), ProcessState::Crashed);
            assert_eq!(faults.disruption_end_at(0, at), Some(ms(30)));
            // The partition blocks node 0's messages; the crash never
            // blocks node 1's.
            for direction in [LinkDirection::Request, LinkDirection::Response] {
                assert!(!faults.delivers(0, direction, at));
                assert!(faults.delivers(1, direction, at));
            }
        }
        // Past the partition, the crash still blocks no message.
        assert!(faults.delivers(0, LinkDirection::Request, ms(25)));
        // An Isolate window alone never changes the process state.
        let isolate = FaultSchedule::window(Fault::Isolate, vec![0], ms(10), ms(20));
        assert_eq!(isolate.state_at(0, ms(15)), ProcessState::Up);
        assert_eq!(isolate.disruption_end_at(0, ms(15)), None);
        assert_eq!(isolate.last_disruption_end(0), None);
        // Quiescence waits for the partition's end, not the crash's.
        assert_eq!(faults.next_quiescent_at_or_after(ms(12)), Some(ms(20)));
        assert_eq!(faults.next_quiescent_at_or_after(ms(22)), Some(ms(22)));
        let crash = FaultSchedule::window(Fault::Crash, vec![0], ms(10), ms(30));
        assert_eq!(crash.next_quiescent_at_or_after(ms(12)), Some(ms(12)));
        assert_eq!(faults.last_disruption_end(0), Some(ms(30)));
    }

    #[test]
    fn rolling_restart_staggers_one_node_at_a_time() {
        let chaos = FaultSchedule::rolling_restart(vec![3, 1, 4], ms(5), ms(10), ms(8));
        let crashed = |node, at| chaos.state_at(node, at) == ProcessState::Crashed;
        assert_eq!(chaos.windows().len(), 3);
        assert!(crashed(3, ms(6)));
        assert!(!crashed(1, ms(6)));
        assert!(crashed(1, ms(16)));
        assert!(!crashed(3, ms(16)), "node 3 already restarted");
        assert!(crashed(4, ms(26)));
        assert_eq!(chaos.last_disruption_end(1), Some(ms(23)));
        assert_eq!(chaos.last_disruption_end(4), Some(ms(33)));
        assert_eq!(chaos.last_disruption_end(0), None);
    }

    #[test]
    fn stall_flapping_mirrors_partition_flapping() {
        // Windows [0, 4), [10, 14), [20, 24) and [30, 32): the last one is
        // cut at the horizon.
        let flap = |fault| FaultSchedule::flapping(fault, vec![1], ms(10), ms(4), ms(32));
        let stall = flap(Fault::Stall);
        let spans = |s: &FaultSchedule| -> Vec<_> {
            s.windows().iter().map(|w| (w.from, w.until)).collect()
        };
        assert_eq!(spans(&stall), spans(&flap(Fault::Isolate)));
        assert_eq!(stall.windows().len(), 4);
        // A stall flap sets the process state and blocks no message.
        assert_eq!(stall.state_at(1, ms(2)), ProcessState::Stalled);
        assert_eq!(stall.state_at(1, ms(6)), ProcessState::Up);
        assert_eq!(stall.state_at(1, ms(12)), ProcessState::Stalled);
        assert_eq!(stall.state_at(1, ms(31)), ProcessState::Stalled);
        assert_eq!(stall.state_at(1, ms(32)), ProcessState::Up);
        assert!(stall.delivers(1, LinkDirection::Request, ms(2)));
    }

    #[test]
    #[should_panic(expected = "rolling restart ends past WorkloadConfig::MAX_DURATION")]
    fn rolling_restart_refuses_an_overflowing_stagger() {
        // Unchecked, release wrapped node 1's window to 0–10 µs.
        let micros = SimTime::from_micros;
        FaultSchedule::rolling_restart(vec![0, 1], micros(u64::MAX), micros(1), micros(10));
    }

    #[test]
    #[should_panic(expected = "rolling restart ends past WorkloadConfig::MAX_DURATION")]
    fn rolling_restart_refuses_a_window_past_max_duration() {
        let max = WorkloadConfig::MAX_DURATION;
        FaultSchedule::rolling_restart(vec![0], max, ms(1), SimTime::from_micros(1));
    }

    #[test]
    fn inert_windows_do_not_disturb_quiescence() {
        let mut chaos = FaultSchedule::window(Fault::Crash, vec![], ms(0), ms(100));
        for fault in [Fault::Crash, Fault::Isolate] {
            chaos.push(FaultWindow {
                from: ms(50),
                until: ms(50),
                nodes: vec![0],
                fault,
            });
        }
        chaos.push(FaultWindow {
            from: ms(0),
            until: ms(100),
            nodes: vec![],
            fault: Fault::Isolate,
        });
        assert!(chaos.is_empty());
        assert_eq!(chaos.next_quiescent_at_or_after(ms(50)), Some(ms(50)));
        assert_eq!(chaos.state_at(0, ms(50)), ProcessState::Up);
        assert!(chaos.delivers(0, LinkDirection::Request, ms(50)));
        assert_eq!(chaos.last_disruption_end(0), None);
    }

    #[test]
    fn heal_all_clamps_and_is_not_retroactive() {
        let mut chaos = FaultSchedule::window(Fault::Crash, vec![0], ms(10), ms(40));
        chaos.heal_all(ms(20));
        assert_eq!(chaos.state_at(0, ms(15)), ProcessState::Crashed);
        assert_eq!(chaos.state_at(0, ms(25)), ProcessState::Up);
        let mut empty = FaultSchedule::none();
        empty.heal_all(ms(5));
        assert!(empty.is_empty());
    }

    mod heal_all_parity {
        use super::*;
        use proptest::prelude::*;

        /// Window soups over both classes: `(from, until, nodes, kind)` in
        /// microseconds over a 6-node universe, `kind` indexing [`KINDS`].
        /// `until` may precede `from` (inert window) and node sets may be
        /// empty — `heal_all` must cope.
        fn windows() -> impl Strategy<Value = Vec<(u64, u64, Vec<NodeId>, usize)>> {
            prop::collection::vec(
                (
                    0u64..2_000,
                    0u64..2_000,
                    prop::collection::vec(0usize..6, 0..4),
                    0usize..6,
                ),
                0..8,
            )
        }

        const KINDS: [Fault; 6] = [
            Fault::Isolate,
            Fault::DropRequests,
            Fault::DropResponses,
            Fault::Crash,
            Fault::Stall,
            Fault::Slow,
        ];

        proptest! {
            /// Pins the `heal_all` semantics on soups that mix message- and
            /// process-level windows: every window is clamped to the heal
            /// instant, fully-clamped (zero-length) windows are dropped, not
            /// kept inert, and from the heal instant on every node is up,
            /// every message is delivered and the network is quiescent.
            #[test]
            fn chaos_and_partition_schedules_heal_identically(
                shapes in windows(),
                heal_us in 0u64..2_500,
            ) {
                let heal = SimTime::from_micros(heal_us);
                let mut faults = FaultSchedule::from_windows(
                    shapes
                        .iter()
                        .map(|(from, until, nodes, kind)| FaultWindow {
                            from: SimTime::from_micros(*from),
                            until: SimTime::from_micros(*until),
                            nodes: nodes.clone(),
                            fault: KINDS[*kind],
                        })
                        .collect(),
                );
                faults.heal_all(heal);

                let kept = shapes.iter().filter(|(from, until, _, _)| {
                    *from < (*until).min(heal_us)
                });
                prop_assert_eq!(faults.windows().len(), kept.clone().count());
                for (window, (from, until, nodes, kind)) in faults.windows().iter().zip(kept) {
                    prop_assert_eq!(window.from, SimTime::from_micros(*from));
                    prop_assert_eq!(window.until, SimTime::from_micros((*until).min(heal_us)));
                    prop_assert_eq!(&window.nodes, nodes);
                    prop_assert_eq!(window.fault, KINDS[*kind]);
                    prop_assert!(window.from < window.until);
                    prop_assert!(window.until <= heal);
                }

                for probe_us in [heal_us, heal_us + 1, heal_us + 500] {
                    let at = SimTime::from_micros(probe_us);
                    prop_assert_eq!(faults.next_quiescent_at_or_after(at), Some(at));
                    for node in 0..6 {
                        prop_assert_eq!(faults.state_at(node, at), ProcessState::Up);
                        prop_assert!(faults.delivers(node, LinkDirection::Request, at));
                        prop_assert!(faults.delivers(node, LinkDirection::Response, at));
                    }
                }
            }
        }
    }
}
