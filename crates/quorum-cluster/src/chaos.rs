//! Chaos schedules: timed process-level faults — crashes, stalls and slow
//! nodes — mirroring [`PartitionSchedule`](crate::PartitionSchedule)'s
//! ctor/query API.
//!
//! Partitions are *message*-level faults: the node is fine, the network is
//! not. A [`ChaosSchedule`] injects the complementary *process*-level faults:
//!
//! * [`ChaosKind::Crash`] — the node's worker dies. Requests already queued
//!   (and requests delivered into the window) are dropped unserved, which the
//!   client observes as [`AttemptLoss::Crash`](quorum_probe::AttemptLoss)
//!   timeouts. A supervisor restarts the worker after the window plus a
//!   restart delay (see [`SupervisorPolicy`](crate::SupervisorPolicy)).
//! * [`ChaosKind::Stall`] — the node accepts and eventually serves requests,
//!   but not before the client has given up: the work is done and wasted,
//!   like a response-leg partition but burning server time.
//! * [`ChaosKind::SlowNode`] — degraded service: the first attempt times
//!   out, retries (and patient policies) still get through. Retry and
//!   health-aware policies visibly beat naive ones here.
//!
//! Both the discrete-event engine and the live thread-per-node runtime
//! execute the same schedule, so `WorkloadSpec` cross-validation extends to
//! crash scenarios unchanged.

use crate::network::flapping_spans;
use crate::{NodeId, SimTime, WorkloadConfig};

/// What a chaos window does to its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// The node process dies: queued and newly delivered requests are
    /// dropped unserved until the supervisor restarts it.
    Crash,
    /// The node freezes, then serves its backlog late: every attempt in the
    /// window times out after the node has (eventually) done the work.
    Stall,
    /// The node is degraded: the first attempt of each probe times out,
    /// later attempts behave normally.
    SlowNode,
}

/// One timed chaos window over a set of nodes, active for `from <= t < until`
/// (the same half-open semantics as partition windows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosWindow {
    /// First instant the window is active.
    pub from: SimTime,
    /// First instant after the window (exclusive).
    pub until: SimTime,
    /// The nodes disrupted by this window.
    pub nodes: Vec<NodeId>,
    /// The fault injected.
    pub kind: ChaosKind,
}

impl ChaosWindow {
    fn covers(&self, node: NodeId, at: SimTime) -> bool {
        at >= self.from && at < self.until && self.nodes.contains(&node)
    }

    fn is_inert(&self) -> bool {
        self.from >= self.until || self.nodes.is_empty()
    }
}

/// The process state a chaos schedule assigns a node at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosState {
    /// No window covers the node: normal service.
    Up,
    /// A crash window covers the node.
    Crashed,
    /// A stall window covers the node.
    Stalled,
    /// A slow-node window covers the node.
    Slow,
}

/// A timed schedule of chaos windows.
///
/// Overlapping windows resolve by severity: `Crash` beats `Stall` beats
/// `SlowNode`. [`ChaosSchedule::heal_all`] clamps every window, restoring
/// normal service from a given instant, mirroring
/// [`PartitionSchedule::heal_all`](crate::PartitionSchedule::heal_all).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosSchedule {
    windows: Vec<ChaosWindow>,
}

impl ChaosSchedule {
    /// A schedule with no chaos: every node is always up.
    pub fn none() -> Self {
        ChaosSchedule::default()
    }

    /// A schedule made of explicit windows.
    pub fn from_windows(windows: Vec<ChaosWindow>) -> Self {
        ChaosSchedule { windows }
    }

    /// One crash window: `nodes` are dead during `[from, until)`.
    pub fn crash(nodes: Vec<NodeId>, from: SimTime, until: SimTime) -> Self {
        ChaosSchedule {
            windows: vec![ChaosWindow {
                from,
                until,
                nodes,
                kind: ChaosKind::Crash,
            }],
        }
    }

    /// One stall window: `nodes` freeze (and serve late) during `[from, until)`.
    pub fn stall(nodes: Vec<NodeId>, from: SimTime, until: SimTime) -> Self {
        ChaosSchedule {
            windows: vec![ChaosWindow {
                from,
                until,
                nodes,
                kind: ChaosKind::Stall,
            }],
        }
    }

    /// One slow-node window: `nodes` are degraded during `[from, until)`.
    pub fn slow(nodes: Vec<NodeId>, from: SimTime, until: SimTime) -> Self {
        ChaosSchedule {
            windows: vec![ChaosWindow {
                from,
                until,
                nodes,
                kind: ChaosKind::SlowNode,
            }],
        }
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
                ChaosWindow {
                    from,
                    until: from + down,
                    nodes: vec![node],
                    kind: ChaosKind::Crash,
                }
            })
            .collect();
        ChaosSchedule { windows }
    }

    /// A flapping stall: `nodes` stall for the first `down` of every
    /// `period`, repeatedly, until `until` — the chaos analogue of
    /// [`PartitionSchedule::flapping`](crate::PartitionSchedule::flapping).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, `down > period`, `until` is past
    /// [`WorkloadConfig::MAX_DURATION`], or the schedule needs more than
    /// [`PartitionSchedule::MAX_FLAPPING_WINDOWS`](crate::PartitionSchedule::MAX_FLAPPING_WINDOWS)
    /// windows.
    pub fn stall_flapping(
        nodes: Vec<NodeId>,
        period: SimTime,
        down: SimTime,
        until: SimTime,
    ) -> Self {
        let windows = flapping_spans(period, down, until)
            .map(|(from, until)| ChaosWindow {
                from,
                until,
                nodes: nodes.clone(),
                kind: ChaosKind::Stall,
            })
            .collect();
        ChaosSchedule { windows }
    }

    /// The windows of the schedule.
    pub fn windows(&self) -> &[ChaosWindow] {
        &self.windows
    }

    /// Adds one window.
    pub fn push(&mut self, window: ChaosWindow) {
        self.windows.push(window);
    }

    /// Whether the schedule never disrupts anything.
    pub fn is_empty(&self) -> bool {
        self.windows.iter().all(ChaosWindow::is_inert)
    }

    /// The state of `node` at `at`, most severe window winning.
    pub fn state_at(&self, node: NodeId, at: SimTime) -> ChaosState {
        if self.windows.is_empty() {
            return ChaosState::Up;
        }
        let mut state = ChaosState::Up;
        for window in &self.windows {
            if !window.covers(node, at) {
                continue;
            }
            state = match (state, window.kind) {
                (_, ChaosKind::Crash) => return ChaosState::Crashed,
                (ChaosState::Up, ChaosKind::Stall) | (ChaosState::Slow, ChaosKind::Stall) => {
                    ChaosState::Stalled
                }
                (ChaosState::Up, ChaosKind::SlowNode) => ChaosState::Slow,
                (kept, _) => kept,
            };
        }
        state
    }

    /// Whether a crash window covers `node` at `at`.
    pub fn crashed_at(&self, node: NodeId, at: SimTime) -> bool {
        self.state_at(node, at) == ChaosState::Crashed
    }

    /// Whether no window disrupts any node at `at` — the supervisor's
    /// restart gate (restarting into an open crash window would just crash
    /// again).
    pub fn is_quiescent_at(&self, at: SimTime) -> bool {
        if self.windows.is_empty() {
            return true;
        }
        !self
            .windows
            .iter()
            .any(|w| !w.is_inert() && at >= w.from && at < w.until)
    }

    /// The end of the disruption covering `node` at `at`, if any: the
    /// largest `until` among covering windows — when a stalled node can
    /// serve again, or the earliest instant a crashed one is worth
    /// restarting.
    pub fn disruption_end_at(&self, node: NodeId, at: SimTime) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| w.covers(node, at))
            .map(|w| w.until)
            .max()
    }

    /// The end of the last disruption covering `node`, if any: the instant
    /// recovery can begin, used by recovery-time metrics.
    pub fn last_disruption_end(&self, node: NodeId) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| !w.is_inert() && w.nodes.contains(&node))
            .map(|w| w.until)
            .max()
    }

    /// The end of the last window of the whole schedule, if any.
    pub fn horizon(&self) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| !w.is_inert())
            .map(|w| w.until)
            .max()
    }

    /// Heals every window from `at` onward: windows ending later are clamped
    /// to `at`, so every node is up from `at` on.
    pub fn heal_all(&mut self, at: SimTime) {
        if self.windows.is_empty() {
            return;
        }
        for window in &mut self.windows {
            window.until = window.until.min(at);
        }
        self.windows.retain(|w| w.from < w.until);
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
        let chaos = ChaosSchedule::crash(vec![0, 2], ms(10), ms(20));
        assert_eq!(chaos.state_at(0, ms(9)), ChaosState::Up);
        assert_eq!(chaos.state_at(0, ms(10)), ChaosState::Crashed);
        assert_eq!(chaos.state_at(0, ms(19)), ChaosState::Crashed);
        assert_eq!(chaos.state_at(0, ms(20)), ChaosState::Up, "until exclusive");
        assert_eq!(chaos.state_at(1, ms(15)), ChaosState::Up, "unlisted node");
        assert!(chaos.crashed_at(2, ms(15)));
        assert!(!chaos.is_quiescent_at(ms(15)));
        assert!(chaos.is_quiescent_at(ms(20)));
    }

    #[test]
    fn severity_resolves_overlaps() {
        let mut chaos = ChaosSchedule::slow(vec![0], ms(0), ms(30));
        chaos.push(ChaosWindow {
            from: ms(10),
            until: ms(20),
            nodes: vec![0],
            kind: ChaosKind::Stall,
        });
        chaos.push(ChaosWindow {
            from: ms(14),
            until: ms(16),
            nodes: vec![0],
            kind: ChaosKind::Crash,
        });
        assert_eq!(chaos.state_at(0, ms(5)), ChaosState::Slow);
        assert_eq!(chaos.state_at(0, ms(12)), ChaosState::Stalled);
        assert_eq!(chaos.state_at(0, ms(15)), ChaosState::Crashed);
        assert_eq!(chaos.state_at(0, ms(25)), ChaosState::Slow);
    }

    #[test]
    fn rolling_restart_staggers_one_node_at_a_time() {
        let chaos = ChaosSchedule::rolling_restart(vec![3, 1, 4], ms(5), ms(10), ms(8));
        assert_eq!(chaos.windows().len(), 3);
        assert!(chaos.crashed_at(3, ms(6)));
        assert!(!chaos.crashed_at(1, ms(6)));
        assert!(chaos.crashed_at(1, ms(16)));
        assert!(!chaos.crashed_at(3, ms(16)), "node 3 already restarted");
        assert!(chaos.crashed_at(4, ms(26)));
        assert_eq!(chaos.last_disruption_end(1), Some(ms(23)));
        assert_eq!(chaos.horizon(), Some(ms(33)));
        assert_eq!(chaos.last_disruption_end(0), None);
    }

    #[test]
    fn stall_flapping_mirrors_partition_flapping() {
        let chaos = ChaosSchedule::stall_flapping(vec![1], ms(10), ms(4), ms(35));
        assert_eq!(chaos.windows().len(), 4);
        assert_eq!(chaos.state_at(1, ms(2)), ChaosState::Stalled);
        assert_eq!(chaos.state_at(1, ms(6)), ChaosState::Up);
        assert_eq!(chaos.state_at(1, ms(12)), ChaosState::Stalled);
    }

    #[test]
    #[should_panic(expected = "rolling restart ends past WorkloadConfig::MAX_DURATION")]
    fn rolling_restart_refuses_an_overflowing_stagger() {
        // Unchecked, release wrapped node 1's window to 0–10 µs.
        let micros = SimTime::from_micros;
        ChaosSchedule::rolling_restart(vec![0, 1], micros(u64::MAX), micros(1), micros(10));
    }

    #[test]
    #[should_panic(expected = "rolling restart ends past WorkloadConfig::MAX_DURATION")]
    fn rolling_restart_refuses_a_window_past_max_duration() {
        let max = WorkloadConfig::MAX_DURATION;
        ChaosSchedule::rolling_restart(vec![0], max, ms(1), SimTime::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "flapping horizon past WorkloadConfig::MAX_DURATION")]
    fn stall_flapping_refuses_a_horizon_past_max_duration() {
        let half = SimTime::from_micros(1 << 63);
        ChaosSchedule::stall_flapping(vec![0], half, SimTime::ZERO, SimTime::from_micros(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "flapping needs more than PartitionSchedule::MAX_FLAPPING_WINDOWS")]
    fn stall_flapping_refuses_more_windows_than_the_cap() {
        let micro = SimTime::from_micros(1);
        ChaosSchedule::stall_flapping(vec![0], micro, micro, WorkloadConfig::MAX_DURATION);
    }

    #[test]
    fn inert_windows_do_not_disturb_quiescence() {
        let mut chaos = ChaosSchedule::crash(vec![], ms(0), ms(100));
        chaos.push(ChaosWindow {
            from: ms(50),
            until: ms(50),
            nodes: vec![0],
            kind: ChaosKind::Crash,
        });
        assert!(chaos.is_empty());
        assert!(chaos.is_quiescent_at(ms(50)));
        assert_eq!(chaos.state_at(0, ms(50)), ChaosState::Up);
    }

    #[test]
    fn heal_all_clamps_and_is_not_retroactive() {
        let mut chaos = ChaosSchedule::crash(vec![0], ms(10), ms(40));
        chaos.heal_all(ms(20));
        assert!(chaos.crashed_at(0, ms(15)));
        assert!(!chaos.crashed_at(0, ms(25)));
        let mut empty = ChaosSchedule::none();
        empty.heal_all(ms(5));
        assert!(empty.is_empty());
    }

    mod heal_all_parity {
        use super::*;
        use crate::network::{LinkDirection, PartitionKind, PartitionSchedule, PartitionWindow};
        use proptest::prelude::*;

        /// The shape shared by both window kinds: `(from, until, nodes)` in
        /// microseconds over a 6-node universe. `until` may precede `from`
        /// (inert window) and node sets may be empty — `heal_all` must cope.
        fn windows() -> impl Strategy<Value = Vec<(u64, u64, Vec<NodeId>)>> {
            prop::collection::vec(
                (
                    0u64..2_000,
                    0u64..2_000,
                    prop::collection::vec(0usize..6, 0..4),
                ),
                0..8,
            )
        }

        proptest! {
            /// Pins the shared `heal_all` semantics: given the *same*
            /// windows, both schedules clamp to the same instants, drop
            /// exactly the same fully-clamped windows (zero-length windows
            /// are removed, not kept inert), and are fully quiet from the
            /// heal instant onward.
            #[test]
            fn chaos_and_partition_schedules_heal_identically(
                shapes in windows(),
                heal_us in 0u64..2_500,
            ) {
                let heal = SimTime::from_micros(heal_us);
                let mut chaos = ChaosSchedule::from_windows(
                    shapes
                        .iter()
                        .map(|(from, until, nodes)| ChaosWindow {
                            from: SimTime::from_micros(*from),
                            until: SimTime::from_micros(*until),
                            nodes: nodes.clone(),
                            kind: ChaosKind::Crash,
                        })
                        .collect(),
                );
                let mut partitions = PartitionSchedule::from_windows(
                    shapes
                        .iter()
                        .map(|(from, until, nodes)| PartitionWindow {
                            from: SimTime::from_micros(*from),
                            until: SimTime::from_micros(*until),
                            nodes: nodes.clone(),
                            kind: PartitionKind::Isolate,
                        })
                        .collect(),
                );
                chaos.heal_all(heal);
                partitions.heal_all(heal);

                // Parity: both keep the same windows with the same clamps.
                prop_assert_eq!(chaos.windows().len(), partitions.windows().len());
                for (c, p) in chaos.windows().iter().zip(partitions.windows()) {
                    prop_assert_eq!(c.from, p.from);
                    prop_assert_eq!(c.until, p.until);
                    prop_assert_eq!(&c.nodes, &p.nodes);
                    // Fully-clamped (zero-length) windows are dropped, and
                    // nothing survives past the heal instant.
                    prop_assert!(c.from < c.until);
                    prop_assert!(c.until <= heal);
                }

                // Behavioural half of the contract: quiet from `heal` on.
                for probe_us in [heal_us, heal_us + 1, heal_us + 500] {
                    let at = SimTime::from_micros(probe_us);
                    prop_assert!(chaos.is_quiescent_at(at));
                    prop_assert!(partitions.is_quiescent_at(at));
                    for node in 0..6 {
                        prop_assert_eq!(chaos.state_at(node, at), ChaosState::Up);
                        prop_assert!(partitions.delivers(node, LinkDirection::Request, at));
                        prop_assert!(partitions.delivers(node, LinkDirection::Response, at));
                    }
                }
            }
        }
    }
}
