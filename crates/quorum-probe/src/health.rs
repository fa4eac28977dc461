//! Per-node health tracking and circuit breaking for probe sessions.
//!
//! Under chaos (crashes, stalls, restarts — see `quorum-cluster`'s
//! `FaultSchedule`) a naive client keeps timing out against the same sick
//! node, paying the full retry ladder on every session. This module supplies
//! the client-side defence:
//!
//! * [`HealthView`] keeps a per-node EWMA of probe failures behind a
//!   circuit breaker (Closed → Open → HalfOpen). Like
//!   [`LoadView`](crate::strategies::LoadView) it is a cheaply clonable
//!   handle over shared atomics, so every session of a workload cell can
//!   feed and consult the same view.
//! * [`HealthView::gate_fate`] wraps any per-element fate closure: probes to
//!   open nodes are *shed* ([`ProbeFate::shed`] — observed red at zero cost)
//!   and outcomes of real probes are recorded, so sessions route around sick
//!   nodes and the breaker heals through half-open probation probes.
//! * [`HealthView::quorum_reachable`] asks whether the currently healthy
//!   nodes can still host a quorum at all; when they cannot, a session can
//!   degrade gracefully ([`GatedOutcome::Degraded`]) instead of timing out
//!   every probe.
//!
//! Time is expressed as plain `u64` microseconds of virtual time (the same
//! unit as `quorum-cluster`'s `SimTime`, on which this crate cannot depend).
//! All state transitions happen in [`HealthView::record`] / on read, with no
//! interior randomness: driven sequentially, the view is fully deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use quorum_core::{Color, ElementId, ElementSet, QuorumSystem};

use crate::session::ProbeFate;

/// Parts per million: the fixed-point scale for EWMA weights and values.
pub const PPM: u64 = 1_000_000;

/// Tuning knobs for a [`HealthView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// EWMA weight of the newest sample, in parts per million. Larger means
    /// faster reaction to failures *and* faster forgiveness.
    pub alpha_ppm: u64,
    /// Failure EWMA (ppm) at or above which a failing node's breaker opens.
    pub open_threshold_ppm: u64,
    /// How long an open breaker stays open before allowing a half-open
    /// probation probe, in microseconds of virtual time.
    pub cooldown_micros: u64,
}

impl Default for HealthConfig {
    /// React after roughly two consecutive failures, forgive after one
    /// probation success, and retry a sick node every 5 virtual milliseconds.
    fn default() -> Self {
        HealthConfig {
            alpha_ppm: 400_000,
            open_threshold_ppm: 600_000,
            cooldown_micros: 5_000,
        }
    }
}

impl HealthConfig {
    /// Sets the cooldown, in microseconds of virtual time.
    pub fn cooldown_micros(mut self, micros: u64) -> Self {
        self.cooldown_micros = micros;
        self
    }
}

/// The classic circuit-breaker states, per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: probes flow normally.
    Closed,
    /// Sick: probes are shed without being sent.
    Open,
    /// Cooldown elapsed: the next probe is a probation probe whose outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

const STATE_CLOSED: u64 = 0;
const STATE_OPEN: u64 = 1;
const STATE_HALF_OPEN: u64 = 2;

struct NodeHealth {
    /// Failure EWMA in ppm (0 = always answers, `PPM` = always fails).
    ewma_ppm: AtomicU64,
    /// One of the `STATE_*` constants.
    state: AtomicU64,
    /// Virtual instant (micros) at which the breaker last opened.
    opened_at: AtomicU64,
}

/// A shared, cheaply clonable view of per-node health.
///
/// Out-of-range elements read as permanently [`BreakerState::Closed`] and
/// ignore writes, mirroring [`LoadView`](crate::strategies::LoadView).
#[derive(Clone)]
pub struct HealthView {
    nodes: Arc<Vec<NodeHealth>>,
    config: HealthConfig,
}

impl std::fmt::Debug for HealthView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthView")
            .field("nodes", &self.nodes.len())
            .field("config", &self.config)
            .finish()
    }
}

impl HealthView {
    /// A fresh all-healthy view over `n` nodes.
    pub fn new(n: usize, config: HealthConfig) -> Self {
        let nodes = (0..n)
            .map(|_| NodeHealth {
                ewma_ppm: AtomicU64::new(0),
                state: AtomicU64::new(STATE_CLOSED),
                opened_at: AtomicU64::new(0),
            })
            .collect();
        HealthView {
            nodes: Arc::new(nodes),
            config,
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the view tracks zero nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The configuration this view was built with.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// The failure EWMA of `e` in ppm (0 for out-of-range elements).
    pub fn failure_ppm(&self, e: ElementId) -> u64 {
        self.nodes
            .get(e)
            .map_or(0, |node| node.ewma_ppm.load(Ordering::Relaxed))
    }

    /// The breaker state of `e` at virtual instant `now_micros`.
    ///
    /// An open breaker whose cooldown has elapsed reads as
    /// [`BreakerState::HalfOpen`]; the stored state flips lazily on the next
    /// [`record`](HealthView::record).
    pub fn state(&self, e: ElementId, now_micros: u64) -> BreakerState {
        let Some(node) = self.nodes.get(e) else {
            return BreakerState::Closed;
        };
        match node.state.load(Ordering::Relaxed) {
            STATE_OPEN => {
                let opened = node.opened_at.load(Ordering::Relaxed);
                if now_micros >= opened.saturating_add(self.config.cooldown_micros) {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            STATE_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Whether probes to `e` should be shed at `now_micros`.
    pub fn is_open(&self, e: ElementId, now_micros: u64) -> bool {
        self.state(e, now_micros) == BreakerState::Open
    }

    /// Records the outcome of a real probe to `e` at `now_micros` and runs
    /// the breaker transitions: Closed opens when a failure pushes the EWMA
    /// to the threshold; HalfOpen closes on probation success and re-opens
    /// on probation failure. Out-of-range elements are ignored.
    pub fn record(&self, e: ElementId, ok: bool, now_micros: u64) {
        let Some(node) = self.nodes.get(e) else {
            return;
        };
        let alpha = self.config.alpha_ppm.min(PPM);
        let prev = node.ewma_ppm.load(Ordering::Relaxed);
        let sample = if ok { 0 } else { PPM };
        let next = (prev * (PPM - alpha) + sample * alpha) / PPM;
        node.ewma_ppm.store(next, Ordering::Relaxed);
        match self.state(e, now_micros) {
            BreakerState::Closed => {
                if !ok && next >= self.config.open_threshold_ppm {
                    node.state.store(STATE_OPEN, Ordering::Relaxed);
                    node.opened_at.store(now_micros, Ordering::Relaxed);
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    node.state.store(STATE_CLOSED, Ordering::Relaxed);
                } else {
                    node.state.store(STATE_OPEN, Ordering::Relaxed);
                    node.opened_at.store(now_micros, Ordering::Relaxed);
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Gates one element's fate: open breakers shed ([`ProbeFate::shed`]),
    /// everything else runs `underlying` and records whether the element
    /// answered. The closure runs at most once.
    pub fn gate_fate<F>(&self, e: ElementId, now_micros: u64, underlying: F) -> ProbeFate
    where
        F: FnOnce() -> ProbeFate,
    {
        if self.is_open(e, now_micros) {
            return ProbeFate::shed();
        }
        let fate = underlying();
        self.record(e, fate.observed == Color::Green, now_micros);
        fate
    }

    /// The set of nodes whose breaker is not open at `now_micros`.
    pub fn healthy_set(&self, now_micros: u64) -> ElementSet {
        ElementSet::from_iter(
            self.nodes.len(),
            (0..self.nodes.len()).filter(|&e| !self.is_open(e, now_micros)),
        )
    }

    /// Whether the healthy nodes can still host a quorum of `system` at
    /// `now_micros`. When false, a session cannot succeed even if every
    /// remaining probe answers — degrade instead of probing.
    pub fn quorum_reachable<S>(&self, system: &S, now_micros: u64) -> bool
    where
        S: QuorumSystem + ?Sized,
    {
        system.contains_quorum(&self.healthy_set(now_micros))
    }

    /// Resets every node to healthy.
    pub fn clear(&self) {
        for node in self.nodes.iter() {
            node.ewma_ppm.store(0, Ordering::Relaxed);
            node.state.store(STATE_CLOSED, Ordering::Relaxed);
            node.opened_at.store(0, Ordering::Relaxed);
        }
    }
}

/// How a health-gated session ends, one level above plain ok/fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatedOutcome {
    /// A green quorum was assembled.
    Served,
    /// The witness is red and every probed element was genuinely attempted.
    Failed,
    /// The session was shed in whole or in part: either no healthy quorum
    /// was reachable (zero probes sent) or at least one probe was declined
    /// by an open breaker.
    Degraded,
}

impl GatedOutcome {
    /// Classifies a finished session from its success flag and probe fates.
    /// A session that sent zero probes and failed is degraded by definition.
    pub fn classify<'a, I>(ok: bool, fates: I) -> Self
    where
        I: IntoIterator<Item = &'a ProbeFate>,
    {
        if ok {
            return GatedOutcome::Served;
        }
        let mut any = false;
        let mut shed = false;
        for fate in fates {
            any = true;
            shed |= fate.is_shed();
        }
        if shed || !any {
            GatedOutcome::Degraded
        } else {
            GatedOutcome::Failed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_systems::Majority;

    fn config() -> HealthConfig {
        HealthConfig::default()
    }

    #[test]
    fn failures_open_the_breaker_and_cooldown_half_opens_it() {
        let view = HealthView::new(3, config());
        assert_eq!(view.state(0, 0), BreakerState::Closed);
        view.record(0, false, 100);
        assert_eq!(view.state(0, 100), BreakerState::Closed, "one failure");
        view.record(0, false, 200);
        assert_eq!(view.state(0, 200), BreakerState::Open, "two failures");
        assert!(view.is_open(0, 200));
        let half_open_at = 200 + config().cooldown_micros;
        assert_eq!(view.state(0, half_open_at - 1), BreakerState::Open);
        assert_eq!(view.state(0, half_open_at), BreakerState::HalfOpen);
        // Probation success closes, and the EWMA decays below threshold so
        // the node is trusted again.
        view.record(0, true, half_open_at);
        assert_eq!(view.state(0, half_open_at), BreakerState::Closed);
    }

    #[test]
    fn probation_failure_reopens_with_a_fresh_cooldown() {
        let view = HealthView::new(1, config());
        view.record(0, false, 0);
        view.record(0, false, 0);
        let t = config().cooldown_micros;
        assert_eq!(view.state(0, t), BreakerState::HalfOpen);
        view.record(0, false, t);
        assert_eq!(view.state(0, t), BreakerState::Open);
        assert_eq!(
            view.state(0, t + config().cooldown_micros - 1),
            BreakerState::Open
        );
        assert_eq!(
            view.state(0, t + config().cooldown_micros),
            BreakerState::HalfOpen
        );
    }

    #[test]
    fn successes_keep_the_breaker_closed() {
        let view = HealthView::new(2, config());
        for t in 0..50 {
            view.record(1, true, t);
        }
        assert_eq!(view.state(1, 50), BreakerState::Closed);
        assert_eq!(view.failure_ppm(1), 0);
        // A lone failure among successes does not open.
        view.record(1, false, 51);
        view.record(1, true, 52);
        assert_eq!(view.state(1, 52), BreakerState::Closed);
    }

    #[test]
    fn gate_fate_sheds_open_nodes_and_records_real_probes() {
        let view = HealthView::new(2, config());
        view.record(0, false, 0);
        view.record(0, false, 0);
        let fate = view.gate_fate(0, 1, || panic!("open nodes must not probe"));
        assert!(fate.is_shed());
        assert_eq!(fate.attempts(), 0);
        let fate = view.gate_fate(1, 1, ProbeFate::answered);
        assert_eq!(fate, ProbeFate::answered());
        assert_eq!(view.failure_ppm(1), 0);
    }

    #[test]
    fn quorum_reachability_tracks_open_breakers() {
        let maj = Majority::new(3).unwrap();
        let view = HealthView::new(3, config());
        assert!(view.quorum_reachable(&maj, 0));
        for e in 0..2 {
            view.record(e, false, 0);
            view.record(e, false, 0);
        }
        assert_eq!(view.healthy_set(0).len(), 1);
        assert!(
            !view.quorum_reachable(&maj, 0),
            "1 of 3 cannot host a majority"
        );
        // After cooldown the half-open nodes count as reachable again.
        assert!(view.quorum_reachable(&maj, config().cooldown_micros));
    }

    #[test]
    fn out_of_range_elements_are_inert() {
        let view = HealthView::new(1, config());
        view.record(7, false, 0);
        assert_eq!(view.state(7, 0), BreakerState::Closed);
        assert_eq!(view.failure_ppm(7), 0);
    }

    #[test]
    fn outcomes_classify_shed_and_empty_sessions_as_degraded() {
        let served = [ProbeFate::answered()];
        assert_eq!(GatedOutcome::classify(true, &served), GatedOutcome::Served);
        let failed = [ProbeFate::dead(2)];
        assert_eq!(GatedOutcome::classify(false, &failed), GatedOutcome::Failed);
        let mixed = [ProbeFate::dead(1), ProbeFate::shed()];
        assert_eq!(
            GatedOutcome::classify(false, &mixed),
            GatedOutcome::Degraded
        );
        assert_eq!(GatedOutcome::classify(false, &[]), GatedOutcome::Degraded);
    }
}
