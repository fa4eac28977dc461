//! The network model — per-link loss, delay overrides and the fault
//! schedule — that the workload engine prices probe sessions against.
//!
//! [`NetworkModel`] + [`FaultSchedule`] + [`ProbePolicy`] form the model: a
//! probe is a request/response pair, either leg can be lost (`loss_ppm`) or
//! blocked by a timed message-level fault window, the node itself can be
//! crashed, stalled or slow, and a dropped message simply never arrives —
//! the *client* decides how long to wait, how often to retry, and when to
//! hedge. The model's [`NetworkModel::probe_fate`] decides each element's
//! observable outcome; the workload engine (see [`crate::workload`]) prices
//! the attempts in virtual time.

use quorum_probe::session::{AttemptLoss, ProbeFate};
use rand::RngCore;

use crate::chaos::{FaultSchedule, ProcessState};
use crate::workload::{parts_per_million, Distribution};
use crate::{NodeId, SimTime};

/// Which leg of a probe RPC a message travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDirection {
    /// Client → node.
    Request,
    /// Node → client.
    Response,
}

/// The network model: one-way delay, per-message loss and the fault
/// schedule.
///
/// A probe is two messages. Each leg independently: (1) checks the
/// schedule's message-level windows — a blocked message is dropped
/// deterministically; (2) flips the loss coin — `loss_ppm` parts per
/// million. A dropped message never arrives; the client's [`ProbePolicy`]
/// turns silence into timeouts, retries and hedges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkModel {
    /// One-way delay of each delivered message; `None` uses the workload's
    /// configured RPC latency (keeping the clean model bit-identical to the
    /// latency-only engine).
    pub delay: Option<Distribution>,
    /// Probability (in parts per million) that any single message is lost.
    pub loss_ppm: u32,
    /// Timed faults: partitions and asymmetric links, crashes, stalls and
    /// slow nodes.
    pub faults: FaultSchedule,
}

impl NetworkModel {
    /// A perfect network: no loss, no faults, workload-configured delay.
    /// Under this model the message-level engine reproduces the latency-only
    /// engine bit for bit.
    pub fn clean() -> Self {
        NetworkModel {
            delay: None,
            loss_ppm: 0,
            faults: FaultSchedule::none(),
        }
    }

    /// Sets the fault schedule of this model.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// A lossy network without fault windows.
    pub fn lossy(loss_ppm: u32) -> Self {
        NetworkModel {
            loss_ppm,
            ..NetworkModel::clean()
        }
    }

    /// Whether the model is fault-free (no loss, no fault window, no delay
    /// override).
    pub fn is_clean(&self) -> bool {
        self.delay.is_none() && self.loss_ppm == 0 && self.faults.is_empty()
    }

    /// Flips the loss coin for one message leg. Draws nothing when the model
    /// is lossless, so a clean network consumes no randomness.
    fn loses<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        self.loss_ppm > 0 && parts_per_million(rng) < self.loss_ppm
    }

    /// Decides how probing `node` at `now` under `policy` turns out: which
    /// attempts fail on which leg, and the color the client records.
    ///
    /// Fault windows are evaluated at the session's arrival instant `now` — a
    /// session is short relative to fault timescales, so a fault flaps
    /// *across* sessions, not within one. Loss coins are drawn lazily (none
    /// for dead, crashed or stalled nodes, none on a lossless network), which
    /// keeps the clean model's randomness stream untouched.
    ///
    /// The process state resolves before the message layer: a crashed node
    /// swallows every delivered request unserved ([`AttemptLoss::Crash`]); a
    /// stalled node serves every request too late to matter
    /// ([`AttemptLoss::Response`] on every attempt); a slow node times out
    /// the first attempt and then behaves normally, so retries recover.
    pub fn probe_fate<R: RngCore + ?Sized>(
        &self,
        node: NodeId,
        alive: bool,
        now: SimTime,
        policy: &ProbePolicy,
        rng: &mut R,
    ) -> ProbeFate {
        let attempts = policy.attempts.max(1);
        if !alive {
            return ProbeFate::dead(attempts);
        }
        let mut failures = Vec::new();
        match self.faults.state_at(node, now) {
            ProcessState::Crashed => return ProbeFate::crashed(attempts),
            ProcessState::Stalled => {
                return ProbeFate {
                    observed: quorum_core::Color::Red,
                    failures: vec![AttemptLoss::Response; attempts as usize],
                }
            }
            ProcessState::Slow => failures.push(AttemptLoss::Response),
            ProcessState::Up => {}
        }
        while (failures.len() as u32) < attempts {
            if !self.faults.delivers(node, LinkDirection::Request, now) || self.loses(rng) {
                failures.push(AttemptLoss::Request);
                continue;
            }
            if !self.faults.delivers(node, LinkDirection::Response, now) || self.loses(rng) {
                failures.push(AttemptLoss::Response);
                continue;
            }
            return ProbeFate {
                observed: quorum_core::Color::Green,
                failures,
            };
        }
        ProbeFate {
            observed: quorum_core::Color::Red,
            failures,
        }
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::clean()
    }
}

/// The client-side robustness policy of a probe session: how silence is
/// turned into observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePolicy {
    /// Attempts per element before it is recorded red (≥ 1; 1 = no retry).
    pub attempts: u32,
    /// Base backoff inserted after a failed attempt; failed attempt `k`
    /// (0-based) waits `backoff · 2^k` on top of its timeout, saturating and
    /// capped at [`ProbePolicy::BACKOFF_CAP`] — see
    /// [`ProbePolicy::backoff_before`].
    pub backoff: SimTime,
    /// When set, a probe that has not resolved after this delay launches the
    /// session's next candidate in parallel (first answer drives the session
    /// forward; the race's loser is recorded in the ledger).
    pub hedge: Option<SimTime>,
}

impl ProbePolicy {
    /// The oracle-flavoured policy of the latency-only engine: one attempt,
    /// no backoff, no hedging.
    pub fn sequential() -> Self {
        ProbePolicy {
            attempts: 1,
            backoff: SimTime::ZERO,
            hedge: None,
        }
    }

    /// Bounded retry with exponential backoff.
    pub fn retry(attempts: u32, backoff: SimTime) -> Self {
        ProbePolicy {
            attempts: attempts.max(1),
            backoff,
            hedge: None,
        }
    }

    /// Adds a hedging delay to this policy.
    pub fn with_hedge(mut self, delay: SimTime) -> Self {
        self.hedge = Some(delay);
        self
    }

    /// Hard ceiling on any single backoff wait: no retry ever sleeps longer
    /// than this, no matter how many doublings precede it. Chosen far above
    /// every shipped scenario's largest pre-cap wait, so existing numbers
    /// are unchanged.
    pub const BACKOFF_CAP: SimTime = SimTime::from_millis(100);

    /// Largest exponent applied to the base backoff before the cap; also
    /// guards the shift itself from overflowing.
    pub const MAX_BACKOFF_DOUBLINGS: u32 = 32;

    /// The wait inserted after failed attempt `attempt` (0-based):
    /// `backoff · 2^attempt`, saturating, clamped to
    /// [`ProbePolicy::BACKOFF_CAP`]. Monotone non-decreasing in `attempt`
    /// and zero whenever the base backoff is zero.
    pub fn backoff_before(&self, attempt: u32) -> SimTime {
        if self.backoff == SimTime::ZERO {
            return SimTime::ZERO;
        }
        let factor = 1u64 << attempt.min(Self::MAX_BACKOFF_DOUBLINGS);
        self.backoff.saturating_mul(factor).min(Self::BACKOFF_CAP)
    }

    /// Whether this is the plain sequential policy.
    pub fn is_sequential(&self) -> bool {
        *self == ProbePolicy::sequential()
    }

    /// A short label used in report rows, e.g. `"naive"` or `"r3/b300us+h2.000ms"`.
    pub fn label(&self) -> String {
        if self.is_sequential() {
            return "naive".into();
        }
        let mut out = format!("r{}", self.attempts);
        if self.backoff > SimTime::ZERO {
            out.push_str(&format!("/b{}", self.backoff));
        }
        if let Some(h) = self.hedge {
            out.push_str(&format!("+h{h}"));
        }
        out
    }
}

impl Default for ProbePolicy {
    fn default() -> Self {
        ProbePolicy::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Fault, FaultWindow};
    use crate::workload::WorkloadConfig;
    use quorum_core::Color;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn minority_window_blocks_both_directions_inside_only() {
        let schedule = FaultSchedule::window(
            Fault::Isolate,
            vec![0, 1],
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        );
        let inside = SimTime::from_millis(15);
        let before = SimTime::from_millis(9);
        let at_end = SimTime::from_millis(20);
        for direction in [LinkDirection::Request, LinkDirection::Response] {
            for node in [0, 1] {
                assert!(!schedule.delivers(node, direction, inside));
                assert!(
                    schedule.delivers(node, direction, before),
                    "window not open"
                );
                assert!(
                    schedule.delivers(node, direction, at_end),
                    "until is exclusive"
                );
            }
            for node in [2, 3] {
                assert!(schedule.delivers(node, direction, inside), "unlisted node");
            }
        }
    }

    #[test]
    fn asymmetric_windows_drop_only_responses() {
        let schedule = FaultSchedule::window(
            Fault::DropResponses,
            vec![3],
            SimTime::ZERO,
            SimTime::from_millis(5),
        );
        let t = SimTime::from_millis(1);
        assert!(schedule.delivers(3, LinkDirection::Request, t));
        assert!(!schedule.delivers(3, LinkDirection::Response, t));
        for node in [0, 1, 2, 4] {
            for direction in [LinkDirection::Request, LinkDirection::Response] {
                assert!(schedule.delivers(node, direction, t), "unlisted node");
            }
        }
    }

    #[test]
    fn flapping_alternates_and_heal_all_restores_connectivity() {
        let ms = SimTime::from_millis;
        // Windows [0, 4), [10, 14), [20, 24) and [30, 32): the last one is
        // cut at the horizon.
        let mut schedule = FaultSchedule::flapping(Fault::Isolate, vec![1], ms(10), ms(4), ms(32));
        assert_eq!(schedule.windows().len(), 4);
        assert_eq!(schedule.state_at(1, ms(2)), ProcessState::Up);
        assert!(!schedule.delivers(1, LinkDirection::Request, ms(2)));
        assert!(schedule.delivers(1, LinkDirection::Request, ms(6)));
        assert!(!schedule.delivers(1, LinkDirection::Request, ms(12)));
        assert!(!schedule.delivers(1, LinkDirection::Response, ms(31)));
        assert!(schedule.delivers(1, LinkDirection::Response, ms(32)));
        schedule.heal_all(ms(11));
        assert!(schedule.delivers(1, LinkDirection::Request, ms(12)));
        assert!(
            !schedule.delivers(1, LinkDirection::Request, ms(2)),
            "healing is not retroactive"
        );
    }

    #[test]
    #[should_panic(expected = "flapping horizon past WorkloadConfig::MAX_DURATION")]
    fn flapping_refuses_a_horizon_past_max_duration() {
        // Unchecked, `start += period` overflowed here (and wrapped forever
        // in release).
        let half = SimTime::from_micros(1 << 63);
        let until = SimTime::from_micros(u64::MAX);
        FaultSchedule::flapping(Fault::Isolate, vec![0], half, SimTime::ZERO, until);
    }

    #[test]
    #[should_panic(expected = "flapping needs more than FaultSchedule::MAX_FLAPPING_WINDOWS")]
    fn flapping_refuses_more_windows_than_the_cap() {
        // One window per microsecond for an hour: 3.6·10⁹ windows.
        let micro = SimTime::from_micros(1);
        let until = WorkloadConfig::MAX_DURATION;
        FaultSchedule::flapping(Fault::Stall, vec![0], micro, micro, until);
    }

    #[test]
    fn clean_model_draws_nothing_and_observes_the_truth() {
        let model = NetworkModel::clean();
        assert!(model.is_clean());
        let policy = ProbePolicy::sequential();
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.clone();
        let fate = model.probe_fate(0, true, SimTime::ZERO, &policy, &mut rng);
        assert_eq!(fate, ProbeFate::answered());
        let fate = model.probe_fate(1, false, SimTime::ZERO, &policy, &mut rng);
        assert_eq!(fate, ProbeFate::dead(1));
        // The RNG stream is untouched: clean networks stay bit-compatible.
        let mut replay = before.clone();
        let mut current = rng;
        assert_eq!(replay.next_u64(), current.next_u64());
    }

    #[test]
    fn total_loss_exhausts_every_attempt() {
        let model = NetworkModel::lossy(1_000_000);
        let policy = ProbePolicy::retry(3, SimTime::from_micros(100));
        let mut rng = StdRng::seed_from_u64(2);
        let fate = model.probe_fate(0, true, SimTime::ZERO, &policy, &mut rng);
        assert_eq!(fate.observed, Color::Red);
        assert_eq!(fate.failures, vec![AttemptLoss::Request; 3]);
    }

    #[test]
    fn retries_recover_from_partial_loss() {
        let model = NetworkModel::lossy(400_000); // 40 % per leg
        let single = ProbePolicy::sequential();
        let retrying = ProbePolicy::retry(4, SimTime::ZERO);
        let trials = 4_000;
        let mut rng = StdRng::seed_from_u64(3);
        let mut ok_single = 0usize;
        let mut ok_retry = 0usize;
        for _ in 0..trials {
            if model
                .probe_fate(0, true, SimTime::ZERO, &single, &mut rng)
                .observed
                == Color::Green
            {
                ok_single += 1;
            }
            if model
                .probe_fate(0, true, SimTime::ZERO, &retrying, &mut rng)
                .observed
                == Color::Green
            {
                ok_retry += 1;
            }
        }
        // Per-attempt success is 0.36; four attempts lift it to ~0.83.
        assert!(ok_single < ok_retry, "{ok_single} vs {ok_retry}");
        assert!((ok_retry as f64 / trials as f64) > 0.75);
        assert!((ok_single as f64 / trials as f64) < 0.45);
    }

    #[test]
    fn asymmetric_partitions_waste_the_response_leg() {
        let model = NetworkModel::clean().with_faults(FaultSchedule::window(
            Fault::DropResponses,
            vec![0],
            SimTime::ZERO,
            SimTime::from_millis(1),
        ));
        let policy = ProbePolicy::retry(2, SimTime::ZERO);
        let mut rng = StdRng::seed_from_u64(4);
        let fate = model.probe_fate(0, true, SimTime::ZERO, &policy, &mut rng);
        assert_eq!(fate.observed, Color::Red);
        assert_eq!(fate.failures, vec![AttemptLoss::Response; 2]);
        // After the window the same probe answers.
        let fate = model.probe_fate(0, true, SimTime::from_millis(2), &policy, &mut rng);
        assert_eq!(fate.observed, Color::Green);
    }

    #[test]
    fn quiescence_handles_boundaries_and_empty_schedules() {
        let ms = SimTime::from_millis;
        let quiet =
            |schedule: &FaultSchedule, at| schedule.next_quiescent_at_or_after(at) == Some(at);
        assert!(quiet(&FaultSchedule::none(), SimTime::ZERO));
        // A window whose start equals its end is inert.
        let degenerate = FaultSchedule::window(Fault::Isolate, vec![0], ms(5), ms(5));
        assert!(quiet(&degenerate, ms(5)));
        assert!(degenerate.delivers(0, LinkDirection::Request, ms(5)));
        // Adjacent windows [a, b) and [b, c): not quiescent at b — the second
        // window opens exactly as the first closes.
        let mut adjacent = FaultSchedule::window(Fault::Isolate, vec![0], ms(1), ms(2));
        adjacent.push(FaultWindow {
            from: ms(2),
            until: ms(3),
            nodes: vec![1],
            fault: Fault::DropRequests,
        });
        assert!(!quiet(&adjacent, ms(1)));
        assert!(!quiet(&adjacent, ms(2)));
        assert!(quiet(&adjacent, ms(3)));
        assert!(quiet(&adjacent, SimTime::from_micros(999)));
        assert_eq!(
            adjacent.next_quiescent_at_or_after(ms(1)),
            Some(ms(3)),
            "the first window's end is still inside the second window"
        );
        assert_eq!(adjacent.next_quiescent_at_or_after(ms(4)), Some(ms(4)));
        // Healing an empty schedule is a no-op that stays empty.
        let mut empty = FaultSchedule::none();
        empty.heal_all(ms(1));
        assert!(empty.is_empty());
    }

    #[test]
    fn crashed_nodes_swallow_requests_with_a_crash_fate() {
        let model = NetworkModel::clean().with_faults(FaultSchedule::window(
            Fault::Crash,
            vec![0],
            SimTime::ZERO,
            SimTime::from_millis(10),
        ));
        assert!(!model.is_clean());
        let policy = ProbePolicy::retry(3, SimTime::ZERO);
        let mut rng = StdRng::seed_from_u64(5);
        let fate = model.probe_fate(0, true, SimTime::from_millis(1), &policy, &mut rng);
        assert_eq!(fate.observed, Color::Red);
        assert_eq!(fate.failures, vec![AttemptLoss::Crash; 3]);
        // After the window the node answers again (the supervisor restarted it).
        let fate = model.probe_fate(0, true, SimTime::from_millis(10), &policy, &mut rng);
        assert_eq!(fate.observed, Color::Green);
        // Other nodes are untouched.
        let fate = model.probe_fate(1, true, SimTime::from_millis(1), &policy, &mut rng);
        assert_eq!(fate.observed, Color::Green);
    }

    #[test]
    fn stalled_nodes_serve_late_and_slow_nodes_recover_on_retry() {
        let stall = NetworkModel::clean().with_faults(FaultSchedule::window(
            Fault::Stall,
            vec![0],
            SimTime::ZERO,
            SimTime::from_millis(10),
        ));
        let policy = ProbePolicy::retry(2, SimTime::ZERO);
        let mut rng = StdRng::seed_from_u64(6);
        let fate = stall.probe_fate(0, true, SimTime::ZERO, &policy, &mut rng);
        assert_eq!(fate.observed, Color::Red);
        assert_eq!(fate.failures, vec![AttemptLoss::Response; 2]);

        let slow = NetworkModel::clean().with_faults(FaultSchedule::window(
            Fault::Slow,
            vec![0],
            SimTime::ZERO,
            SimTime::from_millis(10),
        ));
        let fate = slow.probe_fate(0, true, SimTime::ZERO, &policy, &mut rng);
        assert_eq!(fate.observed, Color::Green, "the retry gets through");
        assert_eq!(fate.failures, vec![AttemptLoss::Response]);
        let naive = ProbePolicy::sequential();
        let fate = slow.probe_fate(0, true, SimTime::ZERO, &naive, &mut rng);
        assert_eq!(fate.observed, Color::Red, "one attempt is not enough");
        assert_eq!(fate.failures, vec![AttemptLoss::Response]);
    }

    #[test]
    fn chaos_draws_no_randomness_for_disrupted_nodes() {
        let model = NetworkModel {
            loss_ppm: 500_000,
            faults: FaultSchedule::window(
                Fault::Crash,
                vec![0],
                SimTime::ZERO,
                SimTime::from_millis(1),
            ),
            ..NetworkModel::clean()
        };
        let policy = ProbePolicy::retry(3, SimTime::ZERO);
        let mut rng = StdRng::seed_from_u64(7);
        let before = rng.clone();
        let _ = model.probe_fate(0, true, SimTime::ZERO, &policy, &mut rng);
        let mut replay = before;
        assert_eq!(replay.next_u64(), rng.next_u64());
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let policy = ProbePolicy::retry(64, SimTime::from_micros(300));
        assert_eq!(policy.backoff_before(0), SimTime::from_micros(300));
        assert_eq!(policy.backoff_before(2), SimTime::from_micros(1_200));
        let mut previous = SimTime::ZERO;
        for attempt in 0..128 {
            let wait = policy.backoff_before(attempt);
            assert!(wait >= previous, "monotone at attempt {attempt}");
            assert!(wait <= ProbePolicy::BACKOFF_CAP);
            previous = wait;
        }
        assert_eq!(policy.backoff_before(127), ProbePolicy::BACKOFF_CAP);
        let zero = ProbePolicy::retry(8, SimTime::ZERO);
        assert_eq!(zero.backoff_before(60), SimTime::ZERO);
        // Even absurd bases saturate instead of overflowing.
        let huge = ProbePolicy::retry(8, SimTime::from_micros(u64::MAX));
        assert_eq!(huge.backoff_before(63), ProbePolicy::BACKOFF_CAP);
    }

    #[test]
    fn policy_labels_are_compact() {
        assert_eq!(ProbePolicy::sequential().label(), "naive");
        assert_eq!(
            ProbePolicy::retry(3, SimTime::from_micros(300)).label(),
            "r3/b300us"
        );
        assert_eq!(
            ProbePolicy::retry(2, SimTime::ZERO)
                .with_hedge(SimTime::from_millis(2))
                .label(),
            "r2+h2.000ms"
        );
    }
}
