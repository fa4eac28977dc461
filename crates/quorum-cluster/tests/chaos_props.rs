//! Property tests for the chaos engine: retry backoff stays monotone and
//! capped for any base, and both backends complete every session (never
//! hang, never lose accounting) under arbitrary [`FaultSchedule`] soups
//! that mix message-level and process-level windows.

use proptest::prelude::*;
use quorum_cluster::{
    ArrivalProcess, Backend, Distribution, Fault, FaultSchedule, FaultWindow, NetProbe,
    NetSessionPlan, NetworkModel, ProbePolicy, SimTime, SpecReport, WorkloadConfig, WorkloadSpec,
};
use quorum_probe::AttemptLoss;

const NODES: usize = 5;

/// Decodes one packed seed into a (possibly degenerate) fault window: start
/// and length up to ~4 ms, any subset of the 5 nodes (including the empty
/// set), any of the six fault kinds. Degenerate windows (`until == from`,
/// no nodes) are deliberately representable — they must be inert, not
/// crash the engine.
fn window_from_seed(seed: u64) -> FaultWindow {
    let from = seed & 0xFFF;
    let len = (seed >> 12) & 0xFFF;
    let nodes = (0..NODES).filter(|i| (seed >> (24 + i)) & 1 == 1).collect();
    let fault = match (seed >> 29) % 6 {
        0 => Fault::Crash,
        1 => Fault::Stall,
        2 => Fault::Slow,
        3 => Fault::Isolate,
        4 => Fault::DropRequests,
        _ => Fault::DropResponses,
    };
    FaultWindow {
        from: SimTime::from_micros(from),
        until: SimTime::from_micros(from + len),
        nodes,
        fault,
    }
}

/// Runs `sessions` quorum-seeking sessions over a soup of windows on
/// `backend`, each probing nodes in order through `probe_fate` until three
/// answer. Returns the report and the crash fates the plans scripted.
fn run_soup(
    window_seeds: Vec<u64>,
    sessions: usize,
    backend: Backend,
    seed: u64,
) -> (SpecReport, u64) {
    let soup =
        FaultSchedule::from_windows(window_seeds.into_iter().map(window_from_seed).collect());
    let network = NetworkModel::clean().with_faults(soup);
    let policy = ProbePolicy::retry(2, SimTime::from_micros(50));
    let spec = WorkloadSpec::new(NODES)
        .config(WorkloadConfig {
            arrival: ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(100),
            },
            sessions,
            rpc_latency: Distribution::fixed(SimTime::from_micros(80)),
            service: Distribution::fixed(SimTime::from_micros(60)),
            probe_timeout: SimTime::from_micros(500),
        })
        .network(network.clone())
        .policy(policy)
        .backend(backend);

    let mut scripted_crashes = 0u64;
    let outcome = spec.run(seed, |_index, _ledger, now, rng| {
        let mut probes = Vec::new();
        let mut greens = 0usize;
        for node in 0..NODES {
            let fate = network.probe_fate(node, true, now, &policy, rng);
            scripted_crashes += fate
                .failures
                .iter()
                .filter(|&&loss| loss == AttemptLoss::Crash)
                .count() as u64;
            let observed = fate.observed;
            probes.push(NetProbe {
                node,
                observed,
                failures: fate.failures,
            });
            if observed == quorum_core::Color::Green {
                greens += 1;
                if greens >= 3 {
                    break;
                }
            }
        }
        NetSessionPlan {
            probes,
            success: greens >= 3,
        }
    });
    (outcome, scripted_crashes)
}

proptest! {
    /// The per-attempt backoff is monotone non-decreasing in the
    /// attempt index, never exceeds the hard cap, and is identically zero
    /// when the base backoff is zero — for any base, including ones far past
    /// the cap and attempt counts far past the doubling limit.
    #[test]
    fn backoff_is_monotone_capped_and_zero_preserving(
        base_micros in 0u64..2_000_000,
        attempt in 0u32..200,
    ) {
        let policy = ProbePolicy::retry(3, SimTime::from_micros(base_micros));
        let here = policy.backoff_before(attempt);
        let next = policy.backoff_before(attempt + 1);
        prop_assert!(here <= next, "backoff must be monotone: {here:?} > {next:?}");
        prop_assert!(here <= ProbePolicy::BACKOFF_CAP);
        prop_assert!(next <= ProbePolicy::BACKOFF_CAP);
        if base_micros == 0 {
            prop_assert_eq!(here, SimTime::ZERO);
        } else {
            prop_assert_eq!(
                policy.backoff_before(0),
                SimTime::from_micros(base_micros).min(ProbePolicy::BACKOFF_CAP)
            );
        }
    }

    /// For ANY soup of fault windows (overlapping, degenerate,
    /// empty-node, all six kinds mixed) the sim engine completes every
    /// session — no hangs, no dropped sessions — and the crash ledger
    /// exactly matches the scripted crash fates.
    #[test]
    fn sessions_never_hang_under_arbitrary_chaos(
        window_seeds in proptest::collection::vec(0u64..u64::MAX, 0..6),
        seed in 0u64..1_000,
    ) {
        let (outcome, scripted_crashes) = run_soup(window_seeds, 48, Backend::Sim, seed);
        prop_assert_eq!(outcome.report.sessions, 48);
        prop_assert_eq!(outcome.report.lost_to_crash, scripted_crashes);
        prop_assert!(outcome.agrees());
    }
}

/// Eight fixed soups, each mixing message-level and process-level windows,
/// replayed on the live runtime: workers crash, stall and slow down, and
/// supervisors wait out partitions, on the schedule the fates were scripted
/// against, and every logical observable and the queue drain agree with the
/// simulation.
#[test]
fn mixed_soups_agree_on_the_live_runtime() {
    for soup in 0..8u64 {
        // Six windows per soup, one of each kind, every one on at least one
        // node; the 24 low bits (start and length) are hashed.
        let window_seeds: Vec<u64> = (0..6u64)
            .map(|k| {
                let mix = (soup * 6 + k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (mix & 0x00ff_ffff) | (((soup + k) % 31 + 1) << 24) | (((soup + k) % 6) << 29)
            })
            .collect();
        let (outcome, scripted_crashes) = run_soup(window_seeds, 24, Backend::Live, soup);
        let live = outcome.live.as_ref().expect("the live backend reports");
        assert!(
            outcome.agrees(),
            "soup {soup}: {:?}",
            outcome.agreement.as_ref().map(|a| &a.mismatches)
        );
        assert!(live.drained_clean(), "soup {soup}");
        assert_eq!(live.requests_lost_to_crash, scripted_crashes, "soup {soup}");
    }
}
