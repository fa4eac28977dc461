//! End-to-end tests of the live runtime behind the unified `WorkloadSpec`
//! API: sim-vs-live observable agreement across the network scenario
//! battery, admission control shedding load under overload, and graceful
//! shutdown draining every node queue.

use probequorum::cluster::spec::TracedSession;
use probequorum::prelude::*;
use rand::rngs::StdRng;

/// A live configuration fast enough for CI: time compressed 500×, no
/// admission limit (cross-validation needs every session to run).
fn fast_live() -> LiveOptions {
    LiveOptions::default().time_scale(0.002)
}

fn tree_cell(sessions: usize, scenario: &NetScenario) -> WorkloadCell {
    WorkloadCell::new(
        erase_system(TreeQuorum::new(3).unwrap()),
        WorkloadStrategy::Paper(typed_strategy::<TreeQuorum, _>(ProbeTree::new())),
        ColoringSource::iid(0.15),
        "open-poisson",
        open_poisson_workload(sessions, SimTime::from_micros(250)),
    )
    .with_scenario(scenario)
}

/// The tentpole cross-validation: one trace replayed through the simulator
/// and the live runtime agrees on every logical observable — ok/fail per
/// session, probe sequences, observed colors, probe/message/waste/timeout
/// counts — across the whole six-scenario network battery (clean, lossy,
/// heavy-tail, minority partition, flapping, asymmetric split).
#[test]
fn sim_and_live_agree_across_the_network_battery() {
    let config = open_poisson_workload(40, SimTime::from_micros(250));
    let scenarios = network_scenarios(15, &config); // Tree(3) has 15 nodes
    assert!(scenarios.len() >= 6, "the battery shrank");
    for (index, scenario) in scenarios.iter().enumerate() {
        let cell = tree_cell(40, scenario);
        let outcome = run_live_cell(2001, index as u64, &cell, &fast_live());
        assert!(
            outcome.agreement.agree,
            "scenario {} diverged:\n{}",
            scenario.name,
            outcome.agreement.mismatches.join("\n")
        );
        assert_eq!(outcome.agreement.sessions_checked, 40);
        assert_eq!(outcome.live.admitted, 40, "{}", scenario.name);
        assert!(outcome.live.drained_clean(), "{}", scenario.name);
        // Wall-clock latency is reported separately from the agreement —
        // live sessions take real time even when time is compressed.
        assert!(outcome.live.wall.as_nanos() > 0);
    }
}

/// The same trace through `{backend: Sim}` and `{backend: Live}` directly on
/// the spec API: logical observables agree, and the sim half of the live run
/// is bit-identical to the sim-only run.
#[test]
fn spec_backends_agree_on_one_trace() {
    let spec = WorkloadSpec::new(5)
        .sessions(30)
        .policy(ProbePolicy::retry(2, SimTime::from_micros(300)))
        .network(NetworkModel::lossy(60_000));
    let plan = |_: u64, _: &LoadLedger, _: SimTime, rng: &mut StdRng| {
        let network = NetworkModel::lossy(60_000);
        let policy = ProbePolicy::retry(2, SimTime::from_micros(300));
        let fate = network.probe_fate(0, true, SimTime::ZERO, &policy, rng);
        let ok = fate.observed == Color::Green;
        NetSessionPlan {
            probes: vec![NetProbe {
                node: 0,
                observed: fate.observed,
                failures: fate.failures,
            }],
            success: ok,
        }
    };
    let sim = spec.clone().backend(Backend::Sim).run(7, plan);
    let live = spec.backend(Backend::Live(fast_live())).run(7, plan);
    let agreement = live.agreement.as_ref().expect("live run cross-validates");
    assert!(
        agreement.agree,
        "backends diverged:\n{}",
        agreement.mismatches.join("\n")
    );
    // The sim half of the live run is the sim run, bit for bit.
    assert_eq!(sim.report.messages, live.report.messages);
    assert_eq!(sim.report.duration, live.report.duration);
    assert_eq!(sim.report.latency, live.report.latency);
}

/// One red-probe plan: the client pays the full (scaled) timeout, which is
/// what keeps sessions in flight long enough to pile up under overload.
fn slow_red_trace(sessions: usize, mean_interarrival: SimTime) -> SessionTrace {
    SessionTrace {
        sessions: (0..sessions)
            .map(|i| TracedSession {
                index: i as u64,
                arrival: SimTime::from_micros(mean_interarrival.as_micros() * i as u64),
                plan: NetSessionPlan {
                    probes: vec![NetProbe {
                        node: i % 3,
                        observed: Color::Red,
                        failures: vec![quorum_probe::session::AttemptLoss::Request],
                    }],
                    success: false,
                },
            })
            .collect(),
    }
}

/// Backpressure under overload: doubling the offered load against a fixed
/// admission limit sheds more sessions, concurrency stays at or below the
/// limit, and the p99 of what *was* admitted stays bounded (shedding, not
/// queueing, absorbs the excess).
#[test]
fn admission_control_sheds_overload_and_bounds_p99() {
    let config = WorkloadConfig {
        arrival: ArrivalProcess::OpenPoisson {
            mean_interarrival: SimTime::from_millis(4),
        },
        sessions: 50,
        rpc_latency: Distribution::fixed(SimTime::from_micros(100)),
        service: Distribution::fixed(SimTime::from_micros(100)),
        probe_timeout: SimTime::from_millis(20),
    };
    let options = LiveOptions::realtime().admission_limit(4);
    let run = |mean: SimTime| {
        let trace = slow_red_trace(50, mean);
        probequorum::cluster::live::run_live(
            3,
            &trace,
            &config,
            &FaultSchedule::none(),
            &ProbePolicy::sequential(),
            &options,
        )
    };
    // Baseline: arrivals at ~2× the per-session holding time of 20 ms.
    let baseline = run(SimTime::from_millis(10));
    // Overload: the same trace offered 4× faster.
    let overload = run(SimTime::from_micros(2_500));
    assert!(
        overload.rejected > baseline.rejected,
        "rejections must rise under overload: baseline {}, overload {}",
        baseline.rejected,
        overload.rejected
    );
    assert!(overload.rejected > 0);
    assert_eq!(overload.admitted + overload.rejected, overload.offered);
    assert!(
        overload.peak_in_flight <= 4,
        "admission limit violated: {} in flight",
        overload.peak_in_flight
    );
    // Admitted sessions still complete in about one probe timeout: the p99
    // stays bounded because the excess was shed, not queued.
    let p99 = overload
        .wall_latency_quantile(0.99)
        .expect("admitted sessions completed");
    assert!(
        p99 < std::time::Duration::from_millis(500),
        "p99 blew up under overload: {p99:?}"
    );
    assert!(baseline.drained_clean() && overload.drained_clean());
}

/// Graceful shutdown: with green probes hammering three nodes through
/// tightly bounded queues, closing the runtime still serves every request
/// that was enqueued — nothing in flight is lost.
#[test]
fn graceful_shutdown_drains_bounded_queues() {
    let outcome = WorkloadSpec::new(3)
        .sessions(60)
        .arrivals(ArrivalProcess::OpenPoisson {
            mean_interarrival: SimTime::from_micros(100),
        })
        .service(Distribution::fixed(SimTime::from_micros(400)))
        .backend(Backend::Live(fast_live().queue_capacity(2)))
        .run_plans(5, |session, _, _| SessionPlan {
            sequence: vec![session as usize % 3],
            colors: vec![Color::Green],
            success: true,
        });
    let live = outcome.live.as_ref().expect("live backend reports");
    assert_eq!(live.admitted, 60, "no admission limit: every session runs");
    assert_eq!(live.sessions.len(), 60);
    assert!(
        live.drained_clean(),
        "shutdown lost in-flight requests: {} delivered, {} served",
        live.requests_delivered,
        live.requests_served
    );
    assert!(outcome.agrees(), "draining must not break agreement");
}
