//! End-to-end tests of the live runtime behind the unified `WorkloadSpec`
//! API: sim-vs-live observable agreement across the network scenario
//! battery, and graceful shutdown draining a full node queue.

use probequorum::prelude::*;
use rand::rngs::StdRng;

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
        let outcome = run_live_cell(2001, index as u64, &cell);
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
    let live = spec.backend(Backend::Live).run(7, plan);
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

/// Graceful shutdown under backpressure: 200 green probes (the `live`
/// experiment's session bound) reach one node within about two virtual
/// milliseconds, and each takes 100 virtual milliseconds of service, so the
/// node's 128-deep request queue fills and the surplus clients block on it.
/// Closing the runtime still serves every request that was enqueued —
/// nothing in flight is lost.
#[test]
fn graceful_shutdown_drains_bounded_queues() {
    let sessions = 200;
    let outcome = WorkloadSpec::new(1)
        .sessions(sessions)
        .arrivals(ArrivalProcess::OpenPoisson {
            mean_interarrival: SimTime::from_micros(10),
        })
        .service(Distribution::fixed(SimTime::from_millis(100)))
        .backend(Backend::Live)
        .run_plans(5, |_, _, _| SessionPlan {
            sequence: vec![0],
            colors: vec![Color::Green],
            success: true,
        });
    // The simulated node's queue is unbounded: its peak backlog is the load
    // the live node's bounded queue has to hold back.
    let backlog = outcome.report.ledger.peak_backlog(0);
    assert!(
        backlog > 128,
        "the offered load must overflow the queue: {backlog}"
    );
    let live = outcome.live.as_ref().expect("live backend reports");
    assert_eq!(live.admitted, sessions as u64, "every session runs");
    assert_eq!(live.sessions.len(), sessions);
    assert!(
        live.peak_in_flight > 128,
        "the sessions must outnumber the queue: {} in flight",
        live.peak_in_flight
    );
    assert_eq!(live.requests_delivered, sessions as u64);
    assert!(
        live.drained_clean(),
        "shutdown lost in-flight requests: {} delivered, {} served",
        live.requests_delivered,
        live.requests_served
    );
    assert!(outcome.agrees(), "draining must not break agreement");
}
