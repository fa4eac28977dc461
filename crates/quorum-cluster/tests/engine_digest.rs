//! Pins every report of the workload engine.
//!
//! Each case runs the discrete-event engine once and folds every field of
//! its `WorkloadReport` into one FNV-1a digest: the counters, the duration,
//! the `Debug` of the latency histogram (every bucket, the count, the sum,
//! the minimum and the maximum), and the whole load ledger (per node the
//! probes received, the timeouts, the busy time, the peak backlog and the
//! backlog at five instants of the run).
//!
//! The battery covers:
//!
//! * `run_plans` on Probe_Maj, Probe_Tree, Probe_CW and Probe_HQS plans
//!   over i.i.d. colorings at p = 0.3, in open and closed loop, under the
//!   sequential, retry and hedge policies, with every seventh session
//!   probing nothing;
//! * `run_plans` on plans that read the live ledger's scores;
//! * `run` on `NetworkModel::probe_fate` plans under message loss and under
//!   isolate, crash, stall and slow windows of a `FaultSchedule`, with every
//!   fifth session shedding the probes of its first two dead elements;
//! * a heavy-tailed network delay, uniform think times and a fixed service
//!   time, so that every kind of `Distribution` is drawn.
//!
//! A change to how the engine stores plans, queues, events or draws must
//! leave every digest as pinned; a change that means to move a report
//! re-pins the table and says why.

use quorum_cluster::{
    ArrivalProcess, Distribution, Fault, FaultSchedule, FaultWindow, LoadLedger, NetProbe,
    NetSessionPlan, NetworkModel, ProbePolicy, SessionPlan, SimTime, WorkloadReport, WorkloadSpec,
};
use quorum_core::{Color, Coloring, QuorumSystem};
use quorum_probe::strategies::{ProbeCw, ProbeHqs, ProbeMaj, ProbeTree};
use quorum_probe::{run_strategy, ProbeStrategy};
use quorum_systems::{CrumblingWalls, Hqs, Majority, TreeQuorum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(case, digest)`, in battery order.
const PINNED: [(&str, u64); 54] = [
    ("plans/Probe_Maj/open/sequential", 0x74e4993baf2873ee),
    ("plans/Probe_Tree/open/sequential", 0x8d75631033779d88),
    ("plans/Probe_CW/open/sequential", 0x5f100d7de0645d59),
    ("plans/Probe_HQS/open/sequential", 0xa044fe8336c2401c),
    ("plans/Probe_Maj/open/retry", 0x74e4993baf2873ee),
    ("plans/Probe_Tree/open/retry", 0x8d75631033779d88),
    ("plans/Probe_CW/open/retry", 0x5f100d7de0645d59),
    ("plans/Probe_HQS/open/retry", 0xa044fe8336c2401c),
    ("plans/Probe_Maj/open/hedge", 0x1f6499c832847a29),
    ("plans/Probe_Tree/open/hedge", 0x283bb8d1aa209786),
    ("plans/Probe_CW/open/hedge", 0xdfaef07f3c10ef95),
    ("plans/Probe_HQS/open/hedge", 0x48d4784d62fb2ea3),
    ("plans/Probe_Maj/open/retry-hedge", 0x04b5069daf2a40ff),
    ("plans/Probe_Tree/open/retry-hedge", 0x3a9b92177c30b43b),
    ("plans/Probe_CW/open/retry-hedge", 0x8325bfa3958e4011),
    ("plans/Probe_HQS/open/retry-hedge", 0x0e443dd3bb078aeb),
    ("plans/Probe_Maj/closed/sequential", 0xc6491efad3ed34cf),
    ("plans/Probe_Tree/closed/sequential", 0x146b5aa33daaaffe),
    ("plans/Probe_CW/closed/sequential", 0xe0d83a869c20d94d),
    ("plans/Probe_HQS/closed/sequential", 0x3113016be38c55c5),
    ("plans/Probe_Maj/closed/retry", 0xc6491efad3ed34cf),
    ("plans/Probe_Tree/closed/retry", 0x146b5aa33daaaffe),
    ("plans/Probe_CW/closed/retry", 0xe0d83a869c20d94d),
    ("plans/Probe_HQS/closed/retry", 0x3113016be38c55c5),
    ("plans/Probe_Maj/closed/hedge", 0x2060e4361374e64b),
    ("plans/Probe_Tree/closed/hedge", 0xfb26abf581dc2cb1),
    ("plans/Probe_CW/closed/hedge", 0xdadb830a507da685),
    ("plans/Probe_HQS/closed/hedge", 0xc8c5c27fad2d09fd),
    ("plans/Probe_Maj/closed/retry-hedge", 0xde72354633930e7f),
    ("plans/Probe_Tree/closed/retry-hedge", 0x36180e3251efb19a),
    ("plans/Probe_CW/closed/retry-hedge", 0x15b823edd25ebf0e),
    ("plans/Probe_HQS/closed/retry-hedge", 0x158599b5e667e8c5),
    ("plans/ledger-scores", 0x0eb606d04beb0146),
    ("plans/ledger-scores/think-uniform", 0xe12b2ca5f37f922b),
    ("fates/Probe_Maj/lossy/sequential", 0xaff5807cada1b820),
    ("fates/Probe_Maj/lossy/retry", 0x3e42292c5fe7976f),
    ("fates/Probe_Maj/lossy/hedge", 0xbf3991740c332122),
    ("fates/Probe_Maj/lossy/retry-hedge", 0xc7486996ece5ad9d),
    ("fates/Probe_Maj/isolate/sequential", 0x242414c4149048e3),
    ("fates/Probe_Maj/isolate/retry", 0x75a5b0e1e71648d5),
    ("fates/Probe_Maj/isolate/hedge", 0x81bde7275efdf953),
    ("fates/Probe_Maj/isolate/retry-hedge", 0xf5abab02d6074ebb),
    ("fates/Probe_Maj/crash/sequential", 0xcc4bb4857a113310),
    ("fates/Probe_Maj/crash/retry", 0xd6d9b4db8a31cccb),
    ("fates/Probe_Maj/crash/hedge", 0xecbcddcac2337980),
    ("fates/Probe_Maj/crash/retry-hedge", 0x3ec95fb5061530c1),
    ("fates/Probe_Maj/stall-slow/sequential", 0xcebe4395faaa0056),
    ("fates/Probe_Maj/stall-slow/retry", 0xd7d8d72844bd2ed0),
    ("fates/Probe_Maj/stall-slow/hedge", 0x5a06ed7182a9b99d),
    ("fates/Probe_Maj/stall-slow/retry-hedge", 0xe27d35b619982cc6),
    (
        "fates/Probe_Maj/heavy-tail-delay/sequential",
        0x33dfd0e88f2a9bb7,
    ),
    ("fates/Probe_Maj/heavy-tail-delay/retry", 0xf1ea2c1c556e3740),
    ("fates/Probe_Maj/heavy-tail-delay/hedge", 0x5c627e6a0e7e5a36),
    (
        "fates/Probe_Maj/heavy-tail-delay/retry-hedge",
        0x9ccb982cd275cb8d,
    ),
];

/// FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Folds every field of `report`.
fn digest(report: &WorkloadReport) -> u64 {
    let mut hash = Fnv::new();
    hash.word(report.sessions as u64);
    hash.word(report.successes as u64);
    hash.word(report.probes);
    hash.word(report.duration.as_micros());
    hash.bytes(format!("{:?}", report.latency).as_bytes());
    hash.word(report.messages);
    hash.word(report.wasted_probes);
    hash.word(report.hedges);
    hash.word(report.cancelled);
    hash.word(report.lost_to_crash);
    let ledger = &report.ledger;
    hash.word(ledger.len() as u64);
    let end = report.duration.as_micros();
    for node in 0..ledger.len() {
        hash.word(ledger.probes_received()[node]);
        hash.word(ledger.timeouts()[node]);
        hash.word(ledger.busy_time(node).as_micros());
        hash.word(ledger.peak_backlog(node) as u64);
        for k in 0..5 {
            let at = SimTime::from_micros(end * k / 4);
            hash.word(ledger.backlog(node, at) as u64);
        }
    }
    hash.0
}

/// An i.i.d. coloring at p = 0.3.
fn iid_coloring(n: usize, rng: &mut StdRng) -> Coloring {
    Coloring::from_fn(n, |_| {
        if rng.gen_bool(0.3) {
            Color::Red
        } else {
            Color::Green
        }
    })
}

/// Latency-only plans of `strategy` on `system`: session `index` probes an
/// i.i.d. coloring seeded by its index, and every seventh probes nothing.
fn strategy_plans<'a, S, T>(
    system: &'a S,
    strategy: &'a T,
) -> impl FnMut(u64, &LoadLedger, SimTime) -> SessionPlan + 'a
where
    S: QuorumSystem,
    T: ProbeStrategy<S>,
{
    move |index, _, _| {
        if index % 7 == 3 {
            return SessionPlan {
                sequence: vec![],
                colors: vec![],
                success: false,
            };
        }
        let mut rng = StdRng::seed_from_u64(index ^ 0x5eed);
        let coloring = iid_coloring(system.universe_size(), &mut rng);
        let run = run_strategy(system, strategy, &coloring, &mut rng);
        SessionPlan {
            colors: run.sequence.iter().map(|&e| coloring.color(e)).collect(),
            sequence: run.sequence,
            success: run.witness.is_green(),
        }
    }
}

/// Message-level plans of Probe_Maj on `maj`: every element's fate is drawn
/// through `network` at the session's arrival from the engine's RNG, the
/// strategy runs on the observed coloring, and every fifth session sheds
/// the probes of its first two truly dead elements (observed red at no
/// cost).
fn fate_plans<'a>(
    maj: &'a Majority,
    network: &'a NetworkModel,
    policy: ProbePolicy,
) -> impl FnMut(u64, &LoadLedger, SimTime, &mut StdRng) -> NetSessionPlan + 'a {
    move |index, _, now, engine_rng| {
        let n = maj.universe_size();
        let mut rng = StdRng::seed_from_u64(index ^ 0xfa7e);
        let truth = iid_coloring(n, &mut rng);
        let mut shed = if index % 5 == 1 { 2 } else { 0 };
        let mut fates: Vec<(Color, Vec<quorum_probe::AttemptLoss>)> = (0..n)
            .map(|e| {
                let alive = truth.color(e) == Color::Green;
                if !alive && shed > 0 {
                    shed -= 1;
                    return (Color::Red, vec![]);
                }
                let fate = network.probe_fate(e, alive, now, &policy, engine_rng);
                (fate.observed, fate.failures)
            })
            .collect();
        let observed = Coloring::from_fn(n, |e| fates[e].0);
        let run = run_strategy(maj, &ProbeMaj::new(), &observed, &mut rng);
        NetSessionPlan {
            probes: run
                .sequence
                .iter()
                .map(|&e| NetProbe {
                    node: e,
                    observed: fates[e].0,
                    failures: std::mem::take(&mut fates[e].1),
                })
                .collect(),
            success: run.witness.is_green(),
        }
    }
}

/// Load-aware plans: each session probes the three nodes with the lowest
/// ledger score at its arrival, the middle one red every third session.
fn ledger_plans(n: usize) -> impl FnMut(u64, &LoadLedger, SimTime) -> SessionPlan {
    move |index, ledger, now| {
        let mut nodes: Vec<usize> = (0..n).collect();
        nodes.sort_by_key(|&e| (ledger.score(e, now), e));
        nodes.truncate(3);
        let mut colors = vec![Color::Green; 3];
        if index % 3 == 0 {
            colors[1] = Color::Red;
        }
        SessionPlan {
            sequence: nodes,
            colors,
            success: index % 3 != 0,
        }
    }
}

fn open(mean_micros: u64) -> ArrivalProcess {
    ArrivalProcess::OpenPoisson {
        mean_interarrival: SimTime::from_micros(mean_micros),
    }
}

fn closed(clients: usize, think: Distribution) -> ArrivalProcess {
    ArrivalProcess::ClosedLoop { clients, think }
}

fn policies() -> [(&'static str, ProbePolicy); 4] {
    [
        ("sequential", ProbePolicy::sequential()),
        ("retry", ProbePolicy::retry(3, SimTime::from_micros(200))),
        (
            "hedge",
            ProbePolicy::sequential().with_hedge(SimTime::from_micros(300)),
        ),
        (
            "retry-hedge",
            ProbePolicy::retry(2, SimTime::from_micros(100)).with_hedge(SimTime::from_micros(500)),
        ),
    ]
}

fn micros(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

/// Every case of the battery, in order.
fn battery() -> Vec<(String, WorkloadReport)> {
    let mut cases = Vec::new();
    let maj = Majority::new(63).unwrap();
    let tree = TreeQuorum::new(5).unwrap();
    let walls = CrumblingWalls::triang(8).unwrap();
    let hqs = Hqs::new(3).unwrap();
    let arrivals = [
        ("open", open(250)),
        ("closed", closed(6, Distribution::exponential(micros(200)))),
    ];
    for (arrival_name, arrival) in arrivals {
        for (policy_name, policy) in policies() {
            let spec = |n: usize| {
                WorkloadSpec::new(n)
                    .sessions(120)
                    .arrivals(arrival)
                    .policy(policy)
            };
            let reports = [
                (
                    "Probe_Maj",
                    spec(63).run_plans(1, strategy_plans(&maj, &ProbeMaj::new())),
                ),
                (
                    "Probe_Tree",
                    spec(63).run_plans(2, strategy_plans(&tree, &ProbeTree::new())),
                ),
                (
                    "Probe_CW",
                    spec(walls.universe_size())
                        .run_plans(3, strategy_plans(&walls, &ProbeCw::new())),
                ),
                (
                    "Probe_HQS",
                    spec(27).run_plans(4, strategy_plans(&hqs, &ProbeHqs::new())),
                ),
            ];
            for (strategy, outcome) in reports {
                cases.push((
                    format!("plans/{strategy}/{arrival_name}/{policy_name}"),
                    outcome.report,
                ));
            }
        }
    }

    let ledger_spec = WorkloadSpec::new(9).sessions(150).arrivals(open(60));
    cases.push((
        "plans/ledger-scores".into(),
        ledger_spec.run_plans(5, ledger_plans(9)).report,
    ));
    cases.push((
        "plans/ledger-scores/think-uniform".into(),
        ledger_spec
            .arrivals(closed(4, Distribution::uniform(micros(20), micros(320))))
            .service(Distribution::fixed(micros(90)))
            .run_plans(6, ledger_plans(9))
            .report,
    ));

    let window = |fault: Fault, nodes: Vec<usize>, from: u64, until: u64| FaultWindow {
        from: micros(from),
        until: micros(until),
        nodes,
        fault,
    };
    let networks = [
        ("lossy", NetworkModel::lossy(80_000)),
        (
            "isolate",
            NetworkModel::clean().with_faults(FaultSchedule::window(
                Fault::Isolate,
                (0..20).collect(),
                micros(2_000),
                micros(12_000),
            )),
        ),
        (
            "crash",
            NetworkModel::lossy(20_000).with_faults(FaultSchedule::window(
                Fault::Crash,
                (10..40).collect(),
                micros(1_000),
                micros(9_000),
            )),
        ),
        (
            "stall-slow",
            NetworkModel::clean().with_faults(FaultSchedule::from_windows(vec![
                window(Fault::Stall, (0..15).collect(), 0, 6_000),
                window(Fault::Slow, (30..50).collect(), 4_000, 14_000),
            ])),
        ),
        (
            "heavy-tail-delay",
            NetworkModel {
                delay: Some(Distribution::heavy_tail(
                    micros(80),
                    micros(300),
                    micros(4_000),
                    30_000,
                )),
                ..NetworkModel::lossy(10_000)
            },
        ),
    ];
    for (network_name, network) in &networks {
        for (policy_name, policy) in policies() {
            let spec = WorkloadSpec::new(63)
                .sessions(100)
                .arrivals(open(150))
                .network(network.clone())
                .policy(policy);
            cases.push((
                format!("fates/Probe_Maj/{network_name}/{policy_name}"),
                spec.run(7, fate_plans(&maj, network, policy)).report,
            ));
        }
    }
    cases
}

#[test]
fn engine_reports_match_their_pinned_digests() {
    let reports = battery();
    // The battery reaches every path of the engine.
    let any = |test: &dyn Fn(&WorkloadReport) -> bool| reports.iter().any(|(_, r)| test(r));
    assert!(any(&|r| r.latency.min() == 0), "no zero-probe session");
    assert!(any(&|r| r.hedges > 0 && r.cancelled > 0), "no hedge race");
    assert!(any(&|r| r.wasted_probes > 0), "no wasted attempt");
    assert!(any(&|r| r.lost_to_crash > 0), "no crash-fated attempt");
    assert!(
        any(&|r| r.ledger.timeouts().iter().sum::<u64>() > 0),
        "no timed-out attempt"
    );
    let computed: Vec<(String, u64)> = reports
        .iter()
        .map(|(name, report)| (name.clone(), digest(report)))
        .collect();
    let table: String = computed
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert_eq!(
        computed, pinned,
        "engine reports moved; the current digests are:\n{table}"
    );
}
