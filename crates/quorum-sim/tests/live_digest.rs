//! Pins every deterministic output of the live workload cells.
//!
//! Each case runs `run_live_cell` once on a cell of the `live` experiment
//! (Maj(15) under Probe_Maj and Tree(h = 3) under Probe_Tree, over the six
//! network scenarios) or of the `chaos` experiment (Maj(15), Triang(5) and
//! Tree(h = 3) over the four chaos scenarios, once naive and once behind the
//! health breaker), at 40 open-Poisson sessions, and folds into one FNV-1a
//! digest: every field of the simulator's `WorkloadOutcome` (the `f64`s as
//! bits), the agreement verdict, the live replay's `drained_clean` and
//! `requests_lost_to_crash`, and the cell's `chaos_recovery_micros` rows. No
//! wall-clock field is folded.
//!
//! The sim-side health gating reads the breaker's weight, threshold and
//! cooldown, so a change to any of them moves the health-aware digests. A
//! change to the live runtime's plumbing must leave every digest as pinned;
//! a change that means to move an outcome re-pins the table and says why.

use quorum_cluster::SimTime;
use quorum_probe::strategies::{ProbeCw, ProbeMaj, ProbeTree};
use quorum_sim::eval::{erase_spec, typed_strategy};
use quorum_sim::{
    chaos_recovery_micros, chaos_scenarios, network_scenarios, open_poisson_workload,
    run_live_cell, ColoringSource, DynProbeStrategy, DynSystem, LiveCellOutcome, WorkloadCell,
    WorkloadStrategy,
};
use quorum_systems::{CrumblingWalls, Majority, SystemSpec, TreeQuorum};

/// Sessions per cell.
const SESSIONS: usize = 40;

/// `(case, digest)`, in battery order: the `live` cells, then the `chaos`
/// cells.
const PINNED: [(&str, u64); 36] = [
    ("live/Maj(15)/clean", 0x679689213fdb99c6),
    ("live/Maj(15)/lossy", 0xd3a3f5d8c574e62a),
    ("live/Maj(15)/heavy-tail", 0xfd53458149d1e0aa),
    ("live/Maj(15)/minority-part", 0xe1d95e935a777734),
    ("live/Maj(15)/flapping", 0x3da46bdf03de6c7b),
    ("live/Maj(15)/asym-split", 0x865b24ce8fb9bb3f),
    ("live/Tree(h=3)/clean", 0xdf919b75e034b335),
    ("live/Tree(h=3)/lossy", 0x5579f11fec1f1998),
    ("live/Tree(h=3)/heavy-tail", 0x48f2416bb1868d0c),
    ("live/Tree(h=3)/minority-part", 0x2329559e76c21962),
    ("live/Tree(h=3)/flapping", 0x43e8d49fbf0d5836),
    ("live/Tree(h=3)/asym-split", 0xb81f06047534675f),
    ("chaos/Maj(15)/crash-minority/naive", 0x2eae2015e90be32f),
    ("chaos/Maj(15)/crash-minority/health", 0x09dc1f005bc16281),
    ("chaos/Maj(15)/rolling-restart/naive", 0xa0ff9c4206e7a41b),
    ("chaos/Maj(15)/rolling-restart/health", 0x3f0094d6984a8342),
    ("chaos/Maj(15)/stall-flap/naive", 0x2f52941ea93edc7e),
    ("chaos/Maj(15)/stall-flap/health", 0x48bc17b814302f3a),
    ("chaos/Maj(15)/crash-part/naive", 0xdb7eaf3b968b64e0),
    ("chaos/Maj(15)/crash-part/health", 0x78a25b06cf67813a),
    ("chaos/Triang(5)/crash-minority/naive", 0x2224b0889ab07441),
    ("chaos/Triang(5)/crash-minority/health", 0x32ce08dc506e4460),
    ("chaos/Triang(5)/rolling-restart/naive", 0x4c57a13aa553c58c),
    ("chaos/Triang(5)/rolling-restart/health", 0x8373881bd00f5266),
    ("chaos/Triang(5)/stall-flap/naive", 0x7348c75d8f0722e0),
    ("chaos/Triang(5)/stall-flap/health", 0x9f2d06ebd0b6f541),
    ("chaos/Triang(5)/crash-part/naive", 0x44661825cd1ef8c4),
    ("chaos/Triang(5)/crash-part/health", 0x58865f18021c2159),
    ("chaos/Tree(h=3)/crash-minority/naive", 0x398521a6d6e16b90),
    ("chaos/Tree(h=3)/crash-minority/health", 0x1d145d47d0e7f1bf),
    ("chaos/Tree(h=3)/rolling-restart/naive", 0xea1a7cde882bab79),
    ("chaos/Tree(h=3)/rolling-restart/health", 0xc8bd47d6ff133322),
    ("chaos/Tree(h=3)/stall-flap/naive", 0xf790f597335cb115),
    ("chaos/Tree(h=3)/stall-flap/health", 0xd206e068bdecc9df),
    ("chaos/Tree(h=3)/crash-part/naive", 0xc3cf0eea68ced2a3),
    ("chaos/Tree(h=3)/crash-part/health", 0xaab75a941055579d),
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

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Folds the deterministic outputs of one executed cell.
fn digest(cell: &WorkloadCell, outcome: &LiveCellOutcome) -> u64 {
    let mut hash = Fnv::new();
    let sim = &outcome.sim;
    for label in [
        &sim.system,
        &sim.strategy,
        &sim.workload,
        &sim.net,
        &sim.policy,
        &sim.scenario,
    ] {
        hash.text(label);
    }
    hash.word(sim.universe_size as u64);
    hash.word(sim.sessions as u64);
    for x in [
        sim.success_rate,
        sim.throughput_per_sec,
        sim.probes_per_session,
        sim.messages_per_session,
        sim.wasted_fraction,
        sim.imbalance,
    ] {
        hash.word(x.to_bits());
    }
    hash.word(sim.p50_us);
    hash.word(sim.p95_us);
    hash.word(sim.p99_us);
    hash.word(sim.peak_backlog as u64);
    hash.word(sim.degraded);
    hash.word(sim.lost_to_crash);
    hash.word(u64::from(outcome.agreement.agree));
    hash.word(u64::from(outcome.live.drained_clean()));
    hash.word(outcome.live.requests_lost_to_crash);
    let recovery = chaos_recovery_micros(&outcome.trace, &cell.network.faults);
    hash.word(recovery.len() as u64);
    for (node, recovered) in recovery {
        hash.word(node as u64);
        hash.word(recovered.map_or(u64::MAX, |micros| micros));
    }
    hash.0
}

fn system(spec: SystemSpec) -> DynSystem {
    erase_spec(&spec).expect("the battery's specs are valid")
}

/// Runs every cell of the battery, in order.
fn battery() -> Vec<(String, u64)> {
    let config = open_poisson_workload(SESSIONS, SimTime::from_micros(250));
    let cell = |system: &DynSystem, paper: &DynProbeStrategy| {
        WorkloadCell::new(
            system.clone(),
            WorkloadStrategy::Paper(paper.clone()),
            ColoringSource::iid(0.05),
            "open-poisson",
            config,
        )
    };
    let mut cases = Vec::new();

    let live: [(&str, DynSystem, DynProbeStrategy); 2] = [
        (
            "Maj(15)",
            system(SystemSpec::Majority { n: 15 }),
            typed_strategy::<Majority, _>(ProbeMaj::new()),
        ),
        (
            "Tree(h=3)",
            system(SystemSpec::Tree { height: 3 }),
            typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
        ),
    ];
    let mut index = 0u64;
    for (name, system, paper) in &live {
        for scenario in network_scenarios(system.universe_size(), &config) {
            let cell = cell(system, paper).with_scenario(&scenario);
            let outcome = run_live_cell(35, index, &cell);
            index += 1;
            cases.push((
                format!("live/{name}/{}", scenario.name),
                digest(&cell, &outcome),
            ));
        }
    }

    let chaos: [(&str, DynSystem, DynProbeStrategy); 3] = [
        (
            "Maj(15)",
            system(SystemSpec::Majority { n: 15 }),
            typed_strategy::<Majority, _>(ProbeMaj::new()),
        ),
        (
            "Triang(5)",
            system(SystemSpec::Triang { rows: 5 }),
            typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        ),
        (
            "Tree(h=3)",
            system(SystemSpec::Tree { height: 3 }),
            typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
        ),
    ];
    let mut index = 0u64;
    for (name, system, paper) in &chaos {
        for scenario in chaos_scenarios(system.universe_size(), &config) {
            for health in [false, true] {
                let mut cell = cell(system, paper).with_scenario(&scenario);
                if health {
                    cell = cell.with_health();
                }
                let outcome = run_live_cell(36, index, &cell);
                index += 1;
                let client = if health { "health" } else { "naive" };
                cases.push((
                    format!("chaos/{name}/{}/{client}", scenario.name),
                    digest(&cell, &outcome),
                ));
            }
        }
    }
    cases
}

#[test]
fn live_cells_match_their_pinned_digests() {
    let computed = battery();
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
        "live cell outcomes moved; the current digests are:\n{table}"
    );
}
