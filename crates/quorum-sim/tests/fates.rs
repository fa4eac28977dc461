//! Pins the probe fates of the network and chaos batteries.
//!
//! For every scenario of `network_scenarios(15, &cfg)` and
//! `chaos_scenarios(15, &cfg)` at `cfg = open_poisson_workload(200, 250 µs)`,
//! every node is probed through `NetworkModel::probe_fate` at 32 instants
//! spread over `cfg.horizon_hint()` (every window edge of both batteries
//! but the asymmetric split's falls on one of them), once under the
//! scenario's policy and once under `ProbePolicy::sequential()`. One 64-bit
//! digest per scenario folds each fate's observed color and failed attempts,
//! then the RNG's next word, which pins how many loss coins were drawn. A
//! change to how the model stores or reads its fault windows must leave
//! every digest as pinned; a change that means to alter a fate re-pins the
//! table and says why.

use quorum_cluster::{NetworkModel, ProbePolicy, SimTime};
use quorum_core::Color;
use quorum_probe::AttemptLoss;
use quorum_sim::{chaos_scenarios, network_scenarios, open_poisson_workload, NetScenario};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Nodes of the scenarios' universe.
const NODES: usize = 15;

/// Probe instants per scenario, at `horizon · k / INSTANTS`.
const INSTANTS: u64 = 32;

/// `(scenario, digest)`, in battery order: the network battery, then the
/// chaos battery.
const PINNED: [(&str, u64); 10] = [
    ("clean", 0x1e7ccd9dc9a5b49d),
    ("lossy", 0x443fd23569cd2804),
    ("heavy-tail", 0x1e7ccd9dc9a5b49d),
    ("minority-part", 0x9d42ac348238a65d),
    ("flapping", 0x3d5ef28998360ddd),
    ("asym-split", 0x227224f52c31189d),
    ("crash-minority", 0xffe5771d75260add),
    ("rolling-restart", 0x018e53ffe1e599bd),
    ("stall-flap", 0x47e20d4171b8059d),
    ("crash-part", 0xdd278b89b385941d),
];

/// FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(network: &NetworkModel, policy: &ProbePolicy, horizon: u64) -> u64 {
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut rng = StdRng::seed_from_u64(25);
    for k in 0..INSTANTS {
        let now = SimTime::from_micros(horizon * k / INSTANTS);
        for node in 0..NODES {
            for policy in [policy, &ProbePolicy::sequential()] {
                let fate = network.probe_fate(node, true, now, policy, &mut rng);
                hash.word(match fate.observed {
                    Color::Green => 0,
                    Color::Red => 1,
                });
                hash.word(fate.failures.len() as u64);
                for loss in &fate.failures {
                    hash.word(match loss {
                        AttemptLoss::Request => 0,
                        AttemptLoss::Response => 1,
                        AttemptLoss::Crash => 2,
                    });
                }
            }
        }
    }
    hash.word(rng.next_u64());
    hash.0
}

#[test]
fn battery_fates_match_their_pinned_digests() {
    let cfg = open_poisson_workload(200, SimTime::from_micros(250));
    let horizon = cfg.horizon_hint().as_micros();
    let scenarios: Vec<NetScenario> = network_scenarios(NODES, &cfg)
        .into_iter()
        .chain(chaos_scenarios(NODES, &cfg))
        .collect();
    let computed: Vec<(String, u64)> = scenarios
        .iter()
        .map(|s| (s.name.to_string(), digest(&s.network, &s.policy, horizon)))
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
        "probe fates moved; the current digests are:\n{table}"
    );
}
