//! Pins the probe transcripts of the paper's strategies.
//!
//! Every paper strategy and its randomized variants run on 300 seeded
//! colorings at each p ∈ {0.1, 0.3, 0.5}, on two or three sizes of their
//! family. One 64-bit digest per (system, strategy) folds, for every run, the
//! probe sequence, the witness kind and words, and the RNG's next word after
//! the run (which pins how many words the strategy drew). A change to the
//! strategies' bookkeeping must leave every digest as pinned; a change that
//! means to alter a transcript re-pins the table and says why.

use quorum_core::{Color, Coloring, QuorumSystem, WitnessKind};
use quorum_probe::strategies::{
    IrProbeHqs, ProbeCw, ProbeHqs, ProbeMaj, ProbeTree, RProbeCw, RProbeHqs, RProbeMaj, RProbeTree,
};
use quorum_probe::{run_strategy, ProbeStrategy};
use quorum_systems::{CrumblingWalls, Hqs, Majority, TreeQuorum};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Colorings per failure probability.
const COLORINGS: u64 = 300;

/// The failure probabilities the colorings are drawn at.
const PS: [f64; 3] = [0.1, 0.3, 0.5];

/// `(system, strategy, digest)`, in the order [`computed`] lists them.
const PINNED: [(&str, &str, u64); 20] = [
    ("Maj(101)", "Probe_Maj", 0x61c4ca16348978f0),
    ("Maj(101)", "R_Probe_Maj", 0x4a04cbe2bd169991),
    ("Maj(1023)", "Probe_Maj", 0x8ccdf05aea544747),
    ("Maj(1023)", "R_Probe_Maj", 0xc977a7bfbe40e181),
    ("Triang(10)", "Probe_CW", 0xd5541b2e308e33d4),
    ("Triang(10)", "R_Probe_CW", 0x5b33a943668dd515),
    ("Triang(44)", "Probe_CW", 0x7d214534708608f6),
    ("Triang(44)", "R_Probe_CW", 0x095221ac68216cdd),
    ("Wheel(16)", "Probe_CW", 0xca6f994467cec189),
    ("Wheel(16)", "R_Probe_CW", 0x4557f0d1b2c7640c),
    ("Tree(5)", "Probe_Tree", 0xfe091b93a8ca671d),
    ("Tree(5)", "R_Probe_Tree", 0x33aa04a4d5d80aa0),
    ("Tree(9)", "Probe_Tree", 0x186934c9474d10bd),
    ("Tree(9)", "R_Probe_Tree", 0x34d288b501ad1f1b),
    ("HQS(4)", "Probe_HQS", 0xe0860012ea0b4c0f),
    ("HQS(4)", "R_Probe_HQS", 0xd50fba8734f05e4a),
    ("HQS(4)", "IR_Probe_HQS", 0xd9c4a4f12f2f1aeb),
    ("HQS(6)", "Probe_HQS", 0xf2d407aebf20d4f6),
    ("HQS(6)", "R_Probe_HQS", 0xe1683a2535cd0441),
    ("HQS(6)", "IR_Probe_HQS", 0x5a469fa798e253a7),
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

fn digest<S: QuorumSystem>(system: &S, strategy: &dyn ProbeStrategy<S>) -> u64 {
    let n = system.universe_size();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for (pi, &p) in PS.iter().enumerate() {
        for index in 0..COLORINGS {
            let mut rng = StdRng::seed_from_u64((pi as u64) << 32 | index);
            let coloring = Coloring::from_fn(n, |_| {
                if rng.gen_bool(p) {
                    Color::Red
                } else {
                    Color::Green
                }
            });
            let run = run_strategy(system, strategy, &coloring, &mut rng);
            hash.word(run.sequence.len() as u64);
            for &e in &run.sequence {
                hash.word(e as u64);
            }
            hash.word(match run.witness.kind() {
                WitnessKind::GreenQuorum => 0,
                WitnessKind::RedQuorum => 1,
            });
            for &word in run.witness.elements().words() {
                hash.word(word);
            }
            hash.word(rng.next_u64());
        }
    }
    hash.0
}

fn push<S: QuorumSystem>(
    out: &mut Vec<(String, String, u64)>,
    label: String,
    system: &S,
    strategies: &[&dyn ProbeStrategy<S>],
) {
    for strategy in strategies {
        out.push((label.clone(), strategy.name(), digest(system, *strategy)));
    }
}

/// Every (system, strategy) cell with its digest on the current code.
fn computed() -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    for n in [101, 1023] {
        let maj = Majority::new(n).unwrap();
        push(
            &mut out,
            format!("Maj({n})"),
            &maj,
            &[&ProbeMaj, &RProbeMaj],
        );
    }
    for (label, wall) in [
        ("Triang(10)", CrumblingWalls::triang(10)),
        ("Triang(44)", CrumblingWalls::triang(44)),
        ("Wheel(16)", CrumblingWalls::wheel(16)),
    ] {
        push(
            &mut out,
            label.to_string(),
            &wall.unwrap(),
            &[&ProbeCw, &RProbeCw],
        );
    }
    for height in [5, 9] {
        let tree = TreeQuorum::new(height).unwrap();
        push(
            &mut out,
            format!("Tree({height})"),
            &tree,
            &[&ProbeTree, &RProbeTree],
        );
    }
    for height in [4, 6] {
        let hqs = Hqs::new(height).unwrap();
        push(
            &mut out,
            format!("HQS({height})"),
            &hqs,
            &[&ProbeHqs, &RProbeHqs, &IrProbeHqs],
        );
    }
    out
}

#[test]
fn paper_strategy_transcripts_match_their_pinned_digests() {
    let computed = computed();
    let table: String = computed
        .iter()
        .map(|(system, strategy, digest)| {
            format!("    (\"{system}\", \"{strategy}\", {digest:#018x}),\n")
        })
        .collect();
    let pinned: Vec<(String, String, u64)> = PINNED
        .iter()
        .map(|&(system, strategy, digest)| (system.to_string(), strategy.to_string(), digest))
        .collect();
    assert_eq!(
        computed, pinned,
        "probe transcripts moved; the current digests are:\n{table}"
    );
}
