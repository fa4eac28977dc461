//! Pins churn timelines and the `ln` bits their sojourn draws rest on.
//!
//! `churn_walks_match_their_pinned_digest` folds, into one FNV-1a digest,
//! every step's `ColoringDelta::entries()` of four both-sparse
//! (2⁻¹², 2⁻⁶) walks at n = 4 096, 4 097, 8 191 and 65 536, each walked past
//! its horizon once and restarted as a fresh walker, then `coloring_at` at
//! scattered steps (some past the horizon, so they wrap), then one dense
//! (0.2, 0.6) walk and one mixed (0.01, 0.5) walk, which step word by word.
//! A change to how the walk stores or visits its sojourn clocks must leave
//! it as pinned; a change that means to move a churn stream re-pins it and
//! says why.
//!
//! `ln_bits_match_their_pinned_digest` is the canary under those streams:
//! the sparse churn sampler and the cluster engine's exponential both call
//! `f64::ln`, which is the platform libm's `log`. It pins the bits of `ln`
//! on inputs built exactly as the two draw them, so a libm whose `log`
//! differs fails this test by name, not only every churn and engine digest.

use quorum_core::{Coloring, ColoringDelta};
use quorum_sim::ChurnTrajectory;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The digest of every walk, read and word-stepped timeline below.
const PINNED_WALKS: u64 = 0xa8066d6f1191da9f;

/// The digest of `ln`'s bits on both constructions' inputs.
const PINNED_LN: u64 = 0xbbbfbb6d7d1e1606;

/// FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn delta(&mut self, delta: &ColoringDelta) {
        self.word(delta.entries().len() as u64);
        for &(w, mask) in delta.entries() {
            self.word(u64::from(w));
            self.word(mask);
        }
    }

    fn coloring(&mut self, coloring: &Coloring) {
        self.word(coloring.universe_size() as u64);
        for &w in coloring.red_words() {
            self.word(w);
        }
    }
}

/// Walks `walked` steps of `trajectory`, starting a fresh walker whenever
/// one reaches the horizon, and folds every step's delta and each walk's
/// last coloring.
fn fold_walk(hash: &mut Fnv, trajectory: &ChurnTrajectory, walked: usize) {
    let mut walker = trajectory.walk();
    for _ in 0..walked {
        if walker.remaining() == 0 {
            walker = trajectory.walk();
        }
        let last = walker.remaining() == 1;
        let (coloring, delta) = walker.step().expect("the walker has steps left");
        hash.delta(delta);
        if last {
            hash.coloring(coloring);
        }
    }
}

#[test]
fn churn_walks_match_their_pinned_digest() {
    let mut hash = Fnv::new();
    let (fail, repair) = (1.0 / 4096.0, 1.0 / 64.0);
    for (n, horizon, walked, seed) in [
        (4096, 200_000, 250_000, 1),
        (4097, 200_000, 250_000, 2),
        (8191, 200_000, 250_000, 3),
        (65_536, 60_000, 75_000, 4),
    ] {
        let trajectory = ChurnTrajectory::generate(n, fail, repair, horizon, seed);
        fold_walk(&mut hash, &trajectory, walked);
        let h = horizon as u64;
        for t in [h - 1, 17, h / 2, h + 4_099, 3 * h + 1, h / 3, 0, 2 * h - 1] {
            hash.coloring(&trajectory.coloring_at(t));
        }
    }
    for (fail, repair, seed) in [(0.2, 0.6, 5), (0.01, 0.5, 6)] {
        let trajectory = ChurnTrajectory::generate(1_000, fail, repair, 3_000, seed);
        fold_walk(&mut hash, &trajectory, 4_000);
        hash.coloring(&trajectory.coloring_at(7_777));
    }
    assert_eq!(
        hash.0, PINNED_WALKS,
        "churn timelines moved; the current digest is {:#018x}",
        hash.0
    );
}

#[test]
fn ln_bits_match_their_pinned_digest() {
    // Raw words: a few that hit the ends of both ranges, then a stream.
    let mut rng = StdRng::seed_from_u64(11);
    let raws: Vec<u64> = [
        0,
        1 << 11,
        (1 << 11) - 1,
        1 << 63,
        u64::MAX - (1 << 11),
        u64::MAX,
    ]
    .into_iter()
    .chain((0..4096).map(|_| rng.next_u64()))
    .collect();
    let mut hash = Fnv::new();
    for &r in &raws {
        // The churn sampler's uniform on (0, 1].
        let u = ((r >> 11) + 1) as f64 / (1u64 << 53) as f64;
        hash.word(u.ln().to_bits());
        // The engine exponential's `1 − u`, with u uniform on [0, 1).
        let u = (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        hash.word((1.0 - u).ln().to_bits());
    }
    assert_eq!(
        hash.0, PINNED_LN,
        "f64::ln returned other bits than the pinned libm; every churn and \
         engine stream that draws through it moves too. The current digest is {:#018x}",
        hash.0
    );
}
