//! Failure models: distributions over colorings used to drive experiments.
//!
//! The paper analyses two input regimes — i.i.d. failures and an adversarial
//! worst case. Real deployments sit in between: machines in one rack or
//! availability zone fail *together*, failure probabilities differ per host,
//! and the failure set *churns* over time. This module models all of these
//! as first-class [`FailureModel`] variants so the evaluation engine can
//! sweep from the paper's assumptions to correlated, heterogeneous and
//! time-varying scenarios without changing any probing code.

use std::sync::{Arc, Mutex};

use quorum_analysis::availability::{zone_of, zoned_params};
use quorum_core::lanes::{bernoulli_lane_rows, bernoulli_lane_words, bernoulli_lanes, LANE_TRIALS};
use quorum_core::{Color, Coloring, ColoringDelta, Organizations, WORD_BITS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many replay cursors a [`ChurnTrajectory`] keeps warm for random
/// access. Each cursor is one coloring, one RNG state, the coloring's rank
/// index and the flips of its last step, so the cap bounds the trajectory's
/// memory at a fixed multiple of one coloring regardless of how many threads
/// stream it.
const MAX_POOLED_CURSORS: usize = 32;

/// A streaming fail/repair Markov trajectory over colorings.
///
/// Each element is an independent two-state Markov chain: a green element
/// turns red with probability `fail` per step, a red element turns green with
/// probability `repair`. The initial coloring is drawn from the stationary
/// distribution (red with probability `fail / (fail + repair)`), so the
/// trajectory is in steady state from step 0 and its time averages estimate
/// stationary expectations without burn-in.
///
/// Steps are **not stored**. The trajectory holds only the step-0 baseline
/// coloring and the RNG state that follows it; every later step is
/// re-derived on demand and XORed into the current words. Memory is
/// therefore constant at any horizon — a million-step timeline costs the
/// same as a ten-step one.
///
/// Each direction of a step (green→red at `fail`, red→green at `repair`)
/// draws its hits with one of two samplers, chosen once per rate at
/// construction as a pure function of `(fail, repair)`:
///
/// * the **dense** path draws one binary-expansion Bernoulli mask per 64
///   elements, `32 − tz(round(p·2³²))` RNG words per word whether or not
///   anything flips;
/// * the **sparse** path draws geometric gaps between hits over the
///   eligible (green or red) elements: one RNG word per flip plus one per
///   direction per step.
///
/// Each rate takes whichever path is expected to cost less per step at
/// stationarity, where each direction flips a `fail·repair/(fail + repair)`
/// share of the elements per step, with a sparse hit costing as much as 30
/// dense RNG words (measured against an earlier per-word scan): the dense
/// path for fast churn such as `(0.2, 0.6)`, the sparse one for low rates
/// such as `(2⁻¹², 2⁻⁶)`. Both flip every eligible element independently
/// with its rate (up to the `2⁻³³` quantisation of the dense masks and the
/// `f64` rounding of the sparse path's inversion).
///
/// When both directions are sparse, a step never visits the words without
/// hits: a Fenwick tree over the per-word red counts (4 bytes per 64
/// elements, built once by [`ChurnTrajectory::generate`] and copied into
/// every walker and replay cursor) turns each hit's rank into its word in
/// `O(log(n/64))`, so a step costs
/// `O(flips · log n)`. Hits are consumed in ascending word order, a word's
/// fail hits before its repair hits, and every rank is taken against the
/// step's starting coloring, so the index takes a step's flips only after
/// the step. When either direction is dense, a step visits every word: one
/// mask draw per dense direction, and one popcount to rank a sparse
/// direction's hits.
///
/// The coloring at step `t` is a pure function of `(seed, t)`, which is what
/// keeps churn experiments bit-identical across engine thread counts:
/// parallel trials that ask for the same step always see the same coloring,
/// however the replay cursors behind [`ChurnTrajectory::coloring_into`] are
/// scheduled. Sequential consumers should prefer [`ChurnTrajectory::walk`],
/// which additionally exposes each step's [`ColoringDelta`] for incremental
/// re-evaluation.
#[derive(Debug)]
pub struct ChurnTrajectory {
    n: usize,
    fail: f64,
    repair: f64,
    seed: u64,
    steps: usize,
    /// The sampler of each direction, fixed by `(fail, repair)`.
    transitions: Transitions,
    /// The step-0 coloring (stationary draw).
    baseline: Coloring,
    /// The RNG state immediately after drawing the baseline; cloning it
    /// replays the transition stream from step 0 deterministically.
    rng_after_init: StdRng,
    /// The baseline's rank index (empty unless both directions are sparse).
    index: RankIndex,
    /// Warm replay cursors for random access, most recently used at the back.
    cursors: Mutex<Vec<ChurnCursor>>,
}

/// One replay position: the coloring at `position`, the RNG state ready to
/// advance it to `position + 1`, the coloring's rank index, and the flips of
/// the step that reached `position`.
#[derive(Debug)]
struct ChurnCursor {
    position: usize,
    coloring: Coloring,
    rng: StdRng,
    index: RankIndex,
    delta: ColoringDelta,
}

impl ChurnCursor {
    /// Advances one Markov step; `delta` takes the step's flips.
    fn step(&mut self, transitions: Transitions) {
        churn_step(
            transitions,
            &mut self.rng,
            &mut self.coloring,
            &mut self.index,
            &mut self.delta,
        );
        self.position += 1;
    }
}

impl Clone for ChurnTrajectory {
    fn clone(&self) -> Self {
        ChurnTrajectory {
            n: self.n,
            fail: self.fail,
            repair: self.repair,
            seed: self.seed,
            steps: self.steps,
            transitions: self.transitions,
            baseline: self.baseline.clone(),
            rng_after_init: self.rng_after_init.clone(),
            index: self.index.clone(),
            cursors: Mutex::new(Vec::new()),
        }
    }
}

impl PartialEq for ChurnTrajectory {
    /// Two trajectories are equal iff their parameters are: the timeline is
    /// a pure function of `(n, fail, repair, steps, seed)`, so parameter
    /// equality is timeline equality (cursor pools are just caches).
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.fail == other.fail
            && self.repair == other.repair
            && self.seed == other.seed
            && self.steps == other.steps
    }
}

impl ChurnTrajectory {
    /// Creates a trajectory of `steps` colorings for `n` elements. Only the
    /// step-0 baseline is sampled here; later steps stream on demand.
    ///
    /// # Panics
    ///
    /// Panics if `fail`/`repair` are not probabilities, both are zero (the
    /// chain would have no stationary distribution), or `steps == 0`.
    pub fn generate(n: usize, fail: f64, repair: f64, steps: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fail),
            "fail must be a probability, got {fail}"
        );
        assert!(
            (0.0..=1.0).contains(&repair),
            "repair must be a probability, got {repair}"
        );
        assert!(
            fail + repair > 0.0,
            "fail and repair cannot both be zero: the chain never moves"
        );
        assert!(steps > 0, "a trajectory needs at least one step");

        let mut rng = StdRng::seed_from_u64(seed);
        let stationary_red = fail / (fail + repair);
        let mut baseline = Coloring::all_green(n);
        fill_word_bernoulli(stationary_red, &mut rng, &mut baseline);
        let transitions = Transitions::choose(fail, repair);
        let index = match transitions.skips() {
            Some(_) => RankIndex::new(&baseline),
            None => RankIndex::default(),
        };
        ChurnTrajectory {
            n,
            fail,
            repair,
            seed,
            steps,
            transitions,
            baseline,
            rng_after_init: rng,
            index,
            cursors: Mutex::new(Vec::new()),
        }
    }

    /// Universe size of every coloring in the trajectory.
    pub fn universe_size(&self) -> usize {
        self.n
    }

    /// Number of time steps. Never zero — construction requires at least one
    /// step, which is why there is no `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.steps
    }

    /// The per-step fail probability of a green element.
    pub fn fail_rate(&self) -> f64 {
        self.fail
    }

    /// The per-step repair probability of a red element.
    pub fn repair_rate(&self) -> f64 {
        self.repair
    }

    /// The stationary red fraction `fail / (fail + repair)`.
    pub fn stationary_red_fraction(&self) -> f64 {
        self.fail / (self.fail + self.repair)
    }

    /// The seed the timeline is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Writes the coloring at time step `t` (wrapping around modulo the
    /// length, so trial indices beyond the horizon replay the timeline) into
    /// a caller-owned scratch coloring.
    ///
    /// Random access is served by a small pool of warm replay cursors: a
    /// request at step `t` resumes the nearest cursor at or before `t` and
    /// advances it, so the engine's per-shard sequential trial order costs
    /// O(1) amortised steps per trial. The result is independent of cursor
    /// scheduling — step `t` is a pure function of `(seed, t)`.
    pub fn coloring_into(&self, t: u64, out: &mut Coloring) {
        let target = (t % self.steps as u64) as usize;
        let cursor = self.checkout(target);
        out.copy_from(&cursor.coloring);
        self.checkin(cursor);
    }

    /// The coloring at time step `t` (wrapping modulo the length), as an
    /// owned value. Hot paths should prefer [`ChurnTrajectory::coloring_into`]
    /// or [`ChurnTrajectory::walk`].
    pub fn coloring_at(&self, t: u64) -> Coloring {
        let mut out = Coloring::all_green(0);
        self.coloring_into(t, &mut out);
        out
    }

    /// A sequential walker over the timeline that exposes, at every step,
    /// the coloring **and** the [`ColoringDelta`] from the previous step —
    /// the streaming input of incremental (delta) re-evaluation.
    pub fn walk(&self) -> ChurnWalker<'_> {
        let mut cursor = self.fresh_cursor();
        // Room for one entry per word, so a step never allocates.
        for w in 0..self.baseline.word_count() {
            cursor.delta.push_word(w, 1);
        }
        cursor.delta.clear();
        ChurnWalker {
            trajectory: self,
            next_step: 0,
            cursor,
        }
    }

    /// Iterates over the trajectory's colorings in time order, yielding owned
    /// snapshots. Memory stays constant; each item is a fresh clone of the
    /// walker's current coloring.
    pub fn iter(&self) -> impl Iterator<Item = Coloring> + '_ {
        let mut walker = self.walk();
        std::iter::from_fn(move || walker.step().map(|(coloring, _)| coloring.clone()))
    }

    /// Visits `count` consecutive absolute time steps starting at `start`,
    /// wrapping modulo the horizon. The callback receives the offset from
    /// `start`, the coloring, and the delta from the previous visited step
    /// (empty on the first visit; a wrap back to step 0 reports the diff
    /// against the final step). Used by the lane fill, which only needs the
    /// flipped bits after its initial broadcast.
    fn visit_range(
        &self,
        start: u64,
        count: usize,
        mut f: impl FnMut(usize, &Coloring, &ColoringDelta),
    ) {
        if count == 0 {
            return;
        }
        let steps = self.steps as u64;
        let mut cursor = self.checkout((start % steps) as usize);
        cursor.delta.clear();
        f(0, &cursor.coloring, &cursor.delta);
        for i in 1..count {
            let at = (start + i as u64) % steps;
            if at == 0 {
                // Wrap: jump back to the baseline and report the jump as a
                // plain diff — the replay is a cycle, not a Markov step.
                cursor.coloring.diff_into(&self.baseline, &mut cursor.delta);
                cursor.coloring.copy_from(&self.baseline);
                cursor.rng = self.rng_after_init.clone();
                cursor.index.clone_from(&self.index);
                cursor.position = 0;
            } else {
                cursor.step(self.transitions);
            }
            f(i, &cursor.coloring, &cursor.delta);
        }
        self.checkin(cursor);
    }

    /// A fresh cursor parked at step 0.
    fn fresh_cursor(&self) -> ChurnCursor {
        ChurnCursor {
            position: 0,
            coloring: self.baseline.clone(),
            rng: self.rng_after_init.clone(),
            index: self.index.clone(),
            delta: ColoringDelta::empty(self.n),
        }
    }

    /// Takes the warm cursor closest at-or-before `target` (or a fresh one)
    /// and advances it to `target`. The advance runs outside the pool lock.
    fn checkout(&self, target: usize) -> ChurnCursor {
        let mut cursor = {
            let mut pool = self.cursors.lock().expect("cursor pool poisoned");
            let best = pool
                .iter()
                .enumerate()
                .filter(|(_, c)| c.position <= target)
                .max_by_key(|&(_, c)| c.position)
                .map(|(i, _)| i);
            match best {
                Some(i) => pool.remove(i),
                None => self.fresh_cursor(),
            }
        };
        while cursor.position < target {
            cursor.step(self.transitions);
        }
        cursor
    }

    /// Returns a cursor to the pool, evicting the least recently used one if
    /// the pool is full (the back of the vector is the warmest).
    fn checkin(&self, cursor: ChurnCursor) {
        let mut pool = self.cursors.lock().expect("cursor pool poisoned");
        pool.push(cursor);
        if pool.len() > MAX_POOLED_CURSORS {
            pool.remove(0);
        }
    }
}

/// A sequential walker over a [`ChurnTrajectory`]: each [`ChurnWalker::step`]
/// advances one time step and lends the coloring plus the delta from the
/// previous step. The first step yields the baseline with an empty delta.
///
/// This is the streaming interface of the delta engine: an incremental
/// evaluator consumes `(coloring, delta)` pairs without the trajectory ever
/// materialising more than one step.
#[derive(Debug)]
pub struct ChurnWalker<'a> {
    trajectory: &'a ChurnTrajectory,
    next_step: usize,
    cursor: ChurnCursor,
}

impl ChurnWalker<'_> {
    /// Advances to the next time step and lends `(coloring, delta)`, or
    /// `None` once the horizon is exhausted. The delta takes the previously
    /// yielded coloring to the current one (empty on the first step).
    #[allow(clippy::should_implement_trait)]
    pub fn step(&mut self) -> Option<(&Coloring, &ColoringDelta)> {
        if self.next_step >= self.trajectory.steps {
            return None;
        }
        if self.next_step > 0 {
            self.cursor.step(self.trajectory.transitions);
        }
        self.next_step += 1;
        Some((&self.cursor.coloring, &self.cursor.delta))
    }

    /// The step index of the most recently yielded coloring, if any.
    pub fn position(&self) -> Option<usize> {
        self.next_step.checked_sub(1)
    }

    /// How many steps remain.
    pub fn remaining(&self) -> usize {
        self.trajectory.steps - self.next_step
    }
}

/// Overwrites `out` with an i.i.d. Bernoulli(`p_red`) coloring: one
/// word-packed binary-expansion draw per 64 elements.
fn fill_word_bernoulli<R: Rng + ?Sized>(p_red: f64, rng: &mut R, out: &mut Coloring) {
    for w in 0..out.word_count() {
        out.set_red_word(w, bernoulli_lanes(p_red, || rng.next_u64()));
    }
}

/// What one sparse-path hit costs, in RNG words of the dense path: the gap
/// draw (an `ln`) plus finding the hit in its word. Measured on 4096
/// elements (x86-64, 2-vCPU VM) against the per-word scan of
/// [`step_words`], before both-sparse steps ranked their hits through a
/// [`RankIndex`]: a hit took 44 ns against 1.4–1.5 ns per mask word, and at
/// fail:repair = 1:3 the two paths tie near fail 0.0225, where this rule
/// with 30 ties too. It now overstates a both-sparse hit, but it stays
/// because it selects each rate's sampler, and with it the rate's RNG
/// stream.
const SKIP_HIT_COST: f64 = 30.0;

/// How one direction of a churn step draws its hits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RateSampler {
    /// One binary-expansion Bernoulli(`p`) mask per 64 elements.
    Dense(f64),
    /// Geometric gaps between hits over the eligible elements; the payload is
    /// `1 / ln(1 − p)`.
    Skip(f64),
}

impl RateSampler {
    /// The cheaper sampler for rate `p` when a `flip_rate` share of the
    /// elements flips per step in each direction: the dense path draws
    /// `32 − tz(round(p·2³²))` words per 64 elements (counted here from the
    /// fill itself), the sparse one about one gap per flip.
    fn choose(p: f64, flip_rate: f64) -> Self {
        let mut dense_words = 0u32;
        bernoulli_lanes(p, || {
            dense_words += 1;
            0
        });
        if SKIP_HIT_COST * flip_rate * (WORD_BITS as f64) < f64::from(dense_words) {
            RateSampler::Skip(1.0 / (-p).ln_1p())
        } else {
            RateSampler::Dense(p)
        }
    }
}

/// The samplers of a trajectory's two directions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transitions {
    fail: RateSampler,
    repair: RateSampler,
}

impl Transitions {
    /// Chooses each direction's sampler, a pure function of the rates: at
    /// stationarity green→red and red→green each flip
    /// `fail·repair/(fail + repair)` of the elements per step.
    fn choose(fail: f64, repair: f64) -> Self {
        let flip_rate = fail * repair / (fail + repair);
        Transitions {
            fail: RateSampler::choose(fail, flip_rate),
            repair: RateSampler::choose(repair, flip_rate),
        }
    }

    /// Both directions' `1 / ln(1 − p)` when both are sparse: the steps that
    /// rank their hits through a [`RankIndex`].
    fn skips(self) -> Option<(f64, f64)> {
        match (self.fail, self.repair) {
            (RateSampler::Skip(fail), RateSampler::Skip(repair)) => Some((fail, repair)),
            _ => None,
        }
    }
}

/// One direction's hits within one step, drawn word by word in element
/// order.
struct Hits {
    sampler: RateSampler,
    /// Sparse path: eligible elements in the words already visited.
    seen: usize,
    /// Sparse path: the rank, among the eligible elements, of the next hit.
    next: usize,
}

impl Hits {
    /// Starts a step; the sparse path draws its first gap here.
    fn start<R: Rng + ?Sized>(sampler: RateSampler, rng: &mut R) -> Self {
        let next = match sampler {
            RateSampler::Dense(_) => 0,
            RateSampler::Skip(inv_ln_stay) => skip_gap(inv_ln_stay, rng),
        };
        Hits {
            sampler,
            seen: 0,
            next,
        }
    }

    /// The hits among `eligible`, the `count` eligible bits of the next word.
    #[inline]
    fn word<R: Rng + ?Sized>(&mut self, eligible: u64, count: usize, rng: &mut R) -> u64 {
        match self.sampler {
            RateSampler::Dense(p) => bernoulli_lanes(p, || rng.next_u64()) & eligible,
            RateSampler::Skip(inv_ln_stay) => {
                let end = self.seen + count;
                let hits = if self.next < end {
                    self.skip_hits(eligible, end, inv_ln_stay, rng)
                } else {
                    0
                };
                self.seen = end;
                hits
            }
        }
    }

    /// The sparse path's hits in a word holding at least one: selects the
    /// bit of each hit's rank, then skips to the next. Out of line, so the
    /// per-word check in [`Hits::word`] inlines; that halved the cost of a
    /// step without hits.
    #[inline(never)]
    fn skip_hits<R: Rng + ?Sized>(
        &mut self,
        eligible: u64,
        end: usize,
        inv_ln_stay: f64,
        rng: &mut R,
    ) -> u64 {
        let mut hits = 0;
        while self.next < end {
            let mut rest = eligible;
            for _ in self.seen..self.next {
                rest &= rest - 1;
            }
            hits |= rest & rest.wrapping_neg();
            self.next = (self.next + 1).saturating_add(skip_gap(inv_ln_stay, rng));
        }
        hits
    }
}

/// A geometric gap `⌊ln U / ln(1 − p)⌋` with `U` uniform on (0, 1]: the
/// number of eligible elements before the next hit when each is hit with
/// probability `p`. Saturates at `usize::MAX` for gaps beyond any universe.
fn skip_gap<R: Rng + ?Sized>(inv_ln_stay: f64, rng: &mut R) -> usize {
    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    (u.ln() * inv_ln_stay) as usize
}

/// Advances `coloring` one Markov step and records its flips in `delta`:
/// the one step function behind [`ChurnWalker`] and the replay cursors. A
/// both-sparse step ranks its hits through `index` ([`step_ranked`]), which
/// takes the flips once the step is done; any other step visits every word
/// ([`step_words`]) and leaves the (empty) index alone.
fn churn_step<R: Rng + ?Sized>(
    transitions: Transitions,
    rng: &mut R,
    coloring: &mut Coloring,
    index: &mut RankIndex,
    delta: &mut ColoringDelta,
) {
    delta.clear();
    match transitions.skips() {
        Some(skips) => {
            step_ranked(skips, rng, coloring, index, |w, flips| {
                delta.push_word(w, flips)
            });
            index.take_flips(coloring, delta);
        }
        None => step_words(transitions, rng, coloring, |w, flips| {
            delta.push_word(w, flips)
        }),
    }
}

/// The per-word red counts of a coloring in a Fenwick tree, so that the
/// word holding the green or red element of a given rank is found, and a
/// word's count changed, in `O(log(n/64))` steps. Green counts follow from
/// the word sizes, so one `u32` per word serves both directions.
#[derive(Debug, Clone, Default)]
struct RankIndex {
    /// Universe size, which sizes the partial tail word.
    n: usize,
    /// Node `i` (1-based) holds the red count of words `i − lowbit(i) .. i`.
    tree: Vec<u32>,
}

impl RankIndex {
    /// Indexes `coloring`: one popcount per word, then a linear build.
    fn new(coloring: &Coloring) -> Self {
        let mut tree: Vec<u32> = coloring
            .red_words()
            .iter()
            .map(|w| w.count_ones())
            .collect();
        for node in 1..=tree.len() {
            let parent = node + (node & node.wrapping_neg());
            if parent <= tree.len() {
                tree[parent - 1] += tree[node - 1];
            }
        }
        RankIndex {
            n: coloring.universe_size(),
            tree,
        }
    }

    /// The word holding the eligible element of rank `rank` (0-based), and
    /// that element's rank among the word's eligible ones; the word count if
    /// at most `rank` elements are eligible. The eligible elements are the
    /// green ones when `green` is set, else the red ones.
    fn locate(&self, mut rank: usize, green: bool) -> (usize, usize) {
        let words = self.tree.len();
        let mut word = 0;
        let mut span = words.checked_ilog2().map_or(0, |log| 1 << log);
        while span > 0 {
            let end = word + span;
            if end <= words {
                let reds = self.tree[end - 1] as usize;
                let count = if green {
                    (end * WORD_BITS).min(self.n) - word * WORD_BITS - reds
                } else {
                    reds
                };
                if rank >= count {
                    word = end;
                    rank -= count;
                }
            }
            span >>= 1;
        }
        (word, rank)
    }

    /// Takes a finished step's flips: `coloring` is the step's result and
    /// `delta` its flips.
    fn take_flips(&mut self, coloring: &Coloring, delta: &ColoringDelta) {
        for &(w, flips) in delta.entries() {
            let red = coloring.red_words()[w as usize];
            let change = red.count_ones().wrapping_sub((red ^ flips).count_ones());
            let mut node = w as usize + 1;
            while node <= self.tree.len() {
                self.tree[node - 1] = self.tree[node - 1].wrapping_add(change);
                node += node & node.wrapping_neg();
            }
        }
    }
}

/// The set bit of `word` with rank `rank` (0-based from the least
/// significant bit), as a mask: byte popcounts and their running sums find
/// its byte without a loop, then clearing low bits finds it within the byte.
/// `rank` must be below `word.count_ones()`.
fn select_bit(word: u64, rank: usize) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    debug_assert!(rank < word.count_ones() as usize);
    let mut bytes = word - ((word >> 1) & 0x5555_5555_5555_5555);
    bytes = (bytes & 0x3333_3333_3333_3333) + ((bytes >> 2) & 0x3333_3333_3333_3333);
    bytes = (bytes + (bytes >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte i of `through` counts the set bits of bytes 0..=i. A byte of
    // `reached` has its high bit set iff that count is at most `rank`;
    // those bytes form a prefix, and the byte after them holds the bit.
    let through = bytes.wrapping_mul(ONES);
    let reached = ((((rank as u64) * ONES) | HIGHS) - through) & HIGHS;
    let shift = (!reached & HIGHS).trailing_zeros() & !7;
    let before = ((through << 8) >> shift) & 0xFF;
    let mut rest = (word >> shift) & 0xFF;
    for _ in before..rank as u64 {
        rest &= rest - 1;
    }
    (rest & rest.wrapping_neg()) << shift
}

/// One direction's hits within a both-sparse step, located through the
/// step's starting [`RankIndex`].
struct RankedHits {
    inv_ln_stay: f64,
    /// Fail hits rank the green elements, repair hits the red ones.
    green: bool,
    /// The rank, among the eligible elements, of the next hit.
    next: usize,
    /// The word holding the next hit (the word count once none is left) and
    /// the hit's rank among that word's eligible elements.
    word: usize,
    rank_in_word: usize,
}

impl RankedHits {
    /// Starts a step: draws the first gap and locates its hit.
    fn start<R: Rng + ?Sized>(
        inv_ln_stay: f64,
        green: bool,
        index: &RankIndex,
        rng: &mut R,
    ) -> Self {
        let next = skip_gap(inv_ln_stay, rng);
        let (word, rank_in_word) = index.locate(next, green);
        RankedHits {
            inv_ln_stay,
            green,
            next,
            word,
            rank_in_word,
        }
    }

    /// The hits in word `w`, whose eligible elements are `eligible`; each
    /// hit draws the gap to the next, which is then located.
    fn take<R: Rng + ?Sized>(
        &mut self,
        w: usize,
        eligible: u64,
        index: &RankIndex,
        rng: &mut R,
    ) -> u64 {
        let mut hits = 0;
        while self.word == w {
            hits |= select_bit(eligible, self.rank_in_word);
            self.next = (self.next + 1).saturating_add(skip_gap(self.inv_ln_stay, rng));
            (self.word, self.rank_in_word) = index.locate(self.next, self.green);
        }
        hits
    }
}

/// A both-sparse step (`skips` holds each direction's `1 / ln(1 − p)`)
/// that visits only the words holding hits. It draws and consumes exactly
/// what [`step_words`] does, in the same order: the fail gap, the repair
/// gap, then the words with hits in ascending order, each word's fail hits
/// (one gap each) before its repair hits. `index` holds the step's starting
/// red counts, against which every rank is taken, so it must take the flips
/// only after the step. `on_flips` observes each word's nonzero flip mask.
fn step_ranked<R: Rng + ?Sized>(
    (fail, repair): (f64, f64),
    rng: &mut R,
    coloring: &mut Coloring,
    index: &RankIndex,
    mut on_flips: impl FnMut(usize, u64),
) {
    let n = coloring.universe_size();
    let words = coloring.word_count();
    let mut fail = RankedHits::start(fail, true, index, rng);
    let mut repair = RankedHits::start(repair, false, index, rng);
    loop {
        let w = fail.word.min(repair.word);
        if w >= words {
            break;
        }
        let red = coloring.red_words()[w];
        let live = if (w + 1) * WORD_BITS > n {
            (1u64 << (n % WORD_BITS)) - 1
        } else {
            u64::MAX
        };
        let turn_red = fail.take(w, !red & live, index, rng);
        let flips = turn_red | repair.take(w, red, index, rng);
        coloring.set_red_word(w, red ^ flips);
        on_flips(w, flips);
    }
}

/// Advances a coloring one Markov step by visiting every word: green
/// elements turn red at the `fail` sampler's hits and red ones green at the
/// `repair` sampler's, both drawn against the step's starting coloring.
///
/// A dense sampler draws a 64-element Bernoulli mask per word; with both
/// dense, the RNG stream is the fail mask then the repair mask, word by
/// word. A sparse sampler draws one gap when the step starts and one per
/// hit, and ranks its hits by one popcount per word. A step therefore costs
/// a visit to every word however few elements flip. Trajectories with a
/// dense direction step here; both-sparse ones take [`step_ranked`], which
/// consumes the same draws in the same order, and for which this loop is
/// the test reference. `on_flips` observes each word's nonzero flip mask.
fn step_words<R: Rng + ?Sized>(
    transitions: Transitions,
    rng: &mut R,
    coloring: &mut Coloring,
    mut on_flips: impl FnMut(usize, u64),
) {
    let n = coloring.universe_size();
    let mut fail = Hits::start(transitions.fail, rng);
    let mut repair = Hits::start(transitions.repair, rng);
    for w in 0..coloring.word_count() {
        let red = coloring.red_words()[w];
        let bits = (n - (w * WORD_BITS).min(n)).min(WORD_BITS);
        let live = if bits == WORD_BITS {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let reds = red.count_ones() as usize;
        let turn_red = fail.word(!red & live, bits - reds, rng);
        let flips = turn_red | repair.word(red, reds, rng);
        if flips != 0 {
            coloring.set_red_word(w, red ^ flips);
            on_flips(w, flips);
        }
    }
}

/// A generator of colorings (failure patterns) for a universe of `n` elements.
///
/// The first three variants mirror the input models used in the paper; the
/// last three extend them toward production failure regimes:
///
/// * [`FailureModel::Iid`] — every element fails independently with
///   probability `p` (the probabilistic model of Section 3);
/// * [`FailureModel::ExactRedCount`] — a uniformly random coloring with
///   exactly `reds` failed elements (the hard distribution of Theorem 4.2);
/// * [`FailureModel::Fixed`] — a single adversarial coloring, for worst-case
///   probing experiments;
/// * [`FailureModel::Heterogeneous`] — element `e` fails independently with
///   its own probability `probs[e]` (hot spots, mixed hardware);
/// * [`FailureModel::Zoned`] — the universe is partitioned into contiguous
///   zones; a zone fails wholesale with probability `q`, elements of
///   surviving zones fail i.i.d. with probability `p`. Sweeping `q` at a
///   fixed marginal spans independent to fully-correlated failures;
/// * [`FailureModel::OrgZoned`] — the zoned model over explicit
///   [`Organizations`]: whole operators fail together with probability `q`,
///   then i.i.d. `p` among survivors and org-less elements;
/// * [`FailureModel::Churn`] — a seeded fail/repair Markov trajectory; trial
///   `t` observes the coloring at time step `t`, so mean probe counts are
///   **time averages** along a realistic failure timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureModel {
    /// Independent failures with probability `p`.
    Iid {
        /// The per-element failure probability.
        p: f64,
    },
    /// Uniformly random coloring with exactly the given number of red
    /// elements.
    ExactRedCount {
        /// Number of failed elements.
        reds: usize,
    },
    /// A fixed coloring returned on every sample.
    Fixed {
        /// The coloring to return.
        coloring: Coloring,
    },
    /// Independent failures with per-element probabilities.
    Heterogeneous {
        /// `probs[e]` is the failure probability of element `e`; the length
        /// pins the universe size.
        probs: Arc<Vec<f64>>,
    },
    /// Correlated zone failures: wholesale with probability `q`, then i.i.d.
    /// `p` inside surviving zones.
    Zoned {
        /// Number of contiguous zones the universe is partitioned into.
        zone_count: usize,
        /// Probability that a zone fails wholesale.
        q: f64,
        /// Failure probability of elements in surviving zones.
        p: f64,
    },
    /// Correlated organization failures: whole operators fail together.
    /// Each organization fails wholesale with probability `q`; elements of
    /// surviving organizations — and elements owned by no organization —
    /// fail i.i.d. with probability `p`. The org-structured counterpart of
    /// [`FailureModel::Zoned`]: groups are explicit (and need not be
    /// contiguous) instead of derived from element order.
    OrgZoned {
        /// The organization structure (pins the universe size).
        orgs: Arc<Organizations>,
        /// Probability that an organization fails wholesale.
        q: f64,
        /// Failure probability of elements in surviving organizations.
        p: f64,
    },
    /// A fail/repair Markov chain: trial `t` sees time step `t`.
    Churn {
        /// The seed-deterministic streaming timeline.
        trajectory: Arc<ChurnTrajectory>,
    },
}

impl FailureModel {
    /// Independent failures with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn iid(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        FailureModel::Iid { p }
    }

    /// Exactly `reds` failed elements, uniformly placed.
    pub fn exact_red_count(reds: usize) -> Self {
        FailureModel::ExactRedCount { reds }
    }

    /// Always the given coloring.
    pub fn fixed(coloring: Coloring) -> Self {
        FailureModel::Fixed { coloring }
    }

    /// Independent failures with per-element probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty or any entry is not a probability.
    pub fn heterogeneous(probs: Vec<f64>) -> Self {
        assert!(!probs.is_empty(), "need at least one element probability");
        for (e, &p) in probs.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&p),
                "probs[{e}] must be a probability, got {p}"
            );
        }
        FailureModel::Heterogeneous {
            probs: Arc::new(probs),
        }
    }

    /// Zone failures: `zone_count` contiguous zones, each failing wholesale
    /// with probability `q`; elements of surviving zones fail i.i.d. with
    /// probability `p`.
    ///
    /// With `q = 0` the model is **exactly** [`FailureModel::iid`] at `p`
    /// (same colorings for the same RNG stream — the zone draws are skipped),
    /// so correlation sweeps anchor bit-for-bit at the independent end.
    ///
    /// # Panics
    ///
    /// Panics if `zone_count == 0` or `q`/`p` are not probabilities.
    pub fn zoned(zone_count: usize, q: f64, p: f64) -> Self {
        assert!(zone_count >= 1, "need at least one zone");
        assert!((0.0..=1.0).contains(&q), "q must be a probability, got {q}");
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        FailureModel::Zoned { zone_count, q, p }
    }

    /// Zone failures parameterised by `(marginal, correlation)`: the
    /// per-element failure probability stays at `marginal` while
    /// `correlation` sweeps from 0 (i.i.d.) to 1 (zones fail wholesale).
    ///
    /// # Panics
    ///
    /// Panics if `zone_count == 0` or either argument is not a probability.
    pub fn zoned_correlated(zone_count: usize, marginal: f64, correlation: f64) -> Self {
        let (q, p) = zoned_params(marginal, correlation);
        FailureModel::zoned(zone_count, q, p)
    }

    /// Organization failures: each org of `orgs` fails wholesale with
    /// probability `q`; elements of surviving organizations (and
    /// independent, org-less elements) fail i.i.d. with probability `p`.
    ///
    /// With `q = 0` the model is **exactly** [`FailureModel::iid`] at `p`
    /// (same colorings for the same RNG stream — the org draws are skipped),
    /// so correlation sweeps anchor bit-for-bit at the independent end.
    ///
    /// # Panics
    ///
    /// Panics if `q`/`p` are not probabilities.
    pub fn org_zoned(orgs: Arc<Organizations>, q: f64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "q must be a probability, got {q}");
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        FailureModel::OrgZoned { orgs, q, p }
    }

    /// Organization failures parameterised by `(marginal, correlation)`: the
    /// per-element failure probability stays at `marginal` while
    /// `correlation` sweeps from 0 (i.i.d.) to 1 (organizations fail
    /// wholesale). Mirrors [`FailureModel::zoned_correlated`].
    ///
    /// # Panics
    ///
    /// Panics if either argument is not a probability.
    pub fn org_zoned_correlated(orgs: Arc<Organizations>, marginal: f64, correlation: f64) -> Self {
        let (q, p) = zoned_params(marginal, correlation);
        FailureModel::org_zoned(orgs, q, p)
    }

    /// A churn timeline generated from the given Markov parameters and seed
    /// (see [`ChurnTrajectory::generate`] for panics).
    pub fn churn(n: usize, fail: f64, repair: f64, steps: usize, seed: u64) -> Self {
        FailureModel::Churn {
            trajectory: Arc::new(ChurnTrajectory::generate(n, fail, repair, steps, seed)),
        }
    }

    /// A churn model over an existing (possibly shared) trajectory.
    pub fn churn_trajectory(trajectory: Arc<ChurnTrajectory>) -> Self {
        FailureModel::Churn { trajectory }
    }

    /// Samples a coloring for a universe of `n` elements.
    ///
    /// Time-dependent models ([`FailureModel::Churn`]) observe step 0; use
    /// [`FailureModel::sample_at`] to address a specific trial/time index.
    ///
    /// # Panics
    ///
    /// Panics on the model/universe mismatches documented on
    /// [`FailureModel::sample_into`].
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Coloring {
        self.sample_at(n, 0, rng)
    }

    /// Samples the coloring of trial `trial_index` for a universe of `n`
    /// elements. Only [`FailureModel::Churn`] depends on the index (it is the
    /// time step); every other model ignores it.
    pub fn sample_at<R: Rng + ?Sized>(&self, n: usize, trial_index: u64, rng: &mut R) -> Coloring {
        let mut coloring = Coloring::all_green(0);
        self.sample_into(n, trial_index, rng, &mut coloring);
        coloring
    }

    /// Samples into a caller-owned scratch coloring, avoiding per-trial
    /// allocations in the evaluation hot loop. The scratch is resized to `n`
    /// (a no-alloc reset once its capacity has grown to the largest universe
    /// it has seen).
    ///
    /// # Panics
    ///
    /// Panics if the model is [`FailureModel::ExactRedCount`] with more reds
    /// than elements, [`FailureModel::Fixed`] / [`FailureModel::Heterogeneous`]
    /// / [`FailureModel::Churn`] / [`FailureModel::OrgZoned`] with a universe
    /// that does not match `n`, or [`FailureModel::Zoned`] with more zones
    /// than elements.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        n: usize,
        trial_index: u64,
        rng: &mut R,
        out: &mut Coloring,
    ) {
        match self {
            FailureModel::Iid { p } => {
                out.reset(n, Color::Green);
                sample_iid_into(n, *p, rng, out);
            }
            FailureModel::ExactRedCount { reds } => {
                assert!(
                    *reds <= n,
                    "cannot place {reds} red elements in a universe of {n}"
                );
                // Partial Fisher–Yates over the first `reds` positions: start
                // with the reds packed into the prefix (one masked word-range
                // write) and shuffle only the slots a red can occupy. No
                // index vector, no allocation.
                out.reset(n, Color::Green);
                out.set_red_range(0, *reds);
                for i in 0..*reds {
                    let j = rng.gen_range(i..n);
                    out.swap(i, j);
                }
            }
            FailureModel::Fixed { coloring } => {
                assert_eq!(
                    coloring.universe_size(),
                    n,
                    "fixed coloring universe does not match the requested universe"
                );
                out.copy_from(coloring);
            }
            FailureModel::Heterogeneous { probs } => {
                assert_eq!(
                    probs.len(),
                    n,
                    "heterogeneous model has {} per-element probabilities but the universe has {n}",
                    probs.len()
                );
                out.reset(n, Color::Green);
                // Per-element thresholds accumulated into whole words: one
                // masked word write per 64 elements instead of 64 bit writes.
                for word_index in 0..out.word_count() {
                    let start = word_index * WORD_BITS;
                    let take = WORD_BITS.min(n - start.min(n));
                    let mut word = 0u64;
                    for (bit, &p) in probs[start..start + take].iter().enumerate() {
                        if draw_red(rng, p) {
                            word |= 1u64 << bit;
                        }
                    }
                    out.set_red_word(word_index, word);
                }
            }
            FailureModel::Zoned { zone_count, q, p } => {
                assert!(
                    *zone_count <= n,
                    "cannot partition {n} elements into {zone_count} zones"
                );
                out.reset(n, Color::Green);
                if *q == 0.0 {
                    // Exact specialization: no zone draws, so the RNG stream —
                    // and therefore every sampled coloring — matches Iid(p)
                    // bit for bit. Correlation sweeps anchor here.
                    sample_iid_into(n, *p, rng, out);
                    return;
                }
                let mut e = 0usize;
                while e < n {
                    let zone = zone_of(e, n, *zone_count);
                    let zone_end = {
                        let mut end = e + 1;
                        while end < n && zone_of(end, n, *zone_count) == zone {
                            end += 1;
                        }
                        end
                    };
                    if rng.gen_bool(*q) {
                        // Wholesale failure: one masked word-range write.
                        out.set_red_range(e, zone_end);
                    } else {
                        for member in e..zone_end {
                            if draw_red(rng, *p) {
                                out.set_color(member, Color::Red);
                            }
                        }
                    }
                    e = zone_end;
                }
            }
            FailureModel::OrgZoned { orgs, q, p } => {
                assert_eq!(
                    orgs.universe_size(),
                    n,
                    "organization structure universe does not match the requested universe"
                );
                out.reset(n, Color::Green);
                if *q == 0.0 {
                    // Exact specialization: no org draws, so the RNG stream —
                    // and therefore every sampled coloring — matches Iid(p)
                    // bit for bit. Correlation sweeps anchor here.
                    sample_iid_into(n, *p, rng, out);
                    return;
                }
                // Organizations in declaration order, then the independent
                // elements in ascending order — a fixed draw order keeps the
                // model seed-deterministic.
                for g in 0..orgs.group_count() {
                    if rng.gen_bool(*q) {
                        for &member in orgs.members(g) {
                            out.set_color(member, Color::Red);
                        }
                    } else {
                        for &member in orgs.members(g) {
                            if draw_red(rng, *p) {
                                out.set_color(member, Color::Red);
                            }
                        }
                    }
                }
                for e in 0..n {
                    if orgs.group_of(e).is_none() && draw_red(rng, *p) {
                        out.set_color(e, Color::Red);
                    }
                }
            }
            FailureModel::Churn { trajectory } => {
                assert_eq!(
                    trajectory.universe_size(),
                    n,
                    "churn trajectory universe does not match the requested universe"
                );
                trajectory.coloring_into(trial_index, out);
            }
        }
    }

    /// Samples an element-major block of **green trial lanes**: bit `t` of
    /// `out[e·width + w]` is 1 iff element `e` is green (alive) in trial
    /// `(first_trial_word + w)·64 + t`, where `width = rngs.len()`.
    ///
    /// This is the block-width bulk counterpart of
    /// [`FailureModel::sample_into`]: one call fills `width · 64` trials for
    /// the whole universe in the layout
    /// [`quorum_core::QuorumSystem::green_quorum_lane_block`] consumes.
    /// Purely RNG-driven models (i.i.d., heterogeneous, zoned) fill lanes
    /// straight from the exact binary-expansion sampler; per-trial structured
    /// models (exact red count, churn, fixed) transpose their colorings into
    /// lanes. The churn transpose is delta-driven: each trial word broadcasts
    /// its first coloring, then XORs `!0 << t` into the lane of every element
    /// that flips at offset `t` — work proportional to actual churn, not to
    /// `width · 64 · n`.
    ///
    /// Stream `w` of `rngs` is consumed element-sequentially and independently
    /// of the other streams, so **the bits are invariant under regrouping**:
    /// filling one trial word at a time or eight at once returns the same
    /// lanes as long as each trial word keeps its own RNG stream. (The lane
    /// fill draws the RNG differently from the scalar sampler, so the
    /// per-trial colorings match [`FailureModel::sample_into`] in
    /// *distribution*, not bit-for-bit.)
    ///
    /// # Panics
    ///
    /// Panics if `rngs` is empty, `out.len() != n · rngs.len()`, or on the
    /// model/universe mismatches documented on [`FailureModel::sample_into`].
    pub fn sample_green_lanes<R: Rng>(
        &self,
        n: usize,
        first_trial_word: u64,
        rngs: &mut [R],
        out: &mut [u64],
    ) {
        let width = rngs.len();
        assert!(width > 0, "need at least one trial-word RNG stream");
        assert_eq!(
            out.len(),
            n * width,
            "green-lane block must hold universe × width words"
        );
        match self {
            FailureModel::Iid { p } => fill_iid_green_lanes(*p, rngs, out),
            FailureModel::Heterogeneous { probs } => {
                assert_eq!(
                    probs.len(),
                    n,
                    "heterogeneous model has {} per-element probabilities but the universe has {n}",
                    probs.len()
                );
                for (slot, &p) in out.chunks_mut(width).zip(probs.iter()) {
                    bernoulli_lane_words(1.0 - p, slot, |i| rngs[i].next_u64());
                }
            }
            FailureModel::Zoned { zone_count, q, p } => {
                assert!(
                    *zone_count <= n,
                    "cannot partition {n} elements into {zone_count} zones"
                );
                if *q == 0.0 {
                    // Same specialization as `sample_into`: no zone draws, the
                    // stream consumption matches the i.i.d. fill exactly.
                    fill_iid_green_lanes(*p, rngs, out);
                    return;
                }
                let mut zone_fail = vec![0u64; width];
                let mut e = 0usize;
                while e < n {
                    let zone = zone_of(e, n, *zone_count);
                    let mut zone_end = e + 1;
                    while zone_end < n && zone_of(zone_end, n, *zone_count) == zone {
                        zone_end += 1;
                    }
                    // One wholesale-failure lane per trial word, ANDed out of
                    // every member's i.i.d. survival lane.
                    bernoulli_lane_words(*q, &mut zone_fail, |i| rngs[i].next_u64());
                    for member in e..zone_end {
                        let slot = &mut out[member * width..(member + 1) * width];
                        bernoulli_lane_words(1.0 - *p, slot, |i| rngs[i].next_u64());
                        for (lane, fail) in slot.iter_mut().zip(&zone_fail) {
                            *lane &= !*fail;
                        }
                    }
                    e = zone_end;
                }
            }
            FailureModel::OrgZoned { orgs, q, p } => {
                assert_eq!(
                    orgs.universe_size(),
                    n,
                    "organization structure universe does not match the requested universe"
                );
                if *q == 0.0 {
                    // Same specialization as `sample_into`: no org draws, the
                    // stream consumption matches the i.i.d. fill exactly.
                    fill_iid_green_lanes(*p, rngs, out);
                    return;
                }
                // One wholesale-failure lane per org per trial word, ANDed
                // out of every member's i.i.d. survival lane; then the
                // independent elements, in ascending order.
                let mut org_fail = vec![0u64; width];
                for g in 0..orgs.group_count() {
                    bernoulli_lane_words(*q, &mut org_fail, |i| rngs[i].next_u64());
                    for &member in orgs.members(g) {
                        let slot = &mut out[member * width..(member + 1) * width];
                        bernoulli_lane_words(1.0 - *p, slot, |i| rngs[i].next_u64());
                        for (lane, fail) in slot.iter_mut().zip(&org_fail) {
                            *lane &= !*fail;
                        }
                    }
                }
                for e in 0..n {
                    if orgs.group_of(e).is_none() {
                        let slot = &mut out[e * width..(e + 1) * width];
                        bernoulli_lane_words(1.0 - *p, slot, |i| rngs[i].next_u64());
                    }
                }
            }
            FailureModel::Fixed { coloring } => {
                assert_eq!(
                    coloring.universe_size(),
                    n,
                    "fixed coloring universe does not match the requested universe"
                );
                for (e, slot) in out.chunks_mut(width).enumerate() {
                    slot.fill(if coloring.is_green(e) { u64::MAX } else { 0 });
                }
            }
            FailureModel::Churn { trajectory } => {
                assert_eq!(
                    trajectory.universe_size(),
                    n,
                    "churn trajectory universe does not match the requested universe"
                );
                let start = first_trial_word * LANE_TRIALS as u64;
                trajectory.visit_range(start, width * LANE_TRIALS, |i, coloring, delta| {
                    let w = i / LANE_TRIALS;
                    let t = i % LANE_TRIALS;
                    if t == 0 {
                        // Trial-word start: broadcast the current coloring
                        // into bits 0..64 of every element's lane word.
                        for e in 0..n {
                            out[e * width + w] = if coloring.is_green(e) { u64::MAX } else { 0 };
                        }
                    } else {
                        // A flip at offset t toggles bits t.. of the lane:
                        // later offsets re-toggle, so bit k always carries
                        // the parity of flips in 1..=k over the broadcast.
                        for e in delta.flipped_elements() {
                            out[e * width + w] ^= u64::MAX << t;
                        }
                    }
                });
            }
            FailureModel::ExactRedCount { reds } => {
                assert!(
                    *reds <= n,
                    "cannot place {reds} red elements in a universe of {n}"
                );
                out.fill(0);
                let mut scratch = Coloring::all_green(n);
                for (w, rng) in rngs.iter_mut().enumerate() {
                    for t in 0..LANE_TRIALS {
                        let time = (first_trial_word + w as u64) * LANE_TRIALS as u64 + t as u64;
                        self.sample_into(n, time, rng, &mut scratch);
                        for e in 0..n {
                            if scratch.is_green(e) {
                                out[e * width + w] |= 1u64 << t;
                            }
                        }
                    }
                }
            }
        }
    }

    /// A short label used in reports.
    pub fn label(&self) -> String {
        match self {
            FailureModel::Iid { p } => format!("iid(p={p})"),
            FailureModel::ExactRedCount { reds } => format!("exact-reds({reds})"),
            FailureModel::Fixed { .. } => "fixed".to_string(),
            FailureModel::Heterogeneous { probs } => {
                let mean = probs.iter().sum::<f64>() / probs.len() as f64;
                format!("hetero(mean p={mean:.3})")
            }
            FailureModel::Zoned { zone_count, q, p } => {
                format!("zoned(z={zone_count},q={q:.3},p={p:.3})")
            }
            FailureModel::OrgZoned { orgs, q, p } => {
                format!("org-zoned(g={},q={q:.3},p={p:.3})", orgs.group_count())
            }
            FailureModel::Churn { trajectory } => format!(
                "churn(fail={},repair={},steps={})",
                rate_label(trajectory.fail_rate()),
                rate_label(trajectory.repair_rate()),
                trajectory.len()
            ),
        }
    }
}

/// A rate for a label: three decimals when they are exact, else the shortest
/// form that parses back to the rate, so a nonzero rate never prints as
/// zero and distinct rates never share a label.
fn rate_label(rate: f64) -> String {
    let short = format!("{rate:.3}");
    if short.parse() == Ok(rate) {
        short
    } else {
        rate.to_string()
    }
}

/// The `next_u64() < threshold` cutoff realising a Bernoulli(`p`) draw for
/// `p < 1` (probability `⌊p·2⁶⁴⌋ / 2⁶⁴`, exact to within one part in `2⁶⁴`).
#[inline]
fn bernoulli_threshold(p: f64) -> u64 {
    (p * ((u64::MAX as f64) + 1.0)) as u64
}

/// One Bernoulli(`p`) draw as an integer threshold compare — no `f64`
/// conversion of the random word on the hot path.
#[inline]
fn draw_red<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    if p >= 1.0 {
        true
    } else {
        rng.next_u64() < bernoulli_threshold(p)
    }
}

/// Fills an element-major green-lane block for i.i.d.(`p_fail`) failures:
/// each element's `width = rngs.len()` trial words come from the exact
/// binary-expansion sampler at the survival probability, one independent
/// stream per word, through one [`bernoulli_lane_rows`] call. For the widths
/// in [`quorum_core::lanes::LANE_WIDTHS`] the fill reads the streams through
/// a fixed-size array, so every stream index in its unrolled row loop is a
/// constant.
pub(crate) fn fill_iid_green_lanes<R: Rng>(p_fail: f64, rngs: &mut [R], out: &mut [u64]) {
    fn fixed<const W: usize, R: Rng>(green: f64, rngs: &mut [R], out: &mut [u64]) {
        let streams = <&mut [R; W]>::try_from(rngs).expect("dispatched on the stream count");
        bernoulli_lane_rows(green, W, out, |i| streams[i].next_u64());
    }
    let green = 1.0 - p_fail;
    match rngs.len() {
        1 => fixed::<1, R>(green, rngs, out),
        4 => fixed::<4, R>(green, rngs, out),
        8 => fixed::<8, R>(green, rngs, out),
        width => bernoulli_lane_rows(green, width, out, |i| rngs[i].next_u64()),
    }
}

/// Writes an i.i.d.(`p`) sample over an all-green coloring: per-element
/// threshold compares accumulated into whole words, one masked word write per
/// 64 elements.
fn sample_iid_into<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R, out: &mut Coloring) {
    if p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        out.fill(Color::Red);
        return;
    }
    let threshold = bernoulli_threshold(p);
    for word_index in 0..out.word_count() {
        let start = word_index * WORD_BITS;
        let take = WORD_BITS.min(n - start.min(n));
        let mut word = 0u64;
        for bit in 0..take {
            if rng.next_u64() < threshold {
                word |= 1u64 << bit;
            }
        }
        out.set_red_word(word_index, word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn iid_respects_probability_roughly() {
        let model = FailureModel::iid(0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut reds = 0usize;
        let trials = 2_000;
        for _ in 0..trials {
            reds += model.sample(20, &mut rng).red_count();
        }
        let rate = reds as f64 / (trials * 20) as f64;
        assert!((rate - 0.3).abs() < 0.02, "empirical failure rate {rate}");
    }

    #[test]
    fn iid_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(FailureModel::iid(0.0).sample(10, &mut rng).red_count(), 0);
        assert_eq!(FailureModel::iid(1.0).sample(10, &mut rng).red_count(), 10);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn iid_validates_p() {
        let _ = FailureModel::iid(1.5);
    }

    #[test]
    fn exact_red_count_is_exact() {
        let model = FailureModel::exact_red_count(4);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert_eq!(model.sample(9, &mut rng).red_count(), 4);
        }
    }

    #[test]
    fn exact_red_count_varies_position() {
        let model = FailureModel::exact_red_count(1);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(model.sample(6, &mut rng).red_set().to_vec());
        }
        assert_eq!(
            seen.len(),
            6,
            "every position must eventually be the red one"
        );
    }

    #[test]
    fn exact_red_count_placement_is_uniform() {
        // The partial Fisher–Yates must place every 2-subset of 6 positions
        // with equal probability: chi-squared against the uniform over the
        // 15 subsets, generous tolerance for 15k samples.
        let model = FailureModel::exact_red_count(2);
        let mut rng = StdRng::seed_from_u64(1234);
        let mut counts = std::collections::HashMap::new();
        let samples = 15_000usize;
        for _ in 0..samples {
            let reds = model.sample(6, &mut rng).red_set().to_vec();
            *counts.entry(reds).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 15, "every subset must appear");
        let expected = samples as f64 / 15.0;
        for (subset, count) in counts {
            let deviation = (count as f64 - expected).abs() / expected;
            assert!(
                deviation < 0.15,
                "subset {subset:?} count {count} deviates {deviation:.3} from uniform"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn exact_red_count_validates_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = FailureModel::exact_red_count(7).sample(5, &mut rng);
    }

    #[test]
    fn fixed_returns_the_same_coloring() {
        let coloring = Coloring::all_red(4);
        let model = FailureModel::fixed(coloring.clone());
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(model.sample(4, &mut rng), coloring);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn fixed_validates_universe() {
        let model = FailureModel::fixed(Coloring::all_red(4));
        let mut rng = StdRng::seed_from_u64(7);
        let _ = model.sample(5, &mut rng);
    }

    #[test]
    fn heterogeneous_respects_extreme_elements() {
        let model = FailureModel::heterogeneous(vec![0.0, 1.0, 0.5]);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let coloring = model.sample(3, &mut rng);
            assert!(coloring.is_green(0), "p=0 element can never fail");
            assert!(coloring.is_red(1), "p=1 element always fails");
        }
    }

    #[test]
    #[should_panic(expected = "per-element probabilities")]
    fn heterogeneous_validates_universe() {
        let model = FailureModel::heterogeneous(vec![0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(9);
        let _ = model.sample(3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn heterogeneous_validates_probabilities() {
        let _ = FailureModel::heterogeneous(vec![0.5, 1.5]);
    }

    #[test]
    fn zoned_q_zero_matches_iid_bitwise() {
        // The documented specialization: with q = 0 the zoned model consumes
        // the RNG exactly like Iid(p), so same seed ⇒ same colorings.
        for zone_count in [1usize, 3, 5] {
            let zoned = FailureModel::zoned(zone_count, 0.0, 0.35);
            let iid = FailureModel::iid(0.35);
            let mut rng_a = StdRng::seed_from_u64(10);
            let mut rng_b = StdRng::seed_from_u64(10);
            for trial in 0..40u64 {
                assert_eq!(
                    zoned.sample_at(15, trial, &mut rng_a),
                    iid.sample_at(15, trial, &mut rng_b),
                    "zone_count={zone_count} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn zoned_q_one_fails_whole_zones() {
        let model = FailureModel::zoned(3, 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let coloring = model.sample(9, &mut rng);
        assert_eq!(coloring.red_count(), 9, "every zone fails wholesale");
    }

    #[test]
    fn zoned_failures_are_zone_aligned_when_fully_correlated() {
        // p = 0: reds can only arise from wholesale zone failures, so every
        // zone is monochromatic.
        let model = FailureModel::zoned(4, 0.5, 0.0);
        let mut rng = StdRng::seed_from_u64(12);
        let n = 12;
        for _ in 0..100 {
            let coloring = model.sample(n, &mut rng);
            for e in 1..n {
                if zone_of(e, n, 4) == zone_of(e - 1, n, 4) {
                    assert_eq!(
                        coloring.color(e),
                        coloring.color(e - 1),
                        "zone split a color"
                    );
                }
            }
        }
    }

    #[test]
    fn zoned_correlated_preserves_marginal_rate() {
        let marginal = 0.3;
        for correlation in [0.0, 0.5, 1.0] {
            let model = FailureModel::zoned_correlated(5, marginal, correlation);
            let mut rng = StdRng::seed_from_u64(13);
            let mut reds = 0usize;
            let trials = 4_000;
            let n = 20;
            for _ in 0..trials {
                reds += model.sample(n, &mut rng).red_count();
            }
            let rate = reds as f64 / (trials * n) as f64;
            assert!(
                (rate - marginal).abs() < 0.02,
                "correlation {correlation}: marginal drifted to {rate}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot partition")]
    fn zoned_validates_zone_count_at_sample() {
        let mut rng = StdRng::seed_from_u64(14);
        let _ = FailureModel::zoned(10, 0.5, 0.5).sample(5, &mut rng);
    }

    fn three_orgs() -> Arc<Organizations> {
        // Non-contiguous groups plus an independent element (index 4).
        Arc::new(Organizations::new(7, vec![vec![0, 5], vec![1, 6], vec![2, 3]]).unwrap())
    }

    #[test]
    fn org_zoned_q_zero_matches_iid_bitwise() {
        // The documented specialization: with q = 0 the org model consumes
        // the RNG exactly like Iid(p), so same seed ⇒ same colorings.
        let org = FailureModel::org_zoned(three_orgs(), 0.0, 0.35);
        let iid = FailureModel::iid(0.35);
        let mut rng_a = StdRng::seed_from_u64(10);
        let mut rng_b = StdRng::seed_from_u64(10);
        for trial in 0..40u64 {
            assert_eq!(
                org.sample_at(7, trial, &mut rng_a),
                iid.sample_at(7, trial, &mut rng_b),
                "trial={trial}"
            );
        }
    }

    #[test]
    fn org_zoned_failures_are_org_aligned_when_fully_correlated() {
        // p = 0: reds can only arise from wholesale org failures, so every
        // organization is monochromatic even when its members are scattered,
        // and the independent element never fails.
        let orgs = three_orgs();
        let model = FailureModel::org_zoned(orgs.clone(), 0.5, 0.0);
        let mut rng = StdRng::seed_from_u64(12);
        let mut saw_fail = false;
        let mut saw_survive = false;
        for _ in 0..100 {
            let coloring = model.sample(7, &mut rng);
            assert!(coloring.is_green(4), "org-less element failed at p=0");
            for g in 0..orgs.group_count() {
                let members = orgs.members(g);
                let first = coloring.color(members[0]);
                for &member in members {
                    assert_eq!(coloring.color(member), first, "org {g} split a color");
                }
                saw_fail |= first == Color::Red;
                saw_survive |= first == Color::Green;
            }
        }
        assert!(saw_fail && saw_survive, "q=0.5 must show both outcomes");
    }

    #[test]
    fn org_zoned_correlated_preserves_marginal_rate() {
        let orgs = Arc::new(Organizations::contiguous(20, 5).unwrap());
        let marginal = 0.3;
        for correlation in [0.0, 0.5, 1.0] {
            let model = FailureModel::org_zoned_correlated(orgs.clone(), marginal, correlation);
            let mut rng = StdRng::seed_from_u64(13);
            let mut reds = 0usize;
            let trials = 4_000;
            for _ in 0..trials {
                reds += model.sample(20, &mut rng).red_count();
            }
            let rate = reds as f64 / (trials * 20) as f64;
            assert!(
                (rate - marginal).abs() < 0.02,
                "correlation {correlation}: marginal drifted to {rate}"
            );
        }
    }

    #[test]
    fn org_zoned_matches_zoned_on_contiguous_groups() {
        // With the same contiguous layout the two models sample the same
        // distribution; at p = 0 and a shared seed they agree bit-for-bit
        // (identical draw order: one q-draw per group, no member draws).
        let n = 12;
        let zone_count = 4;
        let orgs = Arc::new(Organizations::contiguous(n, zone_count).unwrap());
        for g in 0..zone_count {
            for &member in orgs.members(g) {
                assert_eq!(zone_of(member, n, zone_count), g, "layouts must agree");
            }
        }
        let org_model = FailureModel::org_zoned(orgs, 0.5, 0.0);
        let zoned = FailureModel::zoned(zone_count, 0.5, 0.0);
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        for trial in 0..60u64 {
            assert_eq!(
                org_model.sample_at(n, trial, &mut rng_a),
                zoned.sample_at(n, trial, &mut rng_b),
                "trial={trial}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn org_zoned_validates_universe_at_sample() {
        let mut rng = StdRng::seed_from_u64(14);
        let _ = FailureModel::org_zoned(three_orgs(), 0.5, 0.5).sample(5, &mut rng);
    }

    #[test]
    fn churn_trajectory_is_seed_deterministic() {
        let a = ChurnTrajectory::generate(12, 0.1, 0.4, 64, 77);
        let b = ChurnTrajectory::generate(12, 0.1, 0.4, 64, 77);
        assert_eq!(a, b, "same parameters and seed must replay identically");
        assert!(
            a.iter().eq(b.iter()),
            "materialised timelines must be bit-identical"
        );
        let c = ChurnTrajectory::generate(12, 0.1, 0.4, 64, 78);
        assert_ne!(a, c, "a different seed must change the timeline");
        assert!(
            !a.iter().eq(c.iter()),
            "a different seed must change the colorings themselves"
        );
        assert_eq!(a.len(), 64);
        assert_eq!(a.universe_size(), 12);
        assert_eq!(a.seed(), 77);
        assert!((a.stationary_red_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn churn_model_replays_the_trajectory_per_trial() {
        let model = FailureModel::churn(8, 0.3, 0.3, 16, 21);
        let trajectory = match &model {
            FailureModel::Churn { trajectory } => Arc::clone(trajectory),
            _ => unreachable!(),
        };
        let mut rng = StdRng::seed_from_u64(0);
        for trial in 0..40u64 {
            assert_eq!(
                model.sample_at(8, trial, &mut rng),
                trajectory.coloring_at(trial),
                "trial {trial} must observe its time step (wrapping)"
            );
        }
    }

    #[test]
    fn churn_steps_change_between_consecutive_colorings() {
        let trajectory = ChurnTrajectory::generate(100, 0.5, 0.5, 8, 3);
        let colorings: Vec<Coloring> = trajectory.iter().collect();
        let changed = colorings.windows(2).any(|pair| pair[0] != pair[1]);
        assert!(changed, "a rate-1/2 chain on 100 elements must move");
    }

    #[test]
    #[should_panic(expected = "cannot both be zero")]
    fn churn_validates_rates() {
        let _ = ChurnTrajectory::generate(5, 0.0, 0.0, 10, 1);
    }

    #[test]
    fn churn_walker_deltas_replay_the_timeline() {
        // The delta stream must be exact: applying each step's delta to an
        // independently maintained coloring reproduces the walker's coloring
        // bit for bit, and the first delta is empty.
        let trajectory = ChurnTrajectory::generate(130, 0.2, 0.3, 60, 99);
        let mut walker = trajectory.walk();
        let mut replayed: Option<Coloring> = None;
        let mut steps_seen = 0usize;
        while let Some((coloring, delta)) = walker.step() {
            match replayed.as_mut() {
                None => {
                    assert!(delta.is_empty(), "first step must carry no delta");
                    replayed = Some(coloring.clone());
                }
                Some(current) => {
                    current.apply_delta(delta);
                    assert_eq!(current, coloring, "delta replay diverged at a step");
                }
            }
            steps_seen += 1;
        }
        assert_eq!(steps_seen, 60);
        assert!(walker.step().is_none(), "walker must stay exhausted");
    }

    #[test]
    fn churn_random_access_matches_sequential_walk() {
        // coloring_at must be a pure function of (seed, t) no matter which
        // warm cursor serves it: probe out of order, repeatedly, and beyond
        // the horizon (wrapping), against an eagerly collected reference.
        let trajectory = ChurnTrajectory::generate(70, 0.15, 0.35, 24, 7);
        let eager: Vec<Coloring> = trajectory.iter().collect();
        assert_eq!(eager.len(), 24);
        let probes = [23u64, 0, 11, 11, 5, 47, 24, 13, 1, 22, 9, 30];
        for &t in &probes {
            assert_eq!(
                trajectory.coloring_at(t),
                eager[(t % 24) as usize],
                "random access at t={t} diverged"
            );
        }
    }

    #[test]
    fn churn_clone_and_shared_access_agree() {
        let trajectory = ChurnTrajectory::generate(40, 0.1, 0.2, 16, 3);
        let clone = trajectory.clone();
        assert_eq!(trajectory, clone);
        for t in 0..32u64 {
            assert_eq!(trajectory.coloring_at(t), clone.coloring_at(t));
        }
    }

    #[test]
    fn churn_walker_reports_position_and_remaining() {
        let trajectory = ChurnTrajectory::generate(10, 0.2, 0.2, 4, 1);
        let mut walker = trajectory.walk();
        assert_eq!(walker.position(), None);
        assert_eq!(walker.remaining(), 4);
        walker.step();
        assert_eq!(walker.position(), Some(0));
        assert_eq!(walker.remaining(), 3);
        while walker.step().is_some() {}
        assert_eq!(walker.position(), Some(3));
        assert_eq!(walker.remaining(), 0);
    }

    #[test]
    fn churn_rates_choose_their_sampler() {
        let skip = |s: RateSampler| matches!(s, RateSampler::Skip(_));
        for (fail, repair) in [(1.0 / 4096.0, 1.0 / 64.0), (0.02, 0.06), (0.01, 0.03)] {
            let sparse = Transitions::choose(fail, repair);
            assert!(
                skip(sparse.fail) && skip(sparse.repair),
                "({fail}, {repair}): {sparse:?}"
            );
        }
        // A zero rate stays dense, where it draws nothing.
        assert!(!skip(Transitions::choose(0.0, 1.0 / 64.0).fail));
        assert!(!skip(Transitions::choose(1.0 / 64.0, 0.0).repair));
        for (fail, repair) in [(0.2, 0.6), (0.3, 0.5), (1.0 / 64.0, 1.0 / 8.0)] {
            let dense = Transitions::choose(fail, repair);
            assert!(
                !skip(dense.fail) && !skip(dense.repair),
                "({fail}, {repair}): {dense:?}"
            );
        }
        let mixed = Transitions::choose(0.01, 0.5);
        assert!(skip(mixed.fail) && !skip(mixed.repair), "{mixed:?}");
    }

    #[test]
    fn dense_churn_replays_the_word_mask_stream() {
        // Rates on the dense path keep the stream of one fail mask and one
        // repair mask per word, so their timelines never change.
        for (fail, repair) in [(0.2, 0.6), (0.3, 0.5)] {
            let (n, steps, seed) = (130, 200, 17);
            let trajectory = ChurnTrajectory::generate(n, fail, repair, steps, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut expected = Coloring::all_green(n);
            fill_word_bernoulli(fail / (fail + repair), &mut rng, &mut expected);
            for (t, coloring) in trajectory.iter().enumerate() {
                if t > 0 {
                    for w in 0..expected.word_count() {
                        let fail_mask = bernoulli_lanes(fail, || rng.next_u64());
                        let repair_mask = bernoulli_lanes(repair, || rng.next_u64());
                        let red = expected.red_words()[w];
                        expected.set_red_word(w, red ^ ((red & repair_mask) | (!red & fail_mask)));
                    }
                }
                assert_eq!(coloring, expected, "({fail}, {repair}) step {t}");
            }
        }
    }

    /// Counts the words drawn from the wrapped generator.
    struct CountingRng {
        inner: StdRng,
        words: usize,
    }

    impl RngCore for CountingRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
            }
        }
    }

    #[test]
    fn sparse_churn_draws_per_flip() {
        // At (2⁻¹², 2⁻⁶) the dense path would draw 12 + 6 words per 64
        // elements, 1152 a step at n = 4096; the sparse path draws one gap
        // per direction per step plus one per flip. Stepped as the walker
        // steps, through the rank index.
        let n = 4096;
        let trajectory = ChurnTrajectory::generate(n, 1.0 / 4096.0, 1.0 / 64.0, 2, 5);
        assert!(trajectory.transitions.skips().is_some());
        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(5),
            words: 0,
        };
        let mut coloring = trajectory.baseline.clone();
        let mut index = trajectory.index.clone();
        let mut delta = ColoringDelta::empty(n);
        let mut total_flips = 0;
        for step in 0..2_000 {
            rng.words = 0;
            churn_step(
                trajectory.transitions,
                &mut rng,
                &mut coloring,
                &mut index,
                &mut delta,
            );
            let flips = delta.flip_count();
            assert_eq!(rng.words, 2 + flips, "step {step}: words for {flips} flips");
            total_flips += flips;
        }
        assert!(total_flips > 2_000, "the walk must flip: {total_flips}");
    }

    #[test]
    fn churn_walks_follow_the_chain_law_on_both_paths() {
        // Per-step transition frequencies, the time-average red fraction and
        // the mean flips per step, each within 5σ of its stationary value.
        // n = 4000 leaves a half-filled tail word.
        let n = 4000;
        for (fail, repair, steps) in [
            (1.0 / 4096.0, 1.0 / 64.0, 40_000),
            (1.0 / 64.0, 1.0 / 8.0, 4_000),
            (0.02, 0.06, 4_000),
            (0.2, 0.6, 1_000),
            (0.2, 0.3, 1_000),
            (0.01, 0.5, 2_000),
        ] {
            let trajectory = ChurnTrajectory::generate(n, fail, repair, steps, 2024);
            let mut walker = trajectory.walk();
            let (mut greens, mut reds, mut failed, mut repaired) = (0.0, 0.0, 0.0, 0.0);
            let mut red_sum = 0.0;
            let mut previous: Option<Coloring> = None;
            while let Some((coloring, delta)) = walker.step() {
                if let Some(before) = &previous {
                    greens += before.green_count() as f64;
                    reds += before.red_count() as f64;
                    for e in delta.flipped_elements() {
                        if before.is_green(e) {
                            failed += 1.0;
                        } else {
                            repaired += 1.0;
                        }
                    }
                }
                red_sum += coloring.red_count() as f64;
                previous = Some(coloring.clone());
            }
            let transitions = (steps - 1) as f64;
            let red = fail / (fail + repair);
            // Lag-one autocorrelation of an element's state, and the
            // variance inflation of a time average over a correlated chain.
            let lambda = 1.0 - fail - repair;
            let inflation = (1.0 + lambda) / (1.0 - lambda);
            let red_var = red * (1.0 - red) * inflation / n as f64 / steps as f64;
            let flips_mean = 2.0 * n as f64 * fail * repair / (fail + repair);
            // Binomial noise given the coloring, plus the flip mean's
            // dependence on the red count, (n − R)·fail + R·repair.
            let flips_var = n as f64
                * ((1.0 - red) * fail * (1.0 - fail) + red * repair * (1.0 - repair))
                / transitions
                + (repair - fail).powi(2) * (n * n) as f64 * red_var;
            let checks = [
                ("fail", failed / greens, fail, fail * (1.0 - fail) / greens),
                (
                    "repair",
                    repaired / reds,
                    repair,
                    repair * (1.0 - repair) / reds,
                ),
                ("red", red_sum / n as f64 / steps as f64, red, red_var),
                (
                    "flips",
                    (failed + repaired) / transitions,
                    flips_mean,
                    flips_var,
                ),
            ];
            for (name, got, want, var) in checks {
                assert!(
                    (got - want).abs() <= 5.0 * var.sqrt(),
                    "({fail}, {repair}) {name}: {got} vs {want} ± {}",
                    var.sqrt()
                );
            }
        }
    }

    /// Rates across both samplers: dyadic and non-dyadic, from 2⁻¹² to 1.
    const CHURN_RATES: [f64; 20] = [
        1.0 / 4096.0,
        1.0 / 2048.0,
        1.0 / 1024.0,
        1.0 / 512.0,
        1.0 / 256.0,
        1.0 / 128.0,
        1.0 / 64.0,
        1.0 / 32.0,
        0.0003,
        0.003,
        0.01,
        0.02,
        0.06,
        0.125,
        0.25,
        0.375,
        0.5,
        0.625,
        0.875,
        1.0,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Delta-replayed churn timelines are bit-identical to the eager
        /// generator for arbitrary parameters, and random access agrees
        /// with both.
        #[test]
        fn prop_delta_replay_matches_eager_generation(
            n in 1usize..140,
            fail_index in 0usize..=CHURN_RATES.len(),
            repair_index in 0usize..CHURN_RATES.len(),
            steps in 1usize..48,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // The last fail index stands for rate zero.
            let fail = CHURN_RATES.get(fail_index).copied().unwrap_or(0.0);
            let repair = CHURN_RATES[repair_index];
            let trajectory = ChurnTrajectory::generate(n, fail, repair, steps, seed);
            let eager: Vec<Coloring> = trajectory.iter().collect();
            prop_assert_eq!(eager.len(), steps);

            let mut walker = trajectory.walk();
            let mut replayed: Option<Coloring> = None;
            let mut index = 0usize;
            while let Some((coloring, delta)) = walker.step() {
                match replayed.as_mut() {
                    None => replayed = Some(coloring.clone()),
                    Some(current) => current.apply_delta(delta),
                }
                prop_assert_eq!(replayed.as_ref().unwrap(), coloring);
                prop_assert_eq!(coloring, &eager[index]);
                index += 1;
            }
            prop_assert_eq!(index, steps);

            // Random access through the cursor pool, shuffled-ish order.
            for t in [steps as u64 - 1, 0, steps as u64 / 2, 2 * steps as u64 + 1] {
                prop_assert_eq!(
                    trajectory.coloring_at(t),
                    eager[(t % steps as u64) as usize].clone()
                );
            }
        }
    }

    /// The pairs of `CHURN_RATES` whose directions are both sparse.
    fn both_sparse_rates() -> Vec<(f64, f64)> {
        let pairs: Vec<(f64, f64)> = CHURN_RATES
            .iter()
            .flat_map(|&fail| CHURN_RATES.iter().map(move |&repair| (fail, repair)))
            .filter(|&(fail, repair)| Transitions::choose(fail, repair).skips().is_some())
            .collect();
        assert!(pairs.len() > 20, "too few both-sparse pairs: {pairs:?}");
        pairs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rank-indexed step replays the word loop: from one coloring
        /// and one RNG state, consecutive steps give the same coloring
        /// words, the same `(word, mask)` flips and the same next word of
        /// the stream, and the index follows the coloring. n up to 5 000
        /// spans 1–7 index levels and partial tail words; the red fractions
        /// include all-green and all-red words.
        #[test]
        fn prop_ranked_step_replays_the_word_loop(
            n in 1usize..=5_000,
            red_fraction in prop::sample::select(vec![
                0.0,
                1.0 / 4096.0,
                0.015,
                0.5,
                1.0 - 1.0 / 4096.0,
                1.0,
            ]),
            rates in prop::sample::select(both_sparse_rates()),
            seed in any::<u64>(),
        ) {
            let transitions = Transitions::choose(rates.0, rates.1);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut expected = Coloring::all_green(n);
            fill_word_bernoulli(red_fraction, &mut rng, &mut expected);
            let mut cursor = ChurnCursor {
                position: 0,
                coloring: expected.clone(),
                rng: rng.clone(),
                index: RankIndex::new(&expected),
                delta: ColoringDelta::empty(n),
            };
            for step in 0..6 {
                let mut flips = Vec::new();
                step_words(transitions, &mut rng, &mut expected, |w, mask| {
                    flips.push((w as u32, mask))
                });
                cursor.step(transitions);
                prop_assert_eq!(cursor.delta.entries(), &flips[..], "step {}", step);
                prop_assert_eq!(cursor.coloring.red_words(), expected.red_words());
                prop_assert_eq!(&cursor.index.tree, &RankIndex::new(&expected).tree);
            }
            prop_assert_eq!(cursor.rng.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn select_bit_picks_each_rank() {
        for word in [
            1u64,
            0x8000_0000_0000_0001,
            u64::MAX,
            0xF0F0_0000_0001_0300,
            0x0100_0000_0000_0000,
        ] {
            let bits: Vec<u64> = (0..64)
                .map(|b| 1u64 << b)
                .filter(|b| word & b != 0)
                .collect();
            for (rank, &bit) in bits.iter().enumerate() {
                assert_eq!(select_bit(word, rank), bit, "{word:#x} rank {rank}");
            }
        }
    }

    #[test]
    fn sample_into_reuses_the_scratch_coloring() {
        let mut scratch = Coloring::all_green(0);
        let mut rng = StdRng::seed_from_u64(15);
        for model in [
            FailureModel::iid(0.4),
            FailureModel::exact_red_count(3),
            FailureModel::heterogeneous(vec![0.2; 9]),
            FailureModel::zoned(3, 0.3, 0.2),
            FailureModel::churn(9, 0.2, 0.4, 8, 9),
            FailureModel::fixed(Coloring::all_red(9)),
        ] {
            for trial in 0..10u64 {
                model.sample_into(9, trial, &mut rng, &mut scratch);
                assert_eq!(scratch.universe_size(), 9, "{}", model.label());
            }
            // sample_at routes through sample_into, so the two agree given
            // identical RNG streams.
            let mut rng_a = StdRng::seed_from_u64(99);
            let mut rng_b = StdRng::seed_from_u64(99);
            model.sample_into(9, 4, &mut rng_a, &mut scratch);
            assert_eq!(scratch, model.sample_at(9, 4, &mut rng_b));
        }
    }

    /// Seeds one RNG stream per trial word the way the batched estimators do:
    /// stream `i` depends only on the absolute trial-word index.
    fn lane_streams(first_word: u64, count: usize) -> Vec<StdRng> {
        (0..count)
            .map(|i| StdRng::seed_from_u64(0xABCD_0000 + first_word + i as u64))
            .collect()
    }

    fn all_models(n: usize) -> Vec<FailureModel> {
        vec![
            FailureModel::iid(0.3),
            FailureModel::exact_red_count(n / 3),
            FailureModel::fixed(Coloring::from_fn(n, |e| {
                if e % 3 == 0 {
                    Color::Red
                } else {
                    Color::Green
                }
            })),
            FailureModel::heterogeneous((0..n).map(|e| (e as f64) / (n as f64)).collect()),
            FailureModel::zoned(3, 0.4, 0.2),
            FailureModel::churn(n, 0.2, 0.4, 8, 9),
        ]
    }

    #[test]
    fn green_lanes_are_invariant_under_width_regrouping() {
        // Filling four trial words in one block must equal filling them one
        // word at a time, as long as each word keeps its own RNG stream.
        let n = 19usize;
        for model in all_models(n) {
            let width = 4usize;
            let mut wide = vec![0u64; n * width];
            model.sample_green_lanes(n, 2, &mut lane_streams(2, width), &mut wide);
            for w in 0..width {
                let mut narrow = vec![0u64; n];
                let mut streams = lane_streams(2 + w as u64, 1);
                model.sample_green_lanes(n, 2 + w as u64, &mut streams, &mut narrow);
                for e in 0..n {
                    assert_eq!(
                        wide[e * width + w],
                        narrow[e],
                        "{} word {w} element {e} diverged",
                        model.label()
                    );
                }
            }
        }
    }

    #[test]
    fn green_lanes_match_model_marginals() {
        // Column `t` of the block is one trial; its green rate must match the
        // model's marginal survival probability.
        let n = 40usize;
        let width = 8usize;
        let model = FailureModel::iid(0.3);
        let mut lanes = vec![0u64; n * width];
        model.sample_green_lanes(n, 0, &mut lane_streams(0, width), &mut lanes);
        let greens: u32 = lanes.iter().map(|w| w.count_ones()).sum();
        let rate = greens as f64 / (n * width * 64) as f64;
        assert!((rate - 0.7).abs() < 0.02, "green rate {rate}");
    }

    #[test]
    fn green_lanes_exact_red_count_holds_per_trial() {
        let n = 11usize;
        let reds = 4usize;
        let width = 2usize;
        let model = FailureModel::exact_red_count(reds);
        let mut lanes = vec![0u64; n * width];
        model.sample_green_lanes(n, 0, &mut lane_streams(0, width), &mut lanes);
        for w in 0..width {
            for t in 0..64 {
                let greens = (0..n)
                    .filter(|&e| (lanes[e * width + w] >> t) & 1 == 1)
                    .count();
                assert_eq!(greens, n - reds, "word {w} trial {t}");
            }
        }
    }

    #[test]
    fn green_lanes_zoned_q_zero_matches_iid_bitwise() {
        let n = 15usize;
        let width = 4usize;
        let mut zoned = vec![0u64; n * width];
        let mut iid = vec![0u64; n * width];
        FailureModel::zoned(3, 0.0, 0.35).sample_green_lanes(
            n,
            0,
            &mut lane_streams(0, width),
            &mut zoned,
        );
        FailureModel::iid(0.35).sample_green_lanes(n, 0, &mut lane_streams(0, width), &mut iid);
        assert_eq!(zoned, iid);
    }

    #[test]
    fn green_lanes_zoned_respects_wholesale_failures() {
        // p = 0: reds only arise from wholesale zone failures, so within a
        // zone every element's lane is identical in every trial.
        let n = 12usize;
        let model = FailureModel::zoned(4, 0.5, 0.0);
        let width = 2usize;
        let mut lanes = vec![0u64; n * width];
        model.sample_green_lanes(n, 0, &mut lane_streams(0, width), &mut lanes);
        for e in 1..n {
            if zone_of(e, n, 4) == zone_of(e - 1, n, 4) {
                assert_eq!(
                    &lanes[e * width..(e + 1) * width],
                    &lanes[(e - 1) * width..e * width],
                    "zone split at element {e}"
                );
            }
        }
    }

    #[test]
    fn green_lanes_fixed_and_churn_transpose_their_colorings() {
        let n = 9usize;
        let width = 2usize;
        // Fixed: every trial sees the same coloring.
        let coloring = Coloring::from_fn(n, |e| if e < 4 { Color::Red } else { Color::Green });
        let mut lanes = vec![0u64; n * width];
        FailureModel::fixed(coloring.clone()).sample_green_lanes(
            n,
            5,
            &mut lane_streams(5, width),
            &mut lanes,
        );
        for e in 0..n {
            let expect = if coloring.is_green(e) { u64::MAX } else { 0 };
            assert_eq!(&lanes[e * width..(e + 1) * width], &[expect; 2]);
        }
        // Churn: bit t of word w is the trajectory at time (first + w)·64 + t,
        // on the dense path and on the sparse one (whose 256-step horizon the
        // window wraps).
        for (n, fail, repair, steps) in [(9, 0.3, 0.3, 16), (200, 0.01, 0.03, 256)] {
            let model = FailureModel::churn(n, fail, repair, steps, 21);
            let trajectory = match &model {
                FailureModel::Churn { trajectory } => Arc::clone(trajectory),
                _ => unreachable!(),
            };
            let first_word = 3u64;
            let mut lanes = vec![0u64; n * width];
            model.sample_green_lanes(
                n,
                first_word,
                &mut lane_streams(first_word, width),
                &mut lanes,
            );
            for w in 0..width {
                for t in 0..64u64 {
                    let coloring = trajectory.coloring_at((first_word + w as u64) * 64 + t);
                    for e in 0..n {
                        assert_eq!(
                            (lanes[e * width + w] >> t) & 1 == 1,
                            coloring.is_green(e),
                            "{} word {w} trial {t} element {e}",
                            model.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "universe × width")]
    fn green_lanes_validate_block_shape() {
        let mut lanes = vec![0u64; 5];
        FailureModel::iid(0.5).sample_green_lanes(3, 0, &mut lane_streams(0, 2), &mut lanes);
    }

    #[test]
    fn labels_are_informative() {
        assert!(FailureModel::iid(0.5).label().contains("0.5"));
        assert!(FailureModel::exact_red_count(3).label().contains('3'));
        assert_eq!(FailureModel::fixed(Coloring::all_green(2)).label(), "fixed");
        assert!(FailureModel::heterogeneous(vec![0.2, 0.4])
            .label()
            .contains("hetero"));
        assert!(FailureModel::zoned(4, 0.5, 0.1).label().contains("z=4"));
        assert!(FailureModel::churn(3, 0.1, 0.2, 8, 1)
            .label()
            .contains("churn"));
        // Registry churn labels keep their three-decimal form; low rates
        // print exactly instead of as zero, so distinct rates stay distinct.
        assert_eq!(
            FailureModel::churn(3, 0.05, 0.15, 512, 1).label(),
            "churn(fail=0.050,repair=0.150,steps=512)"
        );
        assert_eq!(
            FailureModel::churn(3, 0.3, 0.5, 512, 1).label(),
            "churn(fail=0.300,repair=0.500,steps=512)"
        );
        let low = FailureModel::churn(3, 1.0 / 4096.0, 1.0 / 64.0, 8, 1).label();
        assert_eq!(low, "churn(fail=0.000244140625,repair=0.015625,steps=8)");
        assert_ne!(
            low,
            FailureModel::churn(3, 1.0 / 8192.0, 1.0 / 64.0, 8, 1).label()
        );
    }
}
