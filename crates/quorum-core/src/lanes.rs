//! Word-parallel trial lanes: 64 Monte-Carlo trials per `u64`.
//!
//! A *lane block* assigns each universe element one `u64` whose bit `t` is
//! that element's boolean state in trial `t`. Monotone quorum predicates
//! evaluated over lanes process 64 trials per word operation: intersections
//! become `AND`, unions become `OR`, and cardinality thresholds become the
//! bit-sliced counter of [`count_at_least`]. This is the batched evaluation
//! device behind the fast availability estimators in `quorum-sim` (the same
//! trick `fbas_analyzer` uses for packed quorum checks, applied across the
//! trial axis instead of the element axis).

/// Number of trials carried per lane word.
pub const LANE_TRIALS: usize = 64;

/// The block widths (in lane words per element) the multi-word engine is
/// specialised for. Every family's [`crate::QuorumSystem::green_quorum_lane_block`]
/// dispatches these widths to monomorphised evaluators; other widths fall
/// back to word-at-a-time evaluation.
pub const LANE_WIDTHS: [usize; 3] = [1, 4, 8];

/// A packed group of trial lanes: either a single `u64` word (64 trials) or a
/// [`LaneBlock`] of `W` consecutive words (`W·64` trials), with the word
/// operations monotone circuit evaluation needs. Everything is `Copy` and
/// fixed-width, so block evaluators monomorphise to straight-line word code
/// the compiler auto-vectorises.
pub trait Lanes: Copy {
    /// Lane words per value.
    const WORDS: usize;

    /// Trials carried per value (`WORDS · 64`).
    const TRIALS: usize = Self::WORDS * LANE_TRIALS;

    /// The all-zero lanes (every trial 0).
    fn zeros() -> Self;

    /// The all-one lanes (every trial 1).
    fn ones() -> Self;

    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;

    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;

    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;

    /// Lane-wise NOT.
    fn not(self) -> Self;

    /// Whether any lane bit is set.
    fn any(self) -> bool;

    /// Loads [`Lanes::WORDS`] consecutive words from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than [`Lanes::WORDS`].
    fn load(words: &[u64]) -> Self;

    /// Stores the value into [`Lanes::WORDS`] consecutive words of a slice.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`Lanes::WORDS`].
    fn store(self, out: &mut [u64]);
}

impl Lanes for u64 {
    const WORDS: usize = 1;

    fn zeros() -> Self {
        0
    }
    fn ones() -> Self {
        u64::MAX
    }
    fn and(self, other: Self) -> Self {
        self & other
    }
    fn or(self, other: Self) -> Self {
        self | other
    }
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    fn not(self) -> Self {
        !self
    }
    fn any(self) -> bool {
        self != 0
    }
    fn load(words: &[u64]) -> Self {
        words[0]
    }
    fn store(self, out: &mut [u64]) {
        out[0] = self;
    }
}

/// `W` consecutive lane words treated as one value: `W·64` Monte-Carlo trials
/// per word operation. The multi-word unit of the block evaluators — with
/// `W = 8` a single AND over two blocks advances 512 trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct LaneBlock<const W: usize>(pub [u64; W]);

impl<const W: usize> Lanes for LaneBlock<W> {
    const WORDS: usize = W;

    fn zeros() -> Self {
        LaneBlock([0; W])
    }
    fn ones() -> Self {
        LaneBlock([u64::MAX; W])
    }
    fn and(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(other.0) {
            *o &= r;
        }
        LaneBlock(out)
    }
    fn or(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(other.0) {
            *o |= r;
        }
        LaneBlock(out)
    }
    fn xor(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(other.0) {
            *o ^= r;
        }
        LaneBlock(out)
    }
    fn not(self) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = !*o;
        }
        LaneBlock(out)
    }
    fn any(self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }
    fn load(words: &[u64]) -> Self {
        let mut out = [0u64; W];
        out.copy_from_slice(&words[..W]);
        LaneBlock(out)
    }
    fn store(self, out: &mut [u64]) {
        out[..W].copy_from_slice(&self.0);
    }
}

/// Lanes of "at least `threshold` of the inputs are 1", computed with a
/// bit-sliced carry-save counter: bit `t` of the result is 1 iff at least
/// `threshold` of the input lanes have bit `t` set.
///
/// Cost is about one full adder (five word operations) per input for 64
/// trials, plus O(log `lanes.len()`) to settle the count — the per-trial
/// cardinality check of Majority-style systems collapses to roughly `5n/64`
/// word operations, independent of the input values.
pub fn count_at_least(lanes: &[u64], threshold: usize) -> u64 {
    count_at_least_lanes(lanes.iter().copied(), threshold)
}

/// Bit planes of a per-lane count: enough for any `usize` number of inputs.
const PLANES: usize = usize::BITS as usize;

/// `(a + b + c)` per lane as `(sum, carry)` bits.
fn full_add<L: Lanes>(a: L, b: L, c: L) -> (L, L) {
    let ab = a.xor(b);
    (ab.xor(c), a.and(b).or(ab.and(c)))
}

/// The generic form of [`count_at_least`], over any [`Lanes`] width: with
/// [`LaneBlock`] inputs every adder step advances `W·64` trials.
///
/// The counter lives in two fixed on-stack plane arrays, so no call
/// allocates. Inputs enter as addends of weight 1; each level `i` pairs
/// its addends through a full adder into its sum plane, passing the carry
/// up as an addend of weight `2^(i+1)`. Level `i` holds an unpaired addend
/// exactly when bit `i` of the input count so far is set, so the pairing
/// follows a binary increment of that count: one adder per input, amortised.
pub fn count_at_least_lanes<L, I>(lanes: I, threshold: usize) -> L
where
    L: Lanes,
    I: IntoIterator<Item = L>,
{
    if threshold == 0 {
        return L::ones();
    }
    let mut sum = [L::zeros(); PLANES];
    let mut unpaired = [L::zeros(); PLANES];
    let mut count = 0usize;
    lanes.into_iter().for_each(|lane| {
        let paired = count.trailing_ones() as usize;
        let mut addend = lane;
        for level in 0..paired {
            let (s, carry) = full_add(sum[level], unpaired[level], addend);
            sum[level] = s;
            addend = carry;
        }
        unpaired[paired] = addend;
        count += 1;
    });
    if threshold > count {
        return L::zeros();
    }
    // Settle the unpaired addends into the sum planes; the per-lane total
    // is at most `count`, so it fits in `bits` planes.
    let bits = (usize::BITS - count.leading_zeros()) as usize;
    let mut carry = L::zeros();
    for (level, plane) in sum.iter_mut().enumerate().take(bits) {
        let addend = if count >> level & 1 == 1 {
            unpaired[level]
        } else {
            L::zeros()
        };
        (*plane, carry) = full_add(*plane, addend, carry);
    }
    // Bit-sliced comparison count >= threshold, MSB to LSB.
    let mut ge = L::zeros();
    let mut eq = L::ones();
    for (level, &plane) in sum.iter().enumerate().take(bits).rev() {
        if (threshold >> level) & 1 == 0 {
            ge = ge.or(eq.and(plane));
            eq = eq.and(plane.not());
        } else {
            eq = eq.and(plane);
        }
    }
    ge.or(eq)
}

/// Lanes of 2-of-3 majority: bit `t` is 1 iff at least two of `a`, `b`, `c`
/// have bit `t` set. The gate of HQS, one trial per bit.
pub fn majority3(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (a & c) | (b & c)
}

/// The generic form of [`majority3`], over any [`Lanes`] width.
pub fn majority3_lanes<L: Lanes>(a: L, b: L, c: L) -> L {
    a.and(b).or(a.and(c)).or(b.and(c))
}

/// Precision of the Bernoulli lane expansion, in bits: lane probabilities
/// are quantised to `round(p·2³²)/2³²`, a bias of at most `2⁻³³` — several
/// orders of magnitude below the Monte-Carlo standard error of any feasible
/// trial count, and half the random words of a full 53-bit expansion.
pub const BERNOULLI_BITS: u32 = 32;

/// A probability at the lane expansion's precision (see [`BERNOULLI_BITS`]).
enum Quantised {
    /// `p` rounds to 0 or 1: every lane bit equals this word's, and no
    /// randomness is drawn.
    Constant(u64),
    /// `round(p·2³²) = bits · 2^(32 − draws)` with `bits` odd: fold `draws`
    /// random words into each lane word, the lowest bit of `bits` first.
    Expansion { bits: u64, draws: u32 },
}

/// Quantises `p` to `round(p·2³²)/2³²`. Bits of the expansion below its
/// lowest set bit are no-ops (`r & 0 = 0`) and are skipped; every position
/// above — including zero bits, which halve the probability via `r & acc` —
/// costs one word.
fn quantise(p: f64) -> Quantised {
    if p <= 0.0 {
        return Quantised::Constant(0);
    }
    if p >= 1.0 {
        return Quantised::Constant(u64::MAX);
    }
    const SCALE: f64 = (1u64 << BERNOULLI_BITS) as f64;
    let scaled = (p * SCALE).round() as u64;
    if scaled == 0 {
        return Quantised::Constant(0);
    }
    if scaled >= 1u64 << BERNOULLI_BITS {
        return Quantised::Constant(u64::MAX);
    }
    let skip = scaled.trailing_zeros();
    Quantised::Expansion {
        bits: scaled >> skip,
        draws: BERNOULLI_BITS - skip,
    }
}

/// Fills one lane word with 64 independent Bernoulli(`p`) draws using the
/// binary-expansion trick: with `p = Σ bᵢ 2⁻ⁱ`, folding fresh random words
/// `r` as `acc = r | acc` (bit 1) / `acc = r & acc` (bit 0) from the least
/// significant expansion bit upward leaves every lane bit set with
/// probability `round(p·2³²)/2³²` (see [`BERNOULLI_BITS`]).
///
/// Consumes at most [`BERNOULLI_BITS`] random words per 64 trials — and far
/// fewer for dyadic probabilities (a single word for `p = 1/2`), since
/// trailing zero bits of the expansion are skipped.
pub fn bernoulli_lanes<F: FnMut() -> u64>(p: f64, mut next_word: F) -> u64 {
    match quantise(p) {
        Quantised::Constant(word) => word,
        Quantised::Expansion { bits, draws } => {
            let mut acc = [0u64];
            fold_row(bits, draws, &mut acc, &mut |_| next_word());
            acc[0]
        }
    }
}

/// Fills `out.len()` lane words with independent Bernoulli(`p`) draws, one
/// **independent word stream per lane word**: `next_word(w)` must return the
/// next word of stream `w`, and stream `w` is consumed in exactly the order
/// and quantity a standalone [`bernoulli_lanes`] call on that stream would
/// consume it.
///
/// This is the fill of one element's trial words: a width-`W` trial
/// superblock uses `W` per-trial-word RNG streams, so lane content is
/// bit-identical whether the block is filled at width 1, 4 or 8 — the
/// determinism contract that keeps wide estimators byte-compatible with the
/// single-word ones. To fill a whole element-major block at one `p`, use
/// [`bernoulli_lane_rows`], which quantises `p` once for the block and draws
/// the streams exactly as per-element calls of this function would.
pub fn bernoulli_lane_words<F: FnMut(usize) -> u64>(p: f64, out: &mut [u64], mut next_word: F) {
    match quantise(p) {
        Quantised::Constant(word) => out.fill(word),
        Quantised::Expansion { bits, draws } => fold_row(bits, draws, out, &mut next_word),
    }
}

/// Fills an element-major block of lane words with independent
/// Bernoulli(`p`) draws: row `e` is `block[e·width..(e + 1)·width]`, and its
/// word `w` comes from stream `w` (`next_word(w)`). The result, and the order
/// and quantity in which every stream is drawn, equal those of
/// [`bernoulli_lane_words`] called on each row in turn.
///
/// `p` is quantised once per call. For the widths in [`LANE_WIDTHS`] the
/// rows are filled by a fixed-width loop that stores each stream's first
/// draw and folds the remaining expansion bits in place; at `p = ½` there
/// is nothing to fold, and a row is a lock-step copy of the `width`
/// streams. Other widths fold row by row at a runtime width.
///
/// # Panics
///
/// Panics if `width == 0` or `block.len()` is not a multiple of `width`.
pub fn bernoulli_lane_rows<F: FnMut(usize) -> u64>(
    p: f64,
    width: usize,
    block: &mut [u64],
    mut next_word: F,
) {
    assert!(width > 0, "lane width must be positive");
    assert_eq!(
        block.len() % width,
        0,
        "a lane block holds whole rows of {width} words"
    );
    let (bits, draws) = match quantise(p) {
        Quantised::Constant(word) => return block.fill(word),
        Quantised::Expansion { bits, draws } => (bits, draws),
    };
    match width {
        1 => fill_rows::<1, F>(bits, draws, block, next_word),
        4 => fill_rows::<4, F>(bits, draws, block, next_word),
        8 => fill_rows::<8, F>(bits, draws, block, next_word),
        _ => {
            for row in block.chunks_exact_mut(width) {
                fold_row(bits, draws, row, &mut next_word);
            }
        }
    }
}

/// Folds a `draws`-word expansion into one row: stream `w`'s first draw is
/// stored in `row[w]` (the lowest expansion bit is always 1, and `r | 0 =
/// r`), then each further bit ORs or ANDs in one more draw per stream.
#[inline(always)]
fn fold_row<F: FnMut(usize) -> u64>(mut bits: u64, draws: u32, row: &mut [u64], next_word: &mut F) {
    for (w, acc) in row.iter_mut().enumerate() {
        *acc = next_word(w);
    }
    for _ in 1..draws {
        bits >>= 1;
        if bits & 1 == 1 {
            for (w, acc) in row.iter_mut().enumerate() {
                *acc |= next_word(w);
            }
        } else {
            for (w, acc) in row.iter_mut().enumerate() {
                *acc &= next_word(w);
            }
        }
    }
}

/// [`bernoulli_lane_rows`] at a compile-time width `W`.
fn fill_rows<const W: usize, F: FnMut(usize) -> u64>(
    bits: u64,
    draws: u32,
    block: &mut [u64],
    mut next_word: F,
) {
    for row in block.chunks_exact_mut(W) {
        let row = <&mut [u64; W]>::try_from(row).expect("chunks_exact_mut yields rows of W words");
        fold_row(bits, draws, row, &mut next_word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference: per-trial popcount threshold.
    fn scalar_count_at_least(lanes: &[u64], threshold: usize) -> u64 {
        let mut out = 0u64;
        for t in 0..LANE_TRIALS {
            let count = lanes.iter().filter(|&&l| (l >> t) & 1 == 1).count();
            if count >= threshold {
                out |= 1u64 << t;
            }
        }
        out
    }

    /// A tiny deterministic word stream for the tests.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn count_at_least_matches_scalar_reference() {
        let mut next = stream(1);
        for n in [1usize, 2, 3, 7, 64, 65, 130] {
            let lanes: Vec<u64> = (0..n).map(|_| next()).collect();
            for threshold in [0usize, 1, 2, n / 2, n.saturating_sub(1), n, n + 1] {
                assert_eq!(
                    count_at_least(&lanes, threshold),
                    scalar_count_at_least(&lanes, threshold),
                    "n={n} threshold={threshold}"
                );
            }
        }
    }

    #[test]
    fn count_at_least_extremes() {
        assert_eq!(count_at_least(&[], 0), u64::MAX);
        assert_eq!(count_at_least(&[], 1), 0);
        assert_eq!(count_at_least(&[u64::MAX], 1), u64::MAX);
        assert_eq!(count_at_least(&[0], 1), 0);
    }

    #[test]
    fn majority3_is_two_of_three() {
        assert_eq!(majority3(0b110, 0b101, 0b011), 0b111);
        assert_eq!(majority3(0b100, 0b000, 0b001), 0b000);
        assert_eq!(majority3(u64::MAX, 0, u64::MAX), u64::MAX);
    }

    #[test]
    fn lane_block_word_ops_act_per_word() {
        let a = LaneBlock([0b110, 0b101]);
        let b = LaneBlock([0b011, 0b100]);
        assert_eq!(a.and(b), LaneBlock([0b010, 0b100]));
        assert_eq!(a.or(b), LaneBlock([0b111, 0b101]));
        assert_eq!(a.xor(b), LaneBlock([0b101, 0b001]));
        assert_eq!(a.not().0[0], !0b110u64);
        assert!(a.any());
        assert!(!LaneBlock::<4>::zeros().any());
        assert_eq!(LaneBlock::<4>::ones().0, [u64::MAX; 4]);
        assert_eq!(<LaneBlock<2> as Lanes>::TRIALS, 128);
    }

    #[test]
    fn lane_block_load_store_round_trips() {
        let words = [1u64, 2, 3, 4, 5];
        let block: LaneBlock<4> = Lanes::load(&words);
        assert_eq!(block.0, [1, 2, 3, 4]);
        let mut out = [0u64; 5];
        block.store(&mut out);
        assert_eq!(out, [1, 2, 3, 4, 0]);
        let w: u64 = Lanes::load(&words[1..]);
        assert_eq!(w, 2);
    }

    /// A width-W `count_at_least_lanes` must agree word-for-word with the
    /// per-trial popcount of each word over the interleaved layout, for
    /// input counts that fill several carry levels.
    fn check_block_count_at_least<const W: usize>(seed: u64) {
        let mut next = stream(seed);
        for n in [1usize, 2, 3, 9, 64, 91, 255, 256, 257, 600] {
            let lanes: Vec<u64> = (0..n * W).map(|_| next()).collect();
            for threshold in [0usize, 1, n / 3, n / 2, n, n + 1] {
                let blocks =
                    (0..n).map(|e| LaneBlock::<W>(std::array::from_fn(|w| lanes[e * W + w])));
                let block_result: LaneBlock<W> = count_at_least_lanes(blocks, threshold);
                for w in 0..W {
                    let word_lanes: Vec<u64> = (0..n).map(|e| lanes[e * W + w]).collect();
                    assert_eq!(
                        block_result.0[w],
                        scalar_count_at_least(&word_lanes, threshold),
                        "W={W} n={n} threshold={threshold} word {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_count_at_least_matches_per_word_evaluation() {
        check_block_count_at_least::<1>(5);
        check_block_count_at_least::<4>(7);
        check_block_count_at_least::<8>(9);
    }

    #[test]
    fn majority3_lanes_matches_scalar_gate() {
        let mut next = stream(11);
        for _ in 0..16 {
            let (a, b, c) = (next(), next(), next());
            let block = majority3_lanes(LaneBlock([a, b]), LaneBlock([b, c]), LaneBlock([c, a]));
            assert_eq!(block.0[0], majority3(a, b, c));
            assert_eq!(block.0[1], majority3(b, c, a));
        }
    }

    /// `bernoulli_lane_words` over W streams must reproduce W standalone
    /// `bernoulli_lanes` calls bit-for-bit, including per-stream draw counts.
    #[test]
    fn block_bernoulli_fill_matches_independent_streams() {
        const W: usize = 8;
        for p in [0.0f64, 0.1, 0.25, 0.3, 0.5, 0.9, 1.0] {
            let mut streams: Vec<_> = (0..W).map(|w| stream(1000 + w as u64)).collect();
            let mut out = [0u64; W];
            bernoulli_lane_words(p, &mut out, |w| streams[w]());
            for (w, lane) in out.iter().enumerate() {
                let mut reference = stream(1000 + w as u64);
                assert_eq!(
                    *lane,
                    bernoulli_lanes(p, &mut reference),
                    "p={p} stream {w} diverged"
                );
            }
        }
    }

    #[test]
    fn bernoulli_lanes_extremes_and_dyadic_economy() {
        let draws = std::cell::Cell::new(0usize);
        let mut next = stream(2);
        let mut counted = || {
            draws.set(draws.get() + 1);
            next()
        };
        assert_eq!(bernoulli_lanes(0.0, &mut counted), 0);
        assert_eq!(bernoulli_lanes(1.0, &mut counted), u64::MAX);
        assert_eq!(draws.get(), 0, "extremes must not consume randomness");
        let _ = bernoulli_lanes(0.5, &mut counted);
        assert_eq!(draws.get(), 1, "p=1/2 is a single word draw");
        let _ = bernoulli_lanes(0.25, &mut counted);
        assert_eq!(draws.get(), 3, "p=1/4 is two more word draws");
    }

    #[test]
    fn bernoulli_lanes_hit_the_requested_rate() {
        for p in [0.1f64, 0.25, 0.3, 0.5, 0.75, 0.9] {
            let mut next = stream(p.to_bits());
            let mut ones = 0u64;
            let blocks = 4_000;
            for _ in 0..blocks {
                ones += u64::from(bernoulli_lanes(p, &mut next).count_ones());
            }
            let rate = ones as f64 / (blocks * LANE_TRIALS as u64) as f64;
            assert!((rate - p).abs() < 0.01, "p={p}: empirical lane rate {rate}");
        }
    }

    /// Calls `bernoulli_lanes(p)` once over a counted word stream, returning
    /// `(lane word, words consumed)`.
    fn counted_lanes(p: f64, seed: u64) -> (u64, usize) {
        let mut draws = 0usize;
        let mut next = stream(seed);
        let lanes = bernoulli_lanes(p, || {
            draws += 1;
            next()
        });
        (lanes, draws)
    }

    /// The scalar reference sampler at the lane expansion's own quantisation:
    /// one word per trial, red iff its top 32 bits fall below `round(p·2³²)`.
    fn scalar_rate(p: f64, trials: usize, seed: u64) -> f64 {
        let threshold = (p * (1u64 << BERNOULLI_BITS) as f64).round() as u64;
        let mut next = stream(seed);
        let mut reds = 0usize;
        for _ in 0..trials {
            if (next() >> BERNOULLI_BITS) < threshold {
                reds += 1;
            }
        }
        reds as f64 / trials as f64
    }

    /// Probabilities at the edges of the expansion: the constants, 2⁻³³ (the
    /// rounding cut, which rounds up to 2⁻³²) and 2⁻³², one- and two-bit
    /// dyadic expansions, full 32-word ones, and 1 − 2⁻³³, which rounds to 1.
    const EDGE_P: [f64; 10] = [
        0.0,
        1.0 / (1u64 << 33) as f64,
        1.0 / (1u64 << 32) as f64,
        0.25,
        0.5,
        0.75,
        0.1,
        0.3,
        1.0 - 1.0 / (1u64 << 33) as f64,
        1.0,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// The block fill equals per-row `bernoulli_lane_words` from
        /// identical streams — every lane word, and every stream's next word
        /// afterwards, so the draw counts match too — over the fixed-width
        /// paths (1, 4, 8) and the runtime-width fallback. Both outputs start
        /// from a non-zero pattern, so a fill that ORs into the block fails.
        #[test]
        fn prop_block_fill_equals_per_row_fill(
            edge in 0usize..=EDGE_P.len(),
            random_p in 0.0f64..1.0,
            width in 1usize..=9,
            n in 0usize..=70,
            seed in 0u64..1 << 48,
        ) {
            let p = EDGE_P.get(edge).copied().unwrap_or(random_p);
            let streams = || -> Vec<_> { (0..width).map(|w| stream(seed + w as u64)).collect() };
            let mut block = vec![0x5A5A_F0F0_3C3C_9696u64; n * width];
            let mut block_streams = streams();
            bernoulli_lane_rows(p, width, &mut block, |w| block_streams[w]());
            let mut rows = vec![!0x5A5A_F0F0_3C3C_9696u64; n * width];
            let mut row_streams = streams();
            for row in rows.chunks_mut(width) {
                bernoulli_lane_words(p, row, |w| row_streams[w]());
            }
            proptest::prop_assert_eq!(&block, &rows, "p = {}, width {}, n {}", p, width, n);
            for w in 0..width {
                proptest::prop_assert_eq!(
                    block_streams[w](),
                    row_streams[w](),
                    "p = {}, width {}, n {}: stream {} drew a different count",
                    p, width, n, w
                );
            }
        }
    }

    proptest::proptest! {
        /// Edge: p = 0 and p = 1 are decided without consuming any
        /// randomness, and every lane agrees.
        #[test]
        fn prop_extreme_p_consumes_no_randomness(seed in 0u64..1000) {
            let (zero, zero_draws) = counted_lanes(0.0, seed);
            proptest::prop_assert_eq!(zero, 0);
            proptest::prop_assert_eq!(zero_draws, 0);
            let (one, one_draws) = counted_lanes(1.0, seed);
            proptest::prop_assert_eq!(one, u64::MAX);
            proptest::prop_assert_eq!(one_draws, 0);
        }

        /// Edge: tiny p below the 2⁻³³ rounding threshold quantises to an
        /// all-zero lane word without consuming randomness.
        #[test]
        fn prop_tiny_p_rounds_to_zero(seed in 0u64..1000, exp in 34u32..200) {
            let p = 2f64.powi(-(exp as i32));
            let (lanes, draws) = counted_lanes(p, seed);
            proptest::prop_assert_eq!(lanes, 0);
            proptest::prop_assert_eq!(draws, 0);
        }

        /// Edge: exact dyadic p = k/2^m consumes exactly `m − tz(k)` words —
        /// the expansion skips the trailing zero bits and nothing else.
        #[test]
        fn prop_dyadic_draw_counts_are_exact(
            m in 1u32..=16,
            k_raw in 1u64..(1u64 << 16),
            seed in 0u64..1000,
        ) {
            let k = k_raw & ((1u64 << m) - 1);
            proptest::prop_assume!(k > 0);
            let p = k as f64 / (1u64 << m) as f64;
            let (_, draws) = counted_lanes(p, seed);
            let expected = m - k.trailing_zeros();
            proptest::prop_assert_eq!(draws, expected as usize, "p = {}/2^{}", k, m);
        }

        /// Statistics: the lane popcount rate matches the scalar
        /// threshold-compare sampler at the same quantised probability —
        /// including exact dyadic p, where both hit it exactly in
        /// expectation.
        #[test]
        fn prop_lane_popcounts_match_the_scalar_sampler(
            p_milli in 1u32..1000,
            seed in 0u64..50,
        ) {
            let p = f64::from(p_milli) / 1000.0;
            let blocks = 1_500usize;
            let mut next = stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1);
            let mut ones = 0u64;
            for _ in 0..blocks {
                ones += u64::from(bernoulli_lanes(p, &mut next).count_ones());
            }
            let lane_rate = ones as f64 / (blocks * LANE_TRIALS) as f64;
            let scalar = scalar_rate(p, blocks * LANE_TRIALS, !seed);
            // Both estimates carry ≤ 0.0017 standard error at 96k trials;
            // 0.012 is a generous joint 5σ band.
            proptest::prop_assert!(
                (lane_rate - p).abs() < 0.012,
                "lane rate {} drifted from p={}", lane_rate, p
            );
            proptest::prop_assert!(
                (lane_rate - scalar).abs() < 0.012,
                "lane rate {} vs scalar rate {}", lane_rate, scalar
            );
        }

        /// Edge: tiny-but-representable p (a single expansion bit) pays the
        /// full 32-word cost and produces a sparse lane word.
        #[test]
        fn prop_smallest_representable_p(seed in 0u64..200) {
            let p = 2f64.powi(-(BERNOULLI_BITS as i32));
            let (lanes, draws) = counted_lanes(p, seed);
            proptest::prop_assert_eq!(draws, BERNOULLI_BITS as usize);
            // 64 trials at p = 2⁻³²: more than a couple of set bits means
            // the expansion is broken, not unlucky (P ≈ 1e-17).
            proptest::prop_assert!(lanes.count_ones() <= 2);
        }
    }
}
