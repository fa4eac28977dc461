//! XOR deltas between colorings and incremental, delta-driven evaluation.
//!
//! A [`ColoringDelta`] is the sparse word-level XOR between two colorings of
//! the same universe: a sorted list of `(word index, xor mask)` entries whose
//! masks are nonzero. Applying a delta is a handful of word XORs, independent
//! of the universe size.
//!
//! [`DeltaEvaluator`] is the incremental counterpart of
//! [`QuorumSystem::has_green_quorum`]: a stateful evaluator that caches
//! whatever per-family structure makes re-evaluation after a small delta
//! cheap (green counters, per-row tallies, gate values of the quorum
//! circuit). Families expose their evaluator through
//! [`QuorumSystem::delta_evaluator`]; [`delta_evaluator_for`] falls back to a
//! generic [`RescanDeltaEvaluator`] that still short-circuits empty deltas
//! and monotone-direction flips.

use crate::set::{tail_mask, WORD_BITS};
use crate::system::DynQuorumSystem;
use crate::{Coloring, ElementId, QuorumSystem};

/// The sparse XOR between two [`Coloring`]s of the same universe.
///
/// Entries are `(word index, xor mask)` pairs sorted by strictly increasing
/// word index, with nonzero masks and tail bits (beyond the universe) always
/// clear — so applying a delta preserves the canonical zero-tail invariant of
/// [`Coloring`] and `flip_count` is an exact popcount.
///
/// # Examples
///
/// ```
/// use quorum_core::{Color, Coloring};
///
/// let a = Coloring::from_colors(vec![Color::Green, Color::Red, Color::Green]);
/// let b = Coloring::from_colors(vec![Color::Red, Color::Red, Color::Green]);
/// let delta = a.diff(&b);
/// assert_eq!(delta.flip_count(), 1);
/// let mut c = a.clone();
/// c.apply_delta(&delta);
/// assert_eq!(c, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ColoringDelta {
    universe: usize,
    entries: Vec<(u32, u64)>,
}

impl ColoringDelta {
    /// The empty delta over a universe of `n` elements.
    pub fn empty(n: usize) -> Self {
        ColoringDelta {
            universe: n,
            entries: Vec::new(),
        }
    }

    /// Number of elements in the universe both endpoint colorings share.
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// The dirty-word index: `(word index, xor mask)` pairs sorted by
    /// strictly increasing word index, masks nonzero and tail-clean.
    pub fn entries(&self) -> &[(u32, u64)] {
        &self.entries
    }

    /// Whether the delta flips no element at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of elements flipped by the delta (exact popcount).
    pub fn flip_count(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, m)| m.count_ones() as usize)
            .sum()
    }

    /// Iterates the flipped elements in increasing order.
    pub fn flipped_elements(&self) -> impl Iterator<Item = ElementId> + '_ {
        self.entries.iter().flat_map(|&(w, mask)| {
            let base = w as usize * WORD_BITS;
            BitIter { mask }.map(move |bit| base + bit)
        })
    }

    /// Clears the delta (keeps the allocation and universe).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Resets the delta to the empty delta over a universe of `n` elements,
    /// reusing the allocation.
    pub fn reset(&mut self, n: usize) {
        self.universe = n;
        self.entries.clear();
    }

    /// Appends a dirty word. The mask is tail-masked against the universe;
    /// zero masks (after tail-masking) are dropped. This is the word-fill
    /// entry point for samplers that generate flips word-packed.
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range for the universe, or not
    /// strictly greater than the last pushed word index.
    pub fn push_word(&mut self, word_index: usize, mask: u64) {
        let words = self.universe.div_ceil(WORD_BITS).max(1);
        assert!(
            word_index < words,
            "word {word_index} out of range for universe {}",
            self.universe
        );
        if let Some(&(last, _)) = self.entries.last() {
            assert!(
                (last as usize) < word_index,
                "word indices must be pushed in strictly increasing order"
            );
        }
        let masked = if word_index + 1 == words {
            mask & tail_mask(self.universe)
        } else {
            mask
        };
        if masked != 0 {
            self.entries.push((word_index as u32, masked));
        }
    }
}

/// Iterator over the set bit positions of a word, LSB first.
struct BitIter {
    mask: u64,
}

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.mask == 0 {
            return None;
        }
        let bit = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        Some(bit)
    }
}

impl Coloring {
    /// The sparse XOR delta taking `self` to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn diff(&self, other: &Coloring) -> ColoringDelta {
        let mut delta = ColoringDelta::empty(self.universe_size());
        self.diff_into(other, &mut delta);
        delta
    }

    /// [`Coloring::diff`] into an existing delta, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn diff_into(&self, other: &Coloring, delta: &mut ColoringDelta) {
        assert_eq!(
            self.universe_size(),
            other.universe_size(),
            "cannot diff colorings over different universes ({} vs {})",
            self.universe_size(),
            other.universe_size()
        );
        delta.reset(self.universe_size());
        for (w, (a, b)) in self.red_words().iter().zip(other.red_words()).enumerate() {
            let xor = a ^ b;
            if xor != 0 {
                // Both inputs are tail-clean, so the mask is too.
                delta.entries.push((w as u32, xor));
            }
        }
    }

    /// Applies a delta in place: a word XOR per dirty entry.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn apply_delta(&mut self, delta: &ColoringDelta) {
        assert_eq!(
            self.universe_size(),
            delta.universe_size(),
            "cannot apply a delta over universe {} to a coloring over {}",
            delta.universe_size(),
            self.universe_size()
        );
        for &(w, mask) in delta.entries() {
            let word = self.red_words()[w as usize] ^ mask;
            self.set_red_word(w as usize, word);
        }
    }
}

/// A stateful incremental evaluator of the green-quorum predicate.
///
/// After [`DeltaEvaluator::reset`] establishes a baseline, each
/// [`DeltaEvaluator::update`] advances the evaluator by one
/// [`ColoringDelta`] and returns the new verdict, touching only the state
/// the delta dirties. The contract: `update(post, delta)` where `delta`
/// takes the previously evaluated coloring to `post` must return exactly
/// `system.has_green_quorum(post)`.
pub trait DeltaEvaluator {
    /// Evaluates `coloring` from scratch, rebuilding all cached structure,
    /// and returns the verdict.
    fn reset(&mut self, coloring: &Coloring) -> bool;

    /// Advances the evaluator by `delta` (taking the previously evaluated
    /// coloring to `post`) and returns the verdict for `post`.
    fn update(&mut self, post: &Coloring, delta: &ColoringDelta) -> bool;

    /// The verdict of the most recent [`DeltaEvaluator::reset`] or
    /// [`DeltaEvaluator::update`].
    fn verdict(&self) -> bool;
}

/// The generic fallback [`DeltaEvaluator`]: full re-evaluation through
/// [`QuorumSystem::has_green_quorum`], with two shortcut layers that skip
/// the rescan entirely —
///
/// 1. an empty delta reuses the previous verdict;
/// 2. a delta that only adds green elements cannot falsify a `true` verdict,
///    and one that only removes them cannot rescue a `false` one
///    (monotonicity of the characteristic function).
#[derive(Debug, Clone)]
pub struct RescanDeltaEvaluator<S: QuorumSystem> {
    system: S,
    verdict: bool,
    primed: bool,
}

impl<S: QuorumSystem> RescanDeltaEvaluator<S> {
    /// Wraps a system in the generic rescan evaluator. The evaluator is
    /// unprimed until the first [`DeltaEvaluator::reset`].
    pub fn new(system: S) -> Self {
        RescanDeltaEvaluator {
            system,
            verdict: false,
            primed: false,
        }
    }

    /// The wrapped system.
    pub fn system(&self) -> &S {
        &self.system
    }
}

impl<S: QuorumSystem> DeltaEvaluator for RescanDeltaEvaluator<S> {
    fn reset(&mut self, coloring: &Coloring) -> bool {
        self.verdict = self.system.has_green_quorum(coloring);
        self.primed = true;
        self.verdict
    }

    fn update(&mut self, post: &Coloring, delta: &ColoringDelta) -> bool {
        assert!(self.primed, "update before reset");
        if delta.is_empty() {
            return self.verdict;
        }
        // Monotone shortcut: classify the flip directions against the
        // post-delta words. A flipped bit set in `post` turned red, a
        // flipped bit clear in `post` turned green.
        let words = post.red_words();
        let any_to_red = delta
            .entries()
            .iter()
            .any(|&(w, m)| m & words[w as usize] != 0);
        let any_to_green = delta
            .entries()
            .iter()
            .any(|&(w, m)| m & !words[w as usize] != 0);
        if self.verdict && !any_to_red {
            return true;
        }
        if !self.verdict && !any_to_green {
            return false;
        }
        self.verdict = self.system.has_green_quorum(post);
        self.verdict
    }

    fn verdict(&self) -> bool {
        assert!(self.primed, "verdict before reset");
        self.verdict
    }
}

/// The incremental evaluator for `system`: the family's own
/// [`QuorumSystem::delta_evaluator`] when it has one, otherwise a
/// [`RescanDeltaEvaluator`] sharing the `Arc`.
pub fn delta_evaluator_for(system: &DynQuorumSystem) -> Box<dyn DeltaEvaluator + Send> {
    system
        .delta_evaluator()
        .unwrap_or_else(|| Box::new(RescanDeltaEvaluator::new(system.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Color, Coterie, ElementSet};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn maj3() -> Coterie {
        Coterie::new(
            3,
            vec![
                ElementSet::from_iter(3, [0, 1]),
                ElementSet::from_iter(3, [0, 2]),
                ElementSet::from_iter(3, [1, 2]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn diff_apply_round_trips() {
        for n in [1usize, 3, 63, 64, 65, 130] {
            let a = Coloring::from_fn(n, |e| if e % 3 == 0 { Color::Red } else { Color::Green });
            let b = Coloring::from_fn(n, |e| if e % 5 == 0 { Color::Red } else { Color::Green });
            let delta = a.diff(&b);
            let mut c = a.clone();
            c.apply_delta(&delta);
            assert_eq!(c, b, "n={n}");
            // The reverse delta is the same masks.
            let back = b.diff(&a);
            assert_eq!(delta, back);
            c.apply_delta(&back);
            assert_eq!(c, a);
        }
    }

    #[test]
    fn diff_of_identical_colorings_is_empty() {
        let a = Coloring::all_green(100);
        let delta = a.diff(&a);
        assert!(delta.is_empty());
        assert_eq!(delta.flip_count(), 0);
        assert_eq!(delta.flipped_elements().count(), 0);
    }

    #[test]
    fn flip_count_and_elements_agree() {
        let a = Coloring::all_green(200);
        let mut b = a.clone();
        for e in [0usize, 63, 64, 127, 199] {
            b.set_color(e, Color::Red);
        }
        let delta = a.diff(&b);
        assert_eq!(delta.flip_count(), 5);
        assert_eq!(
            delta.flipped_elements().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 199]
        );
        assert_eq!(delta.entries().len(), 3);
    }

    #[test]
    fn push_word_masks_the_tail_and_drops_zeros() {
        let mut delta = ColoringDelta::empty(70);
        delta.push_word(0, 0);
        assert!(delta.is_empty());
        // Universe 70: word 1 keeps only its low 6 bits.
        delta.push_word(1, u64::MAX);
        assert_eq!(delta.entries(), &[(1u32, 0x3F)]);
        assert_eq!(delta.flip_count(), 6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_word_rejects_out_of_order_words() {
        let mut delta = ColoringDelta::empty(200);
        delta.push_word(2, 1);
        delta.push_word(1, 1);
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn diff_rejects_universe_mismatch() {
        let _ = Coloring::all_green(3).diff(&Coloring::all_green(4));
    }

    #[test]
    fn apply_delta_keeps_the_tail_canonical() {
        // 70 elements: the delta flips the last element; equality afterwards
        // only holds if tail bits stay zero.
        let a = Coloring::all_green(70);
        let mut b = a.clone();
        b.set_color(69, Color::Red);
        let mut c = a.clone();
        c.apply_delta(&a.diff(&b));
        assert_eq!(c, b);
        assert_eq!(c.red_words().last().copied().unwrap() & !0x3F, 0);
    }

    /// A counting wrapper to observe how often the fallback really rescans.
    struct Counting {
        inner: Coterie,
        calls: Arc<AtomicUsize>,
    }

    impl QuorumSystem for Counting {
        fn name(&self) -> String {
            "counting".into()
        }
        fn universe_size(&self) -> usize {
            self.inner.universe_size()
        }
        fn contains_quorum(&self, set: &ElementSet) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.contains_quorum(set)
        }
        fn min_quorum_size(&self) -> usize {
            self.inner.min_quorum_size()
        }
        fn max_quorum_size(&self) -> usize {
            self.inner.max_quorum_size()
        }
    }

    #[test]
    fn rescan_evaluator_matches_scratch_on_all_transitions() {
        let system = maj3();
        let mut eval = RescanDeltaEvaluator::new(&system);
        for start in Coloring::enumerate_all(3) {
            for end in Coloring::enumerate_all(3) {
                assert_eq!(eval.reset(&start), system.has_green_quorum(&start));
                let delta = start.diff(&end);
                assert_eq!(
                    eval.update(&end, &delta),
                    system.has_green_quorum(&end),
                    "transition {start} -> {end}"
                );
                assert_eq!(eval.verdict(), system.has_green_quorum(&end));
            }
        }
    }

    #[test]
    fn empty_delta_and_monotone_shortcuts_skip_the_rescan() {
        let calls = Arc::new(AtomicUsize::new(0));
        let system = Counting {
            inner: maj3(),
            calls: calls.clone(),
        };
        let mut eval = RescanDeltaEvaluator::new(system);
        let all_green = Coloring::all_green(3);
        assert!(eval.reset(&all_green));
        let baseline = calls.load(Ordering::Relaxed);
        // Empty delta: no call.
        assert!(eval.update(&all_green, &all_green.diff(&all_green)));
        assert_eq!(calls.load(Ordering::Relaxed), baseline);
        // Green-only flips onto a true verdict: no call. (Start from one red
        // element, move back to all green.)
        let mut one_red = all_green.clone();
        one_red.set_color(1, Color::Red);
        assert!(eval.reset(&one_red));
        let baseline = calls.load(Ordering::Relaxed);
        assert!(eval.update(&all_green, &one_red.diff(&all_green)));
        assert_eq!(calls.load(Ordering::Relaxed), baseline);
        // Red-only flips onto a false verdict: no call.
        let all_red = Coloring::all_red(3);
        let mut one_green = all_red.clone();
        one_green.set_color(2, Color::Green);
        assert!(!eval.reset(&one_green));
        let baseline = calls.load(Ordering::Relaxed);
        assert!(!eval.update(&all_red, &one_green.diff(&all_red)));
        assert_eq!(calls.load(Ordering::Relaxed), baseline);
    }

    #[test]
    fn delta_evaluator_for_falls_back_to_rescan() {
        let system: DynQuorumSystem = Arc::new(maj3());
        let mut eval = delta_evaluator_for(&system);
        let start = Coloring::all_green(3);
        assert!(eval.reset(&start));
        let end = Coloring::all_red(3);
        assert!(!eval.update(&end, &start.diff(&end)));
    }

    proptest::proptest! {
        /// diff/apply round-trip across random colorings and universes.
        #[test]
        fn prop_diff_apply_round_trips(
            n in 1usize..200,
            seed_a in 0u64..1_000,
            seed_b in 0u64..1_000,
        ) {
            let mix = |seed: u64, e: usize| {
                let mut z = seed ^ (e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^ (z >> 31)
            };
            let a = Coloring::from_fn(n, |e| if mix(seed_a, e) & 1 == 1 { Color::Red } else { Color::Green });
            let b = Coloring::from_fn(n, |e| if mix(seed_b, e) & 1 == 1 { Color::Red } else { Color::Green });
            let delta = a.diff(&b);
            let mut c = a.clone();
            c.apply_delta(&delta);
            proptest::prop_assert_eq!(&c, &b);
            let flips = a
                .iter()
                .zip(b.iter())
                .filter(|((_, ca), (_, cb))| ca != cb)
                .count();
            proptest::prop_assert_eq!(delta.flip_count(), flips);
        }
    }
}
