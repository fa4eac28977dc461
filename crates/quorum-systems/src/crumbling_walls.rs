//! The Crumbling Walls family (Peleg & Wool), including Triang and Wheel.

use std::ops::Range;

use quorum_core::lanes::Lanes;
use quorum_core::{
    Coloring, ColoringDelta, DeltaEvaluator, ElementId, ElementSet, QuorumError, QuorumSystem,
};

use crate::{dispatch_lane_block, too_large, MAX_ELEMENTS};

/// Incremental crumbling-walls evaluation: a green tally per row, adjusted
/// in O(1) per flip, with the bottom-up `2k − 1`-style verdict fold rerun
/// over the `k` row tallies only (`k ≪ n` for every paper shape).
#[derive(Debug, Clone)]
struct CwDeltaEval {
    widths: Vec<usize>,
    offsets: Vec<usize>,
    n: usize,
    row_green: Vec<u32>,
    verdict: bool,
    primed: bool,
}

impl CwDeltaEval {
    fn row_of(&self, e: ElementId) -> usize {
        match self.offsets.binary_search(&e) {
            Ok(row) => row,
            Err(next) => next - 1,
        }
    }

    fn refresh_verdict(&mut self) {
        let mut verdict = false;
        let mut reps_below_all = true;
        for j in (0..self.widths.len()).rev() {
            let green = self.row_green[j] as usize;
            verdict = verdict || (green == self.widths[j] && reps_below_all);
            reps_below_all = reps_below_all && green > 0;
        }
        self.verdict = verdict;
    }
}

impl DeltaEvaluator for CwDeltaEval {
    fn reset(&mut self, coloring: &Coloring) -> bool {
        assert_eq!(coloring.universe_size(), self.n, "universe mismatch");
        for (j, tally) in self.row_green.iter_mut().enumerate() {
            *tally = self.widths[j] as u32;
        }
        for (w, word) in coloring.red_words().iter().enumerate() {
            let mut mask = *word;
            while mask != 0 {
                let e = w * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let row = self.row_of(e);
                self.row_green[row] -= 1;
            }
        }
        self.refresh_verdict();
        self.primed = true;
        self.verdict
    }

    fn update(&mut self, post: &Coloring, delta: &ColoringDelta) -> bool {
        assert!(self.primed, "update before reset");
        assert_eq!(post.universe_size(), self.n, "universe mismatch");
        for e in delta.flipped_elements() {
            let row = self.row_of(e);
            if post.is_green(e) {
                self.row_green[row] += 1;
            } else {
                self.row_green[row] -= 1;
            }
        }
        self.refresh_verdict();
        self.verdict
    }

    fn verdict(&self) -> bool {
        assert!(self.primed, "verdict before reset");
        self.verdict
    }
}

/// A crumbling-walls quorum system `(n_1, …, n_k)-CW`.
///
/// The universe is arranged in `k` rows; row `i` (zero-based here, 1-based in
/// the paper) has width `n_i` and its elements occupy consecutive indices.  A
/// quorum consists of one full row `j` together with one representative from
/// every row *below* `j` (rows with larger index).
///
/// The system is a nondominated coterie when the first row has width 1 and
/// every other row has width greater than 1 ([`CrumblingWalls::is_nd_shape`]).
/// Two special shapes get dedicated constructors:
///
/// * [`CrumblingWalls::wheel`] — `(1, n−1)`-CW, the Wheel;
/// * [`CrumblingWalls::triang`] — `(1, 2, …, d)`-CW, the Triang system.
///
/// Theorem 3.3 of the paper: algorithm `Probe_CW` finds a witness with at most
/// `2k − 1` expected probes for any failure probability `p`, even though the
/// deterministic worst-case probe complexity of every CW system is `n`.
///
/// # Examples
///
/// ```
/// use quorum_core::{ElementSet, QuorumSystem};
/// use quorum_systems::CrumblingWalls;
///
/// let cw = CrumblingWalls::new(vec![1, 3, 4]).unwrap();
/// assert_eq!(cw.universe_size(), 8);
/// assert_eq!(cw.row_count(), 3);
/// // Full middle row {1,2,3} plus one element of the last row.
/// assert!(cw.contains_quorum(&ElementSet::from_iter(8, [1, 2, 3, 6])));
/// // The last row alone is a quorum (nothing lies below it).
/// assert!(cw.contains_quorum(&ElementSet::from_iter(8, [4, 5, 6, 7])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CrumblingWalls {
    widths: Vec<usize>,
    offsets: Vec<usize>,
    n: usize,
}

impl CrumblingWalls {
    /// Creates a crumbling wall with the given row widths (top to bottom).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] if no rows are given, if
    /// any row has width 0, or if the widths sum past 2²⁶.
    pub fn new(widths: Vec<usize>) -> Result<Self, QuorumError> {
        if widths.is_empty() {
            return Err(QuorumError::InvalidConstruction {
                reason: "a crumbling wall needs at least one row".into(),
            });
        }
        if widths.contains(&0) {
            return Err(QuorumError::InvalidConstruction {
                reason: "crumbling wall rows must be nonempty".into(),
            });
        }
        let total = widths.iter().try_fold(0usize, |acc, &w| acc.checked_add(w));
        if total.is_none_or(|n| n > MAX_ELEMENTS) {
            return Err(too_large(format_args!(
                "a crumbling wall of {} rows",
                widths.len()
            )));
        }
        let mut offsets = Vec::with_capacity(widths.len());
        let mut acc = 0;
        for &w in &widths {
            offsets.push(acc);
            acc += w;
        }
        Ok(CrumblingWalls {
            widths,
            offsets,
            n: acc,
        })
    }

    /// The Wheel system as a `(1, n−1)`-CW.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] if `n < 3`.
    pub fn wheel(n: usize) -> Result<Self, QuorumError> {
        if n < 3 {
            return Err(QuorumError::InvalidConstruction {
                reason: format!("a wheel-shaped wall requires at least 3 elements, got {n}"),
            });
        }
        Self::new(vec![1, n - 1])
    }

    /// The Triang system `(1, 2, …, d)`-CW: row `i` has width `i`.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] if `d < 2` or if the
    /// `d(d+1)/2` elements exceed 2²⁶.
    pub fn triang(d: usize) -> Result<Self, QuorumError> {
        if d < 2 {
            return Err(QuorumError::InvalidConstruction {
                reason: format!("triang requires at least 2 rows, got {d}"),
            });
        }
        // Checked before collecting the widths, so a huge `d` allocates
        // nothing.
        if d > MAX_ELEMENTS || (d as u64) * (d as u64 + 1) / 2 > MAX_ELEMENTS as u64 {
            return Err(too_large(format_args!("triang with {d} rows")));
        }
        Self::new((1..=d).collect())
    }

    /// Creates the largest Triang system with at most `size_hint` elements,
    /// the hint clamped to `[3, 2²⁶]` (so at least 2 rows). Infallible
    /// counterpart of [`CrumblingWalls::triang`] for catalogues and
    /// registries.
    pub fn triang_with_size_hint(size_hint: usize) -> Self {
        // Largest d with d(d+1)/2 <= the clamped hint.
        let target = size_hint.clamp(3, MAX_ELEMENTS);
        let mut d = 2;
        while (d + 1) * (d + 2) / 2 <= target {
            d += 1;
        }
        Self::triang(d).expect("d >= 2 within the cap is always valid")
    }

    /// Number of rows `k`.
    pub fn row_count(&self) -> usize {
        self.widths.len()
    }

    /// The row widths, top to bottom.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// The width of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= row_count()`.
    pub fn row_width(&self, row: usize) -> usize {
        self.widths[row]
    }

    /// The elements of row `row`: rows are laid out top-down in index
    /// order, so a row is a contiguous range.
    ///
    /// # Panics
    ///
    /// Panics if `row >= row_count()`.
    pub fn row_elements(&self, row: usize) -> Range<ElementId> {
        let start = self.offsets[row];
        start..start + self.widths[row]
    }

    /// The row containing element `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is outside the universe.
    pub fn row_of(&self, e: ElementId) -> usize {
        assert!(
            e < self.n,
            "element {e} outside universe of size {}",
            self.n
        );
        match self.offsets.binary_search(&e) {
            Ok(row) => row,
            Err(next) => next - 1,
        }
    }

    /// Whether the shape guarantees nondomination: first row of width 1 and
    /// every other row of width greater than 1.
    pub fn is_nd_shape(&self) -> bool {
        self.widths[0] == 1 && self.widths.iter().skip(1).all(|&w| w > 1)
    }

    /// The bottom-up row fold at any lane width: "row full" is an AND over
    /// its element blocks, "row represented" an OR; a quorum exists when some
    /// row is full with every row below it represented.
    fn green_lane_block_impl<L: Lanes>(&self, lanes: &[u64]) -> L {
        let stride = L::WORDS;
        let mut result = L::zeros();
        let mut reps_below_all = L::ones();
        for row in (0..self.row_count()).rev() {
            let start = self.offsets[row];
            let mut full = L::ones();
            let mut rep = L::zeros();
            for e in start..start + self.widths[row] {
                let lane = L::load(&lanes[e * stride..]);
                full = full.and(lane);
                rep = rep.or(lane);
            }
            result = result.or(full.and(reps_below_all));
            reps_below_all = reps_below_all.and(rep);
        }
        result
    }
}

impl QuorumSystem for CrumblingWalls {
    fn name(&self) -> String {
        let widths: Vec<String> = self.widths.iter().map(|w| w.to_string()).collect();
        format!("CW({})", widths.join(","))
    }

    fn universe_size(&self) -> usize {
        self.n
    }

    fn contains_quorum(&self, set: &ElementSet) -> bool {
        let k = self.row_count();
        // Precompute, for every row, whether the set holds the full row and
        // whether it holds at least one representative.
        let mut has_rep = vec![false; k];
        let mut missing = self.widths.clone();
        for e in set.iter() {
            if e >= self.n {
                continue;
            }
            let row = self.row_of(e);
            has_rep[row] = true;
            missing[row] -= 1;
        }
        // A quorum: some row j fully present and a representative in every row
        // below j.
        let mut reps_below_all = true; // all rows strictly below current index have a representative
        for j in (0..k).rev() {
            if missing[j] == 0 && reps_below_all {
                return true;
            }
            reps_below_all = reps_below_all && has_rep[j];
        }
        false
    }

    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        dispatch_lane_block!(self, lanes, width, out)
    }

    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        Some(Box::new(CwDeltaEval {
            widths: self.widths.clone(),
            offsets: self.offsets.clone(),
            n: self.n,
            row_green: vec![0; self.widths.len()],
            verdict: false,
            primed: false,
        }))
    }

    fn min_quorum_size(&self) -> usize {
        (0..self.row_count())
            .map(|j| self.widths[j] + (self.row_count() - 1 - j))
            .min()
            .expect("at least one row")
    }

    fn max_quorum_size(&self) -> usize {
        (0..self.row_count())
            .map(|j| self.widths[j] + (self.row_count() - 1 - j))
            .max()
            .expect("at least one row")
    }

    fn enumerate_quorums(&self) -> Result<Vec<ElementSet>, QuorumError> {
        // Count before materialising: sum over j of prod_{i>j} n_i.
        let mut count: u128 = 0;
        for j in 0..self.row_count() {
            let mut c: u128 = 1;
            for i in j + 1..self.row_count() {
                c = c.saturating_mul(self.widths[i] as u128);
            }
            count = count.saturating_add(c);
        }
        if count > 2_000_000 {
            return Err(QuorumError::UniverseTooLarge {
                actual: self.n,
                limit: 24,
            });
        }
        let mut out = Vec::with_capacity(count as usize);
        for j in 0..self.row_count() {
            // Full row j plus every combination of single representatives from
            // rows below.
            let base = ElementSet::from_iter(self.n, self.row_elements(j));
            let below: Vec<Range<ElementId>> = (j + 1..self.row_count())
                .map(|i| self.row_elements(i))
                .collect();
            let mut stack = vec![(base, 0usize)];
            while let Some((set, depth)) = stack.pop() {
                if depth == below.len() {
                    out.push(set);
                    continue;
                }
                for e in below[depth].clone() {
                    stack.push((set.with(e), depth + 1));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::{CharacteristicFunction, Coloring};

    #[test]
    fn construction_validates_widths() {
        assert!(CrumblingWalls::new(vec![1, 2, 3]).is_ok());
        assert!(matches!(
            CrumblingWalls::new(vec![]),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            CrumblingWalls::new(vec![1, 0, 2]),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn universe_is_capped_at_two_to_the_26() {
        let rejected = |result: Result<CrumblingWalls, QuorumError>| {
            matches!(result, Err(QuorumError::InvalidConstruction { .. }))
        };
        assert_eq!(
            CrumblingWalls::new(vec![1, MAX_ELEMENTS - 1])
                .unwrap()
                .universe_size(),
            MAX_ELEMENTS
        );
        assert!(rejected(CrumblingWalls::new(vec![1, MAX_ELEMENTS])));
        assert!(rejected(CrumblingWalls::new(vec![usize::MAX, 1])));
        // 11 584 rows hold 67 100 640 elements; one more row passes 2^26.
        assert_eq!(CrumblingWalls::triang(11_584).unwrap().row_count(), 11_584);
        for rows in [11_585, 1_000_000_000_000, usize::MAX] {
            assert!(rejected(CrumblingWalls::triang(rows)), "{rows} rows");
        }
        for hint in [MAX_ELEMENTS, MAX_ELEMENTS + 1, usize::MAX] {
            assert_eq!(
                CrumblingWalls::triang_with_size_hint(hint).row_count(),
                11_584
            );
        }
        assert_eq!(CrumblingWalls::triang_with_size_hint(0).row_count(), 2);
        assert_eq!(CrumblingWalls::triang_with_size_hint(10).row_count(), 4);
    }

    #[test]
    fn layout_and_row_lookup() {
        let cw = CrumblingWalls::new(vec![1, 3, 4]).unwrap();
        assert_eq!(cw.universe_size(), 8);
        assert_eq!(cw.row_count(), 3);
        assert_eq!(cw.row_elements(0), 0..1);
        assert_eq!(cw.row_elements(1), 1..4);
        assert_eq!(cw.row_elements(2), 4..8);
        assert_eq!(cw.row_of(0), 0);
        assert_eq!(cw.row_of(3), 1);
        assert_eq!(cw.row_of(7), 2);
        assert_eq!(cw.row_width(1), 3);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn row_of_out_of_range_panics() {
        let cw = CrumblingWalls::new(vec![1, 2]).unwrap();
        let _ = cw.row_of(10);
    }

    #[test]
    fn nd_shape_detection() {
        assert!(CrumblingWalls::new(vec![1, 2, 3]).unwrap().is_nd_shape());
        assert!(CrumblingWalls::wheel(5).unwrap().is_nd_shape());
        assert!(!CrumblingWalls::new(vec![2, 3]).unwrap().is_nd_shape());
        assert!(!CrumblingWalls::new(vec![1, 1, 3]).unwrap().is_nd_shape());
    }

    #[test]
    fn triang_shape() {
        let t = CrumblingWalls::triang(4).unwrap();
        assert_eq!(t.widths(), &[1, 2, 3, 4]);
        assert_eq!(t.universe_size(), 10);
        assert!(t.is_nd_shape());
        assert!(matches!(
            CrumblingWalls::triang(1),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn wheel_shape_matches_wheel_system() {
        let cw = CrumblingWalls::wheel(6).unwrap();
        let wheel = crate::Wheel::new(6).unwrap();
        // Same characteristic function on every subset.
        for mask in 0u64..(1 << 6) {
            let set = ElementSet::from_mask(6, mask);
            assert_eq!(
                cw.contains_quorum(&set),
                wheel.contains_quorum(&set),
                "mismatch on {set}"
            );
        }
        assert!(matches!(
            CrumblingWalls::wheel(2),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn quorum_evaluation_examples() {
        let cw = CrumblingWalls::new(vec![1, 2, 3]).unwrap();
        // Row 0 (just {0}) + rep from row 1 + rep from row 2.
        assert!(cw.contains_quorum(&ElementSet::from_iter(6, [0, 1, 4])));
        // Full row 1 + rep from row 2.
        assert!(cw.contains_quorum(&ElementSet::from_iter(6, [1, 2, 5])));
        // Full bottom row alone.
        assert!(cw.contains_quorum(&ElementSet::from_iter(6, [3, 4, 5])));
        // Row 0 alone is not enough (missing representatives below).
        assert!(!cw.contains_quorum(&ElementSet::from_iter(6, [0])));
        // Row 0 + rep of row 1 but nothing in row 2.
        assert!(!cw.contains_quorum(&ElementSet::from_iter(6, [0, 2])));
        // Partial bottom row.
        assert!(!cw.contains_quorum(&ElementSet::from_iter(6, [3, 4])));
    }

    #[test]
    fn quorum_sizes() {
        let cw = CrumblingWalls::new(vec![1, 2, 3]).unwrap();
        // Sizes: row0: 1+2=3, row1: 2+1=3, row2: 3+0=3 — all equal here.
        assert_eq!(cw.min_quorum_size(), 3);
        assert_eq!(cw.max_quorum_size(), 3);
        let cw = CrumblingWalls::new(vec![1, 5, 2]).unwrap();
        // Sizes: 1+2=3, 5+1=6, 2+0=2.
        assert_eq!(cw.min_quorum_size(), 2);
        assert_eq!(cw.max_quorum_size(), 6);
    }

    #[test]
    fn enumeration_matches_brute_force() {
        let cw = CrumblingWalls::new(vec![1, 2, 3]).unwrap();
        let mut direct = cw.enumerate_quorums().unwrap();
        struct Shadow(CrumblingWalls);
        impl QuorumSystem for Shadow {
            fn name(&self) -> String {
                "shadow".into()
            }
            fn universe_size(&self) -> usize {
                self.0.universe_size()
            }
            fn contains_quorum(&self, set: &ElementSet) -> bool {
                self.0.contains_quorum(set)
            }
            fn min_quorum_size(&self) -> usize {
                self.0.min_quorum_size()
            }
            fn max_quorum_size(&self) -> usize {
                self.0.max_quorum_size()
            }
        }
        let mut brute = Shadow(cw).enumerate_quorums().unwrap();
        direct.sort();
        brute.sort();
        assert_eq!(direct, brute);
    }

    #[test]
    fn nd_shapes_are_nondominated_coteries() {
        for widths in [vec![1, 2], vec![1, 2, 3], vec![1, 3, 2], vec![1, 4, 2, 3]] {
            let cw = CrumblingWalls::new(widths.clone()).unwrap();
            assert!(cw.is_nd_shape());
            let f = CharacteristicFunction::new(&cw);
            assert!(f.is_monotone().unwrap(), "CW{widths:?} must be monotone");
            assert!(f.is_self_dual().unwrap(), "CW{widths:?} must be ND");
        }
    }

    #[test]
    fn non_nd_shape_is_dominated() {
        // First row wider than 1: the coterie is dominated.
        let cw = CrumblingWalls::new(vec![2, 3]).unwrap();
        let f = CharacteristicFunction::new(&cw);
        assert!(!f.is_self_dual().unwrap());
    }

    #[test]
    fn triang_paper_figure_example() {
        // Fig. 1 of the paper shows Triang with rows (1,2,3,4); a quorum is a
        // full row plus one representative from each row below.
        let t = CrumblingWalls::triang(4).unwrap();
        // Full row 2 = {3,4,5} plus one of row 3 = {6,7,8,9}.
        assert!(t.contains_quorum(&ElementSet::from_iter(10, [3, 4, 5, 7])));
        // Just the full bottom row.
        assert!(t.contains_quorum(&ElementSet::from_iter(10, [6, 7, 8, 9])));
        // A full row with a gap below is not a quorum... (row 1 = {1,2} full
        // but no element of rows 2,3).
        assert!(!t.contains_quorum(&ElementSet::from_iter(10, [1, 2])));
    }

    #[test]
    fn coloring_verdict_is_exclusive_for_nd_shapes() {
        let cw = CrumblingWalls::new(vec![1, 2, 3]).unwrap();
        for coloring in Coloring::enumerate_all(6) {
            assert_ne!(cw.has_green_quorum(&coloring), cw.has_red_quorum(&coloring));
        }
    }
}
