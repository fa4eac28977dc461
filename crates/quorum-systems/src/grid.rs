//! A Maekawa-style grid quorum system (extra baseline, not from the paper's
//! main analysis).

use quorum_core::lanes::Lanes;
use quorum_core::{
    Coloring, ColoringDelta, DeltaEvaluator, ElementId, ElementSet, QuorumError, QuorumSystem,
};

use crate::{dispatch_lane_block, too_large, MAX_ELEMENTS};

/// Incremental grid evaluation: per-row and per-column red tallies plus
/// clean-row/clean-column counters. Each flip adjusts two tallies, the
/// verdict is the O(1) test `clean_rows > 0 && clean_cols > 0`.
#[derive(Debug, Clone)]
struct GridDeltaEval {
    rows: usize,
    cols: usize,
    row_red: Vec<u32>,
    col_red: Vec<u32>,
    clean_rows: usize,
    clean_cols: usize,
    verdict: bool,
    primed: bool,
}

impl GridDeltaEval {
    fn recount(&mut self, coloring: &Coloring) {
        self.row_red.iter_mut().for_each(|c| *c = 0);
        self.col_red.iter_mut().for_each(|c| *c = 0);
        for (w, word) in coloring.red_words().iter().enumerate() {
            let mut mask = *word;
            while mask != 0 {
                let e = w * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.row_red[e / self.cols] += 1;
                self.col_red[e % self.cols] += 1;
            }
        }
        self.clean_rows = self.row_red.iter().filter(|&&c| c == 0).count();
        self.clean_cols = self.col_red.iter().filter(|&&c| c == 0).count();
    }
}

impl DeltaEvaluator for GridDeltaEval {
    fn reset(&mut self, coloring: &Coloring) -> bool {
        assert_eq!(
            coloring.universe_size(),
            self.rows * self.cols,
            "universe mismatch"
        );
        self.recount(coloring);
        self.verdict = self.clean_rows > 0 && self.clean_cols > 0;
        self.primed = true;
        self.verdict
    }

    fn update(&mut self, post: &Coloring, delta: &ColoringDelta) -> bool {
        assert!(self.primed, "update before reset");
        assert_eq!(
            post.universe_size(),
            self.rows * self.cols,
            "universe mismatch"
        );
        for e in delta.flipped_elements() {
            let (r, c) = (e / self.cols, e % self.cols);
            if post.is_red(e) {
                self.row_red[r] += 1;
                if self.row_red[r] == 1 {
                    self.clean_rows -= 1;
                }
                self.col_red[c] += 1;
                if self.col_red[c] == 1 {
                    self.clean_cols -= 1;
                }
            } else {
                self.row_red[r] -= 1;
                if self.row_red[r] == 0 {
                    self.clean_rows += 1;
                }
                self.col_red[c] -= 1;
                if self.col_red[c] == 0 {
                    self.clean_cols += 1;
                }
            }
        }
        self.verdict = self.clean_rows > 0 && self.clean_cols > 0;
        self.verdict
    }

    fn verdict(&self) -> bool {
        assert!(self.primed, "verdict before reset");
        self.verdict
    }
}

/// A grid quorum system over `rows × cols` elements: a quorum is the union of
/// one full row and one full column.
///
/// The grid is a classical construction (Maekawa's √n protocol and its
/// variants).  It is an intersecting antichain (a coterie) but is *dominated*
/// for grids larger than 1×1, so the paper's ND-specific results (Lemma 2.1 in
/// particular) do not apply to it; it is included as an additional baseline
/// for the probe-complexity benchmarks, probed with the generic strategies.
///
/// Element `(r, c)` has index `r * cols + c`.
///
/// # Examples
///
/// ```
/// use quorum_core::{ElementSet, QuorumSystem};
/// use quorum_systems::Grid;
///
/// let grid = Grid::new(3, 3).unwrap();
/// // Row 1 = {3,4,5} plus column 0 = {0,3,6}.
/// assert!(grid.contains_quorum(&ElementSet::from_iter(9, [3, 4, 5, 0, 6])));
/// assert!(!grid.contains_quorum(&ElementSet::from_iter(9, [3, 4, 5])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Grid {
    rows: usize,
    cols: usize,
}

impl Grid {
    /// Creates a `rows × cols` grid.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConstruction`] if either dimension is 0,
    /// if both are 1, or if `rows · cols` exceeds 2²⁶.
    pub fn new(rows: usize, cols: usize) -> Result<Self, QuorumError> {
        if rows == 0 || cols == 0 || (rows, cols) == (1, 1) {
            return Err(QuorumError::InvalidConstruction {
                reason: format!(
                    "grid dimensions must be positive and non-trivial, got {rows}x{cols}"
                ),
            });
        }
        if rows.checked_mul(cols).is_none_or(|n| n > MAX_ELEMENTS) {
            return Err(too_large(format_args!("a {rows}x{cols} grid")));
        }
        Ok(Grid { rows, cols })
    }

    /// Creates the largest square grid with at most `size_hint` elements,
    /// the hint clamped to `[4, 2²⁶]` (so the side is 2 to 2¹³).
    /// Infallible counterpart of [`Grid::new`] for size-hinted sweeps and
    /// registries.
    pub fn with_size_hint(size_hint: usize) -> Self {
        let side = (size_hint.clamp(4, MAX_ELEMENTS) as f64).sqrt().floor() as usize;
        Grid::new(side, side).expect("a side in [2, 2^13] is always valid")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn element(&self, row: usize, col: usize) -> ElementId {
        assert!(
            row < self.rows && col < self.cols,
            "grid coordinates out of range"
        );
        row * self.cols + col
    }

    /// The elements of row `row`.
    pub fn row_elements(&self, row: usize) -> Vec<ElementId> {
        (0..self.cols).map(|c| self.element(row, c)).collect()
    }

    /// The elements of column `col`.
    pub fn col_elements(&self, col: usize) -> Vec<ElementId> {
        (0..self.rows).map(|r| self.element(r, col)).collect()
    }

    /// The row/column folds at any lane width: a full row/column is an AND
    /// over its element blocks, "any row"/"any column" an OR over those.
    fn green_lane_block_impl<L: Lanes>(&self, lanes: &[u64]) -> L {
        let stride = L::WORDS;
        let mut any_row = L::zeros();
        for r in 0..self.rows {
            let mut row = L::ones();
            for c in 0..self.cols {
                row = row.and(L::load(&lanes[self.element(r, c) * stride..]));
            }
            any_row = any_row.or(row);
        }
        if !any_row.any() {
            return L::zeros();
        }
        let mut any_col = L::zeros();
        for c in 0..self.cols {
            let mut col = L::ones();
            for r in 0..self.rows {
                col = col.and(L::load(&lanes[self.element(r, c) * stride..]));
            }
            any_col = any_col.or(col);
        }
        any_row.and(any_col)
    }
}

impl QuorumSystem for Grid {
    fn name(&self) -> String {
        format!("Grid({}x{})", self.rows, self.cols)
    }

    fn universe_size(&self) -> usize {
        self.rows * self.cols
    }

    fn contains_quorum(&self, set: &ElementSet) -> bool {
        let full_row =
            (0..self.rows).any(|r| (0..self.cols).all(|c| set.contains(self.element(r, c))));
        if !full_row {
            return false;
        }
        (0..self.cols).any(|c| (0..self.rows).all(|r| set.contains(self.element(r, c))))
    }

    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        dispatch_lane_block!(self, lanes, width, out)
    }

    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        Some(Box::new(GridDeltaEval {
            rows: self.rows,
            cols: self.cols,
            row_red: vec![0; self.rows],
            col_red: vec![0; self.cols],
            clean_rows: 0,
            clean_cols: 0,
            verdict: false,
            primed: false,
        }))
    }

    fn min_quorum_size(&self) -> usize {
        self.rows + self.cols - 1
    }

    fn max_quorum_size(&self) -> usize {
        self.rows + self.cols - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::minimal_quorums;

    /// Products that overflow or pass the cap are rejected as too large —
    /// not as "non-trivial", and not wrapped into a tiny universe.
    #[test]
    fn universe_is_capped_at_two_to_the_26() {
        assert_eq!(Grid::new(8192, 8192).unwrap().universe_size(), MAX_ELEMENTS);
        assert_eq!(
            Grid::new(1, MAX_ELEMENTS).unwrap().universe_size(),
            MAX_ELEMENTS
        );
        for (rows, cols) in [
            (MAX_ELEMENTS + 1, 1),
            (8193, 8192),
            (3, 6_148_914_691_236_517_206),
            (1 << 32, 1 << 32),
            (usize::MAX, usize::MAX),
        ] {
            match Grid::new(rows, cols) {
                Err(QuorumError::InvalidConstruction { reason }) => {
                    assert!(
                        reason.contains("exceeds the limit"),
                        "{rows}x{cols}: {reason}"
                    )
                }
                other => panic!("{rows}x{cols} built {other:?}"),
            }
        }
        for hint in [MAX_ELEMENTS, MAX_ELEMENTS + 1, usize::MAX] {
            let grid = Grid::with_size_hint(hint);
            assert_eq!((grid.rows(), grid.cols()), (8192, 8192));
        }
    }

    #[test]
    fn construction_validation() {
        assert!(Grid::new(2, 3).is_ok());
        assert!(Grid::new(1, 2).is_ok());
        assert!(matches!(
            Grid::new(0, 3),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Grid::new(1, 1),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn indexing() {
        let g = Grid::new(2, 3).unwrap();
        assert_eq!(g.rows(), 2);
        assert_eq!(g.cols(), 3);
        assert_eq!(g.element(0, 0), 0);
        assert_eq!(g.element(1, 2), 5);
        assert_eq!(g.row_elements(1), vec![3, 4, 5]);
        assert_eq!(g.col_elements(2), vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn element_out_of_range_panics() {
        let g = Grid::new(2, 2).unwrap();
        let _ = g.element(2, 0);
    }

    #[test]
    fn quorum_requires_row_and_column() {
        let g = Grid::new(3, 3).unwrap();
        let row_and_col = ElementSet::from_iter(9, [0, 1, 2, 3, 6]); // row 0 + col 0
        assert!(g.contains_quorum(&row_and_col));
        assert!(!g.contains_quorum(&ElementSet::from_iter(9, [0, 1, 2]))); // row only
        assert!(!g.contains_quorum(&ElementSet::from_iter(9, [0, 3, 6]))); // column only
        assert!(g.contains_quorum(&ElementSet::full(9)));
    }

    #[test]
    fn quorum_size() {
        let g = Grid::new(4, 5).unwrap();
        assert_eq!(g.min_quorum_size(), 8);
        assert_eq!(g.max_quorum_size(), 8);
    }

    #[test]
    fn grid_is_monotone_but_dominated() {
        // Dominated: e.g. the coloring splitting the grid into two diagonals
        // gives neither side a full row+column.
        crate::assert_nd_claim(&Grid::new(2, 2).unwrap(), false);
    }

    #[test]
    fn minterms_are_row_column_unions() {
        let g = Grid::new(2, 2).unwrap();
        let quorums = minimal_quorums(&g).unwrap();
        // 2 rows × 2 cols = 4 minterms of size 3.
        assert_eq!(quorums.len(), 4);
        assert!(quorums.iter().all(|q| q.len() == 3));
    }
}
