//! Probing strategies for the Crumbling Walls family (including Triang and
//! Wheel).

use quorum_core::{Color, ElementSet, QuorumSystem, Witness, WitnessKind};
use quorum_systems::CrumblingWalls;
use rand::seq::SliceRandom;
use rand::RngCore;

use crate::{ProbeOracle, ProbeStrategy};

/// Algorithm `Probe_CW` (Fig. 5 of the paper): the probabilistic-model
/// strategy for `(1, n_2, …, n_k)`-CW systems.
///
/// The algorithm scans the wall top-down.  It maintains a monochromatic set
/// `W` that is a witness for the wall formed by the rows seen so far, and a
/// `Mode` equal to `W`'s color.  In each row it probes elements until it finds
/// one of color `Mode` (extending `W`), or exhausts the row — in which case
/// the row itself is monochromatic of the opposite color and becomes the new
/// `W`.
///
/// Theorem 3.3: the expected number of probes is at most `2k − 1` for every
/// failure probability `p`, even though the deterministic worst case is `n`.
///
/// # Panics
///
/// [`ProbeStrategy::find_witness`] panics if the wall does not have the
/// nondominated shape (first row of width 1, all other rows wider), since the
/// algorithm's correctness argument needs every prefix wall to be an ND
/// coterie.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCw;

impl ProbeCw {
    /// Creates the strategy.
    pub fn new() -> Self {
        ProbeCw
    }
}

impl ProbeStrategy<CrumblingWalls> for ProbeCw {
    fn name(&self) -> String {
        "Probe_CW".into()
    }

    fn find_witness(
        &self,
        system: &CrumblingWalls,
        oracle: &mut ProbeOracle<'_>,
        _rng: &mut dyn RngCore,
    ) -> Witness {
        assert!(
            system.is_nd_shape(),
            "Probe_CW requires an ND-shaped wall (first row of width 1, other rows wider)"
        );
        let n = system.universe_size();
        let k = system.row_count();

        // Row 0 has a single element. `W` is kept as a list and becomes a
        // set once, at the end.
        let v1 = system.row_elements(0).start;
        let mut mode = oracle.probe(v1);
        let mut witness = vec![v1];

        for row in 1..k {
            let elements = system.row_elements(row);
            match elements.clone().find(|&e| oracle.probe(e) == mode) {
                Some(e) => witness.push(e),
                None => {
                    // The whole row was probed and is monochromatic of the
                    // opposite color; it becomes the new witness.
                    witness.clear();
                    witness.extend(elements);
                    mode = mode.opposite();
                }
            }
        }
        Witness::new(
            WitnessKind::for_color(mode),
            ElementSet::from_iter(n, witness),
        )
    }
}

/// Algorithm `R_Probe_CW` (Section 4.2): the randomized worst-case strategy
/// for crumbling walls.
///
/// The algorithm scans the wall bottom-up.  In each row it probes elements in
/// a uniformly random order until it has seen both colors or exhausted the
/// row; a monochromatic row stops the scan, and the witness is that row
/// together with one same-colored element from every row below it (all of
/// which have already been observed).
///
/// Theorem 4.4: the worst-case expected number of probes is
/// `max_j { n_j + Σ_{i>j} ((n_i+1)/2 + 1/n_i) }`, which is at most
/// `(n + m + 2k)/2` for maximal row width `m`; Corollary 4.5 instantiates this
/// to `(n+k)/2 + log k` for Triang and `n − 1` for the Wheel.
#[derive(Debug, Clone, Copy, Default)]
pub struct RProbeCw;

impl RProbeCw {
    /// Creates the strategy.
    pub fn new() -> Self {
        RProbeCw
    }
}

impl ProbeStrategy<CrumblingWalls> for RProbeCw {
    fn name(&self) -> String {
        "R_Probe_CW".into()
    }

    fn find_witness(
        &self,
        system: &CrumblingWalls,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness {
        let n = system.universe_size();
        let k = system.row_count();
        // For each already-scanned (bichromatic) row, remember one green and
        // one red element.
        let mut green_rep: Vec<Option<usize>> = vec![None; k];
        let mut red_rep: Vec<Option<usize>> = vec![None; k];
        // Every row's probe order is shuffled in this one buffer.
        let mut order = Vec::new();

        for row in (0..k).rev() {
            order.clear();
            order.extend(system.row_elements(row));
            order.shuffle(rng);
            let mut seen_green = None;
            let mut seen_red = None;
            for &e in &order {
                match oracle.probe(e) {
                    Color::Green => seen_green = Some(e),
                    Color::Red => seen_red = Some(e),
                }
                if seen_green.is_some() && seen_red.is_some() {
                    break;
                }
            }
            green_rep[row] = seen_green;
            red_rep[row] = seen_red;
            let monochromatic = seen_green.is_none() || seen_red.is_none();
            if monochromatic {
                let color = if seen_green.is_some() {
                    Color::Green
                } else {
                    Color::Red
                };
                // Witness: the full (monochromatic) row plus one same-colored
                // representative from every row below.
                let mut witness = ElementSet::from_iter(n, system.row_elements(row));
                for below in row + 1..k {
                    let rep = match color {
                        Color::Green => green_rep[below],
                        Color::Red => red_rep[below],
                    }
                    .expect("bichromatic rows below must have a representative of each color");
                    witness.insert(rep);
                }
                return Witness::new(WitnessKind::for_color(color), witness);
            }
        }
        // Every row turned out bichromatic.  For an ND-shaped wall this cannot
        // happen (the top row has a single element), but for a dominated shape
        // it can: then no full row can be green, so the probed red elements —
        // one per row at least — form a red transversal certificate.
        Witness::new(WitnessKind::RedQuorum, oracle.red_probed().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_strategy;
    use quorum_core::{Coloring, QuorumSystem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triang3() -> CrumblingWalls {
        CrumblingWalls::triang(3).unwrap() // widths 1,2,3 — 6 elements
    }

    #[test]
    fn probe_cw_is_correct_on_every_coloring() {
        let wall = triang3();
        let mut rng = StdRng::seed_from_u64(1);
        for coloring in Coloring::enumerate_all(6) {
            let run = run_strategy(&wall, &ProbeCw::new(), &coloring, &mut rng);
            assert_eq!(run.witness.is_green(), wall.has_green_quorum(&coloring));
            assert!(run.probes <= 6);
        }
    }

    #[test]
    fn r_probe_cw_is_correct_on_every_coloring() {
        let wall = triang3();
        let mut rng = StdRng::seed_from_u64(2);
        for coloring in Coloring::enumerate_all(6) {
            let run = run_strategy(&wall, &RProbeCw::new(), &coloring, &mut rng);
            assert_eq!(run.witness.is_green(), wall.has_green_quorum(&coloring));
            assert!(run.probes <= 6);
        }
    }

    #[test]
    fn probe_cw_all_green_probes_one_per_row() {
        let wall = CrumblingWalls::new(vec![1, 4, 4, 4]).unwrap();
        let coloring = Coloring::all_green(wall.universe_size());
        let mut rng = StdRng::seed_from_u64(3);
        let run = run_strategy(&wall, &ProbeCw::new(), &coloring, &mut rng);
        assert_eq!(run.probes, wall.row_count());
        assert!(run.witness.is_green());
    }

    #[test]
    fn probe_cw_worst_case_is_all_elements() {
        // Alternating row colors force the algorithm to exhaust every row:
        // row 0 green, row 1 all red, row 2 all green, ...
        let wall = CrumblingWalls::new(vec![1, 2, 2, 2]).unwrap();
        let n = wall.universe_size();
        let coloring = Coloring::from_fn(n, |e| {
            if wall.row_of(e) % 2 == 0 {
                quorum_core::Color::Green
            } else {
                quorum_core::Color::Red
            }
        });
        let mut rng = StdRng::seed_from_u64(4);
        let run = run_strategy(&wall, &ProbeCw::new(), &coloring, &mut rng);
        assert_eq!(
            run.probes, n,
            "alternating rows are the deterministic worst case"
        );
    }

    #[test]
    #[should_panic(expected = "ND-shaped wall")]
    fn probe_cw_rejects_non_nd_shapes() {
        let wall = CrumblingWalls::new(vec![2, 3]).unwrap();
        let coloring = Coloring::all_green(5);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = run_strategy(&wall, &ProbeCw::new(), &coloring, &mut rng);
    }

    #[test]
    fn r_probe_cw_on_monochromatic_bottom_row_stops_early() {
        // Bottom row all red: the scan never leaves it.
        let wall = CrumblingWalls::new(vec![1, 3, 4]).unwrap();
        let n = wall.universe_size();
        let coloring = Coloring::from_fn(n, |e| {
            if wall.row_of(e) == 2 {
                quorum_core::Color::Red
            } else {
                quorum_core::Color::Green
            }
        });
        let mut rng = StdRng::seed_from_u64(6);
        let run = run_strategy(&wall, &RProbeCw::new(), &coloring, &mut rng);
        assert!(run.witness.is_red());
        assert_eq!(run.probes, 4, "only the bottom row is probed");
    }

    #[test]
    fn r_probe_cw_wheel_witness_shapes() {
        // For the Wheel as a 2-row wall, a red hub with a mixed rim yields a
        // red spoke witness.
        let wall = CrumblingWalls::wheel(6).unwrap();
        let n = wall.universe_size();
        let mut coloring = Coloring::all_green(n);
        coloring.set_color(0, quorum_core::Color::Red);
        coloring.set_color(3, quorum_core::Color::Red);
        let mut rng = StdRng::seed_from_u64(7);
        let run = run_strategy(&wall, &RProbeCw::new(), &coloring, &mut rng);
        assert!(run.witness.is_red());
        assert!(run.witness.elements().contains(0));
    }

    #[test]
    fn witnesses_have_quorum_shape() {
        // The Probe_CW witness is always a full row plus one element per row
        // below it; spot-check its size.
        let wall = triang3();
        let mut rng = StdRng::seed_from_u64(8);
        for coloring in Coloring::enumerate_all(6) {
            let run = run_strategy(&wall, &ProbeCw::new(), &coloring, &mut rng);
            let size = run.witness.elements().len();
            assert!(size >= wall.min_quorum_size());
            assert!(size <= wall.max_quorum_size());
        }
    }

    #[test]
    fn names() {
        assert_eq!(
            ProbeStrategy::<CrumblingWalls>::name(&ProbeCw::new()),
            "Probe_CW"
        );
        assert_eq!(
            ProbeStrategy::<CrumblingWalls>::name(&RProbeCw::new()),
            "R_Probe_CW"
        );
    }
}
