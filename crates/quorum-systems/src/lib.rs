//! # quorum-systems
//!
//! Constructions of the nondominated coterie families analysed in Hassin &
//! Peleg, "Average probe complexity in quorum systems":
//!
//! * [`Majority`] — all sets of ⌈(n+1)/2⌉ elements (Thomas' voting scheme).
//! * [`Wheel`] — a hub element plus spokes `{hub, i}` and the rim.
//! * [`CrumblingWalls`] — rows of varying widths; a quorum is one full row
//!   plus one representative from every row below it (Peleg & Wool).  The
//!   [`CrumblingWalls::triang`] constructor builds the Triang sub-family
//!   (row `i` has width `i`) and [`CrumblingWalls::wheel`] the Wheel as a
//!   2-row wall.
//! * [`TreeQuorum`] — the Agrawal–El Abbadi tree protocol over a complete
//!   binary tree: a quorum is the root plus a quorum of one subtree, or a
//!   quorum of each subtree.
//! * [`Hqs`] — Kumar's Hierarchical Quorum System: leaves of a complete
//!   ternary tree whose internal nodes are 2-of-3 majority gates.
//! * [`Grid`] — a Maekawa-style row+column grid system, included as an extra
//!   (dominated) baseline for the benchmark sweeps.
//! * [`Composition`] — recursive threshold gates over element leaves
//!   (Stellar-style quorum sets), strictly generalising Tree, HQS and Grid.
//!
//! Construction is unified behind the [`SystemSpec`] AST: a serializable,
//! text-round-trippable description of any family or composition, with
//! path-qualified validation errors ([`SpecError`]) and
//! [`SystemSpec::build`] producing a shared [`quorum_core::DynQuorumSystem`].
//! [`SystemSpec::FAMILIES`] names the families a sweep runs, and
//! [`SystemSpec::family_with_size_hint`] sizes one of them from a hint.
//!
//! All constructions implement [`quorum_core::QuorumSystem`] through their
//! monotone characteristic function, so evaluation stays polynomial even when
//! the number of quorums is exponential.
//!
//! ```
//! use quorum_core::{ElementSet, QuorumSystem};
//! use quorum_systems::Majority;
//!
//! let maj = Majority::new(5).unwrap();
//! assert_eq!(maj.min_quorum_size(), 3);
//! assert!(maj.contains_quorum(&ElementSet::from_iter(5, [0, 2, 4])));
//! assert!(!maj.contains_quorum(&ElementSet::from_iter(5, [0, 2])));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composition;
pub mod crumbling_walls;
pub mod grid;
pub mod hqs;
pub mod majority;
pub mod spec;
pub mod tree;
pub mod wheel;

pub use composition::Composition;
pub use crumbling_walls::CrumblingWalls;
pub use grid::Grid;
pub use hqs::Hqs;
pub use majority::Majority;
pub use spec::{BuiltSystem, SpecError, SpecErrorKind, SystemSpec};
pub use tree::TreeQuorum;
pub use wheel::Wheel;

use quorum_core::QuorumError;

/// Largest universe any system builds: 2²⁶ elements. Every evaluator
/// allocates per element, so Majority, Wheel, CrumblingWalls and Grid
/// reject a larger universe (or one whose size overflows) before allocating
/// anything, the height caps of Tree and HQS keep them under it, and a
/// `Compose` spec refuses a leaf at or past it.
pub(crate) const MAX_ELEMENTS: usize = 1 << 26;

/// The [`QuorumError::InvalidConstruction`] for a universe past
/// [`MAX_ELEMENTS`].
pub(crate) fn too_large(what: impl std::fmt::Display) -> QuorumError {
    QuorumError::InvalidConstruction {
        reason: format!("{what} exceeds the limit of {MAX_ELEMENTS} elements"),
    }
}

/// Dispatches a family's const-generic `green_lane_block_impl` over the
/// supported widths ([`quorum_core::lanes::LANE_WIDTHS`]), storing the result
/// words and returning `true`; any other width returns `false` so callers use
/// the word-at-a-time path. Expands inside each family's
/// `green_quorum_lane_block` override, keeping the trait object-safe while
/// the evaluators themselves monomorphise.
macro_rules! dispatch_lane_block {
    ($self:ident, $lanes:ident, $width:ident, $out:ident) => {{
        use quorum_core::lanes::{LaneBlock, Lanes as _};
        debug_assert_eq!($lanes.len(), $self.universe_size() * $width);
        debug_assert_eq!($out.len(), $width);
        match $width {
            1 => $self.green_lane_block_impl::<u64>($lanes).store($out),
            4 => $self
                .green_lane_block_impl::<LaneBlock<4>>($lanes)
                .store($out),
            8 => $self
                .green_lane_block_impl::<LaneBlock<8>>($lanes)
                .store($out),
            _ => return false,
        }
        true
    }};
}
pub(crate) use dispatch_lane_block;

/// The single-word lane verdict: the block evaluator at width 1.
#[cfg(test)]
pub(crate) fn lane_word<S: quorum_core::QuorumSystem + ?Sized>(system: &S, lanes: &[u64]) -> u64 {
    let mut word = 0;
    assert!(
        system.green_quorum_lane_block(lanes, 1, std::slice::from_mut(&mut word)),
        "{} has no lane evaluator",
        system.name()
    );
    word
}

/// Asserts that `system`'s `contains_quorum` is the coterie of its
/// enumerated minimal quorums on all `2^n` subsets (so it is monotone and
/// the enumerator lists exactly its minterms), and that this coterie is
/// nondominated exactly when `nd` says so.
#[cfg(test)]
pub(crate) fn assert_nd_claim<S: quorum_core::QuorumSystem>(system: &S, nd: bool) {
    use quorum_core::{minimal_quorums, Coterie, ElementSet, QuorumSystem};
    let (name, n) = (system.name(), system.universe_size());
    let coterie = Coterie::new(n, minimal_quorums(system).unwrap()).unwrap();
    for mask in 0u64..1 << n {
        let set = ElementSet::from_mask(n, mask);
        assert_eq!(
            system.contains_quorum(&set),
            coterie.contains_quorum(&set),
            "{name}: the enumerated coterie disagrees on {set}"
        );
    }
    assert_eq!(coterie.is_nondominated(), nd, "{name}: ND claim");
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::{DynQuorumSystem, QuorumSystem};
    use std::sync::Arc;

    /// The family named `family` at `hint`, built through its spec.
    fn family_at(family: &str, hint: usize) -> DynQuorumSystem {
        let spec = SystemSpec::family_with_size_hint(family, hint).unwrap();
        spec.build().unwrap()
    }

    /// Every family's block evaluator must reproduce the single-word lane
    /// evaluator bit-for-bit at every supported width, over the element-major
    /// layout, and reject unsupported widths.
    #[test]
    fn block_evaluators_match_single_word_lanes() {
        use quorum_core::lanes::LANE_WIDTHS;

        let mut state = 0xfeed_5eed_0042_1337u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };

        for family in SystemSpec::FAMILIES {
            for hint in [5usize, 40, 130] {
                let system = family_at(family, hint);
                let n = system.universe_size();
                for &width in &LANE_WIDTHS {
                    let lanes: Vec<u64> = (0..n * width).map(|_| next()).collect();
                    let mut out = vec![0u64; width];
                    assert!(
                        system.green_quorum_lane_block(&lanes, width, &mut out),
                        "{} rejected width {width}",
                        family
                    );
                    for w in 0..width {
                        let word_lanes: Vec<u64> = (0..n).map(|e| lanes[e * width + w]).collect();
                        assert_eq!(
                            out[w],
                            crate::lane_word(&system, &word_lanes),
                            "{} n={n} width={width} word {w} diverged",
                            family
                        );
                    }
                }
                // Unsupported widths fall back to the caller's slow path.
                let lanes = vec![0u64; n * 3];
                let mut out = vec![0u64; 3];
                assert!(!system.green_quorum_lane_block(&lanes, 3, &mut out));
            }
        }
    }

    /// Every family's incremental delta evaluator must agree with from-scratch
    /// evaluation along random coloring walks, across word-boundary sizes.
    #[test]
    fn delta_evaluators_match_from_scratch_evaluation() {
        use quorum_core::{delta_evaluator_for, Color, Coloring};

        let mut state = 0x00d5_11fe_77aa_2901u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };

        for family in SystemSpec::FAMILIES {
            for hint in [5usize, 16, 40, 70, 130] {
                let system = family_at(family, hint);
                let n = system.universe_size();
                assert!(
                    system.delta_evaluator().is_some(),
                    "{} has no family delta evaluator",
                    family
                );
                let mut eval = delta_evaluator_for(&system);
                let mut current = Coloring::from_fn(n, |e| {
                    if next().wrapping_add(e as u64) & 1 == 1 {
                        Color::Red
                    } else {
                        Color::Green
                    }
                });
                assert_eq!(
                    eval.reset(&current),
                    system.has_green_quorum(&current),
                    "{} n={n}: reset diverged",
                    family
                );
                for step in 0..40 {
                    // Flip a small random batch of elements (sometimes none).
                    let mut post = current.clone();
                    let flips = (next() % 4) as usize;
                    for _ in 0..flips {
                        let e = (next() % n as u64) as usize;
                        post.set_color(e, post.color(e).opposite());
                    }
                    let delta = current.diff(&post);
                    assert_eq!(
                        eval.update(&post, &delta),
                        system.has_green_quorum(&post),
                        "{} n={n} step {step} diverged from scratch",
                        family
                    );
                    assert_eq!(eval.verdict(), system.has_green_quorum(&post));
                    current = post;
                }
            }
        }
    }

    /// The heap-indexed Tree and HQS evaluators on every transition between
    /// colorings at heights 1 and 2 (one gate, then the first parent links):
    /// every multi-flip delta, a node flipped with its ancestor included,
    /// against `has_green_quorum` and the compiled twin's evaluator.
    #[test]
    fn heap_indexed_evaluators_match_scratch_on_all_transitions() {
        use quorum_core::Coloring;

        for height in [1, 2] {
            let pairs: [(DynQuorumSystem, SystemSpec); 2] = [
                (
                    Arc::new(TreeQuorum::new(height).unwrap()),
                    SystemSpec::tree_as_compose(height),
                ),
                (
                    Arc::new(Hqs::new(height).unwrap()),
                    SystemSpec::hqs_as_compose(height),
                ),
            ];
            for (native, twin) in pairs {
                let twin = twin.build().unwrap();
                let colorings = Coloring::enumerate_all(native.universe_size());
                let verdicts: Vec<bool> = colorings
                    .iter()
                    .map(|c| native.has_green_quorum(c))
                    .collect();
                let mut evals = [native.delta_evaluator(), twin.delta_evaluator()]
                    .map(|eval| eval.expect("both carry a delta evaluator"));
                for (start, &was) in colorings.iter().zip(&verdicts) {
                    for (end, &expected) in colorings.iter().zip(&verdicts) {
                        let delta = start.diff(end);
                        for eval in &mut evals {
                            assert_eq!(eval.reset(start), was);
                            assert_eq!(
                                eval.update(end, &delta),
                                expected,
                                "{} transition {start} -> {end}",
                                native.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every family's word-parallel lane evaluator must agree with the scalar
    /// characteristic function, trial by trial, across word-boundary sizes.
    #[test]
    fn lane_evaluators_match_contains_quorum() {
        use quorum_core::ElementSet;

        // A small deterministic word stream (SplitMix64).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };

        for family in SystemSpec::FAMILIES {
            for hint in [5usize, 16, 40, 70, 130] {
                let system = family_at(family, hint);
                let n = system.universe_size();
                for _ in 0..4 {
                    let lanes: Vec<u64> = (0..n).map(|_| next()).collect();
                    let lane_result = crate::lane_word(&system, &lanes);
                    for t in 0..64 {
                        let green =
                            ElementSet::from_iter(n, (0..n).filter(|&e| (lanes[e] >> t) & 1 == 1));
                        assert_eq!(
                            (lane_result >> t) & 1 == 1,
                            system.contains_quorum(&green),
                            "{} n={n} trial {t} diverged from the scalar evaluation",
                            family
                        );
                    }
                }
            }
        }
    }
}
