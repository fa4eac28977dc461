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

pub use composition::{Composition, CompositionNode};
pub use crumbling_walls::CrumblingWalls;
pub use grid::Grid;
pub use hqs::Hqs;
pub use majority::Majority;
pub use spec::{BuiltSystem, SpecError, SpecErrorKind, SystemSpec};
pub use tree::TreeQuorum;
pub use wheel::Wheel;

use quorum_core::DynQuorumSystem;
use std::sync::Arc;

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

/// A catalogue entry: a named family plus a constructor from a size hint.
///
/// Used by the benchmark harness to sweep heterogeneous families with a single
/// loop.  `build(size_hint)` returns a system whose universe is *approximately*
/// `size_hint` elements (rounded to whatever the family supports: odd sizes for
/// Majority, `2^{h+1}−1` for Tree, `3^h` for HQS, triangular numbers for
/// Triang).
#[derive(Clone)]
pub struct FamilyEntry {
    /// Family name (e.g. `"Maj"`, `"Tree"`).
    pub family: &'static str,
    /// Constructor from an approximate universe size.
    pub build: fn(usize) -> DynQuorumSystem,
}

impl std::fmt::Debug for FamilyEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FamilyEntry")
            .field("family", &self.family)
            .finish()
    }
}

/// The catalogue of families studied in the paper (plus the Grid baseline).
///
/// # Examples
///
/// ```
/// use quorum_systems::catalogue;
/// for entry in catalogue() {
///     let system = (entry.build)(30);
///     assert!(system.universe_size() >= 3);
/// }
/// ```
pub fn catalogue() -> Vec<FamilyEntry> {
    vec![
        FamilyEntry {
            family: "Maj",
            build: build_majority,
        },
        FamilyEntry {
            family: "Wheel",
            build: build_wheel,
        },
        FamilyEntry {
            family: "Triang",
            build: build_triang,
        },
        FamilyEntry {
            family: "Tree",
            build: build_tree,
        },
        FamilyEntry {
            family: "HQS",
            build: build_hqs,
        },
        FamilyEntry {
            family: "Grid",
            build: build_grid,
        },
        FamilyEntry {
            family: "Compose",
            build: build_compose,
        },
    ]
}

fn build_majority(size_hint: usize) -> DynQuorumSystem {
    Arc::new(Majority::with_size_hint(size_hint))
}

fn build_wheel(size_hint: usize) -> DynQuorumSystem {
    Arc::new(Wheel::with_size_hint(size_hint))
}

fn build_triang(size_hint: usize) -> DynQuorumSystem {
    Arc::new(CrumblingWalls::triang_with_size_hint(size_hint))
}

fn build_tree(size_hint: usize) -> DynQuorumSystem {
    Arc::new(TreeQuorum::with_size_hint(size_hint))
}

fn build_hqs(size_hint: usize) -> DynQuorumSystem {
    Arc::new(Hqs::with_size_hint(size_hint))
}

fn build_grid(size_hint: usize) -> DynQuorumSystem {
    Arc::new(Grid::with_size_hint(size_hint))
}

fn build_compose(size_hint: usize) -> DynQuorumSystem {
    SystemSpec::org_majority_with_size_hint(size_hint)
        .build()
        .expect("the org-majority composition is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::QuorumSystem;

    #[test]
    fn catalogue_builds_systems_of_roughly_requested_size() {
        for entry in catalogue() {
            for hint in [10, 30, 100] {
                let system = (entry.build)(hint);
                assert!(
                    system.universe_size() >= 3,
                    "{} produced a tiny system",
                    entry.family
                );
                assert!(
                    system.universe_size() <= 2 * hint + 3,
                    "{} produced an oversized system for hint {hint}: {}",
                    entry.family,
                    system.universe_size()
                );
                assert!(!system.name().is_empty());
            }
        }
    }

    #[test]
    fn catalogue_has_all_paper_families() {
        let names: Vec<_> = catalogue().iter().map(|e| e.family).collect();
        for expected in ["Maj", "Wheel", "Triang", "Tree", "HQS"] {
            assert!(names.contains(&expected));
        }
    }

    #[test]
    fn family_entry_debug_is_informative() {
        let entry = &catalogue()[0];
        assert!(format!("{entry:?}").contains("Maj"));
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

        for entry in catalogue() {
            for hint in [5usize, 40, 130] {
                let system = (entry.build)(hint);
                let n = system.universe_size();
                for &width in &LANE_WIDTHS {
                    let lanes: Vec<u64> = (0..n * width).map(|_| next()).collect();
                    let mut out = vec![0u64; width];
                    assert!(
                        system.green_quorum_lane_block(&lanes, width, &mut out),
                        "{} rejected width {width}",
                        entry.family
                    );
                    for w in 0..width {
                        let word_lanes: Vec<u64> = (0..n).map(|e| lanes[e * width + w]).collect();
                        assert_eq!(
                            Some(out[w]),
                            system.green_quorum_lanes(&word_lanes),
                            "{} n={n} width={width} word {w} diverged",
                            entry.family
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

        for entry in catalogue() {
            for hint in [5usize, 16, 40, 70, 130] {
                let system = (entry.build)(hint);
                let n = system.universe_size();
                assert!(
                    system.delta_evaluator().is_some(),
                    "{} has no family delta evaluator",
                    entry.family
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
                    entry.family
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
                        entry.family
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

        for entry in catalogue() {
            for hint in [5usize, 16, 40, 70, 130] {
                let system = (entry.build)(hint);
                let n = system.universe_size();
                for _ in 0..4 {
                    let lanes: Vec<u64> = (0..n).map(|_| next()).collect();
                    let lane_result = system
                        .green_quorum_lanes(&lanes)
                        .unwrap_or_else(|| panic!("{} has no lane evaluator", entry.family));
                    for t in 0..64 {
                        let green =
                            ElementSet::from_iter(n, (0..n).filter(|&e| (lanes[e] >> t) & 1 == 1));
                        assert_eq!(
                            (lane_result >> t) & 1 == 1,
                            system.contains_quorum(&green),
                            "{} n={n} trial {t} diverged from the scalar evaluation",
                            entry.family
                        );
                    }
                }
            }
        }
    }
}
