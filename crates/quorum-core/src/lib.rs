//! # quorum-core
//!
//! Core abstractions for working with *quorum systems* and their *probe
//! complexity*, following Hassin & Peleg, "Average probe complexity in quorum
//! systems" (PODC 2001 / JCSS 2006).
//!
//! A quorum system over a universe `U = {0, …, n−1}` is a collection of
//! pairwise-intersecting subsets of `U` called *quorums*.  A *coterie* also
//! satisfies minimality (no quorum contains another), and a coterie is
//! *nondominated* (ND) when no other coterie dominates it — equivalently, when
//! its characteristic monotone boolean function is self-dual.
//!
//! The crate provides:
//!
//! * [`ElementSet`] — a compact bitset over universe elements.
//! * [`Coloring`] — an assignment of [`Color::Green`] (alive) / [`Color::Red`]
//!   (failed) to every element, modelling processor crashes.
//! * [`Witness`] — a monochromatic certificate for the state of the system
//!   (either a live quorum or a dead quorum / transversal).
//! * [`QuorumSystem`] — the trait implemented by every quorum-system
//!   construction; it exposes the monotone characteristic function rather than
//!   an explicit list of quorums, so that exponentially large systems (e.g.
//!   Majority) remain cheap to evaluate.
//! * [`Coterie`] — an explicit, enumerated quorum system together with
//!   intersection / minimality / nondomination checks.
//! * [`minimal_quorums`] and [`minimal_blocking_sets`] — the one enumerator
//!   of the characteristic function's minterms (the minimal quorums) and
//!   maxterms (the minimal transversals), a work-budgeted branch-and-bound
//!   over universes of at most [`MINIMAL_ENUM_LIMIT`] elements.
//!
//! # Quick example
//!
//! ```
//! use quorum_core::{Coterie, ElementSet, QuorumSystem};
//!
//! // The 3-element majority coterie: all pairs out of {0,1,2}.
//! let maj3 = Coterie::new(3, vec![
//!     ElementSet::from_iter(3, [0, 1]),
//!     ElementSet::from_iter(3, [0, 2]),
//!     ElementSet::from_iter(3, [1, 2]),
//! ]).unwrap();
//!
//! assert!(maj3.is_nondominated());
//! assert!(maj3.contains_quorum(&ElementSet::from_iter(3, [0, 1, 2])));
//! assert!(!maj3.contains_quorum(&ElementSet::from_iter(3, [2])));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod coterie;
pub mod delta;
pub mod error;
pub mod lanes;
pub mod minimal;
pub mod orgs;
pub mod set;
pub mod system;
pub mod witness;

pub use coloring::{Color, Coloring};
pub use coterie::Coterie;
pub use delta::{delta_evaluator_for, ColoringDelta, DeltaEvaluator, RescanDeltaEvaluator};
pub use error::QuorumError;
pub use minimal::{minimal_blocking_sets, minimal_quorums, MINIMAL_ENUM_LIMIT};
pub use orgs::Organizations;
pub use set::{ElementSet, WORD_BITS};
pub use system::{DynQuorumSystem, QuorumSystem};
pub use witness::{Witness, WitnessKind};

/// Identifier of an element (processor) of the universe `U = {0, …, n−1}`.
///
/// The paper indexes elements from 1; this crate uses zero-based indices
/// throughout.
pub type ElementId = usize;
