//! Witnesses: monochromatic certificates for the state of a quorum system.

use std::fmt;

use crate::{Color, Coloring, ElementSet, QuorumSystem};

/// The kind of certificate a probing algorithm produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WitnessKind {
    /// A fully green (live) quorum was found: the operation can proceed.
    GreenQuorum,
    /// A fully red set certifying that no live quorum exists.  For a
    /// nondominated coterie this set contains a red quorum (Lemma 2.1).
    RedQuorum,
}

impl WitnessKind {
    /// The color of the elements making up the witness.
    pub fn color(self) -> Color {
        match self {
            WitnessKind::GreenQuorum => Color::Green,
            WitnessKind::RedQuorum => Color::Red,
        }
    }

    /// Builds the witness kind matching a given element color.
    pub fn for_color(color: Color) -> Self {
        match color {
            Color::Green => WitnessKind::GreenQuorum,
            Color::Red => WitnessKind::RedQuorum,
        }
    }
}

impl fmt::Display for WitnessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessKind::GreenQuorum => write!(f, "green quorum"),
            WitnessKind::RedQuorum => write!(f, "red quorum"),
        }
    }
}

/// A monochromatic witness returned by a probing algorithm.
///
/// The witness carries the set of elements that constitute the certificate
/// (not necessarily every element that was probed) and its kind.
///
/// # Examples
///
/// ```
/// use quorum_core::{Coloring, Coterie, ElementSet, Witness, WitnessKind};
///
/// let maj3 = Coterie::new(3, vec![
///     ElementSet::from_iter(3, [0, 1]),
///     ElementSet::from_iter(3, [0, 2]),
///     ElementSet::from_iter(3, [1, 2]),
/// ]).unwrap();
/// let coloring = Coloring::all_green(3);
/// let witness = Witness::new(WitnessKind::GreenQuorum, ElementSet::from_iter(3, [0, 2]));
/// assert!(witness.verify(&maj3, &coloring).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    kind: WitnessKind,
    elements: ElementSet,
}

/// A reason why a witness failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WitnessError {
    /// An element of the witness does not have the witness color under the
    /// true coloring.
    WrongColor {
        /// The offending element.
        element: usize,
        /// The color the witness claims.
        expected: Color,
    },
    /// The witness elements do not contain a quorum of the system.
    NoQuorum,
    /// The witness ranges over a different universe than the system.
    UniverseMismatch {
        /// The witness universe size.
        witness: usize,
        /// The system universe size.
        system: usize,
    },
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::WrongColor { element, expected } => {
                write!(
                    f,
                    "element {element} is not {expected} under the true coloring"
                )
            }
            WitnessError::NoQuorum => write!(f, "witness elements do not contain a quorum"),
            WitnessError::UniverseMismatch { witness, system } => {
                write!(
                    f,
                    "witness universe {witness} does not match system universe {system}"
                )
            }
        }
    }
}

impl std::error::Error for WitnessError {}

impl Witness {
    /// Creates a witness of the given kind over the given elements.
    pub fn new(kind: WitnessKind, elements: ElementSet) -> Self {
        Witness { kind, elements }
    }

    /// Convenience constructor for a green-quorum witness.
    pub fn green(elements: ElementSet) -> Self {
        Witness::new(WitnessKind::GreenQuorum, elements)
    }

    /// Convenience constructor for a red-quorum witness.
    pub fn red(elements: ElementSet) -> Self {
        Witness::new(WitnessKind::RedQuorum, elements)
    }

    /// The kind of the witness.
    pub fn kind(&self) -> WitnessKind {
        self.kind
    }

    /// The color of the witness elements.
    pub fn color(&self) -> Color {
        self.kind.color()
    }

    /// The elements constituting the certificate.
    pub fn elements(&self) -> &ElementSet {
        &self.elements
    }

    /// Whether the witness certifies that a live quorum exists.
    pub fn is_green(&self) -> bool {
        matches!(self.kind, WitnessKind::GreenQuorum)
    }

    /// Whether the witness certifies that no live quorum exists.
    pub fn is_red(&self) -> bool {
        matches!(self.kind, WitnessKind::RedQuorum)
    }

    /// Verifies the witness against the true coloring and the quorum system:
    /// every witness element must carry the witness color, and the witness
    /// elements must certify the verdict — a green witness must contain a
    /// quorum, a red witness must contain a quorum or be a transversal (for
    /// nondominated coteries the two coincide by Lemma 2.1).
    ///
    /// # Errors
    ///
    /// Returns a [`WitnessError`] describing the first violated condition.
    pub fn verify<S: QuorumSystem + ?Sized>(
        &self,
        system: &S,
        coloring: &Coloring,
    ) -> Result<(), WitnessError> {
        if self.elements.universe_size() != system.universe_size() {
            return Err(WitnessError::UniverseMismatch {
                witness: self.elements.universe_size(),
                system: system.universe_size(),
            });
        }
        // The word-level checks below require the coloring to share the
        // witness universe; report a mismatch as an error, not a panic.
        if coloring.universe_size() != self.elements.universe_size() {
            return Err(WitnessError::UniverseMismatch {
                witness: self.elements.universe_size(),
                system: coloring.universe_size(),
            });
        }
        let expected = self.color();
        // Monochromaticity is a word-level intersection test on the packed
        // coloring; the per-element scan only runs to name the offender.
        let monochromatic = match self.kind {
            WitnessKind::GreenQuorum => coloring.all_green_in(&self.elements),
            WitnessKind::RedQuorum => coloring.all_red_in(&self.elements),
        };
        if !monochromatic {
            let offender = self
                .elements
                .iter()
                .find(|&e| coloring.color(e) != expected)
                .expect("a word mismatch names at least one wrong element");
            return Err(WitnessError::WrongColor {
                element: offender,
                expected,
            });
        }
        match self.kind {
            WitnessKind::GreenQuorum => {
                if !system.contains_quorum(&self.elements) {
                    return Err(WitnessError::NoQuorum);
                }
            }
            WitnessKind::RedQuorum => {
                // A red certificate is a red quorum (the ND case, Lemma 2.1) or,
                // more generally, a red transversal: either way no live quorum
                // can exist.  A transversal is a set whose complement contains
                // no quorum; the complement is only built when the set holds
                // no quorum itself.
                if !system.contains_quorum(&self.elements)
                    && system.contains_quorum(&self.elements.complement())
                {
                    return Err(WitnessError::NoQuorum);
                }
            }
        }
        Ok(())
    }

    /// Verifies the witness and additionally checks that its verdict matches
    /// the ground truth of the coloring (a green witness is only produced when
    /// a green quorum exists, and vice versa).
    ///
    /// For nondominated coteries the two checks coincide; this stricter form
    /// is used throughout the test suites.
    ///
    /// # Errors
    ///
    /// Returns a [`WitnessError`] if the witness is not internally valid, or
    /// [`WitnessError::NoQuorum`] if its verdict contradicts the coloring.
    pub fn verify_strict<S: QuorumSystem + ?Sized>(
        &self,
        system: &S,
        coloring: &Coloring,
    ) -> Result<(), WitnessError> {
        self.verify(system, coloring)?;
        let live = system.has_green_quorum(coloring);
        match self.kind {
            WitnessKind::GreenQuorum if !live => Err(WitnessError::NoQuorum),
            WitnessKind::RedQuorum if live => Err(WitnessError::NoQuorum),
            _ => Ok(()),
        }
    }

    /// Number of elements in the certificate.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the certificate is empty (never valid for a real system).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.elements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coterie;

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
    fn kind_color_round_trip() {
        assert_eq!(WitnessKind::GreenQuorum.color(), Color::Green);
        assert_eq!(WitnessKind::RedQuorum.color(), Color::Red);
        assert_eq!(
            WitnessKind::for_color(Color::Green),
            WitnessKind::GreenQuorum
        );
        assert_eq!(WitnessKind::for_color(Color::Red), WitnessKind::RedQuorum);
    }

    #[test]
    fn valid_green_witness() {
        let system = maj3();
        let coloring = Coloring::all_green(3);
        let w = Witness::green(ElementSet::from_iter(3, [0, 1]));
        assert!(w.verify(&system, &coloring).is_ok());
        assert!(w.verify_strict(&system, &coloring).is_ok());
        assert!(w.is_green());
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
    }

    #[test]
    fn valid_red_witness() {
        let system = maj3();
        let coloring = Coloring::all_red(3);
        let w = Witness::red(ElementSet::from_iter(3, [1, 2]));
        assert!(w.verify_strict(&system, &coloring).is_ok());
        assert!(w.is_red());
    }

    #[test]
    fn wrong_color_is_rejected() {
        let system = maj3();
        let coloring = Coloring::from_colors(vec![Color::Green, Color::Red, Color::Green]);
        let w = Witness::green(ElementSet::from_iter(3, [0, 1]));
        let err = w.verify(&system, &coloring).unwrap_err();
        assert_eq!(
            err,
            WitnessError::WrongColor {
                element: 1,
                expected: Color::Green
            }
        );
    }

    #[test]
    fn too_small_witness_is_rejected() {
        let system = maj3();
        let coloring = Coloring::all_green(3);
        let w = Witness::green(ElementSet::from_iter(3, [0]));
        assert_eq!(
            w.verify(&system, &coloring).unwrap_err(),
            WitnessError::NoQuorum
        );
    }

    #[test]
    fn universe_mismatch_is_rejected() {
        let system = maj3();
        let coloring = Coloring::all_green(3);
        let w = Witness::green(ElementSet::from_iter(4, [0, 1]));
        assert!(matches!(
            w.verify(&system, &coloring).unwrap_err(),
            WitnessError::UniverseMismatch {
                witness: 4,
                system: 3
            }
        ));
    }

    #[test]
    fn coloring_universe_mismatch_is_an_error_not_a_panic() {
        // The word-level monochromaticity check requires matching universes;
        // a mismatched coloring must surface through the Result contract.
        let system = maj3();
        let w = Witness::green(ElementSet::from_iter(3, [0, 1]));
        for n in [2usize, 4] {
            let coloring = Coloring::all_green(n);
            assert!(matches!(
                w.verify(&system, &coloring).unwrap_err(),
                WitnessError::UniverseMismatch { witness: 3, .. }
            ));
        }
    }

    #[test]
    fn strict_check_catches_contradicting_verdict() {
        // Coloring has a green quorum {0,1} but also a red... actually with 3
        // elements a green majority excludes a red majority; craft the
        // contradiction through a dominated (non-ND) system instead: the
        // single-quorum coterie {{0}} over universe {0,1}.
        let system = Coterie::new(2, vec![ElementSet::from_iter(2, [0])]).unwrap();
        // Element 0 green, element 1 red: there IS a live quorum, so a red
        // witness must be rejected by the strict check even though {1} is all
        // red. (It is already rejected by verify since {1} has no quorum.)
        let coloring = Coloring::from_colors(vec![Color::Green, Color::Red]);
        let w = Witness::red(ElementSet::from_iter(2, [1]));
        assert!(w.verify_strict(&system, &coloring).is_err());
    }

    #[test]
    fn red_transversal_verifies_only_when_its_complement_holds_no_quorum() {
        // The dominated coterie {{0, 1}} over three elements: the red set
        // {0} holds no quorum but meets every quorum, so it certifies the
        // outage; {2} holds none and misses {0, 1}, so it certifies nothing.
        let system = Coterie::new(3, vec![ElementSet::from_iter(3, [0, 1])]).unwrap();
        let coloring = Coloring::all_red(3);
        assert!(Witness::red(ElementSet::from_iter(3, [0]))
            .verify(&system, &coloring)
            .is_ok());
        assert_eq!(
            Witness::red(ElementSet::from_iter(3, [2])).verify(&system, &coloring),
            Err(WitnessError::NoQuorum)
        );
        assert!(Witness::red(ElementSet::from_iter(3, [0, 1]))
            .verify(&system, &coloring)
            .is_ok());
    }

    #[test]
    fn display_formats() {
        let w = Witness::green(ElementSet::from_iter(3, [0, 1]));
        assert_eq!(w.to_string(), "green quorum {0, 1}");
        assert_eq!(WitnessKind::RedQuorum.to_string(), "red quorum");
        let err = WitnessError::NoQuorum;
        assert!(!err.to_string().is_empty());
    }
}
