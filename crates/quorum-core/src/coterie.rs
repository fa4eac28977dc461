//! Explicit coteries: enumerated quorum collections with structural checks.

use std::fmt;

use crate::{ElementSet, QuorumError, QuorumSystem};

/// An explicitly enumerated coterie: a finite antichain of pairwise
/// intersecting quorums over a common universe.
///
/// `Coterie` is the "reference" representation used to validate the implicit
/// constructions in `quorum-systems` (`Coterie::new(n,
/// minimal_quorums(&system)?)` materialises any of them on a small
/// universe), to check nondomination, and to run the exact
/// (exponential-time) probe-complexity solvers on small instances.
///
/// # Examples
///
/// ```
/// use quorum_core::{Coterie, ElementSet, QuorumSystem};
///
/// // The Wheel over 4 elements: hub {0} with spokes, plus the rim {1,2,3}.
/// let wheel = Coterie::new(4, vec![
///     ElementSet::from_iter(4, [0, 1]),
///     ElementSet::from_iter(4, [0, 2]),
///     ElementSet::from_iter(4, [0, 3]),
///     ElementSet::from_iter(4, [1, 2, 3]),
/// ]).unwrap();
/// assert!(wheel.is_nondominated());
/// assert_eq!(wheel.min_quorum_size(), 2);
/// assert_eq!(wheel.max_quorum_size(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coterie {
    universe: usize,
    quorums: Vec<ElementSet>,
    name: String,
}

impl Coterie {
    /// Builds a coterie from an explicit list of quorums, validating the
    /// intersection and minimality properties.
    ///
    /// # Errors
    ///
    /// * [`QuorumError::Empty`] if the list is empty or any quorum is empty.
    /// * [`QuorumError::UniverseMismatch`] if a quorum ranges over a universe
    ///   of another size.
    /// * [`QuorumError::NotIntersecting`] if two quorums are disjoint.
    /// * [`QuorumError::NotMinimal`] if one quorum contains another.
    pub fn new(universe: usize, quorums: Vec<ElementSet>) -> Result<Self, QuorumError> {
        Self::with_name(universe, quorums, "Coterie")
    }

    /// Like [`Coterie::new`] but with an explicit display name.
    ///
    /// # Errors
    ///
    /// Same as [`Coterie::new`].
    pub fn with_name(
        universe: usize,
        quorums: Vec<ElementSet>,
        name: impl Into<String>,
    ) -> Result<Self, QuorumError> {
        if quorums.is_empty() {
            return Err(QuorumError::Empty);
        }
        for q in &quorums {
            if q.is_empty() {
                return Err(QuorumError::Empty);
            }
            if q.universe_size() != universe {
                return Err(QuorumError::UniverseMismatch {
                    left: q.universe_size(),
                    right: universe,
                });
            }
        }
        for (i, a) in quorums.iter().enumerate() {
            for (j, b) in quorums.iter().enumerate().skip(i + 1) {
                if !a.intersects(b) {
                    return Err(QuorumError::NotIntersecting {
                        first: i,
                        second: j,
                    });
                }
                if a.is_subset(b) {
                    return Err(QuorumError::NotMinimal {
                        subset: i,
                        superset: j,
                    });
                }
                if b.is_subset(a) {
                    return Err(QuorumError::NotMinimal {
                        subset: j,
                        superset: i,
                    });
                }
            }
        }
        Ok(Coterie {
            universe,
            quorums,
            name: name.into(),
        })
    }

    /// Builds a coterie without validation.
    ///
    /// Intended for constructions whose validity is guaranteed by
    /// construction; `debug_assert`s still fire in debug builds.
    pub fn new_unchecked(universe: usize, quorums: Vec<ElementSet>) -> Self {
        debug_assert!(Self::new(universe, quorums.clone()).is_ok());
        Coterie {
            universe,
            quorums,
            name: "Coterie".into(),
        }
    }

    /// The quorums of the coterie.
    pub fn quorums(&self) -> &[ElementSet] {
        &self.quorums
    }

    /// Number of quorums.
    pub fn quorum_count(&self) -> usize {
        self.quorums.len()
    }

    /// Renames the coterie (builder style).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Whether the coterie is nondominated (ND).
    ///
    /// Uses the classical characterisation (Garcia-Molina & Barbara): a coterie
    /// is ND iff its characteristic function is self-dual, i.e. for every
    /// subset `T ⊆ U` exactly one of `T`, `U \ T` contains a quorum.
    ///
    /// # Panics
    ///
    /// Panics if the universe has more than 24 elements (the check is
    /// exponential in `n`).
    pub fn is_nondominated(&self) -> bool {
        assert!(
            self.universe <= 24,
            "nondomination check is limited to universes of <= 24 elements"
        );
        for mask in 0u64..(1u64 << self.universe) {
            let set = ElementSet::from_mask(self.universe, mask);
            let here = self.contains_quorum(&set);
            let there = self.contains_quorum(&set.complement());
            if here == there {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Coterie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} over {} elements with {} quorums:",
            self.name,
            self.universe,
            self.quorums.len()
        )?;
        for q in &self.quorums {
            writeln!(f, "  {q}")?;
        }
        Ok(())
    }
}

impl QuorumSystem for Coterie {
    fn name(&self) -> String {
        format!("{}(n={})", self.name, self.universe)
    }

    fn universe_size(&self) -> usize {
        self.universe
    }

    fn contains_quorum(&self, set: &ElementSet) -> bool {
        self.quorums.iter().any(|q| q.is_subset(set))
    }

    fn min_quorum_size(&self) -> usize {
        self.quorums.iter().map(ElementSet::len).min().unwrap_or(0)
    }

    fn max_quorum_size(&self) -> usize {
        self.quorums.iter().map(ElementSet::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn maj3_is_a_valid_nd_coterie() {
        let c = maj3();
        assert_eq!(c.quorum_count(), 3);
        assert_eq!(c.min_quorum_size(), 2);
        assert_eq!(c.max_quorum_size(), 2);
        assert!(c.is_nondominated());
        assert_eq!(QuorumSystem::name(&c), "Coterie(n=3)");
    }

    #[test]
    fn empty_collections_rejected() {
        assert_eq!(Coterie::new(3, vec![]).unwrap_err(), QuorumError::Empty);
        assert_eq!(
            Coterie::new(3, vec![ElementSet::empty(3)]).unwrap_err(),
            QuorumError::Empty
        );
    }

    #[test]
    fn universe_mismatch_rejected() {
        let err = Coterie::new(3, vec![ElementSet::from_iter(4, [0, 1])]).unwrap_err();
        assert!(matches!(err, QuorumError::UniverseMismatch { .. }));
    }

    #[test]
    fn non_intersecting_rejected() {
        let err = Coterie::new(
            4,
            vec![
                ElementSet::from_iter(4, [0, 1]),
                ElementSet::from_iter(4, [2, 3]),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            QuorumError::NotIntersecting {
                first: 0,
                second: 1
            }
        );
    }

    #[test]
    fn non_minimal_rejected() {
        let err = Coterie::new(
            3,
            vec![
                ElementSet::from_iter(3, [0, 1]),
                ElementSet::from_iter(3, [0, 1, 2]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, QuorumError::NotMinimal { .. }));
    }

    #[test]
    fn singleton_coterie_is_nd() {
        // The "star"/"monarchy" coterie {{0}} over any universe is ND.
        let c = Coterie::new(4, vec![ElementSet::from_iter(4, [0])]).unwrap();
        assert!(c.is_nondominated());
    }

    #[test]
    fn contains_quorum_checks_supersets() {
        let c = maj3();
        assert!(c.contains_quorum(&ElementSet::from_iter(3, [0, 1, 2])));
        assert!(c.contains_quorum(&ElementSet::from_iter(3, [1, 2])));
        assert!(!c.contains_quorum(&ElementSet::from_iter(3, [1])));
        assert!(!c.contains_quorum(&ElementSet::empty(3)));
    }

    #[test]
    fn display_lists_quorums() {
        let c = maj3().named("Maj3");
        let s = c.to_string();
        assert!(s.contains("Maj3"));
        assert!(s.contains("{0, 1}"));
    }

    #[test]
    fn new_unchecked_round_trip() {
        let c = Coterie::new_unchecked(
            3,
            vec![
                ElementSet::from_iter(3, [0, 1]),
                ElementSet::from_iter(3, [0, 2]),
                ElementSet::from_iter(3, [1, 2]),
            ],
        );
        assert_eq!(c.quorum_count(), 3);
    }
}
