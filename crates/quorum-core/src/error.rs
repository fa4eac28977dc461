//! Error types returned by the `quorum-core` crate.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or validating quorum systems.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuorumError {
    /// An element identifier exceeded the size of the universe.
    ElementOutOfRange {
        /// The offending element.
        element: usize,
        /// The universe size it was checked against.
        universe: usize,
    },
    /// Two sets belonging to universes of different sizes were combined.
    UniverseMismatch {
        /// The first universe size.
        left: usize,
        /// The second universe size.
        right: usize,
    },
    /// A quorum system construction received an invalid parameter.
    InvalidConstruction {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The supplied collection of quorums violates the intersection property.
    NotIntersecting {
        /// Index of the first offending quorum.
        first: usize,
        /// Index of the second offending quorum.
        second: usize,
    },
    /// The supplied collection of quorums violates minimality (one quorum is a
    /// subset of another), so it is not a coterie.
    NotMinimal {
        /// Index of the contained quorum.
        subset: usize,
        /// Index of the containing quorum.
        superset: usize,
    },
    /// An empty quorum or an empty quorum collection was supplied.
    Empty,
    /// The requested operation is only feasible for small universes and the
    /// universe exceeded the supported limit.
    UniverseTooLarge {
        /// Actual universe size.
        actual: usize,
        /// Maximum supported universe size for this operation.
        limit: usize,
    },
    /// A minimal-set enumeration ran past one of its fixed work budgets
    /// (see [`crate::minimal`]), although the universe was within its limit.
    EnumerationBudgetExceeded {
        /// What the budget counts: `"search nodes"` or `"minimal sets"`.
        budget: &'static str,
        /// The budget.
        limit: usize,
    },
}

impl fmt::Display for QuorumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumError::ElementOutOfRange { element, universe } => {
                write!(
                    f,
                    "element {element} out of range for universe of size {universe}"
                )
            }
            QuorumError::UniverseMismatch { left, right } => {
                write!(f, "universe size mismatch: {left} vs {right}")
            }
            QuorumError::InvalidConstruction { reason } => {
                write!(f, "invalid quorum system construction: {reason}")
            }
            QuorumError::NotIntersecting { first, second } => {
                write!(f, "quorums {first} and {second} do not intersect")
            }
            QuorumError::NotMinimal { subset, superset } => {
                write!(f, "quorum {subset} is contained in quorum {superset}")
            }
            QuorumError::Empty => write!(f, "empty quorum or quorum collection"),
            QuorumError::UniverseTooLarge { actual, limit } => {
                write!(
                    f,
                    "universe of size {actual} exceeds the limit {limit} for this operation"
                )
            }
            QuorumError::EnumerationBudgetExceeded { budget, limit } => {
                write!(
                    f,
                    "minimal-set enumeration exceeded its budget of {limit} {budget}"
                )
            }
        }
    }
}

impl Error for QuorumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<QuorumError> = vec![
            QuorumError::ElementOutOfRange {
                element: 7,
                universe: 5,
            },
            QuorumError::UniverseMismatch { left: 3, right: 4 },
            QuorumError::InvalidConstruction {
                reason: "row width".into(),
            },
            QuorumError::NotIntersecting {
                first: 0,
                second: 2,
            },
            QuorumError::NotMinimal {
                subset: 1,
                superset: 0,
            },
            QuorumError::Empty,
            QuorumError::UniverseTooLarge {
                actual: 100,
                limit: 24,
            },
            QuorumError::EnumerationBudgetExceeded {
                budget: "search nodes",
                limit: 1 << 25,
            },
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_error(QuorumError::Empty);
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(QuorumError::Empty, QuorumError::Empty);
        assert_ne!(
            QuorumError::Empty,
            QuorumError::UniverseMismatch { left: 1, right: 2 }
        );
    }
}
