//! Organization structure over a universe of elements.
//!
//! Real deployments (Stellar-style federated byzantine agreement systems)
//! group validators by the operator that runs them: when an organization
//! goes down, every element it operates fails together.  [`Organizations`]
//! captures that grouping as a validated partition-like structure — a set of
//! pairwise-disjoint element groups over a universe — without prescribing how
//! it is used.  `quorum-sim` layers a correlated failure model on top
//! (`FailureModel::OrgZoned`), and `quorum-systems` uses the same structure
//! when building majority-of-organizations compositions.
//!
//! Elements not listed in any group are *independent*: they belong to no
//! organization and fail on their own.

use crate::error::QuorumError;
use crate::ElementId;

/// A validated set of pairwise-disjoint element groups ("organizations")
/// over a universe `U = {0, …, n−1}`.
///
/// Construction checks that every member is in range and that no element is
/// claimed by two organizations; empty groups are rejected so each listed
/// organization actually owns elements.
///
/// ```
/// use quorum_core::Organizations;
///
/// let orgs = Organizations::new(7, vec![vec![0, 1, 2], vec![3, 4]]).unwrap();
/// assert_eq!(orgs.group_count(), 2);
/// assert_eq!(orgs.group_of(4), Some(1));
/// assert_eq!(orgs.group_of(6), None); // independent element
/// assert_eq!(orgs.members(0), &[0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Organizations {
    universe: usize,
    groups: Vec<Vec<ElementId>>,
    /// `group_of[e]` is one plus the index of the organization owning
    /// element `e`, or [`INDEPENDENT`] when none does: 4 bytes per element,
    /// allocated zeroed, so a large universe with few members touches only
    /// the pages that hold members.
    group_of: Vec<u32>,
}

/// The owner-table entry of an element no organization claims.
const INDEPENDENT: u32 = 0;

impl Organizations {
    /// Builds an organization structure over `universe` elements.
    ///
    /// # Errors
    ///
    /// * [`QuorumError::ElementOutOfRange`] when a group member is `>= universe`.
    /// * [`QuorumError::InvalidConstruction`] when a group is empty, an
    ///   element appears in more than one group (or twice in one group), or
    ///   there are `u32::MAX` groups or more.
    pub fn new(universe: usize, groups: Vec<Vec<ElementId>>) -> Result<Self, QuorumError> {
        if groups.len() >= u32::MAX as usize {
            return Err(QuorumError::InvalidConstruction {
                reason: format!(
                    "{} organizations exceed the limit of {}",
                    groups.len(),
                    u32::MAX - 1
                ),
            });
        }
        let mut group_of = vec![INDEPENDENT; universe];
        for (g, members) in groups.iter().enumerate() {
            if members.is_empty() {
                return Err(QuorumError::InvalidConstruction {
                    reason: format!("organization {g} has no members"),
                });
            }
            for &e in members {
                if e >= universe {
                    return Err(QuorumError::ElementOutOfRange {
                        element: e,
                        universe,
                    });
                }
                if group_of[e] != INDEPENDENT {
                    let prev = group_of[e] - 1;
                    return Err(QuorumError::InvalidConstruction {
                        reason: format!(
                            "element {e} belongs to both organization {prev} and organization {g}"
                        ),
                    });
                }
                group_of[e] = g as u32 + 1;
            }
        }
        Ok(Self {
            universe,
            groups,
            group_of,
        })
    }

    /// Partitions `universe` elements into `group_count` contiguous
    /// organizations of near-equal size (the same contiguous-zone layout the
    /// zoned failure model uses), so registries can derive an org structure
    /// from a size hint alone.
    ///
    /// # Errors
    ///
    /// [`QuorumError::InvalidConstruction`] when `group_count` is zero or
    /// exceeds `universe`.
    pub fn contiguous(universe: usize, group_count: usize) -> Result<Self, QuorumError> {
        if group_count == 0 || group_count > universe {
            return Err(QuorumError::InvalidConstruction {
                reason: format!(
                    "cannot split {universe} elements into {group_count} organizations"
                ),
            });
        }
        let base = universe / group_count;
        let extra = universe % group_count;
        let mut groups = Vec::with_capacity(group_count);
        let mut next = 0;
        for g in 0..group_count {
            let len = base + usize::from(g < extra);
            groups.push((next..next + len).collect());
            next += len;
        }
        Self::new(universe, groups)
    }

    /// Number of elements in the universe.
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// Number of organizations.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The organization owning element `e`, or `None` when `e` is
    /// independent (or out of range).
    pub fn group_of(&self, e: ElementId) -> Option<usize> {
        self.group_of
            .get(e)
            .filter(|&&g| g != INDEPENDENT)
            .map(|&g| g as usize - 1)
    }

    /// Members of organization `g` (panics when `g` is out of range).
    pub fn members(&self, g: usize) -> &[ElementId] {
        &self.groups[g]
    }

    /// All organization member lists, in declaration order.
    pub fn groups(&self) -> &[Vec<ElementId>] {
        &self.groups
    }

    /// Elements claimed by no organization, in ascending order.
    pub fn independent_elements(&self) -> Vec<ElementId> {
        (0..self.universe)
            .filter(|&e| self.group_of[e] == INDEPENDENT)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_membership() {
        assert!(Organizations::new(5, vec![vec![0, 1], vec![2, 3, 4]]).is_ok());
        assert!(matches!(
            Organizations::new(5, vec![vec![0, 5]]),
            Err(QuorumError::ElementOutOfRange {
                element: 5,
                universe: 5
            })
        ));
        assert!(matches!(
            Organizations::new(5, vec![vec![0, 1], vec![1, 2]]),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Organizations::new(5, vec![vec![]]),
            Err(QuorumError::InvalidConstruction { .. })
        ));
        assert!(matches!(
            Organizations::new(3, vec![vec![0, 0]]),
            Err(QuorumError::InvalidConstruction { .. })
        ));
    }

    #[test]
    fn contiguous_layout_covers_the_universe() {
        let orgs = Organizations::contiguous(10, 3).unwrap();
        assert_eq!(orgs.group_count(), 3);
        assert_eq!(orgs.members(0), &[0, 1, 2, 3]);
        assert_eq!(orgs.members(1), &[4, 5, 6]);
        assert_eq!(orgs.members(2), &[7, 8, 9]);
        assert!(orgs.independent_elements().is_empty());
        for e in 0..10 {
            assert!(orgs.group_of(e).is_some());
        }
        assert!(Organizations::contiguous(4, 0).is_err());
        assert!(Organizations::contiguous(4, 5).is_err());
    }

    #[test]
    fn independent_elements_are_reported() {
        let orgs = Organizations::new(6, vec![vec![1, 2], vec![4]]).unwrap();
        assert_eq!(orgs.independent_elements(), vec![0, 3, 5]);
        assert_eq!(orgs.group_of(3), None);
        assert_eq!(orgs.group_of(99), None);
    }

    #[test]
    fn owner_table_costs_four_bytes_per_element() {
        let orgs = Organizations::new(9, vec![vec![2, 3], vec![5, 6, 8]]).unwrap();
        for e in [0, 1, 4, 7] {
            assert_eq!(orgs.group_of(e), None);
        }
        // The last element of the last group reads its group, not the
        // sentinel.
        assert_eq!(orgs.group_of(8), Some(1));
        assert_eq!(orgs.independent_elements(), vec![0, 1, 4, 7]);
        assert_eq!(std::mem::size_of_val(orgs.group_of.as_slice()), 4 * 9);
    }
}
