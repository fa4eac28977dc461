//! The minimal-set enumerator: the minimal quorums and the minimal blocking
//! sets of any [`QuorumSystem`], found through its characteristic function
//! alone.
//!
//! Both lists come from one include/exclude branch-and-bound over a
//! monotone predicate, in the style of FBAS quorum analysers. Elements are
//! decided in the order `0, 1, …, n − 1`, and a branch is pruned as soon as
//! the selected elements plus every undecided one no longer satisfy the
//! predicate:
//!
//! * [`minimal_quorums`] runs it on `S ↦ contains_quorum(S)`, giving the
//!   minterms of the characteristic function;
//! * [`minimal_blocking_sets`] runs it on the dual `S ↦ ¬contains_quorum(U \
//!   S)`, giving its maxterms: the minimal transversals, whose failure kills
//!   every quorum. A coterie is nondominated exactly when the two lists are
//!   equal (self-duality), which [`crate::Coterie::is_nondominated`] checks.
//!
//! # Cost
//!
//! A pruned branch holds no satisfying set, but a kept branch may hold only
//! satisfying sets that are not minimal, so the search can visit
//! exponentially many nodes per listed set: the cost is not bounded by the
//! number of minimal sets. The spec `1(23)`, whose one quorum is the last
//! of 24 elements, visits all 2²⁵ − 1 nodes of the tree to list that set,
//! and each further element before it doubles the count. The 25-element
//! organization majority `org_majority(5, 5)` visits 16 230 399 nodes
//! (about 1 600 per listed set) for its 10 000 quorums and as many for its
//! blocking sets. In a release build on a 2-vCPU VM those two lists take
//! about 3 s and 4 s, and `1(23)`'s about 1.5 s and 3 s. Every enumeration
//! therefore stops at fixed limits, whichever comes first:
//!
//! * [`MINIMAL_ENUM_LIMIT`] elements, refused with
//!   [`QuorumError::UniverseTooLarge`] before the search starts;
//! * 2²⁵ search nodes, twice what `org_majority(5, 5)` needs, refused with
//!   [`QuorumError::EnumerationBudgetExceeded`] naming `"search nodes"`:
//!   `1(31)` stops there after about 1.5 s (3 s for blocking sets);
//! * 2²⁰ listed sets (about 64 MiB of them), refused the same way naming
//!   `"minimal sets"`: `Maj(31)` stops there after about 0.5 s (1.1 s for
//!   blocking sets) at 68 MB peak RSS, where its 3·10⁸ quorums would take
//!   about 20 GB.

use crate::{ElementId, ElementSet, QuorumError, QuorumSystem};

/// Largest universe the minimal-set searches accept.
pub const MINIMAL_ENUM_LIMIT: usize = 32;

/// Search nodes one enumeration may visit.
const NODE_BUDGET: usize = 1 << 25;

/// Minimal sets one enumeration may list.
const SET_BUDGET: usize = 1 << 20;

/// Enumerates the minimal quorums of `system`, sorted canonically by
/// `(size, elements)`.
///
/// # Errors
///
/// Returns [`QuorumError::UniverseTooLarge`] when the universe exceeds
/// [`MINIMAL_ENUM_LIMIT`], and [`QuorumError::EnumerationBudgetExceeded`]
/// when the search runs past its node or set budget (see the
/// [module docs](self)).
pub fn minimal_quorums<S: QuorumSystem + ?Sized>(
    system: &S,
) -> Result<Vec<ElementSet>, QuorumError> {
    minimal_true_sets(system.universe_size(), |s| system.contains_quorum(s))
}

/// Enumerates the minimal blocking sets (minimal transversals) of `system`,
/// sorted canonically by `(size, elements)`.
///
/// A blocking set intersects every quorum: once all of its elements fail, no
/// live quorum remains. For a nondominated coterie the blocking sets are
/// exactly the quorums (self-duality).
///
/// # Errors
///
/// As [`minimal_quorums`].
pub fn minimal_blocking_sets<S: QuorumSystem + ?Sized>(
    system: &S,
) -> Result<Vec<ElementSet>, QuorumError> {
    let n = system.universe_size();
    // One scratch set holds each queried set's complement. A universe past
    // the limit is refused before the first query, so it needs no scratch.
    let mut complement = ElementSet::empty(n.min(MINIMAL_ENUM_LIMIT));
    minimal_true_sets(n, |s| {
        for (index, &word) in s.words().iter().enumerate() {
            complement.set_word(index, !word);
        }
        !system.contains_quorum(&complement)
    })
}

/// Enumerates the minimal satisfying sets of the monotone predicate `f` over
/// elements `0..n`, within the module's limits.
fn minimal_true_sets(
    n: usize,
    f: impl FnMut(&ElementSet) -> bool,
) -> Result<Vec<ElementSet>, QuorumError> {
    if n > MINIMAL_ENUM_LIMIT {
        return Err(QuorumError::UniverseTooLarge {
            actual: n,
            limit: MINIMAL_ENUM_LIMIT,
        });
    }
    let mut search = Search {
        f,
        n,
        nodes: 0,
        selection: ElementSet::empty(n),
        upper: ElementSet::full(n),
        found: Vec::new(),
    };
    search.visit(0)?;
    let mut found = search.found;
    found.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.iter().cmp(b.iter())));
    Ok(found)
}

/// The branch-and-bound's state.
struct Search<F> {
    f: F,
    n: usize,
    /// Nodes visited so far.
    nodes: usize,
    /// The elements selected on the current branch.
    selection: ElementSet,
    /// `selection` plus every undecided element: the largest set the
    /// current branch can still reach.
    upper: ElementSet,
    found: Vec<ElementSet>,
}

impl<F: FnMut(&ElementSet) -> bool> Search<F> {
    /// Visits the node whose undecided elements are `next..n`.
    fn visit(&mut self, next: ElementId) -> Result<(), QuorumError> {
        self.nodes += 1;
        if self.nodes > NODE_BUDGET {
            return Err(QuorumError::EnumerationBudgetExceeded {
                budget: "search nodes",
                limit: NODE_BUDGET,
            });
        }
        if (self.f)(&self.selection) {
            // A satisfying selection never expands further (supersets are
            // dominated), so each set is visited at most once; it is
            // recorded only if every member is critical.
            if self.members_are_critical() {
                if self.found.len() == SET_BUDGET {
                    return Err(QuorumError::EnumerationBudgetExceeded {
                        budget: "minimal sets",
                        limit: SET_BUDGET,
                    });
                }
                self.found.push(self.selection.clone());
            }
            return Ok(());
        }
        // Prune: even selecting every undecided element cannot satisfy `f`.
        if next == self.n || !(self.f)(&self.upper) {
            return Ok(());
        }
        self.selection.insert(next);
        self.visit(next + 1)?;
        self.selection.remove(next);
        self.upper.remove(next);
        self.visit(next + 1)?;
        self.upper.insert(next);
        Ok(())
    }

    /// Whether removing any one member of the selection falsifies `f`,
    /// asked member by member in increasing order until one is not: each
    /// member is toggled out of the selection in place and back.
    fn members_are_critical(&mut self) -> bool {
        for e in 0..self.n {
            if self.selection.remove(e) {
                let still = (self.f)(&self.selection);
                self.selection.insert(e);
                if still {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coterie;

    /// `k`-of-`n` over the whole universe.
    struct Threshold {
        n: usize,
        k: usize,
    }

    impl QuorumSystem for Threshold {
        fn name(&self) -> String {
            format!("{}-of-{}", self.k, self.n)
        }
        fn universe_size(&self) -> usize {
            self.n
        }
        fn contains_quorum(&self, set: &ElementSet) -> bool {
            set.len() >= self.k
        }
        fn min_quorum_size(&self) -> usize {
            self.k
        }
        fn max_quorum_size(&self) -> usize {
            self.k
        }
    }

    fn sets(universe: usize, lists: &[&[ElementId]]) -> Vec<ElementSet> {
        lists
            .iter()
            .map(|l| ElementSet::from_iter(universe, l.iter().copied()))
            .collect()
    }

    /// The minimal satisfying sets of `f` by a sweep over all `2^n` subsets,
    /// in the enumerator's order.
    fn exhaustive(n: usize, f: impl Fn(&ElementSet) -> bool) -> Vec<ElementSet> {
        let mut out: Vec<ElementSet> = (0u64..1 << n)
            .map(|mask| ElementSet::from_mask(n, mask))
            .filter(|s| f(s) && s.iter().all(|e| !f(&s.without(e))))
            .collect();
        out.sort_by_key(|s| (s.len(), s.to_vec()));
        out
    }

    #[test]
    fn majority_minimal_quorums_are_the_pairs() {
        let maj = Threshold { n: 3, k: 2 };
        let quorums = minimal_quorums(&maj).unwrap();
        assert_eq!(quorums, sets(3, &[&[0, 1], &[0, 2], &[1, 2]]));
        // Majority is self-dual: blocking sets coincide with quorums.
        assert_eq!(minimal_blocking_sets(&maj).unwrap(), quorums);
    }

    #[test]
    fn blocking_sets_match_the_exhaustive_transversal_sweep() {
        // Maj(5), and the dominated coterie of the pairs through element 0,
        // whose minimal transversals are {0} and {1, 2, 3}.
        let maj = Threshold { n: 5, k: 3 };
        let star = Coterie::new(4, sets(4, &[&[0, 1], &[0, 2], &[0, 3]])).unwrap();
        let systems: [&dyn QuorumSystem; 2] = [&maj, &star];
        for system in systems {
            let n = system.universe_size();
            let sweep = exhaustive(n, |s| !system.contains_quorum(&s.complement()));
            assert_eq!(minimal_blocking_sets(system).unwrap(), sweep);
        }
        assert_eq!(
            minimal_blocking_sets(&star).unwrap(),
            sets(4, &[&[0], &[1, 2, 3]])
        );
        // Its blocking sets are not its quorums: the star {{0}} dominates it.
        assert!(!star.is_nondominated());
    }

    #[test]
    fn oversized_universes_are_rejected() {
        let maj = Threshold { n: 35, k: 18 };
        let too_large = QuorumError::UniverseTooLarge {
            actual: 35,
            limit: MINIMAL_ENUM_LIMIT,
        };
        assert_eq!(minimal_quorums(&maj), Err(too_large.clone()));
        assert_eq!(minimal_blocking_sets(&maj), Err(too_large));
    }
}
