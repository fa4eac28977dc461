//! The probe oracle: reveals element colors one probe at a time.

use quorum_core::{Color, Coloring, ElementId, ElementSet};

/// An adaptive probing session over a fixed (hidden) coloring.
///
/// The oracle reveals the color of an element on demand and keeps track of
/// which elements have been probed, in which order, and what was observed.
/// Re-probing an element is free (it does not increase the probe count),
/// matching the paper's model in which an algorithm never needs to probe an
/// element twice.
///
/// The oracle keeps one n-bit set per color (their union is the probed
/// set) and counts the green probes (the red ones are the rest of the
/// sequence), so [`green_count`](Self::green_count) and
/// [`red_count`](Self::red_count) are O(1) where `green_probed().len()`
/// popcounts every word: a strategy that tests a count after each probe
/// (Probe_Maj) pays O(1) per probe, not n/64 words. The recursive
/// strategies (Probe_Tree, Probe_HQS and their randomized variants) likewise
/// keep their certificates in one buffer of probed elements and build the
/// witness set once, so no strategy touches an n-bit set per probe.
///
/// # Examples
///
/// ```
/// use quorum_core::{Color, Coloring};
/// use quorum_probe::ProbeOracle;
///
/// let coloring = Coloring::from_colors(vec![Color::Green, Color::Red]);
/// let mut oracle = ProbeOracle::new(&coloring);
/// assert_eq!(oracle.probe(1), Color::Red);
/// assert_eq!(oracle.probe(1), Color::Red); // cached, still 1 probe
/// assert_eq!(oracle.probe_count(), 1);
/// assert_eq!((oracle.green_count(), oracle.red_count()), (0, 1));
/// assert_eq!(oracle.red_probed().to_vec(), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct ProbeOracle<'a> {
    coloring: &'a Coloring,
    green: ElementSet,
    red: ElementSet,
    green_count: usize,
    sequence: Vec<ElementId>,
}

impl<'a> ProbeOracle<'a> {
    /// Starts a probing session against the given hidden coloring.
    pub fn new(coloring: &'a Coloring) -> Self {
        let n = coloring.universe_size();
        ProbeOracle {
            coloring,
            green: ElementSet::empty(n),
            red: ElementSet::empty(n),
            green_count: 0,
            sequence: Vec::new(),
        }
    }

    /// Number of elements in the universe.
    pub fn universe_size(&self) -> usize {
        self.coloring.universe_size()
    }

    /// Probes element `e` and returns its color.
    ///
    /// The first probe of an element is recorded and counted; subsequent
    /// probes of the same element return the cached color for free.
    ///
    /// # Panics
    ///
    /// Panics if `e` is outside the universe.
    pub fn probe(&mut self, e: ElementId) -> Color {
        let color = self.coloring.color(e);
        // An element only ever enters its own color's set, so the insert
        // tells a first probe from a repeat.
        let seen = match color {
            Color::Green => &mut self.green,
            Color::Red => &mut self.red,
        };
        if seen.insert(e) {
            self.sequence.push(e);
            self.green_count += usize::from(color == Color::Green);
        }
        color
    }

    /// Whether element `e` has already been probed.
    pub fn is_probed(&self, e: ElementId) -> bool {
        self.green.contains(e) || self.red.contains(e)
    }

    /// The color of `e` if it has been probed, without issuing a new probe.
    pub fn known_color(&self, e: ElementId) -> Option<Color> {
        if self.green.contains(e) {
            Some(Color::Green)
        } else if self.red.contains(e) {
            Some(Color::Red)
        } else {
            None
        }
    }

    /// Number of (distinct) probes issued so far.
    pub fn probe_count(&self) -> usize {
        self.sequence.len()
    }

    /// Number of probed elements observed green, in O(1).
    pub fn green_count(&self) -> usize {
        self.green_count
    }

    /// Number of probed elements observed red, in O(1).
    pub fn red_count(&self) -> usize {
        self.sequence.len() - self.green_count
    }

    /// The probed elements observed green.
    pub fn green_probed(&self) -> &ElementSet {
        &self.green
    }

    /// The probed elements observed red.
    pub fn red_probed(&self) -> &ElementSet {
        &self.red
    }

    /// The probed elements observed with the given color.
    pub fn probed_with(&self, color: Color) -> &ElementSet {
        match color {
            Color::Green => &self.green,
            Color::Red => &self.red,
        }
    }

    /// The probe sequence, in the order the probes were issued.
    pub fn sequence(&self) -> &[ElementId] {
        &self.sequence
    }

    /// The elements not probed yet, in index order (word-wise union and
    /// complement passes plus a word-skipping iteration — no per-element
    /// membership tests).
    pub fn unprobed(&self) -> Vec<ElementId> {
        self.green.union(&self.red).complement().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coloring() -> Coloring {
        Coloring::from_colors(vec![
            Color::Green,
            Color::Red,
            Color::Green,
            Color::Red,
            Color::Red,
        ])
    }

    #[test]
    fn probing_reveals_and_counts() {
        let c = coloring();
        let mut oracle = ProbeOracle::new(&c);
        assert_eq!(oracle.universe_size(), 5);
        assert_eq!(oracle.probe(0), Color::Green);
        assert_eq!(oracle.probe(3), Color::Red);
        assert_eq!(oracle.probe_count(), 2);
        assert_eq!(oracle.sequence(), &[0, 3]);
        assert!(oracle.is_probed(0));
        assert!(!oracle.is_probed(2));
    }

    #[test]
    fn reprobing_is_free() {
        let c = coloring();
        let mut oracle = ProbeOracle::new(&c);
        for _ in 0..5 {
            oracle.probe(4);
        }
        assert_eq!(oracle.probe_count(), 1);
        assert_eq!(oracle.sequence(), &[4]);
    }

    #[test]
    fn color_partition_tracking() {
        let c = coloring();
        let mut oracle = ProbeOracle::new(&c);
        for e in 0..5 {
            oracle.probe(e);
        }
        assert_eq!(oracle.green_probed().to_vec(), vec![0, 2]);
        assert_eq!(oracle.red_probed().to_vec(), vec![1, 3, 4]);
        assert_eq!(oracle.probed_with(Color::Green).len(), 2);
        assert_eq!(oracle.probed_with(Color::Red).len(), 3);
        assert!(oracle.unprobed().is_empty());
    }

    #[test]
    fn counters_match_the_color_sets() {
        let c = coloring();
        let mut oracle = ProbeOracle::new(&c);
        for e in [3, 0, 3, 4, 0, 1, 4] {
            oracle.probe(e);
            assert_eq!(
                oracle.green_count() + oracle.red_count(),
                oracle.probe_count()
            );
            assert_eq!(oracle.green_count(), oracle.green_probed().len());
            assert_eq!(oracle.red_count(), oracle.red_probed().len());
        }
        // The three re-probes counted nothing.
        assert_eq!((oracle.green_count(), oracle.red_count()), (1, 3));
    }

    #[test]
    fn known_color_does_not_probe() {
        let c = coloring();
        let mut oracle = ProbeOracle::new(&c);
        assert_eq!(oracle.known_color(0), None);
        oracle.probe(0);
        assert_eq!(oracle.known_color(0), Some(Color::Green));
        assert_eq!(oracle.probe_count(), 1);
    }

    #[test]
    fn unprobed_lists_remaining_elements() {
        let c = coloring();
        let mut oracle = ProbeOracle::new(&c);
        oracle.probe(1);
        oracle.probe(3);
        assert_eq!(oracle.unprobed(), vec![0, 2, 4]);
    }

    #[test]
    #[should_panic]
    fn probe_out_of_range_panics() {
        let c = coloring();
        let mut oracle = ProbeOracle::new(&c);
        oracle.probe(5);
    }
}
