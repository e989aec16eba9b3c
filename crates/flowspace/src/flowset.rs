//! Compact sets of flow identifiers over a finite universe.

use crate::FlowId;
use serde::{Deserialize, Serialize};
use std::fmt;

const WORD_BITS: usize = 64;

/// A set of [`FlowId`]s over a finite universe, stored as a bitset.
///
/// All of the paper's set algebra — rule coverage, overlap, the "relevant
/// flow identifiers" of §IV-A1 — reduces to unions, differences and
/// intersections over these sets, so a dense bitset keeps the Markov-model
/// construction cheap.
///
/// Every operation that combines two sets requires them to come from the
/// same universe (same [`FlowSet::universe_size`]); combining mismatched
/// sets panics, as that is always a logic error.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowSet {
    words: Vec<u64>,
    universe: usize,
}

impl FlowSet {
    /// Creates an empty set over a universe of `universe` flows.
    #[must_use]
    pub fn empty(universe: usize) -> Self {
        FlowSet {
            words: vec![0; universe.div_ceil(WORD_BITS)],
            universe,
        }
    }

    /// Creates the full set containing every flow of the universe.
    #[must_use]
    pub fn full(universe: usize) -> Self {
        let mut s = Self::empty(universe);
        for i in 0..universe {
            s.insert(FlowId(i as u32));
        }
        s
    }

    /// Creates a set from an iterator of flows.
    ///
    /// # Panics
    ///
    /// Panics if any flow index is outside the universe.
    #[must_use]
    pub fn from_flows<I: IntoIterator<Item = FlowId>>(universe: usize, flows: I) -> Self {
        let mut s = Self::empty(universe);
        for f in flows {
            s.insert(f);
        }
        s
    }

    /// The size of the universe this set ranges over.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// Whether the bitset holds exactly the words its universe needs and
    /// no bit past the universe: true of every constructed set, and what
    /// a deserialized one must be checked for.
    #[must_use]
    pub(crate) fn is_well_formed(&self) -> bool {
        let tail = self.universe % WORD_BITS;
        self.words.len() == self.universe.div_ceil(WORD_BITS)
            && (tail == 0 || self.words.last().is_some_and(|w| w >> tail == 0))
    }

    /// Number of flows in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether `flow` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is outside the universe.
    #[must_use]
    pub fn contains(&self, flow: FlowId) -> bool {
        let i = flow.index();
        assert!(
            i < self.universe,
            "flow {flow} outside universe of {}",
            self.universe
        );
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Inserts `flow`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is outside the universe.
    pub fn insert(&mut self, flow: FlowId) -> bool {
        let i = flow.index();
        assert!(
            i < self.universe,
            "flow {flow} outside universe of {}",
            self.universe
        );
        let word = &mut self.words[i / WORD_BITS];
        let bit = 1u64 << (i % WORD_BITS);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `flow`; returns whether it was present.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is outside the universe.
    pub fn remove(&mut self, flow: FlowId) -> bool {
        let i = flow.index();
        assert!(
            i < self.universe,
            "flow {flow} outside universe of {}",
            self.universe
        );
        let word = &mut self.words[i / WORD_BITS];
        let bit = 1u64 << (i % WORD_BITS);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Set union.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn union(&self, other: &FlowSet) -> FlowSet {
        self.check_universe(other);
        FlowSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            universe: self.universe,
        }
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &FlowSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn difference(&self, other: &FlowSet) -> FlowSet {
        self.check_universe(other);
        FlowSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
            universe: self.universe,
        }
    }

    /// In-place difference `self \= other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference_with(&mut self, other: &FlowSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether the two sets share at least one flow.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn intersects(&self, other: &FlowSet) -> bool {
        self.check_universe(other);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates the flows in the set in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(FlowId((wi * WORD_BITS) as u32 + tz))
                }
            })
        })
    }

    fn check_universe(&self, other: &FlowSet) {
        assert_eq!(
            self.universe, other.universe,
            "flow sets from different universes ({} vs {})",
            self.universe, other.universe
        );
    }
}

impl fmt::Debug for FlowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<FlowId> for FlowSet {
    /// Builds a set whose universe is just large enough for the largest flow.
    fn from_iter<I: IntoIterator<Item = FlowId>>(iter: I) -> Self {
        let flows: Vec<FlowId> = iter.into_iter().collect();
        let universe = flows.iter().map(|f| f.index() + 1).max().unwrap_or(0);
        Self::from_flows(universe, flows)
    }
}

impl Extend<FlowId> for FlowSet {
    fn extend<I: IntoIterator<Item = FlowId>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(universe: usize, flows: &[u32]) -> FlowSet {
        FlowSet::from_flows(universe, flows.iter().map(|&i| FlowId(i)))
    }

    #[test]
    fn empty_and_full() {
        let e = FlowSet::empty(16);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = FlowSet::full(16);
        assert_eq!(f.len(), 16);
        assert!(!f.is_empty());
        for i in 0..16 {
            assert!(f.contains(FlowId(i)));
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = FlowSet::empty(70); // cross the word boundary
        assert!(s.insert(FlowId(0)));
        assert!(s.insert(FlowId(69)));
        assert!(!s.insert(FlowId(69)));
        assert!(s.contains(FlowId(0)));
        assert!(s.contains(FlowId(69)));
        assert!(!s.contains(FlowId(33)));
        assert!(s.remove(FlowId(69)));
        assert!(!s.remove(FlowId(69)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn contains_out_of_universe_panics() {
        let _ = FlowSet::empty(4).contains(FlowId(4));
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn mixed_universe_panics() {
        let _ = FlowSet::empty(4).union(&FlowSet::empty(5));
    }

    #[test]
    fn well_formed_sets_fit_their_universe() {
        assert!(FlowSet::full(70).is_well_formed());
        assert!(FlowSet::empty(0).is_well_formed());
        let malformed = [
            FlowSet {
                words: vec![],
                universe: 16,
            },
            FlowSet {
                words: vec![1 << 16],
                universe: 16,
            },
            FlowSet {
                words: vec![0, 0],
                universe: 64,
            },
        ];
        assert!(malformed.iter().all(|s| !s.is_well_formed()));
    }

    #[test]
    fn set_algebra() {
        let a = set(16, &[1, 2, 3]);
        let b = set(16, &[3, 4]);
        assert_eq!(a.union(&b), set(16, &[1, 2, 3, 4]));
        assert_eq!(a.difference(&b), set(16, &[1, 2]));
        assert!(a.intersects(&b));
        assert!(!set(16, &[1]).intersects(&set(16, &[2])));
    }

    #[test]
    fn in_place_ops_match_pure_ops() {
        let a = set(16, &[1, 2, 3]);
        let b = set(16, &[3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b));
    }

    #[test]
    fn iter_yields_sorted_flows() {
        let s = set(130, &[128, 5, 64, 0]);
        let got: Vec<u32> = s.iter().map(|f| f.0).collect();
        assert_eq!(got, vec![0, 5, 64, 128]);
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: FlowSet = [FlowId(2), FlowId(9)].into_iter().collect();
        assert_eq!(s.universe_size(), 10);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn extend_adds_flows() {
        let mut s = FlowSet::empty(8);
        s.extend([FlowId(1), FlowId(7)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", FlowSet::empty(4)), "{}");
        assert!(format!("{:?}", set(4, &[1])).contains("FlowId(1)"));
    }
}
