//! TCAM-style ternary match patterns.

use crate::{FlowId, FlowSet};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A ternary match pattern over the low `bits` bits of a flow identifier.
///
/// Each bit position is either *cared* (must equal the corresponding bit of
/// `value`) or *wildcard*. A flow `f` is covered iff
/// `f & mask == value`.
///
/// Over `b` bits there are exactly `3^b` distinct patterns — for the paper's
/// evaluation (`b = 4`, 16 source addresses) that is the "81 possible rules
/// (involving up to 4-bit masks)" from which 12 are drawn at random.
///
/// ```
/// use flowspace::TernaryPattern;
/// assert_eq!(TernaryPattern::enumerate(4).count(), 81);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TernaryPattern {
    bits: u32,
    value: u32,
    mask: u32,
}

/// Error parsing a [`TernaryPattern`] from its string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternParseError {
    /// The string was empty or longer than 32 characters.
    BadLength(usize),
    /// A character other than `0`, `1` or `*` appeared.
    BadChar(char),
}

impl fmt::Display for PatternParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternParseError::BadLength(n) => {
                write!(f, "pattern length {n} not in 1..=32")
            }
            PatternParseError::BadChar(c) => write!(f, "invalid pattern character {c:?}"),
        }
    }
}

impl std::error::Error for PatternParseError {}

impl TernaryPattern {
    /// Creates a pattern over `bits` bits with the given cared `value` and
    /// `mask` (1-bits of `mask` are cared positions).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 32, if `mask` has bits outside the
    /// low `bits` positions, or if `value` has bits outside `mask` (a cared
    /// value on a wildcard position would be meaningless).
    #[must_use]
    pub fn new(bits: u32, value: u32, mask: u32) -> Self {
        assert!((1..=32).contains(&bits), "bits {bits} not in 1..=32");
        let limit = if bits == 32 {
            u32::MAX
        } else {
            (1u32 << bits) - 1
        };
        assert_eq!(mask & !limit, 0, "mask {mask:#b} exceeds {bits} bits");
        assert_eq!(
            value & !mask,
            0,
            "value {value:#b} has bits outside mask {mask:#b}"
        );
        TernaryPattern { bits, value, mask }
    }

    /// Parses a pattern from a string of `0`/`1`/`*`, most significant bit
    /// first — e.g. `"01*1"`.
    ///
    /// # Errors
    ///
    /// Returns [`PatternParseError`] for empty/overlong strings or invalid
    /// characters.
    pub fn parse(s: &str) -> Result<Self, PatternParseError> {
        let n = s.chars().count();
        if n == 0 || n > 32 {
            return Err(PatternParseError::BadLength(n));
        }
        let mut value = 0u32;
        let mut mask = 0u32;
        for c in s.chars() {
            value <<= 1;
            mask <<= 1;
            match c {
                '0' => mask |= 1,
                '1' => {
                    mask |= 1;
                    value |= 1;
                }
                '*' => {}
                other => return Err(PatternParseError::BadChar(other)),
            }
        }
        Ok(TernaryPattern::new(n as u32, value, mask))
    }

    /// Number of bits this pattern spans.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The cared value bits.
    #[must_use]
    pub fn value(self) -> u32 {
        self.value
    }

    /// The care mask (1 = cared position).
    #[must_use]
    pub fn mask(self) -> u32 {
        self.mask
    }

    /// Whether this pattern covers flow `f` (only the low `bits` bits of the
    /// flow index are considered).
    #[must_use]
    pub fn covers(self, f: FlowId) -> bool {
        (f.0 & self.mask) == self.value
    }

    /// Whether the two patterns cover at least one common flow.
    ///
    /// Two ternary patterns overlap iff they agree on every position both
    /// care about.
    ///
    /// # Panics
    ///
    /// Panics if the patterns span different bit widths.
    #[must_use]
    pub fn overlaps(self, other: TernaryPattern) -> bool {
        assert_eq!(self.bits, other.bits, "patterns over different widths");
        let common = self.mask & other.mask;
        (self.value & common) == (other.value & common)
    }

    /// Materializes the set of flows covered within a universe of
    /// `universe` flows (flow indices `0..universe`).
    #[must_use]
    pub fn to_flow_set(self, universe: usize) -> FlowSet {
        let mut s = FlowSet::empty(universe);
        for i in 0..universe as u32 {
            if self.covers(FlowId(i)) {
                s.insert(FlowId(i));
            }
        }
        s
    }

    /// Enumerates all `3^bits` patterns over `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 16 (3^17 > 100M patterns would be a
    /// caller bug).
    pub fn enumerate(bits: u32) -> impl Iterator<Item = TernaryPattern> {
        assert!((1..=16).contains(&bits), "bits {bits} not in 1..=16");
        let total = 3usize.pow(bits);
        (0..total).map(move |mut code| {
            let mut value = 0u32;
            let mut mask = 0u32;
            for pos in 0..bits {
                let trit = code % 3;
                code /= 3;
                match trit {
                    0 => {}
                    1 => mask |= 1 << pos,
                    _ => {
                        mask |= 1 << pos;
                        value |= 1 << pos;
                    }
                }
            }
            TernaryPattern::new(bits, value, mask)
        })
    }
}

impl fmt::Display for TernaryPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pos in (0..self.bits).rev() {
            let bit = 1u32 << pos;
            let c = if self.mask & bit == 0 {
                '*'
            } else if self.value & bit != 0 {
                '1'
            } else {
                '0'
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl FromStr for TernaryPattern {
    type Err = PatternParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TernaryPattern::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0", "1", "*", "01*1", "****", "1010"] {
            let p: TernaryPattern = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            TernaryPattern::parse(""),
            Err(PatternParseError::BadLength(0))
        );
        assert_eq!(
            TernaryPattern::parse("01x"),
            Err(PatternParseError::BadChar('x'))
        );
        let long = "0".repeat(33);
        assert_eq!(
            TernaryPattern::parse(&long),
            Err(PatternParseError::BadLength(33))
        );
        assert!(PatternParseError::BadChar('x').to_string().contains('x'));
    }

    #[test]
    fn coverage_semantics() {
        let p = TernaryPattern::parse("01*1").unwrap();
        // Pattern cares about bits 3,2,0: must be 0,1,1.
        assert!(p.covers(FlowId(0b0101)));
        assert!(p.covers(FlowId(0b0111)));
        assert!(!p.covers(FlowId(0b0100))); // bit 0 wrong
        assert!(!p.covers(FlowId(0b1101))); // bit 3 wrong
        assert_eq!(p.mask().count_ones(), 3);
    }

    #[test]
    fn full_wildcard_covers_everything() {
        let p = TernaryPattern::parse("****").unwrap();
        for i in 0..16 {
            assert!(p.covers(FlowId(i)));
        }
        assert_eq!(p.to_flow_set(16).len(), 16);
    }

    #[test]
    fn enumerate_counts_are_powers_of_three() {
        assert_eq!(TernaryPattern::enumerate(1).count(), 3);
        assert_eq!(TernaryPattern::enumerate(2).count(), 9);
        assert_eq!(TernaryPattern::enumerate(4).count(), 81);
    }

    #[test]
    fn enumerate_yields_distinct_patterns() {
        let all: std::collections::BTreeSet<_> = TernaryPattern::enumerate(4).collect();
        assert_eq!(all.len(), 81);
    }

    #[test]
    fn overlap_matches_set_intersection() {
        let universe = 16;
        let pats: Vec<_> = TernaryPattern::enumerate(4).collect();
        for &a in &pats {
            for &b in &pats {
                let sets_overlap = a.to_flow_set(universe).intersects(&b.to_flow_set(universe));
                assert_eq!(a.overlaps(b), sets_overlap, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn to_flow_set_matches_covers() {
        let p = TernaryPattern::parse("1**0").unwrap();
        let s = p.to_flow_set(16);
        for i in 0..16 {
            assert_eq!(s.contains(FlowId(i)), p.covers(FlowId(i)));
        }
    }

    #[test]
    #[should_panic(expected = "outside mask")]
    fn new_rejects_value_outside_mask() {
        let _ = TernaryPattern::new(4, 0b0010, 0b0001);
    }

    #[test]
    #[should_panic(expected = "exceeds 4 bits")]
    fn new_rejects_wide_mask() {
        let _ = TernaryPattern::new(4, 0, 0b10000);
    }
}
