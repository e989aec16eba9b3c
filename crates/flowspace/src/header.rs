//! Concrete 5-tuple header matching and rule compilation.
//!
//! The Markov models work over an abstract finite flow universe, but real
//! OpenFlow policies (e.g. the Stanford backbone ACLs the paper's
//! evaluation draws on) match on IPv4 addresses, ports and protocol. This
//! module bridges the two: [`HeaderPattern`] is a TCAM-style match over a
//! [`FlowKey`]; [`HeaderUniverse`] enumerates the concrete flows of
//! interest; [`compile`] materializes header rules into a [`RuleSet`] the
//! models understand.

use crate::{FlowId, FlowKey, FlowSet, Priority, Protocol, Rule, RuleSet, RuleSetError, Timeout};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A ternary match over one 32-bit header field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FieldPattern {
    value: u32,
    mask: u32,
}

impl FieldPattern {
    /// Matches any value.
    #[must_use]
    pub fn any() -> Self {
        FieldPattern { value: 0, mask: 0 }
    }

    /// Matches exactly `value`.
    #[must_use]
    pub fn exact(value: u32) -> Self {
        FieldPattern {
            value,
            mask: u32::MAX,
        }
    }

    /// Matches the CIDR-style prefix `value/len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    #[must_use]
    pub fn prefix(value: u32, len: u32) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
        FieldPattern {
            value: value & mask,
            mask,
        }
    }

    /// Parses dotted-quad CIDR notation, e.g. `"10.0.1.0/28"` or a bare
    /// address `"10.0.1.16"` (treated as /32).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed component.
    pub fn parse_cidr(s: &str) -> Result<Self, String> {
        let (addr, len) = match s.split_once('/') {
            Some((a, l)) => (
                a,
                l.parse::<u32>()
                    .map_err(|e| format!("bad prefix length: {e}"))?,
            ),
            None => (s, 32),
        };
        if len > 32 {
            return Err(format!("prefix length {len} > 32"));
        }
        let mut octets = [0u32; 4];
        let mut n = 0;
        for part in addr.split('.') {
            if n == 4 {
                return Err("too many octets".to_string());
            }
            octets[n] = part
                .parse::<u32>()
                .map_err(|e| format!("bad octet {part:?}: {e}"))?;
            if octets[n] > 255 {
                return Err(format!("octet {} out of range", octets[n]));
            }
            n += 1;
        }
        if n != 4 {
            return Err("expected four octets".to_string());
        }
        let value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3];
        Ok(FieldPattern::prefix(value, len))
    }

    /// Whether `x` matches.
    #[must_use]
    pub fn covers(self, x: u32) -> bool {
        x & self.mask == self.value
    }

    /// Whether two field patterns can match a common value.
    #[must_use]
    pub fn overlaps(self, other: FieldPattern) -> bool {
        let common = self.mask & other.mask;
        self.value & common == other.value & common
    }
}

/// A TCAM-style match over a full 5-tuple.
///
/// `Default` matches everything (all fields wildcarded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HeaderPattern {
    /// Source address match.
    pub src_ip: FieldPattern,
    /// Destination address match.
    pub dst_ip: FieldPattern,
    /// Source port match (only the low 16 bits are meaningful).
    pub src_port: FieldPattern,
    /// Destination port match (only the low 16 bits are meaningful).
    pub dst_port: FieldPattern,
    /// Protocol match; `None` = any.
    pub proto: Option<Protocol>,
}

impl Default for HeaderPattern {
    fn default() -> Self {
        HeaderPattern {
            src_ip: FieldPattern::any(),
            dst_ip: FieldPattern::any(),
            src_port: FieldPattern::any(),
            dst_port: FieldPattern::any(),
            proto: None,
        }
    }
}

impl HeaderPattern {
    /// Whether a concrete header matches.
    #[must_use]
    pub fn covers(&self, key: &FlowKey) -> bool {
        self.src_ip.covers(key.src_ip)
            && self.dst_ip.covers(key.dst_ip)
            && self.src_port.covers(u32::from(key.src_port))
            && self.dst_port.covers(u32::from(key.dst_port))
            && self.proto.is_none_or(|p| p == key.proto)
    }

    /// Whether two header patterns can match a common header.
    #[must_use]
    pub fn overlaps(&self, other: &HeaderPattern) -> bool {
        self.src_ip.overlaps(other.src_ip)
            && self.dst_ip.overlaps(other.dst_ip)
            && self.src_port.overlaps(other.src_port)
            && self.dst_port.overlaps(other.dst_port)
            && match (self.proto, other.proto) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

impl fmt::Display for HeaderPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ip = |p: FieldPattern| {
            let v = p.value;
            let len = p.mask.count_ones();
            format!(
                "{}.{}.{}.{}/{len}",
                v >> 24,
                (v >> 16) & 255,
                (v >> 8) & 255,
                v & 255
            )
        };
        write!(f, "src {} dst {}", ip(self.src_ip), ip(self.dst_ip))?;
        if let Some(p) = self.proto {
            write!(f, " proto {p}")?;
        }
        Ok(())
    }
}

/// The finite set of concrete flows under study, assigning each a
/// [`FlowId`] for the models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "Vec<FlowKey>", into = "Vec<FlowKey>")]
pub struct HeaderUniverse {
    keys: Vec<FlowKey>,
}

impl From<Vec<FlowKey>> for HeaderUniverse {
    fn from(keys: Vec<FlowKey>) -> Self {
        HeaderUniverse::new(keys)
    }
}

impl From<HeaderUniverse> for Vec<FlowKey> {
    fn from(u: HeaderUniverse) -> Self {
        u.keys
    }
}

impl HeaderUniverse {
    /// Builds a universe from concrete flow keys (duplicates collapse).
    #[must_use]
    pub fn new<I: IntoIterator<Item = FlowKey>>(keys: I) -> Self {
        let mut seen = BTreeSet::new();
        HeaderUniverse {
            keys: keys.into_iter().filter(|k| seen.insert(*k)).collect(),
        }
    }

    /// The paper's evaluation universe: 16 client hosts sending ICMP to a
    /// common server.
    #[must_use]
    pub fn eval_sixteen_hosts() -> Self {
        HeaderUniverse::new((0..16).map(|i| FlowKey::for_eval(FlowId(i))))
    }

    /// Number of flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The concrete key of a flow id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn key(&self, id: FlowId) -> &FlowKey {
        &self.keys[id.index()]
    }

    /// Materializes a header pattern's cover set over this universe.
    #[must_use]
    pub fn cover_of(&self, pattern: &HeaderPattern) -> FlowSet {
        let mut s = FlowSet::empty(self.len());
        for (i, k) in self.keys.iter().enumerate() {
            if pattern.covers(k) {
                s.insert(FlowId(i as u32));
            }
        }
        s
    }
}

/// Outcome of compiling header rules against a universe.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The materialized rule set.
    pub rules: RuleSet,
    /// Input indices of patterns that covered no flow in the universe and
    /// were dropped (harmless: such rules can never be installed).
    pub dropped: Vec<usize>,
}

/// Compiles `(pattern, priority, timeout)` triples into a model-ready
/// [`RuleSet`] over `universe`. Patterns covering no flow are dropped and
/// reported.
///
/// # Errors
///
/// Propagates [`RuleSetError`] (duplicate priorities, or every pattern
/// dropped).
pub fn compile(
    entries: &[(HeaderPattern, Priority, Timeout)],
    universe: &HeaderUniverse,
) -> Result<Compiled, RuleSetError> {
    let mut rules = Vec::new();
    let mut dropped = Vec::new();
    for (i, (pattern, priority, timeout)) in entries.iter().enumerate() {
        let cover = universe.cover_of(pattern);
        if cover.is_empty() {
            dropped.push(i);
        } else {
            rules.push(Rule::from_flow_set(cover, *priority, *timeout));
        }
    }
    Ok(Compiled {
        rules: RuleSet::new(rules, universe.len())?,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_pattern_semantics() {
        let any = FieldPattern::any();
        assert!(any.covers(0) && any.covers(u32::MAX));
        let exact = FieldPattern::exact(42);
        assert!(exact.covers(42) && !exact.covers(43));
        let pre = FieldPattern::prefix(0x0A000100, 24);
        assert!(pre.covers(0x0A000105));
        assert!(!pre.covers(0x0A000205));
        assert!(pre.overlaps(exact) == pre.covers(42) || !pre.overlaps(exact));
        assert!(any.overlaps(exact));
    }

    #[test]
    fn cidr_parsing() {
        let p = FieldPattern::parse_cidr("10.0.1.0/28").unwrap();
        assert!(p.covers((10 << 24) | (1 << 8) | 5));
        assert!(!p.covers((10 << 24) | (1 << 8) | 16));
        let host = FieldPattern::parse_cidr("10.0.1.16").unwrap();
        assert!(host.covers((10 << 24) | (1 << 8) | 16));
        assert!(!host.covers((10 << 24) | (1 << 8) | 17));
        assert!(FieldPattern::parse_cidr("10.0.1").is_err());
        assert!(FieldPattern::parse_cidr("10.0.1.299").is_err());
        assert!(FieldPattern::parse_cidr("10.0.1.0/40").is_err());
        assert!(FieldPattern::parse_cidr("10.0.x.0/8").is_err());
    }

    #[test]
    fn header_pattern_matches_fields_conjunctively() {
        let universe = HeaderUniverse::eval_sixteen_hosts();
        let pat = HeaderPattern {
            src_ip: FieldPattern::parse_cidr("10.0.1.0/30").unwrap(), // hosts 0..4
            proto: Some(Protocol::Icmp),
            ..HeaderPattern::default()
        };
        let cover = universe.cover_of(&pat);
        assert_eq!(cover.len(), 4);
        let tcp_only = HeaderPattern {
            proto: Some(Protocol::Tcp),
            ..pat
        };
        assert!(universe.cover_of(&tcp_only).is_empty());
    }

    #[test]
    fn universe_round_trips_and_dedups() {
        let k = FlowKey::for_eval(FlowId(3));
        let u = HeaderUniverse::new([k, k, FlowKey::for_eval(FlowId(5))]);
        assert_eq!(u.len(), 2);
        assert!(!u.is_empty());
        assert_eq!(*u.key(FlowId(0)), k);
        assert_eq!(*u.key(FlowId(1)), FlowKey::for_eval(FlowId(5)));
    }

    #[test]
    fn compile_materializes_and_drops_empty_patterns() {
        let universe = HeaderUniverse::eval_sixteen_hosts();
        let lo_half = HeaderPattern {
            src_ip: FieldPattern::parse_cidr("10.0.1.0/29").unwrap(),
            ..HeaderPattern::default()
        };
        let nothing = HeaderPattern {
            src_ip: FieldPattern::parse_cidr("192.168.0.0/16").unwrap(),
            ..HeaderPattern::default()
        };
        let compiled = compile(
            &[
                (lo_half, 20, Timeout::idle(10)),
                (nothing, 10, Timeout::idle(10)),
            ],
            &universe,
        )
        .unwrap();
        assert_eq!(compiled.rules.len(), 1);
        assert_eq!(compiled.dropped, vec![1]);
        assert_eq!(compiled.rules.rule(crate::RuleId(0)).covers().len(), 8);
    }

    #[test]
    fn compile_surfaces_duplicate_priorities() {
        let universe = HeaderUniverse::eval_sixteen_hosts();
        let any = HeaderPattern::default();
        let err = compile(
            &[(any, 5, Timeout::idle(3)), (any, 5, Timeout::idle(3))],
            &universe,
        )
        .unwrap_err();
        assert_eq!(err, RuleSetError::DuplicatePriority(5));
    }

    #[test]
    fn pattern_overlap_agrees_with_cover_intersection() {
        let universe = HeaderUniverse::eval_sixteen_hosts();
        let a = HeaderPattern {
            src_ip: FieldPattern::parse_cidr("10.0.1.0/30").unwrap(),
            ..HeaderPattern::default()
        };
        let b = HeaderPattern {
            src_ip: FieldPattern::parse_cidr("10.0.1.2/31").unwrap(),
            ..HeaderPattern::default()
        };
        let c = HeaderPattern {
            src_ip: FieldPattern::parse_cidr("10.0.1.8/29").unwrap(),
            ..HeaderPattern::default()
        };
        assert!(a.overlaps(&b));
        assert!(universe.cover_of(&a).intersects(&universe.cover_of(&b)));
        assert!(!a.overlaps(&c));
        assert!(!universe.cover_of(&a).intersects(&universe.cover_of(&c)));
    }

    #[test]
    fn display_is_informative() {
        let p = HeaderPattern {
            src_ip: FieldPattern::parse_cidr("10.0.1.0/28").unwrap(),
            proto: Some(Protocol::Icmp),
            ..HeaderPattern::default()
        };
        let s = p.to_string();
        assert!(s.contains("10.0.1.0/28") && s.contains("icmp"), "{s}");
    }
}
