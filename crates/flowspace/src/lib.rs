//! Flow identifiers, ternary match patterns, prioritized rules and rule-set
//! algebra for modeling SDN (OpenFlow-style) switches.
//!
//! This crate is the foundation of the ICDCS 2017 "Flow Reconnaissance via
//! Timing Attacks on SDN Switches" reproduction. It models the parts of the
//! OpenFlow data plane that matter for the attack:
//!
//! * a finite *flow universe* of flow identifiers ([`FlowId`]) — in the
//!   paper's evaluation, 16 flows distinguished by their source IP address;
//! * *rules* ([`Rule`]) that each cover a set of flows ([`FlowSet`]), carry a
//!   strict [`Priority`], and expire after a [`Timeout`];
//! * TCAM-style *ternary patterns* ([`TernaryPattern`]) from which wildcard
//!   rules are built (each bit is `0`, `1` or "don't care" — the paper's "81
//!   possible rules (involving up to 4-bit masks)" are exactly the 3⁴
//!   ternary patterns over 4 bits);
//! * a validated, priority-ordered [`RuleSet`], plus the *relevant flow
//!   identifier* computations of the paper's §IV-A1 (see [`relevant`]).
//!
//! # Example
//!
//! ```
//! use flowspace::{FlowId, Rule, RuleSet, TernaryPattern, Timeout};
//!
//! # fn main() -> Result<(), flowspace::RuleSetError> {
//! // A universe of 4 flows, with two overlapping rules: rule 0 covers flow
//! // 0b01 only; rule 1 covers both 0b00 and 0b01 via a wildcard on bit 1.
//! let exact = TernaryPattern::parse("01").unwrap();
//! let wild = TernaryPattern::parse("0*").unwrap();
//! let rules = vec![
//!     Rule::from_pattern(&exact, 4, 20, Timeout::idle(10)),
//!     Rule::from_pattern(&wild, 4, 10, Timeout::idle(5)),
//! ];
//! let set = RuleSet::new(rules, 4)?;
//! assert_eq!(set.highest_covering(FlowId(0b01)), Some(flowspace::RuleId(0)));
//! assert_eq!(set.highest_covering(FlowId(0b00)), Some(flowspace::RuleId(1)));
//! assert_eq!(set.highest_covering(FlowId(0b10)), None);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod flowset;
pub mod header;
mod pattern;
pub mod relevant;
mod rule;
mod ruleset;
pub mod transform;

pub use flow::{FlowId, FlowKey, Protocol};
pub use flowset::FlowSet;
pub use pattern::{PatternParseError, TernaryPattern};
pub use rule::{Priority, Rule, RuleId, Timeout, TimeoutKind};
pub use ruleset::{RuleSet, RuleSetError};
