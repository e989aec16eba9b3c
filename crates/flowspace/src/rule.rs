//! Forwarding rules: coverage, priority and timeout attributes.

use crate::{FlowId, FlowSet, TernaryPattern};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a rule within its [`RuleSet`](crate::RuleSet).
///
/// Rule ids are assigned by [`RuleSet::new`](crate::RuleSet::new) in
/// *descending priority order*: `RuleId(0)` is always the highest-priority
/// rule. The Markov models rely on this for compact state encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RuleId(pub usize);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule{}", self.0)
    }
}

/// Matching precedence of a rule. Larger values win.
///
/// OpenFlow requires overlapping rules to have distinct priorities; the
/// paper strengthens this to a total order, which
/// [`RuleSet::new`](crate::RuleSet::new) enforces.
pub type Priority = u32;

/// Which OpenFlow timeout semantics a rule uses (paper §III-A, footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimeoutKind {
    /// The rule expires `steps` after it last matched a packet.
    Idle,
    /// The rule expires exactly `steps` after installation.
    Hard,
}

/// A rule's expiration policy: its kind plus duration in model steps (Δ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Timeout {
    /// Idle or hard semantics.
    pub kind: TimeoutKind,
    /// Duration in model steps; must be ≥ 1.
    pub steps: u32,
}

impl Timeout {
    /// An idle timeout of `steps` steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    #[must_use]
    pub fn idle(steps: u32) -> Self {
        assert!(steps > 0, "timeout must be at least one step");
        Timeout {
            kind: TimeoutKind::Idle,
            steps,
        }
    }

    /// A hard timeout of `steps` steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    // detlint::allow(D10): the one constructor of the hard timeouts ftcache and the models handle; tests/reachable_model.rs builds them
    #[must_use]
    pub fn hard(steps: u32) -> Self {
        assert!(steps > 0, "timeout must be at least one step");
        Timeout {
            kind: TimeoutKind::Hard,
            steps,
        }
    }
}

impl fmt::Display for Timeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TimeoutKind::Idle => write!(f, "idle:{}", self.steps),
            TimeoutKind::Hard => write!(f, "hard:{}", self.steps),
        }
    }
}

/// A forwarding rule: the set of flows it covers, its priority, and its
/// timeout.
///
/// Following the paper (§IV), the *action* a rule prescribes is irrelevant
/// to the side channel, so a rule is identified with its cover set. The
/// original ternary pattern is retained when the rule was built from one, so
/// simulators can render concrete match fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    covers: FlowSet,
    priority: Priority,
    timeout: Timeout,
    pattern: Option<TernaryPattern>,
}

impl Rule {
    /// Creates a rule from an explicit cover set.
    ///
    /// # Panics
    ///
    /// Panics if the cover set is empty — a rule that covers nothing can
    /// never be installed and would poison the models.
    #[must_use]
    pub fn from_flow_set(covers: FlowSet, priority: Priority, timeout: Timeout) -> Self {
        assert!(!covers.is_empty(), "a rule must cover at least one flow");
        Rule {
            covers,
            priority,
            timeout,
            pattern: None,
        }
    }

    /// Creates a rule covering the flows matched by `pattern` within a
    /// universe of `universe` flows.
    ///
    /// # Panics
    ///
    /// Panics if the pattern covers no flow in the universe.
    #[must_use]
    pub fn from_pattern(
        pattern: &TernaryPattern,
        universe: usize,
        priority: Priority,
        timeout: Timeout,
    ) -> Self {
        let covers = pattern.to_flow_set(universe);
        assert!(
            !covers.is_empty(),
            "pattern {pattern} covers no flow in universe of {universe}"
        );
        Rule {
            covers,
            priority,
            timeout,
            pattern: Some(*pattern),
        }
    }

    /// The set of flows this rule covers (`f ∈ rule` in the paper).
    #[must_use]
    pub fn covers(&self) -> &FlowSet {
        &self.covers
    }

    /// Whether the rule covers a specific flow.
    #[must_use]
    pub fn covers_flow(&self, f: FlowId) -> bool {
        self.covers.contains(f)
    }

    /// Matching priority.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Expiration policy.
    #[must_use]
    pub fn timeout(&self) -> Timeout {
        self.timeout
    }

    /// The ternary pattern this rule was constructed from, if any.
    #[must_use]
    pub fn pattern(&self) -> Option<&TernaryPattern> {
        self.pattern.as_ref()
    }

    /// Whether this rule overlaps another (covers a common flow).
    ///
    /// # Panics
    ///
    /// Panics if the rules range over different flow universes.
    #[must_use]
    pub fn overlaps(&self, other: &Rule) -> bool {
        self.covers.intersects(&other.covers)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.pattern {
            Some(p) => write!(f, "[{} pri={} {}]", p, self.priority, self.timeout),
            None => write!(
                f,
                "[{:?} pri={} {}]",
                self.covers, self.priority, self.timeout
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(universe: usize, ids: &[u32]) -> FlowSet {
        FlowSet::from_flows(universe, ids.iter().map(|&i| FlowId(i)))
    }

    #[test]
    fn rule_accessors() {
        let r = Rule::from_flow_set(flows(8, &[1, 2]), 7, Timeout::idle(10));
        assert!(r.covers_flow(FlowId(1)));
        assert!(!r.covers_flow(FlowId(3)));
        assert_eq!(r.priority(), 7);
        assert_eq!(r.timeout(), Timeout::idle(10));
        assert!(r.pattern().is_none());
        assert_eq!(r.covers().len(), 2);
    }

    #[test]
    fn from_pattern_retains_pattern() {
        let p = TernaryPattern::parse("0*1").unwrap();
        let r = Rule::from_pattern(&p, 8, 3, Timeout::hard(4));
        assert_eq!(r.pattern(), Some(&p));
        assert!(r.covers_flow(FlowId(0b001)));
        assert!(r.covers_flow(FlowId(0b011)));
        assert!(!r.covers_flow(FlowId(0b101)));
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_cover_set_rejected() {
        let _ = Rule::from_flow_set(FlowSet::empty(8), 1, Timeout::idle(1));
    }

    #[test]
    #[should_panic(expected = "covers no flow")]
    fn pattern_outside_universe_rejected() {
        // Pattern requires bit 3 set, but the universe only has flows 0..8.
        let p = TernaryPattern::parse("1***").unwrap();
        let _ = Rule::from_pattern(&p, 8, 1, Timeout::idle(1));
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_timeout_rejected() {
        let _ = Timeout::idle(0);
    }

    #[test]
    fn overlap_detection() {
        let a = Rule::from_flow_set(flows(8, &[1, 2]), 2, Timeout::idle(5));
        let b = Rule::from_flow_set(flows(8, &[2, 3]), 1, Timeout::idle(5));
        let c = Rule::from_flow_set(flows(8, &[4]), 3, Timeout::idle(5));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn display_contains_essentials() {
        let p = TernaryPattern::parse("01").unwrap();
        let r = Rule::from_pattern(&p, 4, 9, Timeout::hard(3));
        let s = r.to_string();
        assert!(
            s.contains("01") && s.contains("pri=9") && s.contains("hard:3"),
            "{s}"
        );
    }
}
