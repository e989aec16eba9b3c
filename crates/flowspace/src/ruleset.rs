//! Validated, priority-ordered collections of rules.

use crate::{FlowId, FlowSet, Rule, RuleId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The policy a controller deploys: a set of rules with a strict priority
/// order (the paper's `Rules`).
///
/// Construction validates the paper's structural assumptions:
///
/// * every rule's cover set ranges over the same flow universe, as a
///   bitset of exactly the words that universe needs;
/// * priorities form a **total order** (all distinct) — the paper requires
///   this so "the highest priority rule that covers f" is always unique;
/// * there is at least one rule.
///
/// Rules are stored in descending priority order, so [`RuleId`] doubles as a
/// priority rank: `RuleId(a)` outranks `RuleId(b)` iff `a < b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleSet {
    rules: Vec<Rule>,
    universe: usize,
}

/// Error constructing a [`RuleSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleSetError {
    /// No rules were supplied.
    Empty,
    /// A rule's cover set ranges over a different universe than declared.
    UniverseMismatch {
        /// Index of the offending rule in the input vector.
        input_index: usize,
        /// Universe of the offending rule's cover set.
        found: usize,
        /// Universe declared to [`RuleSet::new`].
        expected: usize,
    },
    /// A rule's cover bitset does not fit its universe (a deserialized
    /// set with missing words or bits past the universe).
    MalformedCover {
        /// Index of the offending rule in the input vector.
        input_index: usize,
    },
    /// Two rules share a priority, so `>` would not be a total order.
    DuplicatePriority(u32),
}

impl fmt::Display for RuleSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleSetError::Empty => write!(f, "rule set must contain at least one rule"),
            RuleSetError::UniverseMismatch { input_index, found, expected } => write!(
                f,
                "rule at input index {input_index} ranges over universe {found}, expected {expected}"
            ),
            RuleSetError::MalformedCover { input_index } => write!(
                f,
                "rule at input index {input_index} has a cover bitset that does not fit its universe"
            ),
            RuleSetError::DuplicatePriority(p) => {
                write!(f, "priority {p} used by more than one rule")
            }
        }
    }
}

impl std::error::Error for RuleSetError {}

impl RuleSet {
    /// Validates and priority-sorts a set of rules over a universe of
    /// `universe` flows.
    ///
    /// # Errors
    ///
    /// See [`RuleSetError`].
    pub fn new(rules: Vec<Rule>, universe: usize) -> Result<Self, RuleSetError> {
        if rules.is_empty() {
            return Err(RuleSetError::Empty);
        }
        for (i, r) in rules.iter().enumerate() {
            if r.covers().universe_size() != universe {
                return Err(RuleSetError::UniverseMismatch {
                    input_index: i,
                    found: r.covers().universe_size(),
                    expected: universe,
                });
            }
            if !r.covers().is_well_formed() {
                return Err(RuleSetError::MalformedCover { input_index: i });
            }
        }
        let mut sorted = rules;
        sorted.sort_by_key(|r| std::cmp::Reverse(r.priority()));
        for pair in sorted.windows(2) {
            if pair[0].priority() == pair[1].priority() {
                return Err(RuleSetError::DuplicatePriority(pair[0].priority()));
            }
        }
        Ok(RuleSet {
            rules: sorted,
            universe,
        })
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Always false (construction rejects empty sets); provided for API
    /// completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Size of the flow universe.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// The rule with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0]
    }

    /// All rules in descending priority order.
    #[must_use]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Iterates `(RuleId, &Rule)` in descending priority order.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules.iter().enumerate().map(|(i, r)| (RuleId(i), r))
    }

    /// All rule ids in descending priority order.
    pub fn ids(&self) -> impl Iterator<Item = RuleId> {
        (0..self.rules.len()).map(RuleId)
    }

    /// Whether rule `a` outranks rule `b` (the paper's `rule_a > rule_b`).
    #[must_use]
    pub fn outranks(&self, a: RuleId, b: RuleId) -> bool {
        a.0 < b.0
    }

    /// The highest-priority rule covering `f`, if any — the rule the
    /// controller installs on a table miss for `f` (§IV).
    #[must_use]
    pub fn highest_covering(&self, f: FlowId) -> Option<RuleId> {
        self.iter()
            .find(|(_, r)| r.covers_flow(f))
            .map(|(id, _)| id)
    }

    /// All rules covering `f`, in descending priority order.
    pub fn covering(&self, f: FlowId) -> impl Iterator<Item = RuleId> + '_ {
        self.iter()
            .filter(move |(_, r)| r.covers_flow(f))
            .map(|(id, _)| id)
    }

    /// Number of rules covering `f` (x-axis of the paper's Fig. 7a).
    #[must_use]
    pub fn covering_count(&self, f: FlowId) -> usize {
        self.covering(f).count()
    }

    /// The union of the cover sets of the given rules.
    #[must_use]
    pub fn cover_union<I: IntoIterator<Item = RuleId>>(&self, ids: I) -> FlowSet {
        let mut s = FlowSet::empty(self.universe);
        for id in ids {
            s.union_with(self.rule(id).covers());
        }
        s
    }

    /// Flows not covered by any rule (arrivals of these never change the
    /// cache in our models — the controller has no rule to install).
    #[must_use]
    pub fn uncovered(&self) -> FlowSet {
        FlowSet::full(self.universe).difference(&self.cover_union(self.ids()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timeout;

    fn rule(universe: usize, flows: &[u32], priority: u32) -> Rule {
        Rule::from_flow_set(
            FlowSet::from_flows(universe, flows.iter().map(|&i| FlowId(i))),
            priority,
            Timeout::idle(10),
        )
    }

    #[test]
    fn rules_sorted_by_descending_priority() {
        let set = RuleSet::new(
            vec![rule(8, &[0], 5), rule(8, &[1], 20), rule(8, &[2], 10)],
            8,
        )
        .unwrap();
        let prios: Vec<u32> = set.rules().iter().map(Rule::priority).collect();
        assert_eq!(prios, vec![20, 10, 5]);
        assert!(set.outranks(RuleId(0), RuleId(2)));
        assert!(!set.outranks(RuleId(2), RuleId(0)));
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(RuleSet::new(vec![], 8), Err(RuleSetError::Empty));
    }

    #[test]
    fn duplicate_priority_rejected() {
        let err = RuleSet::new(vec![rule(8, &[0], 5), rule(8, &[1], 5)], 8).unwrap_err();
        assert_eq!(err, RuleSetError::DuplicatePriority(5));
        assert!(err.to_string().contains('5'));
    }

    #[test]
    fn universe_mismatch_rejected() {
        let err = RuleSet::new(vec![rule(8, &[0], 5), rule(4, &[1], 6)], 8).unwrap_err();
        assert!(matches!(
            err,
            RuleSetError::UniverseMismatch {
                found: 4,
                expected: 8,
                ..
            }
        ));
    }

    #[test]
    fn highest_covering_respects_priority() {
        // Figure 2b of the paper: rule1 covers f1; rule2 covers f1,f2;
        // rule1 > rule2.
        let set = RuleSet::new(vec![rule(4, &[1], 20), rule(4, &[1, 2], 10)], 4).unwrap();
        assert_eq!(set.highest_covering(FlowId(1)), Some(RuleId(0)));
        assert_eq!(set.highest_covering(FlowId(2)), Some(RuleId(1)));
        assert_eq!(set.highest_covering(FlowId(3)), None);
        assert_eq!(
            set.covering(FlowId(1)).collect::<Vec<_>>(),
            vec![RuleId(0), RuleId(1)]
        );
        assert_eq!(set.covering_count(FlowId(1)), 2);
        assert_eq!(set.covering_count(FlowId(3)), 0);
    }

    #[test]
    fn cover_union_and_uncovered() {
        let set = RuleSet::new(vec![rule(4, &[0, 1], 2), rule(4, &[2], 1)], 4).unwrap();
        let all = set.cover_union(set.ids());
        assert_eq!(all.len(), 3);
        let un = set.uncovered();
        assert_eq!(un.len(), 1);
        assert!(un.contains(FlowId(3)));
    }
}
