//! Rule-structure transformations (the paper's §VII-B3 defense).
//!
//! The paper proposes defending against flow reconnaissance by *merging or
//! splitting* rules — changing the granularity of the rule structure while
//! "maintaining the same functionality as the original rule policies" — and
//! notes that "our Markov model can serve as a tool to measure the
//! information leakage of the rule structure". This module provides the
//! merge, the defense the experiments evaluate; `recon-core`'s `leakage`
//! module provides the measurement.
//!
//! Since the paper's models identify a rule with the set of flows it
//! covers (§IV: "we are not concerned with the action prescribed by a
//! rule"), *functionality preservation* here means **cover preservation**:
//! every flow is covered after a transformation iff it was covered before.
//! A deployment whose rules carry distinct actions would additionally
//! require merged rules to share an action; that check belongs to the
//! policy layer above this crate.

use crate::{Rule, RuleId, RuleSet, Timeout};

/// Why a requested transformation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// A referenced rule id is out of range.
    NoSuchRule(RuleId),
    /// The two rules to merge are the same rule.
    SameRule(RuleId),
    /// The transformation would leave zero rules.
    WouldBeEmpty,
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::NoSuchRule(r) => write!(f, "no such rule: {r}"),
            TransformError::SameRule(r) => write!(f, "cannot merge {r} with itself"),
            TransformError::WouldBeEmpty => write!(f, "transformation would leave no rules"),
        }
    }
}

impl std::error::Error for TransformError {}

fn check(rules: &RuleSet, id: RuleId) -> Result<(), TransformError> {
    if id.0 < rules.len() {
        Ok(())
    } else {
        Err(TransformError::NoSuchRule(id))
    }
}

/// Merges rules `a` and `b` into one rule covering the union of their
/// covers, keeping the higher of the two priorities and the longer of the
/// two timeouts. Coarsens the structure: a probe match becomes more
/// ambiguous (more flows could have installed the merged rule).
///
/// ```
/// use flowspace::transform::{covers_preserved, merge_rules};
/// use flowspace::{FlowId, FlowSet, Rule, RuleId, RuleSet, Timeout};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rules = RuleSet::new(vec![
///     Rule::from_flow_set(FlowSet::from_flows(4, [FlowId(0)]), 2, Timeout::idle(5)),
///     Rule::from_flow_set(FlowSet::from_flows(4, [FlowId(0), FlowId(1)]), 1, Timeout::idle(9)),
/// ], 4)?;
/// let merged = merge_rules(&rules, RuleId(0), RuleId(1))?;
/// assert_eq!(merged.len(), 1);
/// assert!(covers_preserved(&rules, &merged));
/// # Ok(())
/// # }
/// ```
///
/// Cover preservation holds trivially (the union covers exactly what the
/// two rules covered). Note that *match outcomes* for flows covered by
/// rules priced between `a` and `b` can change — that is the point of the
/// defense — but reachability does not.
///
/// # Errors
///
/// [`TransformError::NoSuchRule`] / [`TransformError::SameRule`].
pub fn merge_rules(rules: &RuleSet, a: RuleId, b: RuleId) -> Result<RuleSet, TransformError> {
    check(rules, a)?;
    check(rules, b)?;
    if a == b {
        return Err(TransformError::SameRule(a));
    }
    let ra = rules.rule(a);
    let rb = rules.rule(b);
    let merged = Rule::from_flow_set(
        ra.covers().union(rb.covers()),
        ra.priority().max(rb.priority()),
        Timeout {
            kind: ra.timeout().kind,
            steps: ra.timeout().steps.max(rb.timeout().steps),
        },
    );
    let mut out: Vec<Rule> = rules
        .iter()
        .filter(|(id, _)| *id != a && *id != b)
        .map(|(_, r)| r.clone())
        .collect();
    out.push(merged);
    RuleSet::new(out, rules.universe_size()).map_err(|_| TransformError::WouldBeEmpty)
}

/// All unordered pairs of distinct rules that overlap or are adjacent in
/// priority — the natural candidates for the merging defense.
#[must_use]
pub fn merge_candidates(rules: &RuleSet) -> Vec<(RuleId, RuleId)> {
    let ids: Vec<RuleId> = rules.ids().collect();
    let mut out = Vec::new();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            if rules.rule(a).overlaps(rules.rule(b)) || b.0 == a.0 + 1 {
                out.push((a, b));
            }
        }
    }
    out
}

/// Whether two rule sets cover exactly the same flows (the preservation
/// criterion for §VII-B3 transformations).
#[must_use]
pub fn covers_preserved(before: &RuleSet, after: &RuleSet) -> bool {
    before.universe_size() == after.universe_size() && before.uncovered() == after.uncovered()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowId, FlowSet};

    fn rule(universe: usize, flows: &[u32], priority: u32, t: u32) -> Rule {
        Rule::from_flow_set(
            FlowSet::from_flows(universe, flows.iter().map(|&i| FlowId(i))),
            priority,
            Timeout::idle(t),
        )
    }

    fn base() -> RuleSet {
        RuleSet::new(
            vec![
                rule(8, &[0, 1], 30, 5),
                rule(8, &[1, 2], 20, 9),
                rule(8, &[4], 10, 7),
            ],
            8,
        )
        .unwrap()
    }

    #[test]
    fn merge_unions_covers_and_keeps_max_attributes() {
        let rules = base();
        let merged = merge_rules(&rules, RuleId(0), RuleId(1)).unwrap();
        assert_eq!(merged.len(), 2);
        assert!(covers_preserved(&rules, &merged));
        // The merged rule covers {0,1,2} with priority 30 and timeout 9.
        let m = merged.highest_covering(FlowId(2)).unwrap();
        let r = merged.rule(m);
        assert_eq!(r.covers().len(), 3);
        assert_eq!(r.priority(), 30);
        assert_eq!(r.timeout().steps, 9);
    }

    #[test]
    fn merge_rejects_identity_and_bad_ids() {
        let rules = base();
        assert_eq!(
            merge_rules(&rules, RuleId(1), RuleId(1)),
            Err(TransformError::SameRule(RuleId(1)))
        );
        assert_eq!(
            merge_rules(&rules, RuleId(0), RuleId(9)),
            Err(TransformError::NoSuchRule(RuleId(9)))
        );
    }

    #[test]
    fn merge_candidates_include_overlaps() {
        let rules = base();
        let cands = merge_candidates(&rules);
        assert!(cands.contains(&(RuleId(0), RuleId(1)))); // overlap on f1
        assert!(cands.contains(&(RuleId(1), RuleId(2)))); // priority-adjacent
                                                          // No duplicate unordered pairs.
        let set: std::collections::BTreeSet<_> = cands.iter().collect();
        assert_eq!(set.len(), cands.len());
    }

    #[test]
    fn repeated_merges_reach_one_rule() {
        let mut rules = base();
        while rules.len() > 1 {
            let (a, b) = merge_candidates(&rules)
                .first()
                .copied()
                .unwrap_or((RuleId(0), RuleId(1)));
            rules = merge_rules(&rules, a, b).unwrap();
        }
        assert_eq!(rules.len(), 1);
        // {0,1} ∪ {1,2} ∪ {4} = {0,1,2,4}.
        assert_eq!(rules.rule(RuleId(0)).covers().len(), 4);
    }
}
