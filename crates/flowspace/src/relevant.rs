//! Relevant flow identifiers and effective arrival rates (paper §IV-A1).
//!
//! Given a cache state (the set of cached rules), the *relevant flow
//! identifiers* for a rule are those whose arrival would actually be matched
//! to (if cached) or trigger installation of (if not cached) that rule —
//! i.e. the flows not superseded by other cached rules or by higher-priority
//! uncached rules. Summing the per-flow Poisson rates over that set gives
//! the *effective rate* γ of the paper, from which all Markov transition
//! probabilities derive.

use crate::{FlowId, FlowSet, RuleId, RuleSet};
use serde::{Deserialize, Serialize};

/// Per-flow Poisson arrival rates, pre-scaled by the step length Δ.
///
/// `rate(f)` is `λ_f · Δ`: the expected number of arrivals of flow `f` in
/// one model step. The paper assumes the attacker knows (or can estimate)
/// these (§IV-A1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowRates {
    per_step: Vec<f64>,
}

impl FlowRates {
    /// Builds per-step rates from per-second rates `lambda` and a step
    /// length `delta` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not strictly positive and finite, or if any rate
    /// is negative or non-finite.
    #[must_use]
    pub fn new(lambda: &[f64], delta: f64) -> Self {
        assert!(
            delta > 0.0 && delta.is_finite(),
            "delta must be positive and finite"
        );
        Self::from_per_step(lambda.iter().map(|&l| l * delta).collect())
    }

    /// Builds from already-scaled per-step rates (`λ_f · Δ`).
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or non-finite.
    #[must_use]
    pub fn from_per_step(per_step: Vec<f64>) -> Self {
        for (i, &r) in per_step.iter().enumerate() {
            assert!(
                r >= 0.0 && r.is_finite(),
                "rate for flow {i} is invalid: {r}"
            );
        }
        FlowRates { per_step }
    }

    /// Number of flows in the universe.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.per_step.len()
    }

    /// The per-step rate `λ_f · Δ` of one flow.
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside the universe.
    #[must_use]
    pub fn rate(&self, f: FlowId) -> f64 {
        self.per_step[f.index()]
    }

    /// Total per-step rate over the whole universe.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.per_step.iter().sum()
    }

    /// Sum of per-step rates over a set of flows.
    ///
    /// # Panics
    ///
    /// Panics if the set's universe does not match.
    #[must_use]
    pub fn sum_over(&self, set: &FlowSet) -> f64 {
        assert_eq!(
            set.universe_size(),
            self.per_step.len(),
            "universe mismatch"
        );
        set.iter().map(|f| self.per_step[f.index()]).sum()
    }
}

/// The relevant flow identifiers `flowIds_ℓ(j)` for rule `j` given the set
/// of cached rules (paper §IV-A1).
///
/// * If `j` is cached: the flows of `j` not covered by any **other cached**
///   rule of higher priority (those would match that rule instead).
/// * If `j` is not cached: the flows of `j` covered neither by **any cached
///   rule** (which would absorb the arrival) nor by a **higher-priority
///   uncached rule** (whose installation would be triggered instead).
///
/// # Panics
///
/// Panics if any id is out of range for `rules`.
#[must_use]
pub fn relevant_flow_ids(rules: &RuleSet, cached: &[RuleId], j: RuleId) -> FlowSet {
    let mut out = rules.rule(j).covers().clone();
    if cached.contains(&j) {
        for &j2 in cached {
            if j2 != j && rules.outranks(j2, j) {
                out.difference_with(rules.rule(j2).covers());
            }
        }
    } else {
        for &j2 in cached {
            out.difference_with(rules.rule(j2).covers());
        }
        for j2 in rules.ids() {
            if rules.outranks(j2, j) && !cached.contains(&j2) {
                out.difference_with(rules.rule(j2).covers());
            }
        }
    }
    out
}

/// The effective per-step rate `γ_{ℓ,j}` for rule `j` in the given cache
/// state: the summed rates of its relevant flows.
#[must_use]
pub fn effective_rate(rules: &RuleSet, rates: &FlowRates, cached: &[RuleId], j: RuleId) -> f64 {
    rates.sum_over(&relevant_flow_ids(rules, cached, j))
}

/// The rate `Γ_{ℓ,j}` of flows *irrelevant* to rule `j` in the given cache
/// state (the paper sums over the full flow universe).
#[must_use]
pub fn irrelevant_rate(rules: &RuleSet, rates: &FlowRates, cached: &[RuleId], j: RuleId) -> f64 {
    (rates.total() - effective_rate(rules, rates, cached, j)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rule, Timeout};

    fn rule(universe: usize, flows: &[u32], priority: u32) -> Rule {
        Rule::from_flow_set(
            FlowSet::from_flows(universe, flows.iter().map(|&i| FlowId(i))),
            priority,
            Timeout::idle(10),
        )
    }

    /// Figure 2c of the paper: rule0 covers {f1,f2}, rule1 covers {f1,f3},
    /// rule0 > rule1.
    fn fig2c() -> RuleSet {
        RuleSet::new(vec![rule(4, &[1, 2], 20), rule(4, &[1, 3], 10)], 4).unwrap()
    }

    #[test]
    fn rates_basics() {
        let r = FlowRates::new(&[0.5, 1.0, 0.0], 0.02);
        assert_eq!(r.universe_size(), 3);
        assert!((r.rate(FlowId(0)) - 0.01).abs() < 1e-12);
        assert!((r.total() - 0.03).abs() < 1e-12);
        let s = FlowSet::from_flows(3, [FlowId(0), FlowId(2)]);
        assert!((r.sum_over(&s) - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn negative_rate_rejected() {
        let _ = FlowRates::from_per_step(vec![-0.1]);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn zero_delta_rejected() {
        let _ = FlowRates::new(&[0.1], 0.0);
    }

    #[test]
    fn cached_rule_excludes_higher_priority_cached_overlap() {
        let rules = fig2c();
        // Both cached: relevant flows of the lower-priority rule1 exclude f1
        // (matched by rule0 instead).
        let rel = relevant_flow_ids(&rules, &[RuleId(0), RuleId(1)], RuleId(1));
        assert!(!rel.contains(FlowId(1)));
        assert!(rel.contains(FlowId(3)));
        // The higher-priority rule0 keeps its full cover.
        let rel0 = relevant_flow_ids(&rules, &[RuleId(0), RuleId(1)], RuleId(0));
        assert!(rel0.contains(FlowId(1)) && rel0.contains(FlowId(2)));
    }

    #[test]
    fn cached_rule_keeps_flows_covered_by_lower_priority_cached_rules() {
        let rules = fig2c();
        // Only the higher-priority rule matters; a cached lower-priority
        // overlap does not remove flows from rule0.
        let rel0 = relevant_flow_ids(&rules, &[RuleId(1), RuleId(0)], RuleId(0));
        assert_eq!(rel0.len(), 2);
    }

    #[test]
    fn uncached_rule_excludes_all_cached_covers() {
        let rules = fig2c();
        // rule1 uncached while rule0 cached: f1 hits rule0, so only f3 can
        // install rule1.
        let rel = relevant_flow_ids(&rules, &[RuleId(0)], RuleId(1));
        assert_eq!(rel, FlowSet::from_flows(4, [FlowId(3)]));
    }

    #[test]
    fn uncached_rule_excludes_higher_priority_uncached_covers() {
        let rules = fig2c();
        // Nothing cached: f1 would install rule0 (higher priority), so only
        // f3 is relevant for rule1.
        let rel = relevant_flow_ids(&rules, &[], RuleId(1));
        assert_eq!(rel, FlowSet::from_flows(4, [FlowId(3)]));
        // rule0 is relevant for both of its flows.
        let rel0 = relevant_flow_ids(&rules, &[], RuleId(0));
        assert_eq!(rel0.len(), 2);
    }

    #[test]
    fn effective_and_irrelevant_rates_partition_total() {
        let rules = fig2c();
        let rates = FlowRates::from_per_step(vec![0.01, 0.02, 0.03, 0.04]);
        for cached in [vec![], vec![RuleId(0)], vec![RuleId(0), RuleId(1)]] {
            for j in rules.ids() {
                let g = effective_rate(&rules, &rates, &cached, j);
                let big = irrelevant_rate(&rules, &rates, &cached, j);
                assert!((g + big - rates.total()).abs() < 1e-12);
            }
        }
    }
}
