//! Estimating per-flow Poisson rates — the attacker's side of §III-C /
//! §IV-A1.
//!
//! The paper grants the attacker knowledge of each λ_f, noting that "more
//! realistically, the attacker might only be able to estimate λ_f from a
//! known rate λ_j of covering rule rule_j, e.g., by setting
//! λ_f = λ_j / |rule_j|". That estimator lives here; the
//! `robustness_rates` experiment quantifies its impact on attack
//! accuracy.

use flowspace::{FlowId, RuleSet};

/// Aggregates true per-flow rates into per-rule match rates: each flow
/// contributes to its highest-priority covering rule (the rule its misses
/// would install / its packets would match in a full cache) — what a
/// rule-level counter (e.g. OpenFlow statistics) would expose.
///
/// # Panics
///
/// Panics if `lambdas` does not cover the rule set's universe.
#[must_use]
pub fn rule_rates(rules: &RuleSet, lambdas: &[f64]) -> Vec<f64> {
    assert_eq!(lambdas.len(), rules.universe_size(), "universe mismatch");
    let mut out = vec![0.0f64; rules.len()];
    for (i, &l) in lambdas.iter().enumerate() {
        if let Some(rule) = rules.highest_covering(FlowId(i as u32)) {
            out[rule.0] += l;
        }
    }
    out
}

/// The paper's §IV-A1 fallback: split each rule's known rate evenly over
/// the flows it covers, `λ_f = λ_j / |rule_j|`, attributing each flow to
/// its highest-priority covering rule. Uncovered flows get rate 0.
///
/// # Panics
///
/// Panics if `per_rule` does not have one rate per rule.
#[must_use]
pub fn rule_split(rules: &RuleSet, per_rule: &[f64]) -> Vec<f64> {
    assert_eq!(per_rule.len(), rules.len(), "one rate per rule required");
    let mut out = vec![0.0f64; rules.universe_size()];
    for (i, o) in out.iter_mut().enumerate() {
        if let Some(rule) = rules.highest_covering(FlowId(i as u32)) {
            *o = per_rule[rule.0] / rules.rule(rule).covers().len() as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::{FlowSet, Rule, Timeout};

    fn rules() -> RuleSet {
        // rule0 covers {0} (pri 20); rule1 covers {0,1,2} (pri 10). Flow 3
        // uncovered.
        RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(4, [FlowId(0)]), 20, Timeout::idle(5)),
                Rule::from_flow_set(
                    FlowSet::from_flows(4, [FlowId(0), FlowId(1), FlowId(2)]),
                    10,
                    Timeout::idle(5),
                ),
            ],
            4,
        )
        .unwrap()
    }

    #[test]
    fn rule_rates_attribute_to_highest_covering() {
        let rules = rules();
        let lambdas = [0.4, 0.3, 0.2, 0.9];
        let rr = rule_rates(&rules, &lambdas);
        // f0 hits rule0; f1, f2 hit rule1; f3 uncovered.
        assert!((rr[0] - 0.4).abs() < 1e-12);
        assert!((rr[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rule_split_spreads_rates_evenly() {
        let rules = rules();
        let est = rule_split(&rules, &[0.4, 0.6]);
        // f0's highest rule is rule0 (covers 1 flow): gets 0.4 whole.
        assert!((est[0] - 0.4).abs() < 1e-12);
        // f1, f2's highest rule is rule1 (covers 3 flows): 0.6/3 each.
        assert!((est[1] - 0.2).abs() < 1e-12);
        assert!((est[2] - 0.2).abs() < 1e-12);
        assert_eq!(est[3], 0.0);
    }

    #[test]
    fn round_trip_preserves_totals_for_disjoint_rules() {
        // With disjoint covers, rates -> rule_rates -> rule_split
        // preserves each rule's total (the paper's λ_f = λ_j/|rule_j|
        // split loses mass only when covers overlap, because lower-priority
        // rules still divide by their full cover size).
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(
                    FlowSet::from_flows(4, [FlowId(0), FlowId(1)]),
                    2,
                    Timeout::idle(5),
                ),
                Rule::from_flow_set(FlowSet::from_flows(4, [FlowId(2)]), 1, Timeout::idle(5)),
            ],
            4,
        )
        .unwrap();
        let lambdas = [0.4, 0.3, 0.2, 0.9];
        let split = rule_split(&rules, &rule_rates(&rules, &lambdas));
        let covered_true: f64 = lambdas[..3].iter().sum();
        let covered_split: f64 = split[..3].iter().sum();
        assert!((covered_true - covered_split).abs() < 1e-12);
        // Within rule0's cover the split is even.
        assert!((split[0] - 0.35).abs() < 1e-12);
        assert!((split[1] - 0.35).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn rule_rates_checks_universe() {
        let _ = rule_rates(&rules(), &[0.1; 3]);
    }
}
