//! Property-based tests over the core data structures and model
//! invariants.

use flow_recon::flowspace::relevant::{effective_rate, relevant_flow_ids, FlowRates};
use flow_recon::flowspace::{FlowId, FlowSet, Rule, RuleId, RuleSet, TernaryPattern, Timeout};
use flow_recon::ftcache::FlowTable;
use flow_recon::model::compact::CompactModel;
use flow_recon::model::useq::Evaluator;
use flow_recon::model::SwitchModel;
use proptest::prelude::*;

const UNIVERSE: usize = 8;

/// Strategy: a valid rule set over 8 flows with ≤ 5 rules.
fn rule_set_strategy() -> impl Strategy<Value = RuleSet> {
    let rule = (
        1u32..=255,
        1u32..=8,
        proptest::collection::btree_set(0u32..8, 1..=4),
    );
    proptest::collection::vec(rule, 1..=5).prop_filter_map("distinct priorities", |specs| {
        let mut seen = std::collections::BTreeSet::new();
        let mut rules = Vec::new();
        for (prio, timeout, flows) in specs {
            if !seen.insert(prio) {
                return None;
            }
            rules.push(Rule::from_flow_set(
                FlowSet::from_flows(UNIVERSE, flows.into_iter().map(FlowId)),
                prio,
                Timeout::idle(timeout),
            ));
        }
        RuleSet::new(rules, UNIVERSE).ok()
    })
}

/// Strategy: per-step flow rates in a sane range.
fn rates_strategy() -> impl Strategy<Value = FlowRates> {
    proptest::collection::vec(0.0f64..0.4, UNIVERSE).prop_map(FlowRates::from_per_step)
}

/// Strategy: a sequence of table events (arrival of flow i, or quiet).
fn events_strategy() -> impl Strategy<Value = Vec<Option<u32>>> {
    proptest::collection::vec(proptest::option::weighted(0.7, 0u32..8), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flow_table_invariants_hold_under_any_event_sequence(
        rules in rule_set_strategy(),
        events in events_strategy(),
        capacity in 1usize..=4,
    ) {
        let mut table = FlowTable::new(capacity);
        for ev in events {
            table.advance(ev.map(FlowId), &rules);
            // Invariant 1: never over capacity.
            prop_assert!(table.len() <= capacity);
            // Invariant 2: no duplicate rules.
            let mut seen = std::collections::BTreeSet::new();
            for e in table.entries() {
                prop_assert!(seen.insert(e.rule), "duplicate {:?}", e.rule);
                // Invariant 3: remaining time never exceeds the timeout.
                prop_assert!(e.remaining <= rules.rule(e.rule).timeout().steps);
            }
        }
    }

    #[test]
    fn covering_hit_is_highest_priority_cached_cover(
        rules in rule_set_strategy(),
        events in events_strategy(),
    ) {
        let mut table = FlowTable::new(3);
        for ev in events {
            table.advance(ev.map(FlowId), &rules);
        }
        for f in 0..UNIVERSE as u32 {
            let hit = table.covering_hit(FlowId(f), &rules);
            let expect = table
                .cached_rules()
                .filter(|&r| rules.rule(r).covers_flow(FlowId(f)))
                .min_by_key(|r| r.0);
            prop_assert_eq!(hit, expect);
        }
    }

    #[test]
    fn ternary_pattern_round_trips(bits in 1u32..=8, code in 0usize..6561) {
        let total = 3usize.pow(bits);
        let pattern = TernaryPattern::enumerate(bits).nth(code % total).unwrap();
        let s = pattern.to_string();
        let parsed: TernaryPattern = s.parse().unwrap();
        prop_assert_eq!(parsed, pattern);
        // Coverage count is 2^(#wildcards).
        let wild = bits - pattern.mask().count_ones();
        prop_assert_eq!(pattern.to_flow_set(1 << bits).len(), 1usize << wild);
    }

    #[test]
    fn relevant_flow_rates_partition_total(
        rules in rule_set_strategy(),
        rates in rates_strategy(),
        cached_mask in 0u32..32,
    ) {
        let cached: Vec<RuleId> = (0..rules.len())
            .filter(|i| cached_mask & (1 << i) != 0)
            .map(RuleId)
            .collect();
        for j in rules.ids() {
            let g = effective_rate(&rules, &rates, &cached, j);
            // The relevant flows and the rest partition the total rate.
            let rel = relevant_flow_ids(&rules, &cached, j);
            let rest = rates.sum_over(&FlowSet::full(UNIVERSE).difference(&rel));
            prop_assert!((g + rest - rates.total()).abs() < 1e-9);
            // Relevant sets stay within the rule's cover.
            prop_assert!(rel.difference(rules.rule(j).covers()).is_empty());
        }
    }

    #[test]
    fn relevant_sets_of_distinct_rules_are_disjoint(
        rules in rule_set_strategy(),
        cached_mask in 0u32..32,
    ) {
        // The model relies on per-rule arrival events partitioning the
        // covered flows: two rules' relevant sets never overlap.
        let cached: Vec<RuleId> = (0..rules.len())
            .filter(|i| cached_mask & (1 << i) != 0)
            .map(RuleId)
            .collect();
        let ids: Vec<RuleId> = rules.ids().collect();
        for (a_i, &a) in ids.iter().enumerate() {
            for &b in &ids[a_i + 1..] {
                let ra = relevant_flow_ids(&rules, &cached, a);
                let rb = relevant_flow_ids(&rules, &cached, b);
                prop_assert!(!ra.intersects(&rb), "{a} and {b} overlap");
            }
        }
    }

    #[test]
    fn compact_model_is_stochastic_for_random_inputs(
        rules in rule_set_strategy(),
        rates in rates_strategy(),
        capacity in 1usize..=3,
    ) {
        let model = CompactModel::build(&rules, &rates, capacity, Evaluator::mean_field()).unwrap();
        prop_assert!(model.matrix().is_stochastic(1e-9));
        let d = model.evolve(50);
        prop_assert!((d.total() - 1.0).abs() < 1e-9);
        // Absent matrices are substochastic for every flow.
        for f in 0..UNIVERSE as u32 {
            prop_assert!(model.absent_matrix(FlowId(f)).is_substochastic(1e-9));
        }
    }

    #[test]
    fn apply_probe_partitions_mass(
        rules in rule_set_strategy(),
        rates in rates_strategy(),
        probe in 0u32..8,
    ) {
        let model = CompactModel::build(&rules, &rates, 2, Evaluator::mean_field()).unwrap();
        let d = model.evolve(40);
        let hit = model.apply_probe(&d, FlowId(probe), true);
        let miss = model.apply_probe(&d, FlowId(probe), false);
        // Conditioning splits the mass exactly.
        prop_assert!((hit.total() + miss.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn evaluator_outputs_are_valid_distributions(
        rules in rule_set_strategy(),
        rates in rates_strategy(),
        cached_mask in 1u32..32,
    ) {
        let cached: Vec<RuleId> = (0..rules.len())
            .filter(|i| cached_mask & (1 << i) != 0)
            .map(RuleId)
            .collect();
        prop_assume!(!cached.is_empty());
        for ev in [Evaluator::mean_field(), Evaluator::monte_carlo(300, 5)] {
            let a = ev.analyze(&rules, &rates, &cached, cached.len() >= 2);
            prop_assert_eq!(a.evict.len(), cached.len());
            prop_assert!((a.evict.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for &p in &a.timeout {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
            }
        }
    }
}
