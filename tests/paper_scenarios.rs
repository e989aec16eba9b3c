//! The worked examples of the paper's §III-B (Figure 2), reproduced
//! end-to-end through the public API.

use flow_recon::flowspace::relevant::FlowRates;
use flow_recon::flowspace::{FlowId, FlowSet, Rule, RuleSet, Timeout};
use flow_recon::model::compact::CompactModel;
use flow_recon::model::probe::{DecisionTree, ProbePlanner};
use flow_recon::model::useq::Evaluator;
use flow_recon::netsim::{NetConfig, Simulation};

fn rule(universe: usize, flows: &[u32], priority: u32, t: u32) -> Rule {
    Rule::from_flow_set(
        FlowSet::from_flows(universe, flows.iter().map(|&i| FlowId(i))),
        priority,
        Timeout::idle(t),
    )
}

/// Figure 2a: one wildcard rule covering both the target f1 and a sibling
/// f2 — the probe cannot tell which flow installed it, so the posterior
/// after a hit reflects the rate share.
#[test]
fn fig2a_wildcard_rule_is_ambiguous() {
    let u = 3;
    let rules = RuleSet::new(vec![rule(u, &[1, 2], 10, 20)], u).unwrap();
    // The sibling f2 is much more active than the (rare) target f1, so
    // the shared rule is almost always cached thanks to f2 alone.
    let rates = FlowRates::from_per_step(vec![0.0, 0.002, 0.30]);
    let model = CompactModel::build(&rules, &rates, 1, Evaluator::exact()).unwrap();
    let planner = ProbePlanner::new(&model, FlowId(1), 300);
    let a = planner.analyze(FlowId(1));
    // A hit is mostly caused by f2: the posterior of "target occurred"
    // stays low — the attack is clouded exactly as §III-B1 warns.
    assert!(a.p_hit > 0.9, "rule almost always cached: {}", a.p_hit);
    assert!(
        a.p_present_given_hit < 0.9,
        "hit must stay ambiguous, got {}",
        a.p_present_given_hit
    );
}

/// Figure 2b: rule0 ⊂ rule1 with rule0 > rule1. Probing f1 AND f2
/// disambiguates: f1 hit + f2 miss proves rule0 cached, hence f1 occurred.
#[test]
fn fig2b_two_probes_disambiguate() {
    let u = 3;
    let rules = RuleSet::new(vec![rule(u, &[1], 20, 20), rule(u, &[1, 2], 10, 20)], u).unwrap();
    let rates = FlowRates::from_per_step(vec![0.0, 0.002, 0.25]);
    let model = CompactModel::build(&rules, &rates, 2, Evaluator::exact()).unwrap();
    let planner = ProbePlanner::new(&model, FlowId(1), 300);
    let seq = planner.analyze_sequence(&[FlowId(1), FlowId(2)]);
    let tree = DecisionTree::from_analysis(&seq);
    // f1 hit, f2 miss ⇒ rule0 in cache ⇒ f1 occurred with certainty.
    assert!(
        tree.posterior(&[true, false]) > 0.999,
        "hit+miss pins the target: {}",
        tree.posterior(&[true, false])
    );
    // f1 hit alone is ambiguous.
    let single = planner.analyze(FlowId(1));
    assert!(single.p_present_given_hit < 0.9);
    // And the sequence gains strictly more information.
    assert!(seq.info_gain > single.info_gain);
}

/// Figure 2c: rule0 covers {f1,f2}, rule1 covers {f1,f3}, rule0 > rule1.
/// The optimal probe for target f1 is f2, not f1 itself.
#[test]
fn fig2c_optimal_probe_is_not_target() {
    let u = 4;
    let rules = RuleSet::new(vec![rule(u, &[1, 2], 20, 20), rule(u, &[1, 3], 10, 20)], u).unwrap();
    let rates = FlowRates::from_per_step(vec![0.0, 0.02, 0.01, 0.20]);
    let model = CompactModel::build(&rules, &rates, 2, Evaluator::exact()).unwrap();
    let planner = ProbePlanner::new(&model, FlowId(1), 300);
    let best = planner.best_probe((0..u as u32).map(FlowId)).unwrap();
    assert_eq!(best.probe, FlowId(2), "f2 guarantees rule0 on a hit");
    assert!(best.info_gain > planner.analyze(FlowId(1)).info_gain);
}

/// Figure 2b's logic holds in the live network too: after genuine f1
/// traffic, probing f1 then f2 shows hit+miss; after only-f2 traffic, both
/// probes hit (rule1 covers both f1 and f2).
#[test]
fn fig2b_live_network_agrees() {
    let u = 3;
    let delta = 0.02;
    let rules = RuleSet::new(vec![rule(u, &[1], 20, 50), rule(u, &[1, 2], 10, 50)], u).unwrap();

    // Case 1: the target f1 genuinely occurred.
    let mut sim = Simulation::new(NetConfig::eval_topology(rules.clone(), 6, delta), 5);
    sim.schedule_flow(FlowId(1), 0.1); // installs rule0 (highest covering f1)
    sim.run_until(0.3);
    let q1 = sim.probe(FlowId(1));
    let q2 = sim.probe(FlowId(2));
    assert!(
        q1.hit && !q2.hit,
        "f1 occurred ⇒ (hit, miss), got ({}, {})",
        q1.hit,
        q2.hit
    );

    // Case 2: only the sibling f2 occurred.
    let mut sim = Simulation::new(NetConfig::eval_topology(rules, 6, delta), 6);
    sim.schedule_flow(FlowId(2), 0.1); // installs rule1, covering f1 too
    sim.run_until(0.3);
    let q1 = sim.probe(FlowId(1));
    let q2 = sim.probe(FlowId(2));
    assert!(
        q1.hit && q2.hit,
        "f2 occurred ⇒ (hit, hit), got ({}, {})",
        q1.hit,
        q2.hit
    );
}

/// §III-B3: limited cache size causes false negatives — the target's rule
/// can be evicted by later traffic, and the model expects this.
#[test]
fn eviction_causes_false_negatives_as_modeled() {
    let u = 3;
    let delta = 0.02;
    let rules = RuleSet::new(
        vec![
            rule(u, &[0], 30, 50),
            rule(u, &[1], 20, 50),
            rule(u, &[2], 10, 50),
        ],
        u,
    )
    .unwrap();
    // Capacity 1: each install evicts the previous rule.
    let mut sim = Simulation::new(NetConfig::eval_topology(rules, 1, delta), 9);
    // The target's rule is installed, then evicted by f1's.
    let schedule = [(FlowId(0), 0.1), (FlowId(1), 0.2)];
    for &(f, t) in &schedule {
        sim.schedule_flow(f, t);
    }
    sim.run_until(0.3);
    let probe = sim.probe(FlowId(0));
    assert!(!probe.hit, "target's rule was evicted: the probe must miss");
    assert!(
        schedule.iter().any(|&(f, _)| f == FlowId(0)),
        "yet the target DID occur"
    );
}
