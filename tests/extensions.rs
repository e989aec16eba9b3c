//! Integration tests for the extension features: multi-probe and adaptive
//! attackers, parameter sweeps, rule transformations, leakage measurement
//! and tracing — everything beyond the paper's core evaluation loop,
//! exercised through the public API.

use flow_recon::attack::{
    plan_attack, plan_attack_full, scenario_net_config, sweep::SweepParameter, AttackPlan,
    AttackerKind, ExecPolicy, TrialReport, TrialRun,
};
use flow_recon::flowspace::transform::{covers_preserved, merge_candidates, merge_rules};
use flow_recon::ftcache::PolicyKind;
use flow_recon::model::leakage::measure_leakage;
use flow_recon::model::useq::Evaluator;
use flow_recon::netsim::Simulation;
use flow_recon::obs::{probe_ctx, FlightDump, FlightRecorder};
use flow_recon::traffic::{NetworkScenario, ScenarioSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs a batch serially on the scenario's own network.
fn run(
    sc: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
) -> TrialReport {
    TrialRun {
        scenario: sc,
        plan,
        kinds,
        trials,
        seed,
        net: &scenario_net_config(sc),
        robust: None,
    }
    .run(ExecPolicy::Serial)
}

fn scenario(seed: u64) -> NetworkScenario {
    let sampler = ScenarioSampler {
        bits: 3,
        n_rules: 6,
        capacity: 3,
        delta: 0.05,
        window_secs: 10.0,
        ..ScenarioSampler::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    sampler.sample_forced((0.3, 0.8), &mut rng)
}

#[test]
fn multi_probe_and_adaptive_attackers_run_end_to_end() {
    let sc = scenario(1);
    let plan = plan_attack_full(
        &sc,
        Evaluator::mean_field(),
        2,
        2,
        ExecPolicy::Serial,
        PolicyKind::Srt,
    )
    .unwrap();
    assert!(plan.multi.is_some() && plan.adaptive.is_some());
    let kinds = [
        AttackerKind::Model,
        AttackerKind::MultiProbe,
        AttackerKind::Adaptive,
    ];
    let report = run(&sc, &plan, &kinds, 30, 5);
    for (kind, acc) in &report.by_attacker {
        let a = acc.accuracy();
        assert!((0.0..=1.0).contains(&a), "{}: {a}", kind.name());
        assert_eq!(acc.n(), 30);
    }
}

#[test]
#[should_panic(expected = "plan lacks a multi-probe tree")]
fn multi_probe_without_plan_support_panics() {
    let sc = scenario(2);
    let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
    let _ = run(&sc, &plan, &[AttackerKind::MultiProbe], 1, 1);
}

#[test]
fn capacity_sweep_replans_each_point() {
    // Capacity reshapes the whole model (eviction pressure can cut either
    // way per scenario — the sweep_parameters experiment studies the
    // aggregate); here we verify each point is a fresh, valid plan.
    let sc = scenario(3);
    let kinds = [AttackerKind::Model, AttackerKind::Random];
    let gains: Vec<f64> = [1.0, 3.0, 6.0]
        .into_iter()
        .enumerate()
        .map(|(i, capacity)| {
            let point = SweepParameter::Capacity.apply(&sc, capacity);
            assert_eq!(point.capacity, capacity as usize);
            let plan = plan_attack(&point, Evaluator::mean_field()).unwrap();
            assert!(plan.optimal.info_gain.is_finite() && plan.optimal.info_gain >= 0.0);
            let report = run(&point, &plan, &kinds, 20, 9 ^ ((i as u64) << 8));
            for kind in kinds {
                assert!((0.0..=1.0).contains(&report.accuracy(kind)));
            }
            plan.optimal.info_gain
        })
        .collect();
    // Different capacities genuinely produce different models.
    assert!(
        gains.iter().any(|g| (g - gains[0]).abs() > 1e-12),
        "sweep should not be a no-op"
    );
}

#[test]
fn merging_rules_preserves_covers_and_lowers_mean_leakage_in_aggregate() {
    // Across several scenarios, the merge defense should not *increase*
    // total leakage (it can shuffle individual targets).
    let mut before_sum = 0.0;
    let mut after_sum = 0.0;
    for seed in 10..14 {
        let sc = scenario(seed);
        let rates = sc.rates();
        let before =
            measure_leakage(&sc.rules, &rates, sc.capacity, 100, Evaluator::mean_field()).unwrap();
        let Some(&(a, b)) = merge_candidates(&sc.rules)
            .iter()
            .find(|(a, b)| sc.rules.rule(*a).overlaps(sc.rules.rule(*b)))
        else {
            continue;
        };
        let merged = merge_rules(&sc.rules, a, b).unwrap();
        assert!(covers_preserved(&sc.rules, &merged));
        let after =
            measure_leakage(&merged, &rates, sc.capacity, 100, Evaluator::mean_field()).unwrap();
        before_sum += before.mean_info_gain();
        after_sum += after.mean_info_gain();
    }
    assert!(
        after_sum <= before_sum * 1.1,
        "merging should not inflate leakage: {before_sum} -> {after_sum}"
    );
}

#[test]
fn tracing_works_through_the_full_stack() {
    let sc = scenario(40);
    let net = flow_recon::attack::scenario_net_config(&sc);
    let mut sim = Simulation::new(net, 5);
    sim.attach_flight(FlightRecorder::enabled(), probe_ctx(0, 0, 0));
    let flow = sc.target;
    sim.schedule_flow(flow, 0.1);
    sim.run_until(1.0);
    let observed = sim.probe(flow);
    let flight = sim.take_flight();
    // The dump is a header line, then one line per retained record.
    let dump = FlightDump::parse(&flight.dump_string("full_stack")).expect("dump reads back");
    assert_eq!(dump.source, "full_stack");
    assert_eq!(dump.records.len(), flight.len());
    let delivered = dump.delivered();
    assert_eq!(delivered.len(), 1);
    let (_, b) = delivered[0];
    assert_eq!(b.rtt, Some(observed.rtt));
    assert!(b.residual().is_some_and(|r| r.abs() < 1e-9), "{b:?}");
}
