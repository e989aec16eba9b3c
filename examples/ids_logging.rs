//! The paper's IDS-reconnaissance scenario (§I, §III-A): an intrusion
//! detection system logs detections to a database over the SDN fabric. By
//! probing for the IDS→DB flow, the attacker learns whether its own
//! earlier activity was detected — without touching either machine.
//!
//! The IDS→DB flow shares a wildcard rule with routine backup traffic, so
//! the naive probe is ambiguous; the model picks a better probe (§III-B2).
//!
//! ```sh
//! cargo run --example ids_logging
//! ```

use flow_recon::flowspace::{FlowId, FlowSet, Rule, RuleSet, Timeout};
use flow_recon::model::compact::CompactModel;
use flow_recon::model::probe::ProbePlanner;
use flow_recon::model::useq::Evaluator;
use flow_recon::netsim::{NetConfig, Simulation};
use flow_recon::traffic::poisson;
use flowspace::relevant::FlowRates;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Flows: 0 = IDS → logging DB (the target, fires only on detections);
    //        1 = backup server → logging DB (routine, frequent);
    //        2 = admin console → IDS (sporadic).
    // Rules: a wildcard "→ DB" rule covering flows {0, 1} (low priority),
    //        a microflow rule for the IDS log flow {0} (high priority),
    //        and a rule for the admin flow {2}.
    let universe = 3;
    let delta = 0.02;
    let rules = RuleSet::new(
        vec![
            Rule::from_flow_set(
                FlowSet::from_flows(universe, [FlowId(0)]),
                30,
                Timeout::idle(40),
            ),
            Rule::from_flow_set(
                FlowSet::from_flows(universe, [FlowId(0), FlowId(1)]),
                20,
                Timeout::idle(40),
            ),
            Rule::from_flow_set(
                FlowSet::from_flows(universe, [FlowId(2)]),
                10,
                Timeout::idle(40),
            ),
        ],
        universe,
    )?;
    let lambdas = [0.03, 0.6, 0.05]; // detections are rare; backups are chatty
    let rates = FlowRates::new(&lambdas, delta);
    let target = FlowId(0);
    let window = 15.0;

    let model = CompactModel::build(&rules, &rates, 2, Evaluator::mean_field())?;
    let planner = ProbePlanner::new(&model, target, (window / delta) as usize);
    let best = planner.best_probe((0..universe as u32).map(FlowId))?;
    let naive = planner.analyze(target);
    println!(
        "prior P(no detection logged in the last {window} s) = {:.3}",
        planner.p_absent()
    );
    println!(
        "naive probe (the IDS flow itself): info gain {:.5}, P(detected | hit) = {:.3}",
        naive.info_gain, naive.p_present_given_hit
    );
    println!(
        "model-selected probe {}: info gain {:.5}, P(detected | hit) = {:.3}",
        best.probe, best.info_gain, best.p_present_given_hit
    );

    // Replay the scenario: in half the runs the IDS logged a detection.
    let mut correct = 0;
    let runs = 40;
    for run in 0..runs {
        let detected = run % 2 == 0;
        let mut sim = Simulation::new(NetConfig::eval_topology(rules.clone(), 2, delta), run);
        let mut rng = StdRng::seed_from_u64(run * 31 + 5);
        let mut lam = lambdas;
        if !detected {
            lam[0] = 0.0; // no detection traffic this run
        }
        let schedule = poisson::schedule(&lam, 0.0, window, &mut rng);
        for &(flow, at) in &schedule {
            sim.schedule_flow(flow, at);
        }
        sim.run_until(window);
        let verdict = sim.probe(best.probe).hit;
        let truth = schedule.iter().any(|&(flow, _)| flow == target);
        if verdict == truth {
            correct += 1;
        }
    }
    println!(
        "\nmodel attacker verdict accuracy over {runs} replays: {:.2}",
        correct as f64 / runs as f64
    );
    Ok(())
}
