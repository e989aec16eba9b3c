//! Quickstart: model a small switch, pick the optimal probe, and mount the
//! attack against the simulated network.
//!
//! ```sh
//! cargo run --example quickstart
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
    // A universe of 4 flows and two overlapping rules, as in the paper's
    // Figure 2c: rule0 covers {f1, f2}, rule1 covers {f1, f3}, and rule0
    // has higher priority.
    let universe = 4;
    let rules = RuleSet::new(
        vec![
            Rule::from_flow_set(
                FlowSet::from_flows(universe, [FlowId(1), FlowId(2)]),
                20,
                Timeout::idle(25),
            ),
            Rule::from_flow_set(
                FlowSet::from_flows(universe, [FlowId(1), FlowId(3)]),
                10,
                Timeout::idle(25),
            ),
        ],
        universe,
    )?;

    // Per-second Poisson rates for each flow, and the step length Δ.
    let lambdas = [0.0, 0.05, 0.02, 0.30];
    let delta = 0.02;
    let rates = FlowRates::new(&lambdas, delta);

    // The attacker wants to know: did f1 occur in the last 15 seconds?
    let target = FlowId(1);
    let horizon = (15.0 / delta) as usize;

    // 1. Build the compact Markov model of the switch (§IV-B).
    let model = CompactModel::build(&rules, &rates, 2, Evaluator::mean_field())?;
    println!(
        "compact model: {} states",
        flow_recon::model::SwitchModel::n_states(&model)
    );

    // 2. Select the probe with the largest information gain (§V).
    let planner = ProbePlanner::new(&model, target, horizon);
    let best = planner.best_probe((0..universe as u32).map(FlowId))?;
    let naive = planner.analyze(target);
    println!(
        "optimal probe: {} (info gain {:.5}); probing the target itself gains {:.5}",
        best.probe, best.info_gain, naive.info_gain
    );

    // 3. Mount the attack against a live simulated network.
    let mut sim = Simulation::new(NetConfig::eval_topology(rules, 2, delta), 7);
    let mut rng = StdRng::seed_from_u64(99);
    let schedule = poisson::schedule(&lambdas, 0.0, 15.0, &mut rng);
    for &(flow, at) in &schedule {
        sim.schedule_flow(flow, at);
    }
    sim.run_until(15.0);
    let obs = sim.probe(best.probe);
    let truth = schedule.iter().any(|&(flow, _)| flow == target);
    println!(
        "probe {} came back in {:.3} ms -> {}",
        obs.flow,
        obs.rtt * 1e3,
        if obs.hit {
            "HIT (covering rule cached)"
        } else {
            "MISS (no covering rule)"
        }
    );
    println!(
        "attacker concludes the target {}; ground truth: it {}",
        if obs.hit { "occurred" } else { "did not occur" },
        if truth { "did occur" } else { "did not occur" },
    );
    Ok(())
}
