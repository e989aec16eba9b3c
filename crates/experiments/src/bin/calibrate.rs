//! Calibration tool: wall-clock cost of each pipeline stage at the
//! paper's evaluation scale (|Rules| = 12, n = 6, 16 flows, T = 15 s).
//!
//! Run before choosing `--configs`/`--trials` for the figure binaries.

use attack::{plan_attack, scenario_net_config, AttackerKind, TrialRun};
use experiments::harness::sampler_for;
use experiments::ExpOpts;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::useq::Evaluator;
use std::time::Instant;

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("calibrate");
    let sampler = sampler_for(&opts);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let scenario = sampler.sample_forced((0.3, 0.7), &mut rng);
    println!(
        "scenario: |Rules|={} n={} universe={} T={} steps (Δ={})",
        scenario.rules.len(),
        scenario.capacity,
        scenario.rules.universe_size(),
        scenario.horizon_steps(),
        scenario.delta
    );

    {
        use recon_core::compact::CompactModel;
        use recon_core::probe::ProbePlanner;
        let rates = scenario.rates();
        let tb = Instant::now();
        let model = CompactModel::build(
            &scenario.rules,
            &rates,
            scenario.capacity,
            Evaluator::mean_field(),
        )
        .expect("model");
        println!(
            "  [breakdown] model build: {:?} ({} states)",
            tb.elapsed(),
            model.n_states()
        );
        let tp = Instant::now();
        let planner = ProbePlanner::new(&model, scenario.target, scenario.horizon_steps());
        println!(
            "  [breakdown] planner (2 matrix powers): {:?}",
            tp.elapsed()
        );
        let ts = Instant::now();
        let _ = planner.best_probe(scenario.all_flows());
        println!("  [breakdown] best_probe scan: {:?}", ts.elapsed());
    }

    let t0 = Instant::now();
    let plan = plan_attack(&scenario, Evaluator::mean_field()).expect("plan");
    println!(
        "plan_attack (mean-field model + probe selection): {:?}",
        t0.elapsed()
    );
    println!(
        "  optimal probe {} (IG {:.4}), naive IG {:.4}, P(absent) {:.3}",
        plan.optimal.probe, plan.optimal.info_gain, plan.naive.info_gain, plan.p_absent
    );

    let t1 = Instant::now();
    let report = TrialRun {
        scenario: &scenario,
        plan: &plan,
        kinds: &[
            AttackerKind::Naive,
            AttackerKind::Model,
            AttackerKind::Random,
        ],
        trials: opts.trials,
        seed: opts.seed,
        net: &scenario_net_config(&scenario),
        robust: None,
    }
    .run(opts.policy);
    println!("{} trials x 3 attackers: {:?}", opts.trials, t1.elapsed());
    for (k, acc) in &report.by_attacker {
        println!("  {:<18} accuracy {:.3}", k.name(), acc.accuracy());
    }
    println!("  base rate present: {:.3}", report.base_rate_present);
}
