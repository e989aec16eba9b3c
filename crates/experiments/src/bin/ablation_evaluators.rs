//! **A1** — evaluator ablation: how closely the scalable mean-field and
//! Monte Carlo evaluators track the exact enumeration of the §IV-B
//! most-recent-match sums, and what each costs.
//!
//! For each sampled small scenario, the full-cache states of the compact
//! model are analyzed with all three evaluators; we report the mean L1
//! error of the eviction distribution and timeout probabilities against
//! exact, plus per-state runtime.

use experiments::{ExpOpts, Run};
use flowspace::RuleId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::useq::Evaluator;
use std::time::Instant;
use traffic::ScenarioSampler;

fn main() {
    let opts = ExpOpts::from_env_without_trials();
    let mut run = Run::new("ablation_evaluators", &opts);
    let sampler = ScenarioSampler {
        bits: 3,
        n_rules: 5,
        capacity: 3,
        delta: 0.1,        // coarse steps keep TTLs small enough for exact
        ttl_max_secs: 0.8, // t_j ≤ 8 steps
        window_secs: 10.0,
        ..ScenarioSampler::default()
    };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let evaluators: Vec<(&str, Evaluator)> = vec![
        ("mean-field", Evaluator::mean_field()),
        ("mean-field-raw", Evaluator::MeanFieldRaw { iterations: 4 }),
        ("monte-carlo-2k", Evaluator::monte_carlo(2000, opts.seed)),
        ("monte-carlo-20k", Evaluator::monte_carlo(20_000, opts.seed)),
    ];
    let n_scenarios = if opts.fast { 3 } else { 10 };

    let mut err_evict = vec![0.0f64; evaluators.len()];
    let mut err_timeout = vec![0.0f64; evaluators.len()];
    let mut time_exact = 0.0f64;
    let mut times = vec![0.0f64; evaluators.len()];
    let mut states = 0usize;
    for _ in 0..n_scenarios {
        let sc = sampler.sample_forced((0.2, 0.8), &mut rng);
        let rates = sc.rates();
        // Analyze every full-capacity subset of rules.
        let ids: Vec<RuleId> = sc.rules.ids().collect();
        for mask in 0u32..(1 << ids.len()) {
            if mask.count_ones() as usize != sc.capacity {
                continue;
            }
            let cached: Vec<RuleId> = ids
                .iter()
                .filter(|r| mask & (1 << r.0) != 0)
                .copied()
                .collect();
            let t0 = Instant::now();
            let exact = Evaluator::exact().analyze(&sc.rules, &rates, &cached, true);
            time_exact += t0.elapsed().as_secs_f64();
            states += 1;
            for (i, (_, ev)) in evaluators.iter().enumerate() {
                let t1 = Instant::now();
                let approx = ev.analyze(&sc.rules, &rates, &cached, true);
                times[i] += t1.elapsed().as_secs_f64();
                err_evict[i] += exact
                    .evict
                    .iter()
                    .zip(&approx.evict)
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>();
                err_timeout[i] += exact
                    .timeout
                    .iter()
                    .zip(&approx.timeout)
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>();
            }
        }
    }
    println!("{states} full-cache states across {n_scenarios} scenarios\n");
    println!("evaluator         evict-L1   timeout-L1   time/state (µs)");
    println!(
        "{:<16}  {:>8}   {:>10}   {:>15.1}",
        "exact",
        "0",
        "0",
        time_exact / states as f64 * 1e6
    );
    let mut rows = vec![format!("exact,0,0,{}", time_exact / states as f64)];
    for (i, (name, _)) in evaluators.iter().enumerate() {
        let ee = err_evict[i] / states as f64;
        let et = err_timeout[i] / states as f64;
        let tt = times[i] / states as f64;
        println!("{name:<16}  {ee:>8.4}   {et:>10.4}   {:>15.1}", tt * 1e6);
        rows.push(format!("{name},{ee},{et},{tt}"));
    }
    run.write_csv(
        "ablation_evaluators.csv",
        "evaluator,evict_l1_per_state,timeout_l1_per_state,seconds_per_state",
        &rows,
    );
    std::process::exit(run.finish());
}
