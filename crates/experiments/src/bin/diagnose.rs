//! Diagnostic tool: sample configurations in a bin and print the §VI-B
//! filter quantities (detector conditionals, info gain, optimal-vs-target)
//! to understand acceptance rates.

use attack::plan_attack;
use experiments::harness::sampler_for;
use experiments::ExpOpts;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::useq::Evaluator;

fn main() {
    let opts = ExpOpts::from_env_without_trials();
    let sampler = sampler_for(&opts);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for &(lo, hi) in &[(0.1, 0.3), (0.45, 0.55), (0.8, 0.95)] {
        println!("--- absence bin [{lo},{hi}] ---");
        let mut detector = 0;
        let mut differs = 0;
        let n = opts.configs.max(10);
        for i in 0..n {
            let sc = sampler.sample_forced((lo, hi), &mut rng);
            let plan = plan_attack(&sc, Evaluator::mean_field()).expect("plan");
            let o = &plan.optimal;
            if o.is_detector() {
                detector += 1;
            }
            if o.probe != sc.target {
                differs += 1;
            }
            if i < 6 {
                println!(
                    "  target {} (cov {}), opt {} IG {:.4} P(hit) {:.3} P(abs|miss) {:.3} P(pres|hit) {:.3} Pabs {:.3}",
                    sc.target,
                    sc.rules.covering_count(sc.target),
                    o.probe,
                    o.info_gain,
                    o.p_hit,
                    o.p_absent_given_miss,
                    o.p_present_given_hit,
                    plan.p_absent,
                );
            }
        }
        println!("  detector-feasible: {detector}/{n}, optimal≠target: {differs}/{n}");
    }
}
