//! **E2 (extension)** — robustness to rate misestimation: the paper's
//! threat model grants the attacker the true Poisson parameters λ_f
//! (§III-C), noting they "could be inferred through previous compromises
//! … or simply through knowledge of the roles of various machines". How
//! much accuracy does the model attacker lose when its λ estimates are
//! biased by ×½ / ×2, or replaced by the coarse per-rule split
//! λ_f = λ_j / |rule_j| that §IV-A1 suggests as the realistic fallback?

use attack::{plan_attack, scenario_net_config, AttackerKind, TrialRun};
use experiments::harness::{
    detector_plan, mean, sample_configs, sampler_for, write_csv, RunManifest, ATTEMPTS_PER_CONFIG,
};
use experiments::ExpOpts;
use recon_core::useq::Evaluator;
use traffic::NetworkScenario;

/// The §IV-A1 fallback: the attacker knows each *rule's* total match rate
/// (e.g. from OpenFlow counters) and splits it evenly across the rule's
/// flows.
fn rule_split_estimate(sc: &NetworkScenario) -> Vec<f64> {
    let per_rule = traffic::estimate::rule_rates(&sc.rules, &sc.lambdas);
    traffic::estimate::rule_split(&sc.rules, &per_rule)
}

/// A labeled way of deriving the attacker's believed rates from the truth.
type RateVariant = (&'static str, fn(&NetworkScenario) -> Vec<f64>);

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("robustness_rates");
    let manifest = RunManifest::begin("robustness_rates");
    let recorder = opts.recorder();
    let variants: [RateVariant; 4] = [
        ("true-rates", |sc| sc.lambdas.clone()),
        ("half-rates", |sc| {
            sc.lambdas.iter().map(|l| l * 0.5).collect()
        }),
        ("double-rates", |sc| {
            sc.lambdas.iter().map(|l| l * 2.0).collect()
        }),
        ("rule-split", rule_split_estimate),
    ];
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut probe_agree = vec![0usize; variants.len()];
    let configs = sample_configs(
        &sampler_for(&opts),
        opts.seed,
        (0.05, 0.95),
        opts.configs,
        ATTEMPTS_PER_CONFIG * opts.configs,
        |sc| detector_plan(sc, opts.policy),
    );
    let found = configs.len();
    for (i, (sc, true_plan)) in configs.iter().enumerate() {
        let net = scenario_net_config(sc);
        for (v, (_, estimate)) in variants.iter().enumerate() {
            // The attacker *plans* with its (possibly wrong) estimates but
            // the *network* runs the true rates.
            let believed = NetworkScenario {
                lambdas: estimate(sc),
                ..sc.clone()
            };
            let Ok(plan) = plan_attack(&believed, Evaluator::mean_field()) else {
                continue;
            };
            if plan.optimal.probe == true_plan.optimal.probe {
                probe_agree[v] += 1;
            }
            let report = TrialRun {
                scenario: sc, // true traffic
                plan: &plan,
                kinds: &[AttackerKind::Model],
                trials: opts.trials,
                seed: opts.seed ^ ((i + 1) * 31 + v) as u64,
                net: &net,
                robust: None,
            }
            .run(opts.policy);
            acc[v].push(report.accuracy(AttackerKind::Model));
        }
    }
    println!("{found} detector-feasible configurations\n");
    println!("estimate        model-accuracy   optimal-probe agreement");
    let mut rows = Vec::new();
    for (v, (name, _)) in variants.iter().enumerate() {
        let a = mean(acc[v].iter().copied());
        let agree = probe_agree[v] as f64 / found.max(1) as f64;
        println!("{name:<14}  {a:>14.3}   {agree:>22.3}");
        rows.push(format!("{name},{a},{agree}"));
    }
    write_csv(
        &opts.out_file("robustness_rates.csv"),
        "estimate,model_accuracy,optimal_probe_agreement",
        &rows,
    );
    manifest.finish(&opts, &recorder, &["robustness_rates.csv"]);
}
