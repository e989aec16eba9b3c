//! **E2 (extension)** — robustness to rate misestimation: the paper's
//! threat model grants the attacker the true Poisson parameters λ_f
//! (§III-C), noting they "could be inferred through previous compromises
//! … or simply through knowledge of the roles of various machines". How
//! much accuracy does the model attacker lose when its λ estimates are
//! biased by ×½ / ×2, or replaced by the coarse per-rule split
//! λ_f = λ_j / |rule_j| that §IV-A1 suggests as the realistic fallback?
//!
//! One cell per (estimate × configuration) on the supervised runner,
//! [`experiments::Run`].

use attack::{plan_attack, scenario_net_config, AttackerKind, TrialRun};
use experiments::harness::{mean, sample_class, ConfigClass};
use experiments::run::{complete, Run};
use recon_core::useq::Evaluator;
use std::sync::Arc;
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

const VARIANTS: [RateVariant; 4] = [
    ("true-rates", |sc| sc.lambdas.clone()),
    ("half-rates", |sc| {
        sc.lambdas.iter().map(|l| l * 0.5).collect()
    }),
    ("double-rates", |sc| {
        sc.lambdas.iter().map(|l| l * 2.0).collect()
    }),
    ("rule-split", rule_split_estimate),
];

fn main() {
    Run::main("robustness_rates", |run| {
        let configs = Arc::new(sample_class(
            run,
            ConfigClass::DetectorFeasible,
            (0.05, 0.95),
        ));
        let n = configs.len();
        println!("{n} detector-feasible configurations\n");
        // A cell is `None` when the believed rates admit no plan;
        // otherwise whether its optimal probe matches the true plan's,
        // and the trials.
        let cells = run.grid(&configs, VARIANTS.len() * n, |configs, cell| {
            let (v, ci) = (cell.unit / configs.len(), cell.unit % configs.len());
            let (sc, true_plan) = &configs[ci];
            // The attacker *plans* with its (possibly wrong) estimates
            // but the *network* runs the true rates.
            let lambdas = (VARIANTS[v].1)(sc);
            let believed_plan;
            let plan = if lambdas == sc.lambdas {
                // The sampled scenario itself, which the filter planned.
                true_plan
            } else {
                let believed = NetworkScenario {
                    lambdas,
                    ..sc.clone()
                };
                believed_plan = plan_attack(&believed, Evaluator::mean_field()).ok()?;
                &believed_plan
            };
            let report = cell.trials(&TrialRun {
                scenario: sc, // true traffic
                plan,
                kinds: &[AttackerKind::Model],
                trials: cell.opts.trials,
                seed: cell.opts.seed ^ ((ci + 1) * 31 + v) as u64,
                net: &scenario_net_config(sc),
                robust: None,
            });
            Some((plan.optimal.probe == true_plan.optimal.probe, report))
        })?;

        println!("estimate        model-accuracy   optimal-probe agreement");
        let mut rows = Vec::new();
        for (v, (name, _)) in VARIANTS.iter().enumerate() {
            let Some(group) = complete(&cells[v * n..(v + 1) * n]) else {
                continue;
            };
            let planned = group.iter().filter_map(|c| c.as_ref());
            let a = mean(
                planned
                    .clone()
                    .map(|(_, r)| r.accuracy(AttackerKind::Model)),
            );
            let agree = planned.filter(|(same, _)| *same).count() as f64 / n.max(1) as f64;
            println!("{name:<14}  {a:>14.3}   {agree:>22.3}");
            rows.push(format!("{name},{a},{agree}"));
        }
        run.write_csv(
            "robustness_rates.csv",
            "estimate,model_accuracy,optimal_probe_agreement",
            &rows,
        );
        Ok(())
    })
}
