//! **E1 (extension)** — multi-probe and adaptive attacks: how much do 2–3
//! probes (§V-B) and adaptive probing (our extension of it) add over the
//! single optimal probe?
//!
//! One cell per configuration on the supervised runner,
//! [`experiments::Run`].

use attack::{plan_attack_full, scenario_net_config, AttackerKind, TrialRun};
use experiments::ascii_bars;
use experiments::harness::{attempt_cap, mean, sampler_for};
use experiments::run::{complete, Run};
use ftcache::PolicyKind;
use recon_core::useq::Evaluator;
use std::sync::Arc;

const KINDS: [AttackerKind; 4] = [
    AttackerKind::Naive,
    AttackerKind::Model,
    AttackerKind::MultiProbe,
    AttackerKind::Adaptive,
];

fn main() {
    Run::main("multiprobe", |run| {
        let opts = run.opts;
        let configs = Arc::new(run.sample(
            &sampler_for(opts),
            (0.05, 0.95),
            opts.configs,
            attempt_cap(opts.configs),
            |sc| {
                // Three probes for the fixed sequence, depth-3 adaptive policy.
                plan_attack_full(
                    sc,
                    Evaluator::mean_field(),
                    3,
                    3,
                    opts.policy,
                    PolicyKind::Srt,
                )
                .ok()
                .filter(attack::AttackPlan::is_detector)
            },
        ));
        println!("{} detector-feasible configurations\n", configs.len());
        let cells = run.grid(&configs, configs.len(), |configs, cell| {
            let (sc, plan) = &configs[cell.unit];
            cell.trials(&TrialRun {
                scenario: sc,
                plan,
                kinds: &KINDS,
                trials: cell.opts.trials,
                seed: cell.opts.seed ^ (cell.unit + 1) as u64,
                net: &scenario_net_config(sc),
                robust: None,
            })
        })?;

        let mut rows = Vec::new();
        if let Some(reports) = complete(&cells) {
            let labels: Vec<String> = KINDS.iter().map(|k| k.name().to_string()).collect();
            let values: Vec<f64> = KINDS
                .iter()
                .map(|&k| mean(reports.iter().map(|r| r.accuracy(k))))
                .collect();
            println!("{}", ascii_bars(&labels, &[("accuracy", values.clone())]));
            rows = KINDS
                .iter()
                .zip(&values)
                .map(|(k, v)| format!("{},{v}", k.name()))
                .collect();
        }
        println!(
            "mean info gain: single probe {:.4}, adaptive-3 {:.4}",
            mean(configs.iter().map(|(_, plan)| plan.optimal.info_gain)),
            mean(
                configs
                    .iter()
                    .filter_map(|(_, plan)| plan.adaptive.as_ref())
                    .map(|adaptive| adaptive.expected_info_gain())
            ),
        );
        run.write_csv("multiprobe.csv", "attacker,accuracy", &rows);
        Ok(())
    })
}
