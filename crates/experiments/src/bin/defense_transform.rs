//! **C2 (extension of §VII-B3)** — the rule-structure transformation
//! defense: greedily merge overlapping rules and measure how the rule
//! structure's information leakage (max/mean per-target probe info gain)
//! and the live attacker's accuracy change.
//!
//! Expected shape: each merge round lowers leakage and drags the model
//! attacker toward the random baseline, at the cost of coarser forwarding.

use attack::{plan_attack, scenario_net_config, AttackerKind, TrialRun};
use experiments::harness::{
    detector_plan, mean, sample_configs, sampler_for, write_csv, RunManifest, ATTEMPTS_PER_CONFIG,
};
use experiments::ExpOpts;
use flowspace::transform::{covers_preserved, merge_candidates, merge_rules};
use recon_core::leakage::measure_leakage;
use recon_core::useq::Evaluator;
use traffic::NetworkScenario;

/// Greedily merges the overlapping pair whose merge lowers mean leakage
/// the most is expensive; we use the paper-suggested simple policy of
/// merging the first overlapping candidate pair per round.
fn coarsen_once(sc: &NetworkScenario) -> Option<NetworkScenario> {
    let (a, b) = merge_candidates(&sc.rules)
        .into_iter()
        .find(|(a, b)| sc.rules.rule(*a).overlaps(sc.rules.rule(*b)))?;
    let rules = merge_rules(&sc.rules, a, b).ok()?;
    assert!(covers_preserved(&sc.rules, &rules));
    Some(NetworkScenario {
        rules,
        ..sc.clone()
    })
}

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("defense_transform");
    let manifest = RunManifest::begin("defense_transform");
    let recorder = opts.recorder();
    let rounds = 3usize;
    let kinds = [AttackerKind::Model, AttackerKind::Random];

    // leakage[r], accuracy[r][kind] across configs, per merge round r.
    let mut leakage_mean = vec![Vec::new(); rounds + 1];
    let mut leakage_max = vec![Vec::new(); rounds + 1];
    let mut acc = vec![vec![Vec::new(); kinds.len()]; rounds + 1];
    let configs = sample_configs(
        &sampler_for(&opts),
        opts.seed,
        (0.05, 0.95),
        opts.configs,
        ATTEMPTS_PER_CONFIG * opts.configs,
        |sc| detector_plan(sc, opts.policy),
    );
    let found = configs.len();
    for (i, (mut sc, _)) in configs.into_iter().enumerate() {
        for r in 0..=rounds {
            let rates = sc.rates();
            if let Ok(report) = measure_leakage(
                &sc.rules,
                &rates,
                sc.capacity,
                sc.horizon_steps(),
                Evaluator::mean_field(),
            ) {
                leakage_mean[r].push(report.mean_info_gain());
                leakage_max[r].push(report.max_info_gain());
            }
            if let Ok(plan) = plan_attack(&sc, Evaluator::mean_field()) {
                let rep = TrialRun {
                    scenario: &sc,
                    plan: &plan,
                    kinds: &kinds,
                    trials: opts.trials,
                    seed: opts.seed ^ ((i + 1) * 7 + r) as u64,
                    net: &scenario_net_config(&sc),
                    robust: None,
                }
                .run(opts.policy);
                for (k, kind) in kinds.iter().enumerate() {
                    acc[r][k].push(rep.accuracy(*kind));
                }
            }
            match coarsen_once(&sc) {
                Some(next) => sc = next,
                None => break,
            }
        }
    }
    println!("{found} detector-feasible configurations, {rounds} merge rounds\n");
    println!("round  rules-merged  leakage(mean)  leakage(max)  model-acc  random-acc");
    let mut rows = Vec::new();
    for r in 0..=rounds {
        let lm = mean(leakage_mean[r].iter().copied());
        let lx = mean(leakage_max[r].iter().copied());
        let am = mean(acc[r][0].iter().copied());
        let ar = mean(acc[r][1].iter().copied());
        println!(
            "{r:>5}  {:>12}  {lm:>13.4}  {lx:>12.4}  {am:>9.3}  {ar:>10.3}",
            r
        );
        rows.push(format!("{r},{lm},{lx},{am},{ar}"));
    }
    write_csv(
        &opts.out_file("defense_transform.csv"),
        "merge_round,leakage_mean,leakage_max,model_accuracy,random_accuracy",
        &rows,
    );
    manifest.finish(&opts, &recorder, &["defense_transform.csv"]);
}
