//! **C2 (extension of §VII-B3)** — the rule-structure transformation
//! defense: greedily merge overlapping rules and measure how the rule
//! structure's information leakage (max/mean per-target probe info gain)
//! and the live attacker's accuracy change.
//!
//! Expected shape: each merge round lowers leakage and drags the model
//! attacker toward the random baseline, at the cost of coarser forwarding.
//!
//! One cell per configuration, its merge rounds in sequence, on the
//! supervised runner, [`experiments::Run`].

use attack::{plan_attack, scenario_net_config, AttackerKind, TrialReport, TrialRun};
use experiments::harness::{mean, sample_class, ConfigClass};
use experiments::run::{complete, Run};
use flowspace::transform::{covers_preserved, merge_candidates, merge_rules};
use recon_core::leakage::measure_leakage;
use recon_core::useq::Evaluator;
use std::sync::Arc;
use traffic::NetworkScenario;

const ROUNDS: usize = 3;
const KINDS: [AttackerKind; 2] = [AttackerKind::Model, AttackerKind::Random];

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

/// One merge round of one configuration: the rule structure's (mean,
/// max) leakage and the attackers' trials, each when it could be
/// measured.
type Round = (Option<(f64, f64)>, Option<TrialReport>);

fn main() {
    Run::main("defense_transform", |run| {
        let configs = Arc::new(sample_class(
            run,
            ConfigClass::DetectorFeasible,
            (0.05, 0.95),
        ));
        println!(
            "{} detector-feasible configurations, {ROUNDS} merge rounds\n",
            configs.len()
        );
        let cells = run.grid(&configs, configs.len(), |configs, cell| {
            let (sampled, sampled_plan) = &configs[cell.unit];
            let mut sc = sampled.clone();
            let mut rounds: Vec<Round> = Vec::new();
            for r in 0..=ROUNDS {
                let leakage = measure_leakage(
                    &sc.rules,
                    &sc.rates(),
                    sc.capacity,
                    sc.horizon_steps(),
                    Evaluator::mean_field(),
                )
                .ok()
                .map(|report| (report.mean_info_gain(), report.max_info_gain()));
                // Round 0 is the sampled scenario, which the filter planned.
                let replanned = if r == 0 {
                    None
                } else {
                    plan_attack(&sc, Evaluator::mean_field()).ok()
                };
                let plan = if r == 0 {
                    Some(sampled_plan)
                } else {
                    replanned.as_ref()
                };
                let report = plan.map(|plan| {
                    cell.trials(&TrialRun {
                        scenario: &sc,
                        plan,
                        kinds: &KINDS,
                        trials: cell.opts.trials,
                        seed: cell.opts.seed ^ ((cell.unit + 1) * 7 + r) as u64,
                        net: &scenario_net_config(&sc),
                        robust: None,
                    })
                });
                rounds.push((leakage, report));
                match coarsen_once(&sc) {
                    Some(next) => sc = next,
                    None => break,
                }
            }
            rounds
        })?;

        println!("round  rules-merged  leakage(mean)  leakage(max)  model-acc  random-acc");
        let mut rows = Vec::new();
        if let Some(configs) = complete(&cells) {
            for r in 0..=ROUNDS {
                let measured: Vec<&Round> = configs.iter().filter_map(|c| c.get(r)).collect();
                let leakage = measured.iter().filter_map(|(l, _)| *l);
                let reports = measured.iter().filter_map(|(_, rep)| rep.as_ref());
                let lm = mean(leakage.clone().map(|(m, _)| m));
                let lx = mean(leakage.map(|(_, x)| x));
                let am = mean(reports.clone().map(|rep| rep.accuracy(KINDS[0])));
                let ar = mean(reports.map(|rep| rep.accuracy(KINDS[1])));
                println!("{r:>5}  {r:>12}  {lm:>13.4}  {lx:>12.4}  {am:>9.3}  {ar:>10.3}");
                rows.push(format!("{r},{lm},{lx},{am},{ar}"));
            }
        }
        run.write_csv(
            "defense_transform.csv",
            "merge_round,leakage_mean,leakage_max,model_accuracy,random_accuracy",
            &rows,
        );
        Ok(())
    })
}
