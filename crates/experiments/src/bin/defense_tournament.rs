//! **E5 (extension)** — the cache-policy defense tournament: can a switch
//! blunt flow reconnaissance by running a different eviction policy than
//! the one the attacker models?
//!
//! The grid crosses the switch's *actual* eviction policy
//! ([`ftcache::PolicyKind::all`]: SRT, LRU, FDRC) with the attacker's
//! *assumed* policy — either the paper's SRT assumption or a matched
//! model built with [`attack::plan_attack_full`] against the true policy
//! — under increasing uniform fault rates. Every cell reports both sides
//! of the trade:
//!
//! * **cache metrics** — ingress hit rate and controller load (misses +
//!   uncovered packets), the operational cost of the policy itself;
//! * **recon metrics** — per-attacker accuracy over answered questions
//!   and the answer rate under the robust probe loop.
//!
//! A policy is a useful defense exactly when it cuts the SRT-assuming
//! attacker's accuracy without surrendering hit rate; the `assumed`
//! column shows how much of that protection survives an attacker who
//! re-models the true policy.
//!
//! The grid has one cell per (policy × assumption × fault rate ×
//! configuration) and runs, like every trial-running program, through
//! the supervised runner ([`experiments::Run`]): `--checkpoint-every N`
//! periodically persists completed cells to
//! `<out>/defense_tournament.ckpt.jsonl`, `--resume` continues a killed
//! run to byte-identical CSVs, and SIGINT/SIGTERM write the rows of every
//! fully completed (policy, assumption, rate) group plus an
//! `interrupted` manifest (exit code 130).

use attack::{plan_attack_full, scenario_net_config, AttackPlan, ProbePolicy, TrialRun};
use experiments::harness::{attempt_cap, config_seed, mean, sampler_for, ATTACKERS};
use experiments::run::{complete, Run};
use experiments::svg;
use experiments::sweeps::Assumed;
use ftcache::PolicyKind;
use recon_core::useq::Evaluator;
use std::sync::Arc;

/// The plans of one sampled configuration, one per assumed policy,
/// parallel to [`PolicyKind::all`].
fn plan_for(plans: &[AttackPlan], policy: PolicyKind) -> &AttackPlan {
    let i = PolicyKind::all()
        .iter()
        .position(|&p| p == policy)
        .expect("every policy has a prebuilt plan");
    &plans[i]
}

fn main() {
    Run::main("defense_tournament", |run| {
        let opts = run.opts;
        let rates: Vec<f64> = if opts.fast {
            vec![0.0, 0.1]
        } else {
            vec![0.0, 0.05, 0.15]
        };

        // Sample the configuration set once; every (policy, assumption,
        // rate) cell then re-runs the *same* scenarios, so columns are
        // comparable. Feasibility is gated on the SRT plan — the paper's
        // baseline — and a plan is prebuilt against every policy the
        // attacker might assume. The paper's operating point (capacity 6
        // of 12 rules, λ ≤ 1/s, sub-second TTLs) almost never fills the
        // table, which would make every eviction policy trivially
        // equivalent. Halving capacity and doubling traffic creates
        // genuine eviction pressure — the regime where the policy choice
        // is a live defense decision.
        let mut sampler = sampler_for(opts);
        sampler.capacity = (sampler.capacity / 2).max(2);
        sampler.lambda_max *= 2.0;
        let configs = run.sample(
            &sampler,
            (0.2, 0.8),
            opts.configs,
            attempt_cap(opts.configs),
            |sc| {
                let plans: Vec<AttackPlan> = PolicyKind::all()
                    .iter()
                    .map(|&assumed| {
                        plan_attack_full(sc, Evaluator::mean_field(), 0, 0, opts.policy, assumed)
                            .ok()
                    })
                    .collect::<Option<_>>()?;
                plans[0].is_detector().then_some(plans)
            },
        );
        println!("{} detector-feasible configurations\n", configs.len());
        println!(
            "policy  assumed  rate   attacker   accuracy   answer-rate   hit-rate   ctrl-load/trial"
        );

        // For an SRT switch the matched attacker *is* the SRT attacker;
        // skip the duplicate cell.
        let combos: Vec<(PolicyKind, Assumed)> = PolicyKind::all()
            .into_iter()
            .flat_map(|actual| [(actual, Assumed::Srt), (actual, Assumed::Matched)])
            .filter(|&(actual, assumed)| actual != PolicyKind::Srt || assumed == Assumed::Srt)
            .collect();

        let (n_configs, n_rates) = (configs.len(), rates.len());
        let ctx = Arc::new((configs, rates.clone(), combos.clone()));
        let units = combos.len() * n_rates * n_configs;
        let cells = run.grid(&ctx, units, |(configs, rates, combos), cell| {
            let ci = cell.unit % configs.len();
            let ri = (cell.unit / configs.len()) % rates.len();
            let (actual, assumed) = combos[cell.unit / (configs.len() * rates.len())];
            let (scenario, plans) = &configs[ci];
            let mut net = scenario_net_config(scenario);
            net.policy = actual;
            net.faults = netsim::FaultPlan::uniform(rates[ri]);
            cell.trials(&TrialRun {
                scenario,
                plan: plan_for(plans, assumed.policy(actual)),
                kinds: &ATTACKERS,
                trials: cell.opts.trials,
                seed: config_seed(cell.opts.seed, ci),
                net: &net,
                robust: Some(&ProbePolicy::default()),
            })
        })?;

        // One row group per (policy, assumption, rate) whose cells all
        // completed.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut acc_series: Vec<(&str, Vec<f64>)> =
            ATTACKERS.iter().map(|k| (k.name(), vec![])).collect();
        let batch_trials = (n_configs * opts.trials).max(1) as f64;
        for (combo_i, &(actual, assumed)) in combos.iter().enumerate() {
            for (ri, &rate) in rates.iter().enumerate() {
                let start = (combo_i * n_rates + ri) * n_configs;
                let Some(group) = complete(&cells[start..start + n_configs]) else {
                    continue;
                };
                labels.push(format!("{actual}/{}@{rate:.2}", assumed.name()));
                for (&k, (_, series)) in ATTACKERS.iter().zip(&mut acc_series) {
                    let a = mean(group.iter().map(|r| r.accuracy(k)).filter(|v| !v.is_nan()));
                    let ar = mean(group.iter().map(|r| r.answer_rate(k)));
                    let mut s = netsim::SwitchStats::default();
                    for report in &group {
                        s.merge(report.cache_stats(k));
                    }
                    let hit_rate = s.hit_rate().unwrap_or(f64::NAN);
                    let load_per_trial = s.controller_load() as f64 / batch_trials;
                    println!(
                        "{actual:<7} {:<8} {rate:<5.2}  {:<9}  {a:>8.3}   {ar:>11.3}   {hit_rate:>8.3}   {load_per_trial:>15.2}",
                        assumed.name(),
                        k.name(),
                    );
                    rows.push(format!(
                        "{actual},{},{rate},{},{n_configs},{a},{ar},{hit_rate},{load_per_trial},{},{},{},{}",
                        assumed.name(),
                        k.name(),
                        s.hits,
                        s.misses,
                        s.uncovered,
                        s.evictions
                    ));
                    series.push(a);
                }
            }
        }
        run.write_csv(
            "defense_tournament.csv",
            "policy,assumed,fault_rate,attacker,configs,accuracy,answer_rate,hit_rate,controller_load_per_trial,hits,misses,uncovered,evictions",
            &rows,
        );
        run.write_file(
            "defense_tournament.svg",
            svg::grouped_bars(
                "Attack accuracy vs. eviction policy (actual/assumed @ fault rate)",
                &labels,
                &acc_series,
                "accuracy",
            ),
        );
        Ok(())
    })
}
