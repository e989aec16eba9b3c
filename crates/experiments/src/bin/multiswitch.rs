//! **E3 (extension of §VII-A)** — the multi-switch surface: the paper
//! models a single reactive switch and keeps the rest of the fabric
//! proactive (its pre-installed path rules). What happens to the attack
//! when *transit* switches also install rules reactively?
//!
//! A probe that hits at the ingress can still pay rule-setup delays at a
//! cold transit switch, pushing its RTT over the threshold and flipping
//! the attacker's reading of `Q_f` — the single-switch model no longer
//! matches the network it is probing.
//!
//! One cell per (fabric × configuration) on the supervised runner,
//! [`experiments::Run`].

use attack::{scenario_net_config, TrialRun};
use experiments::ascii_bars;
use experiments::harness::{mean, sample_class, ConfigClass, ATTACKERS};
use experiments::run::{complete, Run};
use std::sync::Arc;

/// The fabrics compared: whether transit switches install reactively.
const FABRICS: [(&str, bool); 2] = [("proactive-transit", false), ("reactive-transit", true)];

fn main() {
    Run::main("multiswitch", |run| {
        let configs = Arc::new(sample_class(
            run,
            ConfigClass::DetectorFeasible,
            (0.05, 0.95),
        ));
        let n = configs.len();
        println!("{n} detector-feasible configurations\n");
        let cells = run.grid(&configs, FABRICS.len() * n, |configs, cell| {
            let (fi, ci) = (cell.unit / configs.len(), cell.unit % configs.len());
            let (sc, plan) = &configs[ci];
            let mut net = scenario_net_config(sc);
            net.transit_reactive = FABRICS[fi].1;
            cell.trials(&TrialRun {
                scenario: sc,
                plan,
                kinds: &ATTACKERS,
                trials: cell.opts.trials,
                seed: cell.opts.seed ^ ((ci + 1) * 3 + fi) as u64,
                net: &net,
                robust: None,
            })
        })?;

        let mut labels = Vec::new();
        let mut series: Vec<(&str, Vec<f64>)> =
            ATTACKERS.iter().map(|k| (k.name(), vec![])).collect();
        let mut rows = Vec::new();
        for (fi, (name, _)) in FABRICS.iter().enumerate() {
            let Some(reports) = complete(&cells[fi * n..(fi + 1) * n]) else {
                continue;
            };
            let vals: Vec<f64> = ATTACKERS
                .iter()
                .map(|&k| mean(reports.iter().map(|r| r.accuracy(k))))
                .collect();
            rows.push(format!("{name},{},{},{}", vals[0], vals[1], vals[2]));
            labels.push(name.to_string());
            for ((_, s), v) in series.iter_mut().zip(vals) {
                s.push(v);
            }
        }
        println!("{}", ascii_bars(&labels, &series));
        run.write_csv(
            "multiswitch.csv",
            "fabric,naive_accuracy,model_accuracy,random_accuracy",
            &rows,
        );
        Ok(())
    })
}
