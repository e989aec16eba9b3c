//! **E4 (extension)** — attack robustness under network faults: the paper
//! evaluates on a quiet Mininet testbed, but a production SDN drops
//! packets, loses `packet-in`s and `flow-mod`s, and jitters under load.
//! This sweep injects a seed-derived [`netsim::FaultPlan`] at increasing
//! uniform fault rates and runs the robust probe loop (timeouts, retries,
//! MAD outlier rejection, explicit *inconclusive* verdicts) to measure how
//! gracefully each attacker degrades — accuracy over answered questions
//! alongside the answer rate, plus the raw fault tallies. Each CSV row
//! also carries the *simulator-injected* fault totals (`inj_*` columns),
//! so the measurement layer's observations can be cross-checked against
//! what was actually injected.
//!
//! The grid has one cell per (fault rate × configuration) and runs, like
//! every trial-running program, through the supervised runner
//! ([`experiments::Run`]): `--checkpoint-every N` periodically persists
//! completed cells to `<out>/fault_sweep.ckpt.jsonl`, `--resume`
//! continues a killed run to byte-identical CSVs, and SIGINT/SIGTERM
//! write the rows of every fully completed fault rate plus an
//! `interrupted` manifest (exit code 130).

use attack::{scenario_net_config, ProbePolicy, TrialRun};
use experiments::harness::{config_seed, mean, sample_class, ConfigClass, ATTACKERS};
use experiments::run::{complete, Run};
use experiments::svg;
use std::sync::Arc;

fn main() {
    Run::main("fault_sweep", |run| {
        let opts = run.opts;
        let rates: Vec<f64> = if opts.fast {
            vec![0.0, 0.05, 0.15]
        } else {
            vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2]
        };

        // Sample the configuration set once (fault-free planning); every
        // fault rate then re-runs the *same* scenarios, so columns are
        // comparable.
        let configs = sample_class(run, ConfigClass::DetectorFeasible, (0.2, 0.8));
        println!("{} detector-feasible configurations\n", configs.len());
        println!("rate   attacker   accuracy   answer-rate   timeouts   inconclusive");

        let n_configs = configs.len();
        let ctx = Arc::new((configs, rates.clone()));
        let cells = run.grid(&ctx, rates.len() * n_configs, |(configs, rates), cell| {
            let (ri, ci) = (cell.unit / configs.len(), cell.unit % configs.len());
            let (sc, plan) = &configs[ci];
            let mut net = scenario_net_config(sc);
            net.faults = netsim::FaultPlan::uniform(rates[ri]);
            cell.trials(&TrialRun {
                scenario: sc,
                plan,
                kinds: &ATTACKERS,
                trials: cell.opts.trials,
                seed: config_seed(cell.opts.seed, ci),
                net: &net,
                robust: Some(&ProbePolicy::default()),
            })
        })?;

        // One row group per fault rate whose cells all completed.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut acc_series: Vec<(&str, Vec<f64>)> =
            ATTACKERS.iter().map(|k| (k.name(), vec![])).collect();
        for (ri, &rate) in rates.iter().enumerate() {
            let Some(group) = complete(&cells[ri * n_configs..(ri + 1) * n_configs]) else {
                continue;
            };
            labels.push(format!("{rate:.2}"));
            for (&k, (_, series)) in ATTACKERS.iter().zip(&mut acc_series) {
                let a = mean(group.iter().map(|r| r.accuracy(k)).filter(|v| !v.is_nan()));
                let ar = mean(group.iter().map(|r| r.answer_rate(k)));
                let mut c = attack::FaultCounters::default();
                let mut inj = netsim::FaultStats::default();
                for report in &group {
                    c.merge(report.fault_counters(k));
                    inj.merge(report.sim_faults(k));
                }
                println!(
                    "{rate:<5.2}  {:<9}  {a:>8.3}   {ar:>11.3}   {:>8}   {:>12}",
                    k.name(),
                    c.timeouts,
                    c.inconclusive
                );
                rows.push(format!(
                    "{rate},{},{n_configs},{a},{ar},{},{},{},{},{},{},{},{},{},{},{}",
                    k.name(),
                    c.probes,
                    c.timeouts,
                    c.retries,
                    c.outliers,
                    c.inconclusive,
                    inj.packets_dropped,
                    inj.packet_ins_lost,
                    inj.flow_mods_lost,
                    inj.flow_mods_delayed,
                    inj.flow_mods_rejected,
                    inj.probe_timeouts
                ));
                series.push(a);
            }
        }
        run.write_csv(
            "fault_sweep.csv",
            "fault_rate,attacker,configs,accuracy,answer_rate,probes,timeouts,retries,outliers,inconclusive,inj_packets_dropped,inj_packet_ins_lost,inj_flow_mods_lost,inj_flow_mods_delayed,inj_flow_mods_rejected,inj_probe_timeouts",
            &rows,
        );
        run.write_file(
            "fault_sweep.svg",
            svg::grouped_bars(
                "Accuracy (answered questions) vs. uniform fault rate",
                &labels,
                &acc_series,
                "accuracy",
            ),
        );
        Ok(())
    })
}
