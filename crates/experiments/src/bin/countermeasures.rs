//! **C1** — countermeasure evaluation (§VII-B): attacker accuracy with no
//! defense, with delay-padding (Cui et al.), with window-padding, and
//! with proactive rule installation.
//!
//! Expected shape: each of the three defenses pushes every probing
//! attacker down to (or below) the prior-only random attacker's accuracy.
//!
//! One cell per (defense × configuration) on the supervised runner,
//! [`experiments::Run`].

use attack::{scenario_net_config, TrialRun};
use experiments::ascii_bars;
use experiments::harness::{mean, sample_class, ConfigClass, ATTACKERS};
use experiments::run::{complete, Run};
use netsim::Defense;
use std::sync::Arc;

/// The defenses compared, in row order.
fn defenses() -> [(&'static str, Defense); 4] {
    [
        ("none", Defense::default()),
        (
            "delay-padding",
            Defense {
                delay_first: Some(netsim::DelayPadding {
                    packets: 3,
                    pad_secs: 4.0e-3,
                }),
                ..Defense::default()
            },
        ),
        (
            "window-padding",
            Defense {
                pad_recent: Some(netsim::WindowPadding {
                    window_secs: 2.0,
                    pad_secs: 4.0e-3,
                }),
                ..Defense::default()
            },
        ),
        (
            "proactive",
            Defense {
                proactive: true,
                ..Defense::default()
            },
        ),
    ]
}

fn main() {
    Run::main("countermeasures", |run| {
        let configs = Arc::new(sample_class(
            run,
            ConfigClass::DetectorFeasible,
            (0.05, 0.95),
        ));
        let n = configs.len();
        println!("{n} detector-feasible configurations\n");
        let cells = run.grid(&configs, defenses().len() * n, |configs, cell| {
            let (d, ci) = (cell.unit / configs.len(), cell.unit % configs.len());
            let (sc, plan) = &configs[ci];
            let mut net = scenario_net_config(sc);
            net.defense = defenses()[d].1;
            cell.trials(&TrialRun {
                scenario: sc,
                plan,
                kinds: &ATTACKERS,
                trials: cell.opts.trials,
                seed: cell.opts.seed ^ (ci + 1) as u64,
                net: &net,
                robust: None,
            })
        })?;

        // Mean accuracy per attacker over the configurations, for each
        // defense whose cells all completed.
        let mut labels = Vec::new();
        let mut series: Vec<(&str, Vec<f64>)> =
            ATTACKERS.iter().map(|k| (k.name(), vec![])).collect();
        let mut rows = Vec::new();
        for (d, (name, _)) in defenses().iter().enumerate() {
            let Some(reports) = complete(&cells[d * n..(d + 1) * n]) else {
                continue;
            };
            let vals: Vec<f64> = ATTACKERS
                .iter()
                .map(|&k| mean(reports.iter().map(|r| r.accuracy(k))))
                .collect();
            println!(
                "defense {name:<14} naive {:.3}  model {:.3}  random {:.3}",
                vals[0], vals[1], vals[2]
            );
            rows.push(format!("{name},{},{},{}", vals[0], vals[1], vals[2]));
            labels.push(name.to_string());
            for ((_, s), v) in series.iter_mut().zip(vals) {
                s.push(v);
            }
        }
        println!("\n{}", ascii_bars(&labels, &series));
        run.write_csv(
            "countermeasures.csv",
            "defense,naive_accuracy,model_accuracy,random_accuracy",
            &rows,
        );
        Ok(())
    })
}
