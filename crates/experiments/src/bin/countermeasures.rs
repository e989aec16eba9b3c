//! **C1** — countermeasure evaluation (§VII-B): attacker accuracy with no
//! defense, with delay-padding (Cui et al.), and with proactive rule
//! installation.
//!
//! Expected shape: both defenses push every probing attacker down to (or
//! below) the prior-only random attacker's accuracy.

use attack::{scenario_net_config, AttackerKind, TrialRun};
use experiments::harness::{
    attempt_cap, detector_plan, mean, sample_configs, sampler_for, write_csv, RunManifest,
};
use experiments::{ascii_bars, ExpOpts};
use netsim::{Defense, NetConfig};
use obs::FlightRecorder;

fn with_defense(base: &NetConfig, defense: Defense) -> NetConfig {
    let mut c = base.clone();
    c.defense = defense;
    c
}

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("countermeasures");
    let manifest = RunManifest::begin("countermeasures");
    let mut recorder = opts.recorder();
    let kinds = [
        AttackerKind::Naive,
        AttackerKind::Model,
        AttackerKind::Random,
    ];
    let defenses: Vec<(&str, Defense)> = vec![
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
    ];

    // Accuracy[defense][attacker], averaged over detector-feasible configs.
    let mut acc = vec![vec![Vec::new(); kinds.len()]; defenses.len()];
    let configs = sample_configs(
        &sampler_for(&opts),
        opts.seed,
        (0.05, 0.95),
        opts.configs,
        attempt_cap(opts.configs),
        |sc| detector_plan(sc, opts.policy),
    );
    let found = configs.len();
    for (i, (sc, plan)) in configs.iter().enumerate() {
        let base = scenario_net_config(sc);
        for (d, (_, defense)) in defenses.iter().enumerate() {
            let report = TrialRun {
                scenario: sc,
                plan,
                kinds: &kinds,
                trials: opts.trials,
                seed: opts.seed ^ (i + 1) as u64,
                net: &with_defense(&base, *defense),
                robust: None,
            }
            .run_observed(
                opts.policy,
                &mut recorder,
                0,
                &mut FlightRecorder::disabled(),
            );
            for (k, kind) in kinds.iter().enumerate() {
                acc[d][k].push(report.accuracy(*kind));
            }
        }
    }
    println!("{found} detector-feasible configurations\n");
    let labels: Vec<String> = defenses.iter().map(|(n, _)| n.to_string()).collect();
    let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut rows = Vec::new();
    for (k, kind) in kinds.iter().enumerate() {
        let vals: Vec<f64> = (0..defenses.len())
            .map(|d| mean(acc[d][k].iter().copied()))
            .collect();
        series.push((kind.name(), vals));
    }
    for (d, (name, _)) in defenses.iter().enumerate() {
        let vals: Vec<f64> = (0..kinds.len())
            .map(|k| mean(acc[d][k].iter().copied()))
            .collect();
        println!(
            "defense {name:<14} naive {:.3}  model {:.3}  random {:.3}",
            vals[0], vals[1], vals[2]
        );
        rows.push(format!("{name},{},{},{}", vals[0], vals[1], vals[2]));
    }
    println!("\n{}", ascii_bars(&labels, &series));
    write_csv(
        &opts.out_file("countermeasures.csv"),
        "defense,naive_accuracy,model_accuracy,random_accuracy",
        &rows,
    );
    manifest.finish(&opts, &recorder, &["countermeasures.csv"]);
}
