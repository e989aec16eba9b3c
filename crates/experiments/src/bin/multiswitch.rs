//! **E3 (extension of §VII-A)** — the multi-switch surface: the paper
//! models a single reactive switch and keeps the rest of the fabric
//! proactive (its pre-installed path rules). What happens to the attack
//! when *transit* switches also install rules reactively?
//!
//! A probe that hits at the ingress can still pay rule-setup delays at a
//! cold transit switch, pushing its RTT over the threshold and flipping
//! the attacker's reading of `Q_f` — the single-switch model no longer
//! matches the network it is probing.

use attack::{scenario_net_config, AttackerKind, TrialRun};
use experiments::harness::{
    detector_plan, mean, sample_configs, sampler_for, write_csv, RunManifest, ATTEMPTS_PER_CONFIG,
};
use experiments::{ascii_bars, ExpOpts};

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("multiswitch");
    let manifest = RunManifest::begin("multiswitch");
    let recorder = opts.recorder();
    let kinds = [
        AttackerKind::Naive,
        AttackerKind::Model,
        AttackerKind::Random,
    ];
    let fabrics: [(&str, bool); 2] = [("proactive-transit", false), ("reactive-transit", true)];

    let mut acc = vec![vec![Vec::new(); kinds.len()]; fabrics.len()];
    let configs = sample_configs(
        &sampler_for(&opts),
        opts.seed,
        (0.05, 0.95),
        opts.configs,
        ATTEMPTS_PER_CONFIG * opts.configs,
        |sc| detector_plan(sc, opts.policy),
    );
    let found = configs.len();
    for (i, (sc, plan)) in configs.iter().enumerate() {
        for (fi, (_, reactive)) in fabrics.iter().enumerate() {
            let mut net = scenario_net_config(sc);
            net.transit_reactive = *reactive;
            let report = TrialRun {
                scenario: sc,
                plan,
                kinds: &kinds,
                trials: opts.trials,
                seed: opts.seed ^ ((i + 1) * 3 + fi) as u64,
                net: &net,
                robust: None,
            }
            .run(opts.policy);
            for (k, kind) in kinds.iter().enumerate() {
                acc[fi][k].push(report.accuracy(*kind));
            }
        }
    }
    println!("{found} detector-feasible configurations\n");
    let labels: Vec<String> = fabrics.iter().map(|(n, _)| n.to_string()).collect();
    let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
    for (k, kind) in kinds.iter().enumerate() {
        let vals: Vec<f64> = (0..fabrics.len())
            .map(|fi| mean(acc[fi][k].iter().copied()))
            .collect();
        series.push((kind.name(), vals));
    }
    println!("{}", ascii_bars(&labels, &series));
    let mut rows = Vec::new();
    for (fi, (name, _)) in fabrics.iter().enumerate() {
        let vals: Vec<f64> = (0..kinds.len())
            .map(|k| mean(acc[fi][k].iter().copied()))
            .collect();
        rows.push(format!("{name},{},{},{}", vals[0], vals[1], vals[2]));
    }
    write_csv(
        &opts.out_file("multiswitch.csv"),
        "fabric,naive_accuracy,model_accuracy,random_accuracy",
        &rows,
    );
    manifest.finish(&opts, &recorder, &["multiswitch.csv"]);
}
