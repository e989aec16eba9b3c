//! **E1 (extension)** — multi-probe and adaptive attacks: how much do 2–3
//! probes (§V-B) and adaptive probing (our extension of it) add over the
//! single optimal probe?

use attack::{plan_attack_full, scenario_net_config, AttackerKind, TrialRun};
use experiments::harness::{
    attempt_cap, mean, sample_configs, sampler_for, write_csv, RunManifest,
};
use experiments::{ascii_bars, ExpOpts};
use ftcache::PolicyKind;
use obs::FlightRecorder;
use recon_core::useq::Evaluator;

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("multiprobe");
    let manifest = RunManifest::begin("multiprobe");
    let mut recorder = opts.recorder();
    let kinds = [
        AttackerKind::Naive,
        AttackerKind::Model,
        AttackerKind::MultiProbe,
        AttackerKind::Adaptive,
    ];
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    let mut ig_single = Vec::new();
    let mut ig_adaptive = Vec::new();
    let configs = sample_configs(
        &sampler_for(&opts),
        opts.seed,
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
    );
    let found = configs.len();
    for (ci, (sc, plan)) in configs.iter().enumerate() {
        ig_single.push(plan.optimal.info_gain);
        if let Some(ref adaptive) = plan.adaptive {
            ig_adaptive.push(adaptive.expected_info_gain());
        }
        let report = TrialRun {
            scenario: sc,
            plan,
            kinds: &kinds,
            trials: opts.trials,
            seed: opts.seed ^ (ci + 1) as u64,
            net: &scenario_net_config(sc),
            robust: None,
        }
        .run_observed(
            opts.policy,
            &mut recorder,
            0,
            &mut FlightRecorder::disabled(),
        );
        for (i, k) in kinds.iter().enumerate() {
            acc[i].push(report.accuracy(*k));
        }
    }
    println!("{found} detector-feasible configurations\n");
    let labels: Vec<String> = kinds.iter().map(|k| k.name().to_string()).collect();
    let values: Vec<f64> = acc.iter().map(|v| mean(v.iter().copied())).collect();
    println!("{}", ascii_bars(&labels, &[("accuracy", values.clone())]));
    println!(
        "mean info gain: single probe {:.4}, adaptive-3 {:.4}",
        mean(ig_single.iter().copied()),
        mean(ig_adaptive.iter().copied()),
    );
    let rows: Vec<String> = kinds
        .iter()
        .zip(&values)
        .map(|(k, v)| format!("{},{v}", k.name()))
        .collect();
    write_csv(&opts.out_file("multiprobe.csv"), "attacker,accuracy", &rows);
    manifest.finish(&opts, &recorder, &["multiprobe.csv"]);
}
