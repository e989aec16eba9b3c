//! **Figure 7b**: average accuracy vs the probability of absence of the
//! target flow, for the restricted model attacker (never probes the
//! target), the naive attacker, and the prior-only random attacker
//! (§VI-B).
//!
//! Paper's shape: restricted model ≈ naive (the goal is "do as well as
//! querying f̂ would have"), both clearly above random.

use attack::AttackerKind;
use experiments::harness::{
    collect_configs, mean, write_csv, write_stats, ConfigClass, RunManifest,
};
use experiments::{ascii_bars, ConfigOutcome, ExpOpts};

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("fig7b");
    let manifest = RunManifest::begin("fig7b");
    let mut recorder = opts.recorder();
    let bins: &[(f64, f64)] = &[(0.05, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 0.95)];
    let kinds = [
        AttackerKind::Naive,
        AttackerKind::RestrictedModel,
        AttackerKind::Random,
    ];
    let (outcomes, stats) = collect_configs(
        &opts,
        ConfigClass::DetectorFeasible,
        (0.05, 0.95),
        &kinds,
        opts.configs,
        &mut recorder,
    );
    println!("{} detector-feasible configurations\n", outcomes.len());

    let mut labels = Vec::new();
    let mut series: Vec<(&str, Vec<f64>)> = vec![
        ("naive", vec![]),
        ("model-restricted", vec![]),
        ("random", vec![]),
    ];
    let mut rows = Vec::new();
    for &(lo, hi) in bins {
        let in_bin: Vec<&ConfigOutcome> = outcomes
            .iter()
            .filter(|o| {
                let p = o.scenario.target_absence_probability();
                p >= lo && p < hi
            })
            .collect();
        let na = mean(
            in_bin
                .iter()
                .map(|o| o.report.accuracy(AttackerKind::Naive)),
        );
        let mo = mean(
            in_bin
                .iter()
                .map(|o| o.report.accuracy(AttackerKind::RestrictedModel)),
        );
        let ra = mean(
            in_bin
                .iter()
                .map(|o| o.report.accuracy(AttackerKind::Random)),
        );
        println!(
            "absence [{lo:.2},{hi:.2}): {} configs, naive {na:.3}, restricted {mo:.3}, random {ra:.3}",
            in_bin.len()
        );
        labels.push(format!("[{lo:.2},{hi:.2})"));
        series[0].1.push(na);
        series[1].1.push(mo);
        series[2].1.push(ra);
        rows.push(format!("{lo},{hi},{},{na},{mo},{ra}", in_bin.len()));
    }
    println!("\n{}", ascii_bars(&labels, &series));
    write_csv(
        &opts.out_file("fig7b.csv"),
        "absence_lo,absence_hi,configs,naive_accuracy,restricted_model_accuracy,random_accuracy",
        &rows,
    );
    write_stats(&opts, "fig7b", &stats);
    manifest.finish(&opts, &recorder, &["fig7b.csv"]);
}
