//! **Figure 6a**: average accuracy of the model-based vs naive attacker as
//! a function of the probability of absence of the target flow, over
//! configurations in which the model-calculated optimal probe differs from
//! the target (§VI-B).
//!
//! Paper's shape: the model attacker outperforms the naive attacker by
//! ≈2% on average, with the gap growing as P(absence) grows.
//!
//! As in the paper, configurations are sampled broadly and *then* binned
//! by their target's probability of absence; bins where the §VI-B detector
//! filter admits no configuration stay empty (at low absence probabilities
//! no 1-second-TTL rule can witness a 15-second window, so no detector
//! exists — see EXPERIMENTS.md).

use attack::AttackerKind;
use experiments::harness::{
    collect_configs, mean, write_csv, write_stats, ConfigClass, RunManifest,
};
use experiments::{ascii_bars, ConfigOutcome, ExpOpts};

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("fig6a");
    let manifest = RunManifest::begin("fig6a");
    let mut recorder = opts.recorder();
    let bins: &[(f64, f64)] = &[(0.05, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 0.95)];
    let kinds = [AttackerKind::Naive, AttackerKind::Model];
    let (outcomes, stats) = collect_configs(
        &opts,
        ConfigClass::OptimalDiffersFromTarget,
        (0.05, 0.95),
        &kinds,
        opts.configs,
        &mut recorder,
    );
    println!(
        "{} configurations (detector-feasible, optimal ≠ target)\n",
        outcomes.len()
    );

    let mut labels = Vec::new();
    let mut naive = Vec::new();
    let mut model = Vec::new();
    let mut rows = Vec::new();
    for &(lo, hi) in bins {
        let in_bin: Vec<&ConfigOutcome> = outcomes
            .iter()
            .filter(|o| {
                let p = o.scenario.target_absence_probability();
                p >= lo && p < hi
            })
            .collect();
        let n = in_bin.len();
        let na = mean(
            in_bin
                .iter()
                .map(|o| o.report.accuracy(AttackerKind::Naive)),
        );
        let mo = mean(
            in_bin
                .iter()
                .map(|o| o.report.accuracy(AttackerKind::Model)),
        );
        println!(
            "absence [{lo:.2},{hi:.2}): {n} configs, naive {na:.3}, model {mo:.3}, Δ {:+.3}",
            mo - na
        );
        labels.push(format!("[{lo:.2},{hi:.2})"));
        naive.push(na);
        model.push(mo);
        rows.push(format!("{lo},{hi},{n},{na},{mo}"));
    }
    println!(
        "\n{}",
        ascii_bars(
            &labels,
            &[("naive", naive.clone()), ("model", model.clone())]
        )
    );
    let avg_gain =
        mean(outcomes.iter().map(|o| {
            o.report.accuracy(AttackerKind::Model) - o.report.accuracy(AttackerKind::Naive)
        }));
    println!("average model-over-naive improvement: {avg_gain:+.4} (paper: ≈ +0.02)");
    write_csv(
        &opts.out_file("fig6a.csv"),
        "absence_lo,absence_hi,configs,naive_accuracy,model_accuracy",
        &rows,
    );
    write_stats(&opts, "fig6a", &stats);
    manifest.finish(&opts, &recorder, &["fig6a.csv"]);
}
