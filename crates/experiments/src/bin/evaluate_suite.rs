//! One-pass evaluation suite: collects detector-feasible configurations
//! once, runs all four §VI-B attackers on each, and emits the CSVs for
//! Figures 6a, 6b, 7a and 7b together (the standalone `fig*` binaries do
//! the same per figure; this avoids re-sampling the expensive Fig. 6
//! configuration class four times for the final report).

use attack::AttackerKind;
use experiments::harness::{
    collect_configs, mean, write_csv, write_stats, ConfigClass, RunManifest,
};
use experiments::{ascii_bars, ascii_cdf, ConfigOutcome, ExpOpts};
use std::collections::BTreeMap;

const BINS: &[(f64, f64)] = &[(0.05, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 0.95)];

fn in_bin<'a>(
    outcomes: &'a [&ConfigOutcome],
    lo: f64,
    hi: f64,
) -> impl Iterator<Item = &'a &'a ConfigOutcome> {
    outcomes.iter().filter(move |o| {
        let p = o.scenario.target_absence_probability();
        p >= lo && p < hi
    })
}

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("evaluate_suite");
    let manifest = RunManifest::begin("evaluate_suite");
    let mut recorder = opts.recorder();
    let kinds = [
        AttackerKind::Naive,
        AttackerKind::Model,
        AttackerKind::RestrictedModel,
        AttackerKind::Random,
    ];
    let (all, stats) = collect_configs(
        &opts,
        ConfigClass::DetectorFeasible,
        (0.05, 0.95),
        &kinds,
        opts.configs,
        &mut recorder,
    );
    let fig7: Vec<&ConfigOutcome> = all.iter().collect();
    let fig6: Vec<&ConfigOutcome> = all
        .iter()
        .filter(|o| o.plan.optimal_differs_from_target(o.scenario.target))
        .collect();
    println!(
        "{} detector-feasible configurations; {} with optimal probe ≠ target\n",
        fig7.len(),
        fig6.len()
    );

    // ---- Figure 6a ----
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let (mut naive_s, mut model_s) = (Vec::new(), Vec::new());
    for &(lo, hi) in BINS {
        let os: Vec<_> = in_bin(&fig6, lo, hi).collect();
        let na = mean(os.iter().map(|o| o.report.accuracy(AttackerKind::Naive)));
        let mo = mean(os.iter().map(|o| o.report.accuracy(AttackerKind::Model)));
        labels.push(format!("[{lo:.2},{hi:.2})"));
        naive_s.push(na);
        model_s.push(mo);
        rows.push(format!("{lo},{hi},{},{na},{mo}", os.len()));
    }
    println!("== Figure 6a (model vs naive, optimal ≠ target) ==");
    println!(
        "{}",
        ascii_bars(&labels, &[("naive", naive_s), ("model", model_s)])
    );
    let avg_gain =
        mean(fig6.iter().map(|o| {
            o.report.accuracy(AttackerKind::Model) - o.report.accuracy(AttackerKind::Naive)
        }));
    println!("average improvement: {avg_gain:+.4} (paper ≈ +0.02)\n");
    write_csv(
        &opts.out_file("fig6a.csv"),
        "absence_lo,absence_hi,configs,naive_accuracy,model_accuracy",
        &rows,
    );

    // ---- Figure 6b ----
    let mut improvements: Vec<f64> = fig6
        .iter()
        .map(|o| o.report.accuracy(AttackerKind::Model) - o.report.accuracy(AttackerKind::Naive))
        .collect();
    improvements.sort_by(f64::total_cmp);
    println!("== Figure 6b (CDF of additive improvement) ==");
    println!("{}", ascii_cdf(&improvements, 12));
    let frac_ge = |x: f64| {
        improvements.iter().filter(|&&v| v >= x).count() as f64 / improvements.len().max(1) as f64
    };
    println!(
        "fraction ≥ 0.15: {:.3} (paper ≈ 0.20); > 0.35: {:.3} (paper ≈ 0.05)\n",
        frac_ge(0.15),
        frac_ge(0.35)
    );
    let rows: Vec<String> = improvements
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{v},{}", (i + 1) as f64 / improvements.len() as f64))
        .collect();
    write_csv(&opts.out_file("fig6b.csv"), "improvement,cdf", &rows);

    // ---- Figure 7a ----
    let mut groups: BTreeMap<usize, Vec<&ConfigOutcome>> = BTreeMap::new();
    for &o in &fig7 {
        groups
            .entry(o.scenario.rules.covering_count(o.scenario.target))
            .or_default()
            .push(o);
    }
    println!("== Figure 7a (accuracy vs #rules covering target) ==");
    let mut rows = Vec::new();
    for (&count, os) in &groups {
        let na = mean(os.iter().map(|o| o.report.accuracy(AttackerKind::Naive)));
        let mo = mean(
            os.iter()
                .map(|o| o.report.accuracy(AttackerKind::RestrictedModel)),
        );
        let ra = mean(os.iter().map(|o| o.report.accuracy(AttackerKind::Random)));
        println!(
            "  {count} covering rule(s): {:>3} configs  naive {na:.3}  restricted {mo:.3}  random {ra:.3}",
            os.len()
        );
        rows.push(format!("{count},{},{na},{mo},{ra}", os.len()));
    }
    println!();
    write_csv(
        &opts.out_file("fig7a.csv"),
        "covering_rules,configs,naive_accuracy,restricted_model_accuracy,random_accuracy",
        &rows,
    );

    // ---- Figure 7b ----
    println!("== Figure 7b (accuracy vs absence, restricted model) ==");
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut series: Vec<(&str, Vec<f64>)> = vec![
        ("naive", vec![]),
        ("model-restricted", vec![]),
        ("random", vec![]),
    ];
    for &(lo, hi) in BINS {
        let os: Vec<_> = in_bin(&fig7, lo, hi).collect();
        let na = mean(os.iter().map(|o| o.report.accuracy(AttackerKind::Naive)));
        let mo = mean(
            os.iter()
                .map(|o| o.report.accuracy(AttackerKind::RestrictedModel)),
        );
        let ra = mean(os.iter().map(|o| o.report.accuracy(AttackerKind::Random)));
        labels.push(format!("[{lo:.2},{hi:.2})"));
        series[0].1.push(na);
        series[1].1.push(mo);
        series[2].1.push(ra);
        rows.push(format!("{lo},{hi},{},{na},{mo},{ra}", os.len()));
    }
    println!("{}", ascii_bars(&labels, &series));
    write_csv(
        &opts.out_file("fig7b.csv"),
        "absence_lo,absence_hi,configs,naive_accuracy,restricted_model_accuracy,random_accuracy",
        &rows,
    );

    // ---- Robustness sidecar ----
    // Per-attacker answer bookkeeping pooled over every configuration.
    // This suite runs fault-free, so the fault tallies are all zero and
    // the answer rate is 1.0 — the columns exist so that fault-injected
    // runs (see `fault_sweep`) and this baseline stay diffable.
    let mut rows = Vec::new();
    for &k in &kinds {
        let mut acc = attack::Accuracy::default();
        let mut counters = attack::FaultCounters::default();
        for o in &fig7 {
            acc.merge(o.report.entry_for(k));
            counters.merge(o.report.fault_counters(k));
        }
        rows.push(format!(
            "{},{},{},{},{},{},{},{}",
            k.name(),
            acc.n(),
            acc.inconclusive,
            acc.answer_rate(),
            counters.probes,
            counters.timeouts,
            counters.retries,
            counters.outliers
        ));
    }
    write_csv(
        &opts.out_file("suite_robust.csv"),
        "attacker,answered,inconclusive,answer_rate,probes,timeouts,retries,outliers",
        &rows,
    );

    // Aggregate summary for EXPERIMENTS.md.
    let overall_naive = mean(fig7.iter().map(|o| o.report.accuracy(AttackerKind::Naive)));
    let overall_model = mean(fig7.iter().map(|o| o.report.accuracy(AttackerKind::Model)));
    let overall_restricted = mean(
        fig7.iter()
            .map(|o| o.report.accuracy(AttackerKind::RestrictedModel)),
    );
    let overall_random = mean(fig7.iter().map(|o| o.report.accuracy(AttackerKind::Random)));
    println!("overall accuracy: naive {overall_naive:.3}  model {overall_model:.3}  restricted {overall_restricted:.3}  random {overall_random:.3}");
    write_stats(&opts, "evaluate_suite", &stats);
    manifest.finish(
        &opts,
        &recorder,
        &[
            "fig6a.csv",
            "fig6b.csv",
            "fig7a.csv",
            "fig7b.csv",
            "suite_robust.csv",
        ],
    );
}
