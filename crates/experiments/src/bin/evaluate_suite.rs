//! One-pass evaluation suite: collects detector-feasible configurations
//! once, runs all four §VI-B attackers on each, and emits the CSVs for
//! Figures 6a, 6b, 7a and 7b together (Fig. 6 from the configurations
//! whose optimal probe differs from the target; the `fig6` program
//! collects that class directly), plus the `suite_robust.csv` sidecar.

use attack::AttackerKind;
use experiments::harness::{collect_configs, mean, write_csv, ConfigClass, RunManifest};
use experiments::{figures, ConfigOutcome, ExpOpts};

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
    let all = collect_configs(
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

    figures::fig6(&opts, &fig6);
    figures::fig7(&opts, &fig7);

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
