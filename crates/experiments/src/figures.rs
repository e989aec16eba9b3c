//! The §VI-B figures: the one place each figure's CSV rows are built.
//!
//! `evaluate_suite` writes all four from its detector-feasible
//! configurations (Fig. 6 from the subset whose optimal probe differs
//! from the target); `fig6` writes the Fig. 6 pair from configurations
//! collected in that class directly. A row averages over a group of
//! configurations and is written only when every one of them has its
//! trials: after an interrupt, a figure keeps its whole rows.

use attack::{AttackerKind, TrialReport};
use std::collections::BTreeMap;
use traffic::NetworkScenario;

use crate::harness::mean;
use crate::run::Run;
use crate::{ascii_bars, ascii_cdf};

/// A configuration as a figure reads it: its scenario, and its trial
/// report once its grid cell completed.
pub type Evaluated<'a> = (&'a NetworkScenario, Option<&'a TrialReport>);

/// The reports of `configs`, if every one has its trials.
fn reports<'a>(configs: &[Evaluated<'a>]) -> Option<Vec<&'a TrialReport>> {
    configs.iter().map(|&(_, report)| report).collect()
}

/// The target-absence bins of Figs. 6a and 7b, `[lo, hi)`.
const ABSENCE_BINS: &[(f64, f64)] = &[(0.05, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 0.95)];

/// The attackers Fig. 7 compares, in CSV column order, with their bar
/// names.
const FIG7_KINDS: &[(AttackerKind, &str)] = &[
    (AttackerKind::Naive, "naive"),
    (AttackerKind::RestrictedModel, "model-restricted"),
    (AttackerKind::Random, "random"),
];

/// One row of an accuracy figure: its leading CSV columns, its bar
/// label and the configurations it averages over.
struct Group<'a> {
    key: String,
    label: String,
    configs: Vec<Evaluated<'a>>,
}

/// `configs` split by their target's probability of absence, one group
/// per bin (empty bins included).
fn absence_groups<'a>(configs: &[Evaluated<'a>]) -> Vec<Group<'a>> {
    ABSENCE_BINS
        .iter()
        .map(|&(lo, hi)| Group {
            key: format!("{lo},{hi}"),
            label: format!("[{lo:.2},{hi:.2})"),
            configs: configs
                .iter()
                .copied()
                .filter(|(scenario, _)| {
                    let p = scenario.target_absence_probability();
                    p >= lo && p < hi
                })
                .collect(),
        })
        .collect()
}

/// `configs` split by the number of rules covering the target, one
/// group per count that occurs, in ascending order.
fn covering_groups<'a>(configs: &[Evaluated<'a>]) -> Vec<Group<'a>> {
    let mut groups: BTreeMap<usize, Vec<Evaluated<'a>>> = BTreeMap::new();
    for &(scenario, report) in configs {
        groups
            .entry(scenario.rules.covering_count(scenario.target))
            .or_default()
            .push((scenario, report));
    }
    groups
        .into_iter()
        .map(|(count, configs)| Group {
            key: count.to_string(),
            label: format!("{count} rules"),
            configs,
        })
        .collect()
}

/// Writes an accuracy figure to `file`: per group whose configurations
/// all have their trials, its key columns, its configuration count and
/// the mean accuracy of each of `kinds`; prints the same as bars.
fn accuracy_figure(
    run: &mut Run<'_>,
    file: &str,
    header: &str,
    groups: &[Group<'_>],
    kinds: &[(AttackerKind, &str)],
) {
    let mut labels = Vec::with_capacity(groups.len());
    let mut series: Vec<(&str, Vec<f64>)> =
        kinds.iter().map(|&(_, name)| (name, Vec::new())).collect();
    let mut rows = Vec::with_capacity(groups.len());
    for g in groups {
        let Some(group) = reports(&g.configs) else {
            continue;
        };
        let mut row = format!("{},{}", g.key, group.len());
        for (&(kind, _), (_, values)) in kinds.iter().zip(&mut series) {
            let accuracy = mean(group.iter().map(|r| r.accuracy(kind)));
            row.push_str(&format!(",{accuracy}"));
            values.push(accuracy);
        }
        rows.push(row);
        labels.push(g.label.clone());
    }
    println!("{}", ascii_bars(&labels, &series));
    run.write_csv(file, header, &rows);
}

/// The model attacker's additive accuracy improvement over the naive one.
fn improvement(report: &TrialReport) -> f64 {
    report.accuracy(AttackerKind::Model) - report.accuracy(AttackerKind::Naive)
}

/// **Figure 6** from configurations whose optimal probe differs from the
/// target, run with the naive and model attackers: `fig6a.csv`, the
/// accuracy of both per absence bin, and `fig6b.csv`, the empirical CDF
/// of the model's improvement over naive (which pools every
/// configuration, so it has rows only when all have their trials).
///
/// Paper's shape: the model attacker beats naive by ≈2% on average, by
/// ≥15% on ~20% of configurations and by >35% on ~5%.
pub fn fig6(run: &mut Run<'_>, configs: &[Evaluated<'_>]) {
    println!("== Figure 6a (model vs naive, optimal ≠ target) ==");
    accuracy_figure(
        run,
        "fig6a.csv",
        "absence_lo,absence_hi,configs,naive_accuracy,model_accuracy",
        &absence_groups(configs),
        &[
            (AttackerKind::Naive, "naive"),
            (AttackerKind::Model, "model"),
        ],
    );
    let Some(all) = reports(configs) else {
        run.write_csv("fig6b.csv", "improvement,cdf", &[]);
        return;
    };
    let mut improvements: Vec<f64> = all.into_iter().map(improvement).collect();
    println!(
        "average improvement: {:+.4} (paper ≈ +0.02)\n",
        mean(improvements.iter().copied())
    );

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
    run.write_csv("fig6b.csv", "improvement,cdf", &rows);
}

/// **Figure 7** from detector-feasible configurations, run with the
/// naive, restricted-model (never probes the target) and random
/// attackers: their accuracy per number of rules covering the target
/// (`fig7a.csv`) and per absence bin (`fig7b.csv`).
///
/// Paper's shape: the restricted model attacker matches or beats naive,
/// and both clearly beat random.
pub fn fig7(run: &mut Run<'_>, configs: &[Evaluated<'_>]) {
    println!("== Figure 7a (accuracy vs #rules covering target) ==");
    accuracy_figure(
        run,
        "fig7a.csv",
        "covering_rules,configs,naive_accuracy,restricted_model_accuracy,random_accuracy",
        &covering_groups(configs),
        FIG7_KINDS,
    );
    println!("== Figure 7b (accuracy vs absence, restricted model) ==");
    accuracy_figure(
        run,
        "fig7b.csv",
        "absence_lo,absence_hi,configs,naive_accuracy,restricted_model_accuracy,random_accuracy",
        &absence_groups(configs),
        FIG7_KINDS,
    );
}
