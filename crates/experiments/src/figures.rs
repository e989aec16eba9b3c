//! The §VI-B figures: the one place each figure's CSV rows are built.
//!
//! `evaluate_suite` writes all four from its detector-feasible
//! configurations (Fig. 6 from the subset whose optimal probe differs
//! from the target); `fig6` writes the Fig. 6 pair from configurations
//! collected in that class directly.

use attack::AttackerKind;
use std::collections::BTreeMap;

use crate::harness::{mean, write_csv};
use crate::{ascii_bars, ascii_cdf, ConfigOutcome, ExpOpts};

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
    outcomes: Vec<&'a ConfigOutcome>,
}

/// `outcomes` split by their target's probability of absence, one group
/// per bin (empty bins included).
fn absence_groups<'a>(outcomes: &[&'a ConfigOutcome]) -> Vec<Group<'a>> {
    ABSENCE_BINS
        .iter()
        .map(|&(lo, hi)| Group {
            key: format!("{lo},{hi}"),
            label: format!("[{lo:.2},{hi:.2})"),
            outcomes: outcomes
                .iter()
                .copied()
                .filter(|o| {
                    let p = o.scenario.target_absence_probability();
                    p >= lo && p < hi
                })
                .collect(),
        })
        .collect()
}

/// `outcomes` split by the number of rules covering the target, one
/// group per count that occurs, in ascending order.
fn covering_groups<'a>(outcomes: &[&'a ConfigOutcome]) -> Vec<Group<'a>> {
    let mut groups: BTreeMap<usize, Vec<&ConfigOutcome>> = BTreeMap::new();
    for &o in outcomes {
        groups
            .entry(o.scenario.rules.covering_count(o.scenario.target))
            .or_default()
            .push(o);
    }
    groups
        .into_iter()
        .map(|(count, outcomes)| Group {
            key: count.to_string(),
            label: format!("{count} rules"),
            outcomes,
        })
        .collect()
}

/// Writes an accuracy figure to `file`: per group its key columns, its
/// configuration count and the mean accuracy of each of `kinds`; prints
/// the same as bars.
fn accuracy_figure(
    opts: &ExpOpts,
    file: &str,
    header: &str,
    groups: &[Group<'_>],
    kinds: &[(AttackerKind, &str)],
) {
    let labels: Vec<String> = groups.iter().map(|g| g.label.clone()).collect();
    let mut series: Vec<(&str, Vec<f64>)> =
        kinds.iter().map(|&(_, name)| (name, Vec::new())).collect();
    let mut rows = Vec::with_capacity(groups.len());
    for g in groups {
        let mut row = format!("{},{}", g.key, g.outcomes.len());
        for (&(kind, _), (_, values)) in kinds.iter().zip(&mut series) {
            let accuracy = mean(g.outcomes.iter().map(|o| o.report.accuracy(kind)));
            row.push_str(&format!(",{accuracy}"));
            values.push(accuracy);
        }
        rows.push(row);
    }
    println!("{}", ascii_bars(&labels, &series));
    write_csv(&opts.out_file(file), header, &rows);
}

/// The model attacker's additive accuracy improvement over the naive one.
fn improvement(o: &ConfigOutcome) -> f64 {
    o.report.accuracy(AttackerKind::Model) - o.report.accuracy(AttackerKind::Naive)
}

/// **Figure 6** from configurations whose optimal probe differs from the
/// target, run with the naive and model attackers: `fig6a.csv`, the
/// accuracy of both per absence bin, and `fig6b.csv`, the empirical CDF
/// of the model's improvement over naive.
///
/// Paper's shape: the model attacker beats naive by ≈2% on average, by
/// ≥15% on ~20% of configurations and by >35% on ~5%.
pub fn fig6(opts: &ExpOpts, outcomes: &[&ConfigOutcome]) {
    println!("== Figure 6a (model vs naive, optimal ≠ target) ==");
    accuracy_figure(
        opts,
        "fig6a.csv",
        "absence_lo,absence_hi,configs,naive_accuracy,model_accuracy",
        &absence_groups(outcomes),
        &[
            (AttackerKind::Naive, "naive"),
            (AttackerKind::Model, "model"),
        ],
    );
    let mut improvements: Vec<f64> = outcomes.iter().map(|o| improvement(o)).collect();
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
    write_csv(&opts.out_file("fig6b.csv"), "improvement,cdf", &rows);
}

/// **Figure 7** from detector-feasible configurations, run with the
/// naive, restricted-model (never probes the target) and random
/// attackers: their accuracy per number of rules covering the target
/// (`fig7a.csv`) and per absence bin (`fig7b.csv`).
///
/// Paper's shape: the restricted model attacker matches or beats naive,
/// and both clearly beat random.
pub fn fig7(opts: &ExpOpts, outcomes: &[&ConfigOutcome]) {
    println!("== Figure 7a (accuracy vs #rules covering target) ==");
    accuracy_figure(
        opts,
        "fig7a.csv",
        "covering_rules,configs,naive_accuracy,restricted_model_accuracy,random_accuracy",
        &covering_groups(outcomes),
        FIG7_KINDS,
    );
    println!("== Figure 7b (accuracy vs absence, restricted model) ==");
    accuracy_figure(
        opts,
        "fig7b.csv",
        "absence_lo,absence_hi,configs,naive_accuracy,restricted_model_accuracy,random_accuracy",
        &absence_groups(outcomes),
        FIG7_KINDS,
    );
}
