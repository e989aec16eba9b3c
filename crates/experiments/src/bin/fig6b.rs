//! **Figure 6b**: empirical CDF over network configurations of the
//! additive improvement in average accuracy of the model attacker over the
//! naive attacker (§VI-B).
//!
//! Paper's shape: ≥15% improvement for ~20% of configurations; >35% for
//! ~5% of configurations.

use attack::AttackerKind;
use experiments::harness::{collect_configs, write_csv, write_stats, ConfigClass, RunManifest};
use experiments::{ascii_cdf, ExpOpts};

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("fig6b");
    let manifest = RunManifest::begin("fig6b");
    let mut recorder = opts.recorder();
    let kinds = [AttackerKind::Naive, AttackerKind::Model];
    let (outcomes, stats) = collect_configs(
        &opts,
        ConfigClass::OptimalDiffersFromTarget,
        (0.05, 0.95),
        &kinds,
        opts.configs,
        &mut recorder,
    );
    let mut improvements: Vec<f64> = outcomes
        .iter()
        .map(|o| o.report.accuracy(AttackerKind::Model) - o.report.accuracy(AttackerKind::Naive))
        .collect();
    improvements.sort_by(f64::total_cmp);
    println!(
        "{} configurations (optimal probe ≠ target)\n",
        improvements.len()
    );
    println!("{}", ascii_cdf(&improvements, 12));

    let frac_ge = |x: f64| {
        improvements.iter().filter(|&&v| v >= x).count() as f64 / improvements.len().max(1) as f64
    };
    println!(
        "fraction of configs with improvement ≥ 0.15: {:.3} (paper ≈ 0.20)",
        frac_ge(0.15)
    );
    println!(
        "fraction of configs with improvement > 0.35: {:.3} (paper ≈ 0.05)",
        frac_ge(0.35)
    );

    let rows: Vec<String> = improvements
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{v},{}", (i + 1) as f64 / improvements.len() as f64))
        .collect();
    write_csv(&opts.out_file("fig6b.csv"), "improvement,cdf", &rows);
    write_stats(&opts, "fig6b", &stats);
    manifest.finish(&opts, &recorder, &["fig6b.csv"]);
}
