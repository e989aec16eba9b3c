//! **Figure 7a**: average accuracy vs the number of rules covering the
//! target flow, for the restricted model attacker (never probes the
//! target), the naive attacker, and the prior-only random attacker
//! (§VI-B).
//!
//! Paper's shape: the restricted model attacker matches or beats naive at
//! every covering count; random is worst.

use attack::AttackerKind;
use experiments::harness::{
    collect_configs, mean, write_csv, write_stats, ConfigClass, RunManifest,
};
use experiments::{ascii_bars, ExpOpts};
use std::collections::BTreeMap;

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("fig7a");
    let manifest = RunManifest::begin("fig7a");
    let mut recorder = opts.recorder();
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

    // Group by #rules covering the target.
    let mut groups: BTreeMap<usize, Vec<&experiments::ConfigOutcome>> = BTreeMap::new();
    for o in &outcomes {
        let c = o.scenario.rules.covering_count(o.scenario.target);
        groups.entry(c).or_default().push(o);
    }

    let mut labels = Vec::new();
    let mut series: Vec<(&str, Vec<f64>)> = vec![
        ("naive", vec![]),
        ("model-restricted", vec![]),
        ("random", vec![]),
    ];
    let mut rows = Vec::new();
    for (&count, os) in &groups {
        let na = mean(os.iter().map(|o| o.report.accuracy(AttackerKind::Naive)));
        let mo = mean(
            os.iter()
                .map(|o| o.report.accuracy(AttackerKind::RestrictedModel)),
        );
        let ra = mean(os.iter().map(|o| o.report.accuracy(AttackerKind::Random)));
        println!(
            "{count} covering rule(s): {} configs, naive {na:.3}, restricted model {mo:.3}, random {ra:.3}",
            os.len()
        );
        labels.push(format!("{count} rules"));
        series[0].1.push(na);
        series[1].1.push(mo);
        series[2].1.push(ra);
        rows.push(format!("{count},{},{na},{mo},{ra}", os.len()));
    }
    println!("\n{}", ascii_bars(&labels, &series));
    write_csv(
        &opts.out_file("fig7a.csv"),
        "covering_rules,configs,naive_accuracy,restricted_model_accuracy,random_accuracy",
        &rows,
    );
    write_stats(&opts, "fig7a", &stats);
    manifest.finish(&opts, &recorder, &["fig7a.csv"]);
}
