//! **Figure 6** (§VI-B): the model-based vs naive attacker over
//! configurations in which the model-calculated optimal probe differs
//! from the target. Writes `fig6a.csv` (average accuracy per bin of the
//! target's probability of absence) and `fig6b.csv` (empirical CDF over
//! configurations of the model's additive improvement over naive).
//!
//! As in the paper, configurations are sampled broadly and *then* binned
//! by their target's probability of absence; bins where the §VI-B detector
//! filter admits no configuration stay empty (at low absence probabilities
//! no 1-second-TTL rule can witness a 15-second window, so no detector
//! exists — see EXPERIMENTS.md).

use attack::AttackerKind;
use experiments::harness::{collect_configs, ConfigClass, RunManifest};
use experiments::{figures, ConfigOutcome, ExpOpts};

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("fig6");
    let manifest = RunManifest::begin("fig6");
    let mut recorder = opts.recorder();
    let outcomes = collect_configs(
        &opts,
        ConfigClass::OptimalDiffersFromTarget,
        (0.05, 0.95),
        &[AttackerKind::Naive, AttackerKind::Model],
        opts.configs,
        &mut recorder,
    );
    println!(
        "{} configurations (detector-feasible, optimal ≠ target)\n",
        outcomes.len()
    );
    let fig6: Vec<&ConfigOutcome> = outcomes.iter().collect();
    figures::fig6(&opts, &fig6);
    manifest.finish(&opts, &recorder, &["fig6a.csv", "fig6b.csv"]);
}
