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
use experiments::figures::{self, Evaluated};
use experiments::harness::{collect_configs, ConfigClass};
use experiments::Run;

fn main() {
    Run::main("fig6", |run| {
        let (configs, reports) = collect_configs(
            run,
            ConfigClass::OptimalDiffersFromTarget,
            &[AttackerKind::Naive, AttackerKind::Model],
        )?;
        println!(
            "{} configurations (detector-feasible, optimal ≠ target)\n",
            configs.len()
        );
        let fig6: Vec<Evaluated> = configs
            .iter()
            .zip(&reports)
            .map(|((scenario, _), report)| (scenario, report.as_ref()))
            .collect();
        figures::fig6(run, &fig6);
        Ok(())
    })
}
