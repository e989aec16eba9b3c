//! One-pass evaluation suite: collects detector-feasible configurations
//! once, runs all four §VI-B attackers on each, and emits the CSVs for
//! Figures 6a, 6b, 7a and 7b together (Fig. 6 from the configurations
//! whose optimal probe differs from the target; the `fig6` program
//! collects that class directly), plus the `suite_robust.csv` sidecar.

use attack::AttackerKind;
use experiments::figures::{self, Evaluated};
use experiments::harness::{collect_configs, mean, ConfigClass};
use experiments::run::{complete, Run};

const KINDS: [AttackerKind; 4] = [
    AttackerKind::Naive,
    AttackerKind::Model,
    AttackerKind::RestrictedModel,
    AttackerKind::Random,
];

fn main() {
    Run::main("evaluate_suite", |run| {
        let (configs, reports) = collect_configs(run, ConfigClass::DetectorFeasible, &KINDS)?;
        let evaluated = configs.iter().zip(&reports);
        let fig7: Vec<Evaluated> = evaluated
            .clone()
            .map(|((scenario, _), report)| (scenario, report.as_ref()))
            .collect();
        let fig6: Vec<Evaluated> = evaluated
            .filter(|((scenario, plan), _)| plan.optimal_differs_from_target(scenario.target))
            .map(|((scenario, _), report)| (scenario, report.as_ref()))
            .collect();
        println!(
            "{} detector-feasible configurations; {} with optimal probe ≠ target\n",
            fig7.len(),
            fig6.len()
        );

        figures::fig6(run, &fig6);
        figures::fig7(run, &fig7);

        // ---- Robustness sidecar ----
        // Per-attacker answer bookkeeping pooled over every configuration
        // (so it has rows only when all have their trials). This suite
        // runs fault-free, so the fault tallies are all zero and the
        // answer rate is 1.0 — the columns exist so that fault-injected
        // runs (see `fault_sweep`) and this baseline stay diffable.
        let all = complete(&reports);
        let mut rows = Vec::new();
        if let Some(all) = &all {
            for &k in &KINDS {
                let mut acc = attack::Accuracy::default();
                let mut counters = attack::FaultCounters::default();
                for report in all {
                    acc.merge(report.entry_for(k));
                    counters.merge(report.fault_counters(k));
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
        }
        run.write_csv(
            "suite_robust.csv",
            "attacker,answered,inconclusive,answer_rate,probes,timeouts,retries,outliers",
            &rows,
        );

        // Aggregate summary for EXPERIMENTS.md.
        if let Some(all) = all {
            let overall = |k| mean(all.iter().map(|r| r.accuracy(k)));
            println!(
                "overall accuracy: naive {:.3}  model {:.3}  restricted {:.3}  random {:.3}",
                overall(AttackerKind::Naive),
                overall(AttackerKind::Model),
                overall(AttackerKind::RestrictedModel),
                overall(AttackerKind::Random)
            );
        }
        Ok(())
    })
}
