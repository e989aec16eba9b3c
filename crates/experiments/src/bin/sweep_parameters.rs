//! **A2 (ablation, ours)** — attack sensitivity to the scenario
//! parameters the paper motivates: cache capacity (§III-B3), rule timeout
//! scale, and window length.
//!
//! Expected shapes: accuracy recovers as capacity grows (fewer false
//! negatives from eviction); longer TTLs widen the observable window and
//! raise hit-side information; longer windows dilute it.
//!
//! One cell per (parameter × scenario × value), each a plan and a trial
//! batch, on the supervised runner, [`experiments::Run`].

use attack::sweep::SweepParameter;
use attack::{scenario_net_config, AttackerKind, TrialRun};
use experiments::harness::{default_plan, detector_plan, mean, sampler_for};
use experiments::run::{complete, Run};
use std::sync::Arc;

const KINDS: [AttackerKind; 2] = [AttackerKind::Model, AttackerKind::Random];

const SWEEPS: [(SweepParameter, &[f64]); 3] = [
    (SweepParameter::Capacity, &[1.0, 2.0, 4.0, 6.0, 9.0, 12.0]),
    (SweepParameter::TimeoutScale, &[0.25, 0.5, 1.0, 2.0, 4.0]),
    (SweepParameter::WindowSecs, &[2.0, 5.0, 10.0, 15.0, 30.0]),
];

fn main() {
    Run::main("sweep_parameters", |run| {
        let opts = run.opts;
        // Collect a handful of detector-feasible scenarios once.
        let scenarios = Arc::new(run.sample(
            &sampler_for(opts),
            (0.2, 0.9),
            opts.configs.min(12),
            600,
            |sc| detector_plan(sc, opts.policy),
        ));
        let n = scenarios.len();
        println!("{n} scenarios\n");
        // The grid's (parameter, scenario, value) indices, in cell order.
        let grid: Vec<(usize, usize, usize)> = SWEEPS
            .iter()
            .enumerate()
            .flat_map(|(p, (_, values))| {
                (0..n).flat_map(move |si| (0..values.len()).map(move |vi| (p, si, vi)))
            })
            .collect();
        // A cell is `None` when its swept scenario admits no plan;
        // otherwise the plan's information gain and the trials.
        let cells = run.grid(&scenarios, grid.len(), move |scenarios, cell| {
            let (p, si, vi) = grid[cell.unit];
            let (param, values) = SWEEPS[p];
            let sc = param.apply(&scenarios[si].0, values[vi]);
            let plan = default_plan(&sc, cell.opts.policy).ok()?;
            let report = cell.trials(&TrialRun {
                scenario: &sc,
                plan: &plan,
                kinds: &KINDS,
                trials: cell.opts.trials,
                seed: cell.opts.seed ^ si as u64 ^ ((vi as u64) << 8),
                net: &scenario_net_config(&sc),
                robust: None,
            });
            Some((plan.optimal.info_gain, report))
        })?;

        let mut rows = Vec::new();
        let mut start = 0;
        for &(param, values) in &SWEEPS {
            let cells = &cells[start..start + n * values.len()];
            start += cells.len();
            let Some(group) = complete(cells) else {
                continue;
            };
            println!("sweep: {}", param.name());
            // A scenario with a value that admits no plan drops out.
            let swept: Vec<Vec<_>> = group
                .chunks(values.len())
                .filter_map(|points| points.iter().map(|c| c.as_ref()).collect())
                .collect();
            for (vi, &v) in values.iter().enumerate() {
                let am = mean(swept.iter().map(|points| points[vi].1.accuracy(KINDS[0])));
                let ar = mean(swept.iter().map(|points| points[vi].1.accuracy(KINDS[1])));
                let g = mean(swept.iter().map(|points| points[vi].0));
                println!("  {v:>6}: model {am:.3}  random {ar:.3}  info gain {g:.5}");
                rows.push(format!("{},{v},{am},{ar},{g}", param.name()));
            }
            println!();
        }
        run.write_csv(
            "sweep_parameters.csv",
            "parameter,value,model_accuracy,random_accuracy,info_gain",
            &rows,
        );
        Ok(())
    })
}
