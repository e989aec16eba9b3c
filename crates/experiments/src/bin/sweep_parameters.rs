//! **A2 (ablation, ours)** — attack sensitivity to the scenario
//! parameters the paper motivates: cache capacity (§III-B3), rule timeout
//! scale, and window length.
//!
//! Expected shapes: accuracy recovers as capacity grows (fewer false
//! negatives from eviction); longer TTLs widen the observable window and
//! raise hit-side information; longer windows dilute it.
//!
//! One cell per (parameter × scenario), each a whole
//! [`attack::sweep::sweep`], on the supervised runner, [`experiments::Run`].

use attack::sweep::{sweep, SweepParameter};
use attack::AttackerKind;
use experiments::harness::{detector_plan, mean, sampler_for};
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
        // A cell is `None` when a point of its sweep admits no plan.
        let cells = run.grid(&scenarios, SWEEPS.len() * n, |scenarios, cell| {
            let (p, si) = (cell.unit / scenarios.len(), cell.unit % scenarios.len());
            let (param, values) = SWEEPS[p];
            let o = cell.opts;
            sweep(
                &scenarios[si].0,
                param,
                values,
                &KINDS,
                o.trials,
                o.seed ^ si as u64,
                o.policy,
            )
            .ok()
        })?;

        let mut rows = Vec::new();
        for (p, &(param, values)) in SWEEPS.iter().enumerate() {
            let Some(group) = complete(&cells[p * n..(p + 1) * n]) else {
                continue;
            };
            println!("sweep: {}", param.name());
            let swept: Vec<_> = group.into_iter().flatten().collect();
            for (vi, &v) in values.iter().enumerate() {
                let am = mean(swept.iter().map(|points| points[vi].accuracy[0]));
                let ar = mean(swept.iter().map(|points| points[vi].accuracy[1]));
                let g = mean(swept.iter().map(|points| points[vi].info_gain));
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
