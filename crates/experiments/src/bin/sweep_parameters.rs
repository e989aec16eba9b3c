//! **A2 (ablation, ours)** — attack sensitivity to the scenario
//! parameters the paper motivates: cache capacity (§III-B3), rule timeout
//! scale, and window length.
//!
//! Expected shapes: accuracy recovers as capacity grows (fewer false
//! negatives from eviction); longer TTLs widen the observable window and
//! raise hit-side information; longer windows dilute it.

use attack::sweep::{sweep, SweepParameter};
use attack::{AttackerKind, RunStats};
use experiments::harness::{
    detector_plan, mean, sample_configs, sampler_for, write_csv, write_stats, RunManifest,
};
use experiments::ExpOpts;

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("sweep_parameters");
    let manifest = RunManifest::begin("sweep_parameters");
    let recorder = opts.recorder();
    let kinds = [AttackerKind::Model, AttackerKind::Random];
    let sweeps: [(SweepParameter, Vec<f64>); 3] = [
        (
            SweepParameter::Capacity,
            vec![1.0, 2.0, 4.0, 6.0, 9.0, 12.0],
        ),
        (SweepParameter::TimeoutScale, vec![0.25, 0.5, 1.0, 2.0, 4.0]),
        (SweepParameter::WindowSecs, vec![2.0, 5.0, 10.0, 15.0, 30.0]),
    ];

    // Collect a handful of detector-feasible scenarios once.
    let scenarios = sample_configs(
        &sampler_for(&opts),
        opts.seed,
        (0.2, 0.9),
        opts.configs.min(12),
        600,
        |sc| detector_plan(sc, opts.policy),
    );
    println!("{} scenarios\n", scenarios.len());

    let mut rows = Vec::new();
    let mut total_stats = RunStats {
        trials: 0,
        threads: opts.policy.threads(),
        wall_secs: 0.0,
    };
    for (param, values) in &sweeps {
        println!("sweep: {}", param.name());
        // accuracy[value][kind] across scenarios.
        let mut acc = vec![vec![Vec::new(); kinds.len()]; values.len()];
        let mut gains = vec![Vec::new(); values.len()];
        for (si, (sc, _)) in scenarios.iter().enumerate() {
            let (result, stats) =
                RunStats::measure(opts.policy, values.len() * opts.trials, || {
                    sweep(
                        sc,
                        *param,
                        values,
                        &kinds,
                        opts.trials,
                        opts.seed ^ si as u64,
                        opts.policy,
                    )
                });
            total_stats.absorb(&stats);
            if let Ok(points) = result {
                for (vi, p) in points.iter().enumerate() {
                    for (k, &a) in p.accuracy.iter().enumerate() {
                        acc[vi][k].push(a);
                    }
                    gains[vi].push(p.info_gain);
                }
            }
        }
        for (vi, &v) in values.iter().enumerate() {
            let am = mean(acc[vi][0].iter().copied());
            let ar = mean(acc[vi][1].iter().copied());
            let g = mean(gains[vi].iter().copied());
            println!("  {v:>6}: model {am:.3}  random {ar:.3}  info gain {g:.5}");
            rows.push(format!("{},{v},{am},{ar},{g}", param.name()));
        }
        println!();
    }
    write_csv(
        &opts.out_file("sweep_parameters.csv"),
        "parameter,value,model_accuracy,random_accuracy,info_gain",
        &rows,
    );
    write_stats(&opts, "sweep_parameters", &total_stats);
    manifest.finish(&opts, &recorder, &["sweep_parameters.csv"]);
}
