//! Benchmarks for the deterministic parallel trial engine: serial vs
//! parallel execution of the Monte-Carlo evaluation loop at 100 and 1000
//! trials. Parallel results are bit-identical to serial at the same seed
//! (see `attack::trial`), so this measures pure scheduling overhead /
//! speedup.
//!
//! Baseline numbers are recorded in `results/bench_trial_engine.txt`.

use attack::{plan_attack, scenario_net_config, AttackerKind, ExecPolicy, TrialRun};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recon_bench::paper_scale_scenario;
use recon_core::useq::Evaluator;

fn bench_trial_engine(c: &mut Criterion) {
    let sc = paper_scale_scenario(9);
    let plan = plan_attack(&sc, Evaluator::mean_field()).expect("plan");
    let kinds = [
        AttackerKind::Naive,
        AttackerKind::Model,
        AttackerKind::Random,
    ];
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let net = scenario_net_config(&sc);
    let batch = |trials| TrialRun {
        scenario: &sc,
        plan: &plan,
        kinds: &kinds,
        trials,
        seed: 3,
        net: &net,
        robust: None,
    };

    let mut g = c.benchmark_group("trial_engine");
    g.sample_size(10);
    for &trials in &[100usize, 1000] {
        g.bench_with_input(BenchmarkId::new("serial", trials), &trials, |b, &n| {
            b.iter(|| batch(n).run(ExecPolicy::Serial));
        });
        for &threads in &[2usize, 4] {
            let label = format!("parallel{threads}");
            g.bench_with_input(BenchmarkId::new(&label, trials), &trials, |b, &n| {
                b.iter(|| batch(n).run(ExecPolicy::Parallel { threads }));
            });
        }
        let auto = ExecPolicy::auto();
        let label = format!("auto_{available}cores");
        g.bench_with_input(BenchmarkId::new(&label, trials), &trials, |b, &n| {
            b.iter(|| batch(n).run(auto));
        });
        // Supervision overhead: the crash-safe job layer with
        // checkpointing off (one worker thread + channel per unit) must
        // be within noise of the bare serial engine.
        let sc_arc = std::sync::Arc::new(sc.clone());
        let plan_arc = std::sync::Arc::new(plan.clone());
        g.bench_with_input(
            BenchmarkId::new("supervised_ckpt_off", trials),
            &trials,
            |b, &n| {
                b.iter(|| {
                    let sc = std::sync::Arc::clone(&sc_arc);
                    let plan = std::sync::Arc::clone(&plan_arc);
                    let spec = jobs::JobSpec::new("bench_supervised", 1, 0);
                    jobs::run_units(&spec, move |_unit, _rec| {
                        TrialRun {
                            scenario: &sc,
                            plan: &plan,
                            kinds: &kinds,
                            trials: n,
                            seed: 3,
                            net: &scenario_net_config(&sc),
                            robust: None,
                        }
                        .run(ExecPolicy::Serial)
                    })
                    .expect("supervised bench job")
                });
            },
        );
        // Observability overhead: a disabled recorder must be free
        // (within noise of `serial`); enabled shows the metrics cost.
        for (label, enabled) in [("serial_obs_off", false), ("serial_obs_on", true)] {
            g.bench_with_input(BenchmarkId::new(label, trials), &trials, |b, &n| {
                b.iter(|| {
                    let mut rec = if enabled {
                        obs::Recorder::enabled()
                    } else {
                        obs::Recorder::disabled()
                    };
                    batch(n).run_observed(
                        ExecPolicy::Serial,
                        &mut rec,
                        0,
                        &mut obs::FlightRecorder::disabled(),
                    )
                });
            });
        }
        // Flight-recorder overhead: the disabled recorder is a
        // pointer-sized no-op (within noise of `serial_obs_off`);
        // enabled shows the causal-event logging cost.
        for (label, traced) in [("serial_trace_off", false), ("serial_trace_on", true)] {
            g.bench_with_input(BenchmarkId::new(label, trials), &trials, |b, &n| {
                b.iter(|| {
                    let mut flight = if traced {
                        obs::FlightRecorder::enabled()
                    } else {
                        obs::FlightRecorder::disabled()
                    };
                    batch(n).run_observed(
                        ExecPolicy::Serial,
                        &mut obs::Recorder::disabled(),
                        0,
                        &mut flight,
                    )
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_trial_engine);
criterion_main!(benches);
