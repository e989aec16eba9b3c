//! Benchmarks for the discrete-event network simulator (T1's measurement
//! engine): probe latency, traffic replay throughput, and full trial cost.

use attack::{plan_attack, AttackerKind, ExecPolicy, TrialRun};
use criterion::{criterion_group, criterion_main, Criterion};
use flowspace::FlowId;
use netsim::{NetConfig, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_bench::paper_scale_scenario;
use recon_core::useq::Evaluator;
use traffic::poisson;

fn bench_simulator(c: &mut Criterion) {
    let sc = paper_scale_scenario(9);
    let net = attack::scenario_net_config(&sc);

    let mut g = c.benchmark_group("simulator");
    g.bench_function("probe_cold_plus_warm", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(&net, 1);
            let a = sim.probe(FlowId(0));
            let b2 = sim.probe(FlowId(0));
            (a.rtt, b2.rtt)
        });
    });

    // The same replay on the evaluation topology (4 reply segments) and
    // on a k = 16 fat tree (a 5-switch path, 6 reply segments).
    let fat_tree = NetConfig::fat_tree(sc.rules.clone(), 16, sc.capacity, sc.delta);
    let mut rng = StdRng::seed_from_u64(4);
    let schedule = poisson::schedule(&sc.lambdas, 0.0, sc.window_secs, &mut rng);
    for (name, net) in [
        ("replay_15s_window_16_flows", &net),
        ("replay_15s_window_16_flows_fat_tree_k16", &fat_tree),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut sim = Simulation::new(net, 2);
                for &(f, t) in &schedule {
                    sim.schedule_flow(f, t);
                }
                sim.run_until(sc.window_secs);
                sim.ingress_stats()
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let plan = plan_attack(&sc, Evaluator::mean_field()).expect("plan");
    g.bench_function("ten_trials_three_attackers", |b| {
        b.iter(|| {
            TrialRun {
                scenario: &sc,
                plan: &plan,
                kinds: &[
                    AttackerKind::Naive,
                    AttackerKind::Model,
                    AttackerKind::Random,
                ],
                trials: 10,
                seed: 3,
                net: &net,
                robust: None,
            }
            .run(ExecPolicy::auto())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
