//! Determinism regression tests for the parallel trial engine.
//!
//! Contract (see `attack::trial` and DESIGN.md): for a given seed, the
//! `TrialReport` produced under `ExecPolicy::Parallel { .. }` is
//! bit-identical to the serial report, for any thread count. Each trial's
//! RNG streams are pure functions of `(seed, trial index, attacker
//! index)`, and the confusion-matrix reduction is commutative integer
//! addition, so scheduling order cannot leak into the result.

use attack::sweep::{sweep_policy, SweepParameter};
use attack::{plan_attack, run_trials_policy, run_trials_with_policy, AttackerKind, ExecPolicy};
use netsim::NetConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::useq::Evaluator;
use traffic::{NetworkScenario, ScenarioSampler};

/// Samples a detector-feasible scenario from a small configuration class.
fn scenario(seed: u64, bits: u32, n_rules: usize, capacity: usize) -> NetworkScenario {
    let sampler = ScenarioSampler {
        bits,
        n_rules,
        capacity,
        ..ScenarioSampler::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    sampler.sample_forced((0.3, 0.7), &mut rng)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn parallel_reports_bit_identical_across_scenarios_and_thread_counts() {
    let scenarios = [scenario(11, 3, 6, 3), scenario(23, 4, 12, 6)];
    let kinds = [
        AttackerKind::Naive,
        AttackerKind::Model,
        AttackerKind::RestrictedModel,
        AttackerKind::Random,
    ];
    for (i, sc) in scenarios.iter().enumerate() {
        let plan = plan_attack(sc, Evaluator::mean_field()).expect("plan");
        let seed = 0xC0FFEE ^ i as u64;
        let trials = 23; // odd on purpose: uneven chunking across workers
        let serial = run_trials_policy(sc, &plan, &kinds, trials, seed, ExecPolicy::Serial);
        for threads in THREAD_COUNTS {
            let parallel = run_trials_policy(
                sc,
                &plan,
                &kinds,
                trials,
                seed,
                ExecPolicy::Parallel { threads },
            );
            assert_eq!(
                serial, parallel,
                "scenario {i}: parallel({threads}) diverged from serial at seed {seed:#x}"
            );
        }
    }
}

#[test]
fn parallel_sweep_bit_identical_across_thread_counts() {
    let sc = scenario(11, 3, 6, 3);
    let kinds = [AttackerKind::Naive, AttackerKind::Model];
    let values = [1.0, 2.0, 4.0, 6.0];
    let serial = sweep_policy(
        &sc,
        SweepParameter::Capacity,
        &values,
        &kinds,
        9,
        77,
        ExecPolicy::Serial,
    )
    .expect("serial sweep");
    for threads in THREAD_COUNTS {
        let parallel = sweep_policy(
            &sc,
            SweepParameter::Capacity,
            &values,
            &kinds,
            9,
            77,
            ExecPolicy::Parallel { threads },
        )
        .expect("parallel sweep");
        assert_eq!(
            serial, parallel,
            "sweep with {threads} thread(s) diverged from serial"
        );
    }
}

#[test]
fn auto_policy_matches_serial() {
    // `auto` picks whatever the host offers; results must still match.
    let sc = scenario(23, 4, 12, 6);
    let kinds = [AttackerKind::Naive, AttackerKind::Model];
    let plan = plan_attack(&sc, Evaluator::mean_field()).expect("plan");
    let serial = run_trials_policy(&sc, &plan, &kinds, 15, 5, ExecPolicy::Serial);
    let auto = run_trials_policy(&sc, &plan, &kinds, 15, 5, ExecPolicy::auto());
    assert_eq!(serial, auto);
}

#[test]
fn fat_tree_batch_bit_identical_and_pinned() {
    // A multi-hop fabric: on a k = 8 fat tree (80 switches) the probe
    // crosses five switches, proactive by default and reactive with
    // `transit_reactive`. The pinned confusion counts and ingress cache
    // counters come from the simulator that gave every switch of the
    // fabric its own state, so they also pin that keeping state only on
    // the ingress→server path changes no result.
    let sc = scenario(23, 4, 12, 6);
    let plan = plan_attack(&sc, Evaluator::mean_field()).expect("plan");
    let kinds = [
        AttackerKind::Naive,
        AttackerKind::Model,
        AttackerKind::RestrictedModel,
        AttackerKind::Random,
    ];
    // Per attacker: [tp, tn, fp, fn, inconclusive].
    type Confusion = [[u64; 5]; 4];
    // Per attacker: [hits, misses, uncovered, installs, evictions, padded].
    type CacheCounts = [[u64; 6]; 4];
    let pinned: [(bool, Confusion, CacheCounts); 2] = [
        (
            false,
            [
                [13, 0, 8, 2, 0],
                [13, 0, 8, 2, 0],
                [15, 0, 8, 0, 0],
                [12, 4, 4, 3, 0],
            ],
            [
                [1404, 1098, 130, 1092, 0, 0],
                [1403, 1099, 130, 1094, 0, 0],
                [1398, 1104, 130, 1098, 0, 0],
                [1382, 1097, 130, 1091, 0, 0],
            ],
        ),
        (
            true,
            [
                [12, 0, 8, 3, 0],
                [12, 0, 8, 3, 0],
                [15, 0, 8, 0, 0],
                [12, 4, 4, 3, 0],
            ],
            [
                [1405, 1097, 130, 1093, 0, 0],
                [1402, 1100, 130, 1093, 0, 0],
                [1402, 1100, 130, 1095, 0, 0],
                [1385, 1094, 130, 1090, 0, 0],
            ],
        ),
    ];
    for (transit_reactive, confusion, cache) in pinned {
        let mut net = NetConfig::fat_tree(sc.rules.clone(), 8, sc.capacity, sc.delta);
        net.transit_reactive = transit_reactive;
        let run = |policy| run_trials_with_policy(&sc, &plan, &kinds, 23, 0xFA7_7EE, &net, policy);
        let serial = run(ExecPolicy::Serial);
        for threads in THREAD_COUNTS {
            assert_eq!(
                serial,
                run(ExecPolicy::Parallel { threads }),
                "transit_reactive {transit_reactive}: parallel({threads}) diverged from serial"
            );
        }
        let got: Vec<[u64; 5]> = serial
            .by_attacker
            .iter()
            .map(|(_, a)| [a.tp, a.tn, a.fp, a.fn_, a.inconclusive])
            .collect();
        assert_eq!(got, confusion, "transit_reactive {transit_reactive}");
        let got: Vec<[u64; 6]> = serial
            .cache_stats
            .iter()
            .map(|s| {
                [
                    s.hits,
                    s.misses,
                    s.uncovered,
                    s.installs,
                    s.evictions,
                    s.padded,
                ]
            })
            .collect();
        assert_eq!(got, cache, "transit_reactive {transit_reactive}");
    }
}
