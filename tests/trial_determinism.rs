//! Determinism regression tests for the parallel trial engine.
//!
//! Contract (see `attack::trial` and DESIGN.md): for a given seed, the
//! `TrialReport` produced under `ExecPolicy::Parallel { .. }` is
//! bit-identical to the serial report, for any thread count. Each trial's
//! RNG streams are pure functions of `(seed, trial index, attacker
//! index)`, and the confusion-matrix reduction is commutative integer
//! addition, so scheduling order cannot leak into the result.

use attack::{
    plan_attack, scenario_net_config, AttackerKind, ExecPolicy, ProbePolicy, TrialReport, TrialRun,
};
use flowspace::FlowId;
use ftcache::PolicyKind;
use netsim::{FaultPlan, FaultStats, Gaussian, JitterBursts, NetConfig, Simulation, SwitchStats};
use obs::manifest::fnv1a;
use obs::{FlightDump, FlightRecorder, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::useq::Evaluator;
use traffic::{poisson, NetworkScenario, ScenarioSampler};

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
        let run = TrialRun {
            scenario: sc,
            plan: &plan,
            kinds: &kinds,
            trials: 23, // odd on purpose: uneven chunking across workers
            seed,
            net: &scenario_net_config(sc),
            robust: None,
        };
        let serial = run.run(ExecPolicy::Serial);
        for threads in THREAD_COUNTS {
            let parallel = run.run(ExecPolicy::Parallel { threads });
            assert_eq!(
                serial, parallel,
                "scenario {i}: parallel({threads}) diverged from serial at seed {seed:#x}"
            );
        }
    }
}

#[test]
fn auto_policy_matches_serial() {
    // `auto` picks whatever the host offers; results must still match.
    let sc = scenario(23, 4, 12, 6);
    let kinds = [AttackerKind::Naive, AttackerKind::Model];
    let plan = plan_attack(&sc, Evaluator::mean_field()).expect("plan");
    let run = TrialRun {
        scenario: &sc,
        plan: &plan,
        kinds: &kinds,
        trials: 15,
        seed: 5,
        net: &scenario_net_config(&sc),
        robust: None,
    };
    let serial = run.run(ExecPolicy::Serial);
    let auto = run.run(ExecPolicy::auto());
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
        let run = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 23,
            seed: 0xFA7_7EE,
            net: &net,
            robust: None,
        };
        let serial = run.run(ExecPolicy::Serial);
        for threads in THREAD_COUNTS {
            assert_eq!(
                serial,
                run.run(ExecPolicy::Parallel { threads }),
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

/// One attacker's row of a pinned batch: confusion counts `[tp, tn, fp,
/// fn, inconclusive]`, robust-loop `fault_counters` `[probes, timeouts,
/// retries, outliers, inconclusive, recalibrations]`, simulator
/// `sim_faults` `[packets_dropped, packet_ins_lost, flow_mods_lost,
/// flow_mods_delayed, flow_mods_rejected, probe_timeouts]` and ingress
/// `cache_stats` `[hits, misses, uncovered, installs, evictions,
/// padded]`.
type BatchRow = [u64; 23];

fn batch_rows(report: &TrialReport) -> Vec<BatchRow> {
    (0..report.by_attacker.len())
        .map(|i| {
            let a = &report.by_attacker[i].1;
            let c = &report.fault_counters[i];
            let f = &report.sim_faults[i];
            let s = &report.cache_stats[i];
            [
                a.tp,
                a.tn,
                a.fp,
                a.fn_,
                a.inconclusive,
                c.probes,
                c.timeouts,
                c.retries,
                c.outliers,
                c.inconclusive,
                c.recalibrations,
                f.packets_dropped,
                f.packet_ins_lost,
                f.flow_mods_lost,
                f.flow_mods_delayed,
                f.flow_mods_rejected,
                f.probe_timeouts,
                s.hits,
                s.misses,
                s.uncovered,
                s.installs,
                s.evictions,
                s.padded,
            ]
        })
        .collect()
}

/// The defense tournament's regime, capacity halved and λ doubled
/// (29–41% of installs evict here).
fn tournament_scenario() -> NetworkScenario {
    let base = ScenarioSampler::default();
    let sampler = ScenarioSampler {
        capacity: base.capacity / 2,
        lambda_max: base.lambda_max * 2.0,
        ..base
    };
    let mut rng = StdRng::seed_from_u64(0x7E5);
    sampler.sample_forced((0.2, 0.8), &mut rng)
}

const TOURNAMENT_KINDS: [AttackerKind; 3] = [
    AttackerKind::Naive,
    AttackerKind::Model,
    AttackerKind::Random,
];

#[test]
fn tournament_fault_batches_pinned() {
    // The tournament regime under uniform faults: packets park behind
    // controller queries that are lost, rejected or answered, and
    // probes time out and retry — paths the fault-free batches above
    // never take. The pins come from the simulator that tracked
    // in-flight queries in a per-switch set and parked packets in an
    // ordered map, with a timing-wheel event queue and a slab flow
    // store, so they also pin that the flat parked-packet table, the
    // run-plus-heap queue and the `ClockTable` switch tables change no
    // result.
    let sc = tournament_scenario();
    let plan = plan_attack(&sc, Evaluator::mean_field()).expect("plan");
    let kinds = TOURNAMENT_KINDS;
    let pinned: [(PolicyKind, f64, [BatchRow; 3]); 6] = [
        (
            PolicyKind::Srt,
            0.05,
            [
                [
                    4, 1, 11, 0, 0, // confusion
                    21, 5, 5, 0, 0, 0, // fault_counters
                    1050, 4, 2, 4, 1, 5, // sim_faults
                    4066, 180, 0, 172, 59, 0, // cache_stats
                ],
                [
                    4, 3, 7, 0, 2, // confusion
                    28, 14, 12, 0, 2, 0, // fault_counters
                    1012, 9, 7, 3, 3, 14, // sim_faults
                    4026, 227, 0, 206, 79, 0, // cache_stats
                ],
                [
                    0, 9, 3, 4, 0, // confusion
                    0, 0, 0, 0, 0, 0, // fault_counters
                    1029, 1, 10, 6, 4, 0, // sim_faults
                    3994, 258, 0, 241, 100, 0, // cache_stats
                ],
            ],
        ),
        (
            PolicyKind::Srt,
            0.15,
            [
                [
                    2, 1, 8, 0, 5, // confusion
                    29, 18, 13, 0, 5, 0, // fault_counters
                    2456, 25, 26, 19, 6, 18, // sim_faults
                    3521, 322, 0, 261, 98, 0, // cache_stats
                ],
                [
                    2, 4, 6, 1, 3, // confusion
                    27, 13, 11, 1, 3, 0, // fault_counters
                    2508, 20, 30, 21, 5, 13, // sim_faults
                    3520, 305, 0, 250, 86, 0, // cache_stats
                ],
                [
                    0, 9, 3, 4, 0, // confusion
                    0, 0, 0, 0, 0, 0, // fault_counters
                    2485, 14, 14, 23, 5, 0, // sim_faults
                    3564, 259, 0, 224, 64, 0, // cache_stats
                ],
            ],
        ),
        (
            PolicyKind::Lru,
            0.05,
            [
                [
                    4, 1, 11, 0, 0, // confusion
                    23, 7, 7, 0, 0, 0, // fault_counters
                    1045, 4, 2, 7, 2, 7, // sim_faults
                    4063, 183, 0, 174, 55, 0, // cache_stats
                ],
                [
                    4, 3, 9, 0, 0, // confusion
                    21, 5, 5, 0, 0, 0, // fault_counters
                    1012, 7, 4, 3, 3, 5, // sim_faults
                    4006, 239, 0, 223, 87, 0, // cache_stats
                ],
                [
                    0, 9, 3, 4, 0, // confusion
                    0, 0, 0, 0, 0, 0, // fault_counters
                    1026, 1, 9, 5, 4, 0, // sim_faults
                    4048, 204, 0, 188, 65, 0, // cache_stats
                ],
            ],
        ),
        (
            PolicyKind::Lru,
            0.15,
            [
                [
                    0, 0, 9, 2, 5, // confusion
                    35, 24, 19, 0, 5, 0, // fault_counters
                    2458, 24, 29, 20, 6, 24, // sim_faults
                    3543, 305, 0, 241, 78, 0, // cache_stats
                ],
                [
                    2, 4, 4, 1, 5, // confusion
                    32, 21, 16, 0, 5, 0, // fault_counters
                    2514, 25, 25, 22, 2, 21, // sim_faults
                    3524, 306, 0, 254, 82, 0, // cache_stats
                ],
                [
                    0, 9, 3, 4, 0, // confusion
                    0, 0, 0, 0, 0, 0, // fault_counters
                    2487, 17, 15, 22, 5, 0, // sim_faults
                    3557, 266, 0, 226, 66, 0, // cache_stats
                ],
            ],
        ),
        (
            PolicyKind::Fdrc,
            0.05,
            [
                [
                    4, 1, 11, 0, 0, // confusion
                    22, 6, 6, 0, 0, 0, // fault_counters
                    1045, 5, 3, 3, 0, 6, // sim_faults
                    4052, 194, 0, 185, 64, 0, // cache_stats
                ],
                [
                    4, 3, 9, 0, 0, // confusion
                    19, 3, 3, 0, 0, 0, // fault_counters
                    1001, 6, 4, 7, 3, 3, // sim_faults
                    4007, 237, 0, 222, 91, 0, // cache_stats
                ],
                [
                    0, 9, 3, 4, 0, // confusion
                    0, 0, 0, 0, 0, 0, // fault_counters
                    1029, 2, 8, 5, 4, 0, // sim_faults
                    4030, 222, 0, 207, 73, 0, // cache_stats
                ],
            ],
        ),
        (
            PolicyKind::Fdrc,
            0.15,
            [
                [
                    1, 0, 9, 1, 5, // confusion
                    37, 26, 21, 0, 5, 0, // fault_counters
                    2459, 27, 28, 21, 6, 26, // sim_faults
                    3520, 327, 0, 261, 90, 0, // cache_stats
                ],
                [
                    1, 5, 3, 1, 6, // confusion
                    32, 22, 16, 0, 6, 0, // fault_counters
                    2507, 31, 24, 19, 4, 22, // sim_faults
                    3518, 312, 0, 253, 90, 0, // cache_stats
                ],
                [
                    0, 9, 3, 4, 0, // confusion
                    0, 0, 0, 0, 0, 0, // fault_counters
                    2482, 17, 16, 22, 5, 0, // sim_faults
                    3551, 272, 0, 231, 69, 0, // cache_stats
                ],
            ],
        ),
    ];
    for (policy, rate, want) in pinned {
        let mut net = scenario_net_config(&sc);
        net.policy = policy;
        net.faults = FaultPlan::uniform(rate);
        let report = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 16,
            seed: 0x7E5_F417,
            net: &net,
            robust: Some(&ProbePolicy::default()),
        }
        .run(ExecPolicy::Serial);
        assert_eq!(batch_rows(&report), want, "{policy} at fault rate {rate}");
    }
}

#[test]
fn tournament_flight_contents_pinned() {
    // One traced batch of the tournament regime at a 15% fault rate:
    // every probe's chain through parked packets, lost and rejected
    // flow-mods, timeouts and retries. The pins come from the simulator
    // that stamped each event into a second, packet-level text trace
    // beside the flight recorder, so they pin that the flight recorder,
    // now the only event sink, still records the same events in the
    // same order.
    let sc = tournament_scenario();
    let plan = plan_attack(&sc, Evaluator::mean_field()).expect("plan");
    let mut net = scenario_net_config(&sc);
    net.policy = PolicyKind::Srt;
    net.faults = FaultPlan::uniform(0.15);
    let mut flight = FlightRecorder::enabled();
    let _ = TrialRun {
        scenario: &sc,
        plan: &plan,
        kinds: &TOURNAMENT_KINDS,
        trials: 16,
        seed: 0x7E5_F417,
        net: &net,
        robust: Some(&ProbePolicy::default()),
    }
    .run_observed(
        ExecPolicy::Serial,
        &mut Recorder::disabled(),
        0,
        &mut flight,
    );
    assert_eq!((flight.len(), flight.dropped()), (620, 0));
    let dump = FlightDump::parse(&flight.dump_string("pin")).expect("dump reads back");
    let counts: Vec<(&str, u64)> = dump.counts_by_kind().into_iter().collect();
    assert_eq!(
        counts,
        [
            ("classified", 24),
            ("component", 216),
            ("delivered", 25),
            ("fault", 62),
            ("hit", 123),
            ("inject", 56),
            ("install", 3),
            ("miss", 3),
            ("outlier", 1),
            ("packet_in", 3),
            ("retry", 24),
            ("span", 32),
            ("verdict", 48),
        ]
    );
    assert_eq!(
        fnv1a(flight.dump_string("pin").as_bytes()),
        0x195b_4197_8e3d_6cb1
    );
}

/// Replays `trials` Poisson schedules of `sc` on `net`, probing every
/// flow after each, and returns an FNV-1a digest of every probe's
/// `rtt.to_bits()` and `hit` (a timed-out probe hashes as `u64::MAX`),
/// with the summed ingress and fault counters. Every probe RTT reads the
/// latency stream after all the genuine traffic before it, so the digest
/// moves with any draw the event loop adds, drops or reorders.
fn probe_rtt_digest(
    sc: &NetworkScenario,
    net: &NetConfig,
    trials: u64,
) -> (u64, SwitchStats, FaultStats) {
    let mut bytes = Vec::new();
    let (mut ingress, mut faults) = (SwitchStats::default(), FaultStats::default());
    for trial in 0..trials {
        let mut traffic_rng = StdRng::seed_from_u64(0x5EED ^ trial);
        let schedule = poisson::schedule(&sc.lambdas, 0.0, sc.window_secs, &mut traffic_rng);
        let mut sim = Simulation::new(net, 0xB175 ^ (trial << 20));
        for &(f, t) in &schedule {
            sim.schedule_flow(f, t);
        }
        sim.run_until(sc.window_secs);
        for flow in 0..sc.lambdas.len() {
            match sim.probe_with_timeout(FlowId(flow as u32), 0.1) {
                Some(obs) => {
                    bytes.extend_from_slice(&obs.rtt.to_bits().to_le_bytes());
                    bytes.push(u8::from(obs.hit));
                }
                None => bytes.extend_from_slice(&u64::MAX.to_le_bytes()),
            }
        }
        ingress.merge(&sim.ingress_stats());
        faults.merge(&sim.fault_stats());
    }
    (fnv1a(&bytes), ingress, faults)
}

#[test]
fn probe_rtt_bits_pinned() {
    // The RTT bits themselves, not only verdicts and counters: on the
    // evaluation topology (4 reply segments), the same under uniform 15%
    // faults (loss, flow-mod faults, jitter bursts) and with bursts most
    // of the time, and on a k = 4 fat tree (a 5-switch path, 6 reply
    // segments).
    let sc = tournament_scenario();
    let eval = scenario_net_config(&sc);
    let mut faulty = scenario_net_config(&sc);
    faulty.faults = FaultPlan::uniform(0.15);
    // Bursts ~80% of the time, so genuine replies draw jitter extras.
    let mut bursty = faulty.clone();
    bursty.faults.jitter = Some(JitterBursts {
        period_secs: 0.5,
        burst_secs: 2.0,
        extra: Gaussian {
            mean: 0.6e-3,
            std: 0.3e-3,
        },
    });
    let fat = NetConfig::fat_tree(sc.rules.clone(), 4, sc.capacity, sc.delta);
    // Per network: the digest, ingress `[hits, misses, uncovered,
    // installs, evictions, padded]` and faults `[packets_dropped,
    // packet_ins_lost, flow_mods_lost, flow_mods_delayed,
    // flow_mods_rejected, probe_timeouts]`.
    type Pin = (u64, [u64; 6], [u64; 6]);
    let cases: [(&str, &NetConfig, Pin); 4] = [
        (
            "eval",
            &eval,
            (0x4e48_e39a_12ee_a4a3, [1627, 61, 0, 61, 19, 0], [0; 6]),
        ),
        (
            "eval, 15% faults",
            &faulty,
            (
                0x7433_d785_b882_8cf9,
                [1341, 99, 0, 79, 22, 0],
                [914, 8, 8, 9, 2, 52],
            ),
        ),
        (
            "eval, 15% faults, long bursts",
            &bursty,
            (
                0x5dd6_5e7c_3640_4ee2,
                [1351, 95, 0, 82, 21, 0],
                [937, 3, 10, 11, 0, 52],
            ),
        ),
        (
            "fat tree k=4",
            &fat,
            (0x9ae7_1475_61e0_821d, [1626, 62, 0, 61, 19, 0], [0; 6]),
        ),
    ];
    for (name, net, pin) in cases {
        let (got, s, f) = probe_rtt_digest(&sc, net, 6);
        let s = [
            s.hits,
            s.misses,
            s.uncovered,
            s.installs,
            s.evictions,
            s.padded,
        ];
        let f = [
            f.packets_dropped,
            f.packet_ins_lost,
            f.flow_mods_lost,
            f.flow_mods_delayed,
            f.flow_mods_rejected,
            f.probe_timeouts,
        ];
        assert_eq!((got, s, f), pin, "{name}: computed {got:#x}");
    }
}
