//! Determinism gates for the flight recorder: tracing must be pure
//! observation. CSVs are byte-identical with tracing on or off at any
//! thread count, merged flight contents are independent of schedule and
//! merge order, every delivered probe's RTT decomposition reconciles to
//! float slack, and a traced interrupted run leaves a readable
//! `.flightrec.jsonl` behind for forensics.

use attack::{plan_attack, scenario_net_config, AttackerKind, ExecPolicy, ProbePolicy, TrialRun};
use obs::trace::{probe_ctx, validate_chrome_trace, TraceEv};
use obs::{FlightDump, FlightRecorder, Recorder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::useq::Evaluator;
use std::path::{Path, PathBuf};
use std::process::Command;
use traffic::{NetworkScenario, ScenarioSampler};

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("trace_determinism")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Runs the fault_sweep smoke hermetically and returns its exit code.
fn run_fault_sweep(dir: &Path, extra: &[&str]) -> i32 {
    let status = Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
        .args([
            "--seed",
            "7",
            "--configs",
            "2",
            "--trials",
            "5",
            "--fast",
            "--out",
        ])
        .arg(dir)
        .args(extra)
        .env_remove("FLOW_RECON_THREADS")
        .status()
        .expect("fault_sweep runs");
    status.code().expect("fault_sweep exits with a code")
}

fn scenario(seed: u64, absence: (f64, f64)) -> NetworkScenario {
    let sampler = ScenarioSampler {
        bits: 3,
        n_rules: 6,
        capacity: 3,
        delta: 0.05,
        window_secs: 10.0,
        ..ScenarioSampler::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    sampler.sample_forced(absence, &mut rng)
}

/// The tentpole acceptance gate: `--trace` must not move a single byte
/// of the fault_sweep CSV, at serial and parallel thread counts, while
/// producing the flight dump and the Perfetto export next to it.
#[test]
fn fault_sweep_csv_byte_identical_with_tracing_on_and_off() {
    let plain_dir = tmp("plain_t1");
    assert_eq!(run_fault_sweep(&plain_dir, &["--threads", "1"]), 0);
    let reference = std::fs::read(plain_dir.join("fault_sweep.csv")).expect("reference csv");
    assert!(
        !plain_dir.join("fault_sweep.flightrec.jsonl").exists(),
        "untraced runs must not write a flight dump"
    );

    for threads in ["1", "8"] {
        let dir = tmp(&format!("traced_t{threads}"));
        assert_eq!(run_fault_sweep(&dir, &["--threads", threads, "--trace"]), 0);
        let traced = std::fs::read(dir.join("fault_sweep.csv")).expect("traced csv");
        assert_eq!(
            traced, reference,
            "fault_sweep.csv differs with --trace at --threads {threads}"
        );

        let dump = std::fs::read_to_string(dir.join("fault_sweep.flightrec.jsonl"))
            .expect("traced run writes the flight dump");
        let dump = FlightDump::parse(&dump).expect("the flight dump reads back");
        assert_eq!(dump.source, "fault_sweep");
        assert!(!dump.records.is_empty(), "dump has records");

        let chrome = std::fs::read_to_string(dir.join("fault_sweep.trace.json"))
            .expect("traced run writes the Perfetto export");
        assert_eq!(validate_chrome_trace(&chrome), Ok(dump.records.len()));
    }
}

/// Every delivered probe in a traced fault_sweep-style smoke reconciles:
/// the components its dump records sum to its RTT within 1e-9.
#[test]
fn dump_reconciles_every_delivered_probe_in_smoke() {
    let sc = scenario(10, (0.3, 0.7));
    let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
    let kinds = [
        AttackerKind::Naive,
        AttackerKind::Model,
        AttackerKind::Random,
    ];
    let probe_policy = ProbePolicy::default();
    let mut checked = 0usize;
    for rate in [0.0, 0.05, 0.15] {
        let mut net = scenario_net_config(&sc);
        net.faults = netsim::FaultPlan::uniform(rate);
        let mut flight = FlightRecorder::enabled();
        let _ = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 10,
            seed: 7,
            net: &net,
            robust: Some(&probe_policy),
        }
        .run_observed(
            ExecPolicy::Serial,
            &mut Recorder::disabled(),
            0,
            &mut flight,
        );
        let dump = FlightDump::parse(&flight.dump_string("smoke")).expect("dump reads back");
        for (probe, b) in dump.delivered() {
            let residual = b.residual().expect("delivered probe has an rtt");
            assert!(
                residual.abs() < 1e-9,
                "rate {rate}: probe {probe:?} residual {residual} (rtt {:?}, total {})",
                b.rtt,
                b.total()
            );
            checked += 1;
        }
    }
    assert!(
        checked > 50,
        "smoke must deliver plenty of probes: {checked}"
    );
}

/// A traced kill-point run (the SIGINT-equivalent chaos gate) leaves a
/// flight dump that reads back, whose supervisor events record the
/// interrupt.
#[test]
fn interrupted_traced_run_dumps_parseable_flightrec() {
    let dir = tmp("traced_interrupt");
    let code = run_fault_sweep(
        &dir,
        &[
            "--threads",
            "1",
            "--trace",
            "--checkpoint-every",
            "1",
            "--kill-after-checkpoints",
            "1",
        ],
    );
    assert_eq!(code, 130, "kill-point run exits as interrupted");
    let dump = std::fs::read_to_string(dir.join("fault_sweep.flightrec.jsonl"))
        .expect("interrupted traced run dumps its flight");
    let dump = FlightDump::parse(&dump).expect("the flight dump reads back");
    let counts = dump.counts_by_kind();
    assert!(
        counts.contains_key("interrupted"),
        "supervisor must record the interrupt: {counts:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Merged flight contents are a pure function of the logged events:
    /// identical across thread counts {1, 2, 8} for the same inputs.
    #[test]
    fn flight_contents_identical_across_thread_counts(seed in 0u64..50, trials in 2usize..6) {
        let sc = scenario(11, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [AttackerKind::Naive, AttackerKind::Model];
        let mut net = scenario_net_config(&sc);
        net.faults = netsim::FaultPlan::uniform(0.1);
        let probe_policy = ProbePolicy::default();
        let mut reference: Option<FlightRecorder> = None;
        for threads in [1usize, 2, 8] {
            let policy = if threads == 1 {
                ExecPolicy::Serial
            } else {
                ExecPolicy::Parallel { threads }
            };
            let mut flight = FlightRecorder::enabled();
            let run = TrialRun {
                scenario: &sc,
                plan: &plan,
                kinds: &kinds,
                trials,
                seed,
                net: &net,
                robust: Some(&probe_policy),
            };
            let _ = run.run_observed(policy, &mut Recorder::disabled(), 1, &mut flight);
            prop_assert!(!flight.is_empty());
            match &reference {
                None => reference = Some(flight),
                Some(f) => prop_assert_eq!(
                    f, &flight,
                    "threads={}: flight contents must be schedule-independent", threads
                ),
            }
        }
    }

    /// Merging per-context forks in any order yields the same recorder:
    /// the `(ctx, seq)` keying makes merge commutative.
    #[test]
    fn flight_merge_is_order_independent(
        events in proptest::collection::vec((0usize..4, 0usize..3, 0u64..100), 1..40)
    ) {
        let parent = FlightRecorder::enabled();
        // One fork per context, as the trial engine does.
        let mut forks: Vec<FlightRecorder> = (0..4)
            .map(|ctx| {
                let mut f = parent.fork();
                f.begin(probe_ctx(ctx, 0, 0));
                f
            })
            .collect();
        for &(ctx, probe, flow) in &events {
            let t = flow as f64 * 1e-3;
            forks[ctx].log(t, Some(probe as u64), TraceEv::Inject { flow });
        }

        let mut forward = parent.fork();
        forward.begin(0);
        for f in &forks {
            forward.merge(f.clone());
        }
        let mut reverse = parent.fork();
        reverse.begin(0);
        for f in forks.iter().rev() {
            reverse.merge(f.clone());
        }
        prop_assert_eq!(&forward, &reverse, "merge order must not matter");
        prop_assert_eq!(
            forward.dump_string("p"), reverse.dump_string("p"),
            "serialized dumps must match too"
        );
    }
}
