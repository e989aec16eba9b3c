//! Crash/resume gates for the supervised runner: killing a run at *any*
//! checkpoint boundary and resuming it must reproduce the uninterrupted
//! run's CSV **byte for byte**, at any thread count — the checkpoint
//! layer may change when work happens, never what it computes. Gated:
//! the two grid sweeps, and `countermeasures` for the other programs on
//! the runner.
//!
//! Also covers the supervision failure paths that don't fit the
//! subprocess gates: a worker panic inside the parallel trial fan-out
//! must poison nothing — the supervisor catches it, retries, and the
//! job completes with clean-run results.

use jobs::{ChaosEvent, JobSpec, JobStatus};
use proptest::prelude::*;
use recon_core::exec::{map_indexed, ExecPolicy};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Runs one sweep binary hermetically (thread env cleared) and returns
/// its exit code.
fn run_bin(exe: &str, dir: &Path, extra: &[&str]) -> i32 {
    let status = Command::new(exe)
        .args(["--seed", "7", "--configs", "2", "--fast", "--out"])
        .arg(dir)
        .args(extra)
        .env_remove("FLOW_RECON_THREADS")
        .status()
        .expect("sweep binary runs");
    status.code().expect("sweep binary exits with a code")
}

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("chaos_resume")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The uninterrupted serial fault_sweep CSV every kill/resume variant
/// must reproduce (computed once; the runs are deterministic).
fn fault_sweep_reference() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = tmp("fault_ref");
        let code = run_bin(
            env!("CARGO_BIN_EXE_fault_sweep"),
            &dir,
            &["--trials", "5", "--threads", "1"],
        );
        assert_eq!(code, 0, "reference run failed");
        let csv = std::fs::read(dir.join("fault_sweep.csv")).expect("reference csv");
        assert!(csv.iter().filter(|&&b| b == b'\n').count() > 1, "no data");
        csv
    })
}

proptest! {
    // Each case spawns three sweep subprocesses; keep the count small —
    // the kill-point space is tiny anyway (6 units → checkpoints 1..=5
    // interrupt, and both ends are always covered by the fixed cases).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill fault_sweep after checkpoint `kill_k`, resume at an
    /// unrelated thread count, require the byte-identical CSV.
    #[test]
    fn fault_sweep_kill_resume_is_byte_identical(kill_k in 1usize..=4, par in 0usize..=1) {
        let reference = fault_sweep_reference();
        let parallel = par == 1;
        let threads = if parallel { "8" } else { "1" };
        let dir = tmp(&format!("fault_kill{kill_k}_t{threads}"));
        let kill = kill_k.to_string();
        let code = run_bin(
            env!("CARGO_BIN_EXE_fault_sweep"),
            &dir,
            &["--trials", "5", "--threads", threads, "--checkpoint-every", "1",
              "--kill-after-checkpoints", &kill],
        );
        prop_assert_eq!(code, 130, "kill-point run must exit as interrupted");
        prop_assert!(dir.join("fault_sweep.ckpt.jsonl").exists(), "no checkpoint left behind");

        // Resume at the *other* thread count: the checkpoint digest
        // deliberately excludes threads because results are
        // thread-invariant.
        let resume_threads = if parallel { "1" } else { "8" };
        let code = run_bin(
            env!("CARGO_BIN_EXE_fault_sweep"),
            &dir,
            &["--trials", "5", "--threads", resume_threads, "--resume",
              "--checkpoint-every", "1"],
        );
        prop_assert_eq!(code, 0, "resume must complete");
        prop_assert!(!dir.join("fault_sweep.ckpt.jsonl").exists(), "completion must remove the checkpoint");
        let resumed = std::fs::read(dir.join("fault_sweep.csv")).expect("resumed csv");
        prop_assert_eq!(&resumed[..], reference, "resumed CSV differs from uninterrupted run");
    }
}

/// Same equivalence for the defense tournament's deeper grid, at one
/// representative cut (kill mid-run at 8 threads, resume serially).
#[test]
fn defense_tournament_kill_resume_is_byte_identical() {
    let clean = tmp("tourn_ref");
    let code = run_bin(
        env!("CARGO_BIN_EXE_defense_tournament"),
        &clean,
        &["--trials", "3", "--threads", "1"],
    );
    assert_eq!(code, 0, "reference run failed");
    let reference = std::fs::read(clean.join("defense_tournament.csv")).expect("reference csv");

    let dir = tmp("tourn_kill");
    let code = run_bin(
        env!("CARGO_BIN_EXE_defense_tournament"),
        &dir,
        &[
            "--trials",
            "3",
            "--threads",
            "8",
            "--checkpoint-every",
            "2",
            "--kill-after-checkpoints",
            "3",
        ],
    );
    assert_eq!(code, 130, "kill-point run must exit as interrupted");
    let code = run_bin(
        env!("CARGO_BIN_EXE_defense_tournament"),
        &dir,
        &[
            "--trials",
            "3",
            "--threads",
            "1",
            "--resume",
            "--checkpoint-every",
            "2",
        ],
    );
    assert_eq!(code, 0, "resume must complete");
    let resumed = std::fs::read(dir.join("defense_tournament.csv")).expect("resumed csv");
    assert_eq!(
        resumed, reference,
        "resumed defense_tournament.csv differs from uninterrupted run"
    );
}

/// The uninterrupted serial countermeasures CSV.
fn countermeasures_reference() -> &'static str {
    static REF: OnceLock<String> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = tmp("cm_ref");
        let code = run_bin(
            env!("CARGO_BIN_EXE_countermeasures"),
            &dir,
            &["--trials", "5", "--threads", "1"],
        );
        assert_eq!(code, 0, "reference run failed");
        let csv = std::fs::read_to_string(dir.join("countermeasures.csv")).expect("csv");
        assert_eq!(csv.lines().count(), 5, "one row per defense: {csv}");
        csv
    })
}

/// Every program on the runner kills and resumes as the sweeps do:
/// `countermeasures` cut at a checkpoint exits 130 with its checkpoint,
/// an `interrupted` manifest and only whole rows (a prefix of the full
/// CSV), and resuming at the other thread count writes the
/// uninterrupted run's CSV byte for byte.
#[test]
fn countermeasures_kill_resume_is_byte_identical() {
    let exe = env!("CARGO_BIN_EXE_countermeasures");
    let reference = countermeasures_reference();
    for (kill, threads, resume_threads) in [("1", "1", "8"), ("5", "8", "1")] {
        let dir = tmp(&format!("cm_kill{kill}_t{threads}"));
        let code = run_bin(
            exe,
            &dir,
            &[
                "--trials",
                "5",
                "--threads",
                threads,
                "--checkpoint-every",
                "1",
                "--kill-after-checkpoints",
                kill,
            ],
        );
        assert_eq!(code, 130, "kill-point run must exit as interrupted");
        assert!(dir.join("countermeasures.ckpt.jsonl").exists());
        let partial = std::fs::read_to_string(dir.join("countermeasures.csv")).expect("csv");
        assert!(
            partial.starts_with("defense,") && reference.starts_with(&partial),
            "partial CSV must hold the header and whole rows only: {partial}"
        );
        let manifest =
            std::fs::read_to_string(dir.join("countermeasures.manifest.jsonl")).expect("manifest");
        assert!(
            manifest.contains("\"status\":\"interrupted\""),
            "{manifest}"
        );

        let code = run_bin(
            exe,
            &dir,
            &[
                "--trials",
                "5",
                "--threads",
                resume_threads,
                "--resume",
                "--checkpoint-every",
                "1",
            ],
        );
        assert_eq!(code, 0, "resume must complete");
        assert!(!dir.join("countermeasures.ckpt.jsonl").exists());
        let resumed = std::fs::read_to_string(dir.join("countermeasures.csv")).expect("csv");
        assert_eq!(
            resumed, reference,
            "resumed CSV differs from uninterrupted run"
        );
    }
}

/// `--trace` on a program the runner supervises writes the untraced
/// CSV plus the flight dump and its Perfetto export.
#[test]
fn countermeasures_trace_writes_flight_outputs_and_the_same_csv() {
    let dir = tmp("cm_trace");
    let code = run_bin(
        env!("CARGO_BIN_EXE_countermeasures"),
        &dir,
        &["--trials", "5", "--threads", "2", "--trace"],
    );
    assert_eq!(code, 0);
    let csv = std::fs::read_to_string(dir.join("countermeasures.csv")).expect("csv");
    assert_eq!(csv, countermeasures_reference());
    for file in [
        "countermeasures.flightrec.jsonl",
        "countermeasures.trace.json",
    ] {
        let len = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
        assert!(len > 0, "{file} missing or empty");
    }
}

/// An interrupted run is not a crash: it flushes the partial CSV and a
/// manifest marked `interrupted`, then exits 130.
#[test]
fn interrupted_run_flushes_partial_outputs_and_marked_manifest() {
    let dir = tmp("fault_partial");
    let code = run_bin(
        env!("CARGO_BIN_EXE_fault_sweep"),
        &dir,
        &[
            "--trials",
            "5",
            "--threads",
            "1",
            "--checkpoint-every",
            "1",
            "--kill-after-checkpoints",
            "1",
        ],
    );
    assert_eq!(code, 130);
    let csv = std::fs::read_to_string(dir.join("fault_sweep.csv")).expect("partial csv flushed");
    assert!(
        csv.starts_with("fault_rate,attacker,"),
        "partial CSV keeps its header: {csv}"
    );
    let manifest =
        std::fs::read_to_string(dir.join("fault_sweep.manifest.jsonl")).expect("manifest flushed");
    assert!(
        manifest.contains("\"status\":\"interrupted\""),
        "manifest must record the interruption: {manifest}"
    );
}

/// A SIGINT while a program is still sampling stops the sampling: the run
/// exits 130 at once, as a grid interrupted before its first cell, with
/// header-only CSVs and an `interrupted` manifest, and leaves no
/// checkpoint for the shortened sample. (`--configs 400` at the paper's
/// scale samples for minutes when the signal is ignored until sampling
/// ends.)
#[cfg(unix)]
#[test]
fn sigint_during_sampling_stops_the_run() {
    use std::time::{Duration, Instant};
    let dir = tmp("suite_sigint");
    let mut child = Command::new(env!("CARGO_BIN_EXE_evaluate_suite"))
        .args(["--seed", "7", "--configs", "400", "--trials", "100"])
        .args(["--threads", "1", "--checkpoint-every", "1", "--out"])
        .arg(&dir)
        .env_remove("FLOW_RECON_THREADS")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("evaluate_suite starts");
    std::thread::sleep(Duration::from_secs(1));
    let sent = Instant::now();
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success(), "SIGINT delivered");
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        if sent.elapsed() > Duration::from_secs(5) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("evaluate_suite still running 5 s after SIGINT");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(130), "interrupted exit code");
    for file in [
        "fig6a.csv",
        "fig6b.csv",
        "fig7a.csv",
        "fig7b.csv",
        "suite_robust.csv",
    ] {
        let csv = std::fs::read_to_string(dir.join(file)).expect("csv written");
        assert_eq!(
            csv.lines().count(),
            1,
            "{file} holds only its header: {csv}"
        );
    }
    let manifest =
        std::fs::read_to_string(dir.join("evaluate_suite.manifest.jsonl")).expect("manifest");
    assert!(
        manifest.contains("\"status\":\"interrupted\""),
        "manifest must record the interruption: {manifest}"
    );
    assert!(
        !dir.join("evaluate_suite.ckpt.jsonl").exists(),
        "no checkpoint for a shortened sample"
    );
}

/// A worker panic *inside* `map_indexed`'s parallel fan-out unwinds
/// through the scoped-thread join, gets caught by the supervisor, and —
/// because `map_indexed` writes results through lock poison — the retry
/// and every later unit still complete with clean-run results.
#[test]
fn panic_inside_parallel_fanout_is_retried_without_leaking_poison() {
    static BOOM: AtomicBool = AtomicBool::new(true);
    let work = |unit: usize, _rec: &mut obs::Recorder| -> Vec<u64> {
        map_indexed(ExecPolicy::Parallel { threads: 4 }, 16, |i| {
            if unit == 1 && i == 7 && BOOM.swap(false, Ordering::SeqCst) {
                panic!("chaos: fan-out worker panic");
            }
            ((unit as u64) << 32) | i as u64
        })
    };
    let spec = JobSpec::new("fanout_poison", 4, 0x5eed);
    let out = jobs::run_units(&spec, work).expect("job completes despite fan-out panic");
    assert_eq!(out.status, JobStatus::Completed);
    assert_eq!(out.counters.panics_caught, 1, "exactly the injected panic");
    assert_eq!(out.counters.retries, 1);

    let clean = jobs::run_units(&JobSpec::new("fanout_clean", 4, 0x5eed), |unit, _rec| {
        map_indexed(ExecPolicy::Parallel { threads: 4 }, 16, |i| {
            ((unit as u64) << 32) | i as u64
        })
    })
    .expect("clean job");
    assert_eq!(out.results, clean.results, "retried unit matches clean run");
}

/// The supervisor's chaos injection composes with the real trial
/// engine's parallel execution: a first-attempt stall plus panic on
/// different units, full recovery, deterministic results.
#[test]
fn injected_chaos_recovers_to_deterministic_results() {
    let run = |chaos: bool| {
        let mut spec = JobSpec::new("chaos_combo", 6, 0xC0FFEE);
        // Generous watchdog so only the injected stall can trip it,
        // even when the whole test suite loads the machine.
        spec.watchdog = Some(core::time::Duration::from_millis(500));
        if chaos {
            spec.chaos.inject(2, 0, ChaosEvent::Panic);
            spec.chaos.inject(4, 0, ChaosEvent::StallMillis(2_000));
        }
        jobs::run_units(&spec, |unit, _rec| {
            map_indexed(ExecPolicy::Parallel { threads: 2 }, 8, move |i| {
                jobs::splitmix64((unit as u64) ^ ((i as u64) << 17))
            })
        })
        .expect("job completes")
    };
    let chaotic = run(true);
    let clean = run(false);
    assert_eq!(chaotic.status, JobStatus::Completed);
    assert_eq!(chaotic.results, clean.results);
    // Lower bounds, not exact counts: a heavily loaded machine may trip
    // the watchdog for a healthy unit too, and that retry is also fine.
    assert!(chaotic.counters.panics_caught >= 1);
    assert!(chaotic.counters.watchdog_fires >= 1);
}
