//! End-to-end determinism gate: the `evaluate_suite` binary must emit
//! byte-identical CSVs at any thread count for a fixed seed.
//!
//! This exercises the whole stack at once — probe-evaluation engine,
//! trial engine, supervised runner and harness — under the determinism
//! contract of DESIGN.md. Only the CSV artifacts are compared; the run
//! manifest records the thread count and wall time and so must differ.

use std::path::Path;
use std::process::Command;

const CSVS: [&str; 4] = ["fig6a.csv", "fig6b.csv", "fig7a.csv", "fig7b.csv"];

fn run_suite(out_dir: &Path, threads: &str) {
    let status = Command::new(env!("CARGO_BIN_EXE_evaluate_suite"))
        .args([
            "--seed",
            "7",
            "--configs",
            "2",
            "--trials",
            "5",
            "--fast",
            "--threads",
            threads,
            "--out",
        ])
        .arg(out_dir)
        .status()
        .expect("evaluate_suite runs");
    assert!(
        status.success(),
        "evaluate_suite failed at --threads {threads}"
    );
}

#[test]
fn suite_csvs_byte_identical_across_thread_counts() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("suite_determinism");
    let serial_dir = tmp.join("t1");
    std::fs::create_dir_all(&serial_dir).expect("mkdir");
    run_suite(&serial_dir, "1");
    let serial: Vec<Vec<u8>> = CSVS
        .iter()
        .map(|f| std::fs::read(serial_dir.join(f)).expect("serial csv"))
        .collect();
    assert!(!serial.iter().all(Vec::is_empty), "suite produced no data");

    for threads in ["2", "8"] {
        let dir = tmp.join(format!("t{threads}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        run_suite(&dir, threads);
        for (f, expect) in CSVS.iter().zip(&serial) {
            let got = std::fs::read(dir.join(f)).expect("parallel csv");
            assert_eq!(
                &got, expect,
                "{f} differs between --threads 1 and --threads {threads}"
            );
        }
    }
}
