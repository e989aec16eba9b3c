//! The `flow-recon` binary's bad-option paths: a message and a non-zero
//! exit, never a panic. An option the subcommand does not take exits 2
//! with the usage, like any malformed command line; a malformed
//! `FLOW_RECON_THREADS` fails the run with exit 1. Each case spawns the
//! binary, so no test mutates this process's environment.

use std::path::Path;
use std::process::{Command, Output};

/// Runs `flow-recon` with `args`, `FLOW_RECON_THREADS` set to `threads`
/// (or cleared).
fn flow_recon(args: &[&str], threads: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flow-recon"));
    cmd.args(args).env_remove("FLOW_RECON_THREADS");
    if let Some(value) = threads {
        cmd.env("FLOW_RECON_THREADS", value);
    }
    cmd.output().expect("flow-recon runs")
}

#[test]
fn option_the_subcommand_does_not_take_exits_2_with_the_usage() {
    let out = flow_recon(&["simulate", "--scenario", "s.json", "--trails", "5"], None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("simulate does not take --trails"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn malformed_threads_variable_is_an_error_not_a_panic() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_errors");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let scenario = dir.join("scenario.json");
    let sample = flow_recon(
        &[
            "sample",
            "--seed",
            "5",
            "--bits",
            "3",
            "--rules",
            "6",
            "--capacity",
            "3",
        ],
        None,
    );
    assert!(sample.status.success());
    std::fs::write(&scenario, &sample.stdout).expect("write scenario");
    let path = scenario.to_str().expect("utf-8 path");

    let out = flow_recon(
        &["simulate", "--scenario", path, "--trials", "2"],
        Some("lots"),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("invalid FLOW_RECON_THREADS=`lots`: expected a thread count or `auto`"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    // The flag wins over the variable, which is then not read.
    let flag = [
        "simulate",
        "--scenario",
        path,
        "--trials",
        "2",
        "--threads",
        "1",
    ];
    assert!(flow_recon(&flag, Some("lots")).status.success());
}
