//! Bad options are a typed error, not a panic: a malformed flag or
//! `FLOW_RECON_THREADS` value ends a program with exit status 2 and the
//! message plus the usage on stderr, and `--threads` wins over the
//! environment variable, which is then not read. Each case spawns a
//! program, so no test mutates this process's environment.

use std::path::Path;
use std::process::{Command, Output};

/// Runs `latency_table --fast` with `args`, every `FLOW_RECON_*`
/// variable cleared and `FLOW_RECON_THREADS` set to `threads_env`.
fn latency_table(name: &str, args: &[&str], threads_env: Option<&str>) -> Output {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("opts_errors")
        .join(name);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_latency_table"));
    cmd.args(["--fast", "--seed", "7", "--out"])
        .arg(&dir)
        .args(args);
    for (key, _) in std::env::vars() {
        if key.starts_with("FLOW_RECON_") {
            cmd.env_remove(key);
        }
    }
    if let Some(value) = threads_env {
        cmd.env("FLOW_RECON_THREADS", value);
    }
    cmd.output().expect("program runs")
}

#[test]
fn threads_flag_wins_over_a_malformed_environment_variable() {
    let out = latency_table("flag_wins", &["--threads", "2"], Some("lots"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn malformed_environment_variable_is_a_usage_error() {
    let out = latency_table("env_error", &[], Some("lots"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid FLOW_RECON_THREADS=`lots`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn malformed_flag_is_a_usage_error() {
    let out = latency_table("flag_error", &["--trials", "many"], None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--trials expects an integer, got `many`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}
