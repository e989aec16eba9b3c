//! Bad options are a typed error, not a panic: a malformed flag or
//! environment variable ends a program with exit status 2 and the
//! message plus the usage on stderr, and `--threads` wins over the
//! environment variable, which is then not read. So do options that
//! would silently do nothing: a kill-point of 0 or without
//! `--checkpoint-every`, and a checkpoint interval for a program that
//! runs no trials. Each case spawns a program, so no test mutates this
//! process's environment.

use std::path::Path;
use std::process::{Command, Output};

/// Runs `exe` with `args`, every `FLOW_RECON_*` variable cleared and
/// then `env` set, into an output directory named `name`.
fn program(exe: &str, name: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("opts_errors")
        .join(name);
    let mut cmd = Command::new(exe);
    cmd.args(["--fast", "--seed", "7", "--out"])
        .arg(&dir)
        .args(args);
    for (key, _) in std::env::vars() {
        if key.starts_with("FLOW_RECON_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("program runs")
}

/// `latency_table --fast` with `args` and `env`.
fn latency_table(name: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    program(env!("CARGO_BIN_EXE_latency_table"), name, args, env)
}

/// `countermeasures --fast --configs 2 --trials 5` with `args` and `env`.
fn countermeasures(name: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let all = [&["--configs", "2", "--trials", "5"], args].concat();
    program(env!("CARGO_BIN_EXE_countermeasures"), name, &all, env)
}

/// Asserts exit status 2 with `message` and the usage on stderr.
fn assert_usage_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn threads_flag_wins_over_a_malformed_environment_variable() {
    let out = latency_table(
        "flag_wins",
        &["--threads", "2"],
        &[("FLOW_RECON_THREADS", "lots")],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn malformed_environment_variable_is_a_usage_error() {
    let out = latency_table("env_error", &[], &[("FLOW_RECON_THREADS", "lots")]);
    assert_usage_error(&out, "invalid FLOW_RECON_THREADS=`lots`");
}

#[test]
fn malformed_flag_is_a_usage_error() {
    let out = latency_table("flag_error", &["--trials", "many"], &[]);
    assert_usage_error(&out, "--trials expects an integer, got `many`");
}

#[test]
fn checkpoint_interval_without_trials_is_a_usage_error() {
    let out = latency_table("no_grid", &["--checkpoint-every", "1"], &[]);
    assert_usage_error(&out, "act only on the programs that run trials");
}

#[test]
fn kill_point_without_an_interval_is_a_usage_error() {
    let out = countermeasures("kill_no_interval", &["--kill-after-checkpoints", "1"], &[]);
    assert_usage_error(&out, "needs --checkpoint-every N");
}

#[test]
fn kill_point_zero_is_a_usage_error() {
    let out = countermeasures(
        "kill_zero",
        &["--checkpoint-every", "1", "--kill-after-checkpoints", "0"],
        &[],
    );
    assert_usage_error(
        &out,
        "--kill-after-checkpoints expects a positive integer, got `0`",
    );
}
