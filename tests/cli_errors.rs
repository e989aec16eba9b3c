//! The `flow-recon` binary's bad-option paths: a message and a non-zero
//! exit, never a panic. An option the subcommand does not take exits 2
//! with the usage, like any malformed command line; a malformed
//! `FLOW_RECON_THREADS` or `--scenario` file fails the run with exit 1.
//! Each case spawns the binary, so no test mutates this process's
//! environment.

use flow_recon::traffic::NetworkScenario;
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

/// One-field edits of a `flow-recon sample` file that panicked (exit
/// 101) or answered without meaning (exit 0): each is refused at load,
/// with a one-line message naming the field and exit 1, by every
/// subcommand that reads a scenario.
#[test]
fn malformed_scenario_files_are_errors_not_panics() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_errors_scenarios");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let sample = flow_recon(&["sample", "--seed", "5"], None);
    assert!(sample.status.success());
    let text = String::from_utf8(sample.stdout).expect("utf-8 scenario");
    let base: NetworkScenario = serde_json::from_str(&text).expect("sample parses");
    let edit = |f: fn(&mut NetworkScenario)| {
        let mut sc = base.clone();
        f(&mut sc);
        serde_json::to_string(&sc).expect("serializes")
    };
    let compact = serde_json::to_string(&base).expect("serializes");
    // The first rule's value of `key`, up to `end`, replaced by `with`.
    let splice = |key: &str, end: char, with: &str| {
        let start = compact.find(key).expect("key present") + key.len();
        let stop = start + compact[start..].find(end).expect("value ends");
        format!("{}{with}{}", &compact[..start], &compact[stop..])
    };
    let cases = [
        (
            "target",
            edit(|sc| sc.target.0 = 99),
            "target: f99 is outside the universe of 16 flows",
        ),
        (
            "delta",
            edit(|sc| sc.delta = 0.0),
            "delta: 0 is not positive and finite",
        ),
        (
            "lambda",
            edit(|sc| sc.lambdas[3] = -0.5),
            "lambdas: flow 3 has rate -0.5",
        ),
        (
            "cover_universe",
            compact.replacen("\"universe\":16", "\"universe\":8", 1),
            "rule at input index 0 ranges over universe 8, expected 16",
        ),
        (
            "cover_words",
            splice("\"words\":[", ']', ""),
            "rule at input index 0 has a cover bitset that does not fit its universe",
        ),
        (
            "rule_order",
            compact.replacen("\"priority\":12", "\"priority\":0", 1),
            "rules: not listed in descending priority order",
        ),
        (
            "timeout",
            splice("\"steps\":", '}', "0"),
            "rules: rule 0 has a zero-step timeout",
        ),
        (
            "capacity",
            edit(|sc| sc.capacity = 0),
            "capacity: 0, the switch must hold at least one rule",
        ),
        (
            "window",
            edit(|sc| sc.window_secs = -15.0),
            "window_secs: -15 is not positive and finite",
        ),
    ];
    for (name, json, message) in cases {
        let scenario = dir.join(format!("{name}.json"));
        std::fs::write(&scenario, json).expect("write scenario");
        let path = scenario.to_str().expect("utf-8 path");
        for command in ["plan", "leakage", "simulate"] {
            let out = flow_recon(&[command, "--scenario", path], None);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {name}: {stderr}");
            assert!(stderr.contains(message), "{command} {name}: {stderr}");
            assert_eq!(
                stderr.trim().lines().count(),
                1,
                "{command} {name}: {stderr}"
            );
        }
    }
}
