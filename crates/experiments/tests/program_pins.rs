//! Output pins for the programs that sample through
//! `harness::sample_configs` and run trials through `attack::TrialRun`.
//!
//! Each program runs at smoke flags with every `FLOW_RECON_*` variable
//! cleared, at `--threads 1` and at `--threads 2`, and the FNV-1a digest
//! (`obs::manifest::fnv1a`) of every CSV and SVG it writes must equal the
//! pinned one. The digests were recorded from the programs at commit
//! `e70a7a6`, before their ten sampling loops and seven trial entry
//! points were merged, so a refactor that moves these bytes — even the
//! same way at every thread count — fails here. Each pin's comment
//! names the command that recorded it (plus `--threads 1 --out DIR`);
//! the test is named after the program. `scalability.csv` holds wall
//! times and is not pinned.

use obs::manifest::fnv1a;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The smoke flags of `run_all_experiments.sh`.
const SMOKE: &[&str] = &["--configs", "4", "--trials", "10", "--seed", "7", "--fast"];

/// Runs `exe` with `args` into a fresh directory at each thread count
/// and compares every pinned file's digest; reports every mismatch.
fn check(name: &str, exe: &str, args: &[&str], pins: &[(&str, u64)]) {
    let mut wrong = Vec::new();
    for threads in ["1", "2"] {
        let dir = out_dir(name, threads);
        let mut cmd = Command::new(exe);
        cmd.args(args)
            .args(["--threads", threads, "--out"])
            .arg(&dir);
        for (key, _) in std::env::vars() {
            if key.starts_with("FLOW_RECON_") {
                cmd.env_remove(key);
            }
        }
        let out = cmd.output().expect("program runs");
        assert!(
            out.status.success(),
            "{name} --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        for &(file, want) in pins {
            let bytes = std::fs::read(dir.join(file)).expect("pinned output written");
            let got = fnv1a(&bytes);
            if got != want {
                wrong.push(format!(
                    "{name} --threads {threads}: {file} has digest {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

fn out_dir(name: &str, threads: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("program_pins")
        .join(format!("{name}_t{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// `pin!(program, args, [file => digest, ..])`: a test named after the
/// program that [`check`]s its pinned files.
macro_rules! pin {
    ($program:ident, $args:expr, [$($file:literal => $digest:literal),+ $(,)?]) => {
        #[test]
        fn $program() {
            let exe = env!(concat!("CARGO_BIN_EXE_", stringify!($program)));
            check(stringify!($program), exe, $args, &[$(($file, $digest)),+]);
        }
    };
}

// countermeasures --configs 4 --trials 10 --seed 7 --fast
pin!(countermeasures, SMOKE, ["countermeasures.csv" => 0x3996_dea2_82b9_e588]);
// multiprobe --configs 4 --trials 10 --seed 7 --fast
pin!(multiprobe, SMOKE, ["multiprobe.csv" => 0x49eb_4da9_da52_b4e3]);
// multiswitch --configs 4 --trials 10 --seed 7 --fast
pin!(multiswitch, SMOKE, ["multiswitch.csv" => 0x4f47_f9b3_7d20_5c76]);
// robustness_rates --configs 4 --trials 10 --seed 7 --fast
pin!(robustness_rates, SMOKE, ["robustness_rates.csv" => 0xc530_0c0c_e088_8791]);
// defense_transform --configs 4 --trials 10 --seed 7 --fast
pin!(defense_transform, SMOKE, ["defense_transform.csv" => 0xac87_7d98_4e7f_d717]);
// sweep_parameters --configs 4 --trials 10 --seed 7 --fast
pin!(sweep_parameters, SMOKE, ["sweep_parameters.csv" => 0x241c_1042_3d97_ffb9]);
// fault_sweep --configs 4 --trials 10 --seed 7 --fast
pin!(fault_sweep, SMOKE, [
    "fault_sweep.csv" => 0x5358_af98_32a0_7f3c,
    "fault_sweep.svg" => 0x5a90_f32b_2bb6_a3db,
]);
// evaluate_suite --configs 4 --trials 10 --seed 7 --fast
pin!(evaluate_suite, SMOKE, [
    "fig6a.csv" => 0x1bff_72c3_e3ea_3bbf,
    "fig6b.csv" => 0x3c67_0404_bff0_5266,
    "fig7a.csv" => 0x8b18_b9cd_c66e_56e9,
    "fig7b.csv" => 0x6258_76d4_6cba_afe8,
    "suite_robust.csv" => 0x4adb_47d9_c1e6_3f36,
]);
// defense_tournament --configs 4 --trials 10 --seed 7 --fast
pin!(defense_tournament, SMOKE, [
    "defense_tournament.csv" => 0x32c6_fb59_1492_cb67,
    "defense_tournament.svg" => 0x7410_fe56_5edf_a822,
]);
// scalability --configs 4 --trials 10 --seed 7 --fast
pin!(scalability, SMOKE, ["scalability_fattree.csv" => 0xb981_f749_b02d_7075]);
// fig6a --configs 2 --trials 10 --seed 7 --fast: at this size
// `evaluate_suite` finds no Fig. 6-class configuration, so this pin is
// the one that carries Fig. 6 data.
const FIG6A: &[&str] = &["--configs", "2", "--trials", "10", "--seed", "7", "--fast"];
pin!(fig6a, FIG6A, ["fig6a.csv" => 0xe845_cf68_b4ea_1510]);
