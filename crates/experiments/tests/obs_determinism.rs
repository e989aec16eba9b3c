//! Observability must be free: enabling the recorder (`--obs` /
//! `FLOW_RECON_OBS=1`) may add a manifest full of metrics, but every
//! CSV must stay byte-identical to the recorder-off run, at any thread
//! count. This is the contract that lets the recorder ride along in
//! production sweeps without invalidating published numbers.
//!
//! Also property-checks the histogram merge laws the parallel recorder
//! fan-in relies on: merge is commutative and associative, and merging
//! equals recording the concatenated sample stream.

use obs::Histogram;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;

fn run(program: &str, exe: &str, out_dir: &Path, threads: &str, obs_on: bool) {
    let mut cmd = Command::new(exe);
    cmd.args([
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
    .arg(out_dir);
    // Scrub the ambient variable so "off" really is off, then opt in
    // explicitly for the "on" runs.
    cmd.env_remove("FLOW_RECON_OBS");
    if obs_on {
        cmd.env("FLOW_RECON_OBS", "1");
    }
    let status = cmd.status().expect("program runs");
    assert!(
        status.success(),
        "{program} failed at --threads {threads} obs={obs_on}"
    );
}

/// Runs `program` with the recorder off and on, at 1 and 8 threads:
/// its CSV must not move, and only the recorder-on manifests may carry
/// metrics — among them the trial engine's `attack.trials`, the
/// simulator's probe RTT histogram and the planner's spans, which the
/// runner records while sampling.
fn check_recorder_is_free(program: &str, exe: &str) {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("obs_determinism")
        .join(program);
    let combos: [(&str, bool); 4] = [("1", false), ("1", true), ("8", false), ("8", true)];
    let mut dirs: Vec<PathBuf> = Vec::new();
    for (threads, obs_on) in combos {
        let dir = tmp.join(format!("t{threads}-obs{}", u8::from(obs_on)));
        std::fs::create_dir_all(&dir).expect("mkdir");
        run(program, exe, &dir, threads, obs_on);
        dirs.push(dir);
    }
    let csv_of = |dir: &Path| std::fs::read(dir.join(format!("{program}.csv"))).expect("csv");
    let baseline = csv_of(&dirs[0]);
    assert!(
        String::from_utf8(baseline.clone())
            .expect("utf8 csv")
            .lines()
            .count()
            > 1,
        "{program} produced no data"
    );
    for dir in &dirs[1..] {
        assert_eq!(
            csv_of(dir),
            baseline,
            "{program}.csv differs from recorder-off serial run in {}",
            dir.display()
        );
    }

    // Every run writes a manifest; the recorder-on one carries metrics,
    // the recorder-off one is explicitly empty of them.
    for (dir, (_, obs_on)) in dirs.iter().zip(combos) {
        let manifest = std::fs::read_to_string(dir.join(format!("{program}.manifest.jsonl")))
            .expect("manifest exists");
        assert!(
            manifest.contains(&format!("\"experiment\":\"{program}\"")),
            "{manifest}"
        );
        if obs_on {
            assert!(manifest.contains("netsim.probe_rtt_hit_secs"), "{manifest}");
            assert!(manifest.contains("attack.trials"), "{manifest}");
            assert!(manifest.contains("core.planner.evolve_secs"), "{manifest}");
        } else {
            assert!(
                manifest.contains("\"counters\":{}"),
                "recorder-off manifest should carry no counters: {manifest}"
            );
        }
    }
}

#[test]
fn csvs_byte_identical_with_recorder_on_and_off_across_threads() {
    for (program, exe) in [
        ("fault_sweep", env!("CARGO_BIN_EXE_fault_sweep")),
        ("countermeasures", env!("CARGO_BIN_EXE_countermeasures")),
    ] {
        check_recorder_is_free(program, exe);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging histograms is commutative: a+b == b+a.
    #[test]
    fn histogram_merge_commutes(
        xs in proptest::collection::vec(1e-7..10.0f64, 0..40),
        ys in proptest::collection::vec(1e-7..10.0f64, 0..40),
    ) {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        xs.iter().for_each(|&v| a.record(v));
        ys.iter().for_each(|&v| b.record(v));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// Merging is associative and equals recording the concatenation —
    /// so any parallel fan-in order yields the same histogram.
    #[test]
    fn histogram_merge_is_associative_and_matches_sequential(
        xs in proptest::collection::vec(1e-7..10.0f64, 0..30),
        ys in proptest::collection::vec(1e-7..10.0f64, 0..30),
        zs in proptest::collection::vec(1e-7..10.0f64, 0..30),
    ) {
        let mk = |vs: &[f64]| {
            let mut h = Histogram::new();
            vs.iter().for_each(|&v| h.record(v));
            h
        };
        let (a, b, c) = (mk(&xs), mk(&ys), mk(&zs));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        all.extend_from_slice(&zs);
        prop_assert_eq!(&left, &mk(&all));
    }
}
