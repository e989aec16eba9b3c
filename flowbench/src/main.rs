//! `flow_bench`: one benchmark run, or a series of them, or a comparison
//! of two series.
//!
//! ```text
//! flow_bench --workload suite|tournament|fattree --seed N --seconds S --trace 0|1
//! flow_bench run --seeds 1-10 [--out runs.jsonl]
//! flow_bench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run prints, as its last stdout line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. It
//! exits 1 when an output check failed and 2 when it could not measure.

use flowbench::e2e::{self, Budget, Ctx};
use flowbench::stats::median;
use flowbench::traced::{self, Metric};
use flowbench::{compare, op_ms, Workload};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_series(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("fattree-child") => fattree_child(&args[1..]),
        Some("kernel") => {
            println!("{}", flowbench::kernel_s());
            Ok(0)
        }
        _ => bench(&args),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("flow_bench: {e}");
            std::process::exit(2);
        }
    }
}

/// `--key value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    f.get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`"))
        })
        .transpose()
}

fn seconds(f: &BTreeMap<String, String>) -> Result<Budget, String> {
    match parsed::<f64>(f, "seconds")? {
        Some(s) if s > 0.0 => Ok(Budget::Seconds(s)),
        _ => Err("--seconds S (> 0) is required".into()),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns -0 into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

/// The result line: every metric by name with its unit.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One benchmark run.
fn bench(args: &[String]) -> Result<i32, String> {
    let f = flags(args)?;
    let workload = Workload::parse(f.get("workload").ok_or("--workload is required")?)?;
    let seed: u64 = parsed(&f, "seed")?.ok_or("--seed is required")?;
    let budget = seconds(&f)?;
    let trace = match f.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    let ctx = Ctx::from_cwd()?;
    if workload != Workload::Fattree {
        ctx.build_bins()?;
    }
    let (attempted, mut errors, metrics) = if trace {
        let t = traced::run(&ctx, workload, seed, budget);
        (t.attempted, t.errors, t.metrics)
    } else {
        let e = e2e::measure(&ctx, workload, seed, budget);
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        let rss: Vec<f64> = e.rss_kb.iter().map(|&kb| kb as f64 / 1024.0).collect();
        eprintln!("flow_bench: median host-speed factor {}", med(&e.scales));
        let metrics = vec![
            ("op_ms".to_string(), op_ms(workload, &e.units), "ms"),
            ("peak_rss_mb".to_string(), med(&rss), "MB"),
            ("setup_s".to_string(), med(&e.setup_s), "s"),
        ];
        // Per-unit times, for looking into a run's spread afterwards.
        let log: String = e
            .units
            .iter()
            .map(|u| format!("{} {}\n", u.op_s, u.ops))
            .collect();
        let _ = std::fs::write(ctx.out.join(format!("{workload}.units")), log);
        let mut errors = e.errors;
        if e.units.is_empty() {
            errors.push("no unit completed".into());
        }
        (e.attempted, errors, metrics)
    };
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            errors.push(format!("{name} is not a number"));
        }
    }
    for e in &errors {
        eprintln!("flow_bench: {e}");
    }
    let failed = errors.len() as u64;
    println!(
        "{}",
        result_line(
            errors.is_empty(),
            attempted.max(failed).max(1),
            failed,
            &metrics
        )
    );
    Ok(i32::from(!errors.is_empty()))
}

/// `fattree-child`: the fat-tree program the `fattree` workload times,
/// for `--seconds S`, or for `--units N` rounds when a traced run
/// repeats the replica's work.
fn fattree_child(args: &[String]) -> Result<i32, String> {
    let f = flags(args)?;
    let seed: u64 = parsed(&f, "seed")?.ok_or("--seed is required")?;
    let input = PathBuf::from(f.get("input").ok_or("--input is required")?);
    let out = PathBuf::from(f.get("out").ok_or("--out is required")?);
    let budget = match parsed::<usize>(&f, "units")? {
        Some(n) => Budget::Units(n),
        None => seconds(&f)?,
    };
    e2e::fattree_child(seed, budget, &input, &out)?;
    Ok(0)
}

/// Seeds as `7`, `1,2,3` or `1-10`.
fn seeds(spec: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("--seeds: cannot parse `{spec}`");
    if let Some((lo, hi)) = spec.split_once('-') {
        let (lo, hi): (u64, u64) = (
            lo.parse().map_err(|_| bad())?,
            hi.parse().map_err(|_| bad())?,
        );
        return Ok((lo..=hi).collect());
    }
    spec.split(',')
        .map(|s| s.parse().map_err(|_| bad()))
        .collect()
}

/// `run`: one fresh process per (seed, workload), each measuring for
/// `BENCHMARK.json`'s `run_seconds` with tracing off, results appended to
/// a JSON-lines file for `compare`.
fn run_series(args: &[String]) -> Result<i32, String> {
    let f = flags(args)?;
    let seeds = seeds(f.get("seeds").map_or("7", String::as_str))?;
    let seconds = compare::run_seconds(Path::new("BENCHMARK.json"))?.to_string();
    let out = PathBuf::from(
        f.get("out")
            .map_or("target/flowbench/runs.jsonl", String::as_str),
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating flow_bench: {e}"))?;
    let mut code = 0;
    for &seed in &seeds {
        for w in Workload::ALL {
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds, "--trace", "0"])
                .output()
                .map_err(|e| format!("running flow_bench: {e}"))?;
            code = code.max(output.status.code().unwrap_or(2));
            let stdout = String::from_utf8_lossy(&output.stdout);
            let Some(result) = stdout.lines().last() else {
                eprintln!("{w} seed {seed}: no result");
                continue;
            };
            eprintln!("{w} seed {seed}: {result}");
            let record =
                format!("{{\"workload\": \"{w}\", \"seed\": {seed}, \"result\": {result}}}\n");
            append(&out, &record)?;
        }
    }
    Ok(code)
}

fn append(path: &Path, line: &str) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("appending to {}: {e}", path.display()))
}

/// `compare PARENT.jsonl CHANGE.jsonl`.
fn compare_files(args: &[String]) -> Result<i32, String> {
    let [parent, change] = args else {
        return Err("usage: flow_bench compare PARENT.jsonl CHANGE.jsonl".into());
    };
    let (report, regressed) = compare::compare(
        Path::new("BENCHMARK.json"),
        Path::new(parent),
        Path::new(change),
    )?;
    print!("{report}");
    Ok(i32::from(regressed))
}
