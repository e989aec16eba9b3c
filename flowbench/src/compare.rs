//! `flow_bench compare`: judges a change against its parent, metric by
//! metric and workload by workload, with `BENCHMARK.json`'s bounds and
//! the pairing rule for claiming a gain.

use crate::field;
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine pairs in ten, over ten or more
    /// pairs, and the medians differ by more than the parent's
    /// interquartile range.
    Improved,
    /// No worse than the bound allows.
    Unchanged,
    /// Worse than the bound allows.
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

fn num(v: Option<&Value>) -> Option<f64> {
    v?.as_num().map(serde::Number::as_f64)
}

fn read_json_lines(path: &Path) -> Result<Vec<Value>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `run_seconds` of a `BENCHMARK.json`.
///
/// # Errors
///
/// When the file is unreadable or lacks a whole `run_seconds`.
pub fn run_seconds(path: &Path) -> Result<u64, String> {
    field(&read_json(path)?, "run_seconds")
        .and_then(Value::as_num)
        .and_then(serde::Number::as_u64)
        .ok_or_else(|| format!("{} has no whole run_seconds", path.display()))
}

/// The end-to-end metrics of a `BENCHMARK.json`.
///
/// # Errors
///
/// When the file is unreadable or a metric lacks a key.
pub fn load_specs(path: &Path) -> Result<Vec<Spec>, String> {
    let v = read_json(path)?;
    let metrics = field(&v, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = field(m, "name").and_then(Value::as_str);
            let better = field(m, "better").and_then(Value::as_str);
            let bound = num(field(m, "bound"));
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Spec {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// Judges paired runs of the parent (`a`) and the change (`b`).
#[must_use]
pub fn judge(a: &[f64], b: &[f64], spec: &Spec) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let better = |x: f64, y: f64| {
        if spec.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let (q1, q3) = quartiles(a).unwrap_or((ma, ma));
    let wins = a.iter().zip(b).filter(|&(&pa, &pb)| better(pb, pa)).count();
    if a.len() >= 10 && wins * 10 >= 9 * a.len() && better(mb, ma) && (mb - ma).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let every_run_better = b.iter().all(|&pb| a.iter().all(|&pa| better(pb, pa)));
    if (q3 - q1) > spec.bound * ma.abs() && !every_run_better {
        return Verdict::Unresolved;
    }
    let worsening = if spec.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    if worsening > spec.bound * ma.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

type Runs = BTreeMap<(String, u64), BTreeMap<String, f64>>;

/// Runs by (workload, seed).
fn runs(path: &Path) -> Result<Runs, String> {
    let mut out = Runs::new();
    for rec in read_json_lines(path)? {
        let workload = field(&rec, "workload").and_then(Value::as_str);
        let seed = field(&rec, "seed")
            .and_then(Value::as_num)
            .and_then(serde::Number::as_u64);
        let metrics = field(&rec, "result")
            .and_then(|r| field(r, "metrics"))
            .and_then(Value::as_object);
        let (Some(workload), Some(seed), Some(metrics)) = (workload, seed, metrics) else {
            return Err(format!("{}: malformed record", path.display()));
        };
        let values = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), num(field(m, "value"))?)))
            .collect();
        out.insert((workload.to_string(), seed), values);
    }
    Ok(out)
}

fn summary(v: &[f64]) -> String {
    let m = median(v).unwrap_or(f64::NAN);
    let (q1, q3) = quartiles(v).unwrap_or((m, m));
    format!("{m:.6} [{q1:.6}, {q3:.6}]")
}

/// Compares the runs of two `flow_bench run` files, pairing runs of the
/// same workload and seed. Returns the report and whether any pair
/// regressed.
///
/// # Errors
///
/// When a file is unreadable or malformed.
pub fn compare(benchmark: &Path, parent: &Path, change: &Path) -> Result<(String, bool), String> {
    let specs = load_specs(benchmark)?;
    let (a, b) = (runs(parent)?, runs(change)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    let mut report = String::new();
    let mut regressed = false;
    for workload in workloads {
        for spec in &specs {
            let (mut pa, mut pb) = (Vec::new(), Vec::new());
            for ((w, seed), ma) in a.iter().filter(|((w, _), _)| w == workload) {
                let mb = b.get(&(w.clone(), *seed)).and_then(|m| m.get(&spec.name));
                if let (Some(&x), Some(&y)) = (ma.get(&spec.name), mb) {
                    pa.push(x);
                    pb.push(y);
                }
            }
            let verdict = judge(&pa, &pb, spec);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                report,
                "{workload:<11} {:<14} parent {}  change {}  pairs {}  {verdict:?}",
                spec.name,
                summary(&pa),
                summary(&pb),
                pa.len()
            );
        }
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec {
            name: "op_ms".into(),
            lower_is_better: true,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x - 10.0).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = parent.iter().map(|x| x + 0.5).collect();
        assert_eq!(judge(&parent, &faster, &spec()), Verdict::Improved);
        assert_eq!(judge(&parent, &slower, &spec()), Verdict::Regressed);
        assert_eq!(judge(&parent, &same, &spec()), Verdict::Unchanged);
        // Five pairs never establish a gain.
        assert_eq!(
            judge(&parent[..5], &faster[..5], &spec()),
            Verdict::Unchanged
        );
        let noisy = [50.0, 100.0, 150.0, 80.0, 120.0];
        assert_eq!(judge(&noisy, &noisy, &spec()), Verdict::Unresolved);
    }
}
