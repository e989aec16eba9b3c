//! The checkpoint file: a prefix-closed snapshot of completed units.
//!
//! `<name>.ckpt.jsonl` layout (one JSON object per line):
//!
//! ```text
//! {"version":1,"experiment":"fault_sweep","config_digest":"<16 hex>","git_rev":"<rev>","total_units":21}
//! {"unit":0,"result":<unit result JSON>,"metrics":{"counters":{...},"histograms":{...}}}
//! ...
//! {"complete_units":5}
//! ```
//!
//! Every flush rewrites the whole file through a `.tmp` sibling and an
//! atomic rename, so a kill at *any* instant leaves either the previous
//! or the new complete snapshot — never a torn one. A truncated or
//! corrupt file therefore indicates external damage and resume refuses
//! it with a typed [`ResumeError`] instead of silently recomputing (or
//! worse, silently resuming someone else's run: the header pins the
//! experiment name, config digest, git revision and unit count).
//!
//! Unit results round-trip exactly: they are `u64` tallies and `f64`s
//! serialized via the vendored serde's shortest-round-trip float
//! notation. Metric deltas round-trip exactly too (integer counters,
//! integer histogram buckets, exact min/max), so a resumed run's CSVs
//! *and* manifest metrics are byte-identical to an uninterrupted run's.

use core::fmt;
use obs::Recorder;
use serde::{Deserialize, Number, Value};
use std::path::{Path, PathBuf};

/// Current checkpoint format version; bumped on any layout change.
pub const CKPT_VERSION: u64 = 1;

/// The identity a checkpoint is validated against before resuming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptMeta {
    /// Experiment name (the bin name, e.g. `"fault_sweep"`).
    pub experiment: String,
    /// FNV-1a digest of the run configuration, hex-encoded — the same
    /// digest family the run manifest carries, minus the thread count
    /// (results are thread-invariant, so resuming under a different
    /// `--threads` is sound and allowed).
    pub config_digest: String,
    /// Git revision of the writing binary (`"unknown"` outside a
    /// checkout, which disables the check).
    pub git_rev: String,
    /// Total number of work units in the job.
    pub total_units: usize,
}

/// Why a checkpoint file could not be resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The file exists but could not be read.
    Io {
        /// The checkpoint path.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// A line is not valid JSON or lacks required fields.
    Corrupt {
        /// The checkpoint path.
        path: PathBuf,
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The footer is missing or counts fewer units than the file holds —
    /// the file was cut short after it was written (flushes are atomic,
    /// so a kill cannot produce this; external damage can).
    Truncated {
        /// The checkpoint path.
        path: PathBuf,
        /// Units the footer promised (0 when the footer is absent).
        expected_units: usize,
        /// Unit lines actually present.
        found_units: usize,
    },
    /// Written by a different checkpoint format version.
    VersionMismatch {
        /// The version this binary writes.
        expected: u64,
        /// The version found in the file.
        found: u64,
    },
    /// Written by a different experiment.
    ExperimentMismatch {
        /// The experiment resuming.
        expected: String,
        /// The experiment that wrote the file.
        found: String,
    },
    /// Written under a different run configuration (seed, configs,
    /// trials, fast…).
    DigestMismatch {
        /// This run's config digest.
        expected: String,
        /// The file's config digest.
        found: String,
    },
    /// Written by a binary built from a different git revision.
    GitRevMismatch {
        /// This binary's revision.
        expected: String,
        /// The writing binary's revision.
        found: String,
    },
    /// The file claims a different total unit count than this run.
    UnitCountMismatch {
        /// This run's unit count.
        expected: usize,
        /// The file's unit count.
        found: usize,
    },
    /// A unit index outside `0..total_units` (or repeated).
    UnitOutOfRange {
        /// The checkpoint path.
        path: PathBuf,
        /// The offending unit index.
        unit: usize,
        /// The valid unit count.
        total_units: usize,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Io { path, message } => {
                write!(f, "reading {}: {message}", path.display())
            }
            ResumeError::Corrupt {
                path,
                line,
                message,
            } => write!(
                f,
                "corrupt checkpoint {} line {line}: {message}",
                path.display()
            ),
            ResumeError::Truncated {
                path,
                expected_units,
                found_units,
            } => write!(
                f,
                "truncated checkpoint {}: footer promises {expected_units} units, found {found_units}",
                path.display()
            ),
            ResumeError::VersionMismatch { expected, found } => {
                write!(f, "checkpoint version {found}, this binary writes {expected}")
            }
            ResumeError::ExperimentMismatch { expected, found } => {
                write!(f, "checkpoint belongs to experiment {found:?}, not {expected:?}")
            }
            ResumeError::DigestMismatch { expected, found } => write!(
                f,
                "checkpoint config digest {found} does not match this run's {expected} — \
                 rerun without --resume or restore the original flags"
            ),
            ResumeError::GitRevMismatch { expected, found } => write!(
                f,
                "checkpoint written at git revision {found}, this binary is {expected}"
            ),
            ResumeError::UnitCountMismatch { expected, found } => {
                write!(f, "checkpoint holds {found} total units, this run has {expected}")
            }
            ResumeError::UnitOutOfRange {
                path,
                unit,
                total_units,
            } => write!(
                f,
                "checkpoint {} names unit {unit} outside 0..{total_units} (or repeats it)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// One completed unit recovered from a checkpoint.
#[derive(Debug)]
pub struct LoadedUnit<R> {
    /// The unit index.
    pub unit: usize,
    /// The unit's result, deserialized.
    pub result: R,
    /// The unit's metric delta, reconstructed (enabled and possibly
    /// empty; exact integer counters and histogram buckets).
    pub metrics: Recorder,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    field(v, key)
        .and_then(Value::as_num)
        .and_then(Number::as_u64)
}

fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    field(v, key).and_then(Value::as_str)
}

/// Serializes the header line.
fn header_line(meta: &CkptMeta) -> String {
    use obs::manifest::json_escape;
    format!(
        "{{\"version\":{CKPT_VERSION},\"experiment\":\"{}\",\"config_digest\":\"{}\",\"git_rev\":\"{}\",\"total_units\":{}}}",
        json_escape(&meta.experiment),
        json_escape(&meta.config_digest),
        json_escape(&meta.git_rev),
        meta.total_units,
    )
}

/// Writes a full checkpoint snapshot atomically: the whole file is
/// built in memory, then written with [`obs::write_atomic`]. `units`
/// are `(index, result_json, metrics_json)` for every completed unit,
/// in index order.
///
/// # Errors
///
/// Any error from [`obs::write_atomic`].
pub fn write(
    path: &Path,
    meta: &CkptMeta,
    units: &[(usize, String, String)],
) -> std::io::Result<()> {
    let mut body = String::with_capacity(
        256 + units
            .iter()
            .map(|(_, r, m)| r.len() + m.len() + 32)
            .sum::<usize>(),
    );
    body.push_str(&header_line(meta));
    body.push('\n');
    for (unit, result_json, metrics_json) in units {
        body.push_str(&format!(
            "{{\"unit\":{unit},\"result\":{result_json},\"metrics\":{metrics_json}}}"
        ));
        body.push('\n');
    }
    body.push_str(&format!("{{\"complete_units\":{}}}\n", units.len()));
    obs::write_atomic(path, body)
}

/// Loads and validates a checkpoint.
///
/// Returns `Ok(None)` when the file does not exist (a fresh start, not
/// an error — `--resume` is safe to pass unconditionally).
///
/// # Errors
///
/// A [`ResumeError`] describing exactly why the file cannot be trusted:
/// unreadable, corrupt, truncated, or written by a different
/// run/experiment/binary.
pub fn load<R: Deserialize>(
    path: &Path,
    expected: &CkptMeta,
) -> Result<Option<Vec<LoadedUnit<R>>>, ResumeError> {
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(path).map_err(|e| ResumeError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    let corrupt = |line: usize, message: String| ResumeError::Corrupt {
        path: path.to_path_buf(),
        line,
        message,
    };
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    let Some(&(header_no, header_text)) = lines.first() else {
        return Err(ResumeError::Truncated {
            path: path.to_path_buf(),
            expected_units: 0,
            found_units: 0,
        });
    };
    let header: Value = serde_json::from_str(header_text)
        .map_err(|e| corrupt(header_no, format!("bad header: {e}")))?;
    let version = field_u64(&header, "version")
        .ok_or_else(|| corrupt(header_no, "header lacks \"version\"".into()))?;
    if version != CKPT_VERSION {
        return Err(ResumeError::VersionMismatch {
            expected: CKPT_VERSION,
            found: version,
        });
    }
    let experiment = field_str(&header, "experiment").unwrap_or("?");
    if experiment != expected.experiment {
        return Err(ResumeError::ExperimentMismatch {
            expected: expected.experiment.clone(),
            found: experiment.to_string(),
        });
    }
    let digest = field_str(&header, "config_digest").unwrap_or("?");
    if digest != expected.config_digest {
        return Err(ResumeError::DigestMismatch {
            expected: expected.config_digest.clone(),
            found: digest.to_string(),
        });
    }
    let git = field_str(&header, "git_rev").unwrap_or("unknown");
    if git != "unknown" && expected.git_rev != "unknown" && git != expected.git_rev {
        return Err(ResumeError::GitRevMismatch {
            expected: expected.git_rev.clone(),
            found: git.to_string(),
        });
    }
    let total = field_u64(&header, "total_units")
        .ok_or_else(|| corrupt(header_no, "header lacks \"total_units\"".into()))?;
    if total as usize != expected.total_units {
        return Err(ResumeError::UnitCountMismatch {
            expected: expected.total_units,
            found: total as usize,
        });
    }

    let mut units: Vec<LoadedUnit<R>> = Vec::new();
    let mut seen = vec![false; expected.total_units];
    let mut footer: Option<usize> = None;
    for &(line_no, line) in &lines[1..] {
        if footer.is_some() {
            return Err(corrupt(line_no, "content after footer".into()));
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| corrupt(line_no, format!("bad JSON: {e}")))?;
        if let Some(n) = field_u64(&v, "complete_units") {
            footer = Some(n as usize);
            continue;
        }
        let unit = field_u64(&v, "unit").ok_or_else(|| {
            corrupt(
                line_no,
                "line has neither \"unit\" nor \"complete_units\"".into(),
            )
        })? as usize;
        if unit >= expected.total_units || seen[unit] {
            return Err(ResumeError::UnitOutOfRange {
                path: path.to_path_buf(),
                unit,
                total_units: expected.total_units,
            });
        }
        seen[unit] = true;
        let result_value = field(&v, "result")
            .ok_or_else(|| corrupt(line_no, "unit line lacks \"result\"".into()))?;
        let result = R::from_value(result_value)
            .map_err(|e| corrupt(line_no, format!("bad unit result: {e}")))?;
        let metrics_value = field(&v, "metrics")
            .ok_or_else(|| corrupt(line_no, "unit line lacks \"metrics\"".into()))?;
        let metrics = Recorder::from_metrics(metrics_value)
            .map_err(|e| corrupt(line_no, format!("bad unit metrics: {e}")))?;
        units.push(LoadedUnit {
            unit,
            result,
            metrics,
        });
    }
    match footer {
        Some(n) if n == units.len() => Ok(Some(units)),
        Some(n) => Err(ResumeError::Truncated {
            path: path.to_path_buf(),
            expected_units: n,
            found_units: units.len(),
        }),
        None => Err(ResumeError::Truncated {
            path: path.to_path_buf(),
            expected_units: 0,
            found_units: units.len(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> CkptMeta {
        CkptMeta {
            experiment: "unit_test".into(),
            config_digest: "00000000deadbeef".into(),
            git_rev: "unknown".into(),
            total_units: 4,
        }
    }

    fn tmp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("jobs-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}.ckpt.jsonl"))
    }

    fn sample_units() -> Vec<(usize, String, String)> {
        let mut rec = Recorder::enabled();
        rec.add("jobs.test_counter", 7);
        rec.observe("jobs.test_hist_secs", 1.25e-3);
        vec![
            (0, "41".to_string(), rec.metrics_json()),
            (2, "[2,3]".to_string(), Recorder::enabled().metrics_json()),
        ]
    }

    #[test]
    fn roundtrip_preserves_results_and_metrics_exactly() {
        let path = tmp_file("roundtrip");
        write(&path, &meta(), &sample_units()).unwrap();
        let loaded = load::<Value>(&path, &meta()).unwrap().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].unit, 0);
        assert_eq!(loaded[1].unit, 2);
        assert_eq!(loaded[0].metrics.counter("jobs.test_counter"), 7);
        // The reconstructed recorder re-serializes byte-identically.
        assert_eq!(loaded[0].metrics.metrics_json(), sample_units()[0].2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let path = tmp_file("never_written");
        let _ = std::fs::remove_file(&path);
        assert!(load::<Value>(&path, &meta()).unwrap().is_none());
    }

    #[test]
    fn truncation_without_footer_is_detected() {
        let path = tmp_file("truncated");
        write(&path, &meta(), &sample_units()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, cut).unwrap();
        match load::<Value>(&path, &meta()) {
            Err(ResumeError::Truncated { found_units: 1, .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn footer_unit_count_mismatch_is_truncation() {
        let path = tmp_file("footer_short");
        let mut text = String::new();
        text.push_str(&header_line(&meta()));
        text.push_str(
            "\n{\"unit\":0,\"result\":1,\"metrics\":{\"counters\":{},\"histograms\":{}}}\n",
        );
        text.push_str("{\"complete_units\":2}\n");
        std::fs::write(&path, text).unwrap();
        match load::<Value>(&path, &meta()) {
            Err(ResumeError::Truncated {
                expected_units: 2,
                found_units: 1,
                ..
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_json_line_is_detected() {
        let path = tmp_file("corrupt");
        write(&path, &meta(), &sample_units()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let broken = text.replace("\"unit\":2", "\"unit\":2 oops");
        std::fs::write(&path, broken).unwrap();
        match load::<Value>(&path, &meta()) {
            Err(ResumeError::Corrupt { line: 3, .. }) => {}
            other => panic!("expected Corrupt at line 3, got {other:?}"),
        }
    }

    #[test]
    fn digest_experiment_version_and_rev_mismatches_are_typed() {
        let path = tmp_file("mismatches");
        write(&path, &meta(), &sample_units()).unwrap();

        let mut wrong_digest = meta();
        wrong_digest.config_digest = "ffffffffffffffff".into();
        assert!(matches!(
            load::<Value>(&path, &wrong_digest),
            Err(ResumeError::DigestMismatch { .. })
        ));

        let mut wrong_exp = meta();
        wrong_exp.experiment = "other_experiment".into();
        assert!(matches!(
            load::<Value>(&path, &wrong_exp),
            Err(ResumeError::ExperimentMismatch { .. })
        ));

        let mut wrong_total = meta();
        wrong_total.total_units = 9;
        assert!(matches!(
            load::<Value>(&path, &wrong_total),
            Err(ResumeError::UnitCountMismatch {
                expected: 9,
                found: 4
            })
        ));

        // git_rev "unknown" on either side disables the check; a real
        // mismatch is typed.
        let mut their_meta = meta();
        their_meta.git_rev = "abc123".into();
        write(&path, &their_meta, &sample_units()).unwrap();
        let mut our_meta = meta();
        our_meta.git_rev = "def456".into();
        assert!(matches!(
            load::<Value>(&path, &our_meta),
            Err(ResumeError::GitRevMismatch { .. })
        ));
        our_meta.git_rev = "unknown".into();
        assert!(load::<Value>(&path, &our_meta).is_ok());

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"version\":1", "\"version\":99")).unwrap();
        assert!(matches!(
            load::<Value>(&path, &meta()),
            Err(ResumeError::VersionMismatch {
                expected: CKPT_VERSION,
                found: 99
            })
        ));
    }

    #[test]
    fn unit_out_of_range_and_duplicates_are_rejected() {
        let path = tmp_file("out_of_range");
        let unit_line = "{\"unit\":9,\"result\":1,\"metrics\":{\"counters\":{},\"histograms\":{}}}";
        let text = format!(
            "{}\n{unit_line}\n{{\"complete_units\":1}}\n",
            header_line(&meta())
        );
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            load::<Value>(&path, &meta()),
            Err(ResumeError::UnitOutOfRange { unit: 9, .. })
        ));

        let dup = "{\"unit\":1,\"result\":1,\"metrics\":{\"counters\":{},\"histograms\":{}}}";
        let text = format!(
            "{}\n{dup}\n{dup}\n{{\"complete_units\":2}}\n",
            header_line(&meta())
        );
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            load::<Value>(&path, &meta()),
            Err(ResumeError::UnitOutOfRange { unit: 1, .. })
        ));
    }

    #[test]
    fn empty_file_is_truncated_not_a_fresh_start() {
        let path = tmp_file("empty");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            load::<Value>(&path, &meta()),
            Err(ResumeError::Truncated { .. })
        ));
    }
}
