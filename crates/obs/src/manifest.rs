//! The run manifest: one JSON line describing a finished experiment
//! run, written next to its CSVs as `<experiment>.manifest.jsonl`.
//!
//! The manifest answers "what produced this CSV?" — seed, config
//! digest, git revision, detlint panic budget, thread count, elapsed
//! wall time — plus every metric the run's [`Recorder`] collected.
//! [`ManifestEntry::from_json_line`] reads a line back, which is how
//! `flow-recon diagnose` renders these files into a report.
//!
//! The JSON writer here is hand-rolled: the schema is flat enough that
//! an encoder would be more code than the emission, and its bytes are
//! the contract. Floats use Rust's `{:e}` scientific notation, which is
//! both valid JSON and shortest-round-trip exact.

use crate::read::{at, field, parse, ReadError};
use crate::recorder::Recorder;
use std::fmt::Write as _;
use std::path::Path;

/// Escapes a string for embedding inside a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number. Scientific notation round-trips
/// exactly; non-finite values (which JSON cannot carry) degrade to 0.
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "0".to_string()
    }
}

/// FNV-1a over `bytes` — the config digest. Stable across platforms,
/// no dependency, and collisions are irrelevant: the digest only has to
/// distinguish "same flags" from "different flags" in a report.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The current git revision, found by walking up from `start` to the
/// first `.git` directory and resolving `HEAD` (one level of symbolic
/// ref). `"unknown"` when anything is missing — manifests must never
/// fail a run.
#[must_use]
pub fn git_rev(start: &Path) -> String {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
                break;
            };
            let head = head.trim();
            if let Some(reference) = head.strip_prefix("ref: ") {
                if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                    return rev.trim().to_string();
                }
                break;
            }
            return head.to_string();
        }
        dir = d.parent();
    }
    "unknown".to_string()
}

/// Sum of the detlint panic budget, parsed from `baseline.toml`'s
/// `key = value` lines. 0 when the file is absent (e.g. running from an
/// installed binary outside the repo).
#[must_use]
pub fn detlint_budget(baseline: &Path) -> u64 {
    let Ok(text) = std::fs::read_to_string(baseline) else {
        return 0;
    };
    let mut total = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('#') || line.starts_with('[') {
            continue;
        }
        if let Some((_, v)) = line.split_once('=') {
            if let Ok(n) = v.trim().trim_matches('"').parse::<u64>() {
                total += n;
            }
        }
    }
    total
}

/// One run manifest record. Serialized as a single JSON line by
/// [`ManifestEntry::to_json_line`].
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Experiment name (the bin name, e.g. `"fault_sweep"`).
    pub experiment: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Number of sampled configurations.
    pub configs: usize,
    /// Trials per configuration.
    pub trials: usize,
    /// Effective worker-thread count of the `ExecPolicy`.
    pub threads: usize,
    /// FNV-1a digest of the full option set, hex-encoded.
    pub config_digest: String,
    /// Git revision the binary was run from (`"unknown"` outside a
    /// checkout).
    pub git_rev: String,
    /// Total detlint panic budget at run time (sum over crates).
    pub detlint_budget: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// How the run ended: `"ok"` for a complete run, `"interrupted"`
    /// when SIGINT/SIGTERM (or a chaos kill-point) stopped it early and
    /// only partial results were flushed.
    pub status: String,
    /// CSV files this run wrote, relative to the manifest.
    pub csv_files: Vec<String>,
}

impl ManifestEntry {
    /// Serializes the entry plus the recorder's metrics as one JSON
    /// line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self, recorder: &Recorder) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"experiment\":\"{}\",\"seed\":{},\"configs\":{},\"trials\":{},\"threads\":{},\"config_digest\":\"{}\",\"git_rev\":\"{}\",\"detlint_budget\":{},\"elapsed_secs\":{},\"status\":\"{}\",\"csv_files\":[",
            json_escape(&self.experiment),
            self.seed,
            self.configs,
            self.trials,
            self.threads,
            json_escape(&self.config_digest),
            json_escape(&self.git_rev),
            self.detlint_budget,
            fmt_f64(self.elapsed_secs),
            json_escape(&self.status),
        );
        for (i, f) in self.csv_files.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(f));
        }
        let _ = write!(out, "],\"metrics\":{}}}", recorder.metrics_json());
        out
    }

    /// Reads back a line written by [`ManifestEntry::to_json_line`]: the
    /// entry and its metrics. A line without a `status` (written before
    /// runs carried one) reads as `ok`: only a supervised run can be
    /// interrupted, and those record their status.
    ///
    /// # Errors
    ///
    /// [`ReadError`] when the line is not JSON or a field is missing or
    /// mistyped.
    pub fn from_json_line(line: &str) -> Result<(ManifestEntry, Recorder), ReadError> {
        let v = parse(line)?;
        let entry = ManifestEntry {
            experiment: at(&v, "experiment")?,
            seed: at(&v, "seed")?,
            configs: at(&v, "configs")?,
            trials: at(&v, "trials")?,
            threads: at(&v, "threads")?,
            config_digest: at(&v, "config_digest")?,
            git_rev: at(&v, "git_rev")?,
            detlint_budget: at(&v, "detlint_budget")?,
            elapsed_secs: at(&v, "elapsed_secs")?,
            status: match field(&v, "status") {
                Some(_) => at(&v, "status")?,
                None => "ok".to_string(),
            },
            csv_files: at(&v, "csv_files")?,
        };
        let recorder =
            Recorder::from_metrics(&at(&v, "metrics")?).map_err(|e| e.context("metrics"))?;
        Ok((entry, recorder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_control_and_quote() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn fmt_f64_is_valid_json_and_round_trips() {
        assert_eq!(fmt_f64(0.0), "0e0");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        let v = 4.07e-3;
        assert_eq!(fmt_f64(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn detlint_budget_sums_values() {
        let dir = std::env::temp_dir().join("obs_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.toml");
        std::fs::write(&path, "[panic_budget]\nattack = 10\ncore = 5\n# note\n").unwrap();
        assert_eq!(detlint_budget(&path), 15);
        assert_eq!(detlint_budget(Path::new("/nonexistent/baseline.toml")), 0);
    }

    #[test]
    fn json_line_reads_back_to_its_entry_and_recorder() {
        let mut r = Recorder::enabled();
        r.add("jobs.units_run", 21);
        r.observe("netsim.probe_rtt_miss_secs", 4.07e-3);
        let entry = ManifestEntry {
            experiment: "fault_sweep".into(),
            seed: 7,
            configs: 4,
            trials: 10,
            threads: 2,
            config_digest: "00deadbeef00".into(),
            git_rev: "unknown".into(),
            detlint_budget: 22,
            elapsed_secs: 0.125,
            status: "interrupted".into(),
            csv_files: vec!["fault_sweep.csv".into(), "fault_sweep.svg".into()],
        };
        let line = entry.to_json_line(&r);
        assert_eq!(ManifestEntry::from_json_line(&line), Ok((entry.clone(), r)));
        let (_, off) =
            ManifestEntry::from_json_line(&entry.to_json_line(&Recorder::disabled())).unwrap();
        assert!(off.is_empty());

        let without_status = line.replace("\"status\":\"interrupted\",", "");
        let (read, _) = ManifestEntry::from_json_line(&without_status).unwrap();
        assert_eq!(read.status, "ok");
        let without_metrics = line.split(",\"metrics\"").next().unwrap().to_string() + "}";
        assert_eq!(
            ManifestEntry::from_json_line(&without_metrics)
                .unwrap_err()
                .0,
            "lacks \"metrics\""
        );
        let bad_seed = line.replace("\"seed\":7", "\"seed\":\"seven\"");
        assert!(ManifestEntry::from_json_line(&bad_seed)
            .unwrap_err()
            .0
            .starts_with("\"seed\":"));
    }

    #[test]
    fn json_line_is_one_parseable_line() {
        let mut r = Recorder::enabled();
        r.add("attack.trials", 80);
        r.observe("netsim.probe_rtt_hit_secs", 8.7e-5);
        let entry = ManifestEntry {
            experiment: "fault_sweep".into(),
            seed: 42,
            configs: 25,
            trials: 80,
            threads: 8,
            config_digest: format!("{:016x}", fnv1a(b"seed=42")),
            git_rev: "deadbeef".into(),
            detlint_budget: 45,
            elapsed_secs: 12.5,
            status: "ok".into(),
            csv_files: vec!["fault_sweep.csv".into()],
        };
        let line = entry.to_json_line(&r);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"experiment\":\"fault_sweep\""));
        assert!(line.contains("\"seed\":42"));
        assert!(line.contains("\"status\":\"ok\""));
        assert!(line.contains("\"csv_files\":[\"fault_sweep.csv\"]"));
        assert!(line.contains("\"attack.trials\":80"));
        assert!(line.ends_with("}}"));
    }
}
