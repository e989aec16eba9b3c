//! The per-thread metric sink.

use crate::hist::Histogram;
use crate::manifest::{fmt_f64, json_escape};
use crate::read::{object_at, ReadError};
use serde::{Number, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A monotonic event counter. Merging is unsigned addition —
/// commutative and associative, the trial engine's reduction contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Folds another counter in.
    pub fn merge(&mut self, other: Counter) {
        self.0 += other.0;
    }
}

/// The metric store behind an enabled recorder. `BTreeMap` keeps
/// iteration (and therefore every rendered report and manifest) in a
/// deterministic order regardless of insertion history.
#[derive(Debug, Clone, Default, PartialEq)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    hists: BTreeMap<String, Histogram>,
}

/// A per-thread sink for counters and histograms.
///
/// A **disabled** recorder (the default everywhere) holds no allocation
/// and every operation is a single branch on `None` — instrumentation
/// stays resident in the hot paths at effectively zero cost. An
/// **enabled** recorder accumulates locally; worker recorders created
/// with [`Recorder::fork`] are merged back with [`Recorder::merge`],
/// whose counter/bucket additions are commutative and associative, so
/// results are identical under any `ExecPolicy` schedule — the same
/// contract as the trial engine's `Accuracy` reductions.
///
/// Recording never feeds back into any computation: the experiment CSVs
/// are byte-identical with the recorder on or off (enforced by
/// `crates/experiments/tests/obs_determinism.rs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl Recorder {
    /// A no-op recorder: zero allocation, every method a cheap branch.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An empty, collecting recorder.
    #[must_use]
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Box::default()),
        }
    }

    /// Whether this recorder collects anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// An empty recorder with the same enabled-ness — what each worker
    /// thread records into before the merge.
    #[must_use]
    pub fn fork(&self) -> Self {
        if self.is_enabled() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, name: &str, n: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if let Some(c) = inner.counters.get_mut(name) {
            c.add(n);
        } else {
            let mut c = Counter::default();
            c.add(n);
            inner.counters.insert(name.to_string(), c);
        }
    }

    /// Adds `n` to the counter named `{base}.{suffix}` — the dynamic
    /// form for per-attacker breakdowns. The name is only formatted when
    /// the recorder is enabled.
    pub fn add_with_suffix(&mut self, base: &str, suffix: &str, n: u64) {
        if self.is_enabled() {
            let name = format!("{base}.{suffix}");
            self.add(&name, n);
        }
    }

    /// Records `v` into the named histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if let Some(h) = inner.hists.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::new();
            h.record(v);
            inner.hists.insert(name.to_string(), h);
        }
    }

    /// Folds a whole histogram into the named slot (bucket-count adds,
    /// exact min/max — same contract as [`Recorder::merge`]).
    pub fn merge_histogram(&mut self, name: &str, h: Histogram) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if let Some(mine) = inner.hists.get_mut(name) {
            mine.merge(&h);
        } else {
            inner.hists.insert(name.to_string(), h);
        }
    }

    /// Folds another recorder's metrics into this one (unsigned adds and
    /// exact min/max: order-independent). Merging into a disabled
    /// recorder adopts the other's storage wholesale; merging a disabled
    /// recorder is a no-op.
    pub fn merge(&mut self, other: Recorder) {
        let Some(theirs) = other.inner else {
            return;
        };
        let Some(ours) = self.inner.as_deref_mut() else {
            self.inner = Some(theirs);
            return;
        };
        for (name, c) in theirs.counters {
            if let Some(mine) = ours.counters.get_mut(&name) {
                mine.merge(c);
            } else {
                ours.counters.insert(name, c);
            }
        }
        for (name, h) in theirs.hists {
            if let Some(mine) = ours.hists.get_mut(&name) {
                mine.merge(&h);
            } else {
                ours.hists.insert(name, h);
            }
        }
    }

    /// The named counter's value (0 when absent or disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_deref()
            .and_then(|i| i.counters.get(name))
            .map_or(0, |c| c.get())
    }

    /// The named histogram, if recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.inner.as_deref().and_then(|i| i.hists.get(name))
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.inner
            .iter()
            .flat_map(|i| i.counters.iter().map(|(n, c)| (n.as_str(), c.get())))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.inner
            .iter()
            .flat_map(|i| i.hists.iter().map(|(n, h)| (n.as_str(), h)))
    }

    /// Whether no metric has been recorded (vacuously true when
    /// disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner
            .as_deref()
            .is_none_or(|i| i.counters.is_empty() && i.hists.is_empty())
    }

    /// A human-readable text report: counters table, then histograms.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        if self.counters().next().is_some() {
            out.push_str("counters:\n");
            for (name, v) in self.counters() {
                let _ = writeln!(out, "  {name:<44} {v}");
            }
        }
        for (name, h) in self.histograms() {
            let _ = writeln!(
                out,
                "histogram {name}: n={} min={} max={} p50={} p99={}",
                h.count(),
                h.min().map_or_else(|| "-".into(), |v| format!("{v:.3e}")),
                h.max().map_or_else(|| "-".into(), |v| format!("{v:.3e}")),
                h.quantile(0.5)
                    .map_or_else(|| "-".into(), |v| format!("{v:.3e}")),
                h.quantile(0.99)
                    .map_or_else(|| "-".into(), |v| format!("{v:.3e}")),
            );
            out.push_str(&h.render("  "));
        }
        out
    }

    /// Reads back a metrics object written by
    /// [`Recorder::metrics_json`] (a manifest's or a checkpoint unit's
    /// `"metrics"`): an enabled recorder whose `metrics_json` writes the
    /// same bytes again.
    ///
    /// # Errors
    ///
    /// [`ReadError`] naming the counter or histogram that does not read
    /// back.
    pub fn from_metrics(v: &Value) -> Result<Recorder, ReadError> {
        let mut rec = Recorder::enabled();
        for (name, n) in object_at(v, "counters")? {
            let n = n
                .as_num()
                .and_then(Number::as_u64)
                .ok_or_else(|| ReadError(format!("counter {name} is not a u64")))?;
            rec.add(name, n);
        }
        for (name, h) in object_at(v, "histograms")? {
            let h = Histogram::from_json(h).map_err(|e| e.context(&format!("histogram {name}")))?;
            rec.merge_histogram(name, h);
        }
        Ok(rec)
    }

    /// The metrics as a JSON object (the manifest's `"metrics"` field):
    /// `{"counters":{...},"histograms":{name:{count,underflow,overflow,
    /// rejected,min,max,buckets:[[lower_edge,count],...]}}}`.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"underflow\":{},\"overflow\":{},\"rejected\":{},\"min\":{},\"max\":{},\"buckets\":[",
                json_escape(name),
                h.count(),
                h.underflow(),
                h.overflow(),
                h.rejected(),
                fmt_f64(h.min().unwrap_or(0.0)),
                fmt_f64(h.max().unwrap_or(0.0)),
            );
            for (j, (lo, _, c)) in h.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{c}]", fmt_f64(lo));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert_and_unallocated() {
        let mut r = Recorder::disabled();
        r.add("a", 1);
        r.add_with_suffix("a", "b", 1);
        r.observe("h", 0.5);
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.counter("a"), 0);
        assert!(r.histogram("h").is_none());
        assert_eq!(r.counters().count(), 0);
        assert_eq!(
            std::mem::size_of::<Recorder>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn enabled_accumulates() {
        let mut r = Recorder::enabled();
        r.add("x", 2);
        r.add("x", 3);
        r.add_with_suffix("answered", "naive", 1);
        r.observe("rtt", 0.087e-3);
        r.observe("rtt", 4.07e-3);
        assert_eq!(r.counter("x"), 5);
        assert_eq!(r.counter("answered.naive"), 1);
        assert_eq!(r.histogram("rtt").unwrap().count(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn fork_matches_enabledness() {
        assert!(Recorder::enabled().fork().is_enabled());
        assert!(!Recorder::disabled().fork().is_enabled());
        let mut r = Recorder::enabled();
        r.add("x", 1);
        assert!(r.fork().is_empty(), "forks start empty");
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |vals: &[(&str, u64)], obs: &[f64]| {
            let mut r = Recorder::enabled();
            for &(n, v) in vals {
                r.add(n, v);
            }
            for &v in obs {
                r.observe("h", v);
            }
            r
        };
        let a = mk(&[("x", 1), ("y", 2)], &[1e-4]);
        let b = mk(&[("x", 10), ("z", 5)], &[2e-3, 5e-3]);
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), 11);
        assert_eq!(ab.histogram("h").unwrap().count(), 3);
        // Merging into a disabled recorder adopts the metrics.
        let mut d = Recorder::disabled();
        d.merge(a.clone());
        assert_eq!(d.counter("x"), 1);
        // Merging a disabled recorder changes nothing.
        let mut a2 = a.clone();
        a2.merge(Recorder::disabled());
        assert_eq!(a2, a);
    }

    #[test]
    fn merge_histogram_matches_observation_merge() {
        let mut observed = Recorder::enabled();
        observed.observe("h", 1e-4);
        observed.observe("h", 2e-3);
        let mut rebuilt = Recorder::enabled();
        let h = observed.histogram("h").unwrap().clone();
        rebuilt.merge_histogram("h", h);
        assert_eq!(rebuilt.histogram("h"), observed.histogram("h"));
        // Merging into an existing slot adds buckets.
        let h2 = observed.histogram("h").unwrap().clone();
        rebuilt.merge_histogram("h", h2);
        assert_eq!(rebuilt.histogram("h").unwrap().count(), 4);
        // Disabled recorders stay inert.
        let mut d = Recorder::disabled();
        d.merge_histogram("h", Histogram::new());
        assert!(d.is_empty());
    }

    #[test]
    fn metrics_json_reads_back_to_the_same_bytes() {
        let mut r = Recorder::enabled();
        r.add("attack.trials", 240);
        r.add("zero", 0);
        for v in [0.0, 1e-9, 8.7e-5, 4.07e-3, 64.0, 1e9, -1.0, f64::NAN] {
            r.observe("rtt", v);
        }
        r.observe("only_rejected", f64::INFINITY);
        r.merge_histogram("empty", Histogram::new());
        let h = r.histogram("rtt").unwrap();
        assert_eq!((h.underflow(), h.overflow(), h.rejected()), (2, 2, 2));
        for rec in [r, Recorder::enabled(), Recorder::disabled()] {
            let json = rec.metrics_json();
            let back = Recorder::from_metrics(&crate::read::parse(&json).unwrap()).unwrap();
            assert_eq!(back.metrics_json(), json);
            if rec.is_enabled() {
                assert_eq!(back, rec);
            }
        }
        let bad = crate::read::parse("{\"counters\":{\"x\":-1},\"histograms\":{}}").unwrap();
        assert_eq!(
            Recorder::from_metrics(&bad).unwrap_err().0,
            "counter x is not a u64"
        );
    }

    #[test]
    fn render_and_json_are_deterministic() {
        let mut r = Recorder::enabled();
        r.add("b.second", 2);
        r.add("a.first", 1);
        r.observe("lat", 1.0e-4);
        let text = r.render();
        let a = text.find("a.first").unwrap();
        let b = text.find("b.second").unwrap();
        assert!(a < b, "name-ordered output:\n{text}");
        let json = r.metrics_json();
        assert!(json.starts_with("{\"counters\":{\"a.first\":1,\"b.second\":2}"));
        assert!(json.contains("\"lat\":{\"count\":1"));
        assert_eq!(r.metrics_json(), json, "stable across calls");
    }
}
