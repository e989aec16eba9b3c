//! Fixed-bucket log-scale histograms with deterministic merge.

use crate::read::{at, ReadError};
use serde::Value;
use std::fmt::Write as _;

/// Exponent of the smallest bucketed value: `2^-20` s ≈ 0.95 µs. Smaller
/// (finite, non-negative) values land in the underflow counter.
pub const MIN_EXP: i32 = -20;

/// Exponent one past the largest bucketed value: values ≥ `2^6` = 64 s
/// land in the overflow counter.
pub const MAX_EXP: i32 = 6;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets (HdrHistogram-style), bounding the
/// relative bucket width at 1/8 ≈ 12.5%.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;

/// Total bucket count of every [`Histogram`]: all histograms share one
/// fixed layout, which is what makes merge a plain element-wise add.
pub const BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUBS;

/// Where a recorded value lands.
enum Slot {
    /// Finite, `< 2^MIN_EXP` (including zero and subnormals).
    Under,
    /// Finite, `≥ 2^MAX_EXP`.
    Over,
    /// A regular bucket index.
    Idx(usize),
    /// NaN, infinite or negative: not a duration.
    Rejected,
}

fn slot_of(v: f64) -> Slot {
    if !v.is_finite() || v < 0.0 {
        return Slot::Rejected;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        Slot::Under
    } else if exp >= MAX_EXP {
        Slot::Over
    } else {
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        Slot::Idx(((exp - MIN_EXP) as usize) * SUBS + sub)
    }
}

/// The lower edge of bucket `i`: exact, because every edge is a dyadic
/// rational representable as an f64 bit pattern.
#[must_use]
pub fn bucket_lower_edge(i: usize) -> f64 {
    let exp = MIN_EXP + (i / SUBS) as i32;
    let sub = (i % SUBS) as u64;
    f64::from_bits((((exp + 1023) as u64) << 52) | (sub << (52 - SUB_BITS)))
}

/// The (exclusive) upper edge of bucket `i`.
#[must_use]
pub fn bucket_upper_edge(i: usize) -> f64 {
    if i + 1 == BUCKETS {
        f64::from_bits(((MAX_EXP + 1023) as u64) << 52)
    } else {
        bucket_lower_edge(i + 1)
    }
}

/// A log-scale histogram of non-negative durations (seconds).
///
/// All mutable state is integer bucket counts plus exact f64 min/max, so
/// [`Histogram::merge`] is associative and commutative **bit-exactly** —
/// the property that lets worker threads record independently and the
/// main thread reduce in any order with identical results. There is
/// deliberately no floating-point sum field: f64 addition is not
/// associative, and a mean can be approximated from the buckets instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    underflow: u64,
    overflow: u64,
    rejected: u64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            underflow: 0,
            overflow: 0,
            rejected: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value. NaN, infinite or negative values are counted
    /// as rejected and otherwise ignored.
    pub fn record(&mut self, v: f64) {
        match slot_of(v) {
            Slot::Rejected => {
                self.rejected += 1;
                return;
            }
            Slot::Under => self.underflow += 1,
            Slot::Over => self.overflow += 1,
            Slot::Idx(i) => self.buckets[i] += 1,
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges `other` into `self`. Element-wise unsigned addition plus
    /// exact f64 min/max: associative, commutative, and independent of
    /// thread scheduling.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.rejected += other.rejected;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded (non-rejected) values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of rejected (NaN/infinite/negative) values.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Values below the bucketed range (including zero).
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Values at or above the bucketed range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Whether nothing (not even a rejection) was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0 && self.rejected == 0
    }

    /// Smallest recorded value, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Non-empty buckets as `(lower_edge, upper_edge, count)`, in
    /// ascending value order. Underflow/overflow are not included.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_edge(i), bucket_upper_edge(i), c))
    }

    /// Nearest-rank quantile estimate, `0.0 < q <= 1.0`: the lower edge
    /// of the bucket holding the rank-`⌈q·count⌉` value (the recorded
    /// min/max for underflow/overflow ranks). `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.min);
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return Some(bucket_lower_edge(i).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Reads back one histogram object of
    /// [`Recorder::metrics_json`](crate::Recorder::metrics_json)
    /// (`{count,underflow,overflow,rejected,min,max,buckets:[[lower_edge,
    /// count],…]}`): every edge must be a bucket's lower edge and the
    /// tallies must add up to `count`, so what reads back writes the same
    /// bytes again.
    pub(crate) fn from_json(v: &Value) -> Result<Self, ReadError> {
        let mut h = Histogram::new();
        for (edge, c) in at::<Vec<(f64, u64)>>(v, "buckets")? {
            match slot_of(edge) {
                Slot::Idx(i) if bucket_lower_edge(i) == edge => h.buckets[i] += c,
                _ => return Err(ReadError(format!("{edge:e} is no bucket's lower edge"))),
            }
        }
        h.underflow = at(v, "underflow")?;
        h.overflow = at(v, "overflow")?;
        h.rejected = at(v, "rejected")?;
        h.count = h.buckets.iter().sum::<u64>() + h.underflow + h.overflow;
        let count: u64 = at(v, "count")?;
        if count != h.count {
            return Err(ReadError(format!(
                "\"count\" is {count}, but the tallies add up to {}",
                h.count
            )));
        }
        if h.count > 0 {
            h.min = at(v, "min")?;
            h.max = at(v, "max")?;
        }
        Ok(h)
    }

    /// Renders an indented ASCII bar view of the non-empty buckets.
    #[must_use]
    pub fn render(&self, indent: &str) -> String {
        let mut out = String::new();
        if self.count == 0 {
            let _ = writeln!(out, "{indent}(no samples)");
            return out;
        }
        let peak = self
            .buckets
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.underflow)
            .max(self.overflow)
            .max(1);
        let bar = |c: u64| "#".repeat(((c * 40).div_ceil(peak) as usize).min(40));
        if self.underflow > 0 {
            let _ = writeln!(
                out,
                "{indent}{:>23}  {:<40} {}",
                format!("< {:.3e}", bucket_lower_edge(0)),
                bar(self.underflow),
                self.underflow
            );
        }
        for (lo, hi, c) in self.nonzero_buckets() {
            let _ = writeln!(out, "{indent}[{lo:>9.3e}, {hi:>9.3e})  {:<40} {c}", bar(c));
        }
        if self.overflow > 0 {
            let _ = writeln!(
                out,
                "{indent}{:>23}  {:<40} {}",
                format!(">= {:.3e}", bucket_upper_edge(BUCKETS - 1)),
                bar(self.overflow),
                self.overflow
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_exact_and_monotone() {
        for i in 0..BUCKETS {
            let lo = bucket_lower_edge(i);
            let hi = bucket_upper_edge(i);
            assert!(lo < hi, "bucket {i}: {lo} >= {hi}");
            // The lower edge maps back into its own bucket.
            match slot_of(lo) {
                Slot::Idx(j) => assert_eq!(i, j),
                _ => panic!("edge of bucket {i} did not map to a bucket"),
            }
        }
        assert_eq!(bucket_lower_edge(0), (-20.0f64).exp2());
        assert_eq!(bucket_upper_edge(BUCKETS - 1), 64.0);
    }

    #[test]
    fn records_place_values_in_covering_buckets() {
        let mut h = Histogram::new();
        for v in [0.087e-3, 4.07e-3, 1.0e-6, 63.9, 0.5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        for (lo, hi, c) in h.nonzero_buckets() {
            assert!(c > 0);
            assert!(lo < hi);
        }
        // Every recorded value is inside exactly one reported bucket.
        let total: u64 = h.nonzero_buckets().map(|(_, _, c)| c).sum();
        assert_eq!(total, 5);
        assert_eq!(h.min(), Some(1.0e-6));
        assert_eq!(h.max(), Some(63.9));
    }

    #[test]
    fn underflow_overflow_and_rejection() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(1.0e-9);
        h.record(64.0);
        h.record(1.0e9);
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.rejected(), 3);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for (i, v) in [1e-4, 2e-4, 5e-3, 0.0, 70.0, 3e-5].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            all.record(*v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutative");
        assert_eq!(ab, all, "split-and-merge equals direct recording");
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(0.09e-3); // "hit" population
        }
        h.record(4.0e-3); // one "miss"
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 < 1e-3, "p50 is in the hit population: {p50}");
        let p995 = h.quantile(0.995).unwrap();
        assert!(p995 > 1e-3, "p99.5 reaches the miss: {p995}");
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn json_reader_refuses_what_the_writer_never_writes() {
        let read = |json: &str| Histogram::from_json(&crate::read::parse(json).unwrap());
        let ok = "{\"count\":2,\"underflow\":1,\"overflow\":0,\"rejected\":3,\
                  \"min\":0e0,\"max\":1e-4,\"buckets\":[[9.918212890625e-5,1]]}";
        let h = read(ok).unwrap();
        assert_eq!((h.count(), h.underflow(), h.rejected()), (2, 1, 3));
        let off_edge = ok.replace("9.918212890625e-5", "1e-4");
        assert!(read(&off_edge).unwrap_err().0.contains("lower edge"));
        let miscounted = ok.replace("\"count\":2", "\"count\":5");
        assert!(read(&miscounted).unwrap_err().0.contains("add up to 2"));
        let no_min = ok.replace("\"min\":0e0,", "");
        assert_eq!(read(&no_min).unwrap_err().0, "lacks \"min\"");
    }

    #[test]
    fn render_mentions_every_nonzero_bucket() {
        let mut h = Histogram::new();
        h.record(0.087e-3);
        h.record(4.07e-3);
        let text = h.render("  ");
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains('#'));
    }
}
