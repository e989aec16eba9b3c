//! Benchmark of the flow-recon experiments: the paper's §VI loop (sample
//! a configuration, build the compact model, pick the probe, run the
//! trials) timed end to end through the real experiment programs, and
//! broken down per layer by a traced replica built from the layers'
//! public functions. See `README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod compare;
pub mod e2e;
pub mod replica;
pub mod stats;
pub mod trace;
pub mod traced;

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `evaluate_suite` at the paper's operating point: model-build bound.
    Suite,
    /// `defense_tournament`: trials under eviction pressure and faults.
    Tournament,
    /// The fat-tree attack of `scalability`: simulator set-up bound.
    Fattree,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Suite, Workload::Tournament, Workload::Fattree];

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Names the accepted values when `name` is none of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}` (suite, tournament, fattree)"))
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Tournament => "tournament",
            Workload::Fattree => "fattree",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Trials per accepted configuration in `suite` (the paper's 100).
pub const SUITE_TRIALS: usize = 100;
/// Trials per grid cell in `tournament`.
pub const TOURNAMENT_TRIALS: usize = 40;
/// Grid cells per accepted `tournament` configuration: five
/// (policy, assumption) pairs times three fault rates.
pub const TOURNAMENT_CELLS: usize = 15;
/// Fat-tree arities attacked by `fattree`; a round is one batch on each.
pub const FATTREE_KS: [usize; 2] = [16, 32];
/// Trials per `fattree` batch.
pub const FATTREE_BATCH: usize = 20;

/// One measured unit of work: a program run, or a round of `fattree`
/// batches.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Seconds spent on the workload's operations.
    pub op_s: f64,
    /// Operations done: sampled configurations (`suite`), ingress lookups
    /// of the grid (`tournament`) or trials (`fattree`).
    pub ops: u64,
    /// The outputs a traced replica of the unit must reproduce.
    pub outputs: String,
}

/// Milliseconds per operation of `workload` over `units`.
///
/// A `suite` unit samples anywhere from one to sixty configurations, so
/// suite time is pooled over the run. `tournament` and `fattree` units
/// are alike in size, and their median discards the bursts in which the
/// shared host runs a unit up to 60% slower.
#[must_use]
pub fn op_ms(workload: Workload, units: &[Unit]) -> f64 {
    if workload == Workload::Suite {
        let s: f64 = units.iter().map(|u| u.op_s).sum();
        let n: u64 = units.iter().map(|u| u.ops).sum();
        return 1e3 * s / n as f64;
    }
    let per_op: Vec<f64> = units
        .iter()
        .filter(|u| u.ops > 0)
        .map(|u| 1e3 * u.op_s / u.ops as f64)
        .collect();
    stats::median(&per_op).unwrap_or(f64::NAN)
}

/// The calibration kernel's time on the reference host, seconds: end-to-end
/// times are reported at this host speed.
pub const KERNEL_NOMINAL_S: f64 = 0.03;

/// Times a fixed mix of pointer chasing over 4 MB, ordered-map churn and
/// floating point. Each vCPU of a shared host switches, for seconds to
/// minutes at a time, between speeds up to 1.6× apart; the benchmark runs
/// every program on the vCPU where this kernel is currently fastest and
/// scales the program's time by `KERNEL_NOMINAL_S` over the kernel's time
/// there.
#[must_use]
pub fn kernel_s() -> f64 {
    let t = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let n: u32 = 1 << 20;
    let mut next: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = (step() % (i as u64 + 1)) as usize;
        next.swap(i, j);
    }
    let (mut p, mut acc) = (0u32, 0u64);
    for _ in 0..n / 2 {
        p = next[p as usize];
        acc = acc.wrapping_add(u64::from(p));
    }
    let mut map = std::collections::BTreeMap::new();
    for i in 0..60_000u64 {
        map.insert(step() % 20_000, vec![i; (i % 7) as usize]);
    }
    let mut f = 0.0f64;
    for i in 1..200_000 {
        f += (f64::from(i) * 1e-3).exp().ln().sqrt();
    }
    std::hint::black_box((acc, map.len(), f));
    t.elapsed().as_secs_f64()
}

/// The member `key` of a JSON object.
#[must_use]
pub fn field<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// A 64-bit FNV-1a digest in hex.
pub(crate) fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", obs::manifest::fnv1a(bytes))
}

/// Seconds since `t`.
pub(crate) fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The seed of the `unit`-th program run of a benchmark run. Units are
/// mixed through SplitMix64 so that nearby benchmark seeds share no
/// inputs.
#[must_use]
pub fn unit_seed(seed: u64, unit: usize) -> u64 {
    jobs::splitmix64(seed ^ (unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
