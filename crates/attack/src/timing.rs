//! Measuring the timing side channel itself (the §VI-A latency table).

use flowspace::{FlowId, FlowSet, Rule, RuleSet, Timeout};
use netsim::{NetConfig, Simulation};
use serde::{Deserialize, Serialize};

/// Mean, standard deviation and nearest-rank percentiles of a latency
/// sample set, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Sample mean, seconds.
    pub mean: f64,
    /// Sample standard deviation, seconds.
    pub std: f64,
    /// Median (nearest-rank p50), seconds.
    pub p50: f64,
    /// Nearest-rank 99th percentile, seconds.
    pub p99: f64,
    /// Number of samples.
    pub n: usize,
}

impl LatencyStats {
    /// Statistics over a sample set. Percentiles use the nearest-rank
    /// definition — rank `⌈q·n⌉`, 1-based — so they are exact order
    /// statistics at any `n`: with one sample p50 = p99 = that sample;
    /// with n = 100, p99 is the 99th smallest, never an out-of-range or
    /// truncated index.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            // Dividing by zero below would yield NaN mean/std; an empty
            // sample set is a well-defined "no data" result instead.
            return LatencyStats {
                mean: 0.0,
                std: 0.0,
                p50: 0.0,
                p99: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        LatencyStats {
            mean,
            std: var.sqrt(),
            p50: nearest_rank(&sorted, 0.5),
            p99: nearest_rank(&sorted, 0.99),
            n,
        }
    }
}

/// The nearest-rank order statistic of an ascending-sorted non-empty
/// sample set: the value at 1-based rank `⌈q·n⌉` (clamped to `[1, n]`).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The reproduction of the paper's measured table: hit vs miss RTT
/// statistics and the threshold's classification error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyTable {
    /// RTT statistics when a covering rule was already cached
    /// (paper: 0.087 ms ± 0.021 ms).
    pub hit: LatencyStats,
    /// RTT statistics when rule setup was required
    /// (paper: 4.070 ms ± 1.806 ms).
    pub miss: LatencyStats,
    /// Fraction of samples misclassified by the 1 ms threshold.
    pub threshold_error: f64,
}

/// Measures hit and miss RTT distributions with `samples` controlled
/// probes each: every miss sample probes a cold rule; every hit sample
/// re-probes immediately after warming it.
#[must_use]
pub fn measure_latency(samples: usize, seed: u64) -> LatencyTable {
    let rules = RuleSet::new(
        vec![Rule::from_flow_set(
            FlowSet::from_flows(2, [FlowId(0)]),
            1,
            Timeout::idle(25),
        )],
        2,
    )
    .expect("static rule set is valid");
    let config = NetConfig::eval_topology(rules, 2, 0.02);
    let mut hits = Vec::with_capacity(samples);
    let mut misses = Vec::with_capacity(samples);
    for i in 0..samples {
        let mut sim = Simulation::new(&config, seed.wrapping_add(i as u64));
        let cold = sim.probe(FlowId(0));
        misses.push(cold.rtt);
        let warm = sim.probe(FlowId(0));
        hits.push(warm.rtt);
    }
    let threshold = netsim::LatencyModel::threshold();
    let errors = hits.iter().filter(|&&r| r >= threshold).count()
        + misses.iter().filter(|&&r| r < threshold).count();
    LatencyTable {
        hit: LatencyStats::from_samples(&hits),
        miss: LatencyStats::from_samples(&misses),
        threshold_error: if samples == 0 {
            0.0
        } else {
            errors as f64 / (2 * samples) as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_magnitudes() {
        let t = measure_latency(2000, 7);
        // Paper: hit 0.087 ms ± 0.021; miss 4.070 ms ± 1.806.
        assert!(
            (t.hit.mean - 0.087e-3).abs() < 0.02e-3,
            "hit mean {}",
            t.hit.mean
        );
        assert!(
            (t.miss.mean - 4.070e-3).abs() < 0.3e-3,
            "miss mean {}",
            t.miss.mean
        );
        assert!(
            (t.miss.std - 1.806e-3).abs() < 0.3e-3,
            "miss std {}",
            t.miss.std
        );
        assert!(
            t.threshold_error < 0.05,
            "threshold error {}",
            t.threshold_error
        );
        assert_eq!(t.hit.n, 2000);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(measure_latency(50, 1), measure_latency(50, 1));
        assert_ne!(measure_latency(50, 1), measure_latency(50, 2));
    }

    #[test]
    fn percentiles_are_exact_nearest_rank_on_small_n() {
        // n = 1: every percentile is the lone sample.
        let s1 = LatencyStats::from_samples(&[3.0]);
        assert_eq!((s1.p50, s1.p99), (3.0, 3.0));
        // n = 2: p50 is rank ⌈0.5·2⌉ = 1 (the smaller), p99 rank 2.
        let s2 = LatencyStats::from_samples(&[5.0, 1.0]);
        assert_eq!((s2.p50, s2.p99), (1.0, 5.0));
        // n = 3: p50 is rank 2 (the true median), p99 rank 3.
        let s3 = LatencyStats::from_samples(&[9.0, 1.0, 4.0]);
        assert_eq!((s3.p50, s3.p99), (4.0, 9.0));
        // n = 100 over 1..=100: p50 is the 50th smallest, p99 the 99th —
        // not the index-truncated 49th/98th.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s100 = LatencyStats::from_samples(&v);
        assert_eq!((s100.p50, s100.p99), (50.0, 99.0));
    }

    #[test]
    fn hit_and_miss_percentiles_straddle_the_threshold() {
        let t = measure_latency(200, 7);
        let threshold = netsim::LatencyModel::threshold();
        assert!(t.hit.p99 < threshold, "hit p99 {}", t.hit.p99);
        assert!(t.miss.p50 > threshold, "miss p50 {}", t.miss.p50);
        assert!(t.hit.p50 <= t.hit.p99);
        assert!(t.miss.p50 <= t.miss.p99);
    }

    #[test]
    fn zero_samples_yield_zeroed_stats_not_nan() {
        let t = measure_latency(0, 7);
        assert_eq!(t.hit.n, 0);
        assert_eq!(t.miss.n, 0);
        assert_eq!(t.hit.mean, 0.0);
        assert_eq!(t.hit.std, 0.0);
        assert_eq!(t.miss.mean, 0.0);
        assert_eq!(t.miss.std, 0.0);
        assert_eq!(t.threshold_error, 0.0);
    }
}
