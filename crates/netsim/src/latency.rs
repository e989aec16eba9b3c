//! Latency distributions reproducing the paper's measured timings.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A truncated-at-zero Gaussian latency component (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gaussian {
    /// Mean, seconds.
    pub mean: f64,
    /// Standard deviation, seconds.
    pub std: f64,
}

impl Gaussian {
    /// The 32-bit words one [`Gaussian::sample`] reads from its
    /// generator: exactly two `f64` draws of two words each, whatever the
    /// parameters and whether or not the result is truncated. Skipping
    /// that many words of a `StdRng` (`set_word_pos`) leaves it where a
    /// sample would.
    pub(crate) const WORDS_PER_SAMPLE: u128 = 4;

    /// Samples one value via Box–Muller, truncated at zero. Reads
    /// exactly four 32-bit words (`WORDS_PER_SAMPLE`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller; u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mean + self.std * z).max(0.0)
    }
}

/// A shifted log-normal delay (seconds): `shift + exp(N(mu, sigma²))`.
///
/// Rule-setup delays are right-skewed with a hard lower bound (the
/// controller round trip can't be faster than the wire), which a Gaussian
/// gets wrong — its left tail would leak miss RTTs under the 1 ms
/// classification threshold, something the paper's testbed never observed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShiftedLogNormal {
    /// Hard minimum, seconds.
    pub shift: f64,
    /// Location of the log-normal part.
    pub mu: f64,
    /// Scale of the log-normal part.
    pub sigma: f64,
}

impl ShiftedLogNormal {
    /// Fits the distribution to a target `mean` and `std` with the given
    /// hard minimum `shift` (all seconds).
    ///
    /// # Panics
    ///
    /// Panics unless `mean > shift` and `std > 0`.
    #[must_use]
    pub fn from_moments(shift: f64, mean: f64, std: f64) -> Self {
        assert!(mean > shift, "mean {mean} must exceed shift {shift}");
        assert!(std > 0.0, "std must be positive");
        let m = mean - shift;
        let sigma2 = (1.0 + (std / m).powi(2)).ln();
        ShiftedLogNormal {
            shift,
            mu: m.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Samples one value (always ≥ `shift`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.shift + (self.mu + self.sigma * z).exp()
    }
}

/// The latency model of the simulated network, calibrated to the paper's
/// measurements (§VI-A): the attacker's observed response time was
/// 0.087 ms ± 0.021 ms when a covering rule was cached and 4.070 ms ±
/// 1.806 ms when rule setup was required, cleanly separated by a 1 ms
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Per-direction path traversal time for a packet whose lookups all
    /// hit (half the hit RTT).
    pub path_one_way: Gaussian,
    /// Additional delay for one reactive rule installation (controller
    /// round trip + processing + flow-mod insertion), `t_setup` in §III-A.
    pub rule_setup: ShiftedLogNormal,
}

impl LatencyModel {
    /// The calibration matching the paper's testbed measurements.
    #[must_use]
    pub fn paper_calibrated() -> Self {
        LatencyModel {
            // Hit RTT ≈ N(0.087 ms, 0.021 ms) → one-way half of both moments
            // (two independent half-path samples sum to the full RTT).
            path_one_way: Gaussian {
                mean: 0.087e-3 / 2.0,
                std: 0.021e-3 / 1.5,
            },
            // Miss RTT ≈ hit RTT + setup; setup moments N-matched to
            // (3.983 ms, 1.806 ms) with a 1.3 ms hard floor, so every miss
            // stays above the 1 ms threshold (as on the paper's testbed).
            rule_setup: ShiftedLogNormal::from_moments(1.3e-3, 4.070e-3 - 0.087e-3, 1.806e-3),
        }
    }

    /// The paper's classification threshold separating hit from miss RTTs.
    #[must_use]
    pub fn threshold() -> f64 {
        1.0e-3
    }

    /// Per-link-segment latency for hop-by-hop forwarding.
    ///
    /// `path_one_way` is calibrated end-to-end for the evaluation
    /// topology's reference path of [`LatencyModel::REFERENCE_SEGMENTS`]
    /// segments (host→switch, switch→switch, switch→host); a single
    /// segment gets `1/R` of the mean and `1/√R` of the deviation, so a
    /// reference-length path reproduces the calibrated moments exactly and
    /// longer paths scale naturally.
    #[must_use]
    pub fn segment(&self) -> Gaussian {
        let r = Self::REFERENCE_SEGMENTS as f64;
        Gaussian {
            mean: self.path_one_way.mean / r,
            std: self.path_one_way.std / r.sqrt(),
        }
    }

    /// Segments of the calibration reference path: the evaluation
    /// topology's 2 inter-switch hops plus the two host-attachment links.
    pub const REFERENCE_SEGMENTS: usize = 4;
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments_are_close() {
        let g = Gaussian {
            mean: 4.0e-3,
            std: 1.8e-3,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 4.0e-3).abs() < 0.1e-3, "mean {mean}");
        assert!((var.sqrt() - 1.8e-3).abs() < 0.1e-3, "std {}", var.sqrt());
    }

    #[test]
    fn gaussian_never_negative() {
        let g = Gaussian {
            mean: 0.0,
            std: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(g.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn one_sample_reads_the_words_a_skip_jumps() {
        // The calibrated segment, `std` 0, and one truncated at 0 in
        // ~98% of its samples.
        let gaussians = [
            LatencyModel::paper_calibrated().segment(),
            Gaussian {
                mean: 1.0e-3,
                std: 0.0,
            },
            Gaussian {
                mean: -1.0,
                std: 0.5,
            },
        ];
        let mut rng = StdRng::seed_from_u64(4);
        let mut truncated = 0;
        for i in 0..300 {
            let g = gaussians[i % gaussians.len()];
            let mut skipped = rng.clone();
            let x = g.sample(&mut rng);
            truncated += usize::from(x == 0.0);
            skipped.set_word_pos(skipped.get_word_pos() + Gaussian::WORDS_PER_SAMPLE);
            assert_eq!(skipped.get_word_pos(), rng.get_word_pos(), "sample {i}");
            assert_eq!(skipped.gen::<u64>(), rng.clone().gen::<u64>(), "sample {i}");
        }
        assert!(truncated >= 90, "only {truncated} samples truncated at 0");
    }

    #[test]
    fn calibration_separates_hit_from_miss_perfectly() {
        let m = LatencyModel::paper_calibrated();
        let mut rng = StdRng::seed_from_u64(3);
        let threshold = LatencyModel::threshold();
        for _ in 0..50_000 {
            let hit_rtt = m.path_one_way.sample(&mut rng) + m.path_one_way.sample(&mut rng);
            let miss_rtt = hit_rtt + m.rule_setup.sample(&mut rng);
            // The paper found the two cases "easily distinguishable".
            assert!(hit_rtt < threshold, "hit rtt {hit_rtt} over threshold");
            assert!(miss_rtt >= threshold, "miss rtt {miss_rtt} under threshold");
        }
    }

    #[test]
    fn shifted_log_normal_matches_requested_moments() {
        let d = ShiftedLogNormal::from_moments(1.3e-3, 3.983e-3, 1.806e-3);
        let mut rng = StdRng::seed_from_u64(8);
        let n = 300_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.983e-3).abs() < 0.05e-3, "mean {mean}");
        assert!((var.sqrt() - 1.806e-3).abs() < 0.1e-3, "std {}", var.sqrt());
        assert!(samples.iter().all(|&x| x >= 1.3e-3), "hard floor violated");
    }

    #[test]
    #[should_panic(expected = "must exceed shift")]
    fn log_normal_rejects_mean_below_shift() {
        let _ = ShiftedLogNormal::from_moments(2.0e-3, 1.0e-3, 1.0e-3);
    }
}
