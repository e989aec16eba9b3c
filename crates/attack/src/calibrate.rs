//! The attacker's hit/miss classification threshold and its drift
//! envelope.
//!
//! The robust attacker seeds the threshold from the measured §VI-A
//! hit/miss populations ([`RobustState::new`]) and re-derives it from
//! its own sample window when the envelope drifts. The paper's grounding
//! is its assumption that the adversary "can estimate the delay suffered
//! by its probe packets … reliably".
//!
//! [`RobustState::new`]: crate::RobustState::new

use serde::{Deserialize, Serialize};

/// Consecutive envelope violations after which
/// [`CalibratedThreshold::drift_detected`] reports that the calibration
/// has gone stale. A single outlier never triggers re-calibration; a
/// genuine latency shift (congestion episode, path change) produces a
/// run of violations and does.
pub const DRIFT_LIMIT: u32 = 3;

/// A calibrated classification threshold with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibratedThreshold {
    /// The chosen threshold (seconds): RTTs below it are classified hits.
    pub threshold: f64,
    /// Largest observed warm (hit) RTT.
    pub max_hit: f64,
    /// Smallest observed cold (miss) RTT.
    pub min_miss: f64,
    /// Consecutive recent observations that fell outside the stored
    /// `max_hit`/`min_miss` envelope (reset by a conforming sample).
    pub drift_run: u32,
    /// Total envelope violations observed since calibration.
    pub drift_violations: u64,
}

impl CalibratedThreshold {
    /// Classifies an observed RTT: `true` = hit (covering rule was cached).
    #[must_use]
    pub fn classify(&self, rtt: f64) -> bool {
        rtt < self.threshold
    }

    /// Feeds a fresh observation into drift tracking: an RTT classified
    /// as a hit but slower than every calibration hit (or classified as
    /// a miss but faster than every calibration miss) violates the
    /// stored envelope. Returns `true` if this sample violated it.
    pub fn observe(&mut self, rtt: f64) -> bool {
        let violates = if self.classify(rtt) {
            rtt > self.max_hit
        } else {
            rtt < self.min_miss
        };
        if violates {
            self.drift_run += 1;
            self.drift_violations += 1;
        } else {
            self.drift_run = 0;
        }
        violates
    }

    /// Whether recent samples have drifted out of the calibration
    /// envelope ([`DRIFT_LIMIT`] consecutive violations) and the
    /// attacker should re-calibrate.
    #[must_use]
    pub fn drift_detected(&self) -> bool {
        self.drift_run >= DRIFT_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A threshold at the geometric midpoint of a separable envelope.
    fn envelope() -> CalibratedThreshold {
        let (max_hit, min_miss) = (0.2e-3f64, 2.0e-3f64);
        CalibratedThreshold {
            threshold: (max_hit * min_miss).sqrt(),
            max_hit,
            min_miss,
            drift_run: 0,
            drift_violations: 0,
        }
    }

    #[test]
    fn overlapping_calibration_still_splits_at_midpoint() {
        // A hand-built non-separable calibration (hit and miss
        // populations overlap, as under the padding defense): classify
        // must still split at the stored geometric midpoint.
        let cal = CalibratedThreshold {
            threshold: (4.0e-3f64 * 1.0e-3).sqrt(),
            max_hit: 4.0e-3,
            min_miss: 1.0e-3,
            drift_run: 0,
            drift_violations: 0,
        };
        assert!(cal.threshold > cal.min_miss && cal.threshold < cal.max_hit);
        assert!(cal.classify(cal.threshold * 0.9));
        assert!(!cal.classify(cal.threshold * 1.1));
    }

    #[test]
    fn drift_detection_needs_a_run_of_violations() {
        let mut cal = envelope();
        assert!(!cal.drift_detected());
        // Conforming samples never trigger.
        for _ in 0..10 {
            assert!(!cal.observe((cal.max_hit * 0.9).max(1e-6)));
            assert!(!cal.observe(cal.min_miss * 1.1));
        }
        assert!(!cal.drift_detected());
        // A lone violation (one weird sample) is tolerated...
        assert!(cal.observe(cal.max_hit * 1.5));
        assert!(!cal.drift_detected());
        assert!(!cal.observe(cal.max_hit * 0.5));
        assert_eq!(cal.drift_run, 0);
        // ...but a run of envelope-crossing hits means the latency
        // floor has moved: re-calibrate.
        for _ in 0..super::DRIFT_LIMIT {
            cal.observe(cal.max_hit * 1.5);
        }
        assert!(cal.drift_detected());
        assert_eq!(cal.drift_violations, 1 + u64::from(super::DRIFT_LIMIT));
    }

    #[test]
    fn fast_misses_also_count_as_drift() {
        let mut cal = envelope();
        // Samples classified as misses but faster than every calibration
        // miss: the miss floor has dropped (e.g. the controller got
        // faster) — the envelope is violated from the other side.
        let fishy = (cal.threshold + cal.min_miss) / 2.0;
        assert!(!cal.classify(fishy));
        for _ in 0..super::DRIFT_LIMIT {
            assert!(cal.observe(fishy));
        }
        assert!(cal.drift_detected());
    }
}
