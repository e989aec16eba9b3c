//! Continuous monitoring: maintaining a belief over the switch state
//! across repeated probes.
//!
//! The paper's attacker asks one retrospective question ("did f̂ occur in
//! the last `T` steps?") with probes sent at a single instant. A patient
//! attacker can do better: probe every few seconds and fold each outcome
//! into a *running* belief over the cache state, detecting target activity
//! close to when it happens. [`Monitor`] implements the recursive Bayes
//! filter this requires on top of any [`SwitchModel`]:
//!
//! * **predict** — between observations the belief evolves under the
//!   chain, `b ← Aᵀ·b`, in parallel with a target-absent joint
//!   `j ← Âᵀ·j` over the current inter-probe interval;
//! * **update** — a probe outcome conditions both vectors and applies the
//!   probe's own cache effect (§V-B's adjustment).
//!
//! After each update, `P(target occurred in the last interval)` falls out
//! of the two vectors' masses.

use crate::{CsrMatrix, Distribution, SwitchModel};
use flowspace::FlowId;

/// One monitoring step's inference output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalEstimate {
    /// `P(target arrived at the switch during the elapsed interval |
    /// all probe outcomes so far)`.
    pub p_target_in_interval: f64,
    /// `P(Q = 1)` the monitor predicted for the probe just made (useful
    /// for anomaly scoring).
    pub predicted_hit: f64,
}

/// A recursive Bayes filter over the switch cache state.
///
/// ```
/// use flowspace::{relevant::FlowRates, FlowId, FlowSet, Rule, RuleSet, Timeout};
/// use recon_core::{compact::CompactModel, monitor::Monitor, useq::Evaluator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rules = RuleSet::new(vec![
///     Rule::from_flow_set(FlowSet::from_flows(2, [FlowId(0)]), 1, Timeout::idle(6)),
/// ], 2)?;
/// let rates = FlowRates::from_per_step(vec![0.05, 0.0]);
/// let model = CompactModel::build(&rules, &rates, 1, Evaluator::mean_field())?;
/// let mut monitor = Monitor::new(&model, FlowId(0));
/// monitor.advance(50);                       // 50 quiet steps
/// let est = monitor.observe(FlowId(0), true); // probe came back fast
/// assert!(est.p_target_in_interval > 0.5);    // the target must have been by
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Monitor<'a, M: SwitchModel> {
    model: &'a M,
    absent: CsrMatrix,
    target: FlowId,
    /// Current belief over states (normalized).
    belief: Distribution,
    /// Joint with "no target arrival since the last estimate" —
    /// substochastic companion of `belief`.
    joint: Distribution,
}

impl<'a, M: SwitchModel> Monitor<'a, M> {
    /// Starts monitoring from the empty-cache state.
    #[must_use]
    pub fn new(model: &'a M, target: FlowId) -> Self {
        Monitor {
            absent: model.absent_matrix(target),
            target,
            belief: model.initial(),
            joint: model.initial(),
            model,
        }
    }

    /// The monitored target flow.
    #[must_use]
    pub fn target(&self) -> FlowId {
        self.target
    }

    /// Current belief over cache states, for the tests that check it
    /// stays normalized.
    #[cfg(test)]
    fn belief(&self) -> &Distribution {
        &self.belief
    }

    /// Advances the filter by `steps` chain steps with no observation.
    pub fn advance(&mut self, steps: usize) {
        self.belief = self
            .model
            .matrix()
            .evolve_n_extrapolated(&self.belief, steps, 1e-12);
        self.joint = self.absent.evolve_n_extrapolated(&self.joint, steps, 1e-12);
    }

    /// `P(Q_f = 1)` the filter currently predicts for a probe of `f`.
    #[must_use]
    pub fn predict_hit(&self, f: FlowId) -> f64 {
        self.model.prob_flow_hit(&self.belief, f).clamp(0.0, 1.0)
    }

    /// Folds in an observed probe outcome and returns the estimate for
    /// the interval since the previous observation (or since monitoring
    /// started). The interval's "target occurred" clock then resets.
    ///
    /// Zero-probability observations (the model was *sure* of the other
    /// outcome) reset the filter to the evolved prior — the model was
    /// wrong, and a fresh start beats a division by zero.
    pub fn observe(&mut self, probe: FlowId, hit: bool) -> IntervalEstimate {
        let predicted_hit = self.predict_hit(probe);
        let b2 = self.model.apply_probe(&self.belief, probe, hit);
        let j2 = self.model.apply_probe(&self.joint, probe, hit);
        let b_mass = b2.total();
        if b_mass <= 0.0 {
            // Model was certain of the opposite outcome; restart.
            self.belief = self.model.initial();
            self.joint = self.model.initial();
            return IntervalEstimate {
                p_target_in_interval: f64::NAN,
                predicted_hit,
            };
        }
        let p_absent = (j2.total() / b_mass).clamp(0.0, 1.0);
        self.belief = b2.normalized();
        // Reset the interval clock: the joint becomes the (normalized)
        // belief again.
        self.joint = self.belief.clone();
        IntervalEstimate {
            p_target_in_interval: 1.0 - p_absent,
            predicted_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::CompactModel;
    use crate::useq::Evaluator;
    use flowspace::relevant::FlowRates;
    use flowspace::{FlowSet, Rule, RuleSet, Timeout};

    fn model() -> CompactModel {
        let u = 3;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(0)]), 2, Timeout::idle(6)),
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    1,
                    Timeout::idle(8),
                ),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.03, 0.02, 0.15]);
        CompactModel::build(&rules, &rates, 2, Evaluator::exact()).unwrap()
    }

    #[test]
    fn belief_stays_normalized_through_cycles() {
        let m = model();
        let mut mon = Monitor::new(&m, FlowId(0));
        for round in 0..5 {
            mon.advance(40);
            let est = mon.observe(FlowId(0), round % 2 == 0);
            assert!((mon.belief().total() - 1.0).abs() < 1e-9);
            if !est.p_target_in_interval.is_nan() {
                assert!((0.0..=1.0).contains(&est.p_target_in_interval));
            }
            assert!((0.0..=1.0).contains(&est.predicted_hit));
        }
    }

    #[test]
    fn hit_on_target_exclusive_rule_spikes_the_estimate() {
        // rule0 covers only the target: observing a hit on f0 means the
        // target arrived within rule0's lifetime — the interval estimate
        // must exceed the no-information baseline.
        let m = model();
        let mut baseline = Monitor::new(&m, FlowId(0));
        baseline.advance(50);
        let miss_est = baseline.observe(FlowId(0), false);

        let mut spiked = Monitor::new(&m, FlowId(0));
        spiked.advance(50);
        let hit_est = spiked.observe(FlowId(0), true);
        assert!(
            hit_est.p_target_in_interval > miss_est.p_target_in_interval,
            "hit {hit_est:?} should exceed miss {miss_est:?}"
        );
        assert!(hit_est.p_target_in_interval > 0.9, "{hit_est:?}");
    }

    #[test]
    fn predictions_track_evolution() {
        let m = model();
        let mut mon = Monitor::new(&m, FlowId(0));
        let fresh = mon.predict_hit(FlowId(2));
        assert_eq!(fresh, 0.0, "empty cache cannot hit");
        mon.advance(100);
        assert!(
            mon.predict_hit(FlowId(2)) > 0.3,
            "f2 is chatty; its rule is usually in"
        );
    }

    #[test]
    fn impossible_observation_resets_gracefully() {
        let m = model();
        let mut mon = Monitor::new(&m, FlowId(0));
        // From the initial (empty) state a hit has probability zero.
        let est = mon.observe(FlowId(0), true);
        assert!(est.p_target_in_interval.is_nan());
        assert_eq!(est.predicted_hit, 0.0);
        assert!((mon.belief().total() - 1.0).abs() < 1e-12);
        // The filter keeps working afterwards.
        mon.advance(20);
        let est = mon.observe(FlowId(0), false);
        assert!(!est.p_target_in_interval.is_nan());
    }

    #[test]
    fn probe_side_effects_are_modeled() {
        // After a missing probe of f0, rule0 is installed by the probe
        // itself: the immediate re-probe prediction must be ≈ 1.
        let m = model();
        let mut mon = Monitor::new(&m, FlowId(0));
        mon.advance(30);
        let _ = mon.observe(FlowId(0), false);
        assert!(mon.predict_hit(FlowId(0)) > 0.999);
    }
}
