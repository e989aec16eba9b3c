//! Parameter sweeps: how the attack responds to cache size, timeout scale
//! and window length.
//!
//! §III-B3 motivates the Markov model with the complications of a *limited
//! cache size*; rule TTLs bound how far back a probe can see; the window
//! `T` fixes the question being asked. [`SweepParameter::apply`] sets one
//! of them on a copy of a scenario, keeping everything else fixed; the
//! `sweep_parameters` experiment replans and re-runs trials at each swept
//! value, one grid cell per value.

use serde::{Deserialize, Serialize};
use traffic::NetworkScenario;

/// Which scenario parameter to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SweepParameter {
    /// The switch's reactive table capacity `n`.
    Capacity,
    /// A multiplier on every rule's timeout (in steps, min 1).
    TimeoutScale,
    /// The detection window `T`, in seconds.
    WindowSecs,
}

impl SweepParameter {
    /// Stable lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SweepParameter::Capacity => "capacity",
            SweepParameter::TimeoutScale => "timeout-scale",
            SweepParameter::WindowSecs => "window-secs",
        }
    }

    /// Applies the swept `value` to a copy of `scenario`.
    #[must_use]
    pub fn apply(self, scenario: &NetworkScenario, value: f64) -> NetworkScenario {
        let mut sc = scenario.clone();
        match self {
            SweepParameter::Capacity => {
                sc.capacity = (value.round() as usize).max(1);
            }
            SweepParameter::TimeoutScale => {
                let rules: Vec<flowspace::Rule> = sc
                    .rules
                    .rules()
                    .iter()
                    .map(|r| {
                        let steps = ((f64::from(r.timeout().steps) * value).round() as u32).max(1);
                        flowspace::Rule::from_flow_set(
                            r.covers().clone(),
                            r.priority(),
                            flowspace::Timeout {
                                kind: r.timeout().kind,
                                steps,
                            },
                        )
                    })
                    .collect();
                sc.rules = flowspace::RuleSet::new(rules, sc.rules.universe_size())
                    .expect("scaling timeouts preserves validity");
            }
            SweepParameter::WindowSecs => {
                sc.window_secs = value.max(sc.delta);
            }
        }
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traffic::ScenarioSampler;

    fn scenario() -> NetworkScenario {
        let sampler = ScenarioSampler {
            bits: 3,
            n_rules: 6,
            capacity: 3,
            delta: 0.05,
            window_secs: 10.0,
            ..ScenarioSampler::default()
        };
        let mut rng = StdRng::seed_from_u64(77);
        sampler.sample_forced((0.3, 0.7), &mut rng)
    }

    #[test]
    fn apply_capacity_clamps_and_sets() {
        let sc = scenario();
        assert_eq!(SweepParameter::Capacity.apply(&sc, 5.0).capacity, 5);
        assert_eq!(SweepParameter::Capacity.apply(&sc, 0.0).capacity, 1);
    }

    #[test]
    fn apply_timeout_scale_scales_every_rule() {
        let sc = scenario();
        let doubled = SweepParameter::TimeoutScale.apply(&sc, 2.0);
        for (orig, scaled) in sc.rules.rules().iter().zip(doubled.rules.rules()) {
            // RuleSet::new re-sorts identically (same priorities).
            assert_eq!(scaled.timeout().steps, orig.timeout().steps * 2);
        }
        let tiny = SweepParameter::TimeoutScale.apply(&sc, 0.0001);
        assert!(tiny.rules.rules().iter().all(|r| r.timeout().steps == 1));
    }

    #[test]
    fn apply_window_respects_delta_floor() {
        let sc = scenario();
        assert_eq!(SweepParameter::WindowSecs.apply(&sc, 4.0).window_secs, 4.0);
        assert_eq!(
            SweepParameter::WindowSecs.apply(&sc, 0.0).window_secs,
            sc.delta
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SweepParameter::Capacity.name(), "capacity");
        assert_eq!(SweepParameter::TimeoutScale.name(), "timeout-scale");
        assert_eq!(SweepParameter::WindowSecs.name(), "window-secs");
    }
}
