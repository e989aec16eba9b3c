//! Parameter sweeps: how the attack responds to cache size, timeout scale
//! and window length.
//!
//! §III-B3 motivates the Markov model with the complications of a *limited
//! cache size*; rule TTLs bound how far back a probe can see; the window
//! `T` fixes the question being asked. These utilities rebuild the plan
//! and re-run trials across a swept parameter, keeping everything else
//! fixed — the engine behind the `sweep_parameters` experiment.

use crate::{plan_attack, scenario_net_config, AttackerKind, ExecPolicy, PlanError, TrialRun};
use recon_core::exec::map_indexed;
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

/// One point of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept value.
    pub value: f64,
    /// Accuracy per attacker (over answered questions), parallel to the
    /// sweep's `kinds`.
    pub accuracy: Vec<f64>,
    /// Answer rate per attacker, parallel to `accuracy`. Always 1.0 on
    /// the fault-free configurations this sweep runs.
    pub answer_rate: Vec<f64>,
    /// The optimal probe's information gain at this point.
    pub info_gain: f64,
}

/// Sweeps `parameter` over `values` for one scenario, replanning and
/// re-running `trials` trials at each point.
///
/// Sweep points are the unit of parallelism under `policy`: each point
/// replans and re-runs its trials as one task of
/// [`map_indexed`], with the trials inside a point run serially (so a
/// parallel sweep never oversubscribes the machine). A point's trial
/// seed depends only on its index, so results are returned in value
/// order and are bit-identical to a serial sweep at the same seed.
///
/// # Errors
///
/// Propagates the [`PlanError`] of the *lowest-indexed* failing point —
/// the same one a serial sweep reports.
pub fn sweep(
    scenario: &NetworkScenario,
    parameter: SweepParameter,
    values: &[f64],
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
    policy: ExecPolicy,
) -> Result<Vec<SweepPoint>, PlanError> {
    map_indexed(policy, values.len(), |i| {
        let v = values[i];
        let sc = parameter.apply(scenario, v);
        let plan = plan_attack(&sc, recon_core::useq::Evaluator::mean_field())?;
        let report = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds,
            trials,
            seed: seed ^ (i as u64) << 8,
            net: &scenario_net_config(&sc),
            robust: None,
        }
        .run(ExecPolicy::Serial);
        Ok(SweepPoint {
            value: v,
            accuracy: kinds.iter().map(|&k| report.accuracy(k)).collect(),
            answer_rate: kinds.iter().map(|&k| report.answer_rate(k)).collect(),
            info_gain: plan.optimal.info_gain,
        })
    })
    .into_iter()
    .collect()
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
    fn sweep_produces_one_point_per_value() {
        let sc = scenario();
        let points = sweep(
            &sc,
            SweepParameter::Capacity,
            &[1.0, 3.0],
            &[AttackerKind::Model],
            10,
            3,
            ExecPolicy::Serial,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.accuracy.len(), 1);
            assert!((0.0..=1.0).contains(&p.accuracy[0]));
            assert!(p.info_gain >= 0.0);
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let sc = scenario();
        let values = [1.0, 2.0, 3.0, 4.0];
        let kinds = [AttackerKind::Naive, AttackerKind::Model];
        let serial = sweep(
            &sc,
            SweepParameter::Capacity,
            &values,
            &kinds,
            8,
            5,
            ExecPolicy::Serial,
        )
        .unwrap();
        for threads in [2, 8] {
            let parallel = sweep(
                &sc,
                SweepParameter::Capacity,
                &values,
                &kinds,
                8,
                5,
                ExecPolicy::Parallel { threads },
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SweepParameter::Capacity.name(), "capacity");
        assert_eq!(SweepParameter::TimeoutScale.name(), "timeout-scale");
        assert_eq!(SweepParameter::WindowSecs.name(), "window-secs");
    }
}
