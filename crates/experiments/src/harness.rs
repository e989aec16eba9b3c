//! Sampling, filtering and evaluating batches of network configurations.
//!
//! Every program samples through [`sample_configs`] (by way of
//! [`Run::sample`]), the one loop that draws from a sampling stream,
//! usually with [`detector_plan`] as the filter ([`sample_class`]);
//! [`collect_configs`] adds the trials for the Fig. 6/7 programs.

use attack::{
    plan_attack_full, scenario_net_config, AttackPlan, AttackerKind, ExecPolicy, PlanError,
    TrialReport, TrialRun,
};
use ftcache::PolicyKind;
use jobs::JobError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::useq::Evaluator;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use traffic::{NetworkScenario, ScenarioSampler};

use crate::run::Run;
use crate::ExpOpts;

/// The attackers most programs compare: the naive and model-based
/// probers and the prior-only random baseline.
pub const ATTACKERS: [AttackerKind; 3] = [
    AttackerKind::Naive,
    AttackerKind::Model,
    AttackerKind::Random,
];

/// Which §VI configuration class to collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigClass {
    /// Fig. 6: detector-feasible configurations in which the
    /// model-calculated optimal probe differs from the target flow.
    OptimalDiffersFromTarget,
    /// Fig. 7: detector-feasible configurations, no further restriction
    /// (the model attacker is *run* restricted, but any config qualifies).
    DetectorFeasible,
}

/// A fully evaluated configuration: the scenario, the attack plan, and the
/// trial results (the record the benchmark's `suite` replica builds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigOutcome {
    /// The sampled network configuration.
    pub scenario: NetworkScenario,
    /// The §V probe-selection output.
    pub plan: AttackPlan,
    /// Accuracy of each attacker over the trials.
    pub report: TrialReport,
}

/// The scenario generator used at full scale (the paper's parameters) or
/// shrunk for `--fast` smoke runs.
#[must_use]
pub fn sampler_for(opts: &ExpOpts) -> ScenarioSampler {
    if opts.fast {
        ScenarioSampler {
            bits: 3,
            n_rules: 6,
            capacity: 3,
            delta: 0.05,
            window_secs: 10.0,
            ..ScenarioSampler::default()
        }
    } else {
        ScenarioSampler::default()
    }
}

/// Sampling draws allowed per wanted configuration before a collection
/// gives up and returns fewer, mirroring the paper's practice of
/// discarding configurations on which no side-channel detector is
/// possible.
const ATTEMPTS_PER_CONFIG: usize = 60;

/// The `max_attempts` for sampling `count` configurations: 60 draws per
/// configuration, saturating at `usize::MAX` instead of wrapping on a huge
/// `--configs`.
#[must_use]
pub fn attempt_cap(count: usize) -> usize {
    ATTEMPTS_PER_CONFIG.saturating_mul(count)
}

/// Draws scenarios from `sampler`, with the target's absence probability
/// forced into `absence`, until `count` are accepted, `max_attempts`
/// draws are spent or SIGINT/SIGTERM raises [`jobs::interrupt::interrupted`].
/// Returns the accepted draws in draw order, each with what `accept`
/// returned for it.
///
/// This is the one loop that draws from a program's sampling stream,
/// `StdRng::seed_from_u64(seed)`. `accept` plans and filters (typically
/// [`detector_plan`]) and never draws, so which configurations a program
/// evaluates depends only on the sampler, the seed and the filter.
pub fn sample_configs<P>(
    sampler: &ScenarioSampler,
    seed: u64,
    absence: (f64, f64),
    count: usize,
    max_attempts: usize,
    mut accept: impl FnMut(&NetworkScenario) -> Option<P>,
) -> Vec<(NetworkScenario, P)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut attempts = 0usize;
    while out.len() < count && attempts < max_attempts && !jobs::interrupt::interrupted() {
        attempts += 1;
        let scenario = sampler.sample_forced(absence, &mut rng);
        if let Some(p) = accept(&scenario) {
            out.push((scenario, p));
        }
    }
    out
}

/// The default plan ([`attack::plan_attack`]'s), with candidate probes
/// scored under `policy`: the same bits at any thread count.
///
/// # Errors
///
/// As [`plan_attack_full`].
pub fn default_plan(
    scenario: &NetworkScenario,
    policy: ExecPolicy,
) -> Result<AttackPlan, PlanError> {
    plan_attack_full(
        scenario,
        Evaluator::mean_field(),
        0,
        0,
        policy,
        PolicyKind::Srt,
    )
}

/// The paper's §VI-B feasibility filter, the `accept` most programs
/// sample with: the [`default_plan`], kept when its optimal probe can act
/// as a detector for the target.
#[must_use]
pub fn detector_plan(scenario: &NetworkScenario, policy: ExecPolicy) -> Option<AttackPlan> {
    default_plan(scenario, policy)
        .ok()
        .filter(AttackPlan::is_detector)
}

/// The trial seed of configuration `ci` in the programs that run every
/// configuration with one batch seed: `collect_configs` (so
/// `evaluate_suite` and `fig6`), `fault_sweep` and `defense_tournament`.
#[must_use]
pub fn config_seed(seed: u64, ci: usize) -> u64 {
    seed ^ (ci as u64).wrapping_mul(0xA5A5_5A5A_1234_5678)
}

/// Sampled configurations with their plans, shared with a grid's cells.
pub type Configs = Arc<Vec<(NetworkScenario, AttackPlan)>>;

/// Samples up to `--configs` configurations of `class` from the
/// program's sampler, with the target's absence probability in
/// `absence`, giving up after [`attempt_cap`] draws.
pub fn sample_class(
    run: &mut Run<'_>,
    class: ConfigClass,
    absence: (f64, f64),
) -> Vec<(NetworkScenario, AttackPlan)> {
    let opts = run.opts;
    run.sample(
        &sampler_for(opts),
        absence,
        opts.configs,
        attempt_cap(opts.configs),
        |scenario| {
            let plan = detector_plan(scenario, opts.policy)?;
            match class {
                ConfigClass::OptimalDiffersFromTarget => {
                    plan.optimal_differs_from_target(scenario.target)
                }
                ConfigClass::DetectorFeasible => true,
            }
            .then_some(plan)
        },
    )
}

/// [`sample_class`] in (0.05, 0.95), then `kinds` on each configuration
/// over `--trials` trials: one grid cell per configuration, with trial
/// seed [`config_seed`]. Returns the configurations and, parallel to
/// them, their reports (`None` for a cell an interrupt stopped).
///
/// # Errors
///
/// As [`Run::grid`].
pub fn collect_configs(
    run: &mut Run<'_>,
    class: ConfigClass,
    kinds: &'static [AttackerKind],
) -> Result<(Configs, Vec<Option<TrialReport>>), JobError> {
    let configs = Arc::new(sample_class(run, class, (0.05, 0.95)));
    let reports = run.grid(&configs, configs.len(), move |configs, cell| {
        let (scenario, plan) = &configs[cell.unit];
        cell.trials(&TrialRun {
            scenario,
            plan,
            kinds,
            trials: cell.opts.trials,
            seed: config_seed(cell.opts.seed, cell.unit),
            net: &scenario_net_config(scenario),
            robust: None,
        })
    })?;
    Ok((configs, reports))
}

/// Mean of an iterator of f64, NaN when empty.
#[must_use]
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_opts() -> ExpOpts {
        ExpOpts {
            fast: true,
            configs: 2,
            trials: 5,
            seed: 11,
            policy: ExecPolicy::Serial,
            ..ExpOpts::default()
        }
    }

    /// `collect_configs` on a grid that runs to completion.
    fn collect(
        opts: &ExpOpts,
        class: ConfigClass,
        kinds: &'static [AttackerKind],
    ) -> Vec<(NetworkScenario, AttackPlan, TrialReport)> {
        let mut run = Run::new("harness_tests", opts);
        let (configs, reports) = collect_configs(&mut run, class, kinds).expect("grid runs");
        configs
            .iter()
            .zip(reports)
            .map(|((sc, plan), r)| (sc.clone(), plan.clone(), r.expect("cell completed")))
            .collect()
    }

    #[test]
    fn collect_detector_feasible_configs() {
        let kinds = &[AttackerKind::Naive, AttackerKind::Model];
        let outcomes = collect(&fast_opts(), ConfigClass::DetectorFeasible, kinds);
        assert!(
            !outcomes.is_empty(),
            "should find at least one feasible config"
        );
        for (_, plan, report) in &outcomes {
            assert!(plan.is_detector());
            assert_eq!(report.by_attacker.len(), 2);
            assert_eq!(report.by_attacker[0].1.n(), 5);
        }
    }

    #[test]
    fn fig6_class_filters_on_probe_difference() {
        let opts = ExpOpts {
            configs: 1,
            ..fast_opts()
        };
        let kinds = &[AttackerKind::Naive];
        for (sc, plan, _) in collect(&opts, ConfigClass::OptimalDiffersFromTarget, kinds) {
            assert_ne!(plan.optimal.probe, sc.target);
        }
    }

    #[test]
    fn execution_policy_does_not_change_outcomes() {
        let kinds = &[AttackerKind::Naive, AttackerKind::Model];
        let parallel = ExpOpts {
            policy: ExecPolicy::Parallel { threads: 4 },
            ..fast_opts()
        };
        assert_eq!(
            collect(&fast_opts(), ConfigClass::DetectorFeasible, kinds),
            collect(&parallel, ConfigClass::DetectorFeasible, kinds)
        );
    }

    #[test]
    fn sampling_stops_at_the_attempt_cap() {
        let mut calls = 0;
        let kept: Vec<(NetworkScenario, ())> =
            sample_configs(&sampler_for(&fast_opts()), 5, (0.2, 0.8), 3, 7, |_| {
                calls += 1;
                None
            });
        assert!(kept.is_empty());
        assert_eq!(calls, 7, "every attempt is offered to `accept` once");
    }

    #[test]
    fn attempt_cap_saturates_instead_of_wrapping() {
        assert_eq!(attempt_cap(4), 240);
        assert_eq!(attempt_cap(usize::MAX / 2), usize::MAX);
    }

    #[test]
    fn sampling_keeps_accepted_draws_in_draw_order() {
        let sampler = sampler_for(&fast_opts());
        let mut draw = 0usize;
        let kept = sample_configs(&sampler, 5, (0.2, 0.8), 4, 100, |_| {
            draw += 1;
            draw.is_multiple_of(3).then_some(draw)
        });
        let mut rng = StdRng::seed_from_u64(5);
        let by_hand: Vec<(NetworkScenario, usize)> = (1..=12usize)
            .map(|d| (sampler.sample_forced((0.2, 0.8), &mut rng), d))
            .filter(|(_, d)| d.is_multiple_of(3))
            .collect();
        assert_eq!(kept, by_hand);
    }

    #[test]
    fn sampling_nothing_draws_nothing() {
        let mut calls = 0;
        let kept = sample_configs(&sampler_for(&fast_opts()), 5, (0.2, 0.8), 0, 100, |_| {
            calls += 1;
            Some(())
        });
        assert!(kept.is_empty());
        assert_eq!(calls, 0);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert!(mean(std::iter::empty()).is_nan());
    }
}
