//! Building an attack plan (model + probe selection) for a scenario.

use crate::ExecPolicy;
use flowspace::FlowId;
use ftcache::PolicyKind;
use recon_core::adaptive::AdaptiveTree;
use recon_core::compact::CompactModel;
use recon_core::probe::{DecisionTree, ProbeAnalysis, ProbePlanner};
use recon_core::useq::Evaluator;
use recon_core::ModelError;
use serde::{Deserialize, Serialize};
use std::fmt;
use traffic::NetworkScenario;

/// Everything the §V machinery decides before the attack runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackPlan {
    /// The information-gain-optimal probe over all flows.
    pub optimal: ProbeAnalysis,
    /// The optimal probe among flows other than the target (used by the
    /// restricted attacker of Fig. 7).
    pub optimal_non_target: ProbeAnalysis,
    /// The analysis of probing the target itself (the naive attack).
    pub naive: ProbeAnalysis,
    /// Model-consistent prior `P(X̂ = 0)`.
    pub p_absent: f64,
    /// Closed-form Poisson prior `e^{-λ_f̂ T}`.
    pub p_absent_poisson: f64,
    /// Non-adaptive multi-probe decision tree (§V-B), when requested via
    /// [`plan_attack_full`].
    pub multi: Option<DecisionTree>,
    /// Adaptive probing policy (extension), when requested via
    /// [`plan_attack_full`].
    pub adaptive: Option<AdaptiveTree>,
}

impl AttackPlan {
    /// Whether the optimal probe differs from the target flow — the
    /// configuration class of Fig. 6.
    #[must_use]
    pub fn optimal_differs_from_target(&self, target: FlowId) -> bool {
        self.optimal.probe != target
    }

    /// The paper's §VI-B feasibility filter: the optimal probe's outcome
    /// can act as a detector for the target.
    #[must_use]
    pub fn is_detector(&self) -> bool {
        self.optimal.is_detector()
    }
}

/// Error while planning an attack.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Building the compact model failed.
    Model(ModelError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Model(e) => write!(f, "model construction failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ModelError> for PlanError {
    fn from(e: ModelError) -> Self {
        PlanError::Model(e)
    }
}

/// Builds the compact model for `scenario` and selects the probes: the
/// paper's attacker, assuming SRT eviction, with no multi-probe or
/// adaptive tree, scoring candidates serially. It is
/// `plan_attack_full(scenario, evaluator, 0, 0, ExecPolicy::Serial,
/// PolicyKind::Srt)`.
///
/// # Errors
///
/// [`PlanError::Model`] if the model cannot be built (too many rules,
/// universe mismatch).
pub fn plan_attack(
    scenario: &NetworkScenario,
    evaluator: Evaluator,
) -> Result<AttackPlan, PlanError> {
    plan_attack_full(
        scenario,
        evaluator,
        0,
        0,
        ExecPolicy::Serial,
        PolicyKind::Srt,
    )
}

/// The planning entry point. Besides the plan [`plan_attack`] makes, it
/// prepares a non-adaptive multi-probe decision tree over `multi_probes`
/// greedily chosen probes (0 = skip) and an adaptive policy of depth
/// `adaptive_depth` (0 = skip). Candidate probes are scored under
/// `policy`, bit-identically to serial (the planner's determinism
/// contract). The attacker's model — and therefore its probe selection
/// and belief updates — is built against `cache_policy`: when the
/// simulated switch runs a different policy, the attacker plans against
/// a mismatched model (the `defense_tournament` axis).
///
/// # Errors
///
/// [`PlanError::Model`] if the model cannot be built.
pub fn plan_attack_full(
    scenario: &NetworkScenario,
    evaluator: Evaluator,
    multi_probes: usize,
    adaptive_depth: usize,
    policy: ExecPolicy,
    cache_policy: PolicyKind,
) -> Result<AttackPlan, PlanError> {
    let rates = scenario.rates();
    let model = CompactModel::build_with_policy(
        &scenario.rules,
        &rates,
        scenario.capacity,
        evaluator,
        cache_policy,
    )?;
    let planner =
        ProbePlanner::with_policy(&model, scenario.target, scenario.horizon_steps(), policy);
    let optimal = planner.best_probe(scenario.all_flows())?;
    let optimal_non_target =
        planner.best_probe(scenario.all_flows().filter(|&f| f != scenario.target))?;
    let naive = planner.analyze(scenario.target);
    let candidates: Vec<FlowId> = scenario.all_flows().collect();
    let multi = if multi_probes > 0 {
        let seq = planner.best_sequence_greedy(&candidates, multi_probes)?;
        Some(DecisionTree::from_analysis(&seq))
    } else {
        None
    };
    let adaptive = if adaptive_depth > 0 {
        Some(AdaptiveTree::plan(&planner, &candidates, adaptive_depth))
    } else {
        None
    };
    Ok(AttackPlan {
        optimal,
        optimal_non_target,
        naive,
        p_absent: planner.p_absent(),
        p_absent_poisson: planner.prior_absence_poisson(),
        multi,
        adaptive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traffic::ScenarioSampler;

    fn small_sampler() -> ScenarioSampler {
        // Small universe keeps model building fast in tests.
        ScenarioSampler {
            bits: 3,
            n_rules: 6,
            capacity: 3,
            delta: 0.05,
            window_secs: 10.0,
            ..ScenarioSampler::default()
        }
    }

    #[test]
    fn plan_produces_consistent_analyses() {
        let mut rng = StdRng::seed_from_u64(1);
        let sc = small_sampler().sample_forced((0.3, 0.7), &mut rng);
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        assert!(plan.optimal.info_gain >= plan.naive.info_gain - 1e-9);
        assert!(plan.optimal.info_gain >= plan.optimal_non_target.info_gain - 1e-9);
        assert_ne!(plan.optimal_non_target.probe, sc.target);
        assert!((0.0..=1.0).contains(&plan.p_absent));
        // Model prior and Poisson prior agree loosely.
        assert!((plan.p_absent - plan.p_absent_poisson).abs() < 0.2);
    }

    #[test]
    fn plan_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(2);
        let sc = small_sampler().sample_forced((0.4, 0.6), &mut rng);
        let a = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let b = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn assuming_srt_matches_default_plan() {
        let mut rng = StdRng::seed_from_u64(4);
        let sc = small_sampler().sample_forced((0.3, 0.7), &mut rng);
        let default = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let assuming = |policy| {
            plan_attack_full(
                &sc,
                Evaluator::mean_field(),
                0,
                0,
                ExecPolicy::Serial,
                policy,
            )
            .unwrap()
        };
        assert_eq!(default, assuming(PolicyKind::Srt));
        for policy in [PolicyKind::Lru, PolicyKind::Fdrc] {
            let p = assuming(policy);
            let q = assuming(policy);
            assert_eq!(p, q, "{policy}: planning must stay deterministic");
        }
    }

    #[test]
    fn detector_flag_matches_analysis() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let sc = small_sampler().sample_forced((0.3, 0.7), &mut rng);
            let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
            assert_eq!(plan.is_detector(), plan.optimal.is_detector());
        }
    }
}
