//! Measuring the information leakage of a rule structure (§VII-B3).
//!
//! The paper suggests using its Markov model "as a tool to measure the
//! information leakage of the rule structure" when evaluating the
//! merge/split defense. We quantify leakage per target flow as the largest
//! information gain any single probe achieves about that target over a
//! window, and aggregate across targets. Coarsening the rules (merging)
//! should lower these numbers; refining (splitting) should raise them.

use crate::compact::CompactModel;
use crate::probe::ProbePlanner;
use crate::useq::Evaluator;
use crate::ModelError;
use flowspace::relevant::FlowRates;
use flowspace::{FlowId, RuleSet};
use serde::{Deserialize, Serialize};

/// Leakage of one target flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetLeakage {
    /// The target flow.
    pub target: FlowId,
    /// The probe achieving the largest information gain.
    pub best_probe: FlowId,
    /// That information gain (bits).
    pub info_gain: f64,
    /// Whether the best probe satisfies the §VI-B detector condition.
    pub detector_feasible: bool,
}

/// Leakage of a whole rule structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakageReport {
    /// Per-target leakage, in flow order.
    pub targets: Vec<TargetLeakage>,
}

impl LeakageReport {
    /// Mean information gain across targets.
    #[must_use]
    pub fn mean_info_gain(&self) -> f64 {
        if self.targets.is_empty() {
            return 0.0;
        }
        self.targets.iter().map(|t| t.info_gain).sum::<f64>() / self.targets.len() as f64
    }

    /// Largest per-target information gain.
    #[must_use]
    pub fn max_info_gain(&self) -> f64 {
        self.targets.iter().map(|t| t.info_gain).fold(0.0, f64::max)
    }

    /// Number of targets for which a feasible detector exists.
    #[must_use]
    pub fn detectable_targets(&self) -> usize {
        self.targets.iter().filter(|t| t.detector_feasible).count()
    }
}

/// Measures the leakage of `rules` under the given rates: for every
/// covered flow as target, the best single-probe information gain over a
/// `horizon`-step window.
///
/// Uncovered flows are skipped — no rule ever witnesses them, so their
/// leakage is identically zero.
///
/// # Errors
///
/// Propagates [`ModelError`] from model construction.
pub fn measure_leakage(
    rules: &RuleSet,
    rates: &FlowRates,
    capacity: usize,
    horizon: usize,
    evaluator: Evaluator,
) -> Result<LeakageReport, ModelError> {
    let model = CompactModel::build(rules, rates, capacity, evaluator)?;
    let candidates: Vec<FlowId> = (0..rules.universe_size() as u32).map(FlowId).collect();
    let targets = candidates
        .iter()
        .copied()
        .filter(|&f| rules.covering_count(f) > 0)
        .map(|target| {
            let planner = ProbePlanner::new(&model, target, horizon);
            let best = planner.best_probe(candidates.iter().copied())?;
            Ok(TargetLeakage {
                target,
                best_probe: best.probe,
                info_gain: best.info_gain,
                detector_feasible: best.is_detector(),
            })
        })
        .collect::<Result<Vec<_>, ModelError>>()?;
    Ok(LeakageReport { targets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::transform::{covers_preserved, merge_rules, split_rule};
    use flowspace::{FlowSet, Rule, RuleId, Timeout};

    fn rule(universe: usize, flows: &[u32], priority: u32, t: u32) -> Rule {
        Rule::from_flow_set(
            FlowSet::from_flows(universe, flows.iter().map(|&i| FlowId(i))),
            priority,
            Timeout::idle(t),
        )
    }

    fn setup() -> (RuleSet, FlowRates) {
        let u = 4;
        let rules = RuleSet::new(vec![rule(u, &[0], 30, 8), rule(u, &[1, 2], 20, 8)], u).unwrap();
        let rates = FlowRates::from_per_step(vec![0.01, 0.005, 0.2, 0.0]);
        (rules, rates)
    }

    #[test]
    fn report_covers_only_covered_flows() {
        let (rules, rates) = setup();
        let report = measure_leakage(&rules, &rates, 2, 200, Evaluator::exact()).unwrap();
        let ids: Vec<u32> = report.targets.iter().map(|t| t.target.0).collect();
        assert_eq!(ids, vec![0, 1, 2]); // f3 uncovered, skipped
        for t in &report.targets {
            assert!(t.info_gain >= 0.0);
        }
        assert!(report.max_info_gain() >= report.mean_info_gain());
    }

    #[test]
    fn merging_reduces_leakage() {
        // Target f0 has a dedicated microflow rule: hits are unambiguous.
        // After merging it with the {1,2} rule, a hit could come from the
        // chatty f2, so the maximal information gain must drop.
        let (rules, rates) = setup();
        let before = measure_leakage(&rules, &rates, 2, 200, Evaluator::exact()).unwrap();
        let merged_rules = merge_rules(&rules, RuleId(0), RuleId(1)).unwrap();
        assert!(covers_preserved(&rules, &merged_rules));
        let after = measure_leakage(&merged_rules, &rates, 2, 200, Evaluator::exact()).unwrap();
        let f0_before = before
            .targets
            .iter()
            .find(|t| t.target == FlowId(0))
            .unwrap();
        let f0_after = after
            .targets
            .iter()
            .find(|t| t.target == FlowId(0))
            .unwrap();
        assert!(
            f0_after.info_gain < f0_before.info_gain,
            "merging should blunt f0 leakage: {} -> {}",
            f0_before.info_gain,
            f0_after.info_gain
        );
    }

    #[test]
    fn splitting_increases_leakage() {
        // Inverse direction: split the {1,2} wildcard into microflows; the
        // rare f1 becomes individually observable.
        let (rules, rates) = setup();
        let before = measure_leakage(&rules, &rates, 2, 200, Evaluator::exact()).unwrap();
        let part = FlowSet::from_flows(4, [FlowId(1)]);
        let split = split_rule(&rules, RuleId(1), &part).unwrap();
        let after = measure_leakage(&split, &rates, 2, 200, Evaluator::exact()).unwrap();
        let f1_before = before
            .targets
            .iter()
            .find(|t| t.target == FlowId(1))
            .unwrap();
        let f1_after = after
            .targets
            .iter()
            .find(|t| t.target == FlowId(1))
            .unwrap();
        assert!(
            f1_after.info_gain > f1_before.info_gain,
            "splitting should sharpen f1 leakage: {} -> {}",
            f1_before.info_gain,
            f1_after.info_gain
        );
    }

    #[test]
    fn empty_report_aggregates_gracefully() {
        let r = LeakageReport { targets: vec![] };
        assert_eq!(r.mean_info_gain(), 0.0);
        assert_eq!(r.max_info_gain(), 0.0);
        assert_eq!(r.detectable_targets(), 0);
    }
}
