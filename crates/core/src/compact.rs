//! The compact (scalable, approximate) Markov model of §IV-B.
//!
//! A state is just the *subset* of rules presently cached (at most `n`),
//! giving at most `Σ_{n'≤n} C(|Rules|, n')` states
//! ([`compact_state_count`](crate::counts::compact_state_count), the
//! paper's count, is that upper bound) instead of the basic model's
//! astronomically many. The price is that timers are gone: eviction and
//! timeout behavior must be estimated probabilistically, which is the job
//! of the [`useq`](crate::useq) evaluators.
//!
//! The model keeps only the subsets reachable from the empty cache. A
//! reactive switch caches a rule only when a miss installs it, and a miss
//! on flow `f` installs `f`'s highest-priority covering rule; so a rule
//! that is no flow's highest-priority match (one fully shadowed by
//! higher-priority rules) is never cached. The closure of the empty cache
//! under "a miss on a flow no cached rule covers installs its
//! highest-priority rule, evicting any cached rule at capacity" and "any
//! cached rule times out" is exactly the set of subsets of size `≤ n` of
//! these *installable* rules: every such subset is reached by installing
//! its rules in descending priority, as a rule's installing flow is covered
//! by no higher-priority rule. The closure ignores rates, eviction weights
//! and hazards, so it holds every state the chain, the absent-target
//! matrix and [`SwitchModel::apply_probe`] can reach; every other subset
//! would carry probability exactly 0 at every step. States stay in
//! ascending mask order, so each sum over states sees the same nonzero
//! terms in the same order as over all subsets.
//!
//! Transition structure out of a state `S`:
//!
//! Transitions out of a state `S` are assembled from three event kinds
//! (see the [`basic`](crate::basic) module docs for the normalization
//! rationale):
//!
//! * **arrival events** — `P(arrival matching rule j) = (1−e^{-G})·γ_j/G`
//!   with `γ_j` the effective rate of §IV-A1 and `G = Σ_j γ_j`: a cached
//!   `j` self-loops (a hit leaves the subset unchanged); an uncached `j`
//!   joins the subset, displacing a victim drawn from the estimated
//!   eviction distribution when `|S| = n` (§IV-B1, Fig. 4);
//! * **timeout events** — each cached rule may expire per its estimated
//!   per-step hazard `P(rule should time out | cached)` (§IV-B2, Fig. 5),
//!   normalized to at most one expiry per transition;
//! * **quiet event** — the remaining probability.

use crate::useq::{CacheAnalysis, Evaluator};
use crate::{CsrMatrix, Distribution, MatrixBuilder, ModelError, SwitchModel};
use flowspace::relevant::{relevant_flow_ids, FlowRates};
use flowspace::{FlowId, RuleId, RuleSet};
use ftcache::PolicyKind;
use std::collections::BTreeMap;

/// Maximum number of rules the bitmask state encoding supports.
pub const MAX_RULES: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    Quiet,
    Timeout(RuleId),
    Arrival(RuleId),
}

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    prob: f64,
    cause: Cause,
}

/// The compact Markov model over cached-rule subsets (§IV-B).
#[derive(Debug, Clone)]
pub struct CompactModel {
    rules: RuleSet,
    rates: FlowRates,
    capacity: usize,
    /// The eviction policy the model assumes the switch runs.
    policy: PolicyKind,
    /// Bitmasks of the reachable states (bit `i` set ⇔ `RuleId(i)`
    /// cached), sorted ascending; state 0 is always the empty cache.
    states: Vec<u32>,
    index: BTreeMap<u32, usize>,
    /// Per-state eviction/timeout analysis from the evaluator.
    analyses: Vec<CacheAnalysis>,
    edges: Vec<Vec<Edge>>,
    matrix: CsrMatrix,
    /// Per-flow mask of the rules covering it, so probe-hit checks are a
    /// single AND instead of a walk over the cached rules.
    cover_masks: Vec<u32>,
}

fn mask_rules(mask: u32) -> Vec<RuleId> {
    (0..32)
        .filter(|b| mask & (1 << b) != 0)
        .map(|b| RuleId(b as usize))
        .collect()
}

impl CompactModel {
    /// Builds the model for the given rule set, per-step rates, cache
    /// capacity `n`, and `u`-sequence evaluator, assuming the switch runs
    /// the paper's shortest-remaining-time eviction ([`PolicyKind::Srt`]).
    ///
    /// # Errors
    ///
    /// * [`ModelError::TooManyRules`] if the rule set exceeds [`MAX_RULES`].
    /// * [`ModelError::UniverseMismatch`] if `rates` does not cover the
    ///   rule set's flow universe.
    pub fn build(
        rules: &RuleSet,
        rates: &FlowRates,
        capacity: usize,
        evaluator: Evaluator,
    ) -> Result<Self, ModelError> {
        Self::build_with_policy(rules, rates, capacity, evaluator, PolicyKind::Srt)
    }

    /// [`CompactModel::build`] with an explicit assumption about the
    /// switch's eviction policy.
    ///
    /// The policy shapes the per-state eviction distributions (§IV-B1) and
    /// through them every at-capacity arrival edge and
    /// [`SwitchModel::apply_probe`] miss update. An attacker whose assumed
    /// policy differs from the switch's actual one plans against a
    /// mismatched belief update — the axis the `defense_tournament`
    /// experiment measures.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompactModel::build`].
    pub fn build_with_policy(
        rules: &RuleSet,
        rates: &FlowRates,
        capacity: usize,
        evaluator: Evaluator,
        policy: PolicyKind,
    ) -> Result<Self, ModelError> {
        if rules.len() > MAX_RULES {
            return Err(ModelError::TooManyRules {
                found: rules.len(),
                max: MAX_RULES,
            });
        }
        if rules.universe_size() != rates.universe_size() {
            return Err(ModelError::UniverseMismatch {
                rules: rules.universe_size(),
                rates: rates.universe_size(),
            });
        }
        let cover_masks: Vec<u32> = (0..rules.universe_size() as u32)
            .map(|f| {
                rules
                    .ids()
                    .filter(|&j| rules.rule(j).covers_flow(FlowId(f)))
                    .fold(0u32, |m, j| m | (1 << j.0))
            })
            .collect();
        // RuleId order is descending priority, so a flow's highest-priority
        // covering rule is the lowest set bit of its cover mask.
        let installable = cover_masks
            .iter()
            .fold(0u32, |m, &cover| m | (cover & cover.wrapping_neg()));
        // The subsets of `installable` with at most `capacity` rules,
        // ascending: `(sub − installable) & installable` is the next
        // larger subset of `installable` after `sub`.
        let mut states = Vec::new();
        let mut sub = 0u32;
        loop {
            if (sub.count_ones() as usize) <= capacity {
                states.push(sub);
            }
            if sub == installable {
                break;
            }
            sub = sub.wrapping_sub(installable) & installable;
        }
        let index: BTreeMap<u32, usize> = states.iter().enumerate().map(|(i, &m)| (m, i)).collect();

        let mut analyses = Vec::with_capacity(states.len());
        let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(states.len());
        for &mask in &states {
            let cached = mask_rules(mask);
            let at_capacity = cached.len() == capacity;
            let analysis = evaluator.analyze_policy(rules, rates, &cached, at_capacity, policy);
            let mut row: Vec<(u32, f64, Cause)> = Vec::new();

            // Arrival events with the wall-clock-faithful normalization
            // (see the `basic` module docs): P(arrival matching rule j) =
            // (1 − e^{-G})·γ_j/G, G = Σ_j γ_j.
            let gammas: Vec<(RuleId, f64)> = rules
                .ids()
                .filter_map(|j| {
                    let g = rates.sum_over(&relevant_flow_ids(rules, &cached, j));
                    (g > 0.0).then_some((j, g))
                })
                .collect();
            let g_total: f64 = gammas.iter().map(|(_, g)| g).sum();
            let p_any = if g_total > 0.0 {
                1.0 - (-g_total).exp()
            } else {
                0.0
            };
            for &(j, g) in &gammas {
                let w = p_any * g / g_total;
                if cached.contains(&j) {
                    row.push((mask, w, Cause::Arrival(j)));
                } else if cached.len() < capacity {
                    row.push((mask | (1 << j.0), w, Cause::Arrival(j)));
                } else {
                    for (pos, &victim) in cached.iter().enumerate() {
                        let pe = analysis.evict[pos];
                        if pe > 0.0 {
                            let to = (mask & !(1 << victim.0)) | (1 << j.0);
                            row.push((to, w * pe, Cause::Arrival(j)));
                        }
                    }
                }
            }

            // Timeout events: a rule's timer advances on every step (as in
            // the basic model), so the §IV-B2 per-step hazard applies per
            // step, normalized to at most one expiry per transition
            // (Fig. 5 shows one rule leaving per transition). Expiry does
            // not displace arrival probability; the quiet event absorbs
            // whatever remains.
            let mut q_expire: Vec<f64> = Vec::with_capacity(cached.len());
            for pos in 0..cached.len() {
                let mut w = analysis.timeout[pos];
                for (pos2, &p2) in analysis.timeout.iter().enumerate() {
                    if pos2 != pos {
                        w *= 1.0 - p2;
                    }
                }
                q_expire.push(w);
            }
            let mut q_total: f64 = q_expire.iter().sum();
            let budget = 1.0 - p_any;
            if q_total > budget && q_total > 0.0 {
                // Hazards larger than the non-arrival share: rescale so the
                // row stays a distribution (rare; very short timeouts).
                for q in &mut q_expire {
                    *q *= budget / q_total;
                }
                q_total = budget;
            }
            for (pos, &j) in cached.iter().enumerate() {
                if q_expire[pos] > 0.0 {
                    row.push((mask & !(1 << j.0), q_expire[pos], Cause::Timeout(j)));
                }
            }
            // Quiet event: no arrival, no expiry.
            row.push((mask, budget - q_total, Cause::Quiet));

            let total: f64 = row.iter().map(|(_, w, _)| w).sum();
            let out: Vec<Edge> = row
                .into_iter()
                .map(|(to_mask, w, cause)| Edge {
                    to: index[&to_mask],
                    prob: w / total,
                    cause,
                })
                .collect();
            analyses.push(analysis);
            edges.push(out);
        }

        let mut matrix = MatrixBuilder::new(states.len());
        for (from, row) in edges.iter().enumerate() {
            for e in row {
                matrix.add_edge(from, e.to, e.prob);
            }
        }
        let matrix = matrix.freeze();
        Ok(CompactModel {
            rules: rules.clone(),
            rates: rates.clone(),
            capacity,
            policy,
            states,
            index,
            analyses,
            edges,
            matrix,
            cover_masks,
        })
    }

    /// Number of states: the subsets of at most `n` rules reachable from
    /// the empty cache (see the module docs). At most the paper's
    /// [`compact_state_count`](crate::counts::compact_state_count)`(|Rules|, n)`
    /// `= Σ_{n'=0}^{n} C(|Rules|, n')`, with equality when every rule is
    /// some flow's highest-priority match.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Cache capacity `n`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The eviction policy the model assumes the switch runs.
    #[must_use]
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The bitmask of a state (bit `i` ⇔ `RuleId(i)` cached).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    // detlint::allow(D10): tests/reachable_model.rs checks the state set against its closure
    #[must_use]
    pub fn state_mask(&self, state: usize) -> u32 {
        self.states[state]
    }

    /// Index of the state holding exactly `rules`: `None` over capacity,
    /// for an id outside the rule set, or for a subset unreachable from
    /// the empty cache (one holding a rule that is no flow's
    /// highest-priority match).
    // detlint::allow(D10): tests/reachable_model.rs looks up the states a FlowTable reaches
    #[must_use]
    pub fn state_of(&self, rules: &[RuleId]) -> Option<usize> {
        let mut mask = 0u32;
        for &r in rules {
            mask |= self.rule_bit(r)?;
        }
        self.index.get(&mask).copied()
    }

    /// The state-mask bit of `rule`, or `None` for an id outside the rule
    /// set (whose shift would otherwise alias another rule's bit).
    fn rule_bit(&self, rule: RuleId) -> Option<u32> {
        (rule.0 < self.rules.len()).then(|| 1 << rule.0)
    }

    /// The evaluator's eviction/timeout analysis for a state.
    #[must_use]
    pub fn analysis(&self, state: usize) -> &CacheAnalysis {
        &self.analyses[state]
    }

    /// Probability (under `dist`) that `rule` is cached; 0 for an id
    /// outside the rule set or a rule no reachable state holds.
    // detlint::allow(D10): compared with the basic model in tests/model_vs_simulation.rs
    #[must_use]
    pub fn prob_rule_cached(&self, dist: &Distribution, rule: RuleId) -> f64 {
        let Some(bit) = self.rule_bit(rule) else {
            return 0.0;
        };
        // Folded from +0.0, not `sum()`: a rule no state holds sums no
        // terms, and an empty f64 sum is −0.0.
        (0..self.states.len())
            .filter(|&i| self.states[i] & bit != 0)
            .fold(0.0, |acc, i| acc + dist.mass(i))
    }

    /// `I_T` after `steps` steps from the empty cache (Eqn 8).
    #[must_use]
    pub fn evolve(&self, steps: usize) -> Distribution {
        self.matrix.evolve_n(&self.initial(), steps)
    }
}

impl SwitchModel for CompactModel {
    fn n_states(&self) -> usize {
        self.states.len()
    }

    fn rules(&self) -> &RuleSet {
        &self.rules
    }

    fn rates(&self) -> &FlowRates {
        &self.rates
    }

    fn initial(&self) -> Distribution {
        Distribution::point(self.states.len(), 0)
    }

    fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    fn absent_matrix(&self, target: FlowId) -> CsrMatrix {
        let mut m = MatrixBuilder::new(self.states.len());
        for (from, row) in self.edges.iter().enumerate() {
            let cached = mask_rules(self.states[from]);
            for e in row {
                let p = match e.cause {
                    Cause::Quiet | Cause::Timeout(_) => e.prob,
                    Cause::Arrival(j) => {
                        let relevant = relevant_flow_ids(&self.rules, &cached, j);
                        if relevant.contains(target) {
                            let gamma = self.rates.sum_over(&relevant);
                            if gamma > 0.0 {
                                e.prob * ((gamma - self.rates.rate(target)) / gamma).max(0.0)
                            } else {
                                0.0
                            }
                        } else {
                            e.prob
                        }
                    }
                };
                m.add_edge(from, e.to, p);
            }
        }
        m.freeze()
    }

    fn covers_in_state(&self, state: usize, f: FlowId) -> bool {
        let cover = self.cover_masks.get(f.0 as usize).copied().unwrap_or(0);
        self.states[state] & cover != 0
    }

    fn apply_probe(&self, dist: &Distribution, f: FlowId, hit: bool) -> Distribution {
        let conditioned = dist.retain_where(|i| self.covers_in_state(i, f) == hit);
        if hit {
            // A probe hit refreshes recency only; the subset is unchanged.
            return conditioned;
        }
        let Some(install) = self.rules.highest_covering(f) else {
            return conditioned; // uncovered probe: no rule installed
        };
        let mut out = vec![0.0; self.states.len()];
        for (i, &mask) in self.states.iter().enumerate() {
            let mass = conditioned.mass(i);
            if mass == 0.0 {
                continue;
            }
            let cached = mask_rules(mask);
            debug_assert!(!cached.contains(&install));
            if cached.len() < self.capacity {
                let to = self.index[&(mask | (1 << install.0))];
                out[to] += mass;
            } else {
                let analysis = &self.analyses[i];
                for (pos, &victim) in cached.iter().enumerate() {
                    let to = self.index[&((mask & !(1 << victim.0)) | (1 << install.0))];
                    out[to] += mass * analysis.evict[pos];
                }
            }
        }
        Distribution::from_masses(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::compact_state_count;
    use flowspace::{FlowSet, Rule, Timeout};

    fn small() -> (RuleSet, FlowRates) {
        // rule0 covers {1} (pri 30, t=3); rule1 covers {1,2} (pri 20, t=5);
        // rule2 covers {3} (pri 10, t=4). Flow 0 is uncovered.
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 30, Timeout::idle(3)),
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    20,
                    Timeout::idle(5),
                ),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(3)]), 10, Timeout::idle(4)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.05, 0.1, 0.15, 0.2]);
        (rules, rates)
    }

    fn model(capacity: usize) -> CompactModel {
        let (rules, rates) = small();
        CompactModel::build(&rules, &rates, capacity, Evaluator::exact()).unwrap()
    }

    #[test]
    fn state_count_matches_formula() {
        let m = model(2);
        assert_eq!(m.n_states() as u128, compact_state_count(3, 2).unwrap());
        let m3 = model(3);
        assert_eq!(m3.n_states() as u128, compact_state_count(3, 3).unwrap());
    }

    #[test]
    fn shadowed_rule_is_never_cached() {
        // rule1 covers {1}, inside rule0's {1,2}: no flow's highest-priority
        // match, so no reachable state holds it.
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    30,
                    Timeout::idle(3),
                ),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 20, Timeout::idle(5)),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(3)]), 10, Timeout::idle(4)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.05, 0.1, 0.15, 0.2]);
        let dead = RuleId(1);
        for evaluator in [Evaluator::exact(), Evaluator::mean_field()] {
            let m = CompactModel::build(&rules, &rates, 2, evaluator).unwrap();
            assert_eq!(m.n_states(), 4); // {}, {0}, {2}, {0,2}
            assert!((m.n_states() as u128) < compact_state_count(3, 2).unwrap());
            assert_eq!(m.state_of(&[dead]), None);
            assert_eq!(m.state_of(&[RuleId(0), dead]), None);
            assert!(m.state_of(&[RuleId(0), RuleId(2)]).is_some());
            assert!(m.matrix().is_stochastic(1e-9));
            let d = m.evolve(100);
            let p = m.prob_rule_cached(&d, dead);
            assert!(p == 0.0 && p.is_sign_positive(), "{p:?}");
            assert!(m.prob_rule_cached(&d, RuleId(0)) > 0.0);
        }
    }

    #[test]
    fn matrix_is_stochastic_and_conserves_mass() {
        let m = model(2);
        assert!(m.matrix().is_stochastic(1e-9));
        let d = m.evolve(200);
        assert!((d.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn state_round_trips() {
        let m = model(2);
        for s in 0..m.n_states() {
            let rules = mask_rules(m.state_mask(s));
            assert_eq!(m.state_of(&rules), Some(s));
            assert_eq!(rules.len() as u32, m.state_mask(s).count_ones());
            assert!(rules.len() <= m.capacity());
        }
        assert_eq!(m.state_of(&[RuleId(0), RuleId(1), RuleId(2)]), None); // over capacity
    }

    #[test]
    fn out_of_range_rule_ids_alias_no_state() {
        // Twelve rules: ids 12..=31 are past the rule set but inside the
        // u32 mask; 32 and 40 would wrap onto the bits of ids 0 and 8.
        let u = 12;
        let rules = RuleSet::new(
            (0..12)
                .map(|i| {
                    Rule::from_flow_set(
                        FlowSet::from_flows(u, [FlowId(i)]),
                        100 - i,
                        Timeout::idle(3),
                    )
                })
                .collect(),
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.05; u]);
        let m = CompactModel::build(&rules, &rates, 2, Evaluator::mean_field()).unwrap();
        let d = m.evolve(50);
        for id in [12, 31, 32, 40] {
            assert_eq!(m.state_of(&[RuleId(id)]), None, "RuleId({id})");
            assert_eq!(m.state_of(&[RuleId(0), RuleId(id)]), None, "RuleId({id})");
            assert_eq!(m.prob_rule_cached(&d, RuleId(id)), 0.0, "RuleId({id})");
        }
        for id in [0, 8, 11] {
            let s = m.state_of(&[RuleId(id)]).expect("in range");
            assert_eq!(mask_rules(m.state_mask(s)), vec![RuleId(id)]);
            assert!(m.prob_rule_cached(&d, RuleId(id)) > 0.0);
        }
    }

    #[test]
    fn higher_rate_rules_more_likely_cached() {
        let m = model(2);
        let d = m.evolve(300);
        // Flow 3 (rate .2) feeds rule2; flow 2 (.15) + flow 1 via overlap
        // feed rule1; rule0 only gets f1 (0.1) and competes with rule1.
        let p2 = m.prob_rule_cached(&d, RuleId(2));
        let p0 = m.prob_rule_cached(&d, RuleId(0));
        assert!(p2 > p0, "p2={p2} p0={p0}");
    }

    #[test]
    fn covers_in_state_checks_any_cached_cover() {
        let m = model(2);
        let s01 = m.state_of(&[RuleId(0), RuleId(1)]).unwrap();
        assert!(m.covers_in_state(s01, FlowId(1)));
        assert!(m.covers_in_state(s01, FlowId(2)));
        assert!(!m.covers_in_state(s01, FlowId(3)));
        assert!(!m.covers_in_state(0, FlowId(1))); // empty cache
    }

    #[test]
    fn absent_matrix_substochastic_and_lowers_target_rule() {
        let m = model(2);
        let target = FlowId(2); // covered only by rule1
        let sub = m.absent_matrix(target);
        assert!(sub.is_substochastic(1e-9));
        let joint = sub.evolve_n(&m.initial(), 120);
        assert!(joint.total() < 1.0);
        let full = m.evolve(120);
        let p_full = m.prob_rule_cached(&full, RuleId(1));
        let p_cond = m.prob_rule_cached(&joint, RuleId(1)) / joint.total();
        assert!(p_cond < p_full, "cond={p_cond} full={p_full}");
    }

    #[test]
    fn absent_matrix_of_uncovered_flow_is_stochastic() {
        let m = model(2);
        assert!(m.absent_matrix(FlowId(0)).is_stochastic(1e-9));
    }

    #[test]
    fn apply_probe_hit_conditions_without_moving_mass() {
        let m = model(2);
        let d = m.evolve(100);
        let hit = m.apply_probe(&d, FlowId(3), true);
        // Total equals P(Q=1).
        let p_q1 = m.prob_flow_hit(&d, FlowId(3));
        assert!((hit.total() - p_q1).abs() < 1e-12);
        // All mass sits on states containing a rule covering f3.
        for i in 0..m.n_states() {
            if hit.mass(i) > 0.0 {
                assert!(m.covers_in_state(i, FlowId(3)));
            }
        }
    }

    #[test]
    fn apply_probe_miss_installs_covering_rule() {
        let m = model(2);
        let d = m.evolve(100);
        let miss = m.apply_probe(&d, FlowId(3), false);
        let p_q0 = 1.0 - m.prob_flow_hit(&d, FlowId(3));
        assert!((miss.total() - p_q0).abs() < 1e-9);
        // After the probe, every surviving state contains rule2.
        for i in 0..m.n_states() {
            if miss.mass(i) > 1e-15 {
                assert!(
                    mask_rules(m.state_mask(i)).contains(&RuleId(2)),
                    "state {i}"
                );
            }
        }
    }

    #[test]
    fn apply_probe_miss_at_capacity_spreads_over_victims() {
        let m = model(1); // capacity 1: any install evicts the lone rule
        let d = m.evolve(50);
        let miss = m.apply_probe(&d, FlowId(3), false);
        for i in 0..m.n_states() {
            if miss.mass(i) > 1e-15 {
                assert_eq!(mask_rules(m.state_mask(i)), vec![RuleId(2)]);
            }
        }
    }

    #[test]
    fn apply_probe_uncovered_flow_only_conditions() {
        let m = model(2);
        let d = m.evolve(100);
        let out = m.apply_probe(&d, FlowId(0), false);
        assert!((out.total() - 1.0).abs() < 1e-9); // Q=0 always for f0
        let hit = m.apply_probe(&d, FlowId(0), true);
        assert_eq!(hit.total(), 0.0);
    }

    #[test]
    fn too_many_rules_rejected() {
        let u = 32;
        let rules = RuleSet::new(
            (0..25)
                .map(|i| {
                    Rule::from_flow_set(
                        FlowSet::from_flows(u, [FlowId(i)]),
                        100 - i,
                        Timeout::idle(3),
                    )
                })
                .collect(),
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.01; 32]);
        let err = CompactModel::build(&rules, &rates, 4, Evaluator::mean_field()).unwrap_err();
        assert_eq!(
            err,
            ModelError::TooManyRules {
                found: 25,
                max: MAX_RULES
            }
        );
    }

    #[test]
    fn universe_mismatch_rejected() {
        let (rules, _) = small();
        let rates = FlowRates::from_per_step(vec![0.1; 3]);
        let err = CompactModel::build(&rules, &rates, 2, Evaluator::mean_field()).unwrap_err();
        assert!(matches!(err, ModelError::UniverseMismatch { .. }));
    }

    #[test]
    fn build_assumes_srt_and_policies_change_the_chain() {
        let (rules, rates) = small();
        let srt = CompactModel::build(&rules, &rates, 2, Evaluator::exact()).unwrap();
        assert_eq!(srt.policy(), PolicyKind::Srt);
        let srt2 =
            CompactModel::build_with_policy(&rules, &rates, 2, Evaluator::exact(), PolicyKind::Srt)
                .unwrap();
        let d_srt = srt.evolve(200);
        let d_srt2 = srt2.evolve(200);
        for j in rules.ids() {
            assert_eq!(
                srt.prob_rule_cached(&d_srt, j),
                srt2.prob_rule_cached(&d_srt2, j)
            );
        }
        for policy in [PolicyKind::Lru, PolicyKind::Fdrc] {
            let m = CompactModel::build_with_policy(&rules, &rates, 2, Evaluator::exact(), policy)
                .unwrap();
            assert_eq!(m.policy(), policy);
            assert!(m.matrix().is_stochastic(1e-9), "{policy}");
            let d = m.evolve(200);
            let moved = rules.ids().any(|j| {
                (m.prob_rule_cached(&d, j) - srt.prob_rule_cached(&d_srt, j)).abs() > 1e-6
            });
            assert!(moved, "{policy} should reshape the stationary occupancy");
        }
    }

    #[test]
    fn mean_field_build_close_to_exact_build() {
        let (rules, rates) = small();
        let ex = CompactModel::build(&rules, &rates, 2, Evaluator::exact()).unwrap();
        let mf = CompactModel::build(&rules, &rates, 2, Evaluator::mean_field()).unwrap();
        let de = ex.evolve(150);
        let dm = mf.evolve(150);
        for j in rules.ids() {
            let pe = ex.prob_rule_cached(&de, j);
            let pm = mf.prob_rule_cached(&dm, j);
            assert!((pe - pm).abs() < 0.05, "{j}: exact {pe} vs mean-field {pm}");
        }
    }
}
