//! The basic (high-fidelity) Markov model of §IV-A.
//!
//! States are complete cache configurations — the cached rules with their
//! remaining times, in recency order — represented directly as
//! [`ftcache::FlowTable`]s. The chain is exact with respect to the paper's
//! transition semantics but its state space grows as §IV-A2's formula, so
//! it is practical only for small rule sets; the `compact` module trades
//! fidelity for scalability.
//!
//! **Normalization note.** The paper computes per-rule arrival weights
//! `(γ·e^{-γ})·e^{-Γ}` and "normalizes them to sum to one" without fixing
//! the null event's share; all readings coincide as Δ → 0. We use the
//! wall-clock-faithful assignment `P(arrival matches rule j) =
//! (1 − e^{-G})·γ_j/G` (with `G = Σ_j γ_j` the total relevant rate), which
//! keeps the chain's per-step arrival probability equal to the Poisson
//! "≥ 1 arrival per Δ" marginal at finite Δ — validated against the
//! continuous-time simulator in the workspace integration tests.

use crate::{CsrMatrix, Distribution, MatrixBuilder, ModelError};
use flowspace::relevant::{effective_rate, irrelevant_rate, relevant_flow_ids, FlowRates};
use flowspace::{FlowId, RuleId, RuleSet};
use ftcache::FlowTable;
// detlint::allow(D1): lookup-only state index keyed by FlowTable (not Ord);
// state order comes from the insertion-ordered `states` Vec, never from map
// iteration.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

/// Why a transition was taken — retained so the §V "target absent"
/// substochastic matrix can rescale exactly the edges attributable to the
/// target flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// Timeout transition (probability 1, takes priority).
    Timeout,
    /// No flow arrived this step.
    Null,
    /// A flow relevant to this rule arrived (hit if cached, install if not).
    Arrival(RuleId),
}

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    prob: f64,
    cause: Cause,
}

/// The exact Markov chain over full cache states (§IV-A).
#[derive(Debug, Clone)]
pub struct BasicModel {
    rules: RuleSet,
    rates: FlowRates,
    capacity: usize,
    states: Vec<FlowTable>,
    edges: Vec<Vec<Edge>>,
    matrix: CsrMatrix,
}

impl BasicModel {
    /// Builds the chain by breadth-first exploration from the empty cache.
    ///
    /// `max_states` bounds the exploration; the reachable space of even
    /// modest rule sets explodes (§IV-A2), which is the paper's motivation
    /// for the compact model.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UniverseMismatch`] if `rates` does not cover the
    ///   rule set's flow universe.
    /// * [`ModelError::TooManyStates`] if exploration exceeds `max_states`.
    pub fn build(
        rules: &RuleSet,
        rates: &FlowRates,
        capacity: usize,
        max_states: usize,
    ) -> Result<Self, ModelError> {
        if rules.universe_size() != rates.universe_size() {
            return Err(ModelError::UniverseMismatch {
                rules: rules.universe_size(),
                rates: rates.universe_size(),
            });
        }
        let mut states: Vec<FlowTable> = vec![FlowTable::new(capacity)];
        // detlint::allow(D1): BFS dedup lookup; exploration order is driven
        // by the `states` Vec frontier, never by map iteration.
        #[allow(clippy::disallowed_types)]
        let mut index: HashMap<FlowTable, usize> = HashMap::new();
        index.insert(states[0].clone(), 0);
        let mut edges: Vec<Vec<Edge>> = Vec::new();
        let mut frontier = 0usize;

        while frontier < states.len() {
            let state = states[frontier].clone();
            let mut out: Vec<(FlowTable, f64, Cause)> = Vec::new();

            if state.has_expiring() {
                // Timeout takes priority: single transition with prob 1.
                let mut next = state.clone();
                next.expire_one();
                out.push((next, 1.0, Cause::Timeout));
            } else {
                let cached: Vec<RuleId> = state.cached_rules().collect();
                // One aggregated arrival event per rule with relevant
                // flows. Event probabilities follow the wall-clock-faithful
                // normalization: P(the step's arrival matches rule j) =
                // (1 − e^{-G})·γ_j/G with G = Σ_j γ_j, which agrees with
                // the paper's normalized (γ·e^{-γ})·e^{-Γ} weights as
                // Δ → 0 but keeps per-step arrival rates equal to the
                // Poisson marginals at finite Δ (see module docs).
                let arrivals: Vec<(RuleId, f64, FlowId)> = rules
                    .ids()
                    .filter_map(|j| {
                        let relevant = relevant_flow_ids(rules, &cached, j);
                        let g = rates.sum_over(&relevant);
                        let repr = relevant.iter().next();
                        repr.filter(|_| g > 0.0).map(|repr| (j, g, repr))
                    })
                    .collect();
                let g_total: f64 = arrivals.iter().map(|(_, g, _)| g).sum();
                let p_any = if g_total > 0.0 {
                    1.0 - (-g_total).exp()
                } else {
                    0.0
                };
                // Null event: every timer decrements.
                let mut quiet = state.clone();
                quiet.step_null();
                out.push((quiet, 1.0 - p_any, Cause::Null));
                for (j, g, repr) in arrivals {
                    let mut next = state.clone();
                    next.on_arrival(repr, rules);
                    out.push((next, p_any * g / g_total, Cause::Arrival(j)));
                }
            }

            let total: f64 = out.iter().map(|(_, w, _)| w).sum();
            let mut row = Vec::with_capacity(out.len());
            for (next, w, cause) in out {
                let to = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        if states.len() >= max_states {
                            return Err(ModelError::TooManyStates { limit: max_states });
                        }
                        states.push(next.clone());
                        index.insert(next, states.len() - 1);
                        states.len() - 1
                    }
                };
                row.push(Edge {
                    to,
                    prob: w / total,
                    cause,
                });
            }
            edges.push(row);
            frontier += 1;
        }

        let mut matrix = MatrixBuilder::new(states.len());
        for (from, row) in edges.iter().enumerate() {
            for e in row {
                matrix.add_edge(from, e.to, e.prob);
            }
        }
        let matrix = matrix.freeze();
        Ok(BasicModel {
            rules: rules.clone(),
            rates: rates.clone(),
            capacity,
            states,
            edges,
            matrix,
        })
    }

    /// Number of reachable states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// The cache capacity `n`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The explored states; index positions match [`Distribution`] slots.
    #[must_use]
    pub fn states(&self) -> &[FlowTable] {
        &self.states
    }

    /// The normalized transition matrix, frozen for evolution.
    #[must_use]
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The initial distribution: all mass on the empty cache.
    #[must_use]
    pub fn initial(&self) -> Distribution {
        Distribution::point(self.states.len(), 0)
    }

    /// `I_T = (Aᵀ)^T · I₀` — the cache-state distribution after `steps`
    /// steps from an empty cache (Eqn 8).
    #[must_use]
    pub fn evolve(&self, steps: usize) -> Distribution {
        self.matrix.evolve_n(&self.initial(), steps)
    }

    /// Probability (under `dist`) that a probe of flow `f` would hit — i.e.
    /// that some cached rule covers `f`.
    #[must_use]
    pub fn prob_flow_hit(&self, dist: &Distribution, f: FlowId) -> f64 {
        dist.mass_where(|i| self.states[i].covering_hit(f, &self.rules).is_some())
    }

    /// Probability (under `dist`) that `rule` is cached.
    #[must_use]
    pub fn prob_rule_cached(&self, dist: &Distribution, rule: RuleId) -> f64 {
        dist.mass_where(|i| self.states[i].contains(rule))
    }

    /// The §V-A substochastic matrix Â: the contribution of arrivals of
    /// `target` is removed from each arrival edge (scaled by the fraction
    /// of the edge's effective rate not due to `target`), with all other
    /// edges unchanged. Evolving `I₀` with Â yields joint probabilities
    /// with the event "target did not arrive".
    #[must_use]
    pub fn absent_matrix(&self, target: FlowId) -> CsrMatrix {
        let mut m = MatrixBuilder::new(self.states.len());
        for (from, row) in self.edges.iter().enumerate() {
            let cached: Vec<RuleId> = self.states[from].cached_rules().collect();
            for e in row {
                let p = match e.cause {
                    Cause::Timeout | Cause::Null => e.prob,
                    Cause::Arrival(j) => {
                        let relevant = relevant_flow_ids(&self.rules, &cached, j);
                        if relevant.contains(target) {
                            let gamma = self.rates.sum_over(&relevant);
                            let without = gamma - self.rates.rate(target);
                            if gamma > 0.0 {
                                e.prob * (without / gamma).max(0.0)
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

    /// Convenience: effective rate γ of rule `j` in state `state_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `state_idx` is out of range.
    #[must_use]
    pub fn gamma(&self, state_idx: usize, j: RuleId) -> f64 {
        let cached: Vec<RuleId> = self.states[state_idx].cached_rules().collect();
        effective_rate(&self.rules, &self.rates, &cached, j)
    }

    /// Convenience: irrelevant rate Γ of rule `j` in state `state_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `state_idx` is out of range.
    #[must_use]
    pub fn big_gamma(&self, state_idx: usize, j: RuleId) -> f64 {
        let cached: Vec<RuleId> = self.states[state_idx].cached_rules().collect();
        irrelevant_rate(&self.rules, &self.rates, &cached, j)
    }
}

impl crate::SwitchModel for BasicModel {
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
        BasicModel::initial(self)
    }

    fn matrix(&self) -> &CsrMatrix {
        BasicModel::matrix(self)
    }

    fn absent_matrix(&self, target: FlowId) -> CsrMatrix {
        BasicModel::absent_matrix(self, target)
    }

    fn covers_in_state(&self, state: usize, f: FlowId) -> bool {
        self.states[state].covering_hit(f, &self.rules).is_some()
    }

    /// # Panics
    ///
    /// Always panics: a probe's timer side effects can leave the basic
    /// model's enumerated state space, so multi-probe planning must use the
    /// compact model (as the paper does).
    fn apply_probe(&self, _dist: &Distribution, _f: FlowId, _hit: bool) -> Distribution {
        panic!("BasicModel does not support apply_probe; use CompactModel for multi-probe plans")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::{FlowSet, Rule, Timeout};

    fn one_rule(timeout: u32) -> (RuleSet, FlowRates) {
        let rules = RuleSet::new(
            vec![Rule::from_flow_set(
                FlowSet::from_flows(1, [FlowId(0)]),
                10,
                Timeout::idle(timeout),
            )],
            1,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.2]);
        (rules, rates)
    }

    #[test]
    fn single_rule_state_space_matches_formula() {
        let (rules, rates) = one_rule(3);
        let model = BasicModel::build(&rules, &rates, 1, 10_000).unwrap();
        // Reachable: empty, (r,3), (r,2), (r,1), (r,0) = 5 states.
        // The §IV-A2 formula counts 1 + (t+1) = 5 as well.
        assert_eq!(model.n_states(), 5);
        assert_eq!(
            crate::counts::basic_state_count_exact(&[3], 1),
            Some(model.n_states() as u128)
        );
    }

    #[test]
    fn matrix_is_stochastic() {
        let (rules, rates) = one_rule(3);
        let model = BasicModel::build(&rules, &rates, 1, 10_000).unwrap();
        assert!(model.matrix().is_stochastic(1e-9));
    }

    #[test]
    fn evolution_conserves_mass() {
        let (rules, rates) = one_rule(4);
        let model = BasicModel::build(&rules, &rates, 1, 10_000).unwrap();
        let d = model.evolve(50);
        assert!((d.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_rule_hit_probability_analytic() {
        // With one rule and rate a = λΔ, each non-expiring state has two
        // transitions: arrival with p = 1 − e^{-a}, null with e^{-a}.
        let (rules, rates) = one_rule(3);
        let model = BasicModel::build(&rules, &rates, 1, 10_000).unwrap();
        let a: f64 = 0.2;
        let p_arr = 1.0 - (-a).exp();
        let d1 = model.matrix().evolve(&model.initial());
        let cached_after_one = model.prob_rule_cached(&d1, RuleId(0));
        assert!((cached_after_one - p_arr).abs() < 1e-12);
    }

    #[test]
    fn state_cap_is_enforced() {
        let (rules, rates) = one_rule(50);
        let err = BasicModel::build(&rules, &rates, 1, 3).unwrap_err();
        assert_eq!(err, ModelError::TooManyStates { limit: 3 });
    }

    #[test]
    fn universe_mismatch_detected() {
        let (rules, _) = one_rule(3);
        let rates = FlowRates::from_per_step(vec![0.1, 0.1]);
        let err = BasicModel::build(&rules, &rates, 1, 100).unwrap_err();
        assert!(matches!(err, ModelError::UniverseMismatch { .. }));
    }

    fn fig3_like() -> (RuleSet, FlowRates) {
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 30, Timeout::idle(2)),
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    20,
                    Timeout::idle(4),
                ),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(3)]), 10, Timeout::idle(3)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.05, 0.1, 0.15, 0.2]);
        (rules, rates)
    }

    #[test]
    fn multi_rule_chain_is_stochastic_and_bounded() {
        let (rules, rates) = fig3_like();
        let model = BasicModel::build(&rules, &rates, 2, 1_000_000).unwrap();
        assert!(model.matrix().is_stochastic(1e-9));
        let bound = crate::counts::basic_state_count_exact(&[2, 4, 3], 2).unwrap();
        assert!((model.n_states() as u128) <= bound);
        let d = model.evolve(100);
        assert!((d.total() - 1.0).abs() < 1e-9);
        // With positive rates, eventually some rule is likely cached.
        let p_any: f64 = model.prob_flow_hit(&d, FlowId(3));
        assert!(p_any > 0.1 && p_any < 1.0, "p_any = {p_any}");
    }

    #[test]
    fn absent_matrix_is_substochastic_and_reduces_hits() {
        let (rules, rates) = fig3_like();
        let model = BasicModel::build(&rules, &rates, 2, 1_000_000).unwrap();
        let target = FlowId(2);
        let sub = model.absent_matrix(target);
        assert!(sub.is_substochastic(1e-9));
        let joint = sub.evolve_n(&model.initial(), 60);
        assert!(joint.total() < 1.0);
        // Conditioned on the target never arriving, the rule covering only
        // the target's flows is less likely to be cached.
        let full = model.evolve(60);
        let p_full = model.prob_rule_cached(&full, RuleId(1));
        let p_joint = model.prob_rule_cached(&joint, RuleId(1)) / joint.total();
        assert!(p_joint < p_full, "absent: {p_joint}, full: {p_full}");
    }

    #[test]
    fn absent_matrix_for_irrelevant_flow_changes_little() {
        // Flow 0 is covered by no rule: removing it changes nothing.
        let (rules, rates) = fig3_like();
        let model = BasicModel::build(&rules, &rates, 2, 1_000_000).unwrap();
        let sub = model.absent_matrix(FlowId(0));
        assert!(sub.is_stochastic(1e-9));
    }

    #[test]
    fn gamma_accessors_are_consistent() {
        let (rules, rates) = fig3_like();
        let model = BasicModel::build(&rules, &rates, 2, 1_000_000).unwrap();
        for j in rules.ids() {
            let g = model.gamma(0, j);
            let big = model.big_gamma(0, j);
            assert!((g + big - rates.total()).abs() < 1e-12);
        }
        assert_eq!(model.capacity(), 2);
    }
}
