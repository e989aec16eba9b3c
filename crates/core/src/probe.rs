//! Selecting the attacker's probe(s) — §V of the paper.
//!
//! The attacker wants to know whether the target flow f̂ occurred within
//! the last `T` steps (indicator `X̂`). Probing the switch with a flow `f`
//! yields `Q_f ∈ {0,1}` (miss/hit); the best probe maximizes the
//! information gain `𝕀𝔾(X̂ | Q_f) = ℍ(X̂) − ℍ(X̂ | Q_f)`.
//!
//! [`ProbePlanner`] is the probe-evaluation engine: it freezes the model's
//! matrices and evolves the state distribution to `I_T = Aᵀ·I₀` and the
//! joint-with-absent vector `J_T = Âᵀ·I₀` exactly once, then scores any
//! number of candidate probes against the cached pair. Multi-probe
//! sequences (§V-B) thread both vectors through each probe's conditioning +
//! cache effect; the engine shares the conditioned *prefix frontier* (the
//! per-outcome distribution pairs of the probes fixed so far) across the
//! candidate extensions of [`ProbePlanner::best_sequence_greedy`] and
//! [`ProbePlanner::best_sequence_exhaustive`] instead of re-walking every
//! sequence from `I_T`, and fans candidate scoring out across worker
//! threads under an [`ExecPolicy`].
//!
//! **Determinism contract** (extends the trial engine's, see `DESIGN.md`):
//! every candidate's score is a pure function of the cached evolved
//! distributions, scores are reduced in candidate-index order, and ties
//! break exactly as the serial scan breaks them — so results are
//! bit-identical to [`ExecPolicy::Serial`] at any thread count.

use crate::exec::{map_indexed, ExecPolicy};
use crate::{entropy, Distribution, ModelError, SwitchModel};
use flowspace::FlowId;
use serde::{Deserialize, Serialize};

/// Everything the attacker learns about one candidate probe flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeAnalysis {
    /// The candidate probe flow.
    pub probe: FlowId,
    /// `P(Q_f = 1)`: probability the probe hits a cached rule.
    pub p_hit: f64,
    /// Model-consistent `P(X̂ = 0)` (total mass of `J_T`).
    pub p_absent: f64,
    /// `P(X̂ = 0 | Q_f = 0)` — NaN when `P(Q_f = 0) = 0`.
    pub p_absent_given_miss: f64,
    /// `P(X̂ = 1 | Q_f = 1)` — NaN when `P(Q_f = 1) = 0`.
    pub p_present_given_hit: f64,
    /// `ℍ(X̂)`.
    pub prior_entropy: f64,
    /// `ℍ(X̂ | Q_f)`.
    pub conditional_entropy: f64,
    /// `𝕀𝔾(X̂ | Q_f)`.
    pub info_gain: f64,
}

impl ProbeAnalysis {
    /// The paper's §VI-B detector-feasibility condition:
    /// `P(X̂=0 | Q=0) > 0.5` **and** `P(X̂=1 | Q=1) > 0.5` — the probe's
    /// outcome can serve directly as a detector for the target flow.
    #[must_use]
    pub fn is_detector(&self) -> bool {
        self.p_absent_given_miss > 0.5 && self.p_present_given_hit > 0.5
    }
}

/// One leaf of a multi-probe outcome analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutcomeLeaf {
    /// Probe outcomes, parallel to the sequence's probes (`true` = hit).
    pub outcomes: Vec<bool>,
    /// `P(outcomes)`.
    pub p: f64,
    /// `P(outcomes ∧ X̂ = 0)`.
    pub p_and_absent: f64,
}

impl OutcomeLeaf {
    /// `P(X̂ = 1 | outcomes)`; NaN when the leaf has zero probability.
    #[must_use]
    pub fn p_present(&self) -> f64 {
        if self.p > 0.0 {
            (1.0 - self.p_and_absent / self.p).clamp(0.0, 1.0)
        } else {
            f64::NAN
        }
    }
}

/// The full analysis of an ordered multi-probe sequence (§V-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceAnalysis {
    /// The ordered probe flows.
    pub probes: Vec<FlowId>,
    /// One leaf per outcome vector (2^m leaves, outcome bits in probe
    /// order).
    pub leaves: Vec<OutcomeLeaf>,
    /// `ℍ(X̂)`.
    pub prior_entropy: f64,
    /// `ℍ(X̂ | Q_{f1}, …, Q_{fm})`.
    pub conditional_entropy: f64,
    /// `𝕀𝔾(X̂ | Q_{f1}, …, Q_{fm})`.
    pub info_gain: f64,
}

/// The attacker's classifier over probe outcomes: answer "target occurred"
/// iff the posterior `P(X̂=1 | outcomes)` exceeds ½ (§V-B's decision tree).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    probes: Vec<FlowId>,
    /// Indexed by outcome bits (bit `i` = probe `i` hit).
    posterior_present: Vec<f64>,
}

impl DecisionTree {
    /// Builds the tree from a sequence analysis.
    ///
    /// Zero-probability outcome vectors fall back to the prior decision
    /// (`P(X̂=1) > ½`), so `decide` is total.
    #[must_use]
    pub fn from_analysis(analysis: &SequenceAnalysis) -> Self {
        let m = analysis.probes.len();
        let p_absent: f64 = analysis.leaves.iter().map(|l| l.p_and_absent).sum();
        let prior_present = 1.0 - p_absent;
        let mut posterior = vec![prior_present; 1 << m];
        for leaf in &analysis.leaves {
            let idx = leaf
                .outcomes
                .iter()
                .enumerate()
                .fold(0usize, |acc, (i, &hit)| acc | (usize::from(hit) << i));
            let p = leaf.p_present();
            if !p.is_nan() {
                posterior[idx] = p;
            }
        }
        DecisionTree {
            probes: analysis.probes.clone(),
            posterior_present: posterior,
        }
    }

    /// The probes to issue, in order.
    #[must_use]
    pub fn probes(&self) -> &[FlowId] {
        &self.probes
    }

    /// The posterior `P(X̂=1 | outcomes)`.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes.len()` differs from the number of probes.
    #[must_use]
    pub fn posterior(&self, outcomes: &[bool]) -> f64 {
        assert_eq!(outcomes.len(), self.probes.len(), "outcome arity mismatch");
        let idx = outcomes
            .iter()
            .enumerate()
            .fold(0usize, |acc, (i, &hit)| acc | (usize::from(hit) << i));
        self.posterior_present[idx]
    }

    /// The classification: `true` = "the target flow occurred".
    ///
    /// # Panics
    ///
    /// Panics if `outcomes.len()` differs from the number of probes.
    #[must_use]
    pub fn decide(&self, outcomes: &[bool]) -> bool {
        self.posterior(outcomes) > 0.5
    }
}

/// One partial outcome path through a probe sequence: the conditioned
/// state distribution and absent-joint after the outcomes fixed so far.
///
/// A *frontier* (`Vec<FrontierLeaf>`) is the full set of outcome paths of
/// a probe prefix, in the engine's canonical leaf order (later probes vary
/// fastest). Sequence search extends a cached frontier by one probe per
/// candidate instead of re-walking the whole sequence from `I_T`.
#[derive(Debug, Clone)]
struct FrontierLeaf {
    outcomes: Vec<bool>,
    dist: Distribution,
    joint: Distribution,
}

type Frontier = Vec<FrontierLeaf>;

/// The probe-evaluation engine for one (model, target flow, horizon)
/// triple.
#[derive(Debug)]
pub struct ProbePlanner<'a, M: SwitchModel> {
    model: &'a M,
    target: FlowId,
    horizon: usize,
    policy: ExecPolicy,
    i_t: Distribution,
    j_t: Distribution,
}

impl<'a, M: SwitchModel> ProbePlanner<'a, M> {
    /// Evolves `I_T = Aᵀ·I₀` and `J_T = Âᵀ·I₀` (Eqn 8) for a window of
    /// `horizon` steps ending now, scoring candidates serially.
    ///
    /// Long horizons are computed with geometric extrapolation once the
    /// chain has mixed (see
    /// [`CsrMatrix::evolve_n_extrapolated`](crate::CsrMatrix::evolve_n_extrapolated)),
    /// with per-entry error far below the probe-analysis tolerances.
    #[must_use]
    pub fn new(model: &'a M, target: FlowId, horizon: usize) -> Self {
        Self::with_policy(model, target, horizon, ExecPolicy::Serial)
    }

    /// Like [`ProbePlanner::new`], but candidate-probe scoring in
    /// [`ProbePlanner::best_probe`], [`ProbePlanner::best_sequence_greedy`]
    /// and [`ProbePlanner::best_sequence_exhaustive`] fans out across
    /// `policy`'s worker threads (bit-identical to serial — see the module
    /// docs).
    #[must_use]
    pub fn with_policy(model: &'a M, target: FlowId, horizon: usize, policy: ExecPolicy) -> Self {
        const TOL: f64 = 1e-11;
        let (i_t, j_t) = obs::local::time(obs::metrics::PLANNER_EVOLVE_SECS, || {
            (
                model
                    .matrix()
                    .evolve_n_extrapolated(&model.initial(), horizon, TOL),
                model
                    .absent_matrix(target)
                    .evolve_n_extrapolated(&model.initial(), horizon, TOL),
            )
        });
        ProbePlanner {
            model,
            target,
            horizon,
            policy,
            i_t,
            j_t,
        }
    }

    /// The execution policy candidate scoring is scheduled under.
    #[must_use]
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// The target flow f̂.
    #[must_use]
    pub fn target(&self) -> FlowId {
        self.target
    }

    /// The underlying switch model.
    #[must_use]
    pub fn model(&self) -> &M {
        self.model
    }

    /// The window length `T` in steps.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The evolved cache-state distribution `I_T`.
    #[must_use]
    pub fn state_distribution(&self) -> &Distribution {
        &self.i_t
    }

    /// The evolved joint-with-absent vector `J_T`.
    #[must_use]
    pub fn absent_joint(&self) -> &Distribution {
        &self.j_t
    }

    /// The closed-form Poisson prior `P(X̂=0) = e^{-λ_f̂·T·Δ}` (§V-A).
    ///
    /// The model-consistent value (total mass of `J_T`, used in the
    /// entropy calculations) differs slightly because the chain normalizes
    /// per-step event probabilities; both are exposed.
    #[must_use]
    pub fn prior_absence_poisson(&self) -> f64 {
        (-self.model.rates().rate(self.target) * self.horizon as f64).exp()
    }

    /// Model-consistent `P(X̂ = 0)`.
    #[must_use]
    pub fn p_absent(&self) -> f64 {
        self.j_t.total().clamp(0.0, 1.0)
    }

    /// Scores one candidate probe flow.
    #[must_use]
    pub fn analyze(&self, probe: FlowId) -> ProbeAnalysis {
        let p_hit = self.model.prob_flow_hit(&self.i_t, probe).clamp(0.0, 1.0);
        let p_miss = 1.0 - p_hit;
        let p_absent = self.p_absent();
        let pa_hit = self.model.prob_flow_hit(&self.j_t, probe).clamp(0.0, 1.0);
        let pa_miss = (p_absent - pa_hit).max(0.0);
        let prior_entropy = entropy(p_absent);
        // ℍ(X̂ | Q) = Σ_{x,q} P(x ∧ q) · log 1/P(x | q).
        let mut cond = 0.0;
        for (pq, pa_q) in [(p_hit, pa_hit), (p_miss, pa_miss)] {
            if pq > 0.0 {
                cond += pq * entropy((pa_q / pq).clamp(0.0, 1.0));
            }
        }
        let p_absent_given_miss = if p_miss > 0.0 {
            (pa_miss / p_miss).clamp(0.0, 1.0)
        } else {
            f64::NAN
        };
        let p_present_given_hit = if p_hit > 0.0 {
            (1.0 - pa_hit / p_hit).clamp(0.0, 1.0)
        } else {
            f64::NAN
        };
        ProbeAnalysis {
            probe,
            p_hit,
            p_absent,
            p_absent_given_miss,
            p_present_given_hit,
            prior_entropy,
            conditional_entropy: cond,
            info_gain: (prior_entropy - cond).max(0.0),
        }
    }

    /// Scores every candidate (in parallel under the planner's policy) and
    /// returns the one with the largest information gain (among equal
    /// gains, the last candidate wins, as `Iterator::max_by` resolves
    /// ties — identical at every thread count).
    ///
    /// # Errors
    ///
    /// [`ModelError::NoCandidates`] if the iterator is empty.
    pub fn best_probe<I: IntoIterator<Item = FlowId>>(
        &self,
        candidates: I,
    ) -> Result<ProbeAnalysis, ModelError> {
        let candidates: Vec<FlowId> = candidates.into_iter().collect();
        obs::local::time(obs::metrics::PLANNER_SCORE_SECS, || {
            map_indexed(self.policy, candidates.len(), |i| {
                self.analyze(candidates[i])
            })
        })
        .into_iter()
        .max_by(|a, b| a.info_gain.total_cmp(&b.info_gain))
        .ok_or(ModelError::NoCandidates)
    }

    /// Analyzes an ordered sequence of probes (§V-B): the state
    /// distribution is adjusted after each probe (conditioning on its
    /// outcome, then applying its install/refresh effect).
    ///
    /// Requires a model supporting [`SwitchModel::apply_probe`] (the
    /// compact model).
    #[must_use]
    pub fn analyze_sequence(&self, probes: &[FlowId]) -> SequenceAnalysis {
        let mut frontier = self.root_frontier();
        for &f in probes {
            frontier = self.extend_frontier(&frontier, f);
        }
        self.analysis_from_frontier(probes, &frontier)
    }

    /// The length-zero frontier: one leaf holding the cached `I_T`/`J_T`.
    fn root_frontier(&self) -> Frontier {
        vec![FrontierLeaf {
            outcomes: Vec::new(),
            dist: self.i_t.clone(),
            joint: self.j_t.clone(),
        }]
    }

    /// Extends every leaf of `frontier` by one probe (miss before hit, so
    /// leaf order — later probes vary fastest — and every floating-point
    /// composition match the legacy depth-first walk exactly).
    fn extend_frontier(&self, frontier: &Frontier, probe: FlowId) -> Frontier {
        let mut out = Vec::with_capacity(frontier.len() * 2);
        for leaf in frontier {
            for hit in [false, true] {
                let dist = self.model.apply_probe(&leaf.dist, probe, hit);
                let joint = self.model.apply_probe(&leaf.joint, probe, hit);
                let mut outcomes = leaf.outcomes.clone();
                outcomes.push(hit);
                out.push(FrontierLeaf {
                    outcomes,
                    dist,
                    joint,
                });
            }
        }
        out
    }

    fn analysis_from_frontier(&self, probes: &[FlowId], frontier: &Frontier) -> SequenceAnalysis {
        let leaves: Vec<OutcomeLeaf> = frontier
            .iter()
            .map(|leaf| OutcomeLeaf {
                outcomes: leaf.outcomes.clone(),
                p: leaf.dist.total(),
                p_and_absent: leaf.joint.total(),
            })
            .collect();
        let p_absent = self.p_absent();
        let prior_entropy = entropy(p_absent);
        let mut cond = 0.0;
        for leaf in &leaves {
            if leaf.p > 0.0 {
                cond += leaf.p * entropy((leaf.p_and_absent / leaf.p).clamp(0.0, 1.0));
            }
        }
        SequenceAnalysis {
            probes: probes.to_vec(),
            leaves,
            prior_entropy,
            conditional_entropy: cond,
            info_gain: (prior_entropy - cond).max(0.0),
        }
    }

    /// Greedily selects up to `m` probes from `candidates` maximizing the
    /// joint information gain.
    ///
    /// Each round extends the chosen prefix's cached frontier by one probe
    /// per remaining candidate — fanned out under the planner's policy —
    /// instead of re-walking the full sequence, and keeps the winner's
    /// frontier for the next round. The reduction runs serially in
    /// candidate order with strictly-greater comparisons, so the earliest
    /// maximum wins exactly as the legacy serial scan's did.
    ///
    /// # Errors
    ///
    /// [`ModelError::NoCandidates`] if `candidates` is empty or `m == 0`.
    pub fn best_sequence_greedy(
        &self,
        candidates: &[FlowId],
        m: usize,
    ) -> Result<SequenceAnalysis, ModelError> {
        if candidates.is_empty() || m == 0 {
            return Err(ModelError::NoCandidates);
        }
        let mut chosen: Vec<FlowId> = Vec::new();
        let mut frontier = self.root_frontier();
        let mut best_analysis: Option<SequenceAnalysis> = None;
        for _ in 0..m {
            let avail: Vec<FlowId> = candidates
                .iter()
                .copied()
                .filter(|c| !chosen.contains(c))
                .collect();
            if avail.is_empty() {
                break; // ran out of distinct candidates
            }
            let scored = obs::local::time(obs::metrics::PLANNER_SCORE_SECS, || {
                map_indexed(self.policy, avail.len(), |i| {
                    let cand_frontier = self.extend_frontier(&frontier, avail[i]);
                    let mut probes = chosen.clone();
                    probes.push(avail[i]);
                    let analysis = self.analysis_from_frontier(&probes, &cand_frontier);
                    (analysis, cand_frontier)
                })
            });
            let mut round_best: Option<(SequenceAnalysis, Frontier)> = None;
            for item in scored {
                if round_best
                    .as_ref()
                    .is_none_or(|(b, _)| item.0.info_gain > b.info_gain)
                {
                    round_best = Some(item);
                }
            }
            let Some((a, f)) = round_best else { break };
            chosen = a.probes.clone();
            frontier = f;
            best_analysis = Some(a);
        }
        best_analysis.ok_or(ModelError::NoCandidates)
    }

    /// Exhaustively searches all ordered sequences of exactly `m` distinct
    /// candidates (use only for small `m`; cost is O(k^m · 2^m) model
    /// applications, with shared prefixes evaluated once).
    ///
    /// The search fans out across first probes under the planner's policy;
    /// within and across branches the earliest maximum wins, matching the
    /// legacy serial enumeration order exactly.
    ///
    /// # Errors
    ///
    /// [`ModelError::NoCandidates`] if no sequence of length `m` exists.
    ///
    /// # Panics
    ///
    /// Panics if `m > 4` (combinatorial guard).
    pub fn best_sequence_exhaustive(
        &self,
        candidates: &[FlowId],
        m: usize,
    ) -> Result<SequenceAnalysis, ModelError> {
        assert!(m <= 4, "exhaustive search limited to m <= 4 probes");
        let root = self.root_frontier();
        if m == 0 {
            return Ok(self.analysis_from_frontier(&[], &root));
        }
        let branch_best = obs::local::time(obs::metrics::PLANNER_SCORE_SECS, || {
            map_indexed(self.policy, candidates.len(), |i| {
                let mut best = None;
                let mut seq = vec![candidates[i]];
                let frontier = self.extend_frontier(&root, candidates[i]);
                self.exhaustive(candidates, m, &mut seq, frontier, &mut best);
                best
            })
        });
        let mut best: Option<SequenceAnalysis> = None;
        for b in branch_best.into_iter().flatten() {
            if best.as_ref().is_none_or(|cur| b.info_gain > cur.info_gain) {
                best = Some(b);
            }
        }
        best.ok_or(ModelError::NoCandidates)
    }

    fn exhaustive(
        &self,
        candidates: &[FlowId],
        m: usize,
        seq: &mut Vec<FlowId>,
        frontier: Frontier,
        best: &mut Option<SequenceAnalysis>,
    ) {
        if seq.len() == m {
            let a = self.analysis_from_frontier(seq, &frontier);
            if best.as_ref().is_none_or(|b| a.info_gain > b.info_gain) {
                *best = Some(a);
            }
            return;
        }
        for &c in candidates {
            if !seq.contains(&c) {
                seq.push(c);
                let child = self.extend_frontier(&frontier, c);
                self.exhaustive(candidates, m, seq, child, best);
                seq.pop();
            }
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

    /// Figure 2c of the paper: rule0 covers {f1,f2} (higher priority),
    /// rule1 covers {f1,f3}. The optimal probe for target f1 should be f2:
    /// a hit on f2 *guarantees* rule0 is cached (only f1 or f2 install
    /// it), whereas a hit on f1 could come from any of the three flows.
    fn fig2c_model() -> CompactModel {
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    20,
                    Timeout::idle(8),
                ),
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(3)]),
                    10,
                    Timeout::idle(8),
                ),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.0, 0.02, 0.01, 0.08]);
        CompactModel::build(&rules, &rates, 2, Evaluator::exact()).unwrap()
    }

    #[test]
    fn joint_masses_are_consistent() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let a = planner.analyze(FlowId(2));
        // P(X̂=0 ∧ Q=1) + P(X̂=0 ∧ Q=0) = P(X̂=0).
        let pa_hit = a.p_hit * (1.0 - a.p_present_given_hit);
        let pa_miss = (1.0 - a.p_hit) * a.p_absent_given_miss;
        assert!((pa_hit + pa_miss - a.p_absent).abs() < 1e-9);
        assert!(a.info_gain >= 0.0);
        assert!(a.conditional_entropy <= a.prior_entropy + 1e-12);
    }

    #[test]
    fn optimal_probe_for_fig2c_is_not_the_target() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let best = planner.best_probe((0..4).map(FlowId)).unwrap();
        assert_eq!(best.probe, FlowId(2), "expected f2, got {:?}", best);
        let ig_target = planner.analyze(FlowId(1)).info_gain;
        assert!(
            best.info_gain > ig_target,
            "{} <= {ig_target}",
            best.info_gain
        );
    }

    #[test]
    fn hit_on_probe_raises_presence_posterior() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let a = planner.analyze(FlowId(2));
        let prior_present = 1.0 - a.p_absent;
        assert!(
            a.p_present_given_hit > prior_present,
            "hit should raise posterior: {} vs prior {prior_present}",
            a.p_present_given_hit
        );
        assert!(a.p_absent_given_miss > a.p_absent);
    }

    #[test]
    fn uncovered_probe_gains_nothing() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let a = planner.analyze(FlowId(0)); // covered by no rule
        assert_eq!(a.p_hit, 0.0);
        assert!(a.p_present_given_hit.is_nan());
        assert!(a.info_gain.abs() < 1e-12);
    }

    #[test]
    fn priors_poisson_vs_model_are_close() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let poisson = planner.prior_absence_poisson();
        let model = planner.p_absent();
        assert!(
            (poisson - model).abs() < 0.05,
            "poisson {poisson} vs model {model}"
        );
    }

    #[test]
    fn no_candidates_is_an_error() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        assert_eq!(
            planner.best_probe(std::iter::empty()),
            Err(ModelError::NoCandidates)
        );
        assert!(planner.best_sequence_greedy(&[], 2).is_err());
        assert!(planner.best_sequence_greedy(&[FlowId(1)], 0).is_err());
    }

    #[test]
    fn sequence_leaves_partition_probability() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let seq = planner.analyze_sequence(&[FlowId(1), FlowId(2)]);
        assert_eq!(seq.leaves.len(), 4);
        let pt: f64 = seq.leaves.iter().map(|l| l.p).sum();
        let pa: f64 = seq.leaves.iter().map(|l| l.p_and_absent).sum();
        assert!((pt - 1.0).abs() < 1e-9, "leaf probabilities sum to {pt}");
        assert!((pa - planner.p_absent()).abs() < 1e-9);
        assert!(seq.info_gain >= 0.0);
    }

    #[test]
    fn two_probes_gain_at_least_as_much_as_one() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let single = planner.analyze_sequence(&[FlowId(2)]);
        let double = planner.analyze_sequence(&[FlowId(2), FlowId(3)]);
        assert!(double.info_gain >= single.info_gain - 1e-9);
        // Single-probe sequence analysis agrees with the direct analysis.
        let direct = planner.analyze(FlowId(2));
        assert!((single.info_gain - direct.info_gain).abs() < 1e-9);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instance() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let candidates = [FlowId(1), FlowId(2), FlowId(3)];
        let greedy = planner.best_sequence_greedy(&candidates, 2).unwrap();
        let exhaustive = planner.best_sequence_exhaustive(&candidates, 2).unwrap();
        assert!(exhaustive.info_gain >= greedy.info_gain - 1e-9);
        // On this tiny instance greedy should find the optimum.
        assert!((exhaustive.info_gain - greedy.info_gain).abs() < 1e-6);
    }

    #[test]
    fn decision_tree_is_total_and_consistent() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let seq = planner.analyze_sequence(&[FlowId(2), FlowId(3)]);
        let tree = DecisionTree::from_analysis(&seq);
        assert_eq!(tree.probes(), &[FlowId(2), FlowId(3)]);
        for a in [false, true] {
            for b in [false, true] {
                let post = tree.posterior(&[a, b]);
                assert!((0.0..=1.0).contains(&post));
                assert_eq!(tree.decide(&[a, b]), post > 0.5);
            }
        }
        // A hit on f2 (rule0 certainly cached => f1 or f2 occurred; f2 has
        // low rate) should push toward "present" relative to a double miss.
        assert!(tree.posterior(&[true, false]) > tree.posterior(&[false, false]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn decision_tree_arity_checked() {
        let m = fig2c_model();
        let planner = ProbePlanner::new(&m, FlowId(1), 60);
        let tree = DecisionTree::from_analysis(&planner.analyze_sequence(&[FlowId(2)]));
        let _ = tree.decide(&[true, false]);
    }

    #[test]
    fn basic_model_supports_single_probe_planning() {
        use crate::basic::BasicModel;
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    20,
                    Timeout::idle(4),
                ),
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(3)]),
                    10,
                    Timeout::idle(4),
                ),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.0, 0.02, 0.01, 0.08]);
        let model = BasicModel::build(&rules, &rates, 2, 1_000_000).unwrap();
        let planner = ProbePlanner::new(&model, FlowId(1), 40);
        let best = planner.best_probe((0..4).map(FlowId)).unwrap();
        assert_eq!(best.probe, FlowId(2));
    }
}
