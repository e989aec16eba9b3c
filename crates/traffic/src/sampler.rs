//! Random network-configuration ("scenario") sampling, per §VI-A.

use flowspace::relevant::FlowRates;
use flowspace::{FlowId, Rule, RuleSet, TernaryPattern, Timeout};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One "network configuration" in the paper's sense: Poisson parameters, a
/// flow-rule relation, rule TTLs, and a target flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkScenario {
    /// The rule set (12 random ternary rules in the paper's evaluation).
    pub rules: RuleSet,
    /// Per-second Poisson rate of each flow.
    pub lambdas: Vec<f64>,
    /// Seconds per model step (Δ).
    pub delta: f64,
    /// Switch reactive-table capacity (`n`).
    pub capacity: usize,
    /// Detection window `T` in seconds (15 s in the paper).
    pub window_secs: f64,
    /// The target flow f̂.
    pub target: FlowId,
}

impl NetworkScenario {
    /// Per-step rates `λ_f·Δ` for the models.
    #[must_use]
    pub fn rates(&self) -> FlowRates {
        FlowRates::new(&self.lambdas, self.delta)
    }

    /// The window length in steps: `T = ⌈window/Δ⌉`.
    #[must_use]
    pub fn horizon_steps(&self) -> usize {
        (self.window_secs / self.delta).ceil() as usize
    }

    /// Closed-form probability that the target is absent from the window.
    #[must_use]
    pub fn target_absence_probability(&self) -> f64 {
        (-self.lambdas[self.target.index()] * self.window_secs).exp()
    }

    /// All flows of the universe (candidate probes).
    pub fn all_flows(&self) -> impl Iterator<Item = FlowId> {
        (0..self.rules.universe_size() as u32).map(FlowId)
    }

    /// Checks what the sampler guarantees and deserialization does not:
    /// the [`RuleSet::new`] invariants with the rules in descending
    /// priority order, timeouts of at least one step (as the [`Timeout`]
    /// constructors assert), one finite non-negative rate per flow, a positive
    /// finite Δ and window, room for at least one rule, and a target
    /// inside the universe.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] naming the first field that fails.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |msg: String| Err(ScenarioError(msg));
        let universe = self.rules.universe_size();
        match RuleSet::new(self.rules.rules().to_vec(), universe) {
            Err(e) => return fail(format!("rules: {e}")),
            Ok(sorted) if sorted != self.rules => {
                return fail("rules: not listed in descending priority order".into())
            }
            Ok(_) => {}
        }
        if let Some(j) = self
            .rules
            .rules()
            .iter()
            .position(|r| r.timeout().steps == 0)
        {
            return fail(format!("rules: rule {j} has a zero-step timeout"));
        }
        if self.lambdas.len() != universe {
            return fail(format!(
                "lambdas: {} rates for {universe} flows",
                self.lambdas.len()
            ));
        }
        let bad_rate = |(_, l): &(usize, &f64)| !l.is_finite() || **l < 0.0;
        if let Some((f, l)) = self.lambdas.iter().enumerate().find(bad_rate) {
            return fail(format!(
                "lambdas: flow {f} has rate {l}, expected finite and ≥ 0"
            ));
        }
        for (field, value) in [("delta", self.delta), ("window_secs", self.window_secs)] {
            if !value.is_finite() || value <= 0.0 {
                return fail(format!("{field}: {value} is not positive and finite"));
            }
        }
        if self.capacity == 0 {
            return fail("capacity: 0, the switch must hold at least one rule".into());
        }
        if self.target.index() >= universe {
            return fail(format!(
                "target: {} is outside the universe of {universe} flows",
                self.target
            ));
        }
        Ok(())
    }
}

/// Why a [`NetworkScenario`] read from outside the sampler is not one
/// the models accept ([`NetworkScenario::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

/// Error from scenario sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleError {
    /// Rejection sampling found no configuration whose target absence
    /// probability fell in the requested range within the attempt budget.
    NoEligibleTarget {
        /// Attempts made before giving up.
        attempts: usize,
    },
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::NoEligibleTarget { attempts } => {
                write!(
                    f,
                    "no eligible target flow after {attempts} sampled configurations"
                )
            }
        }
    }
}

impl std::error::Error for SampleError {}

/// Samples random network configurations with the paper's §VI-A generator.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use traffic::ScenarioSampler;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// // The paper's parameters: 16 flows, 12 of 81 ternary rules, n = 6.
/// let scenario = ScenarioSampler::default().sample_forced((0.4, 0.6), &mut rng);
/// assert_eq!(scenario.rules.len(), 12);
/// let p = scenario.target_absence_probability();
/// assert!((0.4..=0.6).contains(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSampler {
    /// Address bits of the flow universe (4 → 16 flows, 81 patterns).
    pub bits: u32,
    /// Number of rules to draw (`|Rules|`, 12 in the paper).
    pub n_rules: usize,
    /// Switch capacity (`n`, 6 in the paper).
    pub capacity: usize,
    /// Step length Δ in seconds.
    pub delta: f64,
    /// Rates are drawn uniformly from `[0, lambda_max]` per second.
    pub lambda_max: f64,
    /// Detection window `T` in seconds.
    pub window_secs: f64,
    /// TTLs are drawn uniformly from `{i/ttl_choices · ttl_max_secs}` for
    /// `i = 1..=ttl_choices` (the paper: 0.1 s … 1.0 s).
    pub ttl_choices: u32,
    /// Maximum TTL in seconds.
    pub ttl_max_secs: f64,
}

impl Default for ScenarioSampler {
    /// The paper's evaluation parameters, with Δ = 0.02 s.
    fn default() -> Self {
        ScenarioSampler {
            bits: 4,
            n_rules: 12,
            capacity: 6,
            delta: 0.02,
            lambda_max: 1.0,
            window_secs: 15.0,
            ttl_choices: 10,
            ttl_max_secs: 1.0,
        }
    }
}

impl ScenarioSampler {
    /// The flow-universe size (`2^bits`).
    #[must_use]
    pub fn universe(&self) -> usize {
        1 << self.bits
    }

    /// Samples the rule structure and rates, without picking a target.
    /// Returns `(rules, lambdas)`.
    pub fn sample_structure<R: Rng + ?Sized>(&self, rng: &mut R) -> (RuleSet, Vec<f64>) {
        let universe = self.universe();
        let all: Vec<TernaryPattern> = TernaryPattern::enumerate(self.bits).collect();
        let patterns: Vec<TernaryPattern> =
            all.choose_multiple(rng, self.n_rules).copied().collect();
        // Distinct priorities via a shuffled rank.
        let mut prios: Vec<u32> = (1..=self.n_rules as u32).collect();
        prios.shuffle(rng);
        let rules: Vec<Rule> = patterns
            .iter()
            .zip(&prios)
            .map(|(p, &prio)| {
                let ttl_idx = rng.gen_range(1..=self.ttl_choices);
                let ttl_secs = f64::from(ttl_idx) / f64::from(self.ttl_choices) * self.ttl_max_secs;
                let steps = (ttl_secs / self.delta).ceil().max(1.0) as u32;
                Rule::from_pattern(p, universe, prio, Timeout::idle(steps))
            })
            .collect();
        let rules = RuleSet::new(rules, universe).expect("sampled rules are valid");
        let lambdas: Vec<f64> = (0..universe)
            .map(|_| rng.gen::<f64>() * self.lambda_max)
            .collect();
        (rules, lambdas)
    }

    /// Samples a full scenario whose target's absence probability lies in
    /// `absence_range`, by rejection over (configuration, eligible-target)
    /// pairs — the paper's §VI-A procedure.
    ///
    /// # Errors
    ///
    /// [`SampleError::NoEligibleTarget`] if `max_attempts` configurations
    /// yield no eligible covered target flow.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        absence_range: (f64, f64),
        max_attempts: usize,
        rng: &mut R,
    ) -> Result<NetworkScenario, SampleError> {
        for _ in 0..max_attempts {
            let (rules, lambdas) = self.sample_structure(rng);
            let eligible: Vec<FlowId> = (0..self.universe() as u32)
                .map(FlowId)
                .filter(|&f| {
                    let p = (-lambdas[f.index()] * self.window_secs).exp();
                    p >= absence_range.0 && p <= absence_range.1 && rules.covering_count(f) > 0
                })
                .collect();
            if let Some(&target) = eligible.as_slice().choose(rng) {
                return Ok(NetworkScenario {
                    rules,
                    lambdas,
                    delta: self.delta,
                    capacity: self.capacity,
                    window_secs: self.window_secs,
                    target,
                });
            }
        }
        Err(SampleError::NoEligibleTarget {
            attempts: max_attempts,
        })
    }

    /// Like [`ScenarioSampler::sample`], but guarantees success by
    /// re-drawing one random covered flow's rate so its absence probability
    /// lands uniformly in `absence_range`. Cheaper than rejection for
    /// narrow or extreme bins; used by the experiment harness (documented
    /// deviation — the target's rate is then not `U[0, λmax]`).
    pub fn sample_forced<R: Rng + ?Sized>(
        &self,
        absence_range: (f64, f64),
        rng: &mut R,
    ) -> NetworkScenario {
        loop {
            let (rules, mut lambdas) = self.sample_structure(rng);
            let covered: Vec<FlowId> = (0..self.universe() as u32)
                .map(FlowId)
                .filter(|&f| rules.covering_count(f) > 0)
                .collect();
            let Some(&target) = covered.as_slice().choose(rng) else {
                continue;
            };
            let p = rng.gen_range(absence_range.0.max(1e-12)..=absence_range.1.max(1e-12));
            lambdas[target.index()] = -p.ln() / self.window_secs;
            return NetworkScenario {
                rules,
                lambdas,
                delta: self.delta,
                capacity: self.capacity,
                window_secs: self.window_secs,
                target,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_matches_paper_parameters() {
        let s = ScenarioSampler::default();
        assert_eq!(s.universe(), 16);
        assert_eq!(s.n_rules, 12);
        assert_eq!(s.capacity, 6);
        assert_eq!(s.window_secs, 15.0);
    }

    #[test]
    fn structure_has_requested_shape() {
        let s = ScenarioSampler::default();
        let mut rng = StdRng::seed_from_u64(1);
        let (rules, lambdas) = s.sample_structure(&mut rng);
        assert_eq!(rules.len(), 12);
        assert_eq!(rules.universe_size(), 16);
        assert_eq!(lambdas.len(), 16);
        assert!(lambdas.iter().all(|&l| (0.0..=1.0).contains(&l)));
        // Priorities are distinct by construction (RuleSet::new checked).
        // TTLs are multiples of 0.1 s in steps: 5..=50 with Δ=0.02.
        for r in rules.rules() {
            assert!(
                (5..=50).contains(&r.timeout().steps),
                "steps {}",
                r.timeout().steps
            );
        }
        // Rules are distinct patterns.
        let pats: std::collections::BTreeSet<_> = rules
            .rules()
            .iter()
            .map(|r| *r.pattern().unwrap())
            .collect();
        assert_eq!(pats.len(), 12);
    }

    #[test]
    fn sample_respects_absence_range() {
        let s = ScenarioSampler::default();
        let mut rng = StdRng::seed_from_u64(2);
        let sc = s.sample((0.3, 0.7), 10_000, &mut rng).unwrap();
        let p = sc.target_absence_probability();
        assert!((0.3..=0.7).contains(&p), "absence {p}");
        assert!(sc.rules.covering_count(sc.target) > 0);
        assert_eq!(sc.horizon_steps(), 750);
    }

    #[test]
    fn sample_forced_hits_narrow_bins() {
        let s = ScenarioSampler::default();
        let mut rng = StdRng::seed_from_u64(3);
        for range in [(0.05, 0.1), (0.45, 0.5), (0.9, 0.95)] {
            let sc = s.sample_forced(range, &mut rng);
            let p = sc.target_absence_probability();
            assert!(
                (range.0..=range.1).contains(&p),
                "absence {p} not in {range:?}"
            );
            assert!(sc.rules.covering_count(sc.target) > 0);
        }
    }

    #[test]
    fn impossible_range_errors() {
        let s = ScenarioSampler::default();
        let mut rng = StdRng::seed_from_u64(4);
        // Absence > 1 is impossible.
        let err = s.sample((1.5, 2.0), 50, &mut rng).unwrap_err();
        assert_eq!(err, SampleError::NoEligibleTarget { attempts: 50 });
        assert!(err.to_string().contains("50"));
    }

    #[test]
    fn scenario_serializes() {
        let s = ScenarioSampler::default();
        let mut rng = StdRng::seed_from_u64(5);
        let sc = s.sample_forced((0.4, 0.6), &mut rng);
        let json = serde_json::to_string(&sc).unwrap();
        let back: NetworkScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(sc.rules, back.rules);
        assert_eq!(sc.target, back.target);
    }

    #[test]
    fn rates_and_horizon_consistent() {
        let s = ScenarioSampler {
            delta: 0.05,
            ..ScenarioSampler::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let sc = s.sample_forced((0.2, 0.8), &mut rng);
        let rates = sc.rates();
        assert_eq!(rates.universe_size(), 16);
        for f in sc.all_flows() {
            assert!((rates.rate(f) - sc.lambdas[f.index()] * 0.05).abs() < 1e-12);
        }
        assert_eq!(sc.horizon_steps(), 300);
    }
}
