//! Equivalence gate for the mean-field kernel.
//!
//! `Evaluator::MeanField`, `Evaluator::MeanFieldRaw` and the Monte Carlo
//! evaluator's proposal marginals share one mean-field kernel, which
//! computes once per state (or once per iteration) everything that does
//! not change inside its loops, and evaluates the alive-likelihood `Z(u)`
//! in closed form: an in-order prefix of the `u2 < u` terms plus a tail
//! built by one backward recurrence, O(t2) per pair instead of one `exp`
//! per `(u, u2)` pair. The reference below is the direct evaluation,
//! reproduced verbatim (on the public `RuleSet`/`FlowRates` API), with
//! two ways to compute `Z(u)` ([`Alive`]):
//!
//! * the closed form in the kernel's operation order: every analysis must
//!   match it to the last bit, so every other hoisted value keeps the
//!   direct evaluation's floating-point operations;
//! * the direct summation, verbatim from before the closed form: every
//!   probability must agree with it within `SUMMATION_TOLERANCE`.
//!
//! Both are checked on random small rule sets with overlapping rules, on
//! every state of paper-scale scenarios, and (the summation only) on
//! two-rule states whose long timeouts overflow `e^{extra}`.

use flow_recon::flowspace::relevant::FlowRates;
use flow_recon::flowspace::{FlowId, FlowSet, Rule, RuleId, RuleSet, Timeout};
use flow_recon::ftcache::PolicyKind;
use flow_recon::model::useq::{CacheAnalysis, Evaluator};
use flow_recon::traffic::ScenarioSampler;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the reference evaluates the alive-likelihood `Z(u)`.
#[derive(Debug, Clone, Copy)]
enum Alive {
    /// The kernel's closed form: the in-order sum of the `u2 < u` terms
    /// plus the backward tail recurrence, in the kernel's operation order.
    Recurrence,
    /// The direct summation of every term, one `exp` per `(u, u2)` pair:
    /// the evaluation before the closed form, verbatim.
    Summation,
}

/// The evaluators the kernel serves, run through the reference.
fn reference_analyze(
    ev: &Evaluator,
    rules: &RuleSet,
    rates: &FlowRates,
    cached: &[RuleId],
    at_capacity: bool,
    policy: PolicyKind,
    alive: Alive,
) -> CacheAnalysis {
    let mut sorted = cached.to_vec();
    sorted.sort();
    let ctx = Ctx::new(rules, rates, &sorted);
    match *ev {
        Evaluator::MonteCarlo { samples, seed } => {
            monte_carlo(&ctx, at_capacity, samples, seed, policy, alive)
        }
        Evaluator::MeanField { iterations } => {
            mean_field(&ctx, iterations, MeanFieldOpts::full(), policy, alive)
        }
        Evaluator::MeanFieldRaw { iterations } => {
            mean_field(&ctx, iterations, MeanFieldOpts::raw(), policy, alive)
        }
        Evaluator::Exact { .. } => unreachable!("the exact evaluator has no mean-field kernel"),
    }
}

/// Whether two analyses are equal to the last bit.
fn same_bits(a: &CacheAnalysis, b: &CacheAnalysis) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.cached == b.cached && bits(&a.timeout) == bits(&b.timeout) && bits(&a.evict) == bits(&b.evict)
}

/// The largest relative gap the closed form may open against the direct
/// summation on any timeout or eviction probability.
const SUMMATION_TOLERANCE: f64 = 1e-12;

/// Whether every probability of `a` is within `SUMMATION_TOLERANCE`
/// (relative) of the same entry of `b`.
fn within_tolerance(a: &CacheAnalysis, b: &CacheAnalysis) -> bool {
    let close = |x: &[f64], y: &[f64]| {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(&p, &q)| (p - q).abs() <= SUMMATION_TOLERANCE * p.abs().max(q.abs()))
    };
    a.cached == b.cached && close(&a.timeout, &b.timeout) && close(&a.evict, &b.evict)
}

/// The kernel's analysis equals the closed-form reference to the last
/// bit, and the direct summation within `SUMMATION_TOLERANCE`.
fn assert_same_bits(
    ev: &Evaluator,
    rules: &RuleSet,
    rates: &FlowRates,
    cached: &[RuleId],
    at_capacity: bool,
    policy: PolicyKind,
) {
    let got = ev.analyze_policy(rules, rates, cached, at_capacity, policy);
    let want = reference_analyze(
        ev,
        rules,
        rates,
        cached,
        at_capacity,
        policy,
        Alive::Recurrence,
    );
    assert!(
        same_bits(&got, &want),
        "{ev:?} {policy} cached {cached:?} at_capacity {at_capacity}:\n got {got:?}\nwant {want:?}"
    );
    let direct = reference_analyze(
        ev,
        rules,
        rates,
        cached,
        at_capacity,
        policy,
        Alive::Summation,
    );
    assert!(
        within_tolerance(&got, &direct),
        "{ev:?} {policy} cached {cached:?} at_capacity {at_capacity}:\n got {got:?}\nsummation {direct:?}"
    );
}

const UNIVERSE: usize = 8;

/// Strategy: up to 5 rules over 8 flows, each covering 1–5 flows (so
/// rules overlap often), with idle timeouts of 1–20 steps.
fn rule_set_strategy() -> impl Strategy<Value = RuleSet> {
    let rule = (
        1u32..=255,
        1u32..=20,
        proptest::collection::btree_set(0u32..UNIVERSE as u32, 1..=5),
    );
    proptest::collection::vec(rule, 1..=5).prop_filter_map("distinct priorities", |specs| {
        let mut seen = std::collections::BTreeSet::new();
        let mut rules = Vec::new();
        for (prio, timeout, flows) in specs {
            if !seen.insert(prio) {
                return None;
            }
            rules.push(Rule::from_flow_set(
                FlowSet::from_flows(UNIVERSE, flows.into_iter().map(FlowId)),
                prio,
                Timeout::idle(timeout),
            ));
        }
        RuleSet::new(rules, UNIVERSE).ok()
    })
}

/// Strategy: per-step rates, a quarter of them zero (so some effective
/// rates vanish and the kernel's `γ > 0` guards are exercised).
fn rates_strategy() -> impl Strategy<Value = FlowRates> {
    proptest::collection::vec(
        (0u8..4, 0.0f64..0.4).prop_map(|(pick, r)| if pick == 0 { 0.0 } else { r }),
        UNIVERSE,
    )
    .prop_map(FlowRates::from_per_step)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every non-empty cache subset (every occupancy up to the whole rule
    /// set, full at the drawn capacity), every evaluator the kernel serves,
    /// every policy.
    #[test]
    fn kernel_bit_matches_reference_on_random_rule_sets(
        rules in rule_set_strategy(),
        rates in rates_strategy(),
        capacity_pick in 0usize..5,
        iterations in 1usize..=6,
        seed in 0u64..1_000,
    ) {
        let r = rules.len();
        let capacity = capacity_pick % r + 1;
        let evaluators = [
            Evaluator::MeanField { iterations },
            Evaluator::MeanFieldRaw { iterations },
            Evaluator::MonteCarlo { samples: 40, seed },
        ];
        for mask in 1u32..(1 << r) {
            let cached: Vec<RuleId> = (0..r).filter(|i| mask & (1 << i) != 0).map(RuleId).collect();
            let at_capacity = cached.len() == capacity;
            for ev in &evaluators {
                for policy in PolicyKind::all() {
                    assert_same_bits(ev, &rules, &rates, &cached, at_capacity, policy);
                }
            }
        }
    }
}

/// Every state of the scenario `sampler` draws from `seed`, under the
/// default evaluator.
fn assert_every_state_bit_matches(sampler: &ScenarioSampler, seed: u64, policies: &[PolicyKind]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sc = sampler.sample_forced((0.3, 0.7), &mut rng);
    let rates = sc.rates();
    let r = sc.rules.len();
    for mask in 1u32..(1 << r) {
        if mask.count_ones() as usize > sc.capacity {
            continue;
        }
        let cached: Vec<RuleId> = (0..r)
            .filter(|i| mask & (1 << i) != 0)
            .map(RuleId)
            .collect();
        let at_capacity = cached.len() == sc.capacity;
        for &policy in policies {
            assert_same_bits(
                &Evaluator::mean_field(),
                &sc.rules,
                &rates,
                &cached,
                at_capacity,
                policy,
            );
        }
    }
}

/// The tournament's eviction-pressured variant of a sampler: half the
/// capacity, twice the rates.
fn pressured(sampler: &ScenarioSampler) -> ScenarioSampler {
    ScenarioSampler {
        capacity: (sampler.capacity / 2).max(2),
        lambda_max: sampler.lambda_max * 2.0,
        ..sampler.clone()
    }
}

// Paper scale (12 rules, capacity 6, timeouts of 5–50 steps): one policy
// per scenario, each test a few seconds in a debug build.

#[test]
fn every_paper_scale_state_bit_matches_under_srt() {
    assert_every_state_bit_matches(&ScenarioSampler::default(), 1, &[PolicyKind::Srt]);
}

#[test]
fn every_paper_scale_state_bit_matches_under_lru() {
    assert_every_state_bit_matches(&ScenarioSampler::default(), 2, &[PolicyKind::Lru]);
}

#[test]
fn every_paper_scale_state_bit_matches_under_fdrc() {
    assert_every_state_bit_matches(&ScenarioSampler::default(), 3, &[PolicyKind::Fdrc]);
}

/// The other samplers the experiments build models from: the `--fast`
/// one the golden digests use, and the pressured variants of both.
#[test]
fn every_fast_and_pressured_state_bit_matches() {
    let paper = ScenarioSampler::default();
    let fast = ScenarioSampler {
        bits: 3,
        n_rules: 6,
        capacity: 3,
        delta: 0.05,
        window_secs: 10.0,
        ..paper.clone()
    };
    for seed in 1..=8 {
        for sampler in [&fast, &pressured(&fast)] {
            assert_every_state_bit_matches(sampler, seed, &PolicyKind::all());
        }
    }
    assert_every_state_bit_matches(&pressured(&paper), 4, &PolicyKind::all());
}

/// Two-rule states with timeouts of 1800–3000 steps and per-step rates up
/// to 0.5 on the flow both rules cover. There the covered flow's prefix
/// sum `extra(u-1)` passes 709, so `e^{extra}` overflows and any form of
/// the tail that factors it out returns NaN or infinity. Every probability
/// must be finite, the eviction distribution must sum to one, and each
/// value must stay within `SUMMATION_TOLERANCE` of the direct summation.
///
/// The lower-priority rule overlaps no other cached rule, so the kernel
/// builds its alive-likelihood once per state and one fixed-point
/// iteration reads all of it; more would only repeat the reference's
/// quadratic summation.
#[test]
fn long_timeout_states_stay_finite_and_match_the_summation() {
    let universe = 3;
    let ev = Evaluator::MeanField { iterations: 1 };
    let cached = [RuleId(0), RuleId(1)];
    let mut states = 0;
    for t in [1800, 2000, 2500, 3000] {
        for shared in [0.3, 0.35, 0.4, 0.45, 0.5] {
            for (only_high, only_low) in [(0.0, 0.0), (0.0, 0.05), (0.02, 0.0)] {
                // Rule 0 (higher priority) covers flows {0, 1}, rule 1
                // covers {1, 2}: flow 1 is the shared one.
                let rules = RuleSet::new(
                    vec![
                        Rule::from_flow_set(
                            FlowSet::from_flows(universe, [FlowId(0), FlowId(1)]),
                            20,
                            Timeout::idle(t),
                        ),
                        Rule::from_flow_set(
                            FlowSet::from_flows(universe, [FlowId(1), FlowId(2)]),
                            10,
                            Timeout::idle(t),
                        ),
                    ],
                    universe,
                )
                .unwrap();
                let rates = FlowRates::from_per_step(vec![only_high, shared, only_low]);
                let case = format!("t {t}, rates ({only_high}, {shared}, {only_low})");
                let got = ev.analyze(&rules, &rates, &cached, true);
                assert!(
                    got.timeout.iter().chain(&got.evict).all(|p| p.is_finite()),
                    "{case}: {got:?}"
                );
                let evict_sum: f64 = got.evict.iter().sum();
                assert!((evict_sum - 1.0).abs() < 1e-12, "{case}: {got:?}");
                let direct = reference_analyze(
                    &ev,
                    &rules,
                    &rates,
                    &cached,
                    true,
                    PolicyKind::Srt,
                    Alive::Summation,
                );
                assert!(
                    within_tolerance(&got, &direct),
                    "{case}:\n got {got:?}\nsummation {direct:?}"
                );
                states += 1;
            }
        }
    }
    assert_eq!(states, 60);
}

// ---------------------------------------------------------------------
// Reference: the direct mean-field evaluation, verbatim but for import
// paths and the choice of `Z(u)` evaluation. Exact enumeration is left
// out: it never ran the kernel.
// ---------------------------------------------------------------------

/// Precomputed per-state context shared by the evaluators.
struct Ctx<'a> {
    rules: &'a RuleSet,
    /// Cached rules, ascending id (= descending priority).
    cached: Vec<RuleId>,
    /// Timeout (steps) of each cached rule.
    t: Vec<u32>,
    /// For each cached rule (by position), the positions of the
    /// higher-priority cached rules that overlap it.
    hp_cached: Vec<Vec<usize>>,
    /// Per-flow per-step rates of each cached rule's cover.
    flow_rates: Vec<Vec<(usize, f64)>>, // (flow index, λΔ)
    /// For each *uncached* rule: (timeout, its per-flow rates, positions of
    /// higher-priority cached rules that overlap it).
    uncached: Vec<UncachedRule>,
}

/// Timeout, per-flow `(flow index, λΔ)` rates, and higher-priority cached
/// overlap positions of one uncached rule.
type UncachedRule = (u32, Vec<(usize, f64)>, Vec<usize>);

impl<'a> Ctx<'a> {
    fn new(rules: &'a RuleSet, rates: &'a FlowRates, cached: &[RuleId]) -> Self {
        let t: Vec<u32> = cached
            .iter()
            .map(|&j| rules.rule(j).timeout().steps)
            .collect();
        let cover_rates = |j: RuleId| -> Vec<(usize, f64)> {
            rules
                .rule(j)
                .covers()
                .iter()
                .map(|f| (f.index(), rates.rate(f)))
                .collect()
        };
        let hp_of = |j: RuleId| -> Vec<usize> {
            cached
                .iter()
                .enumerate()
                .filter(|&(_, &j2)| rules.outranks(j2, j) && rules.rule(j2).overlaps(rules.rule(j)))
                .map(|(pos, _)| pos)
                .collect()
        };
        let hp_cached = cached.iter().map(|&j| hp_of(j)).collect();
        let flow_rates = cached.iter().map(|&j| cover_rates(j)).collect();
        let uncached = rules
            .ids()
            .filter(|j| !cached.contains(j))
            .map(|j| (rules.rule(j).timeout().steps, cover_rates(j), hp_of(j)))
            .collect();
        Ctx {
            rules,
            cached: cached.to_vec(),
            t,
            hp_cached,
            flow_rates,
            uncached,
        }
    }

    fn n(&self) -> usize {
        self.cached.len()
    }

    /// γ_u(pos, k): effective rate of the cached rule at `pos` at step
    /// `ℓ-k`, given the full assignment `u` (ages of all cached rules).
    /// A flow is excluded if some higher-priority overlapping cached rule
    /// has `u > k` (it was already in the cache then and would match first).
    fn gamma_at(&self, flow_rates: &[(usize, f64)], hp: &[usize], u: &[u32], k: u32) -> f64 {
        flow_rates
            .iter()
            .filter(|&&(f, _)| {
                !hp.iter().any(|&h| {
                    u[h] > k
                        && self
                            .rules
                            .rule(self.cached[h])
                            .covers_flow(FlowId(f as u32))
                })
            })
            .map(|&(_, r)| r)
            .sum()
    }

    /// `log P(u)` for a complete injective assignment.
    fn log_p(&self, u: &[u32], at_capacity: bool) -> f64 {
        let mut log_p = 0.0f64;
        for pos in 0..self.n() {
            let fr = &self.flow_rates[pos];
            let hp = &self.hp_cached[pos];
            // Match at age u(pos): γ·e^{-γ}; quiet before that: e^{-γ(k)}.
            let g_match = self.gamma_at(fr, hp, u, u[pos]);
            if g_match <= 0.0 {
                return f64::NEG_INFINITY; // impossible assignment
            }
            log_p += g_match.ln() - g_match;
            for k in 1..u[pos] {
                log_p -= self.gamma_at(fr, hp, u, k);
            }
        }
        // Rules not in the cache must not have been installed.
        let u_max_cap = if at_capacity {
            let min_rem = (0..self.n()).map(|p| self.t[p] - u[p]).min().unwrap_or(0);
            Some(min_rem)
        } else {
            None
        };
        for (t_j, fr, hp) in &self.uncached {
            let limit = match u_max_cap {
                Some(min_rem) => t_j.saturating_sub(min_rem),
                None => *t_j,
            };
            for k in 1..=limit {
                log_p -= self.gamma_at(fr, hp, u, k);
            }
        }
        log_p
    }
}

/// Accumulates the three §IV-B sums from weighted assignments.
struct Sums {
    d: f64,
    timeout: Vec<f64>,
    evict: Vec<f64>,
}

impl Sums {
    fn new(n: usize) -> Self {
        Sums {
            d: 0.0,
            timeout: vec![0.0; n],
            evict: vec![0.0; n],
        }
    }

    fn add(&mut self, ctx: &Ctx<'_>, u: &[u32], w: f64, policy: PolicyKind) {
        if w <= 0.0 {
            return;
        }
        self.d += w;
        let rem: Vec<u32> = (0..u.len()).map(|p| ctx.t[p] - u[p]).collect();
        for (slot, (&uv, &tv)) in self.timeout.iter_mut().zip(u.iter().zip(ctx.t.iter())) {
            if uv == tv {
                *slot += w;
            }
        }
        // Victim predicate per policy; ties count every tied rule (the
        // normalization in `finish` splits the mass), matching Eqn (4)'s
        // inclusive accounting.
        match policy {
            PolicyKind::Srt => {
                let min_rem = *rem.iter().min().expect("nonempty cache");
                for (slot, &r) in self.evict.iter_mut().zip(rem.iter()) {
                    if r == min_rem {
                        *slot += w;
                    }
                }
            }
            PolicyKind::Lru => {
                // detlint::allow(D4): same nonempty-cache invariant as the
                // Srt branch above — `u` has one entry per cached rule.
                let max_u = *u.iter().max().expect("nonempty cache");
                for (slot, &uv) in self.evict.iter_mut().zip(u.iter()) {
                    if uv == max_u {
                        *slot += w;
                    }
                }
            }
            PolicyKind::Fdrc => {
                let ratio: Vec<f64> = (0..u.len())
                    .map(|p| f64::from(rem[p]) / f64::from(ctx.t[p]))
                    .collect();
                let min_ratio = ratio.iter().copied().fold(f64::INFINITY, f64::min);
                for (slot, &r) in self.evict.iter_mut().zip(ratio.iter()) {
                    if r == min_ratio {
                        *slot += w;
                    }
                }
            }
        }
    }

    fn finish(self, cached: Vec<RuleId>) -> CacheAnalysis {
        let n = cached.len();
        let timeout = if self.d > 0.0 {
            self.timeout
                .iter()
                .map(|&x| (x / self.d).clamp(0.0, 1.0))
                .collect()
        } else {
            vec![0.0; n]
        };
        let esum: f64 = self.evict.iter().sum();
        let evict = if esum > 0.0 {
            self.evict.iter().map(|&x| x / esum).collect()
        } else {
            vec![1.0 / n as f64; n]
        };
        CacheAnalysis {
            cached,
            timeout,
            evict,
        }
    }
}

/// Mean-field age marginals: `marginals[pos][k-1] = P(u(pos) = k | alive)`.
///
/// Two coupling directions are propagated through the fixed point:
///
/// * **downward** — a lower-priority rule's effective rate γ̄(k) discounts
///   flows by the probability that a covering higher-priority cached rule
///   was already matched (survival beyond `k`);
/// * **upward** — a higher-priority rule's age is *reweighted by the
///   likelihood that each lower-priority overlapping rule is alive at all*:
///   when the high-priority rule matched recently, the low-priority rule
///   saw fewer relevant flows and is less likely to still be cached, so
///   conditioning on the observed cache contents shifts the
///   high-priority age toward "recent".
///
/// The injectivity constraint on `u` (only one flow arrives per step, so
/// two rules cannot share a most-recent-match age) is applied as a
/// first-order pairwise exclusion: each age weight is discounted by the
/// probability that any other cached rule holds the same age. Its residual
/// error is bounded by the exact evaluator in tests.
/// Which mean-field correction terms to apply.
#[derive(Debug, Clone, Copy)]
struct MeanFieldOpts {
    upward: bool,
    exclusion: bool,
}

impl MeanFieldOpts {
    fn full() -> Self {
        MeanFieldOpts {
            upward: true,
            exclusion: true,
        }
    }

    fn raw() -> Self {
        MeanFieldOpts {
            upward: false,
            exclusion: false,
        }
    }
}

fn mean_field_marginals(
    ctx: &Ctx<'_>,
    iterations: usize,
    opts: MeanFieldOpts,
    alive: Alive,
) -> Vec<Vec<f64>> {
    let n = ctx.n();
    // Initialize with uniform ages.
    let mut marg: Vec<Vec<f64>> = (0..n)
        .map(|pos| vec![1.0 / f64::from(ctx.t[pos]); ctx.t[pos] as usize])
        .collect();
    // down[pos] = cached positions whose effective rate pos influences.
    let down: Vec<Vec<usize>> = (0..n)
        .map(|pos| {
            (0..n)
                .filter(|&p2| ctx.hp_cached[p2].contains(&pos))
                .collect()
        })
        .collect();
    for _ in 0..iterations.max(1) {
        // Survival s[pos][k] = P(u(pos) > k), k in 0..=t (s[t] = 0).
        let survival: Vec<Vec<f64>> = marg
            .iter()
            .map(|m| {
                let mut s = vec![0.0; m.len() + 1];
                let mut acc = 0.0;
                for k in (0..m.len()).rev() {
                    acc += m[k];
                    s[k] = acc;
                }
                s
            })
            .collect();
        let surv = |pos: usize, k: usize| -> f64 {
            let s = &survival[pos];
            if k < s.len() {
                s[k]
            } else {
                0.0
            }
        };
        let mut next = Vec::with_capacity(n);
        for (pos, down_of_pos) in down.iter().enumerate() {
            let t = ctx.t[pos] as usize;
            let fr = &ctx.flow_rates[pos];
            let hp = &ctx.hp_cached[pos];
            // Downward prior: γ̄(k) with each higher-priority overlap
            // present w.p. its survival beyond k.
            let gamma_bar = |k: usize| -> f64 {
                fr.iter()
                    .map(|&(f, r)| {
                        let mut keep = 1.0;
                        for &h in hp {
                            if ctx.rules.rule(ctx.cached[h]).covers_flow(FlowId(f as u32)) {
                                keep *= 1.0 - surv(h, k);
                            }
                        }
                        r * keep
                    })
                    .sum()
            };
            let mut m = vec![0.0; t];
            let mut quiet = 0.0; // Σ_{k'<k} γ̄(k')
            for k in 1..=t {
                let g = gamma_bar(k);
                m[k - 1] = if g > 0.0 {
                    (g.ln() - g - quiet).exp()
                } else {
                    0.0
                };
                quiet += g;
            }
            // Upward correction: multiply by Π_{pos2 ∈ down(pos)}
            // Z_{pos2}(u), the alive-likelihood of each influenced rule
            // given u(pos) = u (other couplings at their mean field).
            let down_of_pos: &[usize] = if opts.upward { down_of_pos } else { &[] };
            for &pos2 in down_of_pos {
                let t2 = ctx.t[pos2] as usize;
                // Split pos2's flows into those covered by pos (gated by
                // [k ≥ u]) and the rest; both keep the mean-field discount
                // of pos2's *other* higher-priority overlaps.
                let mut base = vec![0.0; t2 + 1]; // prefix sums over k=1..t2
                let mut extra = vec![0.0; t2 + 1];
                let mut base_k = vec![0.0; t2 + 1];
                let mut extra_k = vec![0.0; t2 + 1];
                for k in 1..=t2 {
                    let mut b = 0.0;
                    let mut e = 0.0;
                    for &(f, r) in &ctx.flow_rates[pos2] {
                        let fid = FlowId(f as u32);
                        let mut keep = 1.0;
                        for &h in &ctx.hp_cached[pos2] {
                            if h != pos && ctx.rules.rule(ctx.cached[h]).covers_flow(fid) {
                                keep *= 1.0 - surv(h, k);
                            }
                        }
                        if ctx.rules.rule(ctx.cached[pos]).covers_flow(fid) {
                            e += r * keep;
                        } else {
                            b += r * keep;
                        }
                    }
                    base_k[k] = b;
                    extra_k[k] = e;
                    base[k] = base[k - 1] + b;
                    extra[k] = extra[k - 1] + e;
                }
                // tail[u] = the u2 ≥ u terms of Z(u), by the recurrence
                // tail(u) = [γ(u) > 0]·γ(u)·e^{-γ(u) - base(u-1)}
                //         + e^{-extra_k(u)}·tail(u+1), tail(t2+1) = 0.
                let mut tail = vec![0.0; t2 + 2];
                for u in (1..=t2).rev() {
                    let g = base_k[u] + extra_k[u];
                    let head = if g > 0.0 {
                        g * (-g - base[u - 1]).exp()
                    } else {
                        0.0
                    };
                    tail[u] = head + (-extra_k[u]).exp() * tail[u + 1];
                }
                for (u_idx, w) in m.iter_mut().enumerate() {
                    if *w == 0.0 {
                        continue;
                    }
                    let u = u_idx + 1;
                    let z = match alive {
                        Alive::Recurrence => {
                            // The u2 < u terms, which do not depend on u.
                            let mut z = 0.0;
                            for u2 in 1..u.min(t2 + 1) {
                                let g = base_k[u2];
                                if g > 0.0 {
                                    z += g * (-g - base[u2 - 1]).exp();
                                }
                            }
                            if u <= t2 {
                                z + tail[u]
                            } else {
                                z
                            }
                        }
                        Alive::Summation => {
                            // γ̃(k) = base(k) + extra(k)·[k ≥ u];
                            // C(m) = Σ_{k≤m} γ̃(k).
                            let cum = |mm: usize| -> f64 {
                                let mm = mm.min(t2);
                                base[mm]
                                    + if mm >= u {
                                        extra[mm] - extra[u - 1]
                                    } else {
                                        0.0
                                    }
                            };
                            let mut z = 0.0;
                            for u2 in 1..=t2 {
                                let g = base_k[u2] + if u2 >= u { extra_k[u2] } else { 0.0 };
                                if g > 0.0 {
                                    z += g * (-g - cum(u2 - 1)).exp();
                                }
                            }
                            z
                        }
                    };
                    *w *= z.max(1e-300);
                }
            }
            // Pairwise injectivity exclusion: u(pos) cannot equal u(j').
            if opts.exclusion {
                for (u_idx, w) in m.iter_mut().enumerate() {
                    for (other, mo) in marg.iter().enumerate() {
                        if other != pos && u_idx < mo.len() {
                            *w *= 1.0 - mo[u_idx];
                        }
                    }
                }
            }
            let s: f64 = m.iter().sum();
            if s > 0.0 {
                for x in &mut m {
                    *x /= s;
                }
            } else {
                m.fill(1.0 / t as f64);
            }
            next.push(m);
        }
        marg = next;
    }
    marg
}

fn mean_field(
    ctx: &Ctx<'_>,
    iterations: usize,
    opts: MeanFieldOpts,
    policy: PolicyKind,
    alive: Alive,
) -> CacheAnalysis {
    let n = ctx.n();
    let marg = mean_field_marginals(ctx, iterations, opts, alive);
    // Timeout: P(u = t | alive) directly from the marginal.
    let timeout: Vec<f64> = (0..n)
        .map(|pos| *marg[pos].last().expect("t >= 1"))
        .collect();
    // Eviction: remaining time r = t - u ∈ 0..t-1; q(r) = m[t - r - 1 + 1]?
    // u = t - r, so q_pos(r) = marg[pos][t - r - 1].
    let rem_dist: Vec<Vec<f64>> = (0..n)
        .map(|pos| {
            let t = ctx.t[pos] as usize;
            (0..t).map(|r| marg[pos][t - r - 1]).collect()
        })
        .collect();
    let evict = match policy {
        PolicyKind::Srt => mean_field_evict_srt(ctx, &rem_dist),
        PolicyKind::Lru => mean_field_evict_lru(&marg),
        PolicyKind::Fdrc => mean_field_evict_fdrc(ctx, &rem_dist),
    };
    let esum: f64 = evict.iter().sum();
    let evict = if esum > 0.0 {
        evict.iter().map(|&x| x / esum).collect()
    } else {
        vec![1.0 / n as f64; n]
    };
    CacheAnalysis {
        cached: ctx.cached.clone(),
        timeout,
        evict,
    }
}

/// Unnormalized `P(rule at pos has the smallest remaining lifetime)` from
/// the per-rule remaining-time marginals.
fn mean_field_evict_srt(ctx: &Ctx<'_>, rem_dist: &[Vec<f64>]) -> Vec<f64> {
    let n = rem_dist.len();
    // Survival over remaining time: S_pos(r) = P(rem ≥ r). The eviction
    // condition (Eqn 4) is *inclusive* — on a tie every tied rule counts —
    // so the per-rule weight uses P(rem_{j'} ≥ r) for the others, matching
    // the exact evaluator's accounting before normalization.
    let rem_surv: Vec<Vec<f64>> = rem_dist
        .iter()
        .map(|q| {
            let mut s = vec![0.0; q.len() + 1];
            let mut acc = 0.0;
            for r in (0..q.len()).rev() {
                acc += q[r];
                s[r] = acc; // P(rem >= r)
            }
            s
        })
        .collect();
    let surv_ge = |pos: usize, r: usize| -> f64 {
        let s = &rem_surv[pos];
        if r < s.len() {
            s[r]
        } else {
            0.0
        }
    };
    let mut evict = vec![0.0; n];
    for (pos, ev) in evict.iter_mut().enumerate() {
        let q = &rem_dist[pos];
        let t_pos = ctx.t[pos] as usize;
        for (r, &q_r) in q.iter().enumerate() {
            let u_pos = t_pos - r;
            let mut w = q_r;
            for (other, rem_other) in rem_dist.iter().enumerate() {
                if other == pos {
                    continue;
                }
                let mut term = surv_ge(other, r);
                // Injectivity: the other rule cannot share age u_pos, so
                // remove that point from its allowed region if it is there.
                let t_o = ctx.t[other] as usize;
                if u_pos <= t_o {
                    let r_o = t_o - u_pos;
                    if r_o >= r {
                        term -= rem_other[r_o];
                    }
                }
                w *= term.max(0.0);
            }
            *ev += w;
        }
    }
    evict
}

/// Unnormalized `P(rule at pos has the largest age)` from the age
/// marginals. Injectivity makes age ties impossible, so the inclusive
/// weight minus the shared-age point reduces to the strict `P(u_{j'} < u)`.
fn mean_field_evict_lru(marg: &[Vec<f64>]) -> Vec<f64> {
    let n = marg.len();
    // cdf[pos][k] = P(u_pos ≤ k), k in 0..=t_pos.
    let cdf: Vec<Vec<f64>> = marg
        .iter()
        .map(|m| {
            let mut c = vec![0.0; m.len() + 1];
            for k in 1..=m.len() {
                c[k] = c[k - 1] + m[k - 1];
            }
            c
        })
        .collect();
    let p_lt = |pos: usize, u: usize| -> f64 {
        let c = &cdf[pos];
        c[(u - 1).min(c.len() - 1)]
    };
    let mut evict = vec![0.0; n];
    for (pos, ev) in evict.iter_mut().enumerate() {
        for (u_idx, &m_u) in marg[pos].iter().enumerate() {
            let u = u_idx + 1;
            let mut w = m_u;
            for other in 0..n {
                if other != pos {
                    w *= p_lt(other, u);
                }
            }
            *ev += w;
        }
    }
    evict
}

/// Unnormalized `P(rule at pos has the smallest normalized remaining
/// lifetime (t - u)/t)` — the FDRC-style victim predicate — from the
/// remaining-time marginals, with the same inclusive-tie accounting and
/// pairwise shared-age exclusion as the SRT weight.
fn mean_field_evict_fdrc(ctx: &Ctx<'_>, rem_dist: &[Vec<f64>]) -> Vec<f64> {
    let n = rem_dist.len();
    let mut evict = vec![0.0; n];
    for (pos, ev) in evict.iter_mut().enumerate() {
        let q = &rem_dist[pos];
        let t_pos = ctx.t[pos] as usize;
        for (r, &q_r) in q.iter().enumerate() {
            let ratio = f64::from(r as u32) / f64::from(t_pos as u32);
            let u_pos = t_pos - r;
            let mut w = q_r;
            for (other, rem_other) in rem_dist.iter().enumerate() {
                if other == pos {
                    continue;
                }
                let t_o = ctx.t[other] as usize;
                // P(ratio_other ≥ ratio), inclusive on ties.
                let mut term = 0.0;
                for (r_o, &q_o) in rem_other.iter().enumerate() {
                    if f64::from(r_o as u32) / f64::from(t_o as u32) >= ratio {
                        term += q_o;
                    }
                }
                // Injectivity: the other rule cannot share age u_pos.
                if u_pos <= t_o {
                    let r_same = t_o - u_pos;
                    if f64::from(r_same as u32) / f64::from(t_o as u32) >= ratio {
                        term -= rem_other[r_same];
                    }
                }
                w *= term.max(0.0);
            }
            *ev += w;
        }
    }
    evict
}

fn monte_carlo(
    ctx: &Ctx<'_>,
    at_capacity: bool,
    samples: usize,
    seed: u64,
    policy: PolicyKind,
    alive: Alive,
) -> CacheAnalysis {
    let n = ctx.n();
    let marg = mean_field_marginals(ctx, 2, MeanFieldOpts::full(), alive);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sums = Sums::new(n);
    let mut u = vec![0u32; n];
    for _ in 0..samples.max(1) {
        let mut log_q = 0.0f64;
        let mut ok = true;
        for pos in 0..n {
            let m = &marg[pos];
            let x: f64 = rng.gen();
            let mut acc = 0.0;
            let mut chosen = m.len(); // sentinel
            for (k, &p) in m.iter().enumerate() {
                acc += p;
                if x < acc {
                    chosen = k;
                    break;
                }
            }
            if chosen == m.len() {
                chosen = m.len() - 1; // numeric tail
            }
            let v = (chosen + 1) as u32;
            if u[..pos].contains(&v) {
                ok = false; // violates injectivity: weight 0
                break;
            }
            u[pos] = v;
            log_q += m[chosen].max(1e-300).ln();
        }
        if !ok {
            continue;
        }
        let w = (ctx.log_p(&u, at_capacity) - log_q).exp();
        sums.add(ctx, &u, w, policy);
    }
    sums.finish(ctx.cached.clone())
}
