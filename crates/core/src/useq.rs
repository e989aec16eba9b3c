//! Most-recent-match sequence probabilities (§IV-B).
//!
//! The compact model's states carry no timers, so the probabilities of a
//! rule being **evicted** (it has the smallest remaining lifetime) or
//! **timing out** (its idle timer just elapsed) must be *estimated* from
//! the distribution of the most-recent-match sequence `u`: an injective map
//! assigning each cached rule `j` the number of steps `u(j) ∈ 1..=t_j`
//! since it last matched. The paper defines
//!
//! ```text
//! P(u) = Π_{j ∈ cached} γ_u(j,u(j))·e^{-γ_u(j,u(j))} · Π_{k<u(j)} e^{-γ_u(j,k)}
//!      × Π_{j ∉ cached} Π_{k=1}^{L_j} e^{-γ_u(j,k)}
//! ```
//!
//! with `γ_u(j,k)` the effective rate of rule `j` at step `ℓ-k` (Eqn 1:
//! flows covered by higher-priority cached rules that, per `u`, were
//! matched more than `k` steps ago are excluded) and `L_j = t_j` below
//! capacity or `u_max(j) = t_j - min_{j'}(t_{j'} - u(j'))` at capacity.
//!
//! Summing `P(u)` over all `u` is exponential, so this module offers four
//! [`Evaluator`] strategies:
//!
//! * [`Evaluator::exact`] — full enumeration (with the injectivity
//!   constraint); the reference implementation, feasible only for small
//!   caches and timeouts.
//! * [`Evaluator::monte_carlo`] — importance sampling of `u` from mean-field
//!   proposal marginals.
//! * [`Evaluator::mean_field`] — a deterministic fixed-point approximation
//!   over per-rule age marginals, with an upward alive-likelihood message
//!   and a pairwise injectivity exclusion. It ignores the `j ∉ cached` factor
//!   (a secondary effect) and is the default for building full-size
//!   models. Its error is bounded against `Evaluator::exact` in this
//!   crate's tests and measured in the `ablation_evaluators` experiment.
//! * `Evaluator::MeanFieldRaw` — mean field without the two corrections;
//!   kept for the ablation.

use flowspace::relevant::FlowRates;
use flowspace::{RuleId, RuleSet};
use ftcache::PolicyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Eviction and timeout estimates for one compact state.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheAnalysis {
    /// The cached rules the vectors below are parallel to.
    pub cached: Vec<RuleId>,
    /// `P(rule_j should time out | rule_j ∈ cache)` per cached rule —
    /// Eqn (7) / Eqn (3).
    pub timeout: Vec<f64>,
    /// Normalized eviction distribution: the probability that each cached
    /// rule is the one with the smallest remaining lifetime — Eqn (5) /
    /// Eqn (3), normalized across the cached rules.
    pub evict: Vec<f64>,
}

impl CacheAnalysis {
    fn empty() -> Self {
        CacheAnalysis {
            cached: Vec::new(),
            timeout: Vec::new(),
            evict: Vec::new(),
        }
    }
}

/// Strategy for evaluating the §IV-B sums over most-recent-match sequences.
#[derive(Debug, Clone, PartialEq)]
pub enum Evaluator {
    /// Full enumeration of all injective `u`. Exponential; the reference.
    Exact {
        /// Abort guard: maximum number of sequences to enumerate.
        max_sequences: u64,
    },
    /// Importance sampling with mean-field proposals.
    MonteCarlo {
        /// Number of sampled sequences per state.
        samples: usize,
        /// RNG seed (sampling is deterministic given the seed).
        seed: u64,
    },
    /// Deterministic fixed-point approximation (default).
    MeanField {
        /// Fixed-point iterations over the age marginals.
        iterations: usize,
    },
    /// Mean field **without** the upward alive-likelihood message and the
    /// pairwise injectivity exclusion — the naive one-directional
    /// approximation. Kept for the evaluator ablation; do not use it to
    /// build models.
    MeanFieldRaw {
        /// Fixed-point iterations over the age marginals.
        iterations: usize,
    },
}

impl Evaluator {
    /// The exact evaluator with a 10-million-sequence guard.
    #[must_use]
    pub fn exact() -> Self {
        Evaluator::Exact {
            max_sequences: 10_000_000,
        }
    }

    /// The Monte Carlo evaluator with `samples` samples.
    #[must_use]
    pub fn monte_carlo(samples: usize, seed: u64) -> Self {
        Evaluator::MonteCarlo { samples, seed }
    }

    /// The mean-field evaluator with 4 fixed-point iterations.
    #[must_use]
    pub fn mean_field() -> Self {
        Evaluator::MeanField { iterations: 4 }
    }

    /// Computes eviction and timeout estimates for the cache state holding
    /// exactly `cached` (ids into `rules`), which `at_capacity` marks as
    /// full, assuming the switch evicts per the paper's shortest-remaining-
    /// time policy ([`PolicyKind::Srt`]).
    ///
    /// # Panics
    ///
    /// * `Evaluator::Exact` panics if the enumeration would exceed its
    ///   `max_sequences` guard.
    /// * All evaluators panic if `cached` contains duplicate ids.
    #[must_use]
    pub fn analyze(
        &self,
        rules: &RuleSet,
        rates: &FlowRates,
        cached: &[RuleId],
        at_capacity: bool,
    ) -> CacheAnalysis {
        self.analyze_policy(rules, rates, cached, at_capacity, PolicyKind::Srt)
    }

    /// [`Evaluator::analyze`] with an explicit cache policy assumption.
    ///
    /// The most-recent-match sequence distribution `P(u)` is a property of
    /// the traffic and the cache *contents*, not of the eviction policy, so
    /// the same evaluator machinery serves every policy; only the victim
    /// predicate applied to each weighted assignment `u` changes:
    ///
    /// * [`PolicyKind::Srt`] — victim has the smallest remaining lifetime
    ///   `t_j - u(j)` (the paper's Eqn 4/5);
    /// * [`PolicyKind::Lru`] — victim has the largest age `u(j)`;
    /// * [`PolicyKind::Fdrc`] — victim has the smallest *normalized*
    ///   remaining lifetime `(t_j - u(j)) / t_j`.
    ///
    /// The at-capacity bound on uncached-rule quiet factors (`u_max`)
    /// retains its SRT derivation for every policy — it is a secondary
    /// effect and keeping it fixed isolates the victim predicate as the
    /// only modeling difference between policies.
    ///
    /// `at_capacity` enters only through that bound, so only
    /// `Evaluator::Exact` and `Evaluator::MonteCarlo` read it; the
    /// mean-field evaluators ignore it.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Evaluator::analyze`].
    #[must_use]
    pub fn analyze_policy(
        &self,
        rules: &RuleSet,
        rates: &FlowRates,
        cached: &[RuleId],
        at_capacity: bool,
        policy: PolicyKind,
    ) -> CacheAnalysis {
        let mut sorted = cached.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            cached.len(),
            "duplicate rule ids in cache state"
        );
        if cached.is_empty() {
            return CacheAnalysis::empty();
        }
        // Only `log_p` reads the uncached rules, and only the exact and
        // Monte Carlo evaluators call it.
        let needs_log_p = matches!(self, Evaluator::Exact { .. } | Evaluator::MonteCarlo { .. });
        let ctx = Ctx::new(rules, rates, &sorted, needs_log_p);
        match *self {
            Evaluator::Exact { max_sequences } => exact(&ctx, at_capacity, max_sequences, policy),
            Evaluator::MonteCarlo { samples, seed } => {
                monte_carlo(&ctx, at_capacity, samples, seed, policy)
            }
            Evaluator::MeanField { iterations } => {
                mean_field(&ctx, iterations, MeanFieldOpts::full(), policy)
            }
            Evaluator::MeanFieldRaw { iterations } => {
                mean_field(&ctx, iterations, MeanFieldOpts::raw(), policy)
            }
        }
    }
}

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
    /// Parallel to `flow_rates`: for each flow of each cached rule, the
    /// positions of the higher-priority cached rules covering that flow,
    /// ascending (a subset of `hp_cached`).
    hp_covering: Vec<Vec<Vec<usize>>>,
    /// For each *uncached* rule: (timeout, its per-flow rates, positions of
    /// higher-priority cached rules that overlap it). Built only for
    /// [`Ctx::log_p`]; empty otherwise.
    uncached: Vec<UncachedRule>,
}

/// Timeout, per-flow `(flow index, λΔ)` rates, and higher-priority cached
/// overlap positions of one uncached rule.
type UncachedRule = (u32, Vec<(usize, f64)>, Vec<usize>);

impl<'a> Ctx<'a> {
    fn new(rules: &'a RuleSet, rates: &'a FlowRates, cached: &[RuleId], needs_log_p: bool) -> Self {
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
        let hp_cached: Vec<Vec<usize>> = cached.iter().map(|&j| hp_of(j)).collect();
        let flow_rates: Vec<Vec<(usize, f64)>> = cached.iter().map(|&j| cover_rates(j)).collect();
        let hp_covering = flow_rates
            .iter()
            .zip(&hp_cached)
            .map(|(fr, hp)| {
                fr.iter()
                    .map(|&(f, _)| {
                        let fid = flowspace::FlowId(f as u32);
                        hp.iter()
                            .copied()
                            .filter(|&h| rules.rule(cached[h]).covers_flow(fid))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let uncached = if needs_log_p {
            rules
                .ids()
                .filter(|j| !cached.contains(j))
                .map(|j| (rules.rule(j).timeout().steps, cover_rates(j), hp_of(j)))
                .collect()
        } else {
            Vec::new()
        };
        Ctx {
            rules,
            cached: cached.to_vec(),
            t,
            hp_cached,
            flow_rates,
            hp_covering,
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
                            .covers_flow(flowspace::FlowId(f as u32))
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

fn exact(
    ctx: &Ctx<'_>,
    at_capacity: bool,
    max_sequences: u64,
    policy: PolicyKind,
) -> CacheAnalysis {
    let n = ctx.n();
    let total: u64 = ctx
        .t
        .iter()
        .try_fold(1u64, |acc, &t| acc.checked_mul(u64::from(t)))
        .unwrap_or(u64::MAX);
    assert!(
        total <= max_sequences,
        "exact evaluation would enumerate {total} sequences (> {max_sequences}); \
         use the mean-field or Monte Carlo evaluator"
    );
    let mut sums = Sums::new(n);
    let mut u = vec![0u32; n];
    enumerate(ctx, at_capacity, &mut u, 0, &mut sums, policy);
    sums.finish(ctx.cached.clone())
}

fn enumerate(
    ctx: &Ctx<'_>,
    at_capacity: bool,
    u: &mut Vec<u32>,
    pos: usize,
    sums: &mut Sums,
    policy: PolicyKind,
) {
    if pos == ctx.n() {
        let w = ctx.log_p(u, at_capacity).exp();
        sums.add(ctx, u, w, policy);
        return;
    }
    for v in 1..=ctx.t[pos] {
        if u[..pos].contains(&v) {
            continue; // injectivity
        }
        u[pos] = v;
        enumerate(ctx, at_capacity, u, pos + 1, sums, policy);
    }
    u[pos] = 0;
}

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
///
/// Everything that does not change between iterations is computed once per
/// state: the downward prior of a rule with no higher-priority cached
/// overlap, and the alive-likelihood of a pair whose lower-priority rule
/// overlaps no other higher-priority cached rule. Each alive-likelihood
/// `Z(u)` is a prefix sum plus a tail built by one backward recurrence
/// ([`PairTables`]), O(t2) per pair for all `u` together. The tail is the
/// direct `u2 = u..=t2` summation rearranged (a product of `e^{-x}`
/// factors where the summation takes one `exp` per term), so it agrees
/// with that summation to rounding, not to the bit; every other value is
/// the same sequence of floating-point operations as the direct
/// evaluation.
fn mean_field_marginals(ctx: &Ctx<'_>, iterations: usize, opts: MeanFieldOpts) -> Vec<Vec<f64>> {
    let n = ctx.n();
    // Initialize with uniform ages.
    let mut marg: Vec<Vec<f64>> = (0..n)
        .map(|pos| vec![1.0 / f64::from(ctx.t[pos]); ctx.t[pos] as usize])
        .collect();
    let mut not_surv = NotSurvival::new(ctx);
    let mut pair = PairTables::new(not_surv.stride);
    // down[pos] = cached positions whose effective rate pos influences
    // (none without the upward message), each with its alive-likelihood
    // per u(pos) when that never changes.
    let down: Vec<Vec<(usize, Option<Vec<f64>>)>> = (0..n)
        .map(|pos| {
            (0..n)
                .filter(|&p2| opts.upward && ctx.hp_cached[p2].contains(&pos))
                .map(|pos2| {
                    let fixed = (ctx.hp_cached[pos2] == [pos]).then(|| {
                        pair.fill(ctx, pos, pos2, &not_surv);
                        (1..=ctx.t[pos] as usize)
                            .map(|u| pair.alive_weight(u))
                            .collect()
                    });
                    (pos2, fixed)
                })
                .collect()
        })
        .collect();
    let fixed_prior: Vec<Option<Vec<f64>>> = (0..n)
        .map(|pos| {
            ctx.hp_cached[pos]
                .is_empty()
                .then(|| downward_prior(ctx, pos, &not_surv))
        })
        .collect();
    let mut not_marg: Vec<Vec<f64>> = marg.clone();
    for _ in 0..iterations.max(1) {
        not_surv.update(&marg);
        for (nm, m) in not_marg.iter_mut().zip(&marg) {
            for (x, &p) in nm.iter_mut().zip(m) {
                *x = 1.0 - p;
            }
        }
        let mut next = Vec::with_capacity(n);
        for (pos, down_of_pos) in down.iter().enumerate() {
            // Downward prior: γ̄(k) with each higher-priority overlap
            // present w.p. its survival beyond k.
            let mut m = match &fixed_prior[pos] {
                Some(prior) => prior.clone(),
                None => downward_prior(ctx, pos, &not_surv),
            };
            // Upward correction: multiply by Π_{pos2 ∈ down(pos)}
            // Z_{pos2}(u), the alive-likelihood of each influenced rule
            // given u(pos) = u (other couplings at their mean field).
            for (pos2, fixed) in down_of_pos {
                if fixed.is_none() {
                    pair.fill(ctx, pos, *pos2, &not_surv);
                }
                for (u_idx, w) in m.iter_mut().enumerate() {
                    if *w == 0.0 {
                        continue;
                    }
                    *w *= match fixed {
                        Some(z) => z[u_idx],
                        None => pair.alive_weight(u_idx + 1),
                    };
                }
            }
            // Pairwise injectivity exclusion: u(pos) cannot equal u(j').
            // Each weight takes its factors in `other` order, as in the
            // direct evaluation's per-age loop.
            if opts.exclusion {
                for (other, nm) in not_marg.iter().enumerate() {
                    if other != pos {
                        for (w, &x) in m.iter_mut().zip(nm) {
                            *w *= x;
                        }
                    }
                }
            }
            let s: f64 = m.iter().sum();
            debug_assert!(s.is_finite(), "age weights of rule {pos} sum to {s}");
            if s > 0.0 {
                for x in &mut m {
                    *x /= s;
                }
            } else {
                m.fill(1.0 / f64::from(ctx.t[pos]));
            }
            next.push(m);
        }
        marg = next;
    }
    marg
}

/// The unnormalized downward age weights of the cached rule at `pos`:
/// `γ̄(k)·e^{-γ̄(k) - Σ_{k'<k} γ̄(k')}` for `k = 1..=t`, where
/// `γ̄(k) = Σ_f r_f·Π_h (1 − P(u(h) > k))` over the higher-priority cached
/// rules `h` covering `f`.
fn downward_prior(ctx: &Ctx<'_>, pos: usize, not_surv: &NotSurvival) -> Vec<f64> {
    let t = ctx.t[pos] as usize;
    let mut m = vec![0.0; t];
    let mut quiet = 0.0; // Σ_{k'<k} γ̄(k')
    for k in 1..=t {
        let g: f64 = ctx.flow_rates[pos]
            .iter()
            .zip(&ctx.hp_covering[pos])
            .map(|(&(_, r), covering)| {
                let mut keep = 1.0;
                for &h in covering {
                    keep *= not_surv.at(h, k);
                }
                r * keep
            })
            .sum();
        m[k - 1] = if g > 0.0 {
            (g.ln() - g - quiet).exp()
        } else {
            0.0
        };
        quiet += g;
    }
    m
}

/// `1 − P(u(h) > k)` for each cached position `h` and step
/// `k = 0..=max t`, rebuilt from the age marginals once per iteration.
struct NotSurvival {
    stride: usize,
    table: Vec<f64>,
}

impl NotSurvival {
    /// All ones: the value past each rule's timeout, which never changes.
    fn new(ctx: &Ctx<'_>) -> Self {
        let stride = ctx.t.iter().max().map_or(0, |&t| t as usize) + 1;
        NotSurvival {
            stride,
            table: vec![1.0; ctx.n() * stride],
        }
    }

    fn update(&mut self, marg: &[Vec<f64>]) {
        for (row, m) in self.table.chunks_exact_mut(self.stride).zip(marg) {
            let mut acc = 0.0;
            for k in (0..m.len()).rev() {
                acc += m[k];
                row[k] = 1.0 - acc;
            }
        }
    }

    fn at(&self, h: usize, k: usize) -> f64 {
        self.table[h * self.stride + k]
    }
}

/// Scratch tables for the alive-likelihood `Z_{pos2}(u)` of one
/// (`pos`, `pos2`) pair, reused across pairs. `pos2`'s effective rate is
/// split into the flows `pos` does not cover (`base`) and those it does
/// (`extra`, counted only at steps `k ≥ u`); both keep the mean-field
/// discount of `pos2`'s *other* higher-priority overlaps.
///
/// With `γ̃(k) = base(k) + extra(k)·[k ≥ u]` and `C(m) = Σ_{k≤m} γ̃(k)`,
/// `Z(u) = Σ_{u2=1..=t2} γ̃(u2)·e^{-γ̃(u2) - C(u2-1)}` over the terms with
/// `γ̃ > 0`. The `u2 < u` terms do not depend on `u` (`prefix`); the
/// `u2 ≥ u` terms (`tail`) follow from one backward recurrence, so every
/// `Z(u)` costs O(1) after an O(t2) fill.
struct PairTables {
    /// `pos2`'s timeout; the tables hold entries `0..=t2` (`tail` also
    /// `t2 + 1`).
    t2: usize,
    /// Per-step rates `base(k)`, `extra(k)`, and the prefix sums of `base`
    /// over `1..=k` (entry 0 is 0).
    base_k: Vec<f64>,
    extra_k: Vec<f64>,
    base: Vec<f64>,
    /// `prefix[m]` = the in-order sum of the `u2 = 1..=m` terms of `Z(u)`
    /// for any `u > m`, where they do not depend on `u`.
    prefix: Vec<f64>,
    /// `tail[u]` = the `u2 = u..=t2` terms of `Z(u)`, where
    /// `γ̃ = base(k) + extra(k)`, by the recurrence
    /// `tail(u) = [γ̃(u) > 0]·γ̃(u)·e^{-γ̃(u) - base[u-1]} + e^{-extra(u)}·tail(u+1)`
    /// from `tail(t2+1) = 0`. Every factor is `e^{-x}` with `x ≥ 0`, so
    /// nothing overflows however long the timeout (factoring the
    /// `e^{-extra}` prefix out of the sum instead overflows once ~709
    /// matches are expected).
    tail: Vec<f64>,
}

impl PairTables {
    fn new(len: usize) -> Self {
        PairTables {
            t2: 0,
            base_k: vec![0.0; len],
            extra_k: vec![0.0; len],
            base: vec![0.0; len],
            prefix: vec![0.0; len],
            tail: vec![0.0; len + 1],
        }
    }

    fn fill(&mut self, ctx: &Ctx<'_>, pos: usize, pos2: usize, not_surv: &NotSurvival) {
        let t2 = ctx.t[pos2] as usize;
        self.t2 = t2;
        for k in 1..=t2 {
            let mut b = 0.0;
            let mut e = 0.0;
            for (&(_, r), covering) in ctx.flow_rates[pos2].iter().zip(&ctx.hp_covering[pos2]) {
                let mut keep = 1.0;
                let mut by_pos = false;
                for &h in covering {
                    if h == pos {
                        by_pos = true;
                    } else {
                        keep *= not_surv.at(h, k);
                    }
                }
                if by_pos {
                    e += r * keep;
                } else {
                    b += r * keep;
                }
            }
            self.base_k[k] = b;
            self.extra_k[k] = e;
            self.base[k] = self.base[k - 1] + b;
        }
        for u2 in 1..=t2 {
            let g = self.base_k[u2];
            self.prefix[u2] = if g > 0.0 {
                self.prefix[u2 - 1] + g * (-g - self.base[u2 - 1]).exp()
            } else {
                self.prefix[u2 - 1]
            };
        }
        self.tail[t2 + 1] = 0.0;
        for u in (1..=t2).rev() {
            let g = self.base_k[u] + self.extra_k[u];
            let head = if g > 0.0 {
                g * (-g - self.base[u - 1]).exp()
            } else {
                0.0
            };
            self.tail[u] = head + (-self.extra_k[u]).exp() * self.tail[u + 1];
        }
    }

    /// `Z(u)`: `prefix[u-1] + tail[u]` for `u ≤ t2`, and `prefix[t2]`
    /// (every term has `u2 < u`) above.
    fn likelihood(&self, u: usize) -> f64 {
        if u <= self.t2 {
            self.prefix[u - 1] + self.tail[u]
        } else {
            self.prefix[self.t2]
        }
    }

    /// `Z(u)` as an upward-message weight: floored at `1e-300`, so an
    /// underflowed likelihood cannot zero an age weight outright.
    fn alive_weight(&self, u: usize) -> f64 {
        let z = self.likelihood(u);
        debug_assert!(z.is_finite(), "alive-likelihood Z({u}) = {z}");
        z.max(1e-300)
    }
}

fn mean_field(
    ctx: &Ctx<'_>,
    iterations: usize,
    opts: MeanFieldOpts,
    policy: PolicyKind,
) -> CacheAnalysis {
    let n = ctx.n();
    let marg = mean_field_marginals(ctx, iterations, opts);
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
    debug_assert!(esum.is_finite(), "eviction weights sum to {esum}");
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
) -> CacheAnalysis {
    let n = ctx.n();
    let marg = mean_field_marginals(ctx, 2, MeanFieldOpts::full());
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

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::{FlowId, FlowSet, Rule, Timeout};

    fn rules_two_disjoint(t0: u32, t1: u32) -> (RuleSet, FlowRates) {
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(0)]), 20, Timeout::idle(t0)),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 10, Timeout::idle(t1)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.3, 0.1, 0.05, 0.0]);
        (rules, rates)
    }

    fn rules_overlapping() -> (RuleSet, FlowRates) {
        // rule0 covers {0,1} (higher priority), rule1 covers {1,2}.
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(0), FlowId(1)]),
                    20,
                    Timeout::idle(4),
                ),
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    10,
                    Timeout::idle(5),
                ),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.2, 0.15, 0.1, 0.0]);
        (rules, rates)
    }

    #[test]
    fn empty_cache_analysis_is_empty() {
        let (rules, rates) = rules_two_disjoint(3, 4);
        let a = Evaluator::exact().analyze(&rules, &rates, &[], false);
        assert!(a.cached.is_empty() && a.timeout.is_empty() && a.evict.is_empty());
    }

    #[test]
    fn single_rule_eviction_is_certain() {
        let (rules, rates) = rules_two_disjoint(4, 4);
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(2000, 7),
        ] {
            let a = ev.analyze(&rules, &rates, &[RuleId(0)], true);
            assert_eq!(a.evict, vec![1.0], "{ev:?}");
            assert_eq!(a.timeout.len(), 1);
            assert!(
                a.timeout[0] > 0.0 && a.timeout[0] < 1.0,
                "{ev:?}: {:?}",
                a.timeout
            );
        }
    }

    #[test]
    fn single_rule_timeout_matches_closed_form() {
        // One cached rule, no overlaps, no other rules covering its flow:
        // γ is constant, so P(u=k | alive) ∝ γe^{-γk} and
        // P(timeout) = e^{-γ(t-1)}·(...) — compare exact vs analytic.
        let u = 1;
        let g: f64 = 0.25;
        let t = 6u32;
        let rules = RuleSet::new(
            vec![Rule::from_flow_set(
                FlowSet::from_flows(u, [FlowId(0)]),
                10,
                Timeout::idle(t),
            )],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![g]);
        let a = Evaluator::exact().analyze(&rules, &rates, &[RuleId(0)], false);
        // P(u=k) ∝ γ e^{-γ k}; normalized over k=1..t → P(u=t) =
        // e^{-γt} / Σ_k e^{-γk}.
        let z: f64 = (1..=t).map(|k| (-g * f64::from(k)).exp()).sum();
        let expected = (-g * f64::from(t)).exp() / z;
        assert!(
            (a.timeout[0] - expected).abs() < 1e-12,
            "{} vs {expected}",
            a.timeout[0]
        );
        // Mean field agrees exactly in this uncoupled case.
        let mf = Evaluator::mean_field().analyze(&rules, &rates, &[RuleId(0)], false);
        assert!((mf.timeout[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn faster_flow_rule_less_likely_to_be_evicted() {
        // rule0's flow arrives at 0.3/step, rule1's at 0.1: rule0 was
        // likely matched more recently, so rule1 is likelier to be evicted.
        let (rules, rates) = rules_two_disjoint(5, 5);
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(20_000, 3),
        ] {
            let a = ev.analyze(&rules, &rates, &[RuleId(0), RuleId(1)], true);
            assert!(a.evict[1] > a.evict[0], "{ev:?}: evict = {:?}", a.evict);
            assert!((a.evict.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Same story for timeouts.
            assert!(
                a.timeout[1] > a.timeout[0],
                "{ev:?}: timeout = {:?}",
                a.timeout
            );
        }
    }

    #[test]
    fn mean_field_tracks_exact_disjoint() {
        let (rules, rates) = rules_two_disjoint(5, 7);
        let cached = [RuleId(0), RuleId(1)];
        let ex = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        let mf = Evaluator::mean_field().analyze(&rules, &rates, &cached, true);
        for i in 0..2 {
            assert!(
                (ex.evict[i] - mf.evict[i]).abs() < 0.06,
                "evict {ex:?} vs {mf:?}"
            );
            assert!(
                (ex.timeout[i] - mf.timeout[i]).abs() < 0.06,
                "timeout {ex:?} vs {mf:?}"
            );
        }
    }

    #[test]
    fn mean_field_tracks_exact_overlapping() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let ex = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        let mf = Evaluator::mean_field().analyze(&rules, &rates, &cached, true);
        for i in 0..2 {
            assert!(
                (ex.evict[i] - mf.evict[i]).abs() < 0.1,
                "evict {ex:?} vs {mf:?}"
            );
            assert!(
                (ex.timeout[i] - mf.timeout[i]).abs() < 0.1,
                "timeout {ex:?} vs {mf:?}"
            );
        }
    }

    #[test]
    fn monte_carlo_tracks_exact() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let ex = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        let mc = Evaluator::monte_carlo(50_000, 11).analyze(&rules, &rates, &cached, true);
        for i in 0..2 {
            assert!(
                (ex.evict[i] - mc.evict[i]).abs() < 0.03,
                "evict {ex:?} vs {mc:?}"
            );
            assert!(
                (ex.timeout[i] - mc.timeout[i]).abs() < 0.03,
                "timeout {ex:?} vs {mc:?}"
            );
        }
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let a = Evaluator::monte_carlo(5_000, 42).analyze(&rules, &rates, &cached, false);
        let b = Evaluator::monte_carlo(5_000, 42).analyze(&rules, &rates, &cached, false);
        assert_eq!(a, b);
        let c = Evaluator::monte_carlo(5_000, 43).analyze(&rules, &rates, &cached, false);
        assert_ne!(a, c);
    }

    #[test]
    fn capacity_affects_exact_estimates() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let below = Evaluator::exact().analyze(&rules, &rates, &cached, false);
        let full = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        // The uncached-rule factor differs between the two cases; the
        // estimates should not be identical (rule2 exists and overlaps).
        // (They can be close; just verify the plumbing produces both.)
        assert_eq!(below.cached, full.cached);
    }

    #[test]
    #[should_panic(expected = "duplicate rule ids")]
    fn duplicate_cache_ids_rejected() {
        let (rules, rates) = rules_two_disjoint(3, 3);
        let _ = Evaluator::mean_field().analyze(&rules, &rates, &[RuleId(0), RuleId(0)], false);
    }

    #[test]
    #[should_panic(expected = "would enumerate")]
    fn exact_guard_trips() {
        let u = 2;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(0)]), 2, Timeout::idle(1000)),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 1, Timeout::idle(1000)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.1, 0.1]);
        let ev = Evaluator::Exact {
            max_sequences: 1000,
        };
        let _ = ev.analyze(&rules, &rates, &[RuleId(0), RuleId(1)], false);
    }

    #[test]
    fn raw_mean_field_is_less_accurate_than_corrected() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        let ex = Evaluator::exact().analyze(&rules, &rates, &cached, true);
        let full = Evaluator::mean_field().analyze(&rules, &rates, &cached, true);
        let raw = Evaluator::MeanFieldRaw { iterations: 4 }.analyze(&rules, &rates, &cached, true);
        let l1 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        assert_ne!(full, raw, "corrections must change the estimates");
        assert!(
            l1(&ex.evict, &full.evict) <= l1(&ex.evict, &raw.evict) + 1e-9,
            "corrected {:?} should beat raw {:?} (exact {:?})",
            full.evict,
            raw.evict,
            ex.evict
        );
    }

    #[test]
    fn analyze_is_the_srt_policy() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(5_000, 9),
        ] {
            let a = ev.analyze(&rules, &rates, &cached, true);
            let b = ev.analyze_policy(&rules, &rates, &cached, true, PolicyKind::Srt);
            assert_eq!(a, b, "{ev:?}");
        }
    }

    #[test]
    fn lru_prefers_to_evict_the_stale_rule() {
        // rule0's flow arrives at 0.3/step, rule1's at 0.1: rule1 was
        // matched less recently (larger age), so LRU evicts it more often.
        let (rules, rates) = rules_two_disjoint(5, 5);
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(20_000, 3),
        ] {
            let a = ev.analyze_policy(
                &rules,
                &rates,
                &[RuleId(0), RuleId(1)],
                true,
                PolicyKind::Lru,
            );
            assert!(a.evict[1] > a.evict[0], "{ev:?}: {:?}", a.evict);
            assert!((a.evict.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{ev:?}");
        }
    }

    #[test]
    fn mean_field_tracks_exact_for_all_policies() {
        let (rules, rates) = rules_overlapping();
        let cached = [RuleId(0), RuleId(1)];
        for policy in PolicyKind::all() {
            let ex = Evaluator::exact().analyze_policy(&rules, &rates, &cached, true, policy);
            let mf = Evaluator::mean_field().analyze_policy(&rules, &rates, &cached, true, policy);
            for i in 0..2 {
                assert!(
                    (ex.evict[i] - mf.evict[i]).abs() < 0.12,
                    "{policy}: evict {:?} vs {:?}",
                    ex.evict,
                    mf.evict
                );
            }
        }
    }

    #[test]
    fn fdrc_normalization_shifts_eviction_toward_long_timeouts() {
        // Same flow rate, very different timeouts: SRT pins eviction on the
        // short-timeout rule (its remaining time is capped at t0), while
        // FDRC compares *normalized* remaining time, so the long-timeout
        // rule — stale relative to its own timeout — is evicted more often.
        let u = 4;
        let rules = RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(0)]), 20, Timeout::idle(3)),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 10, Timeout::idle(9)),
            ],
            u,
        )
        .unwrap();
        let rates = FlowRates::from_per_step(vec![0.2, 0.2, 0.0, 0.0]);
        let cached = [RuleId(0), RuleId(1)];
        let srt = Evaluator::exact().analyze_policy(&rules, &rates, &cached, true, PolicyKind::Srt);
        let fdrc =
            Evaluator::exact().analyze_policy(&rules, &rates, &cached, true, PolicyKind::Fdrc);
        assert!(
            fdrc.evict[1] > srt.evict[1],
            "fdrc {:?} vs srt {:?}",
            fdrc.evict,
            srt.evict
        );
    }

    #[test]
    fn evict_distribution_sums_to_one() {
        let (rules, rates) = rules_overlapping();
        for ev in [
            Evaluator::exact(),
            Evaluator::mean_field(),
            Evaluator::monte_carlo(5_000, 1),
        ] {
            let a = ev.analyze(&rules, &rates, &[RuleId(0), RuleId(1)], true);
            let s: f64 = a.evict.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{ev:?}: {s}");
            for &p in &a.timeout {
                assert!((0.0..=1.0).contains(&p), "{ev:?}: {p}");
            }
        }
    }
}
