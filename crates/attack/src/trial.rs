//! Running repeated attack trials against live simulated traffic.
//!
//! Trials are mutually independent by construction: every RNG stream is
//! derived from `(seed, trial index, attacker index)` alone, and results
//! reduce through [`Accuracy::merge`] — unsigned addition, which is
//! commutative and associative. The engine therefore executes trials
//! under any [`ExecPolicy`] with bit-identical output; see `DESIGN.md`
//! ("Determinism contract").

use crate::attacker::{Attacker, AttackerKind};
use crate::plan::AttackPlan;
use crate::robust::{FaultCounters, ProbePolicy, RobustState, Verdict};
use crate::ExecPolicy;
use ftcache::CachePolicy;
use netsim::{FaultStats, NetConfig, Simulation, SwitchStats};
use obs::trace::{probe_ctx, TraceEv};
use obs::{metrics, FlightRecorder, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use traffic::{poisson, NetworkScenario};

/// Salt for the per-attacker decision stream inside one trial. The value
/// predates the salt-naming convention and is pinned: changing it would
/// shift every decision draw and break CSV byte-identity with published
/// results.
const DECIDE_STREAM_SALT: u64 = 0xDEAD_BEEF;

/// A confusion-matrix accumulator, plus the trials the attacker could
/// not answer. Accuracy is computed over **answered** trials only;
/// [`Accuracy::answer_rate`] reports how many got an answer at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Accuracy {
    /// Target occurred, attacker said occurred.
    pub tp: u64,
    /// Target absent, attacker said absent.
    pub tn: u64,
    /// Target absent, attacker said occurred.
    pub fp: u64,
    /// Target occurred, attacker said absent.
    pub fn_: u64,
    /// Trials where the attacker gave no answer (retry budget
    /// exhausted under faults). Zero on fault-free runs.
    pub inconclusive: u64,
}

impl Accuracy {
    /// Records one answered trial.
    pub fn add(&mut self, truth: bool, answer: bool) {
        match (truth, answer) {
            (true, true) => self.tp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fp += 1,
            (true, false) => self.fn_ += 1,
        }
    }

    /// Records one trial's verdict, conclusive or not.
    pub fn add_verdict(&mut self, truth: bool, verdict: Verdict) {
        match verdict.answer() {
            Some(answer) => self.add(truth, answer),
            None => self.inconclusive += 1,
        }
    }

    /// Number of answered trials.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// Number of trials recorded, answered or not.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.n() + self.inconclusive
    }

    /// Fraction of trials that received an answer. 1.0 on fault-free
    /// runs; NaN if no trials were recorded.
    #[must_use]
    pub fn answer_rate(&self) -> f64 {
        if self.total() == 0 {
            f64::NAN
        } else {
            self.n() as f64 / self.total() as f64
        }
    }

    /// The paper's metric over answered trials: (TP + TN) / answered.
    ///
    /// Returns NaN if no trials were answered.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.n() == 0 {
            f64::NAN
        } else {
            (self.tp + self.tn) as f64 / self.n() as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Accuracy) {
        self.tp += other.tp;
        self.tn += other.tn;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.inconclusive += other.inconclusive;
    }
}

/// Per-attacker results of one batch of trials on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialReport {
    /// Confusion matrices, parallel to [`AttackerKind::all`].
    pub by_attacker: Vec<(AttackerKind, Accuracy)>,
    /// Fraction of trials in which the target genuinely occurred.
    pub base_rate_present: f64,
    /// Per-attacker measurement-fault tallies, parallel to
    /// `by_attacker`. All zeros when the batch ran without the robust
    /// probe loop (fault-free configurations).
    pub fault_counters: Vec<FaultCounters>,
    /// Per-attacker totals of faults the *simulator* injected across
    /// all trials, parallel to `by_attacker` — the ground truth the
    /// measurement-layer `fault_counters` can be cross-checked against
    /// (injected vs observed).
    pub sim_faults: Vec<FaultStats>,
    /// Per-attacker ingress-switch cache counters summed across all
    /// trials, parallel to `by_attacker` — hit rate and controller load
    /// under whatever eviction policy the network configuration ran.
    pub cache_stats: Vec<SwitchStats>,
}

impl TrialReport {
    /// The accuracy of one attacker kind (over answered trials).
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn accuracy(&self, kind: AttackerKind) -> f64 {
        self.entry(kind).accuracy()
    }

    /// The answer rate of one attacker kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn answer_rate(&self, kind: AttackerKind) -> f64 {
        self.entry(kind).answer_rate()
    }

    /// The full confusion matrix of one attacker kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn entry_for(&self, kind: AttackerKind) -> &Accuracy {
        self.entry(kind)
    }

    /// The measurement-fault tallies of one attacker kind (all zeros
    /// when the batch ran without the robust probe loop).
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn fault_counters(&self, kind: AttackerKind) -> &FaultCounters {
        let i = self
            .by_attacker
            .iter()
            .position(|(k, _)| *k == kind)
            .expect("attacker kind not in report");
        &self.fault_counters[i]
    }

    /// Total simulator-injected faults of one attacker kind across the
    /// batch (all zeros on fault-free configurations).
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn sim_faults(&self, kind: AttackerKind) -> &FaultStats {
        let i = self
            .by_attacker
            .iter()
            .position(|(k, _)| *k == kind)
            // detlint::allow(D4): same caller contract as fault_counters —
            // asking for a kind outside the batch is a programming error
            .expect("attacker kind not in report");
        &self.sim_faults[i]
    }

    /// Ingress-switch cache counters of one attacker kind, summed over
    /// the batch.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn cache_stats(&self, kind: AttackerKind) -> &SwitchStats {
        let i = self
            .by_attacker
            .iter()
            .position(|(k, _)| *k == kind)
            // detlint::allow(D4): same caller contract as fault_counters —
            // asking for a kind outside the batch is a programming error
            .expect("attacker kind not in report");
        &self.cache_stats[i]
    }

    fn entry(&self, kind: AttackerKind) -> &Accuracy {
        self.by_attacker
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, a)| a)
            .expect("attacker kind not in report")
    }
}

/// Realizes a scenario as a [`NetConfig`] on the paper's evaluation
/// topology.
#[must_use]
pub fn scenario_net_config(scenario: &NetworkScenario) -> NetConfig {
    NetConfig::eval_topology(scenario.rules.clone(), scenario.capacity, scenario.delta)
}

/// Runs `trials` independent trials of every attacker in `kinds` on the
/// scenario, regenerating the Poisson traffic each trial (as the paper
/// does: "each test … was performed 100 times, randomly generating the
/// network packets every time").
///
/// Within a trial, every attacker observes the *same* traffic realization:
/// each gets a fresh simulation fed the same schedule, so earlier
/// attackers' probes cannot pollute later attackers' switch state.
#[must_use]
pub fn run_trials(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
) -> TrialReport {
    run_trials_policy(scenario, plan, kinds, trials, seed, ExecPolicy::from_env())
}

/// [`run_trials`] against an explicit network configuration — used by the
/// countermeasure experiments (§VII-B) to enable defenses.
#[must_use]
pub fn run_trials_with(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
    net: &NetConfig,
) -> TrialReport {
    run_trials_with_policy(
        scenario,
        plan,
        kinds,
        trials,
        seed,
        net,
        ExecPolicy::from_env(),
    )
}

/// [`run_trials`] under an explicit [`ExecPolicy`].
#[must_use]
pub fn run_trials_policy(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
    policy: ExecPolicy,
) -> TrialReport {
    run_trials_with_policy(
        scenario,
        plan,
        kinds,
        trials,
        seed,
        &scenario_net_config(scenario),
        policy,
    )
}

/// The full engine: explicit network configuration *and* execution
/// policy. All other `run_trials*` entry points delegate here.
///
/// The report is a pure function of `(scenario, plan, kinds, trials,
/// seed, net)` — `policy` changes scheduling, never results.
#[must_use]
pub fn run_trials_with_policy(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
    net: &NetConfig,
    policy: ExecPolicy,
) -> TrialReport {
    run_trials_engine(
        scenario,
        plan,
        kinds,
        trials,
        seed,
        net,
        policy,
        None,
        &mut Recorder::disabled(),
        0,
        &mut FlightRecorder::disabled(),
    )
}

/// [`run_trials_with_policy`] with the attackers' measurements routed
/// through the robust probe loop (timeouts, retries, outlier rejection
/// — see [`crate::robust`]). This is the entry point for fault-injected
/// configurations: attackers degrade to [`Verdict::Inconclusive`]
/// instead of hanging or silently misclassifying, and the report's
/// `fault_counters` tally what was absorbed.
///
/// On a fault-free `net` the accuracies match the non-robust engine.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_trials_robust_policy(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
    net: &NetConfig,
    policy: ExecPolicy,
    probe_policy: &ProbePolicy,
) -> TrialReport {
    run_trials_engine(
        scenario,
        plan,
        kinds,
        trials,
        seed,
        net,
        policy,
        Some(probe_policy),
        &mut Recorder::disabled(),
        0,
        &mut FlightRecorder::disabled(),
    )
}

/// The full engine with an explicit metric [`Recorder`]: probe-RTT
/// hit/miss histograms, verdict and robust-loop counters, and injected
/// fault totals are collected into `recorder` as the trials run.
///
/// Recording is observation only. The report — and therefore every CSV
/// derived from it — is byte-identical whether `recorder` is enabled or
/// [`Recorder::disabled`], under any `policy` (worker recorders merge by
/// unsigned addition, the same contract as [`Accuracy::merge`]).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_trials_recorded(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
    net: &NetConfig,
    policy: ExecPolicy,
    robust: Option<&ProbePolicy>,
    recorder: &mut Recorder,
) -> TrialReport {
    run_trials_engine(
        scenario,
        plan,
        kinds,
        trials,
        seed,
        net,
        policy,
        robust,
        recorder,
        0,
        &mut FlightRecorder::disabled(),
    )
}

/// [`run_trials_recorded`] with a causal [`FlightRecorder`] attached:
/// every probe's event chain (inject → miss → packet-in → install →
/// deliver, plus injected faults, retries, outlier rejections and the
/// final verdicts) is stamped with a
/// [`ProbeId`](obs::trace::ProbeId) whose context packs `(unit, trial,
/// attacker)` via [`probe_ctx`] — `unit` names this batch within a
/// larger job (0 when standalone).
///
/// Tracing is observation only, under the same contract as the metric
/// recorder: the report is byte-identical whether `flight` is enabled
/// or [`FlightRecorder::disabled`], under any `policy`, and the merged
/// flight contents are themselves independent of the execution
/// schedule and merge order.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_trials_traced(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
    net: &NetConfig,
    policy: ExecPolicy,
    robust: Option<&ProbePolicy>,
    recorder: &mut Recorder,
    unit: usize,
    flight: &mut FlightRecorder,
) -> TrialReport {
    run_trials_engine(
        scenario, plan, kinds, trials, seed, net, policy, robust, recorder, unit, flight,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_trials_engine(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
    net: &NetConfig,
    policy: ExecPolicy,
    robust: Option<&ProbePolicy>,
    recorder: &mut Recorder,
    unit: usize,
    flight: &mut FlightRecorder,
) -> TrialReport {
    let threads = policy.effective_threads(trials);
    let (accs, counters, sim_faults, cache_stats, present) = if threads <= 1 {
        run_trial_range(
            scenario,
            plan,
            kinds,
            seed,
            net,
            robust,
            0..trials,
            recorder,
            unit,
            flight,
        )
    } else {
        run_trials_parallel(
            scenario, plan, kinds, trials, seed, net, robust, threads, recorder, unit, flight,
        )
    };
    if recorder.is_enabled() {
        recorder.add(metrics::TRIALS, trials as u64);
        for (kind, acc) in kinds.iter().zip(&accs) {
            recorder.add(metrics::VERDICT_PRESENT, acc.tp + acc.fp);
            recorder.add(metrics::VERDICT_ABSENT, acc.tn + acc.fn_);
            recorder.add(metrics::VERDICT_INCONCLUSIVE, acc.inconclusive);
            recorder.add_with_suffix(metrics::ANSWERED_PREFIX, kind.name(), acc.n());
            recorder.add_with_suffix(metrics::INCONCLUSIVE_PREFIX, kind.name(), acc.inconclusive);
        }
        for c in &counters {
            recorder.add(metrics::ROBUST_PROBES, c.probes);
            recorder.add(metrics::ROBUST_TIMEOUTS, c.timeouts);
            recorder.add(metrics::ROBUST_RETRIES, c.retries);
            recorder.add(metrics::ROBUST_OUTLIERS, c.outliers);
            recorder.add(metrics::ROBUST_RECALIBRATIONS, c.recalibrations);
        }
        let mut total = FaultStats::default();
        for f in &sim_faults {
            total.merge(f);
        }
        total.record_into(recorder);
        let mut cache_total = SwitchStats::default();
        for s in &cache_stats {
            cache_total.merge(s);
        }
        let policy_name = net.policy.name();
        recorder.add_with_suffix(metrics::CACHE_HITS_PREFIX, policy_name, cache_total.hits);
        recorder.add_with_suffix(
            metrics::CACHE_MISSES_PREFIX,
            policy_name,
            cache_total.misses,
        );
        recorder.add_with_suffix(
            metrics::CACHE_EVICTIONS_PREFIX,
            policy_name,
            cache_total.evictions,
        );
        recorder.add_with_suffix(
            metrics::CACHE_INSTALLS_PREFIX,
            policy_name,
            cache_total.installs,
        );
    }
    TrialReport {
        by_attacker: kinds.iter().copied().zip(accs).collect(),
        base_rate_present: present as f64 / trials.max(1) as f64,
        fault_counters: counters,
        sim_faults,
        cache_stats,
    }
}

/// Per-attacker accumulators of one worker (or the serial path):
/// confusion matrices, measurement-fault tallies, injected-fault totals,
/// ingress cache counters, and the count of target-present trials.
type TrialAccumulators = (
    Vec<Accuracy>,
    Vec<FaultCounters>,
    Vec<FaultStats>,
    Vec<SwitchStats>,
    u64,
);

/// One independent trial: regenerates the traffic realization for
/// `trial`, replays it once per attacker, and collects each attacker's
/// answer. Every RNG stream is derived from `(seed, trial, attacker
/// index)` — nothing else — which is what makes the engine's scheduling
/// freedom sound.
#[allow(clippy::too_many_arguments)]
fn run_one_trial(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    seed: u64,
    net: &NetConfig,
    robust: Option<&ProbePolicy>,
    trial: usize,
    answers: &mut Vec<Verdict>,
    counters: &mut [FaultCounters],
    sim_faults: &mut [FaultStats],
    cache_stats: &mut [SwitchStats],
    recorder: &mut Recorder,
    unit: usize,
    flight: &mut FlightRecorder,
) -> bool {
    let mut traffic_rng =
        StdRng::seed_from_u64(seed ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let schedule = poisson::schedule(
        &scenario.lambdas,
        0.0,
        scenario.window_secs,
        &mut traffic_rng,
    );
    let truth = schedule.iter().any(|&(f, _)| f == scenario.target);
    answers.clear();
    for (i, &kind) in kinds.iter().enumerate() {
        // Each attacker gets a fresh simulation fed the same schedule, so
        // earlier attackers' probes cannot pollute later attackers' state.
        let mut sim = Simulation::new(net, seed ^ ((trial as u64) << 20) ^ (i as u64 + 1));
        if recorder.is_enabled() {
            sim.attach_recorder(recorder.fork());
        }
        if flight.is_enabled() {
            sim.attach_flight(flight.fork(), probe_ctx(unit, trial, i));
        }
        for &(f, t) in &schedule {
            sim.schedule_flow(f, t);
        }
        sim.run_until(scenario.window_secs);
        let attacker = Attacker::from_plan(kind, plan, scenario.target);
        let mut decide_rng =
            StdRng::seed_from_u64(seed ^ DECIDE_STREAM_SALT ^ ((trial as u64) << 8) ^ i as u64);
        let verdict = match robust {
            None => Verdict::from_present(attacker.decide(&mut sim, &mut decide_rng)),
            Some(probe_policy) => {
                let mut state = RobustState::new(probe_policy);
                let v = attacker.decide_robust(&mut sim, &mut decide_rng, probe_policy, &mut state);
                counters[i].merge(&state.counters);
                v
            }
        };
        sim_faults[i].merge(&sim.fault_stats());
        cache_stats[i].merge(&sim.ingress_stats());
        recorder.merge(sim.take_recorder());
        if flight.is_enabled() {
            let now = sim.now();
            sim.flight_mut().log(
                now,
                None,
                TraceEv::Verdict {
                    verdict: verdict.label(),
                    attacker: kind.name(),
                },
            );
            flight.merge(sim.take_flight());
        }
        answers.push(verdict);
    }
    truth
}

/// Runs a contiguous range of trials on the calling thread, returning
/// per-attacker accumulators, fault tallies, and the count of trials
/// where the target was genuinely present.
#[allow(clippy::too_many_arguments)]
fn run_trial_range(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    seed: u64,
    net: &NetConfig,
    robust: Option<&ProbePolicy>,
    range: std::ops::Range<usize>,
    recorder: &mut Recorder,
    unit: usize,
    flight: &mut FlightRecorder,
) -> TrialAccumulators {
    let mut accs = vec![Accuracy::default(); kinds.len()];
    let mut counters = vec![FaultCounters::default(); kinds.len()];
    let mut sim_faults = vec![FaultStats::default(); kinds.len()];
    let mut cache_stats = vec![SwitchStats::default(); kinds.len()];
    let mut present = 0u64;
    let mut answers = Vec::with_capacity(kinds.len());
    for trial in range {
        let truth = run_one_trial(
            scenario,
            plan,
            kinds,
            seed,
            net,
            robust,
            trial,
            &mut answers,
            &mut counters,
            &mut sim_faults,
            &mut cache_stats,
            recorder,
            unit,
            flight,
        );
        if truth {
            present += 1;
        }
        for (acc, &verdict) in accs.iter_mut().zip(&answers) {
            acc.add_verdict(truth, verdict);
        }
    }
    (accs, counters, sim_faults, cache_stats, present)
}

/// Distributes trials over `threads` scoped workers. Workers claim fixed
/// chunks of the trial index space from a shared cursor and accumulate
/// locally; the main thread merges worker results. Because merging is
/// unsigned addition, the outcome is independent of which worker ran
/// which chunk — bit-identical to the serial path.
#[allow(clippy::too_many_arguments)]
fn run_trials_parallel(
    scenario: &NetworkScenario,
    plan: &AttackPlan,
    kinds: &[AttackerKind],
    trials: usize,
    seed: u64,
    net: &NetConfig,
    robust: Option<&ProbePolicy>,
    threads: usize,
    recorder: &mut Recorder,
    unit: usize,
    flight: &mut FlightRecorder,
) -> TrialAccumulators {
    // Chunks several times smaller than a fair share keep workers busy
    // when trial costs vary, without contending on the cursor per trial.
    let chunk = (trials / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let record = recorder.is_enabled();
    let (trace, trace_capacity) = (flight.is_enabled(), flight.capacity());
    let mut accs = vec![Accuracy::default(); kinds.len()];
    let mut counters = vec![FaultCounters::default(); kinds.len()];
    let mut sim_faults = vec![FaultStats::default(); kinds.len()];
    let mut cache_stats = vec![SwitchStats::default(); kinds.len()];
    let mut present = 0u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = vec![Accuracy::default(); kinds.len()];
                    let mut local_counters = vec![FaultCounters::default(); kinds.len()];
                    let mut local_faults = vec![FaultStats::default(); kinds.len()];
                    let mut local_cache = vec![SwitchStats::default(); kinds.len()];
                    // Each worker records into its own recorder; the
                    // merges below are commutative, so the metrics are
                    // independent of chunk assignment — like the results.
                    let mut local_recorder = if record {
                        Recorder::enabled()
                    } else {
                        Recorder::disabled()
                    };
                    // Flight records are keyed `(ctx, seq)` — a pure
                    // function of (unit, trial, attacker) — so worker
                    // merges commute exactly like the counters above.
                    let mut local_flight = if trace {
                        FlightRecorder::with_capacity(trace_capacity)
                    } else {
                        FlightRecorder::disabled()
                    };
                    let mut local_present = 0u64;
                    let mut answers = Vec::with_capacity(kinds.len());
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= trials {
                            break;
                        }
                        let end = (start + chunk).min(trials);
                        for trial in start..end {
                            let truth = run_one_trial(
                                scenario,
                                plan,
                                kinds,
                                seed,
                                net,
                                robust,
                                trial,
                                &mut answers,
                                &mut local_counters,
                                &mut local_faults,
                                &mut local_cache,
                                &mut local_recorder,
                                unit,
                                &mut local_flight,
                            );
                            if truth {
                                local_present += 1;
                            }
                            for (acc, &verdict) in local.iter_mut().zip(&answers) {
                                acc.add_verdict(truth, verdict);
                            }
                        }
                    }
                    (
                        local,
                        local_counters,
                        local_faults,
                        local_cache,
                        local_recorder,
                        local_flight,
                        local_present,
                    )
                })
            })
            .collect();
        for worker in workers {
            // Re-raise a worker panic with its original payload instead of
            // replacing it: the job supervisor's `catch_unwind` one layer
            // up reports that payload in `WorkerFailure::Panic`, so the
            // root cause must survive the thread boundary.
            let (
                local,
                local_counters,
                local_faults,
                local_cache,
                local_recorder,
                local_flight,
                local_present,
            ) = match worker.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (acc, l) in accs.iter_mut().zip(&local) {
                acc.merge(l);
            }
            for (c, l) in counters.iter_mut().zip(&local_counters) {
                c.merge(l);
            }
            for (f, l) in sim_faults.iter_mut().zip(&local_faults) {
                f.merge(l);
            }
            for (s, l) in cache_stats.iter_mut().zip(&local_cache) {
                s.merge(l);
            }
            recorder.merge(local_recorder);
            flight.merge(local_flight);
            present += local_present;
        }
    });
    (accs, counters, sim_faults, cache_stats, present)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_attack;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use recon_core::useq::Evaluator;
    use traffic::ScenarioSampler;

    fn scenario(seed: u64, absence: (f64, f64)) -> NetworkScenario {
        let sampler = ScenarioSampler {
            bits: 3,
            n_rules: 6,
            capacity: 3,
            delta: 0.05,
            window_secs: 10.0,
            ..ScenarioSampler::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        sampler.sample_forced(absence, &mut rng)
    }

    #[test]
    fn accuracy_bookkeeping() {
        let mut a = Accuracy::default();
        a.add(true, true);
        a.add(false, false);
        a.add(false, true);
        a.add(true, false);
        assert_eq!(a.n(), 4);
        assert_eq!(a.accuracy(), 0.5);
        let mut b = Accuracy::default();
        b.add(true, true);
        a.merge(&b);
        assert_eq!(a.n(), 5);
        assert_eq!((a.tp, a.tn, a.fp, a.fn_), (2, 1, 1, 1));
        assert!(Accuracy::default().accuracy().is_nan());
    }

    #[test]
    fn trials_are_reproducible() {
        let sc = scenario(1, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [AttackerKind::Naive, AttackerKind::Model];
        let r1 = run_trials(&sc, &plan, &kinds, 10, 99);
        let r2 = run_trials(&sc, &plan, &kinds, 10, 99);
        assert_eq!(r1, r2);
    }

    #[test]
    fn base_rate_tracks_absence_probability() {
        let sc = scenario(2, (0.45, 0.55));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let r = run_trials(&sc, &plan, &[AttackerKind::Random], 300, 7);
        // Absence ≈ 0.5 → presence ≈ 0.5.
        assert!(
            (r.base_rate_present - 0.5).abs() < 0.15,
            "{}",
            r.base_rate_present
        );
    }

    #[test]
    fn naive_attacker_beats_chance_when_detection_feasible() {
        // A low-absence scenario: the target fires often, its rule is
        // usually cached, and probing it answers well above 50%.
        let sc = scenario(3, (0.05, 0.15));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let r = run_trials(
            &sc,
            &plan,
            &[AttackerKind::Naive, AttackerKind::Random],
            100,
            11,
        );
        let naive = r.accuracy(AttackerKind::Naive);
        assert!(naive > 0.6, "naive accuracy {naive}");
    }

    #[test]
    fn parallel_policies_match_serial_bit_for_bit() {
        let sc = scenario(5, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [
            AttackerKind::Naive,
            AttackerKind::Model,
            AttackerKind::Random,
        ];
        let serial = run_trials_policy(&sc, &plan, &kinds, 17, 42, ExecPolicy::Serial);
        for threads in [2, 3, 8, 32] {
            let parallel =
                run_trials_policy(&sc, &plan, &kinds, 17, 42, ExecPolicy::Parallel { threads });
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn zero_trials_is_well_defined() {
        let sc = scenario(6, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let r = run_trials_policy(
            &sc,
            &plan,
            &[AttackerKind::Naive],
            0,
            1,
            ExecPolicy::Parallel { threads: 4 },
        );
        assert_eq!(r.by_attacker[0].1.n(), 0);
        assert_eq!(r.base_rate_present, 0.0);
    }

    #[test]
    #[should_panic(expected = "not in report")]
    fn missing_kind_panics() {
        let sc = scenario(4, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let r = run_trials(&sc, &plan, &[AttackerKind::Naive], 2, 1);
        let _ = r.accuracy(AttackerKind::Model);
    }

    #[test]
    fn verdict_bookkeeping_separates_inconclusive() {
        let mut a = Accuracy::default();
        a.add_verdict(true, Verdict::Present);
        a.add_verdict(false, Verdict::Absent);
        a.add_verdict(true, Verdict::Inconclusive);
        a.add_verdict(false, Verdict::Inconclusive);
        assert_eq!(a.n(), 2, "answered only");
        assert_eq!(a.total(), 4);
        assert_eq!(a.inconclusive, 2);
        assert_eq!(a.accuracy(), 1.0, "accuracy over answered questions");
        assert_eq!(a.answer_rate(), 0.5);
        let mut b = Accuracy::default();
        b.add_verdict(true, Verdict::Inconclusive);
        a.merge(&b);
        assert_eq!(a.inconclusive, 3);
        assert!(Accuracy::default().answer_rate().is_nan());
    }

    #[test]
    fn non_robust_reports_zero_fault_counters() {
        let sc = scenario(1, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [AttackerKind::Naive, AttackerKind::Random];
        let r = run_trials(&sc, &plan, &kinds, 5, 3);
        assert_eq!(r.fault_counters.len(), kinds.len());
        assert!(r.fault_counters.iter().all(FaultCounters::is_zero));
        for (k, a) in &r.by_attacker {
            assert_eq!(a.inconclusive, 0, "{k:?}");
            assert_eq!(r.answer_rate(*k), 1.0);
        }
    }

    #[test]
    fn robust_engine_matches_plain_engine_without_faults() {
        let sc = scenario(7, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [
            AttackerKind::Naive,
            AttackerKind::Model,
            AttackerKind::Random,
        ];
        let net = scenario_net_config(&sc);
        let plain = run_trials_with_policy(&sc, &plan, &kinds, 15, 5, &net, ExecPolicy::Serial);
        let robust = run_trials_robust_policy(
            &sc,
            &plan,
            &kinds,
            15,
            5,
            &net,
            ExecPolicy::Serial,
            &ProbePolicy::default(),
        );
        // Same measurements, same verdicts — only the probe/no-fault
        // counters differ.
        assert_eq!(plain.by_attacker, robust.by_attacker);
        assert_eq!(plain.base_rate_present, robust.base_rate_present);
        for c in &robust.fault_counters {
            assert_eq!(c.timeouts, 0);
            assert_eq!(c.inconclusive, 0);
        }
    }

    #[test]
    fn robust_trials_parallel_match_serial_bit_for_bit() {
        let sc = scenario(8, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [AttackerKind::Naive, AttackerKind::Model];
        let mut net = scenario_net_config(&sc);
        net.faults = netsim::FaultPlan::uniform(0.1);
        let probe = ProbePolicy::default();
        let serial =
            run_trials_robust_policy(&sc, &plan, &kinds, 16, 21, &net, ExecPolicy::Serial, &probe);
        for threads in [2, 8] {
            let parallel = run_trials_robust_policy(
                &sc,
                &plan,
                &kinds,
                16,
                21,
                &net,
                ExecPolicy::Parallel { threads },
                &probe,
            );
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn recorder_never_perturbs_results_and_collects_metrics() {
        let sc = scenario(10, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [AttackerKind::Naive, AttackerKind::Model];
        let mut net = scenario_net_config(&sc);
        net.faults = netsim::FaultPlan::uniform(0.1);
        let probe = ProbePolicy::default();
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 8 }] {
            let plain = run_trials_robust_policy(&sc, &plan, &kinds, 12, 17, &net, policy, &probe);
            let mut recorder = Recorder::enabled();
            let recorded = run_trials_recorded(
                &sc,
                &plan,
                &kinds,
                12,
                17,
                &net,
                policy,
                Some(&probe),
                &mut recorder,
            );
            assert_eq!(plain, recorded, "recording must not change results");
            assert_eq!(recorder.counter(metrics::TRIALS), 12);
            let answered: u64 = kinds
                .iter()
                .map(|k| recorder.counter(&format!("{}.{}", metrics::ANSWERED_PREFIX, k.name())))
                .sum();
            let inconclusive = recorder.counter(metrics::VERDICT_INCONCLUSIVE);
            assert_eq!(answered + inconclusive, 12 * kinds.len() as u64);
            assert_eq!(
                recorder.counter(metrics::ROBUST_PROBES),
                recorded
                    .fault_counters
                    .iter()
                    .map(|c| c.probes)
                    .sum::<u64>()
            );
            let injected: u64 = recorded.sim_faults.iter().map(|f| f.packets_dropped).sum();
            assert_eq!(recorder.counter(metrics::FAULT_PACKETS_DROPPED), injected);
            let hits = recorder.histogram(metrics::PROBE_RTT_HIT);
            let misses = recorder.histogram(metrics::PROBE_RTT_MISS);
            assert!(
                hits.map_or(0, obs::Histogram::count) + misses.map_or(0, obs::Histogram::count) > 0,
                "some probe RTTs must be observed"
            );
        }
    }

    #[test]
    fn tracing_never_perturbs_results_and_merges_schedule_independently() {
        let sc = scenario(10, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [AttackerKind::Naive, AttackerKind::Model];
        let mut net = scenario_net_config(&sc);
        net.faults = netsim::FaultPlan::uniform(0.1);
        let probe = ProbePolicy::default();
        let mut reference: Option<FlightRecorder> = None;
        for threads in [1, 2, 8] {
            let policy = if threads == 1 {
                ExecPolicy::Serial
            } else {
                ExecPolicy::Parallel { threads }
            };
            let plain = run_trials_robust_policy(&sc, &plan, &kinds, 8, 17, &net, policy, &probe);
            let mut flight = FlightRecorder::enabled();
            let traced = run_trials_traced(
                &sc,
                &plan,
                &kinds,
                8,
                17,
                &net,
                policy,
                Some(&probe),
                &mut Recorder::disabled(),
                3,
                &mut flight,
            );
            assert_eq!(
                plain, traced,
                "threads={threads}: tracing must not change results"
            );
            assert!(!flight.is_empty());
            assert!(
                flight.records().all(|(id, _)| id.unit() == 3),
                "every record carries the caller's unit"
            );
            match &reference {
                None => reference = Some(flight),
                Some(f) => assert_eq!(
                    f, &flight,
                    "threads={threads}: flight contents must be schedule-independent"
                ),
            }
        }
    }

    #[test]
    fn cache_stats_tally_every_ingress_lookup_under_any_policy() {
        let sc = scenario(12, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [AttackerKind::Naive];
        let total_of = |name: &str| {
            let mut net = scenario_net_config(&sc);
            net.set_policy_by_name(name).unwrap();
            let r = run_trials_with(&sc, &plan, &kinds, 10, 3, &net);
            let s = *r.cache_stats(AttackerKind::Naive);
            assert!(s.hits + s.misses > 0, "{name}: lookups must be counted");
            s.hits + s.misses + s.uncovered
        };
        // The same traffic and probe schedule reaches the ingress switch
        // under every policy; only the hit/miss split may move.
        let srt = total_of("srt");
        assert_eq!(srt, total_of("lru"));
        assert_eq!(srt, total_of("fdrc"));
    }

    #[test]
    fn sim_fault_totals_track_injection() {
        let sc = scenario(11, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [AttackerKind::Naive];
        let clean = run_trials(&sc, &plan, &kinds, 5, 3);
        assert_eq!(
            clean.sim_faults(AttackerKind::Naive),
            &FaultStats::default()
        );
        let mut net = scenario_net_config(&sc);
        net.faults = netsim::FaultPlan::uniform(0.25);
        let faulty = run_trials_robust_policy(
            &sc,
            &plan,
            &kinds,
            30,
            13,
            &net,
            ExecPolicy::Serial,
            &ProbePolicy::default(),
        );
        let f = faulty.sim_faults(AttackerKind::Naive);
        assert!(
            f.packets_dropped + f.packet_ins_lost + f.flow_mods_lost > 0,
            "25% faults must show up in injected totals: {f:?}"
        );
    }

    #[test]
    fn faulty_network_degrades_gracefully_not_silently() {
        let sc = scenario(9, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let kinds = [AttackerKind::Naive];
        let mut net = scenario_net_config(&sc);
        net.faults = netsim::FaultPlan::uniform(0.25);
        let r = run_trials_robust_policy(
            &sc,
            &plan,
            &kinds,
            60,
            13,
            &net,
            ExecPolicy::Serial,
            &ProbePolicy::default(),
        );
        let acc = &r.by_attacker[0].1;
        assert_eq!(acc.total(), 60, "every trial is accounted for");
        let c = &r.fault_counters[0];
        assert!(c.timeouts > 0, "25% loss must cost some probes: {c:?}");
        assert_eq!(
            c.inconclusive, acc.inconclusive,
            "counters and accuracy agree on inconclusive trials"
        );
        assert!(
            r.answer_rate(AttackerKind::Naive) < 1.0,
            "some questions must go unanswered at 25% faults"
        );
    }
}
