//! Running repeated attack trials against live simulated traffic.
//!
//! Trials are mutually independent by construction: every RNG stream is
//! derived from `(seed, trial index, attacker index)` alone, and results
//! reduce through [`Accuracy::merge`] — unsigned addition, which is
//! commutative and associative. The engine, [`TrialRun`], therefore
//! executes trials under any [`ExecPolicy`] with bit-identical output;
//! see `DESIGN.md` ("Determinism contract").

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
use recon_core::exec::map_indexed;
use serde::{Deserialize, Serialize};
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
        self.entry_for(kind).accuracy()
    }

    /// The answer rate of one attacker kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn answer_rate(&self, kind: AttackerKind) -> f64 {
        self.entry_for(kind).answer_rate()
    }

    /// The full confusion matrix of one attacker kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn entry_for(&self, kind: AttackerKind) -> &Accuracy {
        &self.by_attacker[self.index(kind)].1
    }

    /// The measurement-fault tallies of one attacker kind (all zeros
    /// when the batch ran without the robust probe loop).
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn fault_counters(&self, kind: AttackerKind) -> &FaultCounters {
        &self.fault_counters[self.index(kind)]
    }

    /// Total simulator-injected faults of one attacker kind across the
    /// batch (all zeros on fault-free configurations).
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn sim_faults(&self, kind: AttackerKind) -> &FaultStats {
        &self.sim_faults[self.index(kind)]
    }

    /// Ingress-switch cache counters of one attacker kind, summed over
    /// the batch.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the batch.
    #[must_use]
    pub fn cache_stats(&self, kind: AttackerKind) -> &SwitchStats {
        &self.cache_stats[self.index(kind)]
    }

    /// The position of `kind` in the batch, which every per-attacker
    /// vector of the report shares.
    fn index(&self, kind: AttackerKind) -> usize {
        self.by_attacker
            .iter()
            .position(|(k, _)| *k == kind)
            .expect("attacker kind not in report")
    }
}

/// Realizes a scenario as a [`NetConfig`] on the paper's evaluation
/// topology.
#[must_use]
pub fn scenario_net_config(scenario: &NetworkScenario) -> NetConfig {
    NetConfig::eval_topology(scenario.rules.clone(), scenario.capacity, scenario.delta)
}

/// One batch of trials: `trials` independent trials of every attacker in
/// `kinds` on `scenario`, regenerating the Poisson traffic each trial (as
/// the paper does: "each test … was performed 100 times, randomly
/// generating the network packets every time").
///
/// The fields are exactly the inputs the [`TrialReport`] is a function
/// of; [`TrialRun::run`] and [`TrialRun::run_observed`] only choose how
/// the trials are scheduled and observed. Within a trial, every attacker
/// observes the *same* traffic realization: each gets a fresh simulation
/// fed the same schedule, so earlier attackers' probes cannot pollute
/// later attackers' switch state.
#[derive(Debug, Clone, Copy)]
pub struct TrialRun<'a> {
    /// The sampled configuration: rules, rates, target and window.
    pub scenario: &'a NetworkScenario,
    /// The §V probe selection every model-driven attacker follows.
    pub plan: &'a AttackPlan,
    /// The attackers to run, in report order.
    pub kinds: &'a [AttackerKind],
    /// How many trials to run.
    pub trials: usize,
    /// The root of every per-trial RNG stream.
    pub seed: u64,
    /// The simulated network: usually [`scenario_net_config`], or one
    /// with defenses, faults, another eviction policy or another fabric.
    pub net: &'a NetConfig,
    /// `Some` routes the attackers' measurements through the robust
    /// probe loop (timeouts, retries, outlier rejection — see
    /// [`robust_probe`](crate::robust_probe)): the entry point for fault-injected networks,
    /// where attackers degrade to [`Verdict::Inconclusive`] instead of
    /// hanging or silently misclassifying, and the report's
    /// `fault_counters` tally what was absorbed. On a fault-free `net`
    /// the accuracies match `None`'s.
    pub robust: Option<&'a ProbePolicy>,
}

impl TrialRun<'_> {
    /// Runs the batch under `policy`, which changes scheduling, never
    /// results.
    #[must_use]
    pub fn run(&self, policy: ExecPolicy) -> TrialReport {
        self.run_observed(
            policy,
            &mut Recorder::disabled(),
            0,
            &mut FlightRecorder::disabled(),
        )
    }

    /// [`TrialRun::run`] with observers attached. `recorder` collects
    /// probe-RTT hit/miss histograms, verdict and robust-loop counters,
    /// injected fault totals and cache counters. `flight` collects every
    /// probe's event chain (inject → miss → packet-in → install →
    /// deliver, plus injected faults, retries, outlier rejections and the
    /// final verdicts), stamped with a [`ProbeId`](obs::trace::ProbeId)
    /// whose context packs `(unit, trial, attacker)` via [`probe_ctx`] —
    /// `unit` names this batch within a larger job (0 when standalone).
    ///
    /// Observation never perturbs results: the report — and every CSV
    /// derived from it — is byte-identical whether the observers are
    /// enabled or disabled, under any `policy`. Worker observers merge by
    /// unsigned addition and top-key retention, so the merged metrics and
    /// flight contents are themselves independent of the schedule.
    #[must_use]
    pub fn run_observed(
        &self,
        policy: ExecPolicy,
        recorder: &mut Recorder,
        unit: usize,
        flight: &mut FlightRecorder,
    ) -> TrialReport {
        let threads = policy.effective_threads(self.trials);
        let tally = if threads <= 1 {
            self.run_range(0..self.trials, recorder, unit, flight)
        } else {
            // Chunks several times smaller than a fair share keep workers
            // busy when trial costs vary, without one task per trial.
            let chunk = (self.trials / (threads * 4)).max(1);
            let parts = map_indexed(policy, self.trials.div_ceil(chunk), |c| {
                let (mut rec, mut fl) = (recorder.fork(), flight.fork());
                let range = c * chunk..((c + 1) * chunk).min(self.trials);
                let part = self.run_range(range, &mut rec, unit, &mut fl);
                (part, rec, fl)
            });
            let mut tally = Tally::new(self.kinds.len());
            for (part, rec, fl) in parts {
                tally.merge(&part);
                recorder.merge(rec);
                flight.merge(fl);
            }
            tally
        };
        if recorder.is_enabled() {
            self.record_totals(&tally, recorder);
        }
        TrialReport {
            by_attacker: self.kinds.iter().copied().zip(tally.accs).collect(),
            base_rate_present: tally.present as f64 / self.trials.max(1) as f64,
            fault_counters: tally.counters,
            sim_faults: tally.sim_faults,
            cache_stats: tally.cache_stats,
        }
    }

    /// Runs a contiguous range of trials on the calling thread.
    fn run_range(
        &self,
        range: std::ops::Range<usize>,
        recorder: &mut Recorder,
        unit: usize,
        flight: &mut FlightRecorder,
    ) -> Tally {
        let mut tally = Tally::new(self.kinds.len());
        for trial in range {
            self.run_trial(trial, &mut tally, recorder, unit, flight);
        }
        tally
    }

    /// One independent trial: regenerates the traffic realization for
    /// `trial`, replays it once per attacker, and tallies each attacker's
    /// verdict. Every RNG stream is derived from `(seed, trial, attacker
    /// index)` — nothing else — which is what makes the engine's
    /// scheduling freedom sound.
    fn run_trial(
        &self,
        trial: usize,
        tally: &mut Tally,
        recorder: &mut Recorder,
        unit: usize,
        flight: &mut FlightRecorder,
    ) {
        let (scenario, seed) = (self.scenario, self.seed);
        let mut traffic_rng =
            StdRng::seed_from_u64(seed ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let schedule = poisson::schedule(
            &scenario.lambdas,
            0.0,
            scenario.window_secs,
            &mut traffic_rng,
        );
        let truth = schedule.iter().any(|&(f, _)| f == scenario.target);
        tally.present += u64::from(truth);
        for (i, &kind) in self.kinds.iter().enumerate() {
            // Each attacker gets a fresh simulation fed the same schedule, so
            // earlier attackers' probes cannot pollute later attackers' state.
            let mut sim = Simulation::new(self.net, seed ^ ((trial as u64) << 20) ^ (i as u64 + 1));
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
            let attacker = Attacker::from_plan(kind, self.plan, scenario.target);
            let mut decide_rng =
                StdRng::seed_from_u64(seed ^ DECIDE_STREAM_SALT ^ ((trial as u64) << 8) ^ i as u64);
            let verdict = match self.robust {
                None => Verdict::from_present(attacker.decide(&mut sim, &mut decide_rng)),
                Some(probe_policy) => {
                    let mut state = RobustState::new(probe_policy);
                    let v =
                        attacker.decide_robust(&mut sim, &mut decide_rng, probe_policy, &mut state);
                    tally.counters[i].merge(&state.counters);
                    v
                }
            };
            tally.accs[i].add_verdict(truth, verdict);
            tally.sim_faults[i].merge(&sim.fault_stats());
            tally.cache_stats[i].merge(&sim.ingress_stats());
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
        }
    }

    /// Adds the batch's totals to `recorder`: trials, verdicts, answer
    /// counts per attacker, robust-loop counters, injected faults and the
    /// ingress cache counters under the network's eviction policy.
    fn record_totals(&self, tally: &Tally, recorder: &mut Recorder) {
        recorder.add(metrics::TRIALS, self.trials as u64);
        for (kind, acc) in self.kinds.iter().zip(&tally.accs) {
            recorder.add(metrics::VERDICT_PRESENT, acc.tp + acc.fp);
            recorder.add(metrics::VERDICT_ABSENT, acc.tn + acc.fn_);
            recorder.add(metrics::VERDICT_INCONCLUSIVE, acc.inconclusive);
            recorder.add_with_suffix(metrics::ANSWERED_PREFIX, kind.name(), acc.n());
            recorder.add_with_suffix(metrics::INCONCLUSIVE_PREFIX, kind.name(), acc.inconclusive);
        }
        for c in &tally.counters {
            recorder.add(metrics::ROBUST_PROBES, c.probes);
            recorder.add(metrics::ROBUST_TIMEOUTS, c.timeouts);
            recorder.add(metrics::ROBUST_RETRIES, c.retries);
            recorder.add(metrics::ROBUST_OUTLIERS, c.outliers);
            recorder.add(metrics::ROBUST_RECALIBRATIONS, c.recalibrations);
        }
        let mut faults = FaultStats::default();
        for f in &tally.sim_faults {
            faults.merge(f);
        }
        faults.record_into(recorder);
        let mut cache = SwitchStats::default();
        for s in &tally.cache_stats {
            cache.merge(s);
        }
        let policy_name = self.net.policy.name();
        recorder.add_with_suffix(metrics::CACHE_HITS_PREFIX, policy_name, cache.hits);
        recorder.add_with_suffix(metrics::CACHE_MISSES_PREFIX, policy_name, cache.misses);
        recorder.add_with_suffix(
            metrics::CACHE_EVICTIONS_PREFIX,
            policy_name,
            cache.evictions,
        );
        recorder.add_with_suffix(metrics::CACHE_INSTALLS_PREFIX, policy_name, cache.installs);
    }
}

/// What a range of trials accumulates: per attacker (parallel to the
/// batch's `kinds`) its confusion matrix, measurement-fault tallies,
/// injected-fault totals and ingress cache counters, plus the count of
/// trials in which the target occurred. Merging is unsigned addition, so
/// the totals do not depend on how the trials were split into ranges.
struct Tally {
    accs: Vec<Accuracy>,
    counters: Vec<FaultCounters>,
    sim_faults: Vec<FaultStats>,
    cache_stats: Vec<SwitchStats>,
    present: u64,
}

impl Tally {
    fn new(attackers: usize) -> Self {
        Tally {
            accs: vec![Accuracy::default(); attackers],
            counters: vec![FaultCounters::default(); attackers],
            sim_faults: vec![FaultStats::default(); attackers],
            cache_stats: vec![SwitchStats::default(); attackers],
            present: 0,
        }
    }

    fn merge(&mut self, other: &Tally) {
        for (a, b) in self.accs.iter_mut().zip(&other.accs) {
            a.merge(b);
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            a.merge(b);
        }
        for (a, b) in self.sim_faults.iter_mut().zip(&other.sim_faults) {
            a.merge(b);
        }
        for (a, b) in self.cache_stats.iter_mut().zip(&other.cache_stats) {
            a.merge(b);
        }
        self.present += other.present;
    }
}

/// [`TrialRun::run`] spelled positionally, kept only because the
/// benchmark package (`flowbench/`) calls it; workspace code builds a
/// [`TrialRun`].
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
    TrialRun {
        scenario,
        plan,
        kinds,
        trials,
        seed,
        net,
        robust: None,
    }
    .run(policy)
}

/// [`TrialRun::run`] through the robust probe loop, spelled
/// positionally; kept only because the benchmark package (`flowbench/`)
/// calls it. Workspace code builds a [`TrialRun`].
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
    TrialRun {
        scenario,
        plan,
        kinds,
        trials,
        seed,
        net,
        robust: Some(probe_policy),
    }
    .run(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_attack;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use recon_core::useq::Evaluator;
    use traffic::ScenarioSampler;

    /// A plain batch on the scenario's own network, run serially.
    fn run_plain(
        sc: &NetworkScenario,
        plan: &AttackPlan,
        kinds: &[AttackerKind],
        trials: usize,
        seed: u64,
    ) -> TrialReport {
        TrialRun {
            scenario: sc,
            plan,
            kinds,
            trials,
            seed,
            net: &scenario_net_config(sc),
            robust: None,
        }
        .run(ExecPolicy::Serial)
    }

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
        let r1 = run_plain(&sc, &plan, &kinds, 10, 99);
        let r2 = run_plain(&sc, &plan, &kinds, 10, 99);
        assert_eq!(r1, r2);
    }

    #[test]
    fn base_rate_tracks_absence_probability() {
        let sc = scenario(2, (0.45, 0.55));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let r = run_plain(&sc, &plan, &[AttackerKind::Random], 300, 7);
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
        let r = run_plain(
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
        let net = scenario_net_config(&sc);
        let run = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 17,
            seed: 42,
            net: &net,
            robust: None,
        };
        let serial = run.run(ExecPolicy::Serial);
        for threads in [2, 3, 8, 32] {
            let parallel = run.run(ExecPolicy::Parallel { threads });
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn zero_trials_is_well_defined() {
        let sc = scenario(6, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let r = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &[AttackerKind::Naive],
            trials: 0,
            seed: 1,
            net: &scenario_net_config(&sc),
            robust: None,
        }
        .run(ExecPolicy::Parallel { threads: 4 });
        assert_eq!(r.by_attacker[0].1.n(), 0);
        assert_eq!(r.base_rate_present, 0.0);
    }

    #[test]
    #[should_panic(expected = "not in report")]
    fn missing_kind_panics() {
        let sc = scenario(4, (0.3, 0.7));
        let plan = plan_attack(&sc, Evaluator::mean_field()).unwrap();
        let r = run_plain(&sc, &plan, &[AttackerKind::Naive], 2, 1);
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
        let r = run_plain(&sc, &plan, &kinds, 5, 3);
        assert_eq!(r.fault_counters.len(), kinds.len());
        assert!(r
            .fault_counters
            .iter()
            .all(|c| *c == FaultCounters::default()));
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
        let plain = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 15,
            seed: 5,
            net: &net,
            robust: None,
        };
        let robust = TrialRun {
            robust: Some(&ProbePolicy::default()),
            ..plain
        }
        .run(ExecPolicy::Serial);
        let plain = plain.run(ExecPolicy::Serial);
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
        let run = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 16,
            seed: 21,
            net: &net,
            robust: Some(&ProbePolicy::default()),
        };
        let serial = run.run(ExecPolicy::Serial);
        for threads in [2, 8] {
            let parallel = run.run(ExecPolicy::Parallel { threads });
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
        let run = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 12,
            seed: 17,
            net: &net,
            robust: Some(&probe),
        };
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 8 }] {
            let plain = run.run(policy);
            let mut recorder = Recorder::enabled();
            let recorded =
                run.run_observed(policy, &mut recorder, 0, &mut FlightRecorder::disabled());
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
        let run = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 8,
            seed: 17,
            net: &net,
            robust: Some(&probe),
        };
        let mut reference: Option<FlightRecorder> = None;
        for threads in [1, 2, 8] {
            let policy = if threads == 1 {
                ExecPolicy::Serial
            } else {
                ExecPolicy::Parallel { threads }
            };
            let plain = run.run(policy);
            let mut flight = FlightRecorder::enabled();
            let traced = run.run_observed(policy, &mut Recorder::disabled(), 3, &mut flight);
            assert_eq!(
                plain, traced,
                "threads={threads}: tracing must not change results"
            );
            assert!(!flight.is_empty());
            let dump = obs::FlightDump::parse(&flight.dump_string("unit")).unwrap();
            let unit = |ctx| obs::ProbeId { ctx, token: 0 }.unit();
            assert!(
                dump.records.iter().all(|r| unit(r.ctx) == 3),
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
            let r = TrialRun {
                scenario: &sc,
                plan: &plan,
                kinds: &kinds,
                trials: 10,
                seed: 3,
                net: &net,
                robust: None,
            }
            .run(ExecPolicy::Serial);
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
        let clean = run_plain(&sc, &plan, &kinds, 5, 3);
        assert_eq!(
            clean.sim_faults(AttackerKind::Naive),
            &FaultStats::default()
        );
        let mut net = scenario_net_config(&sc);
        net.faults = netsim::FaultPlan::uniform(0.25);
        let faulty = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 30,
            seed: 13,
            net: &net,
            robust: Some(&ProbePolicy::default()),
        }
        .run(ExecPolicy::Serial);
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
        let r = TrialRun {
            scenario: &sc,
            plan: &plan,
            kinds: &kinds,
            trials: 60,
            seed: 13,
            net: &net,
            robust: Some(&ProbePolicy::default()),
        }
        .run(ExecPolicy::Serial);
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
