//! Fault-tolerant probe measurement: timeouts, retries, outlier
//! rejection and drift-aware classification.
//!
//! The idealized attacker assumes every probe comes back and every RTT
//! is drawn from the calibrated hit/miss distributions. Under a
//! [`FaultPlan`](netsim::FaultPlan) neither holds: probes are lost on
//! the wire, control-channel faults turn hits into misses, and jitter
//! bursts smear the two populations together. This module wraps the raw
//! [`Simulation::probe_with_timeout`] in a **robust probe loop**:
//!
//! 1. every probe carries a response timeout — a lost probe is an
//!    observable event, not a hang;
//! 2. timed-out or rejected measurements are retried with capped
//!    exponential backoff under a per-question retry budget;
//! 3. accepted RTTs pass through per-class MAD (median absolute
//!    deviation) outlier rejection before threshold classification, so a
//!    single jitter-inflated sample cannot flip a verdict;
//! 4. classification uses a [`CalibratedThreshold`] with drift
//!    detection — when recent samples cross the stored
//!    `max_hit`/`min_miss` envelope the attacker re-derives the envelope
//!    from its recent sample window;
//! 5. a question whose retry budget is exhausted yields an explicit
//!    [`Verdict::Inconclusive`] instead of a silent misclassification,
//!    and every fault handled along the way is counted in
//!    [`FaultCounters`].
//!
//! All counters are unsigned adds, so they merge commutatively and keep
//! the trial engine's parallel bit-determinism contract.

use crate::calibrate::CalibratedThreshold;
use flowspace::FlowId;
use netsim::{LatencyModel, Simulation};
use obs::trace::TraceEv;
use serde::{Deserialize, Serialize};

/// How a robust attacker measures: timeout, retry budget and outlier
/// rejection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbePolicy {
    /// Response deadline per probe, seconds. Well above the slowest
    /// legitimate miss (≈ 10 ms with a congested controller) so only
    /// genuinely lost probes time out.
    pub timeout_secs: f64,
    /// Additional attempts after the first probe of a question fails.
    pub max_retries: u32,
    /// Initial wait before a retry, seconds.
    pub backoff_secs: f64,
    /// Upper bound on the (doubling) backoff, seconds.
    pub backoff_cap_secs: f64,
    /// MAD multiplier: a sample farther than `mad_k` MADs from its
    /// class median is rejected as an outlier.
    pub mad_k: f64,
    /// Per-class sample window capacity for the MAD filter.
    pub window_cap: usize,
}

impl Default for ProbePolicy {
    fn default() -> Self {
        ProbePolicy {
            timeout_secs: 0.05,
            max_retries: 2,
            backoff_secs: 0.01,
            backoff_cap_secs: 0.08,
            mad_k: 3.5,
            window_cap: 64,
        }
    }
}

/// Counters of everything the robust loop absorbed. All fields are
/// unsigned adds: merging is commutative and associative, so per-trial
/// counters reduce identically under any execution schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Probes sent (including retries).
    pub probes: u64,
    /// Probes that hit their response deadline.
    pub timeouts: u64,
    /// Retry attempts taken.
    pub retries: u64,
    /// Samples rejected by the MAD filter.
    pub outliers: u64,
    /// Questions abandoned after exhausting the retry budget.
    pub inconclusive: u64,
    /// Envelope re-derivations triggered by drift detection.
    pub recalibrations: u64,
}

impl FaultCounters {
    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.probes += other.probes;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.outliers += other.outliers;
        self.inconclusive += other.inconclusive;
        self.recalibrations += other.recalibrations;
    }
}

/// A bounded per-class (hit vs miss) RTT sample window for MAD outlier
/// rejection. Keeping the classes separate matters: RTTs are bimodal,
/// and a single pooled window would flag every genuine miss as an
/// outlier whenever the window happens to be hit-dominated.
#[derive(Debug, Clone, PartialEq)]
pub struct RttWindow {
    hits: Vec<f64>,
    misses: Vec<f64>,
    cap: usize,
}

/// Minimum class population before the MAD filter rejects anything —
/// below this the median is too noisy to trust.
const MIN_CLASS_SAMPLES: usize = 5;

/// Absolute floor on the MAD (seconds) so a degenerate window
/// (identical samples) cannot reject everything. A relative floor of
/// [`MAD_REL_FLOOR`] × the class median applies on top, so near-constant
/// miss windows (milliseconds) keep a proportionate acceptance band.
const MAD_FLOOR: f64 = 1.0e-6;

/// Relative MAD floor, as a fraction of the class median.
const MAD_REL_FLOOR: f64 = 0.05;

impl RttWindow {
    /// An empty window holding at most `cap` samples per class.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        RttWindow {
            hits: Vec::new(),
            misses: Vec::new(),
            cap: cap.max(MIN_CLASS_SAMPLES),
        }
    }

    /// A window pre-seeded with the attacker's calibration knowledge —
    /// the paper's measured populations (hit 0.087 ms ± 0.021 ms, miss
    /// 4.070 ms ± 1.806 ms, §VI-A) laid out at fixed quantiles. The MAD
    /// filter is useful from the first real probe instead of needing a
    /// warm-up, and the seeding is a deterministic constant.
    #[must_use]
    pub fn paper_prior(cap: usize) -> Self {
        let mut w = RttWindow::new(cap);
        let spread: [f64; 7] = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5];
        for z in spread {
            w.push((0.087e-3 + z * 0.021e-3).max(1.0e-6), true);
            w.push((4.070e-3 + z * 1.806e-3).max(1.35e-3), false);
        }
        w
    }

    /// Records an accepted sample in its class, evicting the oldest
    /// sample once the class is at capacity.
    pub fn push(&mut self, rtt: f64, hit: bool) {
        let class = if hit {
            &mut self.hits
        } else {
            &mut self.misses
        };
        if class.len() == self.cap {
            class.remove(0);
        }
        class.push(rtt);
    }

    /// Whether `rtt` lies farther than `k` MADs from the median of the
    /// class it was classified into. Never rejects while the class
    /// holds fewer than `MIN_CLASS_SAMPLES` (5) samples.
    #[must_use]
    pub fn is_outlier(&self, rtt: f64, hit: bool, k: f64) -> bool {
        let class = if hit { &self.hits } else { &self.misses };
        if class.len() < MIN_CLASS_SAMPLES {
            return false;
        }
        let med = median(class);
        let deviations: Vec<f64> = class.iter().map(|&x| (x - med).abs()).collect();
        let mad = median(&deviations).max(MAD_FLOOR.max(med.abs() * MAD_REL_FLOOR));
        (rtt - med).abs() > k * mad
    }

    /// Samples currently held in the hit class.
    #[must_use]
    pub fn hits(&self) -> &[f64] {
        &self.hits
    }

    /// Samples currently held in the miss class.
    #[must_use]
    pub fn misses(&self) -> &[f64] {
        &self.misses
    }
}

fn median(xs: &[f64]) -> f64 {
    debug_assert!(!xs.is_empty());
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One accepted, classified robust measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustObservation {
    /// Observed round-trip time, seconds.
    pub rtt: f64,
    /// The attacker's classification (calibrated threshold, after
    /// outlier rejection): `true` = covering rule was cached.
    pub hit: bool,
}

/// The attacker's measurement state across a question (and across the
/// probes of a multi-probe question): sample window, calibration with
/// drift tracking, and fault counters.
#[derive(Debug, Clone)]
pub struct RobustState {
    /// The MAD filter's per-class sample window.
    pub window: RttWindow,
    /// The classification threshold with its calibration envelope.
    pub calibration: CalibratedThreshold,
    /// Everything absorbed so far.
    pub counters: FaultCounters,
}

impl RobustState {
    /// Fresh state from the paper-calibrated prior: the 1 ms threshold
    /// with the measured hit/miss envelope and a pre-seeded window.
    #[must_use]
    pub fn new(policy: &ProbePolicy) -> Self {
        RobustState {
            window: RttWindow::paper_prior(policy.window_cap),
            calibration: CalibratedThreshold {
                threshold: LatencyModel::threshold(),
                // ≈ mean ± 3σ of the measured populations (§VI-A); the
                // miss floor is the 1.3 ms controller round-trip bound.
                max_hit: 0.15e-3,
                min_miss: 1.3e-3,
                drift_run: 0,
                drift_violations: 0,
            },
            counters: FaultCounters::default(),
        }
    }

    /// Classifies an RTT with the current calibration.
    #[must_use]
    pub fn classify(&self, rtt: f64) -> bool {
        self.calibration.classify(rtt)
    }

    /// Feeds an accepted sample into drift tracking; on a detected
    /// drift, re-derives the calibration envelope from the recent
    /// sample window (the attacker's cheap stand-in for a full
    /// re-calibration round).
    fn observe(&mut self, rtt: f64) {
        self.calibration.observe(rtt);
        if !self.calibration.drift_detected() {
            return;
        }
        self.counters.recalibrations += 1;
        let max_hit = self.window.hits().iter().copied().fold(f64::MIN, f64::max);
        let min_miss = self
            .window
            .misses()
            .iter()
            .copied()
            .fold(f64::MAX, f64::min);
        if max_hit > 0.0 && min_miss > max_hit {
            self.calibration.max_hit = max_hit;
            self.calibration.min_miss = min_miss;
            self.calibration.threshold = (max_hit * min_miss).sqrt();
        } else if max_hit > 0.0 && min_miss < f64::MAX {
            // Overlapping populations: keep the envelope honest (it
            // records the overlap, max_hit ≥ min_miss) but leave the
            // threshold where it is — the geometric midpoint of garbage
            // is worse than the last good split.
            self.calibration.max_hit = max_hit;
            self.calibration.min_miss = min_miss;
        }
        self.calibration.drift_run = 0;
    }
}

/// The measurement core: probes `flow` with a deadline, retries with
/// capped exponential backoff on timeout or MAD rejection, and returns
/// the first accepted, classified observation — or `None` once the
/// retry budget is exhausted (the caller reports the question
/// inconclusive).
pub fn robust_probe(
    sim: &mut Simulation,
    flow: FlowId,
    policy: &ProbePolicy,
    state: &mut RobustState,
) -> Option<RobustObservation> {
    let question_start = sim.now();
    let mut backoff = policy.backoff_secs;
    let mut outcome = None;
    for attempt in 0..=policy.max_retries {
        state.counters.probes += 1;
        match sim.probe_with_timeout(flow, policy.timeout_secs) {
            None => state.counters.timeouts += 1,
            Some(obs) => {
                let hit = state.classify(obs.rtt);
                let (now, token) = (sim.now(), sim.last_probe_token());
                if state.window.is_outlier(obs.rtt, hit, policy.mad_k) {
                    state.counters.outliers += 1;
                    sim.flight_mut()
                        .log(now, token, TraceEv::Outlier { rtt: obs.rtt });
                } else {
                    state.window.push(obs.rtt, hit);
                    state.observe(obs.rtt);
                    sim.flight_mut()
                        .log(now, token, TraceEv::Classified { rtt: obs.rtt, hit });
                    outcome = Some(RobustObservation { rtt: obs.rtt, hit });
                    break;
                }
            }
        }
        if attempt < policy.max_retries {
            state.counters.retries += 1;
            let resume = sim.now() + backoff;
            let (now, token) = (sim.now(), sim.last_probe_token());
            sim.flight_mut().log(
                now,
                token,
                TraceEv::Retry {
                    attempt: u64::from(attempt),
                    backoff,
                },
            );
            sim.recorder_mut()
                .observe(obs::metrics::ROBUST_BACKOFF_SECS, backoff);
            sim.run_until(resume);
            backoff = (backoff * 2.0).min(policy.backoff_cap_secs);
        }
    }
    // Clamped, so that a confused clock never records a negative span.
    let elapsed = (sim.now() - question_start).max(0.0);
    sim.recorder_mut()
        .observe(obs::metrics::QUESTION_SECS, elapsed);
    // Stamp the whole question as a span (logged at its start time so
    // the Perfetto slice brackets the retry envelope around the
    // individual probe events), attributed to the last probe token.
    let token = sim.last_probe_token();
    sim.flight_mut().log(
        question_start,
        token,
        TraceEv::Span {
            name: "question",
            secs: elapsed,
        },
    );
    outcome
}

/// An attacker's answer to "did the target flow occur in the window?" —
/// now with an explicit third state for questions the measurement layer
/// could not answer within its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The attacker answers "the target occurred".
    Present,
    /// The attacker answers "the target did not occur".
    Absent,
    /// The probes were lost/rejected beyond the retry budget: no
    /// answer. Counted separately from accuracy (which is reported over
    /// answered questions only).
    Inconclusive,
}

impl Verdict {
    /// Wraps a boolean answer.
    #[must_use]
    pub fn from_present(present: bool) -> Self {
        if present {
            Verdict::Present
        } else {
            Verdict::Absent
        }
    }

    /// The boolean answer, if there is one.
    #[must_use]
    pub fn answer(self) -> Option<bool> {
        match self {
            Verdict::Present => Some(true),
            Verdict::Absent => Some(false),
            Verdict::Inconclusive => None,
        }
    }

    /// The lowercase label stamped into flight-recorder verdict events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Present => "present",
            Verdict::Absent => "absent",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::{FlowSet, Rule, RuleSet, Timeout};
    use netsim::NetConfig;

    fn rules() -> RuleSet {
        RuleSet::new(
            vec![Rule::from_flow_set(
                FlowSet::from_flows(2, [FlowId(0)]),
                1,
                Timeout::idle(25),
            )],
            2,
        )
        .unwrap()
    }

    fn faulty_sim(seed: u64, plan: netsim::FaultPlan) -> Simulation {
        let mut cfg = NetConfig::eval_topology(rules(), 2, 0.02);
        cfg.faults = plan;
        Simulation::new(cfg, seed)
    }

    #[test]
    fn clean_network_needs_no_retries() {
        let policy = ProbePolicy::default();
        let mut state = RobustState::new(&policy);
        let mut sim = faulty_sim(1, netsim::FaultPlan::none());
        let cold = robust_probe(&mut sim, FlowId(0), &policy, &mut state).unwrap();
        assert!(!cold.hit);
        let warm = robust_probe(&mut sim, FlowId(0), &policy, &mut state).unwrap();
        assert!(warm.hit);
        assert_eq!(state.counters.probes, 2);
        assert_eq!(state.counters.timeouts, 0);
        assert_eq!(state.counters.retries, 0);
        assert_eq!(state.counters.outliers, 0);
    }

    #[test]
    fn total_loss_exhausts_budget_and_reports_none() {
        let policy = ProbePolicy::default();
        let mut state = RobustState::new(&policy);
        let mut plan = netsim::FaultPlan::none();
        plan.packet_loss = 1.0;
        let mut sim = faulty_sim(2, plan);
        let before = sim.now();
        let res = robust_probe(&mut sim, FlowId(0), &policy, &mut state);
        assert_eq!(res, None);
        assert_eq!(state.counters.probes, 3, "1 try + 2 retries");
        assert_eq!(state.counters.timeouts, 3);
        assert_eq!(state.counters.retries, 2);
        assert!(sim.now() > before, "waiting consumed simulated time");
    }

    #[test]
    fn moderate_loss_usually_recovers_within_budget() {
        // 20% per-hop loss compounds across the multi-hop path, so a
        // single attempt fails often; a retry budget claws most of the
        // answers back.
        let mut plan = netsim::FaultPlan::none();
        plan.packet_loss = 0.2;
        let answered_with = |max_retries: u32| -> (u32, u64) {
            let policy = ProbePolicy {
                max_retries,
                ..ProbePolicy::default()
            };
            let mut answered = 0;
            let mut timeouts = 0;
            for seed in 0..50 {
                let mut state = RobustState::new(&policy);
                let mut sim = faulty_sim(seed, plan);
                if robust_probe(&mut sim, FlowId(0), &policy, &mut state).is_some() {
                    answered += 1;
                }
                timeouts += state.counters.timeouts;
            }
            (answered, timeouts)
        };
        let (bare, bare_timeouts) = answered_with(0);
        let (budgeted, budgeted_timeouts) = answered_with(5);
        assert!(bare_timeouts > 0, "20% loss should lose some probes");
        assert!(budgeted_timeouts > 0);
        assert!(
            budgeted > bare,
            "retries must recover answers: {budgeted} vs {bare} of 50"
        );
        assert!(
            budgeted >= 40,
            "a 5-retry budget should answer most questions: {budgeted}/50"
        );
    }

    #[test]
    fn mad_filter_rejects_jitter_spikes() {
        let policy = ProbePolicy::default();
        let state = RobustState::new(&policy);
        // A hit-classified sample far above every hit in the window (the
        // prior tops out around 0.12 ms) is rejected...
        assert!(state.window.is_outlier(0.9e-3, true, policy.mad_k));
        // ...while a typical hit or miss passes.
        assert!(!state.window.is_outlier(0.09e-3, true, policy.mad_k));
        assert!(!state.window.is_outlier(4.5e-3, false, policy.mad_k));
    }

    #[test]
    fn window_is_per_class() {
        let mut w = RttWindow::new(8);
        for _ in 0..6 {
            w.push(0.09e-3, true);
            w.push(4.0e-3, false);
        }
        // A genuine miss is wildly off the hit median but perfectly
        // normal for its own class — per-class windows keep it.
        assert!(!w.is_outlier(4.1e-3, false, 3.5));
        assert!(w.is_outlier(4.1e-3, true, 3.5), "same value as a 'hit'");
    }

    #[test]
    fn window_capacity_is_bounded() {
        let mut w = RttWindow::new(5);
        for i in 0..20 {
            w.push(f64::from(i), true);
        }
        assert_eq!(w.hits().len(), 5);
        assert_eq!(w.hits()[0], 15.0, "oldest samples evicted first");
    }

    #[test]
    fn drift_triggers_envelope_refresh() {
        let policy = ProbePolicy::default();
        let mut state = RobustState::new(&policy);
        // Feed a run of hit-classified samples above the stored 0.15 ms
        // hit ceiling (but under the threshold, and plausible under the
        // window's accumulating evidence).
        for _ in 0..10 {
            state.window.push(0.4e-3, true);
        }
        for _ in 0..crate::calibrate::DRIFT_LIMIT {
            state.observe(0.4e-3);
        }
        assert!(state.counters.recalibrations >= 1);
        assert!(
            state.calibration.max_hit >= 0.4e-3,
            "envelope refreshed: {:?}",
            state.calibration
        );
        assert_eq!(state.calibration.drift_run, 0);
    }

    #[test]
    fn verdict_round_trip() {
        assert_eq!(Verdict::from_present(true), Verdict::Present);
        assert_eq!(Verdict::from_present(false), Verdict::Absent);
        assert_eq!(Verdict::Present.answer(), Some(true));
        assert_eq!(Verdict::Absent.answer(), Some(false));
        assert_eq!(Verdict::Inconclusive.answer(), None);
        let json = serde_json::to_string(&Verdict::Inconclusive).unwrap();
        let back: Verdict = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Verdict::Inconclusive);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
