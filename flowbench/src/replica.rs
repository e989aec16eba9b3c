//! Traced replicas of the three workloads, rebuilt from the layers'
//! public functions with a bench-side span around every call into a
//! layer. The replicas derive every seed exactly as the programs do, so
//! their outputs can be checked against the programs' byte for byte.

use crate::trace::Tracer;
use crate::{FATTREE_BATCH, FATTREE_KS};
use attack::{
    plan_attack, plan_attack_full, run_trials_robust_policy, run_trials_with_policy,
    scenario_net_config, Accuracy, AttackPlan, Attacker, AttackerKind, ExecPolicy, FaultCounters,
    PlanError, ProbePolicy, RobustState, TrialReport, Verdict,
};
use experiments::harness::mean;
use experiments::sweeps::Assumed;
use experiments::ConfigOutcome;
use ftcache::PolicyKind;
use netsim::{FaultPlan, FaultStats, NetConfig, Simulation, SwitchStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::compact::CompactModel;
use recon_core::probe::ProbePlanner;
use recon_core::useq::Evaluator;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use traffic::{poisson, NetworkScenario, ScenarioSampler};

/// Attackers of `tournament` and `fattree`.
pub const KINDS3: [AttackerKind; 3] = [
    AttackerKind::Naive,
    AttackerKind::Model,
    AttackerKind::Random,
];

/// Exact work counts gathered while replaying a workload.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Work {
    /// Configurations sampled.
    pub sampled: u64,
    /// Configurations that passed the detector filter.
    pub accepted: u64,
    /// Compact-model states built.
    pub states: u64,
    /// Candidate probes scored.
    pub candidates: u64,
    /// Genuine packets scheduled into simulations.
    pub flows: u64,
    /// Attacker probes injected, retries included.
    pub probes: u64,
    /// Ingress-switch cache counters.
    pub cache: SwitchStats,
    /// Robust-probing tallies.
    pub faults: FaultCounters,
}

impl Work {
    /// Adds `o` into `self`.
    pub fn merge(&mut self, o: &Work) {
        self.sampled += o.sampled;
        self.accepted += o.accepted;
        self.states += o.states;
        self.candidates += o.candidates;
        self.flows += o.flows;
        self.probes += o.probes;
        self.cache.merge(&o.cache);
        self.faults.merge(&o.faults);
    }
}

/// `attack::plan_attack_full` without multi-probe or adaptive trees,
/// serial, assuming the switch evicts per `assumed`.
///
/// # Errors
///
/// Whatever model construction or probe scoring returns.
pub fn plan(
    tr: &Tracer,
    work: &mut Work,
    sc: &NetworkScenario,
    assumed: PolicyKind,
) -> Result<AttackPlan, PlanError> {
    let model = tr.span("core.model_build", || {
        CompactModel::build_with_policy(
            &sc.rules,
            &sc.rates(),
            sc.capacity,
            Evaluator::mean_field(),
            assumed,
        )
    })?;
    work.states += model.n_states() as u64;
    let planner = tr.span("core.planner_evolve", || {
        ProbePlanner::with_policy(&model, sc.target, sc.horizon_steps(), ExecPolicy::Serial)
    });
    let (optimal, optimal_non_target, naive) = tr.span("core.probe_score", || {
        let optimal = planner.best_probe(sc.all_flows())?;
        let non_target = planner.best_probe(sc.all_flows().filter(|&f| f != sc.target))?;
        Ok::<_, PlanError>((optimal, non_target, planner.analyze(sc.target)))
    })?;
    work.candidates += 2 * sc.rules.universe_size() as u64;
    Ok(AttackPlan {
        optimal,
        optimal_non_target,
        naive,
        p_absent: planner.p_absent(),
        p_absent_poisson: planner.prior_absence_poisson(),
        multi: None,
        adaptive: None,
    })
}

/// One call into the trial engine.
#[derive(Debug, Clone, Copy)]
pub struct Batch<'a> {
    /// The configuration attacked.
    pub scenario: &'a NetworkScenario,
    /// Its attack plan.
    pub plan: &'a AttackPlan,
    /// Attackers, each on a fresh simulation per trial.
    pub kinds: &'a [AttackerKind],
    /// Trials.
    pub trials: usize,
    /// The engine's batch seed.
    pub seed: u64,
    /// The network.
    pub net: &'a NetConfig,
    /// Robust probing, as the fault sweeps use it.
    pub robust: Option<&'a ProbePolicy>,
}

impl Batch<'_> {
    /// The batch run by the engine itself, serially.
    #[must_use]
    pub fn engine(&self) -> TrialReport {
        let (sc, plan, kinds, trials, seed, net) = (
            self.scenario,
            self.plan,
            self.kinds,
            self.trials,
            self.seed,
            self.net,
        );
        match self.robust {
            None => run_trials_with_policy(sc, plan, kinds, trials, seed, net, ExecPolicy::Serial),
            Some(p) => {
                run_trials_robust_policy(sc, plan, kinds, trials, seed, net, ExecPolicy::Serial, p)
            }
        }
    }
}

/// `attack::run_trials_*` on one thread, one span per layer call.
pub fn run_trials(tr: &Tracer, work: &mut Work, b: &Batch<'_>) -> TrialReport {
    let sc = b.scenario;
    let n = b.kinds.len();
    let mut accs = vec![Accuracy::default(); n];
    let mut counters = vec![FaultCounters::default(); n];
    let mut sim_faults = vec![FaultStats::default(); n];
    let mut cache_stats = vec![SwitchStats::default(); n];
    let mut present = 0u64;
    for trial in 0..b.trials {
        let t = trial as u64;
        let mut traffic_rng = StdRng::seed_from_u64(b.seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let schedule = tr.span("traffic.poisson", || {
            poisson::schedule(&sc.lambdas, 0.0, sc.window_secs, &mut traffic_rng)
        });
        let truth = schedule.iter().any(|&(f, _)| f == sc.target);
        for (i, &kind) in b.kinds.iter().enumerate() {
            let net = tr.span("netsim.config_clone", || b.net.clone());
            let mut sim = tr.span("netsim.sim_new", || {
                Simulation::new(net, b.seed ^ (t << 20) ^ (i as u64 + 1))
            });
            tr.span("netsim.load", || {
                for &(f, at) in &schedule {
                    sim.schedule_flow(f, at);
                }
            });
            tr.span("netsim.event_loop", || sim.run_until(sc.window_secs));
            let attacker = Attacker::from_plan(kind, b.plan, sc.target);
            // The engine's per-attacker decision stream: seed ^ 0xDEAD_BEEF
            // ^ (trial << 8) ^ attacker index. The salt value is pinned by
            // the published CSVs.
            let mut decide_rng = StdRng::seed_from_u64(b.seed ^ 0xDEAD_BEEF ^ (t << 8) ^ i as u64);
            let verdict = tr.span("attack.decide", || match b.robust {
                None => Verdict::from_present(attacker.decide(&mut sim, &mut decide_rng)),
                Some(policy) => {
                    let mut state = RobustState::new(policy);
                    let v = attacker.decide_robust(&mut sim, &mut decide_rng, policy, &mut state);
                    counters[i].merge(&state.counters);
                    v
                }
            });
            sim_faults[i].merge(&sim.fault_stats());
            cache_stats[i].merge(&sim.ingress_stats());
            work.flows += schedule.len() as u64;
            work.probes += sim.last_probe_token().map_or(0, |tok| tok + 1);
            tr.span("netsim.sim_drop", move || drop(sim));
            accs[i].add_verdict(truth, verdict);
        }
        present += u64::from(truth);
    }
    for (c, s) in counters.iter().zip(&cache_stats) {
        work.faults.merge(c);
        work.cache.merge(s);
    }
    TrialReport {
        by_attacker: b.kinds.iter().copied().zip(accs).collect(),
        base_rate_present: present as f64 / b.trials.max(1) as f64,
        fault_counters: counters,
        sim_faults,
        cache_stats,
    }
}

/// One `evaluate_suite --configs <configs>` run: sampled configurations
/// and the evaluated ones.
#[derive(Debug)]
pub struct SuiteRun {
    /// Configurations sampled (and planned).
    pub sampled: u64,
    /// The evaluated detector-feasible configurations.
    pub outcomes: Vec<ConfigOutcome>,
}

/// `experiments::harness::collect_configs_observed` for the Fig. 7 class,
/// with the paper's sampler and all four attackers.
pub fn suite(tr: &Tracer, work: &mut Work, seed: u64, configs: usize, trials: usize) -> SuiteRun {
    // `harness::sampler_for` at full scale.
    let sampler = ScenarioSampler::default();
    let kinds = AttackerKind::all();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcomes = Vec::new();
    let mut sampled = 0u64;
    while outcomes.len() < configs && sampled < 60 * configs as u64 {
        sampled += 1;
        work.sampled += 1;
        let scenario = tr.span("traffic.sampler", || {
            sampler.sample_forced((0.05, 0.95), &mut rng)
        });
        let Ok(plan) = plan(tr, work, &scenario, PolicyKind::Srt) else {
            continue;
        };
        if !plan.is_detector() {
            continue;
        }
        work.accepted += 1;
        let net = tr.span("netsim.topology", || scenario_net_config(&scenario));
        let report = run_trials(
            tr,
            work,
            &Batch {
                scenario: &scenario,
                plan: &plan,
                kinds: &kinds,
                trials,
                seed: seed ^ (outcomes.len() as u64).wrapping_mul(0xA5A5_5A5A_1234_5678),
                net: &net,
                robust: None,
            },
        );
        outcomes.push(ConfigOutcome {
            scenario,
            plan,
            report,
        });
    }
    SuiteRun { sampled, outcomes }
}

/// `fig7a.csv` and `suite_robust.csv` as `evaluate_suite` writes them.
#[must_use]
pub fn suite_csvs(outcomes: &[ConfigOutcome]) -> (String, String) {
    let mut groups: BTreeMap<usize, Vec<&ConfigOutcome>> = BTreeMap::new();
    for o in outcomes {
        groups
            .entry(o.scenario.rules.covering_count(o.scenario.target))
            .or_default()
            .push(o);
    }
    let mut fig7a = String::from(
        "covering_rules,configs,naive_accuracy,restricted_model_accuracy,random_accuracy\n",
    );
    for (count, os) in &groups {
        let acc = |k| mean(os.iter().map(|o| o.report.accuracy(k)));
        fig7a.push_str(&format!(
            "{count},{},{},{},{}\n",
            os.len(),
            acc(AttackerKind::Naive),
            acc(AttackerKind::RestrictedModel),
            acc(AttackerKind::Random)
        ));
    }
    let mut robust = String::from(
        "attacker,answered,inconclusive,answer_rate,probes,timeouts,retries,outliers\n",
    );
    for k in AttackerKind::all() {
        let mut acc = Accuracy::default();
        let mut c = FaultCounters::default();
        for o in outcomes {
            acc.merge(o.report.entry_for(k));
            c.merge(o.report.fault_counters(k));
        }
        robust.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            k.name(),
            acc.n(),
            acc.inconclusive,
            acc.answer_rate(),
            c.probes,
            c.timeouts,
            c.retries,
            c.outliers
        ));
    }
    (fig7a, robust)
}

/// A sampled tournament configuration with one plan per assumed policy,
/// parallel to [`PolicyKind::all`].
pub type TournamentConfig = (NetworkScenario, Vec<AttackPlan>);

/// The fault rates of the tournament grid.
pub const TOURNAMENT_RATES: [f64; 3] = [0.0, 0.05, 0.15];

/// The (actual policy, assumption) pairs of the tournament grid: an SRT
/// switch has no separate matched cell.
#[must_use]
pub fn tournament_combos() -> Vec<(PolicyKind, Assumed)> {
    let mut combos = Vec::new();
    for actual in PolicyKind::all() {
        for assumed in [Assumed::Srt, Assumed::Matched] {
            if !(assumed == Assumed::Matched && actual == PolicyKind::Srt) {
                combos.push((actual, assumed));
            }
        }
    }
    combos
}

/// Samples tournament configurations exactly as
/// `experiments::sweeps::run_defense_tournament` does. The program does
/// this before its grid, untimed, so the replica calls the engine.
#[must_use]
pub fn tournament_configs(seed: u64, configs: usize) -> Vec<TournamentConfig> {
    // `harness::sampler_for` at full scale, under the tournament's
    // eviction pressure.
    let mut sampler = ScenarioSampler::default();
    sampler.capacity = (sampler.capacity / 2).max(2);
    sampler.lambda_max *= 2.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut attempts = 0;
    while out.len() < configs && attempts < 60 * configs {
        attempts += 1;
        let sc = sampler.sample_forced((0.2, 0.8), &mut rng);
        let plans: Option<Vec<AttackPlan>> = PolicyKind::all()
            .iter()
            .map(|&assumed| {
                plan_attack_full(
                    &sc,
                    Evaluator::mean_field(),
                    0,
                    0,
                    ExecPolicy::Serial,
                    assumed,
                )
                .ok()
            })
            .collect();
        let Some(plans) = plans else { continue };
        if plans[0].is_detector() {
            out.push((sc, plans));
        }
    }
    out
}

/// Grid cell `unit`, in the sweep's unit order, handed to `run`: the
/// replica's traced trials or the engine's.
pub fn tournament_cell<R>(
    tr: &Tracer,
    configs: &[TournamentConfig],
    seed: u64,
    trials: usize,
    unit: usize,
    run: impl FnOnce(&Batch<'_>) -> R,
) -> R {
    let combos = tournament_combos();
    let n = configs.len();
    let ci = unit % n;
    let ri = (unit / n) % TOURNAMENT_RATES.len();
    let (actual, assumed) = combos[unit / (n * TOURNAMENT_RATES.len())];
    let (sc, plans) = &configs[ci];
    let mut net = tr.span("netsim.topology", || scenario_net_config(sc));
    net.policy = actual;
    net.faults = FaultPlan::uniform(TOURNAMENT_RATES[ri]);
    let pi = PolicyKind::all()
        .iter()
        .position(|&p| p == assumed.policy(actual))
        .unwrap_or(0);
    run(&Batch {
        scenario: sc,
        plan: &plans[pi],
        kinds: &KINDS3,
        trials,
        // Both sweeps' trial seed of configuration `ci`.
        seed: seed ^ (ci as u64).wrapping_mul(0xA5A5_5A5A_1234_5678),
        net: &net,
        robust: Some(&ProbePolicy::default()),
    })
}

/// Runs the tournament grid over `configs` under the `jobs` supervisor
/// and returns one report per cell, in unit order.
///
/// # Errors
///
/// The supervisor's error when a cell fails every attempt.
pub fn tournament_grid(
    tr: &Arc<Tracer>,
    work: &Arc<Mutex<Work>>,
    configs: Vec<TournamentConfig>,
    seed: u64,
    trials: usize,
) -> Result<Vec<TrialReport>, String> {
    let total = tournament_combos().len() * TOURNAMENT_RATES.len() * configs.len();
    let mut spec = jobs::JobSpec::new("defense_tournament", total, 0);
    spec.seed = seed;
    let (tr2, work2, configs) = (Arc::clone(tr), Arc::clone(work), Arc::new(configs));
    let outcome = tr.span("jobs.supervise", || {
        let parent = Tracer::current();
        jobs::run_units(&spec, move |unit, _rec| {
            tr2.span_under("jobs.unit", parent, || {
                let mut w = Work::default();
                let report = tournament_cell(&tr2, &configs, seed, trials, unit, |b| {
                    run_trials(&tr2, &mut w, b)
                });
                work2
                    .lock()
                    .expect("a tournament cell panicked while counting")
                    .merge(&w);
                report
            })
        })
    });
    let outcome = outcome.map_err(|e| format!("tournament grid: {e}"))?;
    outcome
        .results
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "tournament grid: interrupted".to_string())
}

/// `defense_tournament.csv` as the sweep aggregates it.
#[must_use]
pub fn tournament_csv(n_configs: usize, trials: usize, reports: &[TrialReport]) -> String {
    let mut out = String::from("policy,assumed,fault_rate,attacker,configs,accuracy,answer_rate,hit_rate,controller_load_per_trial,hits,misses,uncovered,evictions\n");
    for (combo_i, (actual, assumed)) in tournament_combos().into_iter().enumerate() {
        for (ri, rate) in TOURNAMENT_RATES.iter().enumerate() {
            let start = (combo_i * TOURNAMENT_RATES.len() + ri) * n_configs;
            let group = &reports[start..start + n_configs];
            let batch_trials = (n_configs * trials).max(1) as f64;
            for k in KINDS3 {
                let mut cache = SwitchStats::default();
                for r in group {
                    cache.merge(r.cache_stats(k));
                }
                let a = mean(group.iter().map(|r| r.accuracy(k)).filter(|v| !v.is_nan()));
                let ar = mean(group.iter().map(|r| r.answer_rate(k)));
                out.push_str(&format!(
                    "{actual},{},{rate},{},{n_configs},{a},{ar},{},{},{},{},{},{}\n",
                    assumed.name(),
                    k.name(),
                    cache.hit_rate().unwrap_or(f64::NAN),
                    cache.controller_load() as f64 / batch_trials,
                    cache.hits,
                    cache.misses,
                    cache.uncovered,
                    cache.evictions
                ));
            }
        }
    }
    out
}

/// The configuration `bin/scalability.rs` attacks on fat trees at
/// `seed`: the first detector-feasible sample of the paper's sampler.
#[must_use]
pub fn fattree_config(seed: u64) -> (NetworkScenario, AttackPlan) {
    let sampler = ScenarioSampler::default();
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let sc = sampler.sample_forced((0.05, 0.95), &mut rng);
        if let Ok(plan) = plan_attack(&sc, Evaluator::mean_field()) {
            if plan.is_detector() {
                return (sc, plan);
            }
        }
    }
}

/// The fat trees of `sc`, parallel to [`FATTREE_KS`].
#[must_use]
pub fn fattree_nets(sc: &NetworkScenario) -> Vec<NetConfig> {
    FATTREE_KS
        .iter()
        .map(|&k| NetConfig::fat_tree(sc.rules.clone(), k, sc.capacity, sc.delta))
        .collect()
}

/// Batch `batch` of a `fattree` run at `seed`: rounds take the fabrics
/// in turn, and each fabric's first batch uses the trial seed
/// `bin/scalability.rs` gives it.
#[must_use]
pub fn fattree_batch<'a>(
    sc: &'a NetworkScenario,
    plan: &'a AttackPlan,
    nets: &'a [NetConfig],
    seed: u64,
    batch: usize,
) -> Batch<'a> {
    let (round, ki) = (batch / FATTREE_KS.len(), batch % FATTREE_KS.len());
    let fabric = seed ^ (FATTREE_KS[ki] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Batch {
        scenario: sc,
        plan,
        kinds: &KINDS3,
        trials: FATTREE_BATCH,
        seed: fabric ^ (round as u64).wrapping_mul(0xA5A5_5A5A_1234_5678),
        net: &nets[ki],
        robust: None,
    }
}

/// A short fingerprint of a report, equal across processes for equal
/// reports.
#[must_use]
pub fn report_digest(r: &TrialReport) -> String {
    crate::fnv_hex(format!("{r:?}").as_bytes())
}
