//! Checkpoint-aware sweep engines for the grid experiments.
//!
//! `fault_sweep` and `defense_tournament` are grids of independent
//! cells — (fault rate × config) and (policy × assumption × rate ×
//! config) — each cell one call into the trial engine. This module
//! flattens those grids into [`jobs`] work units and runs them under
//! the crash-safe supervisor: worker panics are caught and retried,
//! hung cells are abandoned by the watchdog, completed cells are
//! checkpointed to `<name>.ckpt.jsonl`, and `--resume` continues a
//! killed run to **byte-identical** CSVs (enforced by the chaos CI
//! gate and `tests/chaos_resume.rs`).
//!
//! Determinism is preserved by construction: every cell derives its
//! trial seeds from `(opts.seed, config index)` exactly as the
//! pre-supervision loops did, cells are aggregated in grid order
//! regardless of how they were computed, and supervision's only
//! randomness (retry backoff) draws from the dedicated
//! `JOBS_STREAM_SALT` stream. With checkpointing disabled the CSVs are
//! bit-identical to the pre-supervision engine's.

use attack::{
    plan_attack_full, scenario_net_config, AttackPlan, AttackerKind, ProbePolicy, TrialReport,
    TrialRun,
};
use core::time::Duration;
use ftcache::PolicyKind;
use jobs::{InterruptSource, JobError, JobOutcome, JobSpec, JobStatus};
use obs::manifest::{fnv1a, git_rev};
use recon_core::useq::Evaluator;
use std::path::PathBuf;
use std::sync::Arc;
use traffic::NetworkScenario;

use crate::harness::{
    attempt_cap, detector_plan, mean, sample_configs, sampler_for, write_csv, RunManifest,
};
use crate::{svg, ExpOpts};

/// The attacker set both sweeps evaluate.
const KINDS: [AttackerKind; 3] = [
    AttackerKind::Naive,
    AttackerKind::Model,
    AttackerKind::Random,
];

/// The checkpoint config digest: the manifest digest's inputs *minus*
/// the thread count — results are thread-invariant, so a run killed at
/// `--threads 8` may resume at `--threads 1` (the kill-point
/// equivalence tests do exactly that).
fn sweep_digest(name: &str, opts: &ExpOpts) -> u64 {
    fnv1a(
        format!(
            "experiment={name},configs={},trials={},seed={},fast={}",
            opts.configs, opts.trials, opts.seed, opts.fast
        )
        .as_bytes(),
    )
}

/// The supervisor spec shared by both sweeps: 3 attempts per cell, a
/// 10-minute watchdog, checkpointing wherever `--checkpoint-every` or
/// `--resume` asks for it, and the process-global SIGINT/SIGTERM flag.
fn sweep_spec(name: &str, opts: &ExpOpts, total_units: usize) -> JobSpec {
    let ckpt_on = opts.checkpoint_every > 0 || opts.resume;
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut spec = JobSpec::new(name, total_units, sweep_digest(name, opts));
    spec.git_rev = git_rev(&cwd);
    spec.checkpoint_path = ckpt_on.then(|| opts.out_file(&format!("{name}.ckpt.jsonl")));
    spec.checkpoint_every = opts.checkpoint_every;
    spec.resume = opts.resume;
    spec.watchdog = Some(Duration::from_secs(600));
    spec.seed = opts.seed;
    spec.obs = opts.obs;
    spec.trace = opts.trace;
    spec.flight_path = opts
        .trace
        .then(|| opts.out_file(&format!("{name}.flightrec.jsonl")));
    spec.interrupt = InterruptSource::Global;
    spec.kill_after_checkpoints = opts.kill_after_checkpoints;
    spec
}

/// Runs the supervised grid and folds the outcome into an exit-code
/// decision, reporting failures on stderr. `Ok` carries the outcome for
/// aggregation; `Err` carries the process exit code.
fn run_grid<F>(name: &str, spec: &JobSpec, f: F) -> Result<JobOutcome<TrialReport>, i32>
where
    F: Fn(usize, &mut obs::Recorder, &mut obs::FlightRecorder) -> TrialReport
        + Send
        + Sync
        + 'static,
{
    match jobs::run_units_traced(spec, f) {
        Ok(outcome) => Ok(outcome),
        Err(e @ JobError::Resume(_)) => {
            eprintln!("{name}: {e}");
            Err(2)
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            Err(1)
        }
    }
}

/// The per-config trial seed both sweeps use — unchanged from the
/// pre-supervision loops, so results are bit-compatible.
fn config_seed(seed: u64, ci: usize) -> u64 {
    seed ^ (ci as u64).wrapping_mul(0xA5A5_5A5A_1234_5678)
}

/// **E4** — the fault-rate robustness sweep (see `bin/fault_sweep.rs`
/// for the experiment's rationale). Returns the process exit code: 0
/// complete, 130 interrupted (partial CSV + `interrupted` manifest
/// flushed), 1 a cell failed every attempt, 2 an unusable checkpoint.
#[must_use]
pub fn run_fault_sweep(opts: &ExpOpts) -> i32 {
    jobs::install_signal_handlers();
    let manifest = RunManifest::begin("fault_sweep");
    let mut recorder = opts.recorder();
    let rates: Vec<f64> = if opts.fast {
        vec![0.0, 0.05, 0.15]
    } else {
        vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2]
    };
    let probe_policy = ProbePolicy::default();

    // Sample the configuration set once (fault-free planning); every fault
    // rate then re-runs the *same* scenarios, so columns are comparable.
    let configs = sample_configs(
        &sampler_for(opts),
        opts.seed,
        (0.2, 0.8),
        opts.configs,
        attempt_cap(opts.configs),
        |sc| detector_plan(sc, opts.policy),
    );
    println!("{} detector-feasible configurations\n", configs.len());
    println!("rate   attacker   accuracy   answer-rate   timeouts   inconclusive");

    let n_configs = configs.len();
    let spec = sweep_spec("fault_sweep", opts, rates.len() * n_configs);
    let ctx = Arc::new((configs, rates.clone()));
    let (trials, seed, policy) = (opts.trials, opts.seed, opts.policy);
    let worker_ctx = Arc::clone(&ctx);
    let outcome = match run_grid("fault_sweep", &spec, move |unit, rec, flight| {
        let (configs, rates) = &*worker_ctx;
        let (ri, ci) = (unit / configs.len(), unit % configs.len());
        let (sc, plan) = &configs[ci];
        let mut net = scenario_net_config(sc);
        net.faults = netsim::FaultPlan::uniform(rates[ri]);
        TrialRun {
            scenario: sc,
            plan,
            kinds: &KINDS,
            trials,
            seed: config_seed(seed, ci),
            net: &net,
            robust: Some(&probe_policy),
        }
        .run_observed(policy, rec, unit, flight)
    }) {
        Ok(o) => o,
        Err(code) => return code,
    };
    recorder.merge(outcome.recorder.clone());

    // Aggregate in grid order — identical math and ordering to the
    // pre-supervision loop. Under an interrupt only fully completed
    // rate groups are reported (completed units form a prefix).
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut acc_series: Vec<(&str, Vec<f64>)> = KINDS.iter().map(|k| (k.name(), vec![])).collect();
    for (ri, &rate) in rates.iter().enumerate() {
        let group = &outcome.results[ri * n_configs..(ri + 1) * n_configs];
        if group.iter().any(Option::is_none) {
            continue;
        }
        let mut acc: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
        let mut answer: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
        let mut counters = vec![attack::FaultCounters::default(); KINDS.len()];
        let mut injected = vec![netsim::FaultStats::default(); KINDS.len()];
        for report in group.iter().flatten() {
            for (ki, &k) in KINDS.iter().enumerate() {
                acc[ki].push(report.accuracy(k));
                answer[ki].push(report.answer_rate(k));
                counters[ki].merge(report.fault_counters(k));
                injected[ki].merge(report.sim_faults(k));
            }
        }
        if recorder.is_enabled() {
            eprintln!("obs: fault rate {rate:.2} done ({n_configs} configs)");
        }
        labels.push(format!("{rate:.2}"));
        for (ki, &k) in KINDS.iter().enumerate() {
            let a = mean(acc[ki].iter().copied().filter(|v| !v.is_nan()));
            let ar = mean(answer[ki].iter().copied());
            let c = &counters[ki];
            let inj = &injected[ki];
            println!(
                "{rate:<5.2}  {:<9}  {a:>8.3}   {ar:>11.3}   {:>8}   {:>12}",
                k.name(),
                c.timeouts,
                c.inconclusive
            );
            rows.push(format!(
                "{rate},{},{n_configs},{a},{ar},{},{},{},{},{},{},{},{},{},{},{}",
                k.name(),
                c.probes,
                c.timeouts,
                c.retries,
                c.outliers,
                c.inconclusive,
                inj.packets_dropped,
                inj.packet_ins_lost,
                inj.flow_mods_lost,
                inj.flow_mods_delayed,
                inj.flow_mods_rejected,
                inj.probe_timeouts
            ));
            acc_series[ki].1.push(a);
        }
    }
    write_csv(
        &opts.out_file("fault_sweep.csv"),
        "fault_rate,attacker,configs,accuracy,answer_rate,probes,timeouts,retries,outliers,inconclusive,inj_packets_dropped,inj_packet_ins_lost,inj_flow_mods_lost,inj_flow_mods_delayed,inj_flow_mods_rejected,inj_probe_timeouts",
        &rows,
    );
    let chart = svg::grouped_bars(
        "Accuracy (answered questions) vs. uniform fault rate",
        &labels,
        &acc_series,
        "accuracy",
    );
    let path = opts.out_file("fault_sweep.svg");
    // detlint::allow(D4): figure output is best-effort plumbing; an
    // unwritable results dir should abort loudly, as the bins always did.
    obs::write_atomic(&path, chart).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
    write_trace_outputs("fault_sweep", opts, &outcome.flight);
    finish_sweep(
        manifest,
        opts,
        &recorder,
        &["fault_sweep.csv", "fault_sweep.svg"],
        "fault_sweep",
        &outcome,
    )
}

/// The attacker's model assumption for one tournament cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assumed {
    /// The paper's default: the attacker models SRT regardless of the
    /// switch's actual policy.
    Srt,
    /// The attacker knows the actual policy and models it.
    Matched,
}

impl Assumed {
    /// Short label for CSV/console output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Assumed::Srt => "srt",
            Assumed::Matched => "matched",
        }
    }

    /// The policy the attacker actually models against `actual`.
    #[must_use]
    pub fn policy(self, actual: PolicyKind) -> PolicyKind {
        match self {
            Assumed::Srt => PolicyKind::Srt,
            Assumed::Matched => actual,
        }
    }
}

/// One sampled tournament configuration with a plan per assumed policy,
/// parallel to [`PolicyKind::all`].
struct TournamentConfig {
    scenario: NetworkScenario,
    plans: Vec<AttackPlan>,
}

impl TournamentConfig {
    fn plan_for(&self, policy: PolicyKind) -> &AttackPlan {
        let i = PolicyKind::all()
            .iter()
            .position(|&p| p == policy)
            // detlint::allow(D4): `plans` is built from `PolicyKind::all()`
            // a few lines up; a miss is a programming error.
            .expect("every policy has a prebuilt plan");
        &self.plans[i]
    }
}

/// **E5** — the cache-policy defense tournament (see
/// `bin/defense_tournament.rs` for the experiment's rationale). Exit
/// codes as in [`run_fault_sweep`].
#[must_use]
pub fn run_defense_tournament(opts: &ExpOpts) -> i32 {
    jobs::install_signal_handlers();
    let manifest = RunManifest::begin("defense_tournament");
    let mut recorder = opts.recorder();
    let rates: Vec<f64> = if opts.fast {
        vec![0.0, 0.1]
    } else {
        vec![0.0, 0.05, 0.15]
    };
    let probe_policy = ProbePolicy::default();

    // Sample the configuration set once; every (policy, assumption, rate)
    // cell then re-runs the *same* scenarios, so columns are comparable.
    // Feasibility is gated on the SRT plan — the paper's baseline — and a
    // plan is prebuilt against every policy the attacker might assume.
    // The paper's operating point (capacity 6 of 12 rules, λ ≤ 1/s,
    // sub-second TTLs) almost never fills the table, which would make
    // every eviction policy trivially equivalent. Halving capacity and
    // doubling traffic creates genuine eviction pressure — the regime
    // where the policy choice is a live defense decision.
    let mut sampler = sampler_for(opts);
    sampler.capacity = (sampler.capacity / 2).max(2);
    sampler.lambda_max *= 2.0;
    let configs: Vec<TournamentConfig> = sample_configs(
        &sampler,
        opts.seed,
        (0.2, 0.8),
        opts.configs,
        attempt_cap(opts.configs),
        |sc| {
            let plans: Vec<AttackPlan> = PolicyKind::all()
                .iter()
                .map(|&assumed| {
                    plan_attack_full(sc, Evaluator::mean_field(), 0, 0, opts.policy, assumed).ok()
                })
                .collect::<Option<_>>()?;
            plans[0].is_detector().then_some(plans)
        },
    )
    .into_iter()
    .map(|(scenario, plans)| TournamentConfig { scenario, plans })
    .collect();
    println!("{} detector-feasible configurations\n", configs.len());
    println!(
        "policy  assumed  rate   attacker   accuracy   answer-rate   hit-rate   ctrl-load/trial"
    );

    // For an SRT switch the matched attacker *is* the SRT attacker;
    // skip the duplicate cell.
    let mut combos: Vec<(PolicyKind, Assumed)> = Vec::new();
    for actual in PolicyKind::all() {
        for assumed in [Assumed::Srt, Assumed::Matched] {
            if assumed == Assumed::Matched && actual == PolicyKind::Srt {
                continue;
            }
            combos.push((actual, assumed));
        }
    }

    let n_configs = configs.len();
    let n_rates = rates.len();
    let spec = sweep_spec(
        "defense_tournament",
        opts,
        combos.len() * n_rates * n_configs,
    );
    let ctx = Arc::new((configs, rates.clone(), combos.clone()));
    let (trials, seed, policy) = (opts.trials, opts.seed, opts.policy);
    let worker_ctx = Arc::clone(&ctx);
    let outcome = match run_grid("defense_tournament", &spec, move |unit, rec, flight| {
        let (configs, rates, combos) = &*worker_ctx;
        let ci = unit % configs.len();
        let ri = (unit / configs.len()) % rates.len();
        let combo_i = unit / (configs.len() * rates.len());
        let (actual, assumed) = combos[combo_i];
        let config = &configs[ci];
        let mut net = scenario_net_config(&config.scenario);
        net.policy = actual;
        net.faults = netsim::FaultPlan::uniform(rates[ri]);
        TrialRun {
            scenario: &config.scenario,
            plan: config.plan_for(assumed.policy(actual)),
            kinds: &KINDS,
            trials,
            seed: config_seed(seed, ci),
            net: &net,
            robust: Some(&probe_policy),
        }
        .run_observed(policy, rec, unit, flight)
    }) {
        Ok(o) => o,
        Err(code) => return code,
    };
    recorder.merge(outcome.recorder.clone());

    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut acc_series: Vec<(&str, Vec<f64>)> = KINDS.iter().map(|k| (k.name(), vec![])).collect();
    for (combo_i, &(actual, assumed)) in combos.iter().enumerate() {
        for (ri, &rate) in rates.iter().enumerate() {
            let start = (combo_i * n_rates + ri) * n_configs;
            let group = &outcome.results[start..start + n_configs];
            if group.iter().any(Option::is_none) {
                continue;
            }
            let mut acc: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
            let mut answer: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
            let mut cache = vec![netsim::SwitchStats::default(); KINDS.len()];
            for report in group.iter().flatten() {
                for (ki, &k) in KINDS.iter().enumerate() {
                    acc[ki].push(report.accuracy(k));
                    answer[ki].push(report.answer_rate(k));
                    cache[ki].merge(report.cache_stats(k));
                }
            }
            if recorder.is_enabled() {
                eprintln!(
                    "obs: {actual}/{} rate {rate:.2} done ({n_configs} configs)",
                    assumed.name()
                );
            }
            labels.push(format!("{actual}/{}@{rate:.2}", assumed.name()));
            let batch_trials = (n_configs * opts.trials).max(1) as f64;
            for (ki, &k) in KINDS.iter().enumerate() {
                let a = mean(acc[ki].iter().copied().filter(|v| !v.is_nan()));
                let ar = mean(answer[ki].iter().copied());
                let s = &cache[ki];
                let hit_rate = s.hit_rate().unwrap_or(f64::NAN);
                let load_per_trial = s.controller_load() as f64 / batch_trials;
                println!(
                    "{actual:<7} {:<8} {rate:<5.2}  {:<9}  {a:>8.3}   {ar:>11.3}   {hit_rate:>8.3}   {load_per_trial:>15.2}",
                    assumed.name(),
                    k.name(),
                );
                rows.push(format!(
                    "{actual},{},{rate},{},{n_configs},{a},{ar},{hit_rate},{load_per_trial},{},{},{},{}",
                    assumed.name(),
                    k.name(),
                    s.hits,
                    s.misses,
                    s.uncovered,
                    s.evictions
                ));
                acc_series[ki].1.push(a);
            }
        }
    }
    write_csv(
        &opts.out_file("defense_tournament.csv"),
        "policy,assumed,fault_rate,attacker,configs,accuracy,answer_rate,hit_rate,controller_load_per_trial,hits,misses,uncovered,evictions",
        &rows,
    );
    let chart = svg::grouped_bars(
        "Attack accuracy vs. eviction policy (actual/assumed @ fault rate)",
        &labels,
        &acc_series,
        "accuracy",
    );
    let path = opts.out_file("defense_tournament.svg");
    // detlint::allow(D4): same best-effort figure write as fault_sweep.
    obs::write_atomic(&path, chart).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
    write_trace_outputs("defense_tournament", opts, &outcome.flight);
    finish_sweep(
        manifest,
        opts,
        &recorder,
        &["defense_tournament.csv", "defense_tournament.svg"],
        "defense_tournament",
        &outcome,
    )
}

/// Writes a traced sweep's flight outputs next to its CSVs: the raw
/// `<name>.flightrec.jsonl` (the same typed format the crash-forensics
/// dump uses, so `flow-recon trace`/`diagnose` read both) and a Chrome
/// trace-event `<name>.trace.json` loadable in Perfetto or
/// `chrome://tracing`. No-op when the run was not traced.
fn write_trace_outputs(name: &str, opts: &ExpOpts, flight: &obs::FlightRecorder) {
    if !flight.is_enabled() {
        return;
    }
    let fr = opts.out_file(&format!("{name}.flightrec.jsonl"));
    flight
        .dump_jsonl(&fr, name)
        // detlint::allow(D4): output plumbing; an unwritable results dir
        // aborts loudly, same as the CSV/SVG writes.
        .unwrap_or_else(|e| panic!("writing {}: {e}", fr.display()));
    println!("wrote {}", fr.display());
    let tj = opts.out_file(&format!("{name}.trace.json"));
    obs::write_atomic(&tj, flight.to_chrome_trace())
        // detlint::allow(D4): same loud-exit output plumbing.
        .unwrap_or_else(|e| panic!("writing {}: {e}", tj.display()));
    println!("wrote {}", tj.display());
}

/// Writes the manifest with the outcome's status and picks the exit
/// code: 0 complete, 130 (the conventional SIGINT code) interrupted.
fn finish_sweep(
    manifest: RunManifest,
    opts: &ExpOpts,
    recorder: &obs::Recorder,
    csv_files: &[&str],
    name: &str,
    outcome: &JobOutcome<TrialReport>,
) -> i32 {
    match outcome.status {
        JobStatus::Completed => {
            manifest.finish_with_status(opts, recorder, csv_files, "ok");
            0
        }
        JobStatus::Interrupted => {
            manifest.finish_with_status(opts, recorder, csv_files, "interrupted");
            eprintln!(
                "{name}: interrupted after {}/{} cells — partial results flushed; rerun with --resume to continue",
                outcome.completed_units(),
                outcome.results.len()
            );
            130
        }
    }
}
