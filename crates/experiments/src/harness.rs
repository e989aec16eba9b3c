//! Sampling, filtering and evaluating batches of network configurations.
//!
//! Every program samples through [`sample_configs`], the one loop that
//! draws from a sampling stream, usually with [`detector_plan`] as the
//! filter; [`collect_configs`] adds the trials for the Fig. 6/7
//! programs. The rest is output plumbing: run manifests and CSVs.

use attack::{
    plan_attack_full, scenario_net_config, AttackPlan, AttackerKind, ExecPolicy, TrialReport,
    TrialRun,
};
use ftcache::PolicyKind;
use obs::manifest::{detlint_budget, fnv1a, git_rev};
use obs::{FlightRecorder, ManifestEntry, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::useq::Evaluator;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;
use traffic::{NetworkScenario, ScenarioSampler};

use crate::ExpOpts;

/// Which §VI configuration class to collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigClass {
    /// Fig. 6: detector-feasible configurations in which the
    /// model-calculated optimal probe differs from the target flow.
    OptimalDiffersFromTarget,
    /// Fig. 7: detector-feasible configurations, no further restriction
    /// (the model attacker is *run* restricted, but any config qualifies).
    DetectorFeasible,
}

/// A fully evaluated configuration: the scenario, the attack plan, and the
/// trial results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigOutcome {
    /// The sampled network configuration.
    pub scenario: NetworkScenario,
    /// The §V probe-selection output.
    pub plan: AttackPlan,
    /// Accuracy of each attacker over the trials.
    pub report: TrialReport,
}

/// The scenario generator used at full scale (the paper's parameters) or
/// shrunk for `--fast` smoke runs.
#[must_use]
pub fn sampler_for(opts: &ExpOpts) -> ScenarioSampler {
    if opts.fast {
        ScenarioSampler {
            bits: 3,
            n_rules: 6,
            capacity: 3,
            delta: 0.05,
            window_secs: 10.0,
            ..ScenarioSampler::default()
        }
    } else {
        ScenarioSampler::default()
    }
}

/// Sampling draws allowed per wanted configuration before a collection
/// gives up and returns fewer, mirroring the paper's practice of
/// discarding configurations on which no side-channel detector is
/// possible.
const ATTEMPTS_PER_CONFIG: usize = 60;

/// The `max_attempts` for sampling `count` configurations: 60 draws per
/// configuration, saturating at `usize::MAX` instead of wrapping on a huge
/// `--configs`.
#[must_use]
pub fn attempt_cap(count: usize) -> usize {
    ATTEMPTS_PER_CONFIG.saturating_mul(count)
}

/// Draws scenarios from `sampler`, with the target's absence probability
/// forced into `absence`, until `count` are accepted or `max_attempts`
/// draws are spent. Returns the accepted draws in draw order, each with
/// what `accept` returned for it.
///
/// This is the one loop that draws from a program's sampling stream,
/// `StdRng::seed_from_u64(seed)`. `accept` plans and filters (typically
/// [`detector_plan`]) and never draws, so which configurations a program
/// evaluates depends only on the sampler, the seed and the filter.
pub fn sample_configs<P>(
    sampler: &ScenarioSampler,
    seed: u64,
    absence: (f64, f64),
    count: usize,
    max_attempts: usize,
    mut accept: impl FnMut(&NetworkScenario) -> Option<P>,
) -> Vec<(NetworkScenario, P)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut attempts = 0usize;
    while out.len() < count && attempts < max_attempts {
        attempts += 1;
        let scenario = sampler.sample_forced(absence, &mut rng);
        if let Some(p) = accept(&scenario) {
            out.push((scenario, p));
        }
    }
    out
}

/// The paper's §VI-B feasibility filter, the `accept` most programs
/// sample with: the default plan ([`attack::plan_attack`]'s, with
/// candidate probes scored under `policy`), kept when its optimal probe
/// can act as a detector for the target.
#[must_use]
pub fn detector_plan(scenario: &NetworkScenario, policy: ExecPolicy) -> Option<AttackPlan> {
    plan_attack_full(
        scenario,
        Evaluator::mean_field(),
        0,
        0,
        policy,
        PolicyKind::Srt,
    )
    .ok()
    .filter(AttackPlan::is_detector)
}

/// Samples up to `count` configurations of `class` with target-absence
/// probability in `absence_range` (giving up after [`attempt_cap`]`(count)`
/// draws), then evaluates each with `kinds` over `opts.trials` trials.
///
/// With `recorder` enabled, probe RTT histograms, verdict and fault
/// counters and the planner's span timings flow into it, and
/// per-configuration progress is printed to stderr. The outcomes are
/// byte-identical either way: recording never perturbs results.
#[must_use]
pub fn collect_configs(
    opts: &ExpOpts,
    class: ConfigClass,
    absence_range: (f64, f64),
    kinds: &[AttackerKind],
    count: usize,
    recorder: &mut Recorder,
) -> Vec<ConfigOutcome> {
    let start = Instant::now();
    // Capture the planner's `core.planner.*` spans, which report through
    // the thread-local recorder (planning runs on this thread).
    if recorder.is_enabled() {
        obs::local::install(Recorder::enabled());
    }
    let configs = sample_configs(
        &sampler_for(opts),
        opts.seed,
        absence_range,
        count,
        attempt_cap(count),
        |scenario| {
            let plan = detector_plan(scenario, opts.policy)?;
            match class {
                ConfigClass::OptimalDiffersFromTarget => {
                    plan.optimal_differs_from_target(scenario.target)
                }
                ConfigClass::DetectorFeasible => true,
            }
            .then_some(plan)
        },
    );
    if recorder.is_enabled() {
        recorder.merge(obs::local::take());
    }
    let mut out = Vec::with_capacity(configs.len());
    for (i, (scenario, plan)) in configs.into_iter().enumerate() {
        let report = TrialRun {
            scenario: &scenario,
            plan: &plan,
            kinds,
            trials: opts.trials,
            seed: opts.seed ^ (i as u64).wrapping_mul(0xA5A5_5A5A_1234_5678),
            net: &scenario_net_config(&scenario),
            robust: None,
        }
        .run_observed(opts.policy, recorder, 0, &mut FlightRecorder::disabled());
        out.push(ConfigOutcome {
            scenario,
            plan,
            report,
        });
        if recorder.is_enabled() {
            eprintln!(
                "obs: config {}/{count} evaluated ({:.1}s elapsed)",
                i + 1,
                start.elapsed().as_secs_f64()
            );
        }
    }
    out
}

/// Locates `crates/detlint/baseline.toml` by walking up from the
/// current directory (the binaries run from the workspace root or any
/// crate directory within it).
fn find_baseline() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("crates/detlint/baseline.toml");
        if candidate.is_file() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// A run manifest under construction: start it before the experiment's
/// work, finish it after the CSVs are written. [`RunManifest::finish`]
/// writes `<experiment>.manifest.jsonl` next to the CSVs — one JSON
/// line carrying seed, config digest, git revision, detlint budget,
/// elapsed wall time and every metric the recorder collected.
///
/// The manifest is written unconditionally (metrics are simply empty
/// when the recorder is disabled), and failures to write it are
/// reported to stderr, never panics: observability must not be able to
/// kill a finished run.
#[derive(Debug)]
pub struct RunManifest {
    experiment: String,
    start: Instant,
}

impl RunManifest {
    /// Starts the manifest clock for `experiment` (the bin name).
    #[must_use]
    pub fn begin(experiment: &str) -> Self {
        RunManifest {
            experiment: experiment.to_string(),
            start: Instant::now(),
        }
    }

    /// Writes `<experiment>.manifest.jsonl` into `opts.out`, recording
    /// the run parameters, provenance and `recorder`'s metrics. The file
    /// is overwritten per run (one line per file), so re-running an
    /// experiment replaces its manifest instead of growing it.
    pub fn finish(self, opts: &ExpOpts, recorder: &Recorder, csv_files: &[&str]) {
        self.finish_with_status(opts, recorder, csv_files, "ok");
    }

    /// [`RunManifest::finish`] with an explicit run status — `"ok"` for
    /// a complete run, `"interrupted"` when SIGINT/SIGTERM or a chaos
    /// kill-point stopped it early (partial CSVs flushed, checkpoint
    /// left for `--resume`).
    pub fn finish_with_status(
        self,
        opts: &ExpOpts,
        recorder: &Recorder,
        csv_files: &[&str],
        status: &str,
    ) {
        let digest = fnv1a(
            format!(
                "configs={},trials={},seed={},fast={},threads={}",
                opts.configs,
                opts.trials,
                opts.seed,
                opts.fast,
                opts.policy.threads()
            )
            .as_bytes(),
        );
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let entry = ManifestEntry {
            experiment: self.experiment.clone(),
            seed: opts.seed,
            configs: opts.configs,
            trials: opts.trials,
            threads: opts.policy.threads(),
            config_digest: format!("{digest:016x}"),
            git_rev: git_rev(&cwd),
            detlint_budget: find_baseline().map_or(0, |p| detlint_budget(&p)),
            elapsed_secs: self.start.elapsed().as_secs_f64(),
            status: status.to_string(),
            csv_files: csv_files.iter().map(|s| (*s).to_string()).collect(),
        };
        let mut line = entry.to_json_line(recorder);
        line.push('\n');
        let path = opts.out.join(format!("{}.manifest.jsonl", self.experiment));
        if let Err(e) = std::fs::create_dir_all(&opts.out) {
            eprintln!("obs: cannot create {}: {e}", opts.out.display());
            return;
        }
        match obs::write_atomic(&path, line) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("obs: cannot write {}: {e}", path.display()),
        }
    }
}

/// Writes rows as CSV (header + records) to `path`.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_csv(path: &std::path::Path, header: &str, rows: &[String]) {
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    obs::write_atomic(path, body).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Mean of an iterator of f64, NaN when empty.
#[must_use]
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_opts() -> ExpOpts {
        ExpOpts {
            fast: true,
            configs: 2,
            trials: 5,
            seed: 11,
            ..ExpOpts::default()
        }
    }

    #[test]
    fn collect_detector_feasible_configs() {
        let opts = fast_opts();
        let kinds = [AttackerKind::Naive, AttackerKind::Model];
        let outcomes = collect_configs(
            &opts,
            ConfigClass::DetectorFeasible,
            (0.2, 0.8),
            &kinds,
            2,
            &mut Recorder::disabled(),
        );
        assert!(
            !outcomes.is_empty(),
            "should find at least one feasible config"
        );
        for o in &outcomes {
            assert!(o.plan.is_detector());
            assert_eq!(o.report.by_attacker.len(), 2);
            assert_eq!(o.report.by_attacker[0].1.n(), 5);
        }
    }

    #[test]
    fn fig6_class_filters_on_probe_difference() {
        let opts = fast_opts();
        let kinds = [AttackerKind::Naive];
        let outcomes = collect_configs(
            &opts,
            ConfigClass::OptimalDiffersFromTarget,
            (0.2, 0.8),
            &kinds,
            1,
            &mut Recorder::disabled(),
        );
        for o in &outcomes {
            assert_ne!(o.plan.optimal.probe, o.scenario.target);
        }
    }

    #[test]
    fn execution_policy_does_not_change_outcomes() {
        let kinds = [AttackerKind::Naive, AttackerKind::Model];
        let serial = ExpOpts {
            policy: attack::ExecPolicy::Serial,
            ..fast_opts()
        };
        let parallel = ExpOpts {
            policy: attack::ExecPolicy::Parallel { threads: 4 },
            ..fast_opts()
        };
        let collect = |opts: &ExpOpts| {
            collect_configs(
                opts,
                ConfigClass::DetectorFeasible,
                (0.2, 0.8),
                &kinds,
                2,
                &mut Recorder::disabled(),
            )
        };
        let (a, b) = (collect(&serial), collect(&parallel));
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_stops_at_the_attempt_cap() {
        let mut calls = 0;
        let kept: Vec<(NetworkScenario, ())> =
            sample_configs(&sampler_for(&fast_opts()), 5, (0.2, 0.8), 3, 7, |_| {
                calls += 1;
                None
            });
        assert!(kept.is_empty());
        assert_eq!(calls, 7, "every attempt is offered to `accept` once");
    }

    #[test]
    fn attempt_cap_saturates_instead_of_wrapping() {
        assert_eq!(attempt_cap(4), 240);
        assert_eq!(attempt_cap(usize::MAX / 2), usize::MAX);
    }

    #[test]
    fn sampling_keeps_accepted_draws_in_draw_order() {
        let sampler = sampler_for(&fast_opts());
        let mut draw = 0usize;
        let kept = sample_configs(&sampler, 5, (0.2, 0.8), 4, 100, |_| {
            draw += 1;
            draw.is_multiple_of(3).then_some(draw)
        });
        let mut rng = StdRng::seed_from_u64(5);
        let by_hand: Vec<(NetworkScenario, usize)> = (1..=12usize)
            .map(|d| (sampler.sample_forced((0.2, 0.8), &mut rng), d))
            .filter(|(_, d)| d.is_multiple_of(3))
            .collect();
        assert_eq!(kept, by_hand);
    }

    #[test]
    fn sampling_nothing_draws_nothing() {
        let mut calls = 0;
        let kept = sample_configs(&sampler_for(&fast_opts()), 5, (0.2, 0.8), 0, 100, |_| {
            calls += 1;
            Some(())
        });
        assert!(kept.is_empty());
        assert_eq!(calls, 0);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert!(mean(std::iter::empty()).is_nan());
    }
}
