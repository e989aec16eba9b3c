//! The one way a program runs trials: [`Run`], the supervised grid
//! runner.
//!
//! A trial-running program samples its configurations once
//! ([`Run::sample`]), runs one trial batch per grid cell — a
//! (configuration × condition) pair — under the [`jobs`] supervisor
//! ([`Run::grid`]), aggregates the cells in grid order into rows, and
//! writes them ([`Run::write_csv`]). The supervisor retries panicked
//! cells, abandons hung ones, checkpoints completed cells to
//! `<name>.ckpt.jsonl` (`--checkpoint-every`, `--resume`) and records
//! the `--trace` flight; each cell's seeds depend only on the run seed
//! and the cell's indices, so every CSV is byte-identical at any thread
//! count, with or without `--obs`/`--trace`, and after kill/resume.
//!
//! An interrupted run (SIGINT/SIGTERM, or the `--kill-after-checkpoints`
//! kill-point) exits 130: each CSV holds its header and only the rows
//! whose cells all completed, the manifest reads `interrupted`, and the
//! checkpoint stays for `--resume`.

use attack::{TrialReport, TrialRun};
use jobs::{InterruptSource, JobError, JobSpec, JobStatus};
use obs::manifest::{detlint_budget, fnv1a, git_rev};
use obs::walltime::WallSpan;
use obs::{FlightRecorder, ManifestEntry, Recorder};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use traffic::{NetworkScenario, ScenarioSampler};

use crate::harness::sample_configs;
use crate::ExpOpts;

/// One program run: its options, the manifest clock, the `--obs`
/// recorder, the `--trace` flight and the files written so far.
#[derive(Debug)]
pub struct Run<'a> {
    /// The run's options.
    pub opts: &'a ExpOpts,
    name: &'static str,
    clock: WallSpan,
    recorder: Recorder,
    flight: FlightRecorder,
    files: Vec<String>,
    /// `(completed, total)` cells of a grid an interrupt stopped.
    interrupted: Option<(usize, usize)>,
    write_failed: bool,
}

/// One grid cell, as the program's cell closure sees it.
#[derive(Debug)]
pub struct Cell<'u> {
    /// The cell's index in the grid.
    pub unit: usize,
    /// The run's options.
    pub opts: &'u ExpOpts,
    recorder: &'u mut Recorder,
    flight: &'u mut FlightRecorder,
}

impl Cell<'_> {
    /// Runs the cell's trial batch under `--threads`, into the cell's
    /// recorder and flight (probe contexts carry the cell's index).
    pub fn trials(&mut self, batch: &TrialRun<'_>) -> TrialReport {
        batch.run_observed(self.opts.policy, self.recorder, self.unit, self.flight)
    }
}

/// The results of a group of cells if every one completed, so that a
/// row built from them is whole. An empty group is whole.
#[must_use]
pub fn complete<R>(cells: &[Option<R>]) -> Option<Vec<&R>> {
    cells.iter().map(Option::as_ref).collect()
}

/// Locates `crates/detlint/baseline.toml` by walking up from the
/// current directory.
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

fn current_git_rev() -> String {
    git_rev(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")))
}

impl<'a> Run<'a> {
    /// Runs the trial-running program `name`: parses the command line,
    /// installs the SIGINT/SIGTERM handlers, runs `body` and exits with
    /// [`Run::finish`]'s code — or, when `body` fails, reports the
    /// [`JobError`] and exits without a manifest: 2 for an unusable
    /// checkpoint, 1 for a cell that failed every attempt.
    pub fn main(name: &'static str, body: impl FnOnce(&mut Run<'_>) -> Result<(), JobError>) -> ! {
        let opts = ExpOpts::from_env();
        jobs::install_signal_handlers();
        let mut run = Run::new(name, &opts);
        let code = match body(&mut run) {
            Ok(()) => run.finish(),
            Err(e) => {
                eprintln!("{name}: {e}");
                if matches!(e, JobError::Resume(_)) {
                    2
                } else {
                    1
                }
            }
        };
        std::process::exit(code)
    }

    /// Starts the manifest clock of program `name`; the programs that
    /// run no trials call this directly, without signal handlers.
    #[must_use]
    pub fn new(name: &'static str, opts: &'a ExpOpts) -> Self {
        Run {
            opts,
            name,
            clock: WallSpan::begin(),
            recorder: if opts.obs {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            },
            flight: FlightRecorder::disabled(),
            files: Vec::new(),
            interrupted: None,
            write_failed: false,
        }
    }

    /// [`sample_configs`] from the run's seed. Under `--obs` the
    /// planner's `core.planner.*` spans of every `accept` call (which
    /// report through the thread-local recorder) join the manifest.
    pub fn sample<P>(
        &mut self,
        sampler: &ScenarioSampler,
        absence: (f64, f64),
        count: usize,
        max_attempts: usize,
        accept: impl FnMut(&NetworkScenario) -> Option<P>,
    ) -> Vec<(NetworkScenario, P)> {
        obs::local::install(self.recorder.fork());
        let seed = self.opts.seed;
        let configs = sample_configs(sampler, seed, absence, count, max_attempts, accept);
        self.recorder.merge(obs::local::take());
        configs
    }

    /// Runs `cell(ctx, ·)` for the cells `0..units` under the job
    /// supervisor and returns their results in grid order: all `Some`,
    /// or after an interrupt the completed ones. A cell must be a pure
    /// function of `ctx`, its index and the options, as retries and
    /// `--resume` recompute or reload it. A run has one grid. Under
    /// `--obs`, the cells' metrics and the `jobs.*` counters join the
    /// manifest and each finished cell prints a progress line to stderr.
    ///
    /// # Errors
    ///
    /// [`JobError::Resume`] for an unusable `--resume` checkpoint,
    /// [`JobError::UnitFailed`] for a cell that failed every attempt.
    pub fn grid<C, R>(
        &mut self,
        ctx: &Arc<C>,
        units: usize,
        cell: impl Fn(&C, &mut Cell<'_>) -> R + Send + Sync + 'static,
    ) -> Result<Vec<Option<R>>, JobError>
    where
        C: Send + Sync + 'static,
        R: Serialize + Deserialize + Send + 'static,
    {
        let (name, opts) = (self.name, self.opts);
        // The checkpoint digest leaves the thread count out: results do
        // not depend on it, so a run may resume at another `--threads`.
        let digest = format!(
            "experiment={name},configs={},trials={},seed={},fast={}",
            opts.configs, opts.trials, opts.seed, opts.fast
        );
        let mut spec = JobSpec::new(name, units, fnv1a(digest.as_bytes()));
        spec.git_rev = current_git_rev();
        let checkpointing = opts.checkpoint_every > 0 || opts.resume;
        spec.checkpoint_path = checkpointing.then(|| opts.out.join(format!("{name}.ckpt.jsonl")));
        spec.checkpoint_every = opts.checkpoint_every;
        spec.resume = opts.resume;
        spec.seed = opts.seed;
        spec.obs = opts.obs;
        spec.trace = opts.trace;
        spec.flight_path = opts
            .trace
            .then(|| opts.out.join(format!("{name}.flightrec.jsonl")));
        spec.interrupt = InterruptSource::Global;
        spec.kill_after_checkpoints = opts.kill_after_checkpoints;
        if checkpointing || opts.trace {
            // A directory that cannot be created fails the first write.
            let _ = std::fs::create_dir_all(&opts.out);
        }

        let (ctx, opts, clock) = (Arc::clone(ctx), opts.clone(), self.clock);
        let outcome = jobs::run_units_traced(&spec, move |unit, recorder, flight| {
            let mut c = Cell {
                unit,
                opts: &opts,
                recorder,
                flight,
            };
            let result = cell(&ctx, &mut c);
            if opts.obs {
                let secs = clock.elapsed_secs();
                eprintln!(
                    "obs: {name} cell {}/{units} done ({secs:.1}s elapsed)",
                    unit + 1
                );
            }
            result
        })?;
        if outcome.status == JobStatus::Interrupted {
            self.interrupted = Some((outcome.completed_units(), units));
        }
        self.recorder.merge(outcome.recorder);
        self.flight = outcome.flight;
        Ok(outcome.results)
    }

    /// Writes `rows` under `header` to the CSV `file` in the output
    /// directory, recorded for the manifest.
    pub fn write_csv(&mut self, file: &str, header: &str, rows: &[String]) {
        let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
        for line in std::iter::once(header).chain(rows.iter().map(String::as_str)) {
            body.push_str(line);
            body.push('\n');
        }
        self.write_file(file, body);
    }

    /// Writes `contents` to `file` in the output directory (through
    /// [`obs::write_atomic`]), recorded for the manifest. A failed write
    /// is reported on stderr and makes the run exit 1.
    pub fn write_file(&mut self, file: &str, contents: impl AsRef<[u8]>) {
        if self.write(file, contents) {
            self.files.push(file.to_string());
        }
    }

    fn write(&mut self, file: &str, contents: impl AsRef<[u8]>) -> bool {
        let path = self.opts.out.join(file);
        let written = std::fs::create_dir_all(&self.opts.out)
            .and_then(|()| obs::write_atomic(&path, contents));
        self.report(&path, written)
    }

    fn report(&mut self, path: &Path, written: std::io::Result<()>) -> bool {
        match &written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("{}: cannot write {}: {e}", self.name, path.display());
                self.write_failed = true;
            }
        }
        written.is_ok()
    }

    /// Ends the run and returns its exit code: 0 complete, 130 (the
    /// conventional SIGINT code) interrupted, 1 when an output could not
    /// be written. A traced grid's flight goes to `<name>.flightrec.jsonl`
    /// (the crash dump's format, read by `flow-recon trace` and
    /// `diagnose`) and to the Chrome trace-event `<name>.trace.json`.
    /// Then `<name>.manifest.jsonl` records parameters, provenance,
    /// elapsed time, status, the files written and the recorder's
    /// metrics.
    #[must_use]
    pub fn finish(mut self) -> i32 {
        let name = self.name;
        if self.flight.is_enabled() {
            let path = self.opts.out.join(format!("{name}.flightrec.jsonl"));
            let dumped = self.flight.dump_jsonl(&path, name);
            self.report(&path, dumped);
            let chrome = self.flight.to_chrome_trace();
            self.write(&format!("{name}.trace.json"), chrome);
        }
        let opts = self.opts;
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
        let status = if self.interrupted.is_some() {
            "interrupted"
        } else {
            "ok"
        };
        let entry = ManifestEntry {
            experiment: name.to_string(),
            seed: opts.seed,
            configs: opts.configs,
            trials: opts.trials,
            threads: opts.policy.threads(),
            config_digest: format!("{digest:016x}"),
            git_rev: current_git_rev(),
            detlint_budget: find_baseline().map_or(0, |p| detlint_budget(&p)),
            elapsed_secs: self.clock.elapsed_secs(),
            status: status.to_string(),
            csv_files: std::mem::take(&mut self.files),
        };
        let line = entry.to_json_line(&self.recorder) + "\n";
        self.write(&format!("{name}.manifest.jsonl"), line);
        if let Some((done, total)) = self.interrupted {
            eprintln!(
                "{name}: interrupted after {done}/{total} cells — partial results flushed; rerun with --resume to continue"
            );
            130
        } else {
            i32::from(self.write_failed)
        }
    }
}
