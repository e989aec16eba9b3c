//! The unit supervisor: retries, watchdog, checkpoints, interrupts.
//!
//! [`run_units`] walks the job's units in index order. Parallelism
//! lives *inside* a unit (the trial engine's `ExecPolicy` fans trials
//! out across threads), so the supervisor itself stays sequential:
//! results are trivially schedule-independent and every checkpoint is a
//! prefix of completed units.
//!
//! Each attempt runs in a freshly spawned worker thread under
//! `catch_unwind`, reporting back over a channel private to that
//! attempt. The supervising thread waits in short slices, polling the
//! interrupt flag and the watchdog deadline between them. A hung
//! attempt is *abandoned* — the worker thread is left to finish into a
//! dropped channel — because a stuck computation cannot be joined
//! without hanging the supervisor too. This is why attempts get plain
//! spawned threads (requiring `F: 'static`) rather than scoped ones.

use crate::checkpoint::{self, CkptMeta};
use crate::interrupt::InterruptSource;
use crate::watchdog::Deadline;
use crate::{splitmix64, JobError, WorkerFailure, JOBS_STREAM_SALT};
use core::time::Duration;
use obs::trace::{TraceEv, SUPERVISOR_CTX};
use obs::{metrics, FlightRecorder, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};

/// How long the supervisor sleeps between interrupt/watchdog polls
/// while a worker runs. Results arrive through the channel immediately;
/// this only bounds reaction latency to signals and hangs.
const POLL_SLICE: Duration = Duration::from_millis(10);

/// A fault injected into one `(unit, attempt)` for chaos testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// The worker panics before computing anything.
    Panic,
    /// The worker stalls this long before computing — long enough, and
    /// the watchdog abandons the attempt.
    StallMillis(u64),
}

/// A deterministic schedule of injected faults, keyed by
/// `(unit, attempt)`. Empty in production; the chaos harness builds one
/// from a seed.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    events: BTreeMap<(usize, usize), ChaosEvent>,
}

impl ChaosPlan {
    /// Injects `event` into attempt `attempt` of unit `unit`.
    pub fn inject(&mut self, unit: usize, attempt: usize, event: ChaosEvent) {
        self.events.insert((unit, attempt), event);
    }

    /// The fault scheduled for this attempt, if any.
    #[must_use]
    pub fn event(&self, unit: usize, attempt: usize) -> Option<ChaosEvent> {
        self.events.get(&(unit, attempt)).copied()
    }

    /// Whether any fault is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// A seed-derived plan injecting first-attempt faults: roughly
    /// `panic_permille`/1000 of units panic and `stall_permille`/1000
    /// stall for `stall_ms`. Only attempt 0 is sabotaged, so the first
    /// retry always succeeds — the harness proves recovery, not
    /// permanent failure (that path has its own tests).
    #[must_use]
    pub fn from_seed(
        seed: u64,
        total_units: usize,
        panic_permille: u64,
        stall_permille: u64,
        stall_ms: u64,
    ) -> Self {
        let mut plan = ChaosPlan::default();
        for unit in 0..total_units {
            let draw = stream_key(seed, unit, 0) % 1000;
            if draw < panic_permille {
                plan.inject(unit, 0, ChaosEvent::Panic);
            } else if draw < panic_permille + stall_permille {
                plan.inject(unit, 0, ChaosEvent::StallMillis(stall_ms));
            }
        }
        plan
    }
}

/// Everything [`run_units`] needs to know about a job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Experiment name — names the checkpoint and appears in errors.
    pub name: String,
    /// Number of work units; the closure receives indices `0..total`.
    pub total_units: usize,
    /// FNV-1a digest of the run configuration (thread count excluded:
    /// results are thread-invariant, so cross-thread resume is sound).
    pub config_digest: u64,
    /// Git revision to stamp into checkpoints (`"unknown"` disables the
    /// resume-time check).
    pub git_rev: String,
    /// Where to checkpoint; `None` disables checkpointing entirely.
    pub checkpoint_path: Option<PathBuf>,
    /// Flush a checkpoint every N completed units (0 = only on
    /// interrupt, never periodically).
    pub checkpoint_every: usize,
    /// Load an existing checkpoint before running.
    pub resume: bool,
    /// Attempts per unit before the job fails (≥ 1).
    pub max_attempts: usize,
    /// Wall-clock deadline per attempt; `None` = no watchdog.
    pub watchdog: Option<Duration>,
    /// Run seed; backoff jitter derives from it through
    /// [`JOBS_STREAM_SALT`].
    pub seed: u64,
    /// Whether unit workers record metrics (the run's `--obs` setting).
    pub obs: bool,
    /// Where "stop now" is read from.
    pub interrupt: InterruptSource,
    /// Deterministic kill-point: after writing checkpoint number N
    /// (1-based), behave exactly as if interrupted — the chaos gates use
    /// this to cut a run at a precise checkpoint boundary.
    pub kill_after_checkpoints: Option<usize>,
    /// Injected faults for chaos testing.
    pub chaos: ChaosPlan,
    /// Whether unit workers get an enabled [`FlightRecorder`] (the
    /// run's `--trace` setting).
    pub trace: bool,
    /// Where the flight recorder is dumped when the job panics out,
    /// hits the watchdog or is interrupted — conventionally
    /// `<name>.flightrec.jsonl` next to the results. `None` disables
    /// crash dumps (the merged flight still rides the outcome).
    pub flight_path: Option<PathBuf>,
}

impl JobSpec {
    /// A spec with supervision defaults: 3 attempts, 10-minute
    /// watchdog, no checkpointing, never interrupted, no chaos.
    #[must_use]
    pub fn new(name: &str, total_units: usize, config_digest: u64) -> Self {
        JobSpec {
            name: name.to_string(),
            total_units,
            config_digest,
            git_rev: "unknown".to_string(),
            checkpoint_path: None,
            checkpoint_every: 0,
            resume: false,
            max_attempts: 3,
            watchdog: Some(Duration::from_secs(600)),
            seed: 0,
            obs: false,
            interrupt: InterruptSource::Never,
            kill_after_checkpoints: None,
            chaos: ChaosPlan::default(),
            trace: false,
            flight_path: None,
        }
    }

    fn meta(&self) -> CkptMeta {
        CkptMeta {
            experiment: self.name.clone(),
            config_digest: format!("{:016x}", self.config_digest),
            git_rev: self.git_rev.clone(),
            total_units: self.total_units,
        }
    }
}

/// Supervisor tallies for one [`run_units`] call. Mirrored into the
/// outcome recorder under the `jobs.*` metric names so `flow-recon
/// diagnose` can render them from any `--obs` manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Units computed in this process (excludes resumed units).
    pub units_run: u64,
    /// Units recovered from a checkpoint instead of recomputed.
    pub units_resumed: u64,
    /// Retry attempts after a failure (not counting first attempts).
    pub retries: u64,
    /// Worker panics caught and converted to retries.
    pub panics_caught: u64,
    /// Attempts abandoned by the watchdog.
    pub watchdog_fires: u64,
    /// Checkpoint snapshots flushed.
    pub checkpoints_written: u64,
    /// Checkpoint files loaded on resume.
    pub checkpoints_loaded: u64,
}

impl JobCounters {
    /// Records the tallies into `rec` under the canonical `jobs.*`
    /// names (no-op on a disabled recorder).
    pub fn record_into(&self, rec: &mut Recorder) {
        rec.add(metrics::JOBS_UNITS_RUN, self.units_run);
        rec.add(metrics::JOBS_UNITS_RESUMED, self.units_resumed);
        rec.add(metrics::JOBS_RETRIES, self.retries);
        rec.add(metrics::JOBS_PANICS_CAUGHT, self.panics_caught);
        rec.add(metrics::JOBS_WATCHDOG_FIRES, self.watchdog_fires);
        rec.add(metrics::JOBS_CHECKPOINTS_WRITTEN, self.checkpoints_written);
        rec.add(metrics::JOBS_CHECKPOINTS_LOADED, self.checkpoints_loaded);
    }
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Every unit completed.
    Completed,
    /// Stopped early by the interrupt source or a kill-point; completed
    /// units were flushed to the checkpoint (when enabled).
    Interrupted,
}

/// The result of a supervised job.
#[derive(Debug)]
pub struct JobOutcome<R> {
    /// Per-unit results; all `Some` when `status` is
    /// [`JobStatus::Completed`].
    pub results: Vec<Option<R>>,
    /// How the job ended.
    pub status: JobStatus,
    /// Supervision tallies.
    pub counters: JobCounters,
    /// Merged unit metric deltas plus the `jobs.*` counters (disabled
    /// and empty when the spec's `obs` is off).
    pub recorder: Recorder,
    /// Merged causal flight recording: every unit's probe traces plus
    /// the supervisor's own bracket events under
    /// [`SUPERVISOR_CTX`] (disabled and empty when the spec's `trace`
    /// is off). Units recovered from a checkpoint contribute no events
    /// — traces are not checkpointed.
    pub flight: FlightRecorder,
}

impl<R> JobOutcome<R> {
    /// Number of completed units.
    #[must_use]
    pub fn completed_units(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }
}

/// The per-`(unit, attempt)` key of the supervisor's private draw
/// stream: three chained `splitmix64` rounds, one per mixed-in input.
///
/// A plain XOR of `seed ^ JOBS_STREAM_SALT ^ unit` would let a nearby
/// unit index cancel low salt bits and alias another salted stream
/// (`salt_a ^ u == salt_b ^ v` whenever the salts differ only in bits
/// covered by small indices). Passing each input through a full mix
/// round first makes the intermediate state pseudorandom before the
/// next index is XORed in, so no small-integer relation between salts
/// and indices survives. Pure — callable from tests to predict the
/// exact schedule.
#[must_use]
pub fn stream_key(seed: u64, unit: usize, attempt: usize) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ JOBS_STREAM_SALT) ^ unit as u64) ^ attempt as u64)
}

/// The deterministic retry delay before `attempt` (1-based retries) of
/// `unit`: capped exponential base plus jitter drawn via `stream_key`
/// from the [`JOBS_STREAM_SALT`] stream. Trial RNG streams are
/// untouched by design: backoff consumes only this private stream, so
/// retried units reproduce byte-identical results.
#[must_use]
pub fn backoff_delay(seed: u64, unit: usize, attempt: usize) -> Duration {
    let base_ms = 1u64 << attempt.min(5).saturating_sub(1); // 1,1,2,4,8,16 ms
    let draw = stream_key(seed, unit, attempt);
    Duration::from_millis(base_ms + draw % (base_ms + 1))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum AttemptOutcome<R> {
    Done(R, Recorder, FlightRecorder),
    Interrupted,
    Failed(WorkerFailure),
}

fn run_attempt<R, F>(
    spec: &JobSpec,
    unit: usize,
    attempt: usize,
    f: &Arc<F>,
    counters: &mut JobCounters,
) -> AttemptOutcome<R>
where
    R: Send + 'static,
    F: Fn(usize, &mut Recorder, &mut FlightRecorder) -> R + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel();
    let worker = Arc::clone(f);
    let chaos = spec.chaos.event(unit, attempt);
    let obs_on = spec.obs;
    let trace_on = spec.trace;
    let spawned = std::thread::Builder::new()
        .name(format!("jobs-{}-u{unit}-a{attempt}", spec.name))
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                match chaos {
                    Some(ChaosEvent::Panic) => {
                        // detlint::allow(D4): the chaos harness's whole job
                        // is to throw a real panic at the supervisor.
                        panic!("chaos: injected panic (unit {unit} attempt {attempt})")
                    }
                    Some(ChaosEvent::StallMillis(ms)) => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    None => {}
                }
                let mut rec = if obs_on {
                    Recorder::enabled()
                } else {
                    Recorder::disabled()
                };
                // A panicked or abandoned attempt loses its in-flight
                // events with the thread; only completed attempts merge
                // back (which keeps retried units from double-tracing).
                let mut flight = if trace_on {
                    FlightRecorder::enabled()
                } else {
                    FlightRecorder::disabled()
                };
                let r = worker(unit, &mut rec, &mut flight);
                (r, rec, flight)
            }));
            // The receiver may be gone (attempt abandoned); that's fine.
            let _ = tx.send(outcome.map_err(|p| panic_message(p.as_ref())));
        });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => {
            // Spawn failure (resource exhaustion) is retryable like a
            // panic: back off and try again.
            counters.panics_caught += 1;
            return AttemptOutcome::Failed(WorkerFailure::Panic {
                message: format!("failed to spawn worker: {e}"),
            });
        }
    };
    let deadline = spec.watchdog.map(Deadline::after);
    loop {
        match rx.recv_timeout(POLL_SLICE) {
            Ok(Ok((r, rec, flight))) => {
                let _ = handle.join();
                return AttemptOutcome::Done(r, rec, flight);
            }
            Ok(Err(message)) => {
                let _ = handle.join();
                counters.panics_caught += 1;
                return AttemptOutcome::Failed(WorkerFailure::Panic { message });
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if spec.interrupt.is_set() {
                    // Abandon the healthy-but-unfinished worker; its
                    // late result lands in a dropped channel.
                    return AttemptOutcome::Interrupted;
                }
                if let Some(d) = &deadline {
                    if d.expired() {
                        counters.watchdog_fires += 1;
                        return AttemptOutcome::Failed(WorkerFailure::WatchdogExpired {
                            limit_ms: d.limit_ms(),
                        });
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The worker died without reporting — only possible if
                // the send itself panicked. Treat as a caught panic.
                counters.panics_caught += 1;
                return AttemptOutcome::Failed(WorkerFailure::Panic {
                    message: "worker exited without reporting a result".to_string(),
                });
            }
        }
    }
}

enum UnitOutcome<R> {
    Done(R, Recorder, FlightRecorder),
    Interrupted,
    Failed {
        attempts: usize,
        last: WorkerFailure,
    },
}

fn run_one_unit<R, F>(
    spec: &JobSpec,
    unit: usize,
    f: &Arc<F>,
    counters: &mut JobCounters,
    flight: &mut FlightRecorder,
) -> UnitOutcome<R>
where
    R: Send + 'static,
    F: Fn(usize, &mut Recorder, &mut FlightRecorder) -> R + Send + Sync + 'static,
{
    // Supervisor bracket events carry *logical* time — the unit index —
    // not wall-clock: the deterministic path stays free of wall reads
    // (detlint D2), and the brackets still order correctly per context.
    let t = unit as f64;
    let attempts = spec.max_attempts.max(1);
    let mut last: Option<WorkerFailure> = None;
    for attempt in 0..attempts {
        if spec.interrupt.is_set() {
            flight.log(t, None, TraceEv::Interrupted { unit: unit as u64 });
            return UnitOutcome::Interrupted;
        }
        if attempt > 0 {
            counters.retries += 1;
            std::thread::sleep(backoff_delay(spec.seed, unit, attempt));
        }
        flight.log(
            t,
            None,
            TraceEv::UnitStart {
                unit: unit as u64,
                attempt: attempt as u64,
            },
        );
        match run_attempt(spec, unit, attempt, f, counters) {
            AttemptOutcome::Done(r, rec, unit_flight) => {
                counters.units_run += 1;
                flight.log(
                    t,
                    None,
                    TraceEv::UnitOk {
                        unit: unit as u64,
                        attempt: attempt as u64,
                    },
                );
                return UnitOutcome::Done(r, rec, unit_flight);
            }
            AttemptOutcome::Interrupted => {
                flight.log(t, None, TraceEv::Interrupted { unit: unit as u64 });
                return UnitOutcome::Interrupted;
            }
            AttemptOutcome::Failed(failure) => {
                let ev = match &failure {
                    WorkerFailure::Panic { .. } => TraceEv::UnitPanic {
                        unit: unit as u64,
                        attempt: attempt as u64,
                    },
                    WorkerFailure::WatchdogExpired { limit_ms } => TraceEv::WatchdogFire {
                        unit: unit as u64,
                        attempt: attempt as u64,
                        limit_ms: *limit_ms,
                    },
                };
                flight.log(t, None, ev);
                last = Some(failure);
            }
        }
    }
    UnitOutcome::Failed {
        attempts,
        // detlint::allow(D4): attempts ≥ 1, so at least one failure was
        // recorded before falling through.
        last: last.expect("at least one attempt ran"),
    }
}

/// Runs `f` over every unit index under supervision, per `spec`.
///
/// The closure must be a pure function of its unit index (plus
/// captured, immutable context): retries and resume both rely on
/// recomputation being byte-identical. Metric deltas recorded into the
/// provided [`Recorder`] are merged commutatively into the outcome
/// recorder — and survive checkpoint round-trips exactly.
///
/// # Errors
///
/// [`JobError::Resume`] when `spec.resume` found an unusable
/// checkpoint; [`JobError::UnitFailed`] when a unit failed on every
/// allowed attempt.
pub fn run_units<R, F>(spec: &JobSpec, f: F) -> Result<JobOutcome<R>, JobError>
where
    R: Serialize + Deserialize + Send + 'static,
    F: Fn(usize, &mut Recorder) -> R + Send + Sync + 'static,
{
    run_units_traced(spec, move |unit, rec, _flight| f(unit, rec))
}

/// [`run_units`] with a [`FlightRecorder`] handed to every unit worker
/// (enabled per `spec.trace`). Completed units' recordings merge into
/// [`JobOutcome::flight`] together with the supervisor's own bracket
/// events (unit start / ok / panic / watchdog / interrupt, under
/// [`SUPERVISOR_CTX`]). When the job fails or is interrupted and
/// `spec.flight_path` is set, the merged flight is dumped there
/// atomically for crash forensics — the dump's final lines are the
/// supervisor brackets naming the failing unit.
///
/// # Errors
///
/// Same contract as [`run_units`].
pub fn run_units_traced<R, F>(spec: &JobSpec, f: F) -> Result<JobOutcome<R>, JobError>
where
    R: Serialize + Deserialize + Send + 'static,
    F: Fn(usize, &mut Recorder, &mut FlightRecorder) -> R + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let total = spec.total_units;
    let meta = spec.meta();
    let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();
    let mut unit_metrics: Vec<Option<String>> = vec![None; total];
    let mut counters = JobCounters::default();
    let mut recorder = if spec.obs {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut flight = if spec.trace {
        let mut fl = FlightRecorder::enabled();
        // Supervisor brackets live under the maximal context: they sort
        // after every simulation context, so eviction under the
        // capacity bound drops probe detail before it drops the record
        // of which unit was running when the job died.
        fl.begin(SUPERVISOR_CTX);
        fl
    } else {
        FlightRecorder::disabled()
    };
    let dump_flight = |flight: &FlightRecorder| {
        let Some(path) = &spec.flight_path else {
            return;
        };
        if !flight.is_enabled() {
            return;
        }
        if let Err(e) = flight.dump_jsonl(path, &spec.name) {
            eprintln!("jobs: cannot write flight dump {}: {e}", path.display());
        }
    };

    if spec.resume {
        if let Some(path) = &spec.checkpoint_path {
            if let Some(units) = checkpoint::load::<R>(path, &meta)? {
                counters.checkpoints_loaded += 1;
                for loaded in units {
                    counters.units_resumed += 1;
                    unit_metrics[loaded.unit] = Some(loaded.metrics.metrics_json());
                    if spec.obs {
                        recorder.merge(loaded.metrics);
                    }
                    results[loaded.unit] = Some(loaded.result);
                }
            }
        }
    }

    let flush =
        |results: &[Option<R>], unit_metrics: &[Option<String>], counters: &mut JobCounters| {
            let Some(path) = &spec.checkpoint_path else {
                return;
            };
            let units: Vec<(usize, String, String)> = results
                .iter()
                .enumerate()
                .filter_map(|(i, r)| {
                    let r = r.as_ref()?;
                    let result_json = serde_json::to_string(r).ok()?;
                    let metrics_json = unit_metrics[i]
                        .clone()
                        .unwrap_or_else(|| Recorder::enabled().metrics_json());
                    Some((i, result_json, metrics_json))
                })
                .collect();
            match checkpoint::write(path, &meta, &units) {
                Ok(()) => counters.checkpoints_written += 1,
                // A failed flush must not kill the run — the units are
                // still in memory and the next flush retries.
                Err(e) => eprintln!("jobs: cannot write checkpoint {}: {e}", path.display()),
            }
        };

    let mut status = JobStatus::Completed;
    let mut since_flush = 0usize;
    'units: for unit in 0..total {
        if results[unit].is_some() {
            continue;
        }
        if spec.interrupt.is_set() {
            flight.log(
                unit as f64,
                None,
                TraceEv::Interrupted { unit: unit as u64 },
            );
            status = JobStatus::Interrupted;
            break;
        }
        match run_one_unit(spec, unit, &f, &mut counters, &mut flight) {
            UnitOutcome::Done(r, rec, unit_flight) => {
                unit_metrics[unit] = Some(rec.metrics_json());
                if spec.obs {
                    recorder.merge(rec);
                }
                if spec.trace {
                    flight.merge(unit_flight);
                }
                results[unit] = Some(r);
            }
            UnitOutcome::Interrupted => {
                status = JobStatus::Interrupted;
                break;
            }
            UnitOutcome::Failed { attempts, last } => {
                // Flush what completed before reporting failure: the
                // work done so far stays resumable — and the flight
                // dump preserves the causal record of the death.
                flush(&results, &unit_metrics, &mut counters);
                dump_flight(&flight);
                return Err(JobError::UnitFailed {
                    unit,
                    attempts,
                    last,
                });
            }
        }
        since_flush += 1;
        if spec.checkpoint_every > 0 && since_flush >= spec.checkpoint_every {
            flush(&results, &unit_metrics, &mut counters);
            since_flush = 0;
            if spec.kill_after_checkpoints
                == Some(usize::try_from(counters.checkpoints_written).unwrap_or(usize::MAX))
            {
                flight.log(
                    unit as f64,
                    None,
                    TraceEv::Interrupted { unit: unit as u64 },
                );
                status = JobStatus::Interrupted;
                break 'units;
            }
        }
    }

    match status {
        JobStatus::Completed => {
            // A finished job needs no checkpoint; leaving one would let
            // a later --resume of a *different* outcome silently pick
            // it up after a flag change that keeps the digest (none
            // today, but cheap insurance) — and it's just clutter.
            if let Some(path) = &spec.checkpoint_path {
                let _ = std::fs::remove_file(path);
            }
        }
        JobStatus::Interrupted => {
            if since_flush > 0 || counters.checkpoints_written == 0 {
                flush(&results, &unit_metrics, &mut counters);
            }
            dump_flight(&flight);
        }
    }
    counters.record_into(&mut recorder);
    Ok(JobOutcome {
        results,
        status,
        counters,
        recorder,
        flight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::FlightDump;
    use std::sync::atomic::Ordering;

    fn spec(name: &str, total: usize) -> JobSpec {
        let mut s = JobSpec::new(name, total, 0xABCD);
        s.watchdog = Some(Duration::from_secs(30));
        s
    }

    fn square(unit: usize, _rec: &mut Recorder) -> u64 {
        (unit as u64) * (unit as u64)
    }

    fn ckpt_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("jobs-supervisor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}.ckpt.jsonl"))
    }

    #[test]
    fn plain_job_completes_in_order() {
        let out = run_units(&spec("plain", 5), square).unwrap();
        assert_eq!(out.status, JobStatus::Completed);
        assert_eq!(
            out.results,
            vec![Some(0), Some(1), Some(4), Some(9), Some(16)]
        );
        assert_eq!(out.counters.units_run, 5);
        assert_eq!(out.counters.retries, 0);
    }

    #[test]
    fn injected_panic_is_caught_and_retried() {
        let mut s = spec("panic_retry", 4);
        s.chaos.inject(2, 0, ChaosEvent::Panic);
        let out = run_units(&s, square).unwrap();
        assert_eq!(out.status, JobStatus::Completed);
        assert_eq!(out.results[2], Some(4));
        assert_eq!(out.counters.panics_caught, 1);
        assert_eq!(out.counters.retries, 1);
        assert_eq!(out.counters.units_run, 4);
    }

    #[test]
    fn watchdog_abandons_stalled_attempt_and_retries() {
        let mut s = spec("watchdog", 3);
        s.watchdog = Some(Duration::from_millis(40));
        s.chaos.inject(1, 0, ChaosEvent::StallMillis(400));
        let out = run_units(&s, square).unwrap();
        assert_eq!(out.status, JobStatus::Completed);
        assert_eq!(out.results[1], Some(1));
        assert_eq!(out.counters.watchdog_fires, 1);
        assert_eq!(out.counters.retries, 1);
    }

    #[test]
    fn persistent_failure_exhausts_attempts() {
        let mut s = spec("persistent", 3);
        s.max_attempts = 2;
        s.chaos.inject(1, 0, ChaosEvent::Panic);
        s.chaos.inject(1, 1, ChaosEvent::Panic);
        match run_units(&s, square) {
            Err(JobError::UnitFailed {
                unit: 1,
                attempts: 2,
                last: WorkerFailure::Panic { message },
            }) => assert!(message.contains("injected panic"), "{message}"),
            other => panic!("expected UnitFailed, got {other:?}"),
        }
    }

    #[test]
    fn manual_interrupt_stops_at_unit_boundary_with_flush() {
        let path = ckpt_path("interrupt");
        let _ = std::fs::remove_file(&path);
        let (src, flag) = InterruptSource::manual();
        let mut s = spec("interrupt", 6);
        s.interrupt = src;
        s.checkpoint_path = Some(path.clone());
        s.checkpoint_every = 1;
        let flag2 = std::sync::Arc::clone(&flag);
        let out = run_units(&s, move |unit, rec| {
            if unit == 2 {
                flag2.store(true, Ordering::SeqCst);
            }
            square(unit, rec)
        })
        .unwrap();
        assert_eq!(out.status, JobStatus::Interrupted);
        assert_eq!(out.completed_units(), 3, "units 0..=2 completed");
        assert!(path.exists(), "interrupt flushed a checkpoint");

        // Resuming completes the job with identical results.
        flag.store(false, Ordering::SeqCst);
        let mut s2 = s.clone();
        s2.resume = true;
        let resumed = run_units(&s2, square).unwrap();
        assert_eq!(resumed.status, JobStatus::Completed);
        assert_eq!(resumed.counters.units_resumed, 3);
        assert_eq!(resumed.counters.units_run, 3);
        let clean = run_units(&spec("interrupt_clean", 6), square).unwrap();
        assert_eq!(resumed.results, clean.results);
        assert!(!path.exists(), "completion removes the checkpoint");
    }

    #[test]
    fn kill_point_cuts_after_exact_checkpoint() {
        let path = ckpt_path("killpoint");
        let _ = std::fs::remove_file(&path);
        let mut s = spec("killpoint", 8);
        s.checkpoint_path = Some(path.clone());
        s.checkpoint_every = 2;
        s.kill_after_checkpoints = Some(2);
        let out = run_units(&s, square).unwrap();
        assert_eq!(out.status, JobStatus::Interrupted);
        assert_eq!(out.completed_units(), 4, "2 checkpoints × every 2 units");
        assert_eq!(out.counters.checkpoints_written, 2);

        let mut s2 = s.clone();
        s2.resume = true;
        s2.kill_after_checkpoints = None;
        let resumed = run_units(&s2, square).unwrap();
        assert_eq!(resumed.status, JobStatus::Completed);
        assert_eq!(resumed.counters.units_resumed, 4);
        let clean = run_units(&spec("killpoint_clean", 8), square).unwrap();
        assert_eq!(resumed.results, clean.results);
    }

    #[test]
    fn resumed_metrics_merge_exactly() {
        let path = ckpt_path("metrics");
        let _ = std::fs::remove_file(&path);
        let work = |unit: usize, rec: &mut Recorder| -> u64 {
            rec.add("jobs.test_units_seen", 1);
            rec.observe("jobs.test_value", (unit + 1) as f64);
            unit as u64
        };
        let mut s = spec("metrics", 6);
        s.obs = true;
        s.checkpoint_path = Some(path.clone());
        s.checkpoint_every = 1;
        s.kill_after_checkpoints = Some(3);
        let _ = run_units(&s, work).unwrap();
        let mut s2 = s.clone();
        s2.resume = true;
        s2.kill_after_checkpoints = None;
        let resumed = run_units(&s2, work).unwrap();

        let mut clean_spec = spec("metrics_clean", 6);
        clean_spec.obs = true;
        let clean = run_units(&clean_spec, work).unwrap();
        assert_eq!(
            resumed.recorder.counter("jobs.test_units_seen"),
            clean.recorder.counter("jobs.test_units_seen")
        );
        let rh = resumed.recorder.histogram("jobs.test_value").unwrap();
        let ch = clean.recorder.histogram("jobs.test_value").unwrap();
        assert_eq!(rh, ch, "histograms survive the checkpoint exactly");
        assert_eq!(resumed.counters.units_resumed, 3);
        assert_eq!(resumed.recorder.counter(metrics::JOBS_UNITS_RESUMED), 3);
        assert_eq!(
            resumed.recorder.counter(metrics::JOBS_CHECKPOINTS_LOADED),
            1
        );
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        for unit in 0..20 {
            for attempt in 1..8 {
                let a = backoff_delay(7, unit, attempt);
                let b = backoff_delay(7, unit, attempt);
                assert_eq!(a, b);
                assert!(a.as_millis() <= 32, "cap: {a:?}");
                assert!(a.as_millis() >= 1);
            }
        }
        assert_ne!(
            backoff_delay(7, 0, 3),
            backoff_delay(8, 0, 3),
            "jitter varies with seed"
        );
    }

    #[test]
    fn stream_key_golden_values() {
        // Pinned: chained-splitmix64 keying is part of the reproducibility
        // contract — a change here silently reschedules every chaos plan
        // and backoff draw.
        assert_eq!(stream_key(7, 0, 1), 0xA430_CC98_FAE9_246C);
        assert_eq!(stream_key(7, 3, 2), 0xFF50_7BE0_A6D1_AFE1);
        assert_eq!(stream_key(42, 17, 0), 0x3E6B_53F1_DBCF_5A8B);
        assert_eq!(stream_key(1234, 5, 4), 0x9B77_120E_899D_2309);
    }

    #[test]
    fn stream_key_does_not_alias_nearby_streams() {
        // The old plain-XOR keying let `seed ^ SALT ^ unit` for small
        // unit indices collide with other salted streams. Chained mixing
        // must keep every (unit, attempt) key distinct — and distinct
        // from the raw XOR draws it replaced.
        let mut seen = std::collections::BTreeSet::new();
        for unit in 0..64 {
            for attempt in 0..8 {
                let k = stream_key(9, unit, attempt);
                assert!(seen.insert(k), "alias at unit={unit} attempt={attempt}");
                assert_ne!(
                    k,
                    splitmix64(9 ^ JOBS_STREAM_SALT ^ unit as u64 ^ attempt as u64),
                    "chained key must not degenerate to the XOR scheme"
                );
            }
        }
    }

    #[test]
    fn rekeyed_draws_never_reach_checkpointed_results() {
        // Checkpoint/resume regression for the rekeying: draws feed only
        // backoff timing and chaos schedules, never unit results, so a
        // resumed run's results must stay identical to a clean run's.
        // (CKPT_VERSION is therefore intentionally unchanged.)
        let path = ckpt_path("rekey_results");
        let _ = std::fs::remove_file(&path);
        let clean = run_units(&spec("rekey-clean", 6), square).unwrap();
        let mut s = spec("rekey-resume", 6);
        s.checkpoint_path = Some(path.clone());
        s.checkpoint_every = 2;
        s.kill_after_checkpoints = Some(1);
        let cut = run_units(&s, square).unwrap();
        assert_eq!(cut.status, JobStatus::Interrupted);
        s.kill_after_checkpoints = None;
        s.resume = true;
        let resumed = run_units(&s, square).unwrap();
        assert_eq!(resumed.status, JobStatus::Completed);
        assert_eq!(resumed.results, clean.results);
    }

    #[test]
    fn chaos_plan_from_seed_is_deterministic() {
        let a = ChaosPlan::from_seed(42, 100, 100, 100, 50);
        let b = ChaosPlan::from_seed(42, 100, 100, 100, 50);
        for unit in 0..100 {
            assert_eq!(a.event(unit, 0), b.event(unit, 0));
        }
        assert!(!a.is_empty(), "some faults at 10%+10% over 100 units");
        assert!(a.len() < 100, "not every unit sabotaged");
    }

    #[test]
    fn zero_unit_job_completes_trivially() {
        let out = run_units(&spec("empty", 0), square).unwrap();
        assert_eq!(out.status, JobStatus::Completed);
        assert!(out.results.is_empty());
    }

    #[test]
    fn traced_job_merges_unit_and_bracket_events() {
        let mut s = spec("traced", 3);
        s.trace = true;
        let out = run_units_traced(&s, |unit, _rec, flight| {
            flight.begin(obs::trace::probe_ctx(unit, 0, 0));
            flight.log(0.0, Some(0), TraceEv::Inject { flow: unit as u64 });
            unit as u64
        })
        .unwrap();
        assert_eq!(out.status, JobStatus::Completed);
        let dump = FlightDump::parse(&out.flight.dump_string("traced")).unwrap();
        let counts = dump.counts_by_kind();
        assert_eq!(counts.get("inject"), Some(&3), "{counts:?}");
        assert_eq!(counts.get("unit_start"), Some(&3), "{counts:?}");
        assert_eq!(counts.get("unit_ok"), Some(&3), "{counts:?}");
        // Brackets sort last: SUPERVISOR_CTX is the maximal context.
        let last = dump.records.last().map(|r| r.ctx).unwrap();
        assert_eq!(last, SUPERVISOR_CTX);
    }

    #[test]
    fn untraced_job_flight_is_disabled_noop() {
        let out = run_units(&spec("untraced", 2), square).unwrap();
        assert!(!out.flight.is_enabled());
        assert!(out.flight.is_empty());
    }

    #[test]
    fn fatal_panic_dumps_flight_naming_the_failing_unit() {
        let dir = std::env::temp_dir().join("jobs-supervisor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fatal.flightrec.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut s = spec("fatal", 4);
        s.trace = true;
        s.max_attempts = 1;
        s.flight_path = Some(path.clone());
        s.chaos.inject(2, 0, ChaosEvent::Panic);
        match run_units_traced(&s, |unit, _rec, _flight| unit as u64) {
            Err(JobError::UnitFailed { unit: 2, .. }) => {}
            other => panic!("expected UnitFailed on unit 2, got {other:?}"),
        }
        // The dump reads back, and its final events are the supervisor
        // brackets of the failing unit.
        let dump = FlightDump::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.source, "fatal");
        let last = dump.records.last().unwrap();
        assert_eq!(
            (last.kind.as_str(), last.int("unit")),
            ("unit_panic", Some(2))
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupt_dumps_flight_for_forensics() {
        let dir = std::env::temp_dir().join("jobs-supervisor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sigint.flightrec.jsonl");
        let _ = std::fs::remove_file(&path);
        let (src, flag) = InterruptSource::manual();
        let mut s = spec("sigint", 5);
        s.trace = true;
        s.interrupt = src;
        s.flight_path = Some(path.clone());
        let out = run_units_traced(&s, move |unit, _rec, _flight| {
            if unit == 1 {
                flag.store(true, Ordering::SeqCst);
            }
            unit as u64
        })
        .unwrap();
        assert_eq!(out.status, JobStatus::Interrupted);
        let dump = FlightDump::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.counts_by_kind().get("interrupted"), Some(&1));
        let _ = std::fs::remove_file(&path);
    }
}
