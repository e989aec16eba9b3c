//! Execution policy, run statistics, and the deterministic fan-out helper
//! shared by the trial engine, the sweeps and the probe-evaluation
//! engine.
//!
//! Monte-Carlo evaluation (§VI) runs hundreds of independent trials per
//! configuration, and probe selection (§V) scores dozens of independent
//! candidate probes. In both cases each work item is a pure function of
//! its index — trial RNG streams derive purely from
//! `(seed, trial index, attacker index)`, and a candidate probe's
//! information gain depends only on the cached evolved distributions — so
//! the batch can be distributed across worker threads with
//! **bit-identical** results to a serial run. [`ExecPolicy`] selects how
//! that work is scheduled; [`map_indexed`] performs the index-ordered
//! fan-out/reduction; [`RunStats`] reports what it cost.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
// detlint::allow(D2): RunStats reports wall-clock throughput to the user;
// the measured time never feeds back into any result.
use std::time::Instant;

/// Environment variable consulted by [`ExecPolicy::from_env`]: a thread
/// count, or `auto`/`0` for one thread per available core.
pub const THREADS_ENV_VAR: &str = "FLOW_RECON_THREADS";

/// How a batch of independent work items (trials, sweep points, candidate
/// probes) is scheduled.
///
/// The policy never affects results, only wall time: parallel execution
/// is bit-identical to [`ExecPolicy::Serial`] at the same seed (see the
/// determinism contract in `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecPolicy {
    /// Run every item on the calling thread, in index order.
    Serial,
    /// Distribute items across `threads` scoped worker threads.
    Parallel {
        /// Worker thread count (values ≤ 1 behave like `Serial`).
        threads: usize,
    },
}

impl ExecPolicy {
    /// One thread per available core (`Serial` on single-core hosts).
    #[must_use]
    pub fn auto() -> Self {
        let cores = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(cores)
    }

    /// A policy using exactly `threads` workers (`Serial` if ≤ 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        if threads <= 1 {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel { threads }
        }
    }

    /// Reads [`THREADS_ENV_VAR`], falling back to [`ExecPolicy::auto`]
    /// when unset.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set to something other than a thread
    /// count or `auto` — a misconfigured run should fail loudly, not
    /// silently change shape.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV_VAR) {
            Ok(raw) => Self::parse(&raw).unwrap_or_else(|| {
                panic!("invalid {THREADS_ENV_VAR}=`{raw}`: expected a thread count or `auto`")
            }),
            Err(_) => Self::auto(),
        }
    }

    /// Parses a thread-count argument: a positive integer, or `auto`/`0`
    /// for [`ExecPolicy::auto`]. Returns `None` on anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("auto") {
            return Some(Self::auto());
        }
        match s.parse::<usize>() {
            Ok(0) => Some(Self::auto()),
            Ok(n) => Some(Self::with_threads(n)),
            Err(_) => None,
        }
    }

    /// The number of worker threads this policy schedules on.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { threads } => threads.max(1),
        }
    }

    /// Threads actually worth spawning for `work_items` items.
    #[must_use]
    pub fn effective_threads(self, work_items: usize) -> usize {
        self.threads().min(work_items.max(1))
    }
}

impl fmt::Display for ExecPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecPolicy::Serial => write!(f, "serial"),
            ExecPolicy::Parallel { threads } => write!(f, "parallel({threads})"),
        }
    }
}

/// Evaluates `f(0), f(1), …, f(n - 1)` under `policy` and returns the
/// results in index order. This is the crate family's one thread pool:
/// probe scoring, the trial engine's chunks and sweep points all fan out
/// through it.
///
/// Each invocation of `f` must be a pure function of its index — workers
/// pull indices from a shared cursor, so the *schedule* is
/// non-deterministic while the returned `Vec` is always identical to the
/// serial `(0..n).map(f).collect()`. Any order-sensitive reduction
/// (tie-breaking argmax folds, first-error-wins scans) therefore stays
/// with the caller, running serially over this index-ordered output —
/// that is what keeps parallel runs bit-identical to serial ones.
///
/// # Panics
///
/// If `f` panics on a worker, every worker is joined and the first
/// worker's panic resumes on the calling thread with its original
/// payload.
pub fn map_indexed<T, F>(policy: ExecPolicy, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = policy.effective_threads(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    // A poisoned lock only means another worker panicked
                    // mid-store; that panic is re-raised below, so
                    // writing through the poison is sound — and keeps
                    // this hot path free of panic branches.
                    slots
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(value);
                })
            })
            .collect();
        // Join every worker first, then re-raise the first panic with its
        // original payload: the job supervisor's `catch_unwind` one layer
        // up reports that payload in `WorkerFailure::Panic`, so the root
        // cause must survive the thread boundary.
        let mut panicked = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("every index filled"))
        .collect()
}

/// Wall-clock accounting for one batch of trials.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Trials executed (summed over every batch measured).
    pub trials: u64,
    /// Worker threads the policy scheduled on.
    pub threads: usize,
    /// Elapsed wall time in seconds.
    pub wall_secs: f64,
}

impl RunStats {
    /// Runs `f`, timing it as `trials` trials under `policy`.
    pub fn measure<T>(policy: ExecPolicy, trials: usize, f: impl FnOnce() -> T) -> (T, RunStats) {
        // detlint::allow(D2): throughput accounting only; see module note.
        let start = Instant::now();
        let out = f();
        let stats = RunStats {
            trials: trials as u64,
            threads: policy.threads(),
            wall_secs: start.elapsed().as_secs_f64(),
        };
        (out, stats)
    }

    /// Throughput in trials per second (infinite for a zero-time run).
    #[must_use]
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.trials as f64 / self.wall_secs
        } else {
            f64::INFINITY
        }
    }

    /// Folds another measurement into this one (trials and wall time
    /// add; the thread count must match).
    pub fn absorb(&mut self, other: &RunStats) {
        debug_assert_eq!(
            self.threads, other.threads,
            "mixing thread counts in one stat"
        );
        self.trials += other.trials;
        self.wall_secs += other.wall_secs;
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trials in {:.3} s on {} thread{} ({:.1} trials/s)",
            self.trials,
            self.wall_secs,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.trials_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_collapses_to_serial() {
        assert_eq!(ExecPolicy::with_threads(0), ExecPolicy::Serial);
        assert_eq!(ExecPolicy::with_threads(1), ExecPolicy::Serial);
        assert_eq!(
            ExecPolicy::with_threads(4),
            ExecPolicy::Parallel { threads: 4 }
        );
    }

    #[test]
    fn parse_accepts_counts_and_auto() {
        assert_eq!(ExecPolicy::parse("1"), Some(ExecPolicy::Serial));
        assert_eq!(
            ExecPolicy::parse("8"),
            Some(ExecPolicy::Parallel { threads: 8 })
        );
        assert_eq!(
            ExecPolicy::parse(" 2 "),
            Some(ExecPolicy::Parallel { threads: 2 })
        );
        assert_eq!(ExecPolicy::parse("auto"), Some(ExecPolicy::auto()));
        assert_eq!(ExecPolicy::parse("0"), Some(ExecPolicy::auto()));
        assert_eq!(ExecPolicy::parse("many"), None);
        assert_eq!(ExecPolicy::parse("-3"), None);
    }

    #[test]
    fn effective_threads_never_exceeds_work() {
        let p = ExecPolicy::Parallel { threads: 8 };
        assert_eq!(p.effective_threads(3), 3);
        assert_eq!(p.effective_threads(100), 8);
        assert_eq!(p.effective_threads(0), 1);
        assert_eq!(ExecPolicy::Serial.effective_threads(100), 1);
    }

    #[test]
    fn map_indexed_matches_serial_at_any_thread_count() {
        let expected: Vec<u64> = (0..100).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::Parallel { threads: 2 },
            ExecPolicy::Parallel { threads: 8 },
        ] {
            let got = map_indexed(policy, 100, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(got, expected, "policy {policy}");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_excess_threads() {
        let empty: Vec<usize> = map_indexed(ExecPolicy::Parallel { threads: 8 }, 0, |i| i);
        assert!(empty.is_empty());
        let few = map_indexed(ExecPolicy::Parallel { threads: 8 }, 2, |i| i * 3);
        assert_eq!(few, vec![0, 3]);
    }

    #[test]
    fn map_indexed_reraises_the_worker_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(ExecPolicy::Parallel { threads: 4 }, 16, |i| {
                assert!(i != 7, "item {i} failed");
                i
            })
        });
        let payload = caught.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("item 7 failed"));
    }

    #[test]
    fn stats_report_throughput() {
        let s = RunStats {
            trials: 100,
            threads: 2,
            wall_secs: 4.0,
        };
        assert_eq!(s.trials_per_sec(), 25.0);
        let mut total = s;
        total.absorb(&RunStats {
            trials: 60,
            threads: 2,
            wall_secs: 1.0,
        });
        assert_eq!(total.trials, 160);
        assert_eq!(total.wall_secs, 5.0);
        assert!(format!("{total}").contains("160 trials"));
        assert!(RunStats {
            trials: 5,
            threads: 1,
            wall_secs: 0.0
        }
        .trials_per_sec()
        .is_infinite());
    }

    #[test]
    fn measure_wraps_a_closure() {
        let (value, stats) = RunStats::measure(ExecPolicy::Serial, 7, || 42);
        assert_eq!(value, 42);
        assert_eq!(stats.trials, 7);
        assert_eq!(stats.threads, 1);
        assert!(stats.wall_secs >= 0.0);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(format!("{}", ExecPolicy::Serial), "serial");
        assert_eq!(
            format!("{}", ExecPolicy::Parallel { threads: 3 }),
            "parallel(3)"
        );
    }
}
