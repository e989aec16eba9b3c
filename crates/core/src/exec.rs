//! Execution policy and the deterministic fan-out helper shared by the
//! trial engine and the probe-evaluation engine.
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
//! fan-out/reduction.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted by [`ExecPolicy::from_env`]: a thread
/// count, or `auto`/`0` for one thread per available core.
pub const THREADS_ENV_VAR: &str = "FLOW_RECON_THREADS";

/// A [`THREADS_ENV_VAR`] value that is neither a thread count nor
/// `auto` (the value is kept).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsEnvError(pub String);

impl fmt::Display for ThreadsEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {THREADS_ENV_VAR}=`{}`: expected a thread count or `auto`",
            self.0
        )
    }
}

impl std::error::Error for ThreadsEnvError {}

/// How a batch of independent work items (trials, candidate probes) is
/// scheduled.
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
    /// when unset. The one reader of the variable, for the CLI and the
    /// experiment programs alike.
    ///
    /// # Errors
    ///
    /// [`ThreadsEnvError`] when the variable is set to something other
    /// than a thread count or `auto`: a misconfigured run should fail
    /// loudly, not silently change shape.
    pub fn from_env() -> Result<Self, ThreadsEnvError> {
        match std::env::var(THREADS_ENV_VAR) {
            Ok(raw) => Self::parse(&raw).ok_or(ThreadsEnvError(raw)),
            Err(_) => Ok(Self::auto()),
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
/// probe scoring and the trial engine's chunks fan out through it.
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
    fn display_formats_are_stable() {
        assert_eq!(format!("{}", ExecPolicy::Serial), "serial");
        assert_eq!(
            format!("{}", ExecPolicy::Parallel { threads: 3 }),
            "parallel(3)"
        );
    }
}
