//! Cooperative interruption: SIGINT/SIGTERM → a flag the supervisor
//! polls at unit boundaries.
//!
//! The handler does the only async-signal-safe thing possible — it sets
//! a static `AtomicBool`. Everything else (flushing checkpoints,
//! writing partial CSVs, marking the manifest `interrupted`) happens on
//! the normal control path when the supervisor next observes the flag.
//!
//! Tests never touch the process-global flag: they hand the supervisor
//! an [`InterruptSource::Manual`] flag of their own, so parallel test
//! threads cannot interrupt each other.

// The one `unsafe` in the workspace's first-party code: binding libc's
// `signal(2)` without a libc crate. The handler body is a single atomic
// store, which is async-signal-safe.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};

/// Set by the signal handler; read by [`InterruptSource::Global`].
static GLOBAL_INTERRUPT: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    extern "C" {
        /// POSIX `signal(2)`. The return value (previous handler) is
        /// ignored; these handlers are installed once and never removed.
        pub fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    GLOBAL_INTERRUPT.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that set the global interrupt flag.
/// Idempotent; a no-op on non-unix platforms. Experiment binaries call
/// this once at startup so Ctrl-C degrades a run gracefully instead of
/// killing it mid-write.
pub fn install_signal_handlers() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        #[cfg(unix)]
        unsafe {
            sys::signal(sys::SIGINT, on_signal);
            sys::signal(sys::SIGTERM, on_signal);
        }
    });
}

/// Whether the process-global interrupt flag is set (for callers outside
/// a job, e.g. a binary deciding its exit code).
#[must_use]
pub fn interrupted() -> bool {
    GLOBAL_INTERRUPT.load(Ordering::SeqCst)
}

/// Where a job looks for its "stop now" signal.
#[derive(Debug, Clone, Default)]
pub enum InterruptSource {
    /// The process-global flag set by SIGINT/SIGTERM — what binaries use.
    Global,
    /// Never interrupted (benchmarks, determinism gates).
    #[default]
    Never,
    /// A caller-owned flag — what tests use, so concurrent tests cannot
    /// interrupt each other through the global flag.
    Manual(Arc<AtomicBool>),
}

impl InterruptSource {
    /// A fresh [`InterruptSource::Manual`] and its flag.
    // detlint::allow(D10): test double, the supervisor tests raise it instead of the process-wide flag
    #[must_use]
    pub fn manual() -> (Self, Arc<AtomicBool>) {
        let flag = Arc::new(AtomicBool::new(false));
        (InterruptSource::Manual(Arc::clone(&flag)), flag)
    }

    /// Whether the interrupt is raised.
    #[must_use]
    pub fn is_set(&self) -> bool {
        match self {
            InterruptSource::Global => interrupted(),
            InterruptSource::Never => false,
            InterruptSource::Manual(flag) => flag.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_is_never_set() {
        assert!(!InterruptSource::Never.is_set());
    }

    #[test]
    fn manual_flag_raises_and_is_isolated() {
        let (src, flag) = InterruptSource::manual();
        let (other, _other_flag) = InterruptSource::manual();
        assert!(!src.is_set());
        flag.store(true, Ordering::SeqCst);
        assert!(src.is_set());
        assert!(!other.is_set(), "manual sources are independent");
    }

    #[test]
    fn install_is_idempotent() {
        install_signal_handlers();
        install_signal_handlers();
        // Installing handlers must not, by itself, raise the flag.
        // (Another test may have received a real signal in theory, but
        // nothing in the suite sends one to the whole process.)
        let _ = interrupted();
    }
}
