//! A thread-local recorder for instrumenting call sites whose
//! signatures cannot reasonably grow a `&mut Recorder` parameter
//! (the planner's internals, deep in `core`).
//!
//! The harness installs an enabled recorder on the main thread before
//! planning, and takes it back afterwards. Worker threads spawned by
//! the trial engine never install one — they thread an explicit
//! recorder through `attack::TrialRun::run_observed` instead — so the thread-local
//! stays disabled there and every call below is a cheap no-op.

use crate::recorder::Recorder;
use crate::walltime::WallSpan;
use std::cell::RefCell;

thread_local! {
    static LOCAL: RefCell<Recorder> = RefCell::new(Recorder::disabled());
}

/// Installs `r` as this thread's recorder, returning the previous one.
pub fn install(r: Recorder) -> Recorder {
    LOCAL.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), r))
}

/// Removes and returns this thread's recorder, leaving a disabled one.
pub fn take() -> Recorder {
    install(Recorder::disabled())
}

/// Whether this thread currently has an enabled recorder installed.
#[must_use]
pub fn is_active() -> bool {
    LOCAL.with(|cell| cell.try_borrow().map(|r| r.is_enabled()).unwrap_or(false))
}

/// Runs `f` against this thread's recorder if one is installed and
/// enabled. Skipped entirely (no closure call) when disabled or when
/// the recorder is already borrowed by an enclosing `with`.
pub fn with(f: impl FnOnce(&mut Recorder)) {
    LOCAL.with(|cell| {
        if let Ok(mut r) = cell.try_borrow_mut() {
            if r.is_enabled() {
                f(&mut r);
            }
        }
    });
}

/// Runs `f`, recording its wall-clock duration into the named histogram
/// of this thread's recorder. When no recorder is active the clock is
/// never read and `f` runs directly — zero overhead beyond the
/// thread-local check.
pub fn time<T>(metric: &str, f: impl FnOnce() -> T) -> T {
    if !is_active() {
        return f();
    }
    let span = WallSpan::begin();
    let out = f();
    let elapsed = span.elapsed_secs();
    with(|r| r.observe(metric, elapsed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_time_is_transparent() {
        assert!(!is_active());
        let v = time("m", || 41 + 1);
        assert_eq!(v, 42);
        assert!(take().is_empty());
    }

    #[test]
    fn install_take_round_trip() {
        let prev = install(Recorder::enabled());
        assert!(prev.is_empty());
        assert!(is_active());
        with(|r| r.add("x", 3));
        let got = take();
        assert!(!is_active());
        assert_eq!(got.counter("x"), 3);
    }

    #[test]
    fn time_records_into_installed_recorder() {
        install(Recorder::enabled());
        let v = time("dur", || "done");
        assert_eq!(v, "done");
        let r = take();
        let h = r.histogram("dur").expect("span histogram recorded");
        assert_eq!(h.count(), 1);
    }
}
