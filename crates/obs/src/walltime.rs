//! Wall-clock spans — the only `obs` module allowed to read the OS
//! clock.
//!
//! This file is on detlint's D2 `WALLCLOCK_ALLOWLIST`; using
//! `std::time::Instant` anywhere else in `obs` (or in the deterministic
//! crates) is a lint failure, with a fixture test in
//! `crates/detlint/tests/rules.rs` pinning exactly that. Keep every
//! wall-clock read behind this module so the boundary stays auditable.

use std::time::Instant;

/// A wall-clock duration measurement for harness-level metrics
/// (experiment elapsed time, planner CPU cost). Never used on the
/// deterministic simulation path — virtual-time spans
/// ([`TraceEv::Span`](crate::TraceEv::Span)) cover that.
#[derive(Debug, Clone, Copy)]
pub struct WallSpan {
    start: Instant,
}

impl WallSpan {
    /// Starts the clock.
    #[must_use]
    pub fn begin() -> Self {
        WallSpan {
            start: Instant::now(),
        }
    }

    /// Elapsed wall-clock seconds since [`WallSpan::begin`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::WallSpan;

    #[test]
    fn elapsed_is_nonnegative_and_monotone() {
        let s = WallSpan::begin();
        let a = s.elapsed_secs();
        let b = s.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
