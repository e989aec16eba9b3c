//! Pluggable rule-caching policies.
//!
//! Both flow-table implementations in the workspace — the discrete-step
//! [`FlowTable`](crate::FlowTable) and the continuous-time
//! [`ClockTable`](crate::ClockTable) that netsim's switches run —
//! delegate their eviction decision to a [`CachePolicy`]. The policy
//! sees only [`Candidate`] records, so one implementation serves both
//! tables, whose timers count in different units (steps vs. seconds).
//!
//! # Determinism contract
//!
//! Policies are pure functions of the candidate slice: no clocks, no
//! entropy, no hidden state mutation inside [`CachePolicy::victim`].
//! Candidates are always presented in **least-recently-used-first**
//! order, and every shipped policy breaks score ties toward the earlier
//! candidate — i.e. toward the least recently used entry, matching what
//! the pre-refactor tables did. Scores are compared with
//! [`f64::total_cmp`], so `NaN` cannot poison an ordering.
//!
//! # Slot handles
//!
//! [`Candidate::slot`] is the candidate's index in the table's
//! recency-ordered entry vector. The policy returns a *position in the
//! candidate slice*; the table maps it back through `slot`. The policy
//! never walks table internals and hears of no install, hit or expiry:
//! it only ranks the snapshot it is handed.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned by the fallible table constructors (`try_new`) when
/// the requested capacity is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError;

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow table capacity must be at least 1")
    }
}

impl std::error::Error for CapacityError {}

/// One eviction candidate, as presented to a [`CachePolicy`].
///
/// `remaining` and `ttl` share whatever time unit the owning table uses
/// (steps for the discrete table, seconds for the continuous ones);
/// policies may only rely on their ratio and relative order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The entry's index in the table's recency-ordered entry vector.
    pub slot: u32,
    /// Remaining lifetime until the entry would expire on its own.
    pub remaining: f64,
    /// The entry's full timeout duration (same unit as `remaining`).
    pub ttl: f64,
}

/// An eviction discipline for a rule cache: a pure ranking of the
/// candidate snapshot a full table hands it.
pub trait CachePolicy {
    /// Stable lowercase name (CLI / CSV / metric label).
    fn name(&self) -> &'static str;

    /// Picks the entry to evict from `candidates` (nonempty, presented
    /// least-recently-used-first) and returns its **index into the
    /// slice**. Must be deterministic; ties must break toward the
    /// earlier (less recently used) candidate.
    fn victim(&self, candidates: &[Candidate]) -> usize;
}

/// First index whose score is a *strict* minimum under `total_cmp`,
/// scanning in slice order — the shared tie-break kernel: candidates
/// arrive least-recent-first, so "first strict min" is exactly "ties
/// toward the least recently used".
fn first_strict_min(candidates: &[Candidate], score: impl Fn(&Candidate) -> f64) -> usize {
    let mut best = 0;
    let mut best_score = score(&candidates[0]);
    for (i, c) in candidates.iter().enumerate().skip(1) {
        let s = score(c);
        if s.total_cmp(&best_score) == std::cmp::Ordering::Less {
            best = i;
            best_score = s;
        }
    }
    best
}

/// The built-in cache policies, nameable from configs and the CLI.
///
/// This enum is the single home of the eviction logic that used to be
/// duplicated across the flow tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Shortest-remaining-time (Open vSwitch behavior, the paper's
    /// assumption): evict the entry closest to expiry.
    #[default]
    Srt,
    /// Least-recently-used: evict the entry whose last match is oldest,
    /// ignoring timers entirely.
    Lru,
    /// FDRC-style flow-driven policy (Li et al., arXiv:1803.04270):
    /// evict the entry whose timer has run down the most *relative to
    /// its own timeout* (`remaining / ttl`), i.e. whose flow looks most
    /// inactive for its class. Differs from SRT when timeouts differ.
    Fdrc,
}

impl PolicyKind {
    /// All built-in policies, in declaration order.
    #[must_use]
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::Srt, PolicyKind::Lru, PolicyKind::Fdrc]
    }

    /// Parses a policy name as accepted by `--policy`.
    #[must_use]
    pub fn parse(name: &str) -> Option<PolicyKind> {
        match name {
            "srt" => Some(PolicyKind::Srt),
            "lru" => Some(PolicyKind::Lru),
            "fdrc" => Some(PolicyKind::Fdrc),
            _ => None,
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(CachePolicy::name(self))
    }
}

impl CachePolicy for PolicyKind {
    fn name(&self) -> &'static str {
        match self {
            PolicyKind::Srt => "srt",
            PolicyKind::Lru => "lru",
            PolicyKind::Fdrc => "fdrc",
        }
    }

    fn victim(&self, candidates: &[Candidate]) -> usize {
        match self {
            PolicyKind::Srt => first_strict_min(candidates, |c| c.remaining),
            PolicyKind::Lru => 0,
            PolicyKind::Fdrc => first_strict_min(candidates, |c| {
                if c.ttl > 0.0 {
                    c.remaining / c.ttl
                } else {
                    0.0
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(slot: u32, remaining: f64, ttl: f64) -> Candidate {
        Candidate {
            slot,
            remaining,
            ttl,
        }
    }

    #[test]
    fn srt_picks_smallest_remaining() {
        let c = [cand(9, 5.0, 10.0), cand(4, 2.0, 10.0), cand(7, 3.0, 10.0)];
        assert_eq!(PolicyKind::Srt.victim(&c), 1);
    }

    #[test]
    fn srt_tie_breaks_toward_least_recent() {
        // Candidates are least-recent-first; equal scores keep the first.
        let c = [cand(2, 3.0, 10.0), cand(1, 3.0, 10.0), cand(0, 4.0, 10.0)];
        assert_eq!(PolicyKind::Srt.victim(&c), 0);
    }

    #[test]
    fn lru_always_picks_first() {
        let c = [cand(5, 9.0, 10.0), cand(3, 1.0, 10.0)];
        assert_eq!(PolicyKind::Lru.victim(&c), 0);
    }

    #[test]
    fn fdrc_normalizes_by_ttl() {
        // 4/20 = 0.2 beats 3/10 = 0.3: the long-timeout rule has burned
        // more of its budget proportionally even with more time left.
        let c = [cand(0, 3.0, 10.0), cand(1, 4.0, 20.0)];
        assert_eq!(PolicyKind::Fdrc.victim(&c), 1);
        // SRT on the same slice keeps the absolute ordering.
        assert_eq!(PolicyKind::Srt.victim(&c), 0);
    }

    #[test]
    fn fdrc_zero_ttl_is_immediately_evictable() {
        let c = [cand(0, 1.0, 10.0), cand(1, 0.0, 0.0)];
        assert_eq!(PolicyKind::Fdrc.victim(&c), 1);
    }

    #[test]
    fn parse_round_trips_names() {
        for p in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(CachePolicy::name(&p)), Some(p));
            assert_eq!(p.to_string(), CachePolicy::name(&p));
        }
        assert_eq!(PolicyKind::parse("fifo"), None);
        assert_eq!(PolicyKind::default(), PolicyKind::Srt);
    }

    #[test]
    fn capacity_error_message_names_the_floor() {
        assert!(CapacityError.to_string().contains("at least 1"));
    }
}
