//! Property tests pinning the [`CachePolicy`] refactor to the
//! pre-refactor eviction logic, under **every** [`PolicyKind`]:
//! [`FlowTable`] and [`ClockTable`] (the table netsim's switches run)
//! evictions vs. *verbatim* re-implementations of the historical victim
//! rules, computed independently from an entry snapshot taken before
//! each operation — SRT must match the old "smallest remaining, ties
//! toward least recent" scan bit-for-bit, and LRU / FDRC must match
//! their documented contracts under the same tie-break. The
//! `ClockTable` sequences interleave lookups with the installs, each
//! checked against the same snapshot.

use flowspace::{FlowId, FlowSet, Rule, RuleId, RuleSet, Timeout, TimeoutKind};
use ftcache::{Access, ClockEntry, ClockTable, Entry, FlowTable, PolicyKind, StepOutcome};
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use std::collections::BTreeSet;

const UNIVERSE: usize = 12;

fn rule_set(flow_sets: &[BTreeSet<u32>], timeouts: &[u32]) -> RuleSet {
    let n = flow_sets.len();
    RuleSet::new(
        flow_sets
            .iter()
            .enumerate()
            .map(|(i, flows)| {
                Rule::from_flow_set(
                    FlowSet::from_flows(UNIVERSE, flows.iter().map(|&f| FlowId(f))),
                    (n - i) as u32,
                    Timeout::idle(1 + timeouts[i % timeouts.len()]),
                )
            })
            .collect(),
        UNIVERSE,
    )
    .expect("distinct priorities by construction")
}

// ---- verbatim pre-refactor victim rules ----
//
// Both discrete tables kept entries most-recent-first and evicted by
// scanning for the minimum score, breaking ties toward the *deepest*
// (least recently used) index. The reference scans forward with `<=`
// so a later equal score wins — exactly the historical tie-break, and
// exactly what "least-recent-first candidates + first strict min"
// must reproduce.

fn ref_victim_discrete(entries: &[Entry], rules: &RuleSet, policy: PolicyKind) -> usize {
    let score = |e: &Entry| -> f64 {
        match policy {
            PolicyKind::Srt => f64::from(e.remaining),
            PolicyKind::Lru => 0.0, // score-free: deepest always wins
            PolicyKind::Fdrc => {
                let ttl = f64::from(rules.rule(e.rule).timeout().steps);
                if ttl > 0.0 {
                    f64::from(e.remaining) / ttl
                } else {
                    0.0
                }
            }
        }
    };
    let mut best = 0;
    for i in 1..entries.len() {
        if score(&entries[i]).total_cmp(&score(&entries[best])) != std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

fn ref_victim_clock(live: &[ClockEntry], now: f64, policy: PolicyKind) -> RuleId {
    let score = |e: &ClockEntry| -> f64 {
        match policy {
            PolicyKind::Srt => e.expiry - now,
            PolicyKind::Lru => 0.0,
            PolicyKind::Fdrc => {
                if e.ttl > 0.0 {
                    (e.expiry - now) / e.ttl
                } else {
                    0.0
                }
            }
        }
    };
    let mut best = 0;
    for i in 1..live.len() {
        if score(&live[i]).total_cmp(&score(&live[best])) != std::cmp::Ordering::Greater {
            best = i;
        }
    }
    live[best].rule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `FlowTable` eviction — via `advance` arrivals and
    /// `apply_probe` installs — picks exactly the entry the verbatim
    /// pre-refactor scan predicts from the pre-operation snapshot.
    #[test]
    fn flow_table_evictions_match_verbatim_reference(
        flow_sets in vec(btree_set(0u32..(UNIVERSE as u32), 1..=3), 2..=6),
        timeouts in vec(1u32..9, 1..=4),
        capacity in 1usize..=3,
        ops in vec((0u8..4, 0u32..(UNIVERSE as u32)), 1..120),
    ) {
        let rules = rule_set(&flow_sets, &timeouts);
        for policy in PolicyKind::all() {
            let mut table = FlowTable::with_policy(capacity, policy);
            for &(kind, f) in &ops {
                let snapshot: Vec<Entry> = table.entries().to_vec();
                let full = table.is_full();
                let evicted = match kind {
                    0..=1 => match table.advance(Some(FlowId(f)), &rules) {
                        StepOutcome::Arrival(Access::Install { evicted, .. }) => evicted,
                        _ => None,
                    },
                    2 => match table.apply_probe(FlowId(f), &rules) {
                        Access::Install { evicted, .. } => evicted,
                        _ => None,
                    },
                    _ => {
                        table.advance(None, &rules);
                        None
                    }
                };
                if let Some(victim) = evicted {
                    prop_assert!(full);
                    let want = snapshot[ref_victim_discrete(&snapshot, &rules, policy)].rule;
                    prop_assert_eq!(victim, want, "policy {}", policy);
                }
            }
        }
    }

    /// Every `ClockTable` eviction picks exactly the live entry the
    /// verbatim pre-refactor scan predicts at the install's timestamp,
    /// and every lookup interleaved with those installs returns the
    /// minimum-id live cover of the pre-lookup snapshot. After each op
    /// the hit or installed entry leads the recency order — an idle hit
    /// re-armed to `now + ttl`, a hard hit with its deadline unchanged —
    /// ahead of every other live entry in its old order.
    #[test]
    fn clock_table_evictions_match_verbatim_reference(
        flow_sets in vec(btree_set(0u32..(UNIVERSE as u32), 1..=3), 2..=8),
        capacity in 1usize..=3,
        ops in vec((0u8..4, 0u32..64, 0.0f64..1.0), 1..120),
    ) {
        let rules = rule_set(&flow_sets, &[4]);
        for policy in PolicyKind::all() {
            let mut table = ClockTable::with_policy(capacity, policy);
            let mut now = 0.0f64;
            for &(kind, sel, a) in &ops {
                now += a * 1.5;
                let live: Vec<ClockEntry> = table.entries_at(now).copied().collect();
                let (front, evicted) = if kind % 4 < 2 {
                    let f = FlowId(sel % UNIVERSE as u32);
                    let hit = live
                        .iter()
                        .filter(|e| rules.rule(e.rule).covers_flow(f))
                        .min_by_key(|e| e.rule.0)
                        .copied();
                    prop_assert_eq!(
                        table.lookup(f, now, &rules),
                        hit.map(|e| e.rule),
                        "policy {}",
                        policy
                    );
                    let front = hit.map(|e| match e.kind {
                        TimeoutKind::Idle => ClockEntry { expiry: now + e.ttl, ..e },
                        TimeoutKind::Hard => e,
                    });
                    (front, None)
                } else {
                    let rule = RuleId(sel as usize % rules.len());
                    let ttl = 0.1 + f64::from(sel % 8) * 0.4;
                    let tk = if sel % 16 < 8 { TimeoutKind::Idle } else { TimeoutKind::Hard };
                    let fresh = !live.iter().any(|e| e.rule == rule);
                    let evicted = table.install(rule, ttl, tk, now);
                    if fresh && live.len() == capacity {
                        prop_assert_eq!(
                            evicted,
                            Some(ref_victim_clock(&live, now, policy)),
                            "policy {}",
                            policy
                        );
                    } else {
                        prop_assert_eq!(evicted, None, "policy {}", policy);
                    }
                    (Some(ClockEntry { rule, expiry: now + ttl, ttl, kind: tk }), evicted)
                };
                let moved = front.map(|e| e.rule);
                let want: Vec<ClockEntry> = front
                    .into_iter()
                    .chain(
                        live.iter()
                            .filter(|e| Some(e.rule) != moved && Some(e.rule) != evicted)
                            .copied(),
                    )
                    .collect();
                let got: Vec<ClockEntry> = table.entries_at(now).copied().collect();
                prop_assert_eq!(got, want, "policy {}", policy);
            }
        }
    }
}
