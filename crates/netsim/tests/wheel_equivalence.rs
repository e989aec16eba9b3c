//! Property tests pinning the timing-wheel layer to obviously-correct
//! references:
//!
//! * [`TimerWheel`] vs. a lazy-deletion binary heap ordered by the
//!   wheel's documented `(tick, seq)` contract, over random
//!   schedule / cancel / re-arm / expire sequences — including
//!   same-tick collisions (coarse tick) and the beyond-horizon
//!   overflow path (deadlines past 2^36 ticks).
//! * [`EventQueue`] (a monotone FIFO run plus a binary heap) vs. a
//!   verbatim `BinaryHeap` min-heap over `(time, push-seq)` — the
//!   scheduler the simulator started with — with pushes at or before
//!   the last popped time, exact ties, and non-decreasing runs broken
//!   by pushes earlier than their tail.
//! * [`FlowStore`] vs. the reference `ftcache::ClockTable` it
//!   replaced, over random lookup / install sequences.
//!
//! Every comparison is bit-exact: deadlines are compared via
//! `f64::to_bits`, orders element-by-element.

use ftcache::ClockTable;
use netsim::wheel::Expired;
use netsim::{CoverIndex, EventQueue, FlowStore, TimerId, TimerWheel};
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use std::cmp::{Ordering, Reverse};
use std::collections::BTreeSet;
use std::collections::BinaryHeap;

// ---- reference scheduler: lazy-deletion binary heap in (tick, seq) ----

struct RefEntry {
    deadline: f64,
    tick: u64,
    seq: u64,
    value: u32,
    alive: bool,
}

/// Binary-heap model of the wheel's contract: expiry removes exactly
/// the live timers with `deadline <= now`, ordered by `(tick, seq)`,
/// where `tick = max(tick_of(deadline), cursor at schedule time)` and
/// the cursor is `max` over every `tick_of(now)` seen so far.
struct HeapRef {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    entries: Vec<RefEntry>,
    seq: u64,
    cur: u64,
    tick_secs: f64,
}

impl HeapRef {
    fn new(tick_secs: f64) -> Self {
        HeapRef {
            heap: BinaryHeap::new(),
            entries: Vec::new(),
            seq: 0,
            cur: 0,
            tick_secs,
        }
    }

    fn tick_of(&self, deadline: f64) -> u64 {
        let t = deadline / self.tick_secs;
        if t <= 0.0 {
            0
        } else {
            t as u64
        }
    }

    fn schedule(&mut self, deadline: f64, value: u32) -> usize {
        self.seq += 1;
        let tick = self.tick_of(deadline).max(self.cur);
        let id = self.entries.len();
        self.entries.push(RefEntry {
            deadline,
            tick,
            seq: self.seq,
            value,
            alive: true,
        });
        self.heap.push(Reverse((tick, self.seq, id)));
        id
    }

    fn cancel(&mut self, id: usize) -> Option<u32> {
        let e = &mut self.entries[id];
        if !e.alive {
            return None;
        }
        e.alive = false;
        Some(e.value)
    }

    fn reschedule(&mut self, id: usize, deadline: f64) -> bool {
        if !self.entries[id].alive {
            return false;
        }
        self.seq += 1;
        let tick = self.tick_of(deadline).max(self.cur);
        let e = &mut self.entries[id];
        e.deadline = deadline;
        e.tick = tick;
        e.seq = self.seq;
        self.heap.push(Reverse((tick, self.seq, id)));
        true
    }

    /// Pops the heap in `(tick, seq)` order, keeping the due entries
    /// and re-pushing the rest (stale keys from cancels and re-arms
    /// are discarded as they surface).
    fn expire(&mut self, now: f64) -> Vec<(u64, u64, u64, u32)> {
        let mut due = Vec::new();
        let mut keep = Vec::new();
        while let Some(Reverse((tick, seq, id))) = self.heap.pop() {
            let e = &self.entries[id];
            if !e.alive || e.seq != seq {
                continue; // lazy-deleted
            }
            if e.deadline <= now {
                due.push((e.deadline.to_bits(), tick, seq, e.value));
                self.entries[id].alive = false;
            } else {
                keep.push(Reverse((tick, seq, id)));
            }
        }
        self.heap.extend(keep);
        self.cur = self.cur.max(self.tick_of(now));
        due
    }

    fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.alive).count()
    }
}

fn expired_key(e: &Expired<u32>) -> (u64, u64, u64, u32) {
    (e.deadline.to_bits(), e.tick, e.seq, e.value)
}

/// Interprets an op tape against both schedulers and checks every
/// observable output matches bit-for-bit. `deadline(sel, a)` maps the
/// raw draw to a deadline/now value, so callers choose the regime.
fn check_wheel_vs_heap(
    tick_secs: f64,
    ops: &[(u8, u32, f64)],
    deadline: impl Fn(u32, f64) -> f64,
    final_now: f64,
) -> Result<(), TestCaseError> {
    let mut wheel: TimerWheel<u32> = TimerWheel::with_tick(tick_secs);
    let mut reference = HeapRef::new(tick_secs);
    let mut wheel_ids: Vec<TimerId> = Vec::new();
    let mut ref_ids: Vec<usize> = Vec::new();
    let mut out: Vec<Expired<u32>> = Vec::new();
    let mut next_value = 0u32;

    for &(kind, sel, a) in ops {
        match kind % 8 {
            // schedule (weight 3)
            0..=2 => {
                let d = deadline(sel, a);
                wheel_ids.push(wheel.schedule(d, next_value));
                ref_ids.push(reference.schedule(d, next_value));
                next_value += 1;
            }
            // cancel (weight 1); may target stale handles
            3 => {
                if wheel_ids.is_empty() {
                    continue;
                }
                let i = sel as usize % wheel_ids.len();
                let got = wheel.cancel(wheel_ids[i]);
                let want = reference.cancel(ref_ids[i]);
                prop_assert_eq!(got, want, "cancel of handle {} diverged", i);
            }
            // re-arm (weight 2); may target stale handles
            4 | 5 => {
                if wheel_ids.is_empty() {
                    continue;
                }
                let i = sel as usize % wheel_ids.len();
                let d = deadline(sel, a);
                let got = wheel.reschedule(wheel_ids[i], d);
                let want = reference.reschedule(ref_ids[i], d);
                prop_assert_eq!(got, want, "reschedule of handle {} diverged", i);
            }
            // expire (weight 2)
            _ => {
                let now = deadline(sel, a);
                out.clear();
                wheel.expire_until(now, &mut out);
                let got: Vec<_> = out.iter().map(expired_key).collect();
                let want = reference.expire(now);
                prop_assert_eq!(got, want, "expiry stream diverged at now = {}", now);
                prop_assert_eq!(wheel.len(), reference.len());
            }
        }
    }

    // Drain everything still pending and check the tail agrees too.
    out.clear();
    wheel.expire_until(final_now, &mut out);
    let got: Vec<_> = out.iter().map(expired_key).collect();
    let want = reference.expire(final_now);
    prop_assert_eq!(got, want, "final drain diverged");
    prop_assert_eq!(wheel.len(), reference.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Default tick: deadlines span three regimes — a 64-tick window
    /// (same-tick collisions), a mid range, and 1e7 s, which is beyond
    /// the 2^36-tick horizon (~4.2e6 s) and exercises the overflow
    /// bucket plus boundary rescans when expiry sweeps that far.
    #[test]
    fn wheel_matches_heap_reference_with_overflow(
        ops in vec((0u8..8, 0u32..4096, 0.0f64..1.0), 1..200),
    ) {
        let tick = TimerWheel::<u32>::new().tick_secs();
        check_wheel_vs_heap(
            tick,
            &ops,
            |sel, a| match sel % 3 {
                0 => a * 64.0 * tick,
                1 => a * 1000.0,
                _ => a * 1.0e7,
            },
            2.0e7,
        )?;
    }

    /// Coarse quarter-second tick: nearly every deadline collides with
    /// others in its tick, so ordering is dominated by the quantized
    /// `(tick, seq)` contract rather than raw deadlines.
    #[test]
    fn wheel_matches_heap_reference_under_heavy_collisions(
        ops in vec((0u8..8, 0u32..4096, 0.0f64..1.0), 1..200),
    ) {
        check_wheel_vs_heap(0.25, &ops, |_, a| a * 100.0, 200.0)?;
    }
}

// ---- EventQueue vs the verbatim (time, seq) binary heap ----

struct QueueEv {
    time: f64,
    seq: u64,
    value: u32,
}

impl PartialEq for QueueEv {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueueEv {}
impl Ord for QueueEv {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversal, ties broken by push order.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueueEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The event queue's pop stream is byte-identical to the binary
    /// heap, including events pushed at or before the time of an event
    /// already popped, exact-tie times from a coarse grid, and
    /// non-decreasing runs — with exact ties to the run's last time —
    /// broken by pushes earlier than the run's tail. The runs exercise
    /// the queue's split: a push at or after its run's last time joins
    /// the run, any other goes to the heap, and pops interleave both.
    #[test]
    fn event_queue_matches_binary_heap(
        ops in vec((0u8..4, 0u32..64, 0.0f64..1.0), 1..300),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut heap: BinaryHeap<QueueEv> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut next_value = 0u32;
        let mut last_pop = 0.0f64;
        // Last time of the non-decreasing push run (sel % 8 == 1 | 5).
        let mut run_tail = 0.0f64;
        for &(kind, sel, a) in &ops {
            if kind % 4 < 3 {
                let time = match sel % 8 {
                    // Near (possibly before) the last popped time.
                    0 | 4 => (last_pop - 0.5 + a).max(0.0),
                    // Extend the run: an exact tie with its tail a
                    // quarter of the time, else a step forward.
                    1 | 5 => {
                        if a >= 0.25 {
                            run_tail += a * 0.5;
                        }
                        run_tail
                    }
                    // Break the run: earlier than its tail.
                    3 => (run_tail - 0.01 - a).max(0.0),
                    // Grid times force ties.
                    _ => f64::from(sel % 16) * 0.25,
                };
                seq += 1;
                queue.push(time, next_value);
                heap.push(QueueEv { time, seq, value: next_value });
                next_value += 1;
            } else {
                prop_assert_eq!(
                    queue.peek_time().map(f64::to_bits),
                    heap.peek().map(|e| e.time.to_bits()),
                );
                let got = queue.pop();
                let want = heap.pop().map(|e| (e.time, e.value));
                prop_assert_eq!(
                    got.map(|(t, v)| (t.to_bits(), v)),
                    want.map(|(t, v)| (t.to_bits(), v)),
                );
                if let Some((t, _)) = want {
                    last_pop = t;
                }
            }
            prop_assert_eq!(queue.len(), heap.len());
        }
        // Drain the tails in lockstep.
        loop {
            let got = queue.pop();
            let want = heap.pop().map(|e| (e.time, e.value));
            prop_assert_eq!(
                got.map(|(t, v)| (t.to_bits(), v)),
                want.map(|(t, v)| (t.to_bits(), v)),
            );
            if want.is_none() {
                break;
            }
        }
    }
}

// ---- FlowStore vs the reference ClockTable ----

use flowspace::{FlowId, FlowSet, Rule, RuleId, RuleSet, Timeout, TimeoutKind};

const UNIVERSE: usize = 12;

fn rule_set(flow_sets: &[BTreeSet<u32>]) -> RuleSet {
    let n = flow_sets.len();
    RuleSet::new(
        flow_sets
            .iter()
            .enumerate()
            .map(|(i, flows)| {
                Rule::from_flow_set(
                    FlowSet::from_flows(UNIVERSE, flows.iter().map(|&f| FlowId(f))),
                    (n - i) as u32,
                    Timeout::idle(10),
                )
            })
            .collect(),
        UNIVERSE,
    )
    .expect("distinct priorities by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The slab-backed flow store replicates the reference clock table
    /// observation-for-observation: lookup results (including idle
    /// re-arms and recency moves), install return values (including
    /// shortest-lifetime eviction with least-recent tie-breaks), live
    /// counts, and the recency-ordered rule list.
    #[test]
    fn flow_store_matches_clock_table(
        flow_sets in vec(btree_set(0u32..(UNIVERSE as u32), 1..=3), 1..=6),
        capacity in 1usize..=4,
        ops in vec((0u8..4, 0u32..64, 0.0f64..1.0), 1..150),
    ) {
        let rules = rule_set(&flow_sets);
        let cover = CoverIndex::build(&rules);
        let mut store = FlowStore::new(capacity, rules.len());
        let mut table = ClockTable::new(capacity);
        let mut now = 0.0f64;
        for &(kind, sel, a) in &ops {
            now += a * 1.5; // non-decreasing, crosses TTL boundaries
            if kind % 4 < 2 {
                let f = FlowId(sel % UNIVERSE as u32);
                prop_assert_eq!(
                    store.lookup(f, now, &cover),
                    table.lookup(f, now, &rules),
                );
            } else {
                let rule = RuleId(sel as usize % rules.len());
                let ttl = 0.1 + f64::from(sel % 8) * 0.4;
                let tk = if sel % 16 < 8 { TimeoutKind::Idle } else { TimeoutKind::Hard };
                prop_assert_eq!(
                    store.install(rule, ttl, tk, now),
                    table.install(rule, ttl, tk, now),
                );
            }
            prop_assert_eq!(store.len_at(now), table.len_at(now));
            prop_assert_eq!(store.cached_rules_at(now), table.cached_rules_at(now));
        }
    }
}
