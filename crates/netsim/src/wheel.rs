//! A deterministic hierarchical timing wheel: the expiry index behind
//! each switch's [`FlowStore`](crate::FlowStore). The simulator's event
//! queue does not use it; see [`EventQueue`](crate::EventQueue), a
//! run plus a binary heap.
//!
//! # Structure
//!
//! Six levels of 64 slots each (the Linux-kernel / ccommon layout): a
//! timer due in `d` ticks lands at the level whose slot width first
//! distinguishes it from the current tick, giving O(1) schedule and
//! cancel, and amortized O(1) expiry (each timer cascades at most five
//! times, strictly descending one level per cascade). The six levels
//! cover a horizon of 2^36 ticks; timers beyond it wait on an overflow
//! list that is rescanned whenever the cursor crosses a 2^36-tick
//! boundary (before which none of its timers can be due).
//!
//! The default tick is 2^-14 s ≈ 61 µs — a power of two, so tick
//! boundaries are exactly representable in `f64`.
//!
//! # Determinism contract
//!
//! Quantization affects **bucket placement only, never the deadline**.
//! Expiry uses exact `f64` comparisons: [`TimerWheel::expire_until`]
//! drains every tick strictly below `now`'s tick, then walks only the
//! boundary slot(s) whose window starts at `now`'s tick and removes
//! exactly the timers with `deadline <= now`. The expired set is
//! therefore bit-identical to a linear scan at **any** tick resolution,
//! and the batch is reported in `(tick, schedule-seq)` order — FIFO
//! within a tick.

use crate::slab::{Slab, NIL};

const SLOT_BITS: u32 = 6;
const SLOTS: u32 = 1 << SLOT_BITS; // 64
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const LEVELS: u32 = 6;
const WHEEL_BUCKETS: u32 = SLOTS * LEVELS; // 384
const OVERFLOW_BUCKET: u32 = WHEEL_BUCKETS;
const N_BUCKETS: usize = WHEEL_BUCKETS as usize + 1;
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS; // 36
const HORIZON_MASK: u64 = (1 << HORIZON_BITS) - 1;

/// Default tick resolution: 2^-14 s ≈ 61 µs. A power of two so that
/// tick boundaries (and legacy-config timeouts, which are all far
/// coarser) are exact in `f64`.
pub const DEFAULT_TICK_SECS: f64 = 1.0 / 16384.0;

/// Stable handle to a scheduled timer. Generation-checked: once the
/// timer fires or is cancelled, the handle goes stale and every
/// operation on it is a no-op, even if the slot was reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    idx: u32,
    gen: u32,
}

impl TimerId {
    /// The null handle: refers to no timer, all operations no-op.
    pub const NULL: TimerId = TimerId {
        idx: u32::MAX,
        gen: u32::MAX,
    };

    /// The raw slot index (stable while the timer is live).
    #[must_use]
    pub fn index(self) -> u32 {
        self.idx
    }
}

/// One expired timer, as reported by [`TimerWheel::expire_until`].
#[derive(Debug, Clone, Copy)]
pub struct Expired<T> {
    /// The exact deadline the timer was scheduled for.
    pub deadline: f64,
    /// The deadline's tick (`floor(deadline / tick_secs)`).
    pub tick: u64,
    /// Schedule sequence number (FIFO order within a tick).
    pub seq: u64,
    /// The timer's payload.
    pub value: T,
}

#[derive(Debug, Clone)]
struct WheelNode<T> {
    deadline: f64,
    tick: u64,
    seq: u64,
    value: T,
}

/// The hierarchical timing wheel. See the module docs for the layout
/// and the determinism contract.
#[derive(Debug)]
pub struct TimerWheel<T> {
    tick_secs: f64,
    nodes: Slab<WheelNode<T>>,
    /// Per-slot generation counters (parallel to the slab).
    gens: Vec<u32>,
    /// Per-bucket list heads/tails; buckets `0..384` are wheel slots
    /// (level-major), bucket `384` is the overflow list.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS as usize],
    /// All ticks strictly below this have been drained.
    cur_tick: u64,
    /// Monotone schedule counter (FIFO-within-tick tie-break).
    seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// A wheel with the default tick ([`DEFAULT_TICK_SECS`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_tick(DEFAULT_TICK_SECS)
    }

    /// A wheel with a custom tick size (tests use tiny ticks to reach
    /// the overflow path quickly).
    ///
    /// # Panics
    ///
    /// Panics if `tick_secs` is not a positive finite number.
    #[must_use]
    pub fn with_tick(tick_secs: f64) -> Self {
        assert!(
            tick_secs.is_finite() && tick_secs > 0.0,
            "tick size must be positive"
        );
        TimerWheel {
            tick_secs,
            nodes: Slab::new(),
            gens: Vec::new(),
            heads: vec![NIL; N_BUCKETS],
            tails: vec![NIL; N_BUCKETS],
            occupied: [0; LEVELS as usize],
            cur_tick: 0,
            seq: 0,
        }
    }

    /// Number of live timers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no timer is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The wheel's tick size in seconds.
    #[must_use]
    pub fn tick_secs(&self) -> f64 {
        self.tick_secs
    }

    fn tick_of(&self, deadline: f64) -> u64 {
        let t = deadline / self.tick_secs;
        if t <= 0.0 {
            0
        } else {
            t as u64 // saturating; floor for non-negative values
        }
    }

    /// The level whose slot width first distinguishes `tick` from
    /// `cur`: the highest differing 6-bit chunk. Distinguishing by XOR
    /// (rather than delta magnitude) ensures a slot never aliases ticks
    /// from different rotations.
    fn level_for(cur: u64, tick: u64) -> u32 {
        let masked = (cur ^ tick) | SLOT_MASK;
        let msb = 63 - masked.leading_zeros();
        msb / SLOT_BITS
    }

    fn bucket_for(&self, tick: u64) -> u32 {
        let level = Self::level_for(self.cur_tick, tick);
        if level >= LEVELS {
            return OVERFLOW_BUCKET;
        }
        let slot = ((tick >> (level * SLOT_BITS)) & SLOT_MASK) as u32;
        level * SLOTS + slot
    }

    /// Appends node `idx` (whose `tag` names its bucket) to that
    /// bucket's tail, preserving FIFO order within the bucket.
    fn link(&mut self, idx: u32) {
        let b = self.nodes.slot(idx).tag;
        let tail = self.tails[b as usize];
        {
            let s = self.nodes.slot_mut(idx);
            s.prev = tail;
            s.next = NIL;
        }
        if tail == NIL {
            self.heads[b as usize] = idx;
        } else {
            self.nodes.slot_mut(tail).next = idx;
        }
        self.tails[b as usize] = idx;
        if b < WHEEL_BUCKETS {
            self.occupied[(b / SLOTS) as usize] |= 1u64 << (b % SLOTS);
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (b, prev, next) = {
            let s = self.nodes.slot(idx);
            (s.tag, s.prev, s.next)
        };
        if prev == NIL {
            self.heads[b as usize] = next;
        } else {
            self.nodes.slot_mut(prev).next = next;
        }
        if next == NIL {
            self.tails[b as usize] = prev;
        } else {
            self.nodes.slot_mut(next).prev = prev;
        }
        {
            let s = self.nodes.slot_mut(idx);
            s.prev = NIL;
            s.next = NIL;
        }
        if b < WHEEL_BUCKETS && self.heads[b as usize] == NIL {
            self.occupied[(b / SLOTS) as usize] &= !(1u64 << (b % SLOTS));
        }
    }

    /// Detaches a whole bucket list, returning its head.
    fn detach_list(&mut self, b: u32) -> u32 {
        let h = self.heads[b as usize];
        self.heads[b as usize] = NIL;
        self.tails[b as usize] = NIL;
        if b < WHEEL_BUCKETS {
            self.occupied[(b / SLOTS) as usize] &= !(1u64 << (b % SLOTS));
        }
        h
    }

    fn bump_gen(&mut self, idx: u32) {
        if let Some(g) = self.gens.get_mut(idx as usize) {
            *g = g.wrapping_add(1);
        }
    }

    fn is_valid(&self, id: TimerId) -> bool {
        self.gens.get(id.idx as usize) == Some(&id.gen) && self.nodes.get(id.idx).is_some()
    }

    /// Schedules a timer for `deadline` and returns its handle.
    /// Deadlines in the already-drained past fire on the next expiry
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not finite.
    pub fn schedule(&mut self, deadline: f64, value: T) -> TimerId {
        assert!(deadline.is_finite(), "timer deadline must be finite");
        self.seq += 1;
        let tick = self.tick_of(deadline).max(self.cur_tick);
        let idx = self.nodes.insert(WheelNode {
            deadline,
            tick,
            seq: self.seq,
            value,
        });
        if self.gens.len() <= idx as usize {
            self.gens.resize(idx as usize + 1, 0);
        }
        let b = self.bucket_for(tick);
        self.nodes.slot_mut(idx).tag = b;
        self.link(idx);
        TimerId {
            idx,
            gen: self.gens[idx as usize],
        }
    }

    /// Cancels a live timer, returning its payload. Stale handles
    /// return `None`.
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        if !self.is_valid(id) {
            return None;
        }
        self.cancel_at(id.idx)
    }

    /// Cancels by raw slot index (no generation check); used by owners
    /// that track liveness themselves, like the flow store.
    pub fn cancel_at(&mut self, idx: u32) -> Option<T> {
        self.nodes.get(idx)?;
        self.unlink(idx);
        self.bump_gen(idx);
        self.nodes.remove(idx).map(|n| n.value)
    }

    /// Moves a live timer to a new deadline (a fresh schedule event:
    /// the timer re-enters FIFO order at the back of its new tick).
    /// Returns whether the handle was live.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not finite.
    pub fn reschedule(&mut self, id: TimerId, deadline: f64) -> bool {
        assert!(deadline.is_finite(), "timer deadline must be finite");
        if !self.is_valid(id) {
            return false;
        }
        self.unlink(id.idx);
        self.seq += 1;
        let seq = self.seq;
        let tick = self.tick_of(deadline).max(self.cur_tick);
        if let Some(node) = self.nodes.get_mut(id.idx) {
            node.deadline = deadline;
            node.tick = tick;
            node.seq = seq;
        }
        let b = self.bucket_for(tick);
        self.nodes.slot_mut(id.idx).tag = b;
        self.link(id.idx);
        true
    }

    /// The payload of a live timer.
    #[must_use]
    pub fn get(&self, id: TimerId) -> Option<&T> {
        if !self.is_valid(id) {
            return None;
        }
        self.nodes.get(id.idx).map(|n| &n.value)
    }

    /// Mutable payload of a live timer.
    pub fn get_mut(&mut self, id: TimerId) -> Option<&mut T> {
        if !self.is_valid(id) {
            return None;
        }
        self.nodes.get_mut(id.idx).map(|n| &mut n.value)
    }

    /// The deadline of a live timer.
    #[must_use]
    pub fn deadline(&self, id: TimerId) -> Option<f64> {
        if !self.is_valid(id) {
            return None;
        }
        self.deadline_at(id.idx)
    }

    /// Deadline by raw slot index.
    #[must_use]
    pub fn deadline_at(&self, idx: u32) -> Option<f64> {
        self.nodes.get(idx).map(|n| n.deadline)
    }

    /// Deadline and payload by raw slot index.
    #[must_use]
    pub fn entry_at(&self, idx: u32) -> Option<(f64, &T)> {
        self.nodes.get(idx).map(|n| (n.deadline, &n.value))
    }

    /// The start tick of `slot` at `level`, relative to the cursor's
    /// rotation (slots behind the cursor belong to the next rotation).
    fn slot_start(&self, level: u32, slot: u32) -> u64 {
        let shift = level * SLOT_BITS;
        let span = shift + SLOT_BITS;
        let base = (self.cur_tick >> span) << span;
        let start = base + (u64::from(slot) << shift);
        let cur_slot = ((self.cur_tick >> shift) & SLOT_MASK) as u32;
        if slot < cur_slot {
            start.saturating_add(1u64 << span)
        } else {
            start
        }
    }

    /// The earliest tick at which any wheel slot needs processing
    /// (`u64::MAX` if the wheel proper is empty).
    fn next_pending_tick(&self) -> u64 {
        let mut best = u64::MAX;
        for level in 0..LEVELS {
            let occ = self.occupied[level as usize];
            if occ == 0 {
                continue;
            }
            let shift = level * SLOT_BITS;
            let cur_slot = ((self.cur_tick >> shift) & SLOT_MASK) as u32;
            let ahead = occ >> cur_slot;
            let slot = if ahead != 0 {
                cur_slot + ahead.trailing_zeros()
            } else {
                occ.trailing_zeros()
            };
            best = best.min(self.slot_start(level, slot));
        }
        best
    }

    /// Re-files every overflow timer relative to the current cursor.
    /// Timers still beyond the horizon return to the overflow list.
    fn rescan_overflow(&mut self) {
        let mut idx = self.detach_list(OVERFLOW_BUCKET);
        while idx != NIL {
            let next = self.nodes.slot(idx).next;
            let tick = self.nodes.get(idx).map_or(self.cur_tick, |n| n.tick);
            let b = self.bucket_for(tick);
            let s = self.nodes.slot_mut(idx);
            s.prev = NIL;
            s.next = NIL;
            s.tag = b;
            self.link(idx);
            idx = next;
        }
    }

    /// Processes tick `m` (the cursor must already be at `m`): cascades
    /// every aligned higher-level slot starting at `m` down one or more
    /// levels, then expires the level-0 slot for `m` into `out`.
    fn process_tick(&mut self, m: u64, out: &mut Vec<Expired<T>>) {
        for level in (1..LEVELS).rev() {
            let shift = level * SLOT_BITS;
            if m & ((1u64 << shift) - 1) != 0 {
                continue;
            }
            let slot = ((m >> shift) & SLOT_MASK) as u32;
            let b = level * SLOTS + slot;
            let mut idx = self.detach_list(b);
            while idx != NIL {
                let next = self.nodes.slot(idx).next;
                let tick = self.nodes.get(idx).map_or(m, |n| n.tick);
                let nb = self.bucket_for(tick);
                debug_assert!(nb < b, "cascade must strictly descend");
                let s = self.nodes.slot_mut(idx);
                s.prev = NIL;
                s.next = NIL;
                s.tag = nb;
                self.link(idx);
                idx = next;
            }
        }
        let b = (m & SLOT_MASK) as u32;
        let mut idx = self.detach_list(b);
        while idx != NIL {
            let next = self.nodes.slot(idx).next;
            self.bump_gen(idx);
            if let Some(node) = self.nodes.remove(idx) {
                out.push(Expired {
                    deadline: node.deadline,
                    tick: node.tick,
                    seq: node.seq,
                    value: node.value,
                });
            }
            idx = next;
        }
    }

    /// Drains every tick strictly below `target` into `out`, advancing
    /// the cursor to `target`. Jumps empty stretches in O(1) per
    /// non-empty slot (plus one overflow rescan per crossed 2^36
    /// boundary).
    fn advance(&mut self, target: u64, out: &mut Vec<Expired<T>>) {
        loop {
            let boundary = if self.heads[OVERFLOW_BUCKET as usize] == NIL {
                u64::MAX
            } else {
                (self.cur_tick | HORIZON_MASK).saturating_add(1)
            };
            let pending = self.next_pending_tick();
            // Rescans run up to and including `target` (an overflow
            // timer may be due exactly at the boundary)…
            if boundary <= pending && boundary <= target {
                self.cur_tick = boundary;
                self.rescan_overflow();
                continue;
            }
            // …but slots are drained strictly below it: the boundary
            // tick itself is split exactly by deadline in expire_until.
            if pending >= target {
                break;
            }
            self.cur_tick = pending;
            self.process_tick(pending, out);
        }
        self.cur_tick = self.cur_tick.max(target);
    }

    /// Removes timers due at the boundary tick (the slots whose window
    /// starts at the cursor) with an exact `deadline <= now` test.
    fn split_due(&mut self, now: f64, out: &mut Vec<Expired<T>>) {
        for level in 0..LEVELS {
            let shift = level * SLOT_BITS;
            if level > 0 && self.cur_tick & ((1u64 << shift) - 1) != 0 {
                // If the cursor is unaligned at this level it is
                // unaligned at every higher one too.
                break;
            }
            let slot = ((self.cur_tick >> shift) & SLOT_MASK) as u32;
            let b = level * SLOTS + slot;
            let mut idx = self.heads[b as usize];
            while idx != NIL {
                let next = self.nodes.slot(idx).next;
                let due = self.nodes.get(idx).is_some_and(|n| n.deadline <= now);
                if due {
                    self.unlink(idx);
                    self.bump_gen(idx);
                    if let Some(node) = self.nodes.remove(idx) {
                        out.push(Expired {
                            deadline: node.deadline,
                            tick: node.tick,
                            seq: node.seq,
                            value: node.value,
                        });
                    }
                }
                idx = next;
            }
        }
    }

    /// Expires exactly the timers with `deadline <= now` into `out`, in
    /// `(tick, seq)` order — the same set a linear `retain` over exact
    /// deadlines would drop, at any tick resolution.
    ///
    /// # Panics
    ///
    /// Panics if `now` is not finite.
    pub fn expire_until(&mut self, now: f64, out: &mut Vec<Expired<T>>) {
        assert!(now.is_finite(), "expiry horizon must be finite");
        let from = out.len();
        self.advance(self.tick_of(now), out);
        self.split_due(now, out);
        out[from..].sort_by(|a, b| a.tick.cmp(&b.tick).then(a.seq.cmp(&b.seq)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expires_exactly_at_deadline() {
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        w.schedule(1.0, "a");
        w.expire_until(1.0 - 1e-12, &mut out);
        assert!(out.is_empty(), "not due yet");
        w.expire_until(1.0, &mut out);
        assert_eq!(out.len(), 1, "deadline <= now is inclusive");
        assert_eq!(out[0].value, "a");
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_fifo_order() {
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        // All three land in the same 61 µs tick.
        w.schedule(1.000_01, 1);
        w.schedule(1.000_02, 2);
        w.schedule(1.000_00, 3);
        w.expire_until(2.0, &mut out);
        let order: Vec<i32> = out.iter().map(|e| e.value).collect();
        assert_eq!(order, vec![1, 2, 3], "FIFO within a tick, by seq");
    }

    #[test]
    fn cross_tick_order_is_by_tick() {
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        w.schedule(5.0, "late");
        w.schedule(0.5, "early");
        w.schedule(2.0, "mid");
        w.expire_until(10.0, &mut out);
        let order: Vec<&str> = out.iter().map(|e| e.value).collect();
        assert_eq!(order, vec!["early", "mid", "late"]);
    }

    #[test]
    fn cancel_and_stale_handles() {
        let mut w = TimerWheel::new();
        let a = w.schedule(1.0, "a");
        let b = w.schedule(2.0, "b");
        assert_eq!(w.cancel(a), Some("a"));
        assert_eq!(w.cancel(a), None, "double cancel is a no-op");
        assert_eq!(w.len(), 1);
        // The freed slot is reused; the old handle must stay dead.
        let c = w.schedule(3.0, "c");
        assert_eq!(c.index(), a.index(), "slab reuses the slot");
        assert_eq!(w.get(a), None, "stale generation rejected");
        assert_eq!(w.get(c), Some(&"c"));
        assert_eq!(w.deadline(b), Some(2.0));
    }

    #[test]
    fn reschedule_moves_the_deadline() {
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        let a = w.schedule(1.0, "a");
        assert!(w.reschedule(a, 5.0));
        w.expire_until(2.0, &mut out);
        assert!(out.is_empty(), "moved out of range");
        w.expire_until(5.0, &mut out);
        assert_eq!(out.len(), 1);
        assert!(!w.reschedule(a, 9.0), "fired handle is stale");
    }

    #[test]
    fn far_future_overflow_path() {
        // 2^36 ticks at the default resolution is ~4.2e6 s; 5e6 s is
        // beyond the horizon and must take the overflow list.
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        w.schedule(5.0e6, "far");
        w.schedule(1.0, "near");
        w.expire_until(2.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, "near");
        // Walk forward in large steps; the far timer fires exactly once.
        w.expire_until(4.0e6, &mut out);
        assert_eq!(out.len(), 1, "still pending");
        w.expire_until(5.1e6, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].value, "far");
        assert!(w.is_empty());
    }

    #[test]
    fn tiny_tick_exercises_many_levels() {
        // A 1 ns tick pushes second-scale deadlines to high levels and
        // the overflow list; exactness must be unaffected.
        let mut w = TimerWheel::with_tick(1e-9);
        let mut out = Vec::new();
        let deadlines = [0.9, 3.0e-7, 150.0, 0.004, 77.0, 1.0e-8];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(d, i);
        }
        let mut sorted = deadlines.to_vec();
        sorted.sort_by(f64::total_cmp);
        for (k, &d) in sorted.iter().enumerate() {
            w.expire_until(d, &mut out);
            assert_eq!(out.len(), k + 1, "exactly one due at {d}");
            assert_eq!(out[k].deadline, d);
        }
        assert!(w.is_empty());
    }
}
