//! Allocation-free stores for simulator hot paths: a generic intrusive
//! slab arena, a precomputed rule-coverage index, and the slab-backed
//! switch flow table ([`FlowStore`]).
//!
//! The seed implementation heap-allocated per flow entry and scanned the
//! whole table on every lookup/install ([`ftcache::ClockTable`]). At the
//! datacenter scales the ROADMAP targets (fat-tree topologies, ≥100k
//! concurrent flows) those O(n) scans dominate the event loop, so this
//! module re-implements the same table semantics — byte-for-byte — on
//! top of:
//!
//! * a [`Slab`] arena with free-list reuse and stable `u32` handles
//!   (no per-entry allocation after warm-up);
//! * the hierarchical timing wheel ([`crate::wheel::TimerWheel`]) for
//!   O(1) amortized expiry instead of full-table retain scans (the
//!   wheel serves only this expiry index: the simulator's event queue
//!   is a separate run plus binary heap, [`crate::EventQueue`]);
//! * a [`CoverIndex`] mapping each flow to its covering rules in
//!   priority order, so a lookup touches `O(cover(f))` rules instead of
//!   every cached entry.
//!
//! The behavioral contract is pinned by equivalence proptests against
//! the verbatim `ClockTable` (see `crates/netsim/tests`).

use crate::wheel::{Expired, TimerId, TimerWheel};
use flowspace::{FlowId, RuleId, RuleSet, TimeoutKind};
use ftcache::policy::{CachePolicy, Candidate, PolicyKind};

/// Sentinel index for "no slot" in intrusive link fields.
pub const NIL: u32 = u32::MAX;

/// One slot of a [`Slab`]: the payload plus intrusive link fields the
/// owner may thread through arbitrary lists (bucket chains, recency
/// order, …). Vacant slots chain the slab's internal free list through
/// `next`.
#[derive(Debug, Clone)]
pub struct Slot<T> {
    /// Owner-managed backward link ([`NIL`] when unlinked).
    pub prev: u32,
    /// Owner-managed forward link ([`NIL`] when unlinked); the slab
    /// reuses this field to chain vacant slots.
    pub next: u32,
    /// Owner-defined tag (e.g. which bucket the slot is linked into).
    /// Untouched by the slab itself.
    pub tag: u32,
    /// The payload; `None` marks a vacant slot.
    pub value: Option<T>,
}

/// A grow-only arena of `T` with LIFO free-slot reuse and stable `u32`
/// handles.
///
/// Freed slots are recycled before the backing vector grows, so a
/// steady-state workload (e.g. a full flow table churning entries)
/// performs no allocation at all. Handles stay valid until the slot is
/// removed; the slab itself does not guard against stale handles — the
/// timing wheel layers generation counters on top where that matters.
#[derive(Debug, Clone, Default)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: usize,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Creates an empty slab with room for `cap` slots before growing.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            len: 0,
        }
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated (occupied + free-listed).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores `value`, reusing a free slot if one exists, and returns its
    /// handle. Link fields of the returned slot are reset to [`NIL`].
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.prev = NIL;
            slot.next = NIL;
            slot.value = Some(value);
            return idx;
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot {
            prev: NIL,
            next: NIL,
            tag: 0,
            value: Some(value),
        });
        idx
    }

    /// Vacates slot `idx` and returns its payload (`None` if the slot was
    /// already vacant). The caller must have unlinked the slot from any
    /// intrusive lists first.
    pub fn remove(&mut self, idx: u32) -> Option<T> {
        let free_head = self.free_head;
        let slot = self.slots.get_mut(idx as usize)?;
        let value = slot.value.take()?;
        slot.next = free_head;
        slot.prev = NIL;
        self.free_head = idx;
        self.len -= 1;
        Some(value)
    }

    /// The slot at `idx` (occupied or vacant).
    ///
    /// # Panics
    ///
    /// Panics if `idx` was never allocated.
    #[must_use]
    pub fn slot(&self, idx: u32) -> &Slot<T> {
        &self.slots[idx as usize]
    }

    /// Mutable access to the slot at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was never allocated.
    pub fn slot_mut(&mut self, idx: u32) -> &mut Slot<T> {
        &mut self.slots[idx as usize]
    }

    /// The payload at `idx`, if occupied.
    #[must_use]
    pub fn get(&self, idx: u32) -> Option<&T> {
        self.slots.get(idx as usize)?.value.as_ref()
    }

    /// Mutable payload at `idx`, if occupied.
    pub fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        self.slots.get_mut(idx as usize)?.value.as_mut()
    }
}

/// Precomputed flow → covering-rules index.
///
/// For every flow of the universe, the covering rules in ascending
/// [`RuleId`] order — which, by the [`RuleSet`] contract (rules sorted by
/// descending priority, id = rank), is descending priority order. Built
/// once per simulation and shared between switches, it turns the
/// table-lookup question "highest-priority cached rule covering `f`"
/// into a walk of `cover(f)` ids instead of a scan of the whole table.
#[derive(Debug, Clone, Default)]
pub struct CoverIndex {
    by_flow: Vec<Vec<u32>>,
    n_rules: usize,
}

impl CoverIndex {
    /// Builds the index from a rule set. Cost is the total coverage size
    /// (`Σ_r |covers(r)|`), paid once.
    #[must_use]
    pub fn build(rules: &RuleSet) -> Self {
        let universe = rules.universe_size();
        let mut by_flow = vec![Vec::new(); universe];
        let mut n_rules = 0usize;
        for (id, rule) in rules.iter() {
            n_rules = n_rules.max(id.0 + 1);
            for f in rule.covers().iter() {
                by_flow[f.index()].push(id.0 as u32);
            }
        }
        CoverIndex { by_flow, n_rules }
    }

    /// Builds an index directly from per-flow rule-id lists (ascending
    /// order expected), for benches and tests that have no [`RuleSet`].
    #[must_use]
    pub fn from_lists(by_flow: Vec<Vec<u32>>, n_rules: usize) -> Self {
        CoverIndex { by_flow, n_rules }
    }

    /// Number of rules the index was built over.
    #[must_use]
    pub fn n_rules(&self) -> usize {
        self.n_rules
    }

    /// Rule ids covering `flow`, ascending (= descending priority).
    /// Flows outside the indexed universe are covered by nothing.
    #[must_use]
    pub fn covering(&self, flow: FlowId) -> &[u32] {
        self.by_flow
            .get(flow.index())
            .map_or(&[][..], Vec::as_slice)
    }

    /// The highest-priority rule covering `flow`, if any — equivalent to
    /// [`RuleSet::highest_covering`] without the rule-set scan.
    #[must_use]
    pub fn highest(&self, flow: FlowId) -> Option<RuleId> {
        self.covering(flow).first().map(|&r| RuleId(r as usize))
    }
}

/// One cached rule in a [`FlowStore`]. The expiry deadline lives in the
/// timing-wheel node that owns the entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEntry {
    /// The cached rule.
    pub rule: RuleId,
    /// Timeout duration in seconds (re-arms idle timers on match).
    pub ttl: f64,
    /// Idle or hard semantics.
    pub kind: TimeoutKind,
    /// Packets forwarded since installation (delay-padding defense).
    pub pkts_since_install: u32,
    /// Installation time (window-padding defense).
    pub installed_at: f64,
}

/// A slab-backed continuous-time switch flow table, semantically
/// identical to [`ftcache::ClockTable`] but with O(1) amortized
/// schedule/expire via the timing wheel and O(cover) lookups via a
/// [`CoverIndex`].
///
/// Matching the reference implementation exactly means:
///
/// * expired entries are purged lazily before any lookup, install or
///   length query, with **exact** `expiry > now` comparisons (the wheel
///   quantizes bucket placement only, never the deadline — see
///   `wheel.rs`);
/// * a lookup returns the minimum-id live cached rule covering the flow,
///   re-arms idle timers to `now + ttl`, and moves the entry to the
///   recency front;
/// * installing over a full table delegates the victim choice to the
///   configured [`CachePolicy`] (the default [`PolicyKind::Srt`] evicts
///   the shortest remaining lifetime, breaking ties toward the least
///   recently used);
/// * re-installing a cached rule refreshes it in place.
#[derive(Debug)]
pub struct FlowStore {
    capacity: usize,
    wheel: TimerWheel<FlowEntry>,
    /// rule id → timer of its cached entry ([`TimerId::NULL`] if absent).
    by_rule: Vec<TimerId>,
    /// Recency list over wheel-node indices; `head` = most recent.
    r_prev: Vec<u32>,
    r_next: Vec<u32>,
    head: u32,
    tail: u32,
    /// Scratch buffer for wheel expirations (reused across purges).
    expired: Vec<Expired<FlowEntry>>,
    /// Scratch buffer for eviction candidates (reused across evictions).
    candidates: Vec<Candidate>,
    policy: PolicyKind,
}

impl FlowStore {
    /// Creates an empty table holding up to `capacity` reactive rules,
    /// over a rule set of `n_rules` rules, evicting with the default
    /// [`PolicyKind::Srt`] policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize, n_rules: usize) -> Self {
        Self::with_policy(capacity, n_rules, PolicyKind::default())
    }

    /// Creates an empty table evicting under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_policy(capacity: usize, n_rules: usize, policy: PolicyKind) -> Self {
        assert!(capacity > 0, "flow table capacity must be at least 1");
        FlowStore {
            capacity,
            wheel: TimerWheel::new(),
            by_rule: vec![TimerId::NULL; n_rules],
            r_prev: Vec::new(),
            r_next: Vec::new(),
            head: NIL,
            tail: NIL,
            expired: Vec::new(),
            candidates: Vec::new(),
            policy,
        }
    }

    /// The eviction policy this table runs.
    #[must_use]
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The table's capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn ensure_links(&mut self, idx: u32) {
        let need = idx as usize + 1;
        if self.r_prev.len() < need {
            self.r_prev.resize(need, NIL);
            self.r_next.resize(need, NIL);
        }
    }

    fn link_front(&mut self, idx: u32) {
        self.ensure_links(idx);
        let i = idx as usize;
        self.r_prev[i] = NIL;
        self.r_next[i] = self.head;
        if self.head != NIL {
            self.r_prev[self.head as usize] = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: u32) {
        let i = idx as usize;
        let (prev, next) = (self.r_prev[i], self.r_next[i]);
        if prev != NIL {
            self.r_next[prev as usize] = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.r_prev[next as usize] = prev;
        } else {
            self.tail = prev;
        }
        self.r_prev[i] = NIL;
        self.r_next[i] = NIL;
    }

    fn rule_slot(&self, rule: RuleId) -> TimerId {
        self.by_rule.get(rule.0).copied().unwrap_or(TimerId::NULL)
    }

    /// Drops entries whose deadline has passed. Exact: removes precisely
    /// the entries with `expiry <= now`, like the reference table's
    /// `retain(e.expiry > now)`.
    pub fn purge_expired(&mut self, now: f64) {
        self.expired.clear();
        self.wheel.expire_until(now, &mut self.expired);
        for i in 0..self.expired.len() {
            let rule = self.expired[i].value.rule;
            let id = self.rule_slot(rule);
            self.unlink(id.index());
            self.by_rule[rule.0] = TimerId::NULL;
            self.policy.on_evict(id.index());
        }
        self.expired.clear();
    }

    /// Number of live entries at time `now`.
    pub fn len_at(&mut self, now: f64) -> usize {
        self.purge_expired(now);
        self.wheel.len()
    }

    /// Whether `rule` is live at time `now`.
    #[must_use]
    pub fn contains_at(&self, rule: RuleId, now: f64) -> bool {
        let id = self.rule_slot(rule);
        self.wheel.deadline(id).is_some_and(|d| d > now)
    }

    /// Looks up the highest-priority live rule covering `f`, refreshing
    /// its recency and (for idle timeouts) its deadline. Returns `None`
    /// on a table miss.
    pub fn lookup(&mut self, f: FlowId, now: f64, cover: &CoverIndex) -> Option<RuleId> {
        self.purge_expired(now);
        // Covering ids ascend, so the first cached one is the
        // minimum-id (= highest-priority) live cached cover.
        let mut found = TimerId::NULL;
        for &r in cover.covering(f) {
            let id = self.rule_slot(RuleId(r as usize));
            if id != TimerId::NULL {
                found = id;
                break;
            }
        }
        let entry = self.wheel.get(found)?;
        let (rule, kind, ttl) = (entry.rule, entry.kind, entry.ttl);
        if kind == TimeoutKind::Idle {
            self.wheel.reschedule(found, now + ttl);
        }
        let idx = found.index();
        self.unlink(idx);
        self.link_front(idx);
        self.policy.on_refresh(idx);
        Some(rule)
    }

    /// Installs `rule` (with timeout `ttl` seconds and the given
    /// semantics) at time `now`, evicting the entry with the shortest
    /// remaining lifetime if the table is full. Returns the evicted
    /// rule, if any. Re-installing a cached rule refreshes it in place.
    pub fn install(
        &mut self,
        rule: RuleId,
        ttl: f64,
        kind: TimeoutKind,
        now: f64,
    ) -> Option<RuleId> {
        self.purge_expired(now);
        let existing = self.rule_slot(rule);
        if let Some(entry) = self.wheel.get_mut(existing) {
            entry.ttl = ttl;
            entry.kind = kind;
            entry.pkts_since_install = 0;
            entry.installed_at = now;
            self.wheel.reschedule(existing, now + ttl);
            let idx = existing.index();
            self.unlink(idx);
            self.link_front(idx);
            self.policy.on_refresh(idx);
            return None;
        }
        let evicted = if self.wheel.len() == self.capacity {
            self.evict(now)
        } else {
            None
        };
        let id = self.wheel.schedule(
            now + ttl,
            FlowEntry {
                rule,
                ttl,
                kind,
                pkts_since_install: 0,
                installed_at: now,
            },
        );
        self.link_front(id.index());
        self.policy.on_install(id.index());
        if rule.0 >= self.by_rule.len() {
            self.by_rule.resize(rule.0 + 1, TimerId::NULL);
        }
        self.by_rule[rule.0] = id;
        evicted
    }

    /// Asks the configured [`CachePolicy`] for a victim and removes it.
    /// Candidates are gathered by walking the recency list from the tail
    /// (least recent first) with `slot` = wheel-node index, so the
    /// policy-module contract ("ties toward the earlier candidate")
    /// reproduces the reference tie-break (`expiry.total_cmp`, then the
    /// least recently used entry). Only *eviction* pays this O(len)
    /// walk; wheel-driven expiry stays O(1) amortized.
    fn evict(&mut self, now: f64) -> Option<RuleId> {
        self.candidates.clear();
        let mut cur = self.tail;
        while cur != NIL {
            if let Some((deadline, entry)) = self.wheel.entry_at(cur) {
                self.candidates.push(Candidate {
                    slot: cur,
                    remaining: deadline - now,
                    ttl: entry.ttl,
                });
            }
            cur = self.r_prev[cur as usize];
        }
        if self.candidates.is_empty() {
            return None;
        }
        let victim = self.candidates[self.policy.victim(&self.candidates)].slot;
        let entry = self.wheel.cancel_at(victim)?;
        self.unlink(victim);
        self.by_rule[entry.rule.0] = TimerId::NULL;
        self.policy.on_evict(victim);
        Some(entry.rule)
    }

    /// The live rules at time `now`, in recency order (most recent
    /// first). Does not purge, so it can run on a shared reference.
    #[must_use]
    pub fn cached_rules_at(&self, now: f64) -> Vec<RuleId> {
        let mut out = Vec::new();
        let mut cur = self.head;
        while cur != NIL {
            if let Some((deadline, entry)) = self.wheel.entry_at(cur) {
                if deadline > now {
                    out.push(entry.rule);
                }
            }
            cur = self.r_next[cur as usize];
        }
        out
    }

    /// Mutable access to the cached entry for `rule`, if present (live
    /// or not-yet-purged). Used by the padding defenses.
    pub fn entry_mut(&mut self, rule: RuleId) -> Option<&mut FlowEntry> {
        let id = self.rule_slot(rule);
        self.wheel.get_mut(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::{FlowSet, Rule, RuleSet, Timeout};

    fn rules() -> RuleSet {
        let u = 4;
        RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1)]), 30, Timeout::idle(3)),
                Rule::from_flow_set(
                    FlowSet::from_flows(u, [FlowId(1), FlowId(2)]),
                    20,
                    Timeout::idle(10),
                ),
                Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(3)]), 10, Timeout::hard(7)),
            ],
            u,
        )
        .unwrap()
    }

    fn store(capacity: usize) -> (FlowStore, CoverIndex) {
        let r = rules();
        let cover = CoverIndex::build(&r);
        (FlowStore::new(capacity, 3), cover)
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut s: Slab<u64> = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(a), Some(1));
        assert_eq!(s.remove(a), None, "double remove is a no-op");
        let c = s.insert(3);
        assert_eq!(c, a, "LIFO reuse of the freed slot");
        assert_eq!(s.capacity(), 2, "no growth on reuse");
        assert_eq!(s.get(b), Some(&2));
        assert_eq!(s.get(c), Some(&3));
    }

    #[test]
    fn cover_index_matches_ruleset() {
        let r = rules();
        let cover = CoverIndex::build(&r);
        assert_eq!(cover.covering(FlowId(1)), &[0, 1]);
        assert_eq!(cover.covering(FlowId(2)), &[1]);
        assert_eq!(cover.covering(FlowId(0)), &[] as &[u32]);
        for f in 0..4 {
            assert_eq!(cover.highest(FlowId(f)), r.highest_covering(FlowId(f)));
        }
        // Out-of-universe flows are simply uncovered.
        assert_eq!(cover.highest(FlowId(99)), None);
    }

    #[test]
    fn miss_then_hit() {
        let (mut t, cover) = store(2);
        assert_eq!(t.lookup(FlowId(1), 0.0, &cover), None);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0);
        assert_eq!(t.lookup(FlowId(1), 0.1, &cover), Some(RuleId(0)));
        assert_eq!(t.len_at(0.1), 1);
    }

    #[test]
    fn idle_timer_rearms_on_lookup() {
        let (mut t, cover) = store(2);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0);
        assert_eq!(t.lookup(FlowId(1), 0.25, &cover), Some(RuleId(0)));
        assert_eq!(t.lookup(FlowId(1), 0.5, &cover), Some(RuleId(0)));
    }

    #[test]
    fn hard_timer_does_not_rearm() {
        let (mut t, cover) = store(2);
        t.install(RuleId(2), 0.3, TimeoutKind::Hard, 0.0);
        assert_eq!(t.lookup(FlowId(3), 0.25, &cover), Some(RuleId(2)));
        assert_eq!(t.lookup(FlowId(3), 0.35, &cover), None);
    }

    #[test]
    fn expiry_purges_lazily() {
        let (mut t, cover) = store(2);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0);
        assert!(t.contains_at(RuleId(0), 0.2));
        assert!(!t.contains_at(RuleId(0), 0.31));
        assert_eq!(t.lookup(FlowId(1), 0.31, &cover), None);
        assert_eq!(t.len_at(0.31), 0);
    }

    #[test]
    fn eviction_picks_shortest_remaining_lifetime() {
        let (mut t, _) = store(2);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0);
        t.install(RuleId(1), 1.0, TimeoutKind::Idle, 0.0);
        let evicted = t.install(RuleId(2), 0.7, TimeoutKind::Hard, 0.1);
        assert_eq!(evicted, Some(RuleId(0)));
        assert!(t.contains_at(RuleId(1), 0.1) && t.contains_at(RuleId(2), 0.1));
    }

    #[test]
    fn eviction_tie_breaks_toward_least_recent() {
        // Same deadline: the least recently installed/touched loses.
        let (mut t, _) = store(2);
        t.install(RuleId(0), 1.0, TimeoutKind::Hard, 0.0);
        t.install(RuleId(1), 1.0, TimeoutKind::Hard, 0.0);
        let evicted = t.install(RuleId(2), 0.5, TimeoutKind::Hard, 0.0);
        assert_eq!(evicted, Some(RuleId(0)));
    }

    #[test]
    fn reinstall_refreshes_in_place() {
        let (mut t, cover) = store(1);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0);
        let evicted = t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.2);
        assert_eq!(evicted, None);
        assert_eq!(t.lookup(FlowId(1), 0.45, &cover), Some(RuleId(0)));
    }

    #[test]
    fn lookup_prefers_highest_priority_live_rule() {
        let (mut t, cover) = store(2);
        t.install(RuleId(1), 1.0, TimeoutKind::Idle, 0.0);
        t.install(RuleId(0), 1.0, TimeoutKind::Idle, 0.0);
        assert_eq!(t.lookup(FlowId(1), 0.1, &cover), Some(RuleId(0)));
    }

    #[test]
    fn cached_rules_in_recency_order() {
        let (mut t, cover) = store(3);
        t.install(RuleId(2), 1.0, TimeoutKind::Hard, 0.0);
        t.install(RuleId(0), 1.0, TimeoutKind::Idle, 0.1);
        t.lookup(FlowId(3), 0.2, &cover); // touch rule2 -> front
        assert_eq!(t.cached_rules_at(0.2), vec![RuleId(2), RuleId(0)]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = FlowStore::new(0, 4);
    }
}
