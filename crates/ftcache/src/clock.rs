//! Continuous-time flow table used by the discrete-event simulator.

use crate::policy::{CachePolicy, Candidate, CapacityError, PolicyKind};
use flowspace::{FlowId, RuleId, RuleSet, TimeoutKind};

/// One cached rule with its real-valued expiry deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockEntry {
    /// The cached rule.
    pub rule: RuleId,
    /// Absolute simulation time (seconds) at which the rule expires.
    pub expiry: f64,
    /// The rule's timeout duration in seconds (used to re-arm idle timers).
    pub ttl: f64,
    /// Idle or hard semantics.
    pub kind: TimeoutKind,
}

/// A continuous-time switch flow table, mirroring Open vSwitch behavior as
/// the paper describes it: idle timers re-arm on every match, hard timers
/// run from installation, and when the table is full the entry with the
/// *shortest remaining lifetime* is evicted.
///
/// All methods take the current simulation time `now`; expired entries are
/// purged lazily before any lookup or installation, so callers never observe
/// a stale rule.
///
/// ```
/// use flowspace::{FlowId, FlowSet, Rule, RuleSet, Timeout, TimeoutKind};
/// use ftcache::ClockTable;
///
/// # fn main() -> Result<(), flowspace::RuleSetError> {
/// let rules = RuleSet::new(vec![
///     Rule::from_flow_set(FlowSet::from_flows(1, [FlowId(0)]), 1, Timeout::idle(5)),
/// ], 1)?;
/// let mut table = ClockTable::new(4);
/// assert_eq!(table.lookup(FlowId(0), 0.0, &rules), None); // cold
/// table.install(flowspace::RuleId(0), 0.5, TimeoutKind::Idle, 0.0);
/// assert!(table.lookup(FlowId(0), 0.3, &rules).is_some()); // warm, re-arms
/// assert!(table.lookup(FlowId(0), 1.0, &rules).is_none()); // expired
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClockTable {
    capacity: usize,
    entries: Vec<ClockEntry>,
    policy: PolicyKind,
}

impl ClockTable {
    /// Creates an empty table holding up to `capacity` reactive rules,
    /// evicting with the default [`PolicyKind::Srt`] policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        match Self::try_new(capacity) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects `capacity == 0` with a typed error
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// [`CapacityError`] if `capacity == 0`.
    pub fn try_new(capacity: usize) -> Result<Self, CapacityError> {
        Self::try_with_policy(capacity, PolicyKind::default())
    }

    /// Creates an empty table evicting under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_policy(capacity: usize, policy: PolicyKind) -> Self {
        match Self::try_with_policy(capacity, policy) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ClockTable::with_policy`].
    ///
    /// # Errors
    ///
    /// [`CapacityError`] if `capacity == 0`.
    pub fn try_with_policy(capacity: usize, policy: PolicyKind) -> Result<Self, CapacityError> {
        if capacity == 0 {
            return Err(CapacityError);
        }
        Ok(ClockTable {
            capacity,
            entries: Vec::with_capacity(capacity),
            policy,
        })
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

    /// Number of live entries at time `now`.
    #[must_use]
    pub fn len_at(&self, now: f64) -> usize {
        self.entries.iter().filter(|e| e.expiry > now).count()
    }

    /// Live entries at time `now`, in recency order.
    pub fn entries_at(&self, now: f64) -> impl Iterator<Item = &ClockEntry> {
        self.entries.iter().filter(move |e| e.expiry > now)
    }

    /// Drops entries whose deadline has passed.
    pub fn purge_expired(&mut self, now: f64) {
        self.entries.retain(|e| e.expiry > now);
    }

    /// Looks up the highest-priority live rule covering `f`, refreshing its
    /// recency and (for idle timeouts) its deadline. Returns `None` on a
    /// table miss — the caller must then consult the controller.
    pub fn lookup(&mut self, f: FlowId, now: f64, rules: &RuleSet) -> Option<RuleId> {
        self.purge_expired(now);
        let idx = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| rules.rule(e.rule).covers_flow(f))
            .min_by_key(|(_, e)| e.rule.0)?
            .0;
        let mut entry = self.entries.remove(idx);
        if entry.kind == TimeoutKind::Idle {
            entry.expiry = now + entry.ttl;
        }
        let rule = entry.rule;
        self.entries.insert(0, entry);
        Some(rule)
    }

    /// Installs `rule` (with timeout `ttl` seconds and the given semantics)
    /// at time `now`, evicting the entry with the shortest remaining
    /// lifetime if the table is full. Returns the evicted rule, if any.
    ///
    /// Installing a rule that is already cached refreshes it in place (the
    /// controller never double-installs, but probe races can make the
    /// simulator try).
    pub fn install(
        &mut self,
        rule: RuleId,
        ttl: f64,
        kind: TimeoutKind,
        now: f64,
    ) -> Option<RuleId> {
        self.purge_expired(now);
        if let Some(idx) = self.entries.iter().position(|e| e.rule == rule) {
            let mut entry = self.entries.remove(idx);
            entry.expiry = now + ttl;
            entry.ttl = ttl;
            entry.kind = kind;
            self.entries.insert(0, entry);
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            // Candidates least-recent-first (deepest entry first), with
            // `slot` = entry index; the policy's tie-break contract then
            // matches the historical "ties drop the least recent".
            let candidates: Vec<Candidate> = self
                .entries
                .iter()
                .enumerate()
                .rev()
                .map(|(i, e)| Candidate {
                    slot: i as u32,
                    remaining: e.expiry - now,
                    ttl: e.ttl,
                })
                .collect();
            let victim = self.policy.victim(&candidates);
            Some(self.entries.remove(candidates[victim].slot as usize).rule)
        } else {
            None
        };
        self.entries.insert(
            0,
            ClockEntry {
                rule,
                expiry: now + ttl,
                ttl,
                kind,
            },
        );
        evicted
    }

    /// The live rules at time `now`, in recency order.
    #[must_use]
    pub fn cached_rules_at(&self, now: f64) -> Vec<RuleId> {
        self.entries_at(now).map(|e| e.rule).collect()
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

    #[test]
    fn miss_then_hit() {
        let rules = rules();
        let mut t = ClockTable::new(2);
        assert_eq!(t.lookup(FlowId(1), 0.0, &rules), None);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0);
        assert_eq!(t.lookup(FlowId(1), 0.1, &rules), Some(RuleId(0)));
        assert_eq!(t.len_at(0.1), 1);
    }

    #[test]
    fn idle_timer_rearms_on_lookup() {
        let rules = rules();
        let mut t = ClockTable::new(2);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0);
        // Hit at 0.25 re-arms to 0.55.
        assert_eq!(t.lookup(FlowId(1), 0.25, &rules), Some(RuleId(0)));
        assert_eq!(t.lookup(FlowId(1), 0.5, &rules), Some(RuleId(0)));
        // Without the re-arm this would have expired at 0.3.
    }

    #[test]
    fn hard_timer_does_not_rearm() {
        let rules = rules();
        let mut t = ClockTable::new(2);
        t.install(RuleId(2), 0.3, TimeoutKind::Hard, 0.0);
        assert_eq!(t.lookup(FlowId(3), 0.25, &rules), Some(RuleId(2)));
        // Matched at 0.25 but hard deadline stays 0.3.
        assert_eq!(t.lookup(FlowId(3), 0.35, &rules), None);
    }

    #[test]
    fn expiry_purges_lazily() {
        let rules = rules();
        let mut t = ClockTable::new(2);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0);
        assert_eq!(t.cached_rules_at(0.2), vec![RuleId(0)]);
        assert!(t.cached_rules_at(0.31).is_empty());
        assert_eq!(t.lookup(FlowId(1), 0.31, &rules), None);
        assert_eq!(t.len_at(0.31), 0);
    }

    #[test]
    fn eviction_picks_shortest_remaining_lifetime() {
        let mut t = ClockTable::new(2);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0); // expires 0.3
        t.install(RuleId(1), 1.0, TimeoutKind::Idle, 0.0); // expires 1.0
        let evicted = t.install(RuleId(2), 0.7, TimeoutKind::Hard, 0.1);
        assert_eq!(evicted, Some(RuleId(0)));
        assert_eq!(t.cached_rules_at(0.1), vec![RuleId(2), RuleId(1)]);
    }

    #[test]
    fn reinstall_refreshes_in_place() {
        let rules = rules();
        let mut t = ClockTable::new(1);
        t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.0);
        let evicted = t.install(RuleId(0), 0.3, TimeoutKind::Idle, 0.2);
        assert_eq!(evicted, None);
        assert_eq!(t.lookup(FlowId(1), 0.45, &rules), Some(RuleId(0)));
    }

    #[test]
    fn lookup_prefers_highest_priority_live_rule() {
        let rules = rules();
        let mut t = ClockTable::new(2);
        t.install(RuleId(1), 1.0, TimeoutKind::Idle, 0.0);
        t.install(RuleId(0), 1.0, TimeoutKind::Idle, 0.0);
        // f1 covered by both cached rules; rule0 has higher priority.
        assert_eq!(t.lookup(FlowId(1), 0.1, &rules), Some(RuleId(0)));
    }

    #[test]
    fn cached_rules_in_recency_order() {
        let rules = rules();
        let mut t = ClockTable::new(3);
        t.install(RuleId(2), 1.0, TimeoutKind::Hard, 0.0);
        t.install(RuleId(0), 1.0, TimeoutKind::Idle, 0.1);
        t.lookup(FlowId(3), 0.2, &rules); // touch rule2 -> front
        assert_eq!(t.cached_rules_at(0.2), vec![RuleId(2), RuleId(0)]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = ClockTable::new(0);
    }
}
