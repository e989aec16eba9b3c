//! The simulated SDN switch.

use crate::config::Defense;
use flowspace::{FlowId, RuleId, RuleSet};
use ftcache::{ClockTable, PolicyKind};
use serde::{Deserialize, Serialize};

/// How a switch handles table misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchMode {
    /// Rules are pulled from the controller on demand into a bounded table
    /// (the paper's attack surface).
    Reactive,
    /// All forwarding is pre-installed; lookups always take the fast path
    /// (used for transit switches, and for the §VII-B2 defense).
    Proactive,
}

/// Outcome of presenting a packet to a switch's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Lookup {
    /// Matched a cached (or permanent) rule; forwarded immediately.
    /// `rule` is the cached rule the reactive table matched (`None` at a
    /// proactive switch, which matches its pre-installed rules without a
    /// table lookup); `pad` carries any delay-padding the defense adds.
    Hit { pad: f64, rule: Option<RuleId> },
    /// No cached rule; a controller query for `rule` is needed (or is
    /// already in flight: the simulation knows which, from the packets
    /// parked behind it).
    Miss { rule: RuleId },
    /// No rule in the whole policy covers the flow: every such packet goes
    /// to the controller (the paper's pre-installed send-unmatched-ICMP-
    /// to-controller rule) and nothing is installed.
    Uncovered,
}

/// Counters exposed for tests and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchStats {
    /// Fast-path matches against reactive rules.
    pub hits: u64,
    /// Table misses that required rule setup.
    pub misses: u64,
    /// Packets of flows covered by no rule.
    pub uncovered: u64,
    /// Rules installed.
    pub installs: u64,
    /// Rules evicted to make room.
    pub evictions: u64,
    /// Hit packets delayed by the padding defense.
    pub padded: u64,
}

impl SwitchStats {
    /// Adds `other` into `self`. Plain unsigned addition, so merging is
    /// commutative and associative — parallel trial workers can fold
    /// their per-trial stats in any grouping and stay bit-identical.
    pub fn merge(&mut self, other: &SwitchStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.uncovered += other.uncovered;
        self.installs += other.installs;
        self.evictions += other.evictions;
        self.padded += other.padded;
    }

    /// Fast-path fraction over all matched packets (hits + misses);
    /// `None` for an idle switch.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        #[allow(clippy::cast_precision_loss)]
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Packets escalated to the controller: table misses plus packets no
    /// rule covers (the pre-installed send-to-controller rule).
    #[must_use]
    pub fn controller_load(&self) -> u64 {
        self.misses + self.uncovered
    }
}

#[derive(Debug)]
pub(crate) struct Switch {
    mode: SwitchMode,
    table: ClockTable,
    /// Per rule id: packets forwarded since the rule's latest install,
    /// and that install's time (the padding defenses' state). Every
    /// install, fresh or refreshed in place, resets its rule's entry,
    /// and a hit always follows its rule's latest install.
    padding: Vec<(u32, f64)>,
    defense: Defense,
    pub(crate) stats: SwitchStats,
}

impl Switch {
    pub(crate) fn new(
        mode: SwitchMode,
        capacity: usize,
        defense: Defense,
        n_rules: usize,
        policy: PolicyKind,
    ) -> Self {
        let mode = if defense.proactive {
            SwitchMode::Proactive
        } else {
            mode
        };
        Switch {
            mode,
            table: ClockTable::with_policy(capacity.max(1), policy),
            padding: vec![(0, 0.0); n_rules],
            defense,
            stats: SwitchStats::default(),
        }
    }

    /// Presents one packet of `flow` to the switch at time `now`. A
    /// flow outside the rule set's universe is covered by no rule.
    pub(crate) fn lookup(&mut self, flow: FlowId, now: f64, rules: &RuleSet) -> Lookup {
        if self.mode == SwitchMode::Proactive {
            self.stats.hits += 1;
            return Lookup::Hit {
                pad: 0.0,
                rule: None,
            };
        }
        if flow.index() >= rules.universe_size() {
            self.stats.uncovered += 1;
            return Lookup::Uncovered;
        }
        if let Some(rule) = self.table.lookup(flow, now, rules) {
            self.stats.hits += 1;
            let pad = self.padding_for(rule, now);
            return Lookup::Hit {
                pad,
                rule: Some(rule),
            };
        }
        match rules.highest_covering(flow) {
            Some(rule) => {
                self.stats.misses += 1;
                Lookup::Miss { rule }
            }
            None => {
                self.stats.uncovered += 1;
                Lookup::Uncovered
            }
        }
    }

    /// Installs `rule` upon the controller's reply at time `now`; returns
    /// the evicted victim, if any.
    pub(crate) fn install(
        &mut self,
        rule: RuleId,
        now: f64,
        rules: &RuleSet,
        delta: f64,
    ) -> Option<RuleId> {
        let spec = rules.rule(rule).timeout();
        let ttl = f64::from(spec.steps) * delta;
        self.padding[rule.0] = (0, now);
        let evicted = self.table.install(rule, ttl, spec.kind, now);
        self.stats.installs += 1;
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Whether the reactive table has no free slot at `now` (a flow-mod
    /// arriving now would have to evict — or be rejected by the
    /// table-full fault).
    pub(crate) fn is_full_at(&self, now: f64) -> bool {
        self.table.len_at(now) >= self.table.capacity()
    }

    /// The rules live in the reactive table at `now` (recency order).
    pub(crate) fn cached_rules(&self, now: f64) -> Vec<RuleId> {
        self.table.cached_rules_at(now)
    }

    fn padding_for(&mut self, rule: RuleId, now: f64) -> f64 {
        let mut pad = 0.0f64;
        let (pkts_since_install, installed_at) = &mut self.padding[rule.0];
        if let Some(cfg) = self.defense.delay_first {
            if *pkts_since_install < cfg.packets {
                *pkts_since_install += 1;
                pad = pad.max(cfg.pad_secs);
            }
        }
        if let Some(cfg) = self.defense.pad_recent {
            if now - *installed_at < cfg.window_secs {
                pad = pad.max(cfg.pad_secs);
            }
        }
        if pad > 0.0 {
            self.stats.padded += 1;
        }
        pad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayPadding;
    use flowspace::{FlowSet, Rule, Timeout};

    fn rules() -> RuleSet {
        RuleSet::new(
            vec![
                Rule::from_flow_set(FlowSet::from_flows(4, [FlowId(0)]), 2, Timeout::idle(10)),
                Rule::from_flow_set(FlowSet::from_flows(4, [FlowId(1)]), 1, Timeout::idle(10)),
            ],
            4,
        )
        .unwrap()
    }

    /// A reactive hit on `rule` with padding `pad`.
    fn hit(pad: f64, rule: usize) -> Lookup {
        Lookup::Hit {
            pad,
            rule: Some(RuleId(rule)),
        }
    }

    fn switch(mode: SwitchMode, capacity: usize, defense: Defense) -> Switch {
        Switch::new(
            mode,
            capacity,
            defense,
            rules().len(),
            PolicyKind::default(),
        )
    }

    #[test]
    fn miss_then_install_then_hit() {
        let rules = rules();
        let mut sw = switch(SwitchMode::Reactive, 2, Defense::default());
        assert_eq!(
            sw.lookup(FlowId(0), 0.0, &rules),
            Lookup::Miss { rule: RuleId(0) }
        );
        // A second packet before the install misses the same rule.
        assert_eq!(
            sw.lookup(FlowId(0), 0.001, &rules),
            Lookup::Miss { rule: RuleId(0) }
        );
        sw.install(RuleId(0), 0.004, &rules, 0.02);
        assert_eq!(sw.lookup(FlowId(0), 0.005, &rules), hit(0.0, 0));
        assert_eq!(sw.stats.hits, 1);
        assert_eq!(sw.stats.misses, 2);
        assert_eq!(sw.stats.installs, 1);
        assert_eq!(sw.cached_rules(0.005), vec![RuleId(0)]);
    }

    #[test]
    fn uncovered_flow_never_installs() {
        let rules = rules();
        let mut sw = switch(SwitchMode::Reactive, 2, Defense::default());
        assert_eq!(sw.lookup(FlowId(3), 0.0, &rules), Lookup::Uncovered);
        assert_eq!(sw.lookup(FlowId(3), 1.0, &rules), Lookup::Uncovered);
        assert_eq!(sw.stats.uncovered, 2);
        assert!(sw.cached_rules(1.0).is_empty());
    }

    #[test]
    fn proactive_always_hits() {
        let rules = rules();
        let mut sw = switch(SwitchMode::Proactive, 2, Defense::default());
        assert_eq!(
            sw.lookup(FlowId(3), 0.0, &rules),
            Lookup::Hit {
                pad: 0.0,
                rule: None
            }
        );
        assert_eq!(sw.stats.hits, 1);
    }

    #[test]
    fn proactive_defense_overrides_mode() {
        let rules = rules();
        let defense = Defense {
            proactive: true,
            ..Defense::default()
        };
        let mut sw = switch(SwitchMode::Reactive, 2, defense);
        assert_eq!(
            sw.lookup(FlowId(0), 0.0, &rules),
            Lookup::Hit {
                pad: 0.0,
                rule: None
            }
        );
    }

    #[test]
    fn rule_expires_and_misses_again() {
        let rules = rules();
        let mut sw = switch(SwitchMode::Reactive, 2, Defense::default());
        sw.lookup(FlowId(0), 0.0, &rules);
        sw.install(RuleId(0), 0.004, &rules, 0.02); // ttl = 0.2 s
        assert!(matches!(
            sw.lookup(FlowId(0), 0.1, &rules),
            Lookup::Hit { .. }
        ));
        // Idle timer re-armed at 0.1 → expires at 0.3.
        assert_eq!(
            sw.lookup(FlowId(0), 0.35, &rules),
            Lookup::Miss { rule: RuleId(0) }
        );
    }

    #[test]
    fn delay_padding_pads_first_packets_only() {
        let rules = rules();
        let defense = Defense {
            delay_first: Some(DelayPadding {
                packets: 2,
                pad_secs: 0.004,
            }),
            ..Defense::default()
        };
        let mut sw = switch(SwitchMode::Reactive, 2, defense);
        sw.lookup(FlowId(0), 0.0, &rules);
        sw.install(RuleId(0), 0.004, &rules, 0.02);
        assert_eq!(sw.lookup(FlowId(0), 0.01, &rules), hit(0.004, 0));
        assert_eq!(sw.lookup(FlowId(0), 0.02, &rules), hit(0.004, 0));
        assert_eq!(sw.lookup(FlowId(0), 0.03, &rules), hit(0.0, 0));
        assert_eq!(sw.stats.padded, 2);
    }

    #[test]
    fn every_install_restarts_delay_padding() {
        let rules = rules();
        let defense = Defense {
            delay_first: Some(DelayPadding {
                packets: 1,
                pad_secs: 0.004,
            }),
            ..Defense::default()
        };
        let mut sw = switch(SwitchMode::Reactive, 1, defense);
        sw.install(RuleId(0), 0.0, &rules, 0.02);
        assert_eq!(sw.lookup(FlowId(0), 0.01, &rules), hit(0.004, 0));
        assert_eq!(sw.lookup(FlowId(0), 0.02, &rules), hit(0.0, 0));
        // A refresh in place restarts the count...
        sw.install(RuleId(0), 0.03, &rules, 0.02);
        assert_eq!(sw.lookup(FlowId(0), 0.04, &rules), hit(0.004, 0));
        // ...and so does a fresh install after an eviction.
        assert_eq!(sw.install(RuleId(1), 0.05, &rules, 0.02), Some(RuleId(0)));
        assert_eq!(sw.install(RuleId(0), 0.06, &rules, 0.02), Some(RuleId(1)));
        assert_eq!(sw.lookup(FlowId(0), 0.07, &rules), hit(0.004, 0));
        assert_eq!(sw.stats.padded, 3);
    }

    #[test]
    fn window_padding_pads_until_window_elapses() {
        let rules = rules();
        let defense = Defense {
            pad_recent: Some(crate::config::WindowPadding {
                window_secs: 0.5,
                pad_secs: 0.004,
            }),
            ..Defense::default()
        };
        let mut sw = switch(SwitchMode::Reactive, 2, defense);
        sw.lookup(FlowId(0), 0.0, &rules);
        sw.install(RuleId(0), 0.004, &rules, 0.02);
        // Every hit within 0.5 s of installation is padded...
        assert_eq!(sw.lookup(FlowId(0), 0.1, &rules), hit(0.004, 0));
        assert_eq!(sw.lookup(FlowId(0), 0.3, &rules), hit(0.004, 0));
        assert_eq!(sw.lookup(FlowId(0), 0.49, &rules), hit(0.004, 0));
        // ...and unpadded afterwards (the idle rule is kept alive by the
        // hits themselves).
        assert_eq!(sw.lookup(FlowId(0), 0.6, &rules), hit(0.0, 0));
        assert_eq!(sw.stats.padded, 3);
    }

    #[test]
    fn fullness_tracks_live_rules() {
        let rules = rules();
        let mut sw = switch(SwitchMode::Reactive, 1, Defense::default());
        assert!(!sw.is_full_at(0.0));
        sw.lookup(FlowId(0), 0.0, &rules);
        sw.install(RuleId(0), 0.004, &rules, 0.02); // ttl = 0.2 s
        assert!(sw.is_full_at(0.01));
        // After the idle timeout expires the slot frees up again.
        assert!(!sw.is_full_at(1.0));
    }

    #[test]
    fn eviction_counted() {
        let rules = rules();
        let mut sw = switch(SwitchMode::Reactive, 1, Defense::default());
        sw.lookup(FlowId(0), 0.0, &rules);
        sw.install(RuleId(0), 0.004, &rules, 0.02);
        sw.lookup(FlowId(1), 0.01, &rules);
        sw.install(RuleId(1), 0.014, &rules, 0.02);
        assert_eq!(sw.stats.evictions, 1);
        assert_eq!(sw.cached_rules(0.014), vec![RuleId(1)]);
    }
}
