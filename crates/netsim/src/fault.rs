//! Deterministic fault injection for the simulated network.
//!
//! The paper's testbed is a real Mininet deployment and therefore noisy
//! (§VI-A reports miss RTTs of 4.070 ms ± 1.806 ms and a nonzero 1 ms
//! threshold error); our simulator is idealized — every packet is
//! delivered and every packet-in reaches the controller. A [`FaultPlan`]
//! closes that gap on demand: it injects per-link packet loss,
//! control-channel faults (lost packet-ins, lost/delayed flow-mods,
//! table-full flow-mod rejections) and burst jitter episodes layered on
//! the [`LatencyModel`](crate::LatencyModel).
//!
//! Every fault draw comes from a dedicated RNG stream derived from the
//! trial seed (never from the latency stream), so enabling a fault with
//! probability 0.0 — or disabling the plan entirely — leaves the
//! fault-free simulation bit-identical to a run without any plan, and
//! parallel trial execution stays byte-equal to serial execution. Each
//! injected fault is counted in [`FaultStats`](crate::FaultStats) under
//! its [`FaultKind`] and, when it strikes a probe, flight-recorded as a
//! `fault` record on that probe's chain, so experiments can audit
//! exactly what was injected.

use crate::latency::Gaussian;
use serde::{Deserialize, Serialize};

/// Parameters of burst jitter episodes: the network alternates between
/// quiet periods and bursts (both exponentially distributed), and during
/// a burst every link-segment traversal pays an extra delay drawn from
/// `extra`. This models transient cross-traffic congestion — the regime
/// in which a cached-rule hit can exceed the 1 ms threshold and be
/// misclassified as a miss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterBursts {
    /// Mean quiet time between bursts, seconds (exponential).
    pub period_secs: f64,
    /// Mean burst duration, seconds (exponential).
    pub burst_secs: f64,
    /// Extra per-segment delay during a burst, seconds.
    pub extra: Gaussian,
}

/// A deterministic, seed-derived fault-injection plan.
///
/// All probabilities are per-event in `[0, 1]`; the default plan injects
/// nothing and is a strict no-op (the simulator takes no fault draws for
/// any probability that is exactly 0.0).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a data-plane packet is dropped on one link
    /// traversal (applied per forward hop, and once to the entire echo
    /// reply path).
    pub packet_loss: f64,
    /// Probability that a table-miss packet-in never reaches the
    /// controller: no flow-mod is produced and the buffered packet is
    /// dropped.
    pub packet_in_loss: f64,
    /// Probability that the controller's flow-mod is lost on the control
    /// channel: the rule is not installed and packets buffered behind the
    /// query are dropped.
    pub flow_mod_loss: f64,
    /// Probability that a flow-mod is delayed by [`FaultPlan::flow_mod_delay_secs`]
    /// on top of the sampled rule-setup latency.
    pub flow_mod_delay: f64,
    /// Extra control-channel delay for affected flow-mods, seconds.
    pub flow_mod_delay_secs: f64,
    /// Probability that a flow-mod arriving at a full reactive table is
    /// rejected (`OFPFMFC_TABLE_FULL`) instead of evicting a victim. The
    /// buffered packets are still forwarded (the controller's packet-out
    /// side is unaffected) but no rule is cached.
    pub table_full_reject: f64,
    /// Burst jitter episodes layered on the latency model, if any.
    pub jitter: Option<JitterBursts>,
}

/// The classes of injected fault, one per [`FaultStats`] counter — the
/// single fault taxonomy: [`FaultStats::count`] bumps the counter a
/// kind names, and the simulator flight-records the kind's
/// [`label`](FaultKind::label) on the affected probe's chain, so the
/// counters and the recorded events cannot disagree.
///
/// [`FaultStats`]: crate::FaultStats
/// [`FaultStats::count`]: crate::FaultStats::count
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Data-plane packet lost on a link.
    PacketsDropped,
    /// Table-miss packet-in that never reached the controller.
    PacketInsLost,
    /// Flow-mod lost on the control channel.
    FlowModsLost,
    /// Flow-mod delayed on the control channel.
    FlowModsDelayed,
    /// Flow-mod rejected by a full table.
    FlowModsRejected,
    /// Probe reply that never arrived within the timeout.
    ProbeTimeouts,
}

impl FaultKind {
    /// The canonical label: the matching [`FaultStats`] field name and
    /// the suffix of the `netsim.fault.*` metric.
    ///
    /// [`FaultStats`]: crate::FaultStats
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::PacketsDropped => "packets_dropped",
            FaultKind::PacketInsLost => "packet_ins_lost",
            FaultKind::FlowModsLost => "flow_mods_lost",
            FaultKind::FlowModsDelayed => "flow_mods_delayed",
            FaultKind::FlowModsRejected => "flow_mods_rejected",
            FaultKind::ProbeTimeouts => "probe_timeouts",
        }
    }
}

impl FaultPlan {
    /// The no-fault plan (identical to `FaultPlan::default()`).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan can never inject anything.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.packet_loss == 0.0
            && self.packet_in_loss == 0.0
            && self.flow_mod_loss == 0.0
            && (self.flow_mod_delay == 0.0 || self.flow_mod_delay_secs == 0.0)
            && self.table_full_reject == 0.0
            && self.jitter.is_none()
    }

    /// A one-knob profile for sweeps: data-plane loss at `rate`, each
    /// control-channel fault at `rate / 2`, a 20 ms flow-mod delay
    /// episode, and jitter bursts whose amplitude scales with `rate`
    /// (at 5% intensity a burst adds ≈ 1.6 ms to a reference-path RTT —
    /// enough to push some cached-rule hits over the 1 ms threshold).
    ///
    /// `rate == 0.0` yields the no-op plan.
    #[must_use]
    pub fn uniform(rate: f64) -> Self {
        if rate <= 0.0 {
            return FaultPlan::none();
        }
        FaultPlan {
            packet_loss: rate,
            packet_in_loss: rate / 2.0,
            flow_mod_loss: rate / 2.0,
            flow_mod_delay: rate / 2.0,
            flow_mod_delay_secs: 20.0e-3,
            table_full_reject: rate / 2.0,
            jitter: Some(JitterBursts {
                period_secs: 2.0,
                burst_secs: 0.5,
                extra: Gaussian {
                    mean: rate * 4.0e-3,
                    std: rate * 2.0e-3,
                },
            }),
        }
    }

    /// Every probability field with its name, for validation and display.
    #[must_use]
    pub fn probabilities(&self) -> [(&'static str, f64); 5] {
        [
            ("packet_loss", self.packet_loss),
            ("packet_in_loss", self.packet_in_loss),
            ("flow_mod_loss", self.flow_mod_loss),
            ("flow_mod_delay", self.flow_mod_delay),
            ("table_full_reject", self.table_full_reject),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop() {
        assert!(FaultPlan::default().is_noop());
        assert!(FaultPlan::none().is_noop());
        assert!(FaultPlan::uniform(0.0).is_noop());
        assert!(FaultPlan::uniform(-1.0).is_noop());
    }

    #[test]
    fn uniform_scales_with_rate() {
        let p = FaultPlan::uniform(0.1);
        assert!(!p.is_noop());
        assert_eq!(p.packet_loss, 0.1);
        assert_eq!(p.packet_in_loss, 0.05);
        assert!(p.jitter.is_some());
        for (_, v) in p.probabilities() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn zero_delay_secs_makes_delay_fault_noop() {
        let p = FaultPlan {
            flow_mod_delay: 0.5,
            flow_mod_delay_secs: 0.0,
            ..FaultPlan::default()
        };
        assert!(p.is_noop());
    }

    /// Counting each kind once yields exactly one increment, in the
    /// [`FaultStats`](crate::FaultStats) counter named by its label.
    #[test]
    fn fault_kind_matches_fault_stats_counters() {
        use crate::FaultStats;

        let counters = |s: &FaultStats| {
            [
                ("packets_dropped", s.packets_dropped),
                ("packet_ins_lost", s.packet_ins_lost),
                ("flow_mods_lost", s.flow_mods_lost),
                ("flow_mods_delayed", s.flow_mods_delayed),
                ("flow_mods_rejected", s.flow_mods_rejected),
                ("probe_timeouts", s.probe_timeouts),
            ]
        };
        for kind in [
            FaultKind::PacketsDropped,
            FaultKind::PacketInsLost,
            FaultKind::FlowModsLost,
            FaultKind::FlowModsDelayed,
            FaultKind::FlowModsRejected,
            FaultKind::ProbeTimeouts,
        ] {
            let mut stats = FaultStats::default();
            stats.count(kind);
            for (label, value) in counters(&stats) {
                let expected = u64::from(label == kind.label());
                assert_eq!(value, expected, "{kind:?} -> {label}");
            }
        }
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let p = FaultPlan::uniform(0.05);
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
