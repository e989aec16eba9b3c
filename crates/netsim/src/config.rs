//! Simulation configuration.

use crate::fault::FaultPlan;
use crate::{LatencyModel, NodeId, Topology};
use flowspace::RuleSet;
use ftcache::PolicyKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed validation error for a malformed [`NetConfig`].
///
/// Experiment sweeps construct thousands of configurations
/// programmatically; a bad one should surface as a `Result` at the
/// CLI/experiments boundary instead of aborting mid-sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The topology has no switches.
    EmptyTopology,
    /// The reactive flow-table capacity is zero.
    ZeroCapacity,
    /// `transit_reactive` is set but the transit capacity is zero.
    ZeroTransitCapacity,
    /// The model step Δ is non-positive or non-finite.
    BadDelta(f64),
    /// A switch id is out of range for the topology.
    NodeOutOfRange {
        /// Which field named the switch (`"ingress"` or `"server"`).
        role: &'static str,
        /// The offending id.
        node: NodeId,
        /// Number of switches in the topology.
        len: usize,
    },
    /// The ingress and server switches are not connected.
    Disconnected {
        /// The attacker's switch.
        ingress: NodeId,
        /// The server's switch.
        server: NodeId,
    },
    /// A latency-model parameter is non-finite.
    NonFiniteLatency {
        /// Which parameter.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault probability lies outside `[0, 1]` (or is NaN).
    FaultProbabilityOutOfRange {
        /// Which [`FaultPlan`] field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault-plan duration/amplitude is negative or non-finite.
    BadFaultParameter {
        /// Which [`FaultPlan`] field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A cache-policy name is not one of the built-in policies.
    UnknownPolicy {
        /// The unrecognized name as given (e.g. on the CLI).
        name: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::EmptyTopology => write!(f, "topology has no switches"),
            ConfigError::ZeroCapacity => write!(f, "reactive flow-table capacity must be ≥ 1"),
            ConfigError::ZeroTransitCapacity => {
                write!(f, "transit_reactive requires transit_capacity ≥ 1")
            }
            ConfigError::BadDelta(d) => {
                write!(f, "model step delta must be finite and > 0, got {d}")
            }
            ConfigError::NodeOutOfRange { role, node, len } => {
                write!(f, "{role} switch {node} out of range (topology has {len})")
            }
            ConfigError::Disconnected { ingress, server } => {
                write!(f, "ingress {ingress} and server {server} are disconnected")
            }
            ConfigError::NonFiniteLatency { field, value } => {
                write!(f, "latency parameter {field} must be finite, got {value}")
            }
            ConfigError::FaultProbabilityOutOfRange { field, value } => {
                write!(
                    f,
                    "fault probability {field} must lie in [0, 1], got {value}"
                )
            }
            ConfigError::BadFaultParameter { field, value } => {
                write!(
                    f,
                    "fault parameter {field} must be finite and ≥ 0, got {value}"
                )
            }
            ConfigError::UnknownPolicy { ref name } => {
                write!(
                    f,
                    "unknown cache policy {name:?} (expected srt, lru or fdrc)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Countermeasure configuration (§VII-B).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Defense {
    /// Delay-padding defense (§VII-B1, after Cui et al.): the switch delays
    /// the first `packets` packets matched by each freshly installed rule
    /// by `pad_secs`, hiding whether the rule was already cached.
    pub delay_first: Option<DelayPadding>,
    /// Window-padding defense (a stronger §VII-B1 variant): all matches on
    /// recently installed rules are delayed, not just the first few
    /// packets.
    pub pad_recent: Option<WindowPadding>,
    /// Proactive rule setup (§VII-B2): all rules are installed permanently
    /// up front, so no probe can ever observe a miss.
    pub proactive: bool,
}

/// Parameters of the delay-padding defense.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayPadding {
    /// How many packets after installation are padded.
    pub packets: u32,
    /// The added delay in seconds (should dominate `t_setup`).
    pub pad_secs: f64,
}

/// Parameters of the window-padding defense: every fast-path match on a
/// rule installed within the last `window_secs` is delayed by `pad_secs`.
/// With `window_secs` at least the rules' TTLs, a reactive rule *never*
/// answers fast, closing the side channel completely (at the cost of
/// padding every flow, §VII-B1's noted downside).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowPadding {
    /// How long after installation matches keep being padded, seconds.
    pub window_secs: f64,
    /// The added delay in seconds (should dominate `t_setup`).
    pub pad_secs: f64,
}

/// Full configuration of a simulated network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// The switch graph.
    pub topology: Topology,
    /// The controller's reactive rule set.
    pub rules: RuleSet,
    /// Seconds per model step Δ; rule timeouts (in steps) are scaled by
    /// this to obtain wall-clock TTLs.
    pub delta: f64,
    /// Reactive flow-table capacity at the ingress switch (`n`); the paper
    /// reserves extra physical slots for permanent rules, which are modeled
    /// separately and do not consume this capacity.
    pub capacity: usize,
    /// Latency distributions.
    pub latency: LatencyModel,
    /// The switch the client hosts (and the attacker) attach to — the
    /// switch under attack.
    pub ingress: NodeId,
    /// The switch the common destination server attaches to.
    pub server: NodeId,
    /// Whether transit switches (everything but the ingress) also install
    /// rules reactively. The paper's evaluation effectively studies the
    /// shared ingress switch and keeps the rest of the fabric forwarding
    /// proactively (its pre-installed path rules); setting this to true
    /// explores the §VII-A multi-switch surface.
    pub transit_reactive: bool,
    /// Reactive table capacity of transit switches when
    /// `transit_reactive` is set.
    pub transit_capacity: usize,
    /// Enabled countermeasures.
    pub defense: Defense,
    /// Deterministic fault injection (defaults to the no-op plan).
    pub faults: FaultPlan,
    /// Rule-cache eviction policy run by every reactive switch table
    /// (defaults to [`PolicyKind::Srt`], the paper's OVS assumption).
    pub policy: PolicyKind,
}

impl NetConfig {
    /// The paper's evaluation setup (§VI-A): the Stanford-backbone-like
    /// topology, 16 client hosts plus the attacker on one randomly chosen
    /// zone switch (we fix `s2`), the server behind another (`s9`),
    /// paper-calibrated latencies and no defense.
    #[must_use]
    pub fn eval_topology(rules: RuleSet, capacity: usize, delta: f64) -> Self {
        NetConfig {
            topology: Topology::stanford_backbone(),
            rules,
            delta,
            capacity,
            latency: LatencyModel::paper_calibrated(),
            ingress: NodeId(2),
            server: NodeId(9),
            transit_reactive: false,
            transit_capacity: capacity,
            defense: Defense::default(),
            faults: FaultPlan::default(),
            policy: PolicyKind::default(),
        }
        .with_route()
    }

    /// A datacenter-scale variant on a `k`-ary fat tree
    /// ([`Topology::fat_tree`]): the attacker and clients share the
    /// first edge switch of pod 0, the server sits behind the first
    /// edge switch of the last pod (a maximal four-hop path through
    /// the core), paper-calibrated latencies and no defense.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or less than 2.
    #[must_use]
    pub fn fat_tree(rules: RuleSet, k: usize, capacity: usize, delta: f64) -> Self {
        NetConfig {
            topology: Topology::fat_tree(k),
            rules,
            delta,
            capacity,
            latency: LatencyModel::paper_calibrated(),
            ingress: Topology::fat_tree_edge(k, 0, 0),
            server: Topology::fat_tree_edge(k, k - 1, 0),
            transit_reactive: false,
            transit_capacity: capacity,
            defense: Defense::default(),
            faults: FaultPlan::default(),
            policy: PolicyKind::default(),
        }
        .with_route()
    }

    /// A minimal single-switch variant, handy for tests and examples.
    #[must_use]
    pub fn single_switch(rules: RuleSet, capacity: usize, delta: f64) -> Self {
        NetConfig {
            topology: Topology::single_switch(),
            rules,
            delta,
            capacity,
            latency: LatencyModel::paper_calibrated(),
            ingress: NodeId(0),
            server: NodeId(0),
            transit_reactive: false,
            transit_capacity: capacity,
            defense: Defense::default(),
            faults: FaultPlan::default(),
            policy: PolicyKind::default(),
        }
        .with_route()
    }

    /// Resolves the ingress→server route once, with the call
    /// [`Simulation::new`](crate::Simulation::new) makes, so the routing
    /// work is part of building the configuration and every clone
    /// carries the computed route. A disconnected pair is left for
    /// [`NetConfig::validate`] to report.
    fn with_route(self) -> Self {
        let _ = self.topology.path(self.ingress, self.server);
        self
    }

    /// Sets the cache policy from its CLI/config name — the boundary
    /// validation behind `flow-recon simulate --policy`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownPolicy`] if `name` is not `srt`, `lru` or
    /// `fdrc`.
    pub fn set_policy_by_name(&mut self, name: &str) -> Result<(), ConfigError> {
        match PolicyKind::parse(name) {
            Some(p) => {
                self.policy = p;
                Ok(())
            }
            None => Err(ConfigError::UnknownPolicy {
                name: name.to_string(),
            }),
        }
    }

    /// Checks the configuration for the mistakes a programmatic sweep can
    /// make: zero-capacity tables, empty topologies, non-finite latencies,
    /// out-of-range fault probabilities, disconnected endpoints.
    ///
    /// [`Simulation::try_new`](crate::Simulation::try_new) runs this
    /// before building the event loop, so a malformed configuration
    /// surfaces as a `Result` instead of a panic mid-sweep.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, in the declaration order above.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let len = self.topology.len();
        if len == 0 {
            return Err(ConfigError::EmptyTopology);
        }
        if self.capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if self.transit_reactive && self.transit_capacity == 0 {
            return Err(ConfigError::ZeroTransitCapacity);
        }
        if !self.delta.is_finite() || self.delta <= 0.0 {
            return Err(ConfigError::BadDelta(self.delta));
        }
        for (role, node) in [("ingress", self.ingress), ("server", self.server)] {
            if node.0 >= len {
                return Err(ConfigError::NodeOutOfRange { role, node, len });
            }
        }
        if self.topology.path(self.ingress, self.server).is_err() {
            return Err(ConfigError::Disconnected {
                ingress: self.ingress,
                server: self.server,
            });
        }
        let latency = [
            ("path_one_way.mean", self.latency.path_one_way.mean),
            ("path_one_way.std", self.latency.path_one_way.std),
            ("rule_setup.shift", self.latency.rule_setup.shift),
            ("rule_setup.mu", self.latency.rule_setup.mu),
            ("rule_setup.sigma", self.latency.rule_setup.sigma),
        ];
        for (field, value) in latency {
            if !value.is_finite() {
                return Err(ConfigError::NonFiniteLatency { field, value });
            }
        }
        for (field, value) in self.faults.probabilities() {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::FaultProbabilityOutOfRange { field, value });
            }
        }
        let mut durations = vec![("flow_mod_delay_secs", self.faults.flow_mod_delay_secs)];
        if let Some(j) = self.faults.jitter {
            durations.extend([
                ("jitter.period_secs", j.period_secs),
                ("jitter.burst_secs", j.burst_secs),
                ("jitter.extra.mean", j.extra.mean),
                ("jitter.extra.std", j.extra.std),
            ]);
        }
        for (field, value) in durations {
            if !value.is_finite() || value < 0.0 {
                return Err(ConfigError::BadFaultParameter { field, value });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowspace::{FlowId, FlowSet, Rule, Timeout};

    fn rules() -> RuleSet {
        RuleSet::new(
            vec![Rule::from_flow_set(
                FlowSet::from_flows(4, [FlowId(0)]),
                1,
                Timeout::idle(5),
            )],
            4,
        )
        .unwrap()
    }

    #[test]
    fn eval_topology_defaults() {
        let c = NetConfig::eval_topology(rules(), 6, 0.02);
        assert_eq!(c.topology.len(), 16);
        assert_eq!(c.capacity, 6);
        assert_eq!(c.defense, Defense::default());
        assert_ne!(c.ingress, c.server);
        // Ingress and server are connected.
        assert!(c.topology.path(c.ingress, c.server).is_ok());
    }

    #[test]
    fn fat_tree_config_validates_and_crosses_the_core() {
        let c = NetConfig::fat_tree(rules(), 4, 6, 0.02);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.topology.len(), 20);
        // Ingress and server are in different pods: a four-hop path.
        assert_eq!(c.topology.distance(c.ingress, c.server).unwrap(), 4);
    }

    #[test]
    fn config_serializes() {
        let c = NetConfig::single_switch(rules(), 2, 0.05);
        let json = serde_json::to_string(&c).unwrap();
        let back: NetConfig = serde_json::from_str(&json).unwrap();
        // Structured fields round-trip exactly; floats within 1 ulp-ish.
        assert_eq!(c.rules, back.rules);
        assert_eq!(c.topology, back.topology);
        assert_eq!(c.defense, back.defense);
        assert_eq!(
            (c.capacity, c.ingress, c.server),
            (back.capacity, back.ingress, back.server)
        );
        assert!((c.latency.rule_setup.mu - back.latency.rule_setup.mu).abs() < 1e-12);
    }

    #[test]
    fn default_configs_validate() {
        assert_eq!(
            NetConfig::eval_topology(rules(), 6, 0.02).validate(),
            Ok(())
        );
        assert_eq!(
            NetConfig::single_switch(rules(), 2, 0.05).validate(),
            Ok(())
        );
        let mut faulty = NetConfig::eval_topology(rules(), 6, 0.02);
        faulty.faults = crate::FaultPlan::uniform(0.1);
        assert_eq!(faulty.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_capacity_and_bad_delta() {
        let mut c = NetConfig::eval_topology(rules(), 6, 0.02);
        c.capacity = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCapacity));
        c.capacity = 6;
        c.delta = 0.0;
        assert_eq!(c.validate(), Err(ConfigError::BadDelta(0.0)));
        c.delta = f64::NAN;
        assert!(matches!(c.validate(), Err(ConfigError::BadDelta(_))));
    }

    #[test]
    fn validate_rejects_out_of_range_and_disconnected_nodes() {
        let mut c = NetConfig::eval_topology(rules(), 6, 0.02);
        c.server = NodeId(99);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NodeOutOfRange { role: "server", .. })
        ));
        let mut c = NetConfig::eval_topology(rules(), 6, 0.02);
        c.topology = Topology::new(2, &[]).unwrap();
        c.ingress = NodeId(0);
        c.server = NodeId(1);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Disconnected { .. })
        ));
    }

    #[test]
    fn validate_rejects_non_finite_latency() {
        let mut c = NetConfig::eval_topology(rules(), 6, 0.02);
        c.latency.path_one_way.mean = f64::INFINITY;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonFiniteLatency {
                field: "path_one_way.mean",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_bad_fault_parameters() {
        let mut c = NetConfig::eval_topology(rules(), 6, 0.02);
        c.faults.packet_loss = 1.5;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::FaultProbabilityOutOfRange {
                field: "packet_loss",
                ..
            })
        ));
        c.faults.packet_loss = 0.5;
        c.faults.flow_mod_delay_secs = -1.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadFaultParameter {
                field: "flow_mod_delay_secs",
                ..
            })
        ));
        c.faults.flow_mod_delay_secs = 0.0;
        c.faults.jitter = Some(crate::JitterBursts {
            period_secs: f64::NAN,
            burst_secs: 0.5,
            extra: crate::Gaussian {
                mean: 1e-3,
                std: 1e-3,
            },
        });
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadFaultParameter {
                field: "jitter.period_secs",
                ..
            })
        ));
    }

    #[test]
    fn errors_render_readably() {
        let e = ConfigError::FaultProbabilityOutOfRange {
            field: "packet_loss",
            value: 2.0,
        };
        assert!(e.to_string().contains("packet_loss"));
        assert!(ConfigError::ZeroCapacity.to_string().contains("capacity"));
    }
}
