//! A discrete-event SDN network simulator.
//!
//! This crate stands in for the paper's evaluation testbed (Mininet + the
//! Ryu controller + Open vSwitch, §VI-A), which is not reproducible in a
//! pure-Rust environment. It preserves the properties the attack depends
//! on:
//!
//! * **reactive rule installation** — a table miss buffers the packet,
//!   consults the controller, installs the highest-priority covering rule
//!   and releases the buffer;
//! * **timeouts and eviction** — per-rule idle/hard timeouts and
//!   shortest-remaining-lifetime eviction (or another
//!   [`ftcache::PolicyKind`]) in a bounded table: each switch runs an
//!   [`ftcache::ClockTable`];
//! * **the timing side channel** — hit and miss path latencies are sampled
//!   from the distributions the paper measured (hit ≈ N(0.087 ms,
//!   0.021 ms), miss adds ≈ N(3.98 ms, 1.8 ms) of rule-setup delay), so a
//!   1 ms threshold separates them exactly as in §VI-A;
//! * **topology** — hosts attach to switches; packets traverse shortest
//!   paths; a Stanford-backbone-like 16-switch topology mirrors the
//!   evaluation setup.
//!
//! Everything is driven by a seeded RNG and a virtual clock, so thousands
//! of trials run deterministically in milliseconds.
//!
//! # Example
//!
//! ```
//! use flowspace::{FlowId, FlowSet, Rule, RuleSet, Timeout};
//! use netsim::{NetConfig, Simulation};
//!
//! # fn main() -> Result<(), flowspace::RuleSetError> {
//! let rules = RuleSet::new(vec![
//!     Rule::from_flow_set(FlowSet::from_flows(16, [FlowId(3)]), 10, Timeout::idle(25)),
//! ], 16)?;
//! let config = NetConfig::eval_topology(rules, 6, 0.02);
//! let mut sim = Simulation::new(config, 42);
//! // First probe of flow 3 misses (slow); an immediate second probe hits.
//! let first = sim.probe(FlowId(3));
//! let second = sim.probe(FlowId(3));
//! assert!(!first.hit && second.hit);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod fault;
mod latency;
mod queue;
mod sim;
mod switch;
mod topology;

pub use config::{ConfigError, Defense, DelayPadding, NetConfig, WindowPadding};
pub use fault::{FaultKind, FaultPlan, JitterBursts};
pub use latency::{Gaussian, LatencyModel, ShiftedLogNormal};
pub use sim::{FaultStats, ProbeObservation, Simulation, SwitchStats};
pub use switch::SwitchMode;
pub use topology::{NodeId, Topology, TopologyError};
