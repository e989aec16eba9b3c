//! SDN switch flow-table caches.
//!
//! Two implementations of the rule cache the paper models:
//!
//! * [`FlowTable`] — a **discrete-step** table that follows the transition
//!   semantics of the paper's basic Markov model (§IV-A) *exactly*: per-step
//!   timer decrements, idle-timeout resets on match, hard timeouts, the
//!   timeout-takes-priority rule, and shortest-remaining-time eviction. This
//!   is the ground truth the Markov models of `recon-core` are validated
//!   against.
//! * [`ClockTable`] — a **continuous-time** table keyed on real-valued
//!   deadlines: the flow table of every switch in the `netsim`
//!   discrete-event simulator (the stand-in for Open vSwitch, which also
//!   evicts the rule with the shortest remaining lifetime).
//!
//! Both order entries by recency (most recently matched/installed first) and
//! store only *reactive* rules; permanently installed rules (the paper
//! reserves three table slots for them) are handled by the switch layer.
//!
//! Eviction is pluggable: both tables delegate the victim choice to a
//! [`CachePolicy`] from the [`policy`] module — [`PolicyKind::Srt`]
//! (the default, the paper's assumption), [`PolicyKind::Lru`], or the
//! FDRC-style [`PolicyKind::Fdrc`].
//!
//! # Example
//!
//! ```
//! use flowspace::{FlowId, FlowSet, Rule, RuleSet, Timeout};
//! use ftcache::{Access, FlowTable};
//!
//! # fn main() -> Result<(), flowspace::RuleSetError> {
//! let rules = RuleSet::new(vec![
//!     Rule::from_flow_set(FlowSet::from_flows(2, [FlowId(0)]), 10, Timeout::idle(5)),
//!     Rule::from_flow_set(FlowSet::from_flows(2, [FlowId(1)]), 5, Timeout::idle(5)),
//! ], 2)?;
//! let mut table = FlowTable::new(1);
//! // First arrival misses and installs; the second arrival of a different
//! // flow evicts (capacity 1).
//! assert!(matches!(table.on_arrival(FlowId(0), &rules), Access::Install { .. }));
//! assert!(matches!(table.on_arrival(FlowId(1), &rules),
//!                  Access::Install { evicted: Some(_), .. }));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod policy;
mod table;

pub use clock::{ClockEntry, ClockTable};
pub use policy::{CachePolicy, Candidate, CapacityError, PolicyKind};
pub use table::{Access, Entry, FlowTable, StepOutcome};
