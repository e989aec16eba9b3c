//! Markov models of an SDN switch rule cache and information-gain probe
//! selection — the core contribution of *"Flow Reconnaissance via Timing
//! Attacks on SDN Switches"* (ICDCS 2017).
//!
//! # Overview
//!
//! The attacker wants to answer: *did target flow f̂ traverse the switch in
//! the last `T` steps?* The switch's reactive rule installation leaks this
//! through packet timing, but rule overlap, priorities, timeouts and
//! evictions make the inference nontrivial. This crate provides:
//!
//! * [`basic::BasicModel`] — the paper's §IV-A high-fidelity Markov chain
//!   whose states are complete cache configurations (rules + remaining
//!   times, in recency order). Exact but exponential; used for validation
//!   and the scalability study.
//! * [`compact::CompactModel`] — the §IV-B approximation whose states are
//!   just the *subsets* of rules currently cached. Eviction and timeout
//!   probabilities are estimated from the distribution of
//!   most-recent-match sequences (`u` in the paper), via a pluggable
//!   [`useq::Evaluator`].
//! * [`probe`] — the §V attacker calculations: evolve the state
//!   distribution (`I_T = Aᵀ·I₀`, Eqn 8), compute the information gain of
//!   every candidate probe flow, pick the best probe(s), and build the
//!   multi-probe decision tree.
//!
//! # Example
//!
//! ```
//! use flowspace::{relevant::FlowRates, FlowId, FlowSet, Rule, RuleSet, Timeout};
//! use recon_core::{compact::CompactModel, probe::ProbePlanner, useq::Evaluator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Figure 2c of the paper: probing f2 is better than probing the target
//! // f1 itself, because matching rule0 (covering f1,f2) pins down more.
//! let u = 4;
//! let rules = RuleSet::new(vec![
//!     Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1), FlowId(2)]), 20, Timeout::idle(8)),
//!     Rule::from_flow_set(FlowSet::from_flows(u, [FlowId(1), FlowId(3)]), 10, Timeout::idle(8)),
//! ], u)?;
//! let rates = FlowRates::from_per_step(vec![0.0, 0.02, 0.01, 0.05]);
//! let model = CompactModel::build(&rules, &rates, 2, Evaluator::mean_field())?;
//! let planner = ProbePlanner::new(&model, FlowId(1), 100);
//! let best = planner.best_probe((0..4).map(FlowId))?;
//! # let _ = best;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
mod api;
pub mod basic;
pub mod compact;
pub mod counts;
mod dist;
pub mod exec;
pub mod leakage;
mod matrix;
pub mod monitor;
pub mod probe;
pub mod useq;

pub use api::SwitchModel;
pub use dist::{entropy, Distribution};
pub use matrix::{CsrMatrix, MatrixBuilder};

/// Errors produced while building or querying models.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The reachable state space exceeded the configured bound.
    TooManyStates {
        /// The configured bound that was exceeded.
        limit: usize,
    },
    /// The rule set has more rules than the compact state encoding supports.
    TooManyRules {
        /// Number of rules supplied.
        found: usize,
        /// Maximum supported.
        max: usize,
    },
    /// The rates' universe does not match the rule set's.
    UniverseMismatch {
        /// Universe of the rule set.
        rules: usize,
        /// Universe of the rate vector.
        rates: usize,
    },
    /// No candidate probes were supplied to a selection routine.
    NoCandidates,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::TooManyStates { limit } => {
                write!(
                    f,
                    "reachable state space exceeds the limit of {limit} states"
                )
            }
            ModelError::TooManyRules { found, max } => {
                write!(
                    f,
                    "rule set has {found} rules, compact encoding supports at most {max}"
                )
            }
            ModelError::UniverseMismatch { rules, rates } => {
                write!(
                    f,
                    "rule set universe {rules} does not match rate universe {rates}"
                )
            }
            ModelError::NoCandidates => write!(f, "no candidate probe flows supplied"),
        }
    }
}

impl std::error::Error for ModelError {}
