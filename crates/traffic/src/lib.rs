//! Poisson traffic generation and experiment scenario sampling.
//!
//! The paper's evaluation (§VI-A) drives each of 16 client hosts with a
//! Poisson process (rate `λ_f ~ U[0,1]` per second), deploys 12 rules drawn
//! uniformly from the 81 ternary patterns over the 4 address bits, gives
//! each rule a TTL drawn from `{0.1 s, …, 1.0 s}`, and picks a target flow
//! whose probability of absence over the `T = 15 s` window lies in a bin of
//! interest. [`ScenarioSampler`] reproduces that generator; [`poisson`]
//! provides the underlying arrival-time machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod poisson;
mod sampler;

pub use sampler::{NetworkScenario, SampleError, ScenarioError, ScenarioSampler};
