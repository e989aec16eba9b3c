//! Criterion benchmark crate for the flow-recon workspace.
//!
//! The benchmarks live in `benches/`; this library only hosts small shared
//! fixtures so every bench constructs identical inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic::{NetworkScenario, ScenarioSampler};

/// A deterministic paper-scale scenario (|Rules| = 12, n = 6, 16 flows).
#[must_use]
pub fn paper_scale_scenario(seed: u64) -> NetworkScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    ScenarioSampler::default().sample_forced((0.3, 0.7), &mut rng)
}

/// A small scenario where even the basic model is tractable.
#[must_use]
pub fn small_scenario(seed: u64) -> NetworkScenario {
    let sampler = ScenarioSampler {
        bits: 2,
        n_rules: 3,
        capacity: 2,
        delta: 0.1,
        window_secs: 5.0,
        ttl_max_secs: 0.5,
        ..ScenarioSampler::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    sampler.sample_forced((0.3, 0.7), &mut rng)
}
