//! Determinism regression tests for the parallel probe-evaluation engine.
//!
//! Contract (see `recon_core::probe` and DESIGN.md): for a fixed model,
//! every probe-selection result produced under `ExecPolicy::Parallel { .. }`
//! is bit-identical to the serial result, for any thread count. Candidate
//! scores are pure functions of the planner's cached evolved
//! distributions, and the tie-breaking reductions run serially over
//! index-ordered score vectors, so scheduling cannot leak into the result.

use flow_recon::model::compact::CompactModel;
use flow_recon::model::exec::ExecPolicy;
use flow_recon::model::probe::ProbePlanner;
use flow_recon::model::useq::Evaluator;
use flow_recon::traffic::{NetworkScenario, ScenarioSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Samples a detector-feasible scenario from a small configuration class.
fn scenario(seed: u64, bits: u32, n_rules: usize, capacity: usize) -> NetworkScenario {
    let sampler = ScenarioSampler {
        bits,
        n_rules,
        capacity,
        ..ScenarioSampler::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    sampler.sample_forced((0.3, 0.7), &mut rng)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn parallel_probe_scoring_bit_identical_across_thread_counts() {
    for (i, sc) in [scenario(5, 3, 6, 3), scenario(17, 4, 12, 6)]
        .iter()
        .enumerate()
    {
        let rates = sc.rates();
        let model = CompactModel::build(&sc.rules, &rates, sc.capacity, Evaluator::mean_field())
            .expect("model");
        let horizon = sc.horizon_steps();
        let candidates: Vec<_> = sc.all_flows().collect();

        let serial = ProbePlanner::new(&model, sc.target, horizon);
        let best = serial.best_probe(candidates.iter().copied()).expect("best");
        let greedy = serial.best_sequence_greedy(&candidates, 3).expect("greedy");
        let exhaustive = serial
            .best_sequence_exhaustive(&candidates[..4.min(candidates.len())], 2)
            .expect("exhaustive");
        // The frontier-cached greedy result must equal a from-scratch walk
        // of the same sequence — cached prefixes are an optimization, not
        // a semantic change.
        assert_eq!(serial.analyze_sequence(&greedy.probes), greedy);

        for threads in THREAD_COUNTS {
            let parallel = ProbePlanner::with_policy(
                &model,
                sc.target,
                horizon,
                ExecPolicy::with_threads(threads),
            );
            assert_eq!(
                parallel
                    .best_probe(candidates.iter().copied())
                    .expect("best"),
                best,
                "scenario {i}: best_probe differs at {threads} threads"
            );
            assert_eq!(
                parallel
                    .best_sequence_greedy(&candidates, 3)
                    .expect("greedy"),
                greedy,
                "scenario {i}: best_sequence_greedy differs at {threads} threads"
            );
            assert_eq!(
                parallel
                    .best_sequence_exhaustive(&candidates[..4.min(candidates.len())], 2)
                    .expect("exhaustive"),
                exhaustive,
                "scenario {i}: best_sequence_exhaustive differs at {threads} threads"
            );
        }
    }
}
