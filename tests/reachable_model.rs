//! The compact model keeps only the cache states reachable from the empty
//! cache (see the `recon_core::compact` module docs). Two kinds of gate:
//!
//! * **Same bits.** Attack plans at the paper's scale (|Rules| = 12,
//!   n = 6), where the unreachable subsets are most of the 2 510, and a
//!   multi-probe + adaptive plan at the `--fast` scale are pinned by FNV-1a
//!   digests of their JSON, recorded from the model that built every subset
//!   of at most n rules. An unreachable subset's probability is exactly 0 at
//!   every step, so dropping it must move no bit.
//! * **The state set is the closure.** A `ftcache::FlowTable` driven from
//!   empty by random arrivals, quiet steps and probes, under every eviction
//!   policy, only ever holds contents the model has a state for; and a
//!   graph search of the two structural moves (a miss installs its
//!   flow's highest-priority rule, any cached rule times out) reaches
//!   exactly the model's states, in the model's order. The random rule sets
//!   include zero-rate flows and a rule fully shadowed by a
//!   higher-priority one.

use flow_recon::attack::plan_attack_full;
use flow_recon::flowspace::relevant::FlowRates;
use flow_recon::flowspace::{FlowId, FlowSet, Rule, RuleId, RuleSet, Timeout};
use flow_recon::ftcache::{FlowTable, PolicyKind};
use flow_recon::model::compact::CompactModel;
use flow_recon::model::counts::compact_state_count;
use flow_recon::model::exec::ExecPolicy;
use flow_recon::model::useq::Evaluator;
use flow_recon::obs::manifest::fnv1a;
use flow_recon::traffic::{NetworkScenario, ScenarioSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const POLICIES: [PolicyKind; 3] = [PolicyKind::Srt, PolicyKind::Lru, PolicyKind::Fdrc];

/// Digests of `serde_json::to_string(&plan_attack_full(sc, mean-field, 0,
/// 0, serial, policy))` for the first three paper-scale scenarios drawn
/// from seed 5 (rows; 247, 247 and 466 of 2 510 subsets reachable) under
/// SRT, LRU and FDRC (columns). Recorded from a release build of commit
/// c0f633b, whose model built every subset of at most n rules: with this
/// file copied into that tree and its pruning assertion relaxed to `<=`,
/// `cargo test --release --test reachable_model keep` prints the digests
/// it computes when they differ from these.
const PAPER_PINS: [[u64; 3]; 3] = [
    [
        0x08fd_9152_80ba_3717,
        0x51e6_5c0d_ab6b_fc24,
        0xa6a5_1481_c6c6_3676,
    ],
    [
        0x511b_66d6_4c2d_b73f,
        0xe616_9864_18a4_c341,
        0xc39f_5cdd_2955_b1c8,
    ],
    [
        0x02ab_e13a_a086_369d,
        0x770b_b652_202e_5d38,
        0xbaf4_4d30_0d05_cdc3,
    ],
];

/// The same digest for the first `--fast`-scale scenario drawn from seed
/// 5, planned with `multi_probes = 2` and `adaptive_depth = 2` (SRT).
const FAST_PIN: u64 = 0x9e5e_7aa6_a6ec_8dc6;

fn plan_digest(sc: &NetworkScenario, multi: usize, depth: usize, policy: PolicyKind) -> u64 {
    let plan = plan_attack_full(
        sc,
        Evaluator::mean_field(),
        multi,
        depth,
        ExecPolicy::Serial,
        policy,
    )
    .expect("the pinned scenarios plan");
    fnv1a(
        serde_json::to_string(&plan)
            .expect("a plan serializes")
            .as_bytes(),
    )
}

#[test]
fn paper_scale_plans_keep_their_bits() {
    let mut rng = StdRng::seed_from_u64(5);
    let sampler = ScenarioSampler::default();
    let mut digests = [[0u64; 3]; 3];
    for row in &mut digests {
        let sc = sampler.sample_forced((0.05, 0.95), &mut rng);
        let model =
            CompactModel::build(&sc.rules, &sc.rates(), sc.capacity, Evaluator::mean_field())
                .expect("model builds");
        let bound = compact_state_count(sc.rules.len(), sc.capacity).expect("fits u128");
        assert!(
            (model.n_states() as u128) < bound,
            "the pins must exercise pruning: {} of {bound} states",
            model.n_states()
        );
        for (digest, policy) in row.iter_mut().zip(POLICIES) {
            *digest = plan_digest(&sc, 0, 0, policy);
        }
    }
    assert_eq!(
        digests, PAPER_PINS,
        "paper-scale plan digests moved; computed: {digests:#018x?}"
    );
}

#[test]
fn fast_scale_multi_probe_and_adaptive_plan_keeps_its_bits() {
    let sampler = ScenarioSampler {
        bits: 3,
        n_rules: 6,
        capacity: 3,
        delta: 0.05,
        window_secs: 10.0,
        ..ScenarioSampler::default()
    };
    let sc = sampler.sample_forced((0.05, 0.95), &mut StdRng::seed_from_u64(5));
    let digest = plan_digest(&sc, 2, 2, PolicyKind::Srt);
    assert_eq!(digest, FAST_PIN, "computed: {digest:#018x}");
}

/// A random rule set over `universe` flows. Rule 1 covers a subset of
/// rule 0's flows at lower priority, so it is no flow's highest-priority
/// match; the others cover random nonempty flow sets, with idle or hard
/// timeouts of 1–6 steps.
fn random_rules(rng: &mut StdRng, universe: usize, n_rules: usize) -> RuleSet {
    let mut covers: Vec<Vec<FlowId>> = Vec::with_capacity(n_rules);
    for i in 0..n_rules {
        let pool: Vec<FlowId> = if i == 1 {
            covers[0].clone()
        } else {
            (0..universe as u32).map(FlowId).collect()
        };
        let mut flows: Vec<FlowId> = pool.iter().copied().filter(|_| rng.gen_bool(0.4)).collect();
        if flows.is_empty() {
            flows.push(pool[rng.gen_range(0..pool.len())]);
        }
        covers.push(flows);
    }
    let rules = covers
        .into_iter()
        .enumerate()
        .map(|(i, flows)| {
            let steps = rng.gen_range(1u32..=6);
            let timeout = if rng.gen_bool(0.5) {
                Timeout::idle(steps)
            } else {
                Timeout::hard(steps)
            };
            Rule::from_flow_set(
                FlowSet::from_flows(universe, flows),
                100 - i as u32,
                timeout,
            )
        })
        .collect();
    RuleSet::new(rules, universe).expect("distinct priorities")
}

/// Per-step rates with roughly a third of the flows at rate 0.
fn random_rates(rng: &mut StdRng, universe: usize) -> FlowRates {
    FlowRates::from_per_step(
        (0..universe)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(0.01..0.3)
                }
            })
            .collect(),
    )
}

fn bits(mask: u32) -> impl Iterator<Item = u32> {
    (0..32).filter(move |b| mask & (1 << b) != 0)
}

/// The closure of the empty cache under the structural moves, ignoring
/// rates and eviction weights, by graph search.
fn closure(rules: &RuleSet, capacity: usize) -> BTreeSet<u32> {
    let cover = |f: FlowId| rules.covering(f).fold(0u32, |m, j| m | (1 << j.0));
    let mut seen = BTreeSet::from([0u32]);
    let mut frontier = vec![0u32];
    while let Some(s) = frontier.pop() {
        let mut next: Vec<u32> = bits(s).map(|v| s & !(1 << v)).collect();
        for f in (0..rules.universe_size() as u32).map(FlowId) {
            let Some(j) = rules.highest_covering(f) else {
                continue;
            };
            if cover(f) & s != 0 {
                continue; // a hit
            }
            if (s.count_ones() as usize) < capacity {
                next.push(s | (1 << j.0));
            } else {
                next.extend(bits(s).map(|v| (s & !(1 << v)) | (1 << j.0)));
            }
        }
        for n in next {
            if seen.insert(n) {
                frontier.push(n);
            }
        }
    }
    seen
}

#[test]
fn states_are_the_closure_of_the_empty_cache() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..60 {
        let universe = 8;
        let n_rules = rng.gen_range(2..=8);
        let rules = random_rules(&mut rng, universe, n_rules);
        let rates = random_rates(&mut rng, universe);
        let capacity = rng.gen_range(1..=4);
        let model = CompactModel::build(&rules, &rates, capacity, Evaluator::mean_field())
            .expect("model builds");
        let states: Vec<u32> = (0..model.n_states()).map(|i| model.state_mask(i)).collect();
        let expected: Vec<u32> = closure(&rules, capacity).into_iter().collect();
        assert_eq!(states, expected, "case {case}");
        assert_eq!(
            model.state_of(&[RuleId(1)]),
            None,
            "case {case}: rule 1 is shadowed"
        );
    }
}

#[test]
fn a_flow_table_only_reaches_model_states() {
    let mut rng = StdRng::seed_from_u64(0xf1_0e);
    for case in 0..30 {
        let universe = 8;
        let n_rules = rng.gen_range(2..=8);
        let rules = random_rules(&mut rng, universe, n_rules);
        let rates = random_rates(&mut rng, universe);
        let capacity = rng.gen_range(1..=4);
        let model = CompactModel::build(&rules, &rates, capacity, Evaluator::mean_field())
            .expect("model builds");
        for policy in POLICIES {
            let mut table = FlowTable::with_policy(capacity, policy);
            let mut reached = BTreeSet::new();
            for _ in 0..2_000 {
                // Any flow may arrive or be probed, zero-rate and
                // uncovered ones included: the closure ignores rates.
                let f = FlowId(rng.gen_range(0..universe as u32));
                match rng.gen_range(0..10) {
                    0..=5 => {
                        table.advance(Some(f), &rules);
                    }
                    6..=7 => {
                        table.advance(None, &rules);
                    }
                    _ => {
                        table.apply_probe(f, &rules);
                    }
                }
                let cached: Vec<_> = table.cached_rules().collect();
                let state = model.state_of(&cached);
                assert!(
                    state.is_some(),
                    "case {case} {policy}: {cached:?} is not a model state"
                );
                reached.insert(state);
            }
            assert!(
                reached.len() > 1,
                "case {case} {policy}: the table stayed empty"
            );
        }
    }
}
