//! Property-based tests for the network simulator: conservation and
//! consistency invariants under arbitrary traffic and probing patterns.

use flow_recon::flowspace::{FlowId, FlowSet, Rule, RuleId, RuleSet, Timeout};
use flow_recon::netsim::{FaultPlan, Gaussian, JitterBursts, NetConfig, Simulation};
use flow_recon::obs::trace::probe_ctx;
use flow_recon::obs::{FlightDump, FlightRecorder};
use proptest::prelude::*;
use std::collections::BTreeMap;

const UNIVERSE: usize = 6;

fn rule_set_strategy() -> impl Strategy<Value = RuleSet> {
    let rule = (
        1u32..=100,
        5u32..=40,
        proptest::collection::btree_set(0u32..6, 1..=3),
    );
    proptest::collection::vec(rule, 1..=4).prop_filter_map("distinct priorities", |specs| {
        let mut seen = std::collections::BTreeSet::new();
        let mut rules = Vec::new();
        for (prio, timeout, flows) in specs {
            if !seen.insert(prio) {
                return None;
            }
            rules.push(Rule::from_flow_set(
                FlowSet::from_flows(UNIVERSE, flows.into_iter().map(FlowId)),
                prio,
                Timeout::idle(timeout),
            ));
        }
        RuleSet::new(rules, UNIVERSE).ok()
    })
}

/// A program of interleaved actions against the simulator.
#[derive(Debug, Clone)]
enum Action {
    Schedule(u32, f64),
    Probe(u32),
    Run(f64),
}

fn actions_strategy() -> impl Strategy<Value = Vec<Action>> {
    let action = prop_oneof![
        (0u32..6, 0.0..5.0f64).prop_map(|(f, dt)| Action::Schedule(f, dt)),
        (0u32..6).prop_map(Action::Probe),
        (0.0..3.0f64).prop_map(Action::Run),
    ];
    proptest::collection::vec(action, 1..40)
}

/// The `(node, rule)` of every flight-recorded `Hit`, with the flow of
/// the probe it belongs to (from that probe's `Inject`).
fn flight_hits(flight: &FlightRecorder) -> Vec<(u64, u64, u64)> {
    let dump = FlightDump::parse(&flight.dump_string("hits")).expect("dump reads back");
    let mut injected = BTreeMap::new();
    let mut hits = Vec::new();
    for rec in &dump.records {
        let int = |key| rec.int(key).expect("switch events carry their fields");
        match rec.kind.as_str() {
            "inject" => {
                injected.insert(rec.probe, int("flow"));
            }
            "hit" => hits.push((rec.probe, int("node"), int("rule"))),
            _ => {}
        }
    }
    hits.into_iter()
        .map(|(probe, node, rule)| (node, rule, injected[&probe]))
        .collect()
}

/// A reactive switch's `Hit` names the highest-priority *cached* cover,
/// which need not be the policy's highest-priority cover
/// (`RuleSet::highest_covering`); a proactive switch's names the latter.
#[test]
fn hit_names_the_cached_cover_not_the_policy_winner() {
    // Rule 0 (higher priority) covers flows 0 and 1; rule 1 covers 1 and
    // 2. A packet of flow 2 caches only rule 1, so flow 1 then hits rule
    // 1 at the ingress although rule 0 wins flow 1 in the policy.
    let rules = RuleSet::new(
        vec![
            Rule::from_flow_set(
                FlowSet::from_flows(UNIVERSE, [FlowId(0), FlowId(1)]),
                2,
                Timeout::idle(25),
            ),
            Rule::from_flow_set(
                FlowSet::from_flows(UNIVERSE, [FlowId(1), FlowId(2)]),
                1,
                Timeout::idle(25),
            ),
        ],
        UNIVERSE,
    )
    .unwrap();
    assert_eq!(rules.highest_covering(FlowId(1)), Some(RuleId(0)));
    let cfg = NetConfig::eval_topology(rules, 2, 0.02);
    let ingress = cfg.ingress;
    let mut sim = Simulation::new(&cfg, 5);
    sim.attach_flight(FlightRecorder::enabled(), probe_ctx(0, 0, 0));
    assert!(!sim.probe(FlowId(2)).hit, "cold: installs rule 1");
    assert!(
        sim.probe(FlowId(1)).hit,
        "rule 1 is cached and covers flow 1"
    );
    assert_eq!(sim.cached_rules(), vec![RuleId(1)]);

    // The probe of flow 1 hits rule 1 at the ingress; the proactive
    // transit switches match their pre-installed rule 0.
    let flight = sim.take_flight();
    let hits: Vec<(u64, u64)> = flight_hits(&flight)
        .into_iter()
        .filter(|&(_, _, flow)| flow == 1)
        .map(|(node, rule, _)| (node, rule))
        .collect();
    let path = cfg.topology.path(ingress, cfg.server).unwrap();
    let want: Vec<(u64, u64)> = path
        .iter()
        .map(|&n| (n.0 as u64, if n == ingress { 1 } else { 0 }))
        .collect();
    assert_eq!(hits, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Attaching a `FlightRecorder` changes no probe observation and no
    /// ingress counter, and every `Hit` it records names a rule covering
    /// the probed flow.
    #[test]
    fn tracing_does_not_perturb_and_hits_name_covering_rules(
        rules in rule_set_strategy(),
        actions in actions_strategy(),
        seed in 0u64..1000,
        capacity in 1usize..=4,
    ) {
        let cfg = NetConfig::eval_topology(rules.clone(), capacity, 0.02);
        let mut bare = Simulation::new(&cfg, seed);
        let mut traced = Simulation::new(&cfg, seed);
        traced.attach_flight(FlightRecorder::enabled(), probe_ctx(0, 0, 0));
        for a in &actions {
            match *a {
                Action::Schedule(f, dt) => {
                    let at = bare.now() + dt;
                    bare.schedule_flow(FlowId(f), at);
                    traced.schedule_flow(FlowId(f), at);
                }
                Action::Probe(f) => {
                    prop_assert_eq!(bare.probe(FlowId(f)), traced.probe(FlowId(f)));
                }
                Action::Run(dt) => {
                    let t = bare.now() + dt;
                    bare.run_until(t);
                    traced.run_until(t);
                }
            }
            prop_assert_eq!(bare.ingress_stats(), traced.ingress_stats());
        }
        let end = bare.now() + 60.0;
        bare.run_until(end);
        traced.run_until(end);
        prop_assert_eq!(bare.ingress_stats(), traced.ingress_stats());

        let flight = traced.take_flight();
        prop_assume!(flight.dropped() == 0);
        for (node, rule, flow) in flight_hits(&flight) {
            prop_assert!(
                rules.rule(RuleId(rule as usize)).covers_flow(FlowId(flow as u32)),
                "flight Hit at node {} names rule {}, which does not cover flow {}",
                node, rule, flow
            );
        }
    }

    #[test]
    fn simulator_conserves_packets_and_answers_probes(
        rules in rule_set_strategy(),
        actions in actions_strategy(),
        seed in 0u64..1000,
        capacity in 1usize..=4,
    ) {
        let cfg = NetConfig::eval_topology(rules.clone(), capacity, 0.02);
        let mut sim = Simulation::new(&cfg, seed);
        let mut scheduled = 0u64;
        let mut probes = 0u64;
        for a in &actions {
            match *a {
                Action::Schedule(f, dt) => {
                    let at = sim.now() + dt;
                    sim.schedule_flow(FlowId(f), at);
                    scheduled += 1;
                }
                Action::Probe(f) => {
                    let obs = sim.probe(FlowId(f));
                    // Probes always complete with a sane RTT.
                    prop_assert!(obs.rtt > 0.0 && obs.rtt < 1.0, "rtt {}", obs.rtt);
                    // Classification agrees with the threshold.
                    prop_assert_eq!(obs.hit, obs.rtt < 1e-3);
                    probes += 1;
                }
                Action::Run(dt) => {
                    let t = sim.now() + dt;
                    sim.run_until(t);
                }
            }
        }
        // Drain everything still in flight.
        let end = sim.now() + 60.0;
        sim.run_until(end);

        // Switch counters: every ingress arrival, genuine or probe, was
        // classified exactly once.
        let st = sim.ingress_stats();
        prop_assert_eq!(st.hits + st.misses + st.uncovered, scheduled + probes);
        // Installs can't exceed misses, evictions can't exceed installs.
        prop_assert!(st.installs <= st.misses);
        prop_assert!(st.evictions <= st.installs);

        // The cached set never exceeds capacity and contains no dead rules.
        let cached = sim.cached_rules();
        prop_assert!(cached.len() <= capacity);
        let unique: std::collections::BTreeSet<_> = cached.iter().collect();
        prop_assert_eq!(unique.len(), cached.len());

        // Every probe and every genuine packet crossed every switch on
        // the path to the server, each classified one way there.
        for node in cfg.topology.path(cfg.ingress, cfg.server).unwrap() {
            let st = sim.stats_of(node);
            prop_assert_eq!(st.hits + st.misses + st.uncovered, scheduled + probes, "{}", node);
        }
    }

    #[test]
    fn no_fault_combination_panics_or_hangs(
        rules in rule_set_strategy(),
        actions in actions_strategy(),
        seed in 0u64..500,
        packet_loss in 0.0..=1.0f64,
        packet_in_loss in 0.0..=1.0f64,
        flow_mod_loss in 0.0..=1.0f64,
        flow_mod_delay in 0.0..=1.0f64,
        table_full_reject in 0.0..=1.0f64,
        jitter_coin in 0u8..2,
    ) {
        // Any point of the fault-probability cube — including the
        // degenerate corners where every packet is dropped or every
        // flow-mod rejected — must validate, simulate without panicking,
        // and terminate. Probes use an explicit timeout: under total
        // loss the reply never arrives and `probe` itself would starve.
        let mut cfg = NetConfig::eval_topology(rules, 2, 0.02);
        cfg.faults = FaultPlan {
            packet_loss,
            packet_in_loss,
            flow_mod_loss,
            flow_mod_delay,
            flow_mod_delay_secs: 0.02,
            table_full_reject,
            jitter: (jitter_coin == 1).then_some(JitterBursts {
                period_secs: 1.0,
                burst_secs: 0.3,
                extra: Gaussian { mean: 2.0e-3, std: 1.0e-3 },
            }),
        };
        prop_assert!(cfg.validate().is_ok(), "{:?}", cfg.validate());
        let mut sim = Simulation::try_new(cfg, seed).unwrap();
        let mut probed = 0u64;
        let mut answered = 0u64;
        let mut timed_out = 0u64;
        for a in &actions {
            match *a {
                Action::Schedule(f, dt) => {
                    let at = sim.now() + dt;
                    sim.schedule_flow(FlowId(f), at);
                }
                Action::Probe(f) => {
                    probed += 1;
                    let before = sim.now();
                    match sim.probe_with_timeout(FlowId(f), 0.25) {
                        Some(obs) => {
                            answered += 1;
                            prop_assert!(obs.rtt > 0.0 && obs.rtt.is_finite());
                        }
                        None => {
                            timed_out += 1;
                            // A timeout still advances the clock to the
                            // deadline — waiting costs simulated time.
                            prop_assert!(sim.now() >= before + 0.25 - 1e-9);
                        }
                    }
                }
                Action::Run(dt) => {
                    let t = sim.now() + dt;
                    sim.run_until(t);
                }
            }
        }
        // Draining always terminates, whatever was dropped mid-flight.
        let end = sim.now() + 60.0;
        sim.run_until(end);
        prop_assert!(sim.now() >= end);
        let fs = sim.fault_stats();
        prop_assert_eq!(answered + timed_out, probed);
        prop_assert_eq!(fs.probe_timeouts, timed_out);
        if packet_loss == 0.0 && packet_in_loss == 0.0 && flow_mod_loss == 0.0 {
            // Non-loss faults (delay, rejection, jitter) slow probes but
            // never starve them, so every probe beats the 250 ms deadline.
            prop_assert_eq!(timed_out, 0);
            prop_assert_eq!(fs.packets_dropped, 0);
        }
    }

    #[test]
    fn uncovered_probes_never_hit(
        actions in proptest::collection::vec(0.0..2.0f64, 1..10),
        seed in 0u64..100,
    ) {
        // A rule set that covers only flow 0: probing flow 5 must always
        // miss, no matter the interleaving.
        let rules = RuleSet::new(
            vec![Rule::from_flow_set(
                FlowSet::from_flows(UNIVERSE, [FlowId(0)]),
                1,
                Timeout::idle(25),
            )],
            UNIVERSE,
        )
        .unwrap();
        let mut sim = Simulation::new(NetConfig::eval_topology(rules, 2, 0.02), seed);
        for &dt in &actions {
            let at = sim.now() + dt;
            sim.schedule_flow(FlowId(0), at);
            let obs = sim.probe(FlowId(5));
            prop_assert!(!obs.hit, "uncovered probe hit with rtt {}", obs.rtt);
        }
    }
}
