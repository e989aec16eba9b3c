//! **S1** — the scalability comparison of §IV-A2 / §IV-B: basic-model
//! state counts (per the paper's formula) vs compact-model state counts,
//! plus measured build times for both models.
//!
//! Also records the discrepancy noted in DESIGN.md: the paper quotes
//! ≈5.9×10⁷ basic states for |Rules| = 10, t_j = 100, n = 8, but its own
//! formula evaluates to ~10¹⁹.
//!
//! A second table (`scalability_fattree.csv`) takes the *network* to
//! datacenter scale instead of the model: the same attack run against
//! k-ary fat trees (20 → 1280 switches), ingress and server in
//! different pods, one grid cell per fabric, run through the supervised
//! runner ([`experiments::Run`]). Only deterministic columns are
//! recorded, so that CSV is byte-reproducible across runs and thread
//! counts.

use attack::TrialRun;
use experiments::harness::{detector_plan, sampler_for, ATTACKERS};
use experiments::run::Run;
use flowspace::relevant::FlowRates;
use flowspace::{FlowId, FlowSet, Rule, RuleSet, Timeout};
use netsim::NetConfig;
use recon_core::basic::BasicModel;
use recon_core::compact::CompactModel;
use recon_core::counts::{basic_state_count, compact_state_count};
use recon_core::useq::Evaluator;
use std::sync::Arc;
use std::time::Instant;

/// Disjoint single-flow rules: the worst case for the basic model's state
/// count is irrelevant here — we want comparable, buildable instances.
fn instance(n_rules: usize, timeout: u32) -> (RuleSet, FlowRates) {
    let universe = n_rules;
    let rules = RuleSet::new(
        (0..n_rules)
            .map(|i| {
                Rule::from_flow_set(
                    FlowSet::from_flows(universe, [FlowId(i as u32)]),
                    (n_rules - i) as u32,
                    Timeout::idle(timeout),
                )
            })
            .collect(),
        universe,
    )
    .expect("valid instance");
    let rates = FlowRates::from_per_step(vec![0.05; universe]);
    (rules, rates)
}

fn main() {
    Run::main("scalability", |run| {
        let opts = run.opts;
        model_table(run);

        // Fat-tree sweep: the attack on a datacenter fabric. The fabric's
        // size barely moves the cost: building it is O(links), its
        // ingress→server route one BFS (run by `NetConfig::fat_tree`),
        // and each simulation keeps state only for the switches on that
        // path.
        let ks: &[usize] = if opts.fast { &[4] } else { &[4, 8, 16, 32] };
        // The first detector-feasible draw, however many draws it takes.
        let feasible = run.sample(&sampler_for(opts), (0.05, 0.95), 1, usize::MAX, |sc| {
            detector_plan(sc, opts.policy)
        });
        let Some(config) = feasible.into_iter().next() else {
            eprintln!("scalability: no detector-feasible configuration sampled");
            std::process::exit(1);
        };
        println!("\nfat-tree fabrics (attack plan fixed, topology scaled):");
        println!("      k  switches  links  hops  naive   model  random");
        let ctx = Arc::new((config, ks.to_vec()));
        let cells = run.grid(&ctx, ks.len(), |((sc, plan), ks), cell| {
            let k = ks[cell.unit];
            let net = NetConfig::fat_tree(sc.rules.clone(), k, sc.capacity, sc.delta);
            let hops = net
                .topology
                .distance(net.ingress, net.server)
                .expect("pods are connected through the core");
            let report = cell.trials(&TrialRun {
                scenario: sc,
                plan,
                kinds: &ATTACKERS,
                trials: cell.opts.trials,
                seed: cell.opts.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                net: &net,
                robust: None,
            });
            (net.topology.len(), net.topology.link_count(), hops, report)
        })?;
        let mut rows = Vec::new();
        for (k, cell) in ks.iter().zip(&cells) {
            let Some((switches, links, hops, report)) = cell else {
                continue;
            };
            let accs: Vec<f64> = ATTACKERS
                .iter()
                .map(|&kind| report.accuracy(kind))
                .collect();
            println!(
                "{k:>7}  {switches:>8}  {links:>5}  {hops:>4}  {:.3}   {:.3}  {:.3}",
                accs[0], accs[1], accs[2]
            );
            rows.push(format!(
                "{k},{switches},{links},{hops},{},{},{}",
                accs[0], accs[1], accs[2]
            ));
        }
        run.write_csv(
            "scalability_fattree.csv",
            "k,switches,links,path_hops,naive_accuracy,model_accuracy,random_accuracy",
            &rows,
        );
        Ok(())
    })
}

/// The model-scaling table, `scalability.csv`: state counts by formula
/// and by construction, and wall-clock build times.
fn model_table(run: &mut Run<'_>) {
    let capacity = 6;
    let timeout = 10u32;
    println!("state counts and model build times (capacity {capacity}, t_j = {timeout} steps)\n");
    println!("|Rules|  basic-formula     compact  basic-build(s)  compact-build(s)");
    let sizes: &[usize] = if run.opts.fast {
        &[2, 3, 4]
    } else {
        &[2, 3, 4, 6, 8, 10, 12, 16, 20]
    };
    let mut rows = Vec::new();
    for &r in sizes {
        let (rules, rates) = instance(r, timeout);
        let formula = basic_state_count(&vec![timeout; r], capacity);
        let compact_n = compact_state_count(r, capacity).expect("fits u128");
        let t0 = Instant::now();
        let basic_time = BasicModel::build(&rules, &rates, capacity, 200_000)
            .ok()
            .map(|m| (t0.elapsed().as_secs_f64(), m.n_states()));
        let t1 = Instant::now();
        let compact = CompactModel::build(&rules, &rates, capacity, Evaluator::mean_field())
            .expect("compact model builds");
        let compact_time = t1.elapsed().as_secs_f64();
        let (basic_s, basic_states) = match basic_time {
            Some((t, n)) => (format!("{t:.4}"), n.to_string()),
            None => ("> cap".to_string(), "-".to_string()),
        };
        println!("{r:>7}  {formula:>13.3e}  {compact_n:>10}  {basic_s:>14}  {compact_time:>16.4}");
        rows.push(format!(
            "{r},{formula},{compact_n},{},{basic_states},{compact_time},{}",
            basic_s.trim_start_matches("> "),
            compact.n_states()
        ));
    }
    println!("\npaper's quoted example (|Rules|=10, t=100, n=8):");
    let quoted = basic_state_count(&[100; 10], 8);
    println!("  formula value: {quoted:.3e}   paper quotes: 5.9e7 (see DESIGN.md §5)");
    run.write_csv(
        "scalability.csv",
        "n_rules,basic_formula_states,compact_states,basic_build_s,basic_reachable_states,compact_build_s,compact_model_states",
        &rows,
    );
}
