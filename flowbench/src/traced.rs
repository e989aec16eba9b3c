//! The traced run: a replica of the workload rebuilt from the layers'
//! public functions, then the real programs on the same inputs. It
//! reports per-layer self times, shares and calls, latency percentiles
//! and exact work counts over the part of the workload the end-to-end
//! run times, spot-checks the replica against the engine, and checks
//! that replica and programs produced identical outputs.

use crate::e2e::{self, Budget, Csv, Ctx};
use crate::replica::{self, Batch, Work};
use crate::stats::quantile;
use crate::trace::{NameStats, Tracer};
use crate::{
    kernel_s, op_ms, secs, unit_seed, Unit, Workload, FATTREE_BATCH, FATTREE_KS, KERNEL_NOMINAL_S,
    SUITE_TRIALS, TOURNAMENT_TRIALS,
};
use attack::{plan_attack_full, scenario_net_config, AttackPlan, AttackerKind, ExecPolicy};
use experiments::ConfigOutcome;
use ftcache::PolicyKind;
use recon_core::useq::Evaluator;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use traffic::NetworkScenario;

/// Layers timed by the replica: each gets `.self_s`, `.share` and
/// `.calls`.
pub const LAYERS: [&str; 12] = [
    "traffic.sampler",
    "core.model_build",
    "core.planner_evolve",
    "core.probe_score",
    "netsim.topology",
    "traffic.poisson",
    "netsim.config_clone",
    "netsim.sim_new",
    "netsim.sim_drop",
    "netsim.load",
    "netsim.event_loop",
    "attack.decide",
];

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Replica units, program units and checks attempted.
    pub attempted: u64,
    /// Failures, one message each.
    pub errors: Vec<String>,
}

/// The traced replica on its own.
#[derive(Debug, Default)]
pub struct Replica {
    /// Every per-layer metric except `trace.overhead_pct`.
    pub metrics: Vec<Metric>,
    /// Spot-check failures.
    pub errors: Vec<String>,
    /// Units, comparable with the programs' one by one.
    pub units: Vec<Unit>,
    /// Exact work counts.
    pub work: Work,
    /// The configuration `fattree` selected, for the programs' run.
    pub fattree_input: Option<(NetworkScenario, AttackPlan)>,
}

/// Replays `workload` from the layers' public functions and spot-checks
/// the replica against the engine. Only what the end-to-end run times is
/// traced, each timed unit under a `bench` span: the traced wall is the
/// sum of those spans, and input generation stays outside it.
#[must_use]
pub fn replicate(workload: Workload, seed: u64, budget: Budget) -> Replica {
    let tr = Arc::new(Tracer::default());
    let mut r = match workload {
        Workload::Suite => suite(&tr, seed, budget),
        Workload::Tournament => tournament(&tr, seed, budget),
        Workload::Fattree => fattree(&tr, seed, budget),
    };
    r.metrics = metrics(&tr.by_name(), &r.work);
    r
}

/// Runs the traced replica of `workload` for half the budget, then the
/// programs on the same inputs.
#[must_use]
pub fn run(ctx: &Ctx, workload: Workload, seed: u64, budget: Budget) -> Traced {
    let budget = match budget {
        Budget::Seconds(s) => Budget::Seconds(s / 2.0),
        units => units,
    };
    // The replica runs pinned like the programs, so the overhead compares
    // like with like.
    let (cpu, before) = match ctx.quietest_cpu() {
        Ok(found) => found,
        Err(e) => {
            return Traced {
                errors: vec![e],
                ..Traced::default()
            }
        }
    };
    ctx.pin_self(cpu);
    let rep = replicate(workload, seed, budget);
    let replica_scale = 2.0 * KERNEL_NOMINAL_S / (before + kernel_s());
    ctx.pin_self(None);
    let units = Budget::Units(rep.units.len());
    let e = match &rep.fattree_input {
        Some(input) => e2e::measure_fattree(ctx, seed, units, input),
        None => e2e::measure(ctx, workload, seed, units),
    };
    let mut errors = rep.errors;
    errors.extend(e.errors.iter().cloned());
    let programs: Vec<&str> = e.units.iter().map(|u| u.outputs.as_str()).collect();
    let replicas: Vec<&str> = rep.units.iter().map(|u| u.outputs.as_str()).collect();
    if programs != replicas {
        errors.push(format!(
            "{workload}: the replica's outputs differ from the programs'"
        ));
    }
    if workload == Workload::Tournament {
        if let Err(err) = cache_totals_match(&rep.work, &programs) {
            errors.push(err);
        }
    }
    let mut metrics = rep.metrics;
    metrics.push((
        "trace.overhead_pct".into(),
        100.0 * (replica_scale * op_ms(workload, &rep.units) / op_ms(workload, &e.units) - 1.0),
        "%",
    ));
    Traced {
        metrics,
        attempted: rep.units.len() as u64 + 1 + e.attempted,
        errors,
    }
}

/// The tournament's ingress cache totals must equal the sums of the
/// programs' CSV columns.
fn cache_totals_match(work: &Work, csvs: &[&str]) -> Result<(), String> {
    let mut sums = [0.0; 3];
    for csv in csvs {
        let c = Csv::parse(csv);
        for row in &c.rows {
            for (sum, col) in sums.iter_mut().zip(["hits", "misses", "evictions"]) {
                *sum += c.num(row, col)?;
            }
        }
    }
    let c = &work.cache;
    let replica = [c.hits, c.misses, c.evictions].map(|v| v as f64);
    if sums == replica {
        Ok(())
    } else {
        Err(format!(
            "tournament cache totals: programs {sums:?}, replica {replica:?}"
        ))
    }
}

fn check(errors: &mut Vec<String>, ok: bool, what: &str) {
    if !ok {
        errors.push(format!("spot-check failed: {what}"));
    }
}

fn suite(tr: &Tracer, seed: u64, budget: Budget) -> Replica {
    let mut r = Replica::default();
    let mut first: Option<(u64, ConfigOutcome)> = None;
    let started = Instant::now();
    while budget.more(started, r.units.len()) {
        let useed = unit_seed(seed, r.units.len());
        let t = Instant::now();
        let run = tr.span("bench", || {
            replica::suite(tr, &mut r.work, useed, 1, SUITE_TRIALS)
        });
        let op_s = secs(t);
        let (fig7a, robust) = replica::suite_csvs(&run.outcomes);
        r.units.push(Unit {
            op_s,
            ops: run.sampled,
            outputs: fig7a + &robust,
        });
        if first.is_none() {
            first = run.outcomes.into_iter().next().map(|o| (useed, o));
        }
    }
    if let Some((useed, o)) = first {
        let sc = &o.scenario;
        let plan = plan_attack_full(
            sc,
            Evaluator::mean_field(),
            0,
            0,
            ExecPolicy::Serial,
            PolicyKind::Srt,
        );
        check(&mut r.errors, plan.as_ref() == Ok(&o.plan), "suite plan");
        let net = scenario_net_config(sc);
        let batch = Batch {
            scenario: sc,
            plan: &o.plan,
            kinds: &AttackerKind::all(),
            trials: SUITE_TRIALS,
            seed: useed,
            net: &net,
            robust: None,
        };
        check(&mut r.errors, batch.engine() == o.report, "suite batch");
    }
    r
}

fn tournament(tr: &Arc<Tracer>, seed: u64, budget: Budget) -> Replica {
    let mut r = Replica::default();
    let grid_work = Arc::new(Mutex::new(Work::default()));
    let mut first = None;
    let started = Instant::now();
    while budget.more(started, r.units.len()) {
        let useed = unit_seed(seed, r.units.len());
        // The program plans before the grid the end-to-end run times.
        let configs = replica::tournament_configs(useed, 1);
        let n = configs.len();
        let kept = (first.is_none() && n > 0).then(|| configs.clone());
        let t = Instant::now();
        let grid = tr.span("bench", || {
            replica::tournament_grid(tr, &grid_work, configs, useed, TOURNAMENT_TRIALS)
        });
        match grid {
            Ok(reports) => {
                let op_s = secs(t);
                let csv = replica::tournament_csv(n, TOURNAMENT_TRIALS, &reports);
                r.units.push(Unit {
                    op_s,
                    ops: e2e::lookups(&csv),
                    outputs: csv,
                });
                if let Some(cfgs) = kept {
                    first = Some((useed, cfgs, reports));
                }
            }
            Err(e) => {
                r.errors.push(e);
                break;
            }
        }
    }
    if let Ok(w) = grid_work.lock() {
        r.work.merge(&w);
    }
    // Every cell of the first accepted configuration against the engine.
    if let Some((useed, configs, reports)) = first {
        let scratch = Tracer::default();
        for (unit, report) in reports.iter().enumerate() {
            let reference =
                replica::tournament_cell(&scratch, &configs, useed, TOURNAMENT_TRIALS, unit, |b| {
                    b.engine()
                });
            check(&mut r.errors, &reference == report, "tournament cell");
        }
    }
    r
}

fn fattree(tr: &Tracer, seed: u64, budget: Budget) -> Replica {
    let mut r = Replica::default();
    // Selecting the configuration and building its fabrics are input
    // generation and set-up, which `op_ms` leaves out.
    let (sc, plan) = replica::fattree_config(seed);
    let nets = replica::fattree_nets(&sc);
    let mut firsts = Vec::new();
    let started = Instant::now();
    while budget.more(started, r.units.len()) {
        let mut unit = Unit::default();
        let round = r.units.len();
        tr.span("bench", || {
            for batch in round * FATTREE_KS.len()..(round + 1) * FATTREE_KS.len() {
                let b = replica::fattree_batch(&sc, &plan, &nets, seed, batch);
                let t = Instant::now();
                let report = replica::run_trials(tr, &mut r.work, &b);
                unit.op_s += secs(t);
                unit.ops += FATTREE_BATCH as u64;
                unit.outputs.push_str(&replica::report_digest(&report));
                if firsts.len() < FATTREE_KS.len() {
                    firsts.push(report);
                }
            }
        });
        r.units.push(unit);
    }
    for (batch, report) in firsts.iter().enumerate() {
        let reference = replica::fattree_batch(&sc, &plan, &nets, seed, batch).engine();
        check(&mut r.errors, &reference == report, "fat-tree batch");
    }
    r.fattree_input = Some((sc, plan));
    r
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics from the spans and work counts.
fn metrics(spans: &BTreeMap<&'static str, NameStats>, work: &Work) -> Vec<Metric> {
    let none = NameStats::default();
    let get = |name: &str| spans.get(name).unwrap_or(&none);
    let wall_ns = get("bench").durations_ns.iter().sum::<u64>() as f64;
    let mut m: Vec<Metric> = Vec::new();
    let mut attributed = 0.0;
    for layer in LAYERS.iter().chain(&["jobs.supervise"]) {
        let s = get(layer);
        let self_ns = s.self_ns as f64;
        attributed += self_ns;
        if *layer != "jobs.supervise" {
            m.push((format!("{layer}.self_s"), self_ns / 1e9, "s"));
        }
        m.push((format!("{layer}.share"), ratio(self_ns, wall_ns), "share"));
        m.push((format!("{layer}.calls"), s.calls as f64, "count"));
    }
    let pct = |name: &str, q: f64, scale: f64| {
        let d: Vec<f64> = get(name).durations_ns.iter().map(|&x| x as f64).collect();
        quantile(&d, q).unwrap_or(0.0) / scale
    };
    for layer in ["netsim.sim_new", "netsim.event_loop", "attack.decide"] {
        m.push((format!("{layer}.p50_us"), pct(layer, 0.5, 1e3), "us"));
        m.push((format!("{layer}.p99_us"), pct(layer, 0.99, 1e3), "us"));
    }
    m.push((
        "core.model_build.p50_ms".into(),
        pct("core.model_build", 0.5, 1e6),
        "ms",
    ));
    let c = &work.cache;
    let f = &work.faults;
    let counts = [
        ("core.model_build.states", work.states),
        ("core.probe_score.candidates", work.candidates),
        ("experiments.sampled", work.sampled),
        ("experiments.accepted", work.accepted),
        ("netsim.load.flows", work.flows),
        ("ftcache.hits", c.hits),
        ("ftcache.misses", c.misses),
        ("ftcache.installs", c.installs),
        ("ftcache.evictions", c.evictions),
        ("attack.decide.probes", work.probes),
        ("attack.decide.retries", f.retries),
        ("attack.decide.timeouts", f.timeouts),
        ("attack.decide.inconclusive", f.inconclusive),
    ];
    for (name, v) in counts {
        m.push((name.into(), v as f64, "count"));
    }
    let cache_ops = (c.hits + c.misses + c.installs) as f64;
    m.extend([
        (
            "core.model_build.ns_per_state".into(),
            ratio(get("core.model_build").self_ns as f64, work.states as f64),
            "ns/state",
        ),
        (
            "netsim.event_loop.ns_per_cache_op".into(),
            ratio(get("netsim.event_loop").self_ns as f64, cache_ops),
            "ns/op",
        ),
        (
            "experiments.accept_ratio".into(),
            ratio(work.accepted as f64, work.sampled as f64),
            "share",
        ),
        (
            "ftcache.eviction_ratio".into(),
            ratio(c.evictions as f64, c.installs as f64),
            "share",
        ),
        (
            "other.share".into(),
            ratio(wall_ns - attributed, wall_ns),
            "share",
        ),
        ("trace.wall_s".into(), wall_ns / 1e9, "s"),
    ]);
    m
}
