//! Implementation of the `flow-recon` command-line tool.
//!
//! Subcommands:
//!
//! * `sample`   — generate a random §VI-A network scenario as JSON;
//! * `plan`     — run the §V probe selection for a scenario file;
//! * `leakage`  — measure a scenario's rule-structure leakage (§VII-B3);
//! * `simulate` — run live attack trials against the simulated network;
//! * `diagnose` — render run manifests (`*.manifest.jsonl`) as a report,
//!   plus any `*.flightrec.jsonl` flight dump sitting next to one;
//! * `trace`    — render a flight-recorder dump as a timeline with the
//!   top-K slowest probes decomposed, or validate a Chrome trace-event
//!   JSON export (`--validate`).
//!
//! All subcommands read/write JSON so they compose in shell pipelines.

use attack::{
    plan_attack, plan_attack_full, scenario_net_config, AttackerKind, ExecPolicy, ProbePolicy,
    TrialRun,
};
use ftcache::PolicyKind;
use obs::metrics;
use obs::trace::{validate_chrome_trace, DumpRecord, SUPERVISOR_CTX};
use obs::{FlightDump, ManifestEntry, ProbeId, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recon_core::leakage::measure_leakage;
use recon_core::useq::Evaluator;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use traffic::{NetworkScenario, ScenarioSampler};

/// Error type for CLI runs: a user-facing message.
pub type CliError = String;

/// Parsed arguments of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Subcommand name.
    pub command: String,
    /// `--key value` options.
    pub options: Vec<(String, String)>,
}

impl Args {
    /// Parses `cmd --key value …` form.
    ///
    /// # Errors
    ///
    /// Returns a usage message when the command is missing, an option
    /// has no value, or the command does not take an option.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or_else(usage)?;
        let takes = COMMANDS
            .iter()
            .find(|(name, _)| *name == command)
            .map(|&(_, takes)| takes);
        let mut options = Vec::new();
        while let Some(k) = it.next() {
            let k = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {k:?}\n{}", usage()))?;
            if takes.is_some_and(|takes| !takes.split(' ').any(|t| t == k)) {
                return Err(format!("{command} does not take --{k}\n{}", usage()));
            }
            let v = it.next().ok_or_else(|| format!("--{k} expects a value"))?;
            options.push((k.to_string(), v));
        }
        Ok(Args { command, options })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
            None => Ok(default),
        }
    }
}

/// Each subcommand with the options it takes, as [`usage`] lists them.
const COMMANDS: [(&str, &str); 6] = [
    ("sample", "seed bits rules capacity absence-lo absence-hi"),
    ("plan", "scenario multi adaptive"),
    ("leakage", "scenario"),
    ("simulate", "scenario trials seed threads fault-rate policy"),
    ("diagnose", "manifest results svg"),
    ("trace", "flightrec top svg validate"),
];

/// The usage banner.
#[must_use]
pub fn usage() -> String {
    "usage: flow-recon <command> [--option value ...]\n\
     commands:\n\
       sample    --seed N [--bits B] [--rules R] [--capacity C] [--absence-lo X] [--absence-hi Y]\n\
       plan      --scenario FILE [--multi M] [--adaptive D]\n\
       leakage   --scenario FILE\n\
       simulate  --scenario FILE [--trials N] [--seed N] [--threads K|auto] [--fault-rate P]\n\
                 [--policy srt|lru|fdrc]\n\
       diagnose  [--manifest FILE] [--results DIR] [--svg FILE]\n\
       trace     --flightrec FILE [--top K] [--svg FILE]\n\
       trace     --validate FILE\n"
        .to_string()
}

fn load_scenario(args: &Args) -> Result<NetworkScenario, CliError> {
    let path = args.get("scenario").ok_or("--scenario FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let sc: NetworkScenario =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    sc.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(sc)
}

/// Runs one invocation and returns what should be printed to stdout.
///
/// # Errors
///
/// A user-facing message (unknown command, bad file, model failure…).
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "sample" => {
            let seed: u64 = args.get_parse("seed", 0)?;
            let sampler = ScenarioSampler {
                bits: args.get_parse("bits", 4u32)?,
                n_rules: args.get_parse("rules", 12usize)?,
                capacity: args.get_parse("capacity", 6usize)?,
                ..ScenarioSampler::default()
            };
            let lo: f64 = args.get_parse("absence-lo", 0.05)?;
            let hi: f64 = args.get_parse("absence-hi", 0.95)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let sc = sampler.sample_forced((lo, hi), &mut rng);
            serde_json::to_string_pretty(&sc).map_err(|e| e.to_string())
        }
        "plan" => {
            let sc = load_scenario(args)?;
            let multi: usize = args.get_parse("multi", 0)?;
            let adaptive: usize = args.get_parse("adaptive", 0)?;
            let plan = plan_attack_full(
                &sc,
                Evaluator::mean_field(),
                multi,
                adaptive,
                ExecPolicy::Serial,
                PolicyKind::Srt,
            )
            .map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "target: {} (P(absent) = {:.3})",
                sc.target, plan.p_absent
            );
            let _ = writeln!(
                out,
                "optimal probe: {} (info gain {:.5}, detector: {})",
                plan.optimal.probe,
                plan.optimal.info_gain,
                plan.optimal.is_detector()
            );
            let _ = writeln!(
                out,
                "optimal non-target probe: {} (info gain {:.5})",
                plan.optimal_non_target.probe, plan.optimal_non_target.info_gain
            );
            let _ = writeln!(out, "naive info gain: {:.5}", plan.naive.info_gain);
            if let Some(tree) = &plan.multi {
                let probes: Vec<String> = tree.probes().iter().map(ToString::to_string).collect();
                let _ = writeln!(out, "multi-probe sequence: {}", probes.join(" -> "));
            }
            if let Some(tree) = &plan.adaptive {
                let _ = writeln!(
                    out,
                    "adaptive policy: depth {}, expected info gain {:.5}, expected accuracy {:.3}",
                    tree.depth(),
                    tree.expected_info_gain(),
                    tree.expected_accuracy()
                );
            }
            Ok(out)
        }
        "leakage" => {
            let sc = load_scenario(args)?;
            let report = measure_leakage(
                &sc.rules,
                &sc.rates(),
                sc.capacity,
                sc.horizon_steps(),
                Evaluator::mean_field(),
            )
            .map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "rule-structure leakage: mean {:.5}, max {:.5}, {} detectable targets",
                report.mean_info_gain(),
                report.max_info_gain(),
                report.detectable_targets()
            );
            for t in &report.targets {
                let _ = writeln!(
                    out,
                    "  target {}: best probe {}, info gain {:.5}{}",
                    t.target,
                    t.best_probe,
                    t.info_gain,
                    if t.detector_feasible {
                        " [detector]"
                    } else {
                        ""
                    }
                );
            }
            Ok(out)
        }
        "simulate" => {
            let sc = load_scenario(args)?;
            let trials: usize = args.get_parse("trials", 100)?;
            let seed: u64 = args.get_parse("seed", 7)?;
            let policy = match args.get("threads") {
                Some(v) => ExecPolicy::parse(v).ok_or_else(|| {
                    format!("--threads: expected a thread count or `auto`, got {v:?}")
                })?,
                None => ExecPolicy::from_env().map_err(|e| e.to_string())?,
            };
            let fault_rate: f64 = args.get_parse("fault-rate", 0.0)?;
            let plan = plan_attack(&sc, Evaluator::mean_field()).map_err(|e| e.to_string())?;
            let kinds = AttackerKind::all();
            // Validate the realized network config at the boundary so a
            // bad --fault-rate fails with the typed ConfigError message
            // instead of a panic deep inside the simulator.
            let mut net = scenario_net_config(&sc);
            net.faults = netsim::FaultPlan::uniform(fault_rate);
            net.validate().map_err(|e| format!("--fault-rate: {e}"))?;
            if let Some(name) = args.get("policy") {
                net.set_policy_by_name(name)
                    .map_err(|e| format!("--policy: {e}"))?;
            }
            let probe_policy = ProbePolicy::default();
            let report = TrialRun {
                scenario: &sc,
                plan: &plan,
                kinds: &kinds,
                trials,
                seed,
                net: &net,
                robust: (!net.faults.is_noop()).then_some(&probe_policy),
            }
            .run(policy);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{trials} trials, base rate present {:.3}",
                report.base_rate_present
            );
            for (kind, acc) in &report.by_attacker {
                if net.faults.is_noop() {
                    let _ = writeln!(out, "  {:<18} accuracy {:.3}", kind.name(), acc.accuracy());
                } else {
                    let c = report.fault_counters(*kind);
                    let _ = writeln!(
                        out,
                        "  {:<18} accuracy {:.3}  answer-rate {:.3}  (timeouts {}, retries {}, inconclusive {})",
                        kind.name(),
                        acc.accuracy(),
                        acc.answer_rate(),
                        c.timeouts,
                        c.retries,
                        acc.inconclusive
                    );
                }
            }
            let mut cache = netsim::SwitchStats::default();
            for s in &report.cache_stats {
                cache.merge(s);
            }
            let _ = writeln!(
                out,
                "  ingress cache ({}): hit rate {:.3}, controller load {}",
                net.policy,
                cache.hit_rate().unwrap_or(f64::NAN),
                cache.controller_load()
            );
            Ok(out)
        }
        "diagnose" => {
            let paths: Vec<PathBuf> = if let Some(m) = args.get("manifest") {
                vec![PathBuf::from(m)]
            } else {
                let dir = args.get("results").unwrap_or("results");
                let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
                    .map_err(|e| format!("reading {dir}: {e}"))?
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.ends_with(".manifest.jsonl"))
                    })
                    .collect();
                found.sort();
                if found.is_empty() {
                    return Err(format!(
                        "no *.manifest.jsonl files in {dir} — run an experiment binary first"
                    ));
                }
                found
            };
            let mut out = String::new();
            let mut hists: Vec<(String, obs::Histogram)> = Vec::new();
            for path in &paths {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let (entry, recorder) = ManifestEntry::from_json_line(line)
                        .map_err(|e| format!("parsing {}: {e}", path.display()))?;
                    render_manifest(&mut out, path, &entry, &recorder);
                    hists.extend(
                        recorder
                            .histograms()
                            .map(|(n, h)| (n.to_string(), h.clone())),
                    );
                }
                // A flight dump next to the manifest (written by a traced
                // sweep or a crash-forensics dump) rides along in the report.
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if let Some(stem) = name.strip_suffix(".manifest.jsonl") {
                    let fr = path.with_file_name(format!("{stem}.flightrec.jsonl"));
                    if fr.exists() {
                        let dump = read_flight_dump(&fr)?;
                        let _ = writeln!(out, "== {} ==", fr.display());
                        render_flight_header(&mut out, &dump);
                        render_flight_slowest(&mut out, &dump, 5);
                        out.push('\n');
                    }
                }
            }
            if let Some(svg_path) = args.get("svg") {
                obs::write_atomic(svg_path, diagnose_svg(&hists))
                    .map_err(|e| format!("writing {svg_path}: {e}"))?;
                let _ = writeln!(out, "wrote {svg_path}");
            }
            Ok(out)
        }
        "trace" => {
            if let Some(path) = args.get("validate") {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let events = validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
                return Ok(format!(
                    "{path}: valid Chrome trace JSON ({events} events)\n"
                ));
            }
            let path = args
                .get("flightrec")
                .ok_or("--flightrec FILE (or --validate FILE) is required")?;
            let top: usize = args.get_parse("top", 5)?;
            let mut out = String::new();
            let dump = read_flight_dump(Path::new(path))?;
            render_flight_header(&mut out, &dump);
            render_flight_timeline(&mut out, &dump.records);
            render_flight_slowest(&mut out, &dump, top);
            if let Some(svg_path) = args.get("svg") {
                obs::write_atomic(svg_path, flight_svg(&dump.records))
                    .map_err(|e| format!("writing {svg_path}: {e}"))?;
                let _ = writeln!(out, "wrote {svg_path}");
            }
            Ok(out)
        }
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

// ---- diagnose helpers ------------------------------------------------------

/// Renders one manifest entry and its metrics into the report: the run's
/// header, the metrics, then the answer-rate, fault, cache and
/// supervisor summaries drawn from the counters.
fn render_manifest(out: &mut String, path: &Path, entry: &ManifestEntry, recorder: &Recorder) {
    let _ = writeln!(out, "== {} ==", path.display());
    let _ = writeln!(out, "  experiment      {}", entry.experiment);
    let _ = writeln!(out, "  seed            {}", entry.seed);
    let _ = writeln!(
        out,
        "  configs/trials  {} x {}",
        entry.configs, entry.trials
    );
    let _ = writeln!(out, "  threads         {}", entry.threads);
    let _ = writeln!(out, "  config digest   {}", entry.config_digest);
    let _ = writeln!(out, "  git rev         {}", entry.git_rev);
    let _ = writeln!(out, "  detlint budget  {}", entry.detlint_budget);
    let _ = writeln!(out, "  elapsed         {:.2} s", entry.elapsed_secs);
    let _ = writeln!(out, "  status          {}", entry.status);
    let _ = writeln!(out, "  files           {}", entry.csv_files.join(", "));
    if recorder.is_empty() {
        let _ = writeln!(out, "\n  (no metrics recorded — rerun with --obs)\n");
        return;
    }
    out.push('\n');
    out.push_str(&recorder.render());

    // Answer-rate breakdown per attacker, from the paired
    // `attack.answered.*` / `attack.inconclusive.*` counters.
    let kinds = suffixes(recorder, |name| {
        name.strip_prefix(metrics::ANSWERED_PREFIX)
            .or_else(|| name.strip_prefix(metrics::INCONCLUSIVE_PREFIX))?
            .strip_prefix('.')
    });
    if !kinds.is_empty() {
        let _ = writeln!(out, "\nanswer rate by attacker:");
        for kind in kinds {
            let answered = recorder.counter(&format!("{}.{kind}", metrics::ANSWERED_PREFIX));
            let inconclusive =
                recorder.counter(&format!("{}.{kind}", metrics::INCONCLUSIVE_PREFIX));
            let total = answered + inconclusive;
            let rate = if total > 0 {
                answered as f64 / total as f64
            } else {
                1.0
            };
            let _ = writeln!(
                out,
                "  {kind:<18} answered {answered:>8}  inconclusive {inconclusive:>8}  rate {rate:.3}"
            );
        }
    }

    render_counter_group(out, recorder, "fault injection counters:", "netsim.fault.");

    // Per-policy ingress cache counters, from the suffixed
    // `netsim.cache.<metric>.<policy>` counters the trial engine records.
    let policies = suffixes(recorder, |name| {
        name.strip_prefix("netsim.cache.")?.split('.').nth(1)
    });
    if !policies.is_empty() {
        let _ = writeln!(out, "\ningress cache counters by policy:");
        for p in policies {
            let count = |prefix: &str| recorder.counter(&format!("{prefix}.{p}"));
            let hits = count(metrics::CACHE_HITS_PREFIX);
            let misses = count(metrics::CACHE_MISSES_PREFIX);
            let evictions = count(metrics::CACHE_EVICTIONS_PREFIX);
            let installs = count(metrics::CACHE_INSTALLS_PREFIX);
            let lookups = hits + misses;
            let rate = if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                f64::NAN
            };
            let _ = writeln!(
                out,
                "  {p:<6} hits {hits:>10}  misses {misses:>10}  evictions {evictions:>9}  \
                 installs {installs:>9}  hit rate {rate:.3}"
            );
        }
    }

    // Supervision counters from the crash-safe job layer (`jobs.*`),
    // present whenever a sweep ran under `jobs::run_units` with --obs.
    render_counter_group(out, recorder, "supervisor:", "jobs.");
    out.push('\n');
}

/// The distinct values `suffix` picks out of the counter names, sorted.
fn suffixes<'a>(
    recorder: &'a Recorder,
    suffix: impl Fn(&'a str) -> Option<&'a str>,
) -> Vec<&'a str> {
    let mut out: Vec<&str> = recorder
        .counters()
        .filter_map(|(name, _)| suffix(name))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// A titled section listing the counters named `prefix*`, the prefix
/// stripped; nothing when there are none.
fn render_counter_group(out: &mut String, recorder: &Recorder, title: &str, prefix: &str) {
    let group: Vec<(&str, u64)> = recorder
        .counters()
        .filter_map(|(name, v)| Some((name.strip_prefix(prefix)?, v)))
        .collect();
    if !group.is_empty() {
        let _ = writeln!(out, "\n{title}");
        for (name, v) in group {
            let _ = writeln!(out, "  {name:<28} {v}");
        }
    }
}

/// A small self-contained SVG: one horizontal band of bars per
/// histogram, log-bucket counts scaled to the band height.
fn diagnose_svg(hists: &[(String, obs::Histogram)]) -> String {
    const WIDTH: usize = 640;
    const BAND: usize = 80;
    const TITLE: usize = 18;
    let height = (hists.len().max(1)) * (BAND + TITLE) + 10;
    let mut s = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"11\">\n"
    );
    if hists.is_empty() {
        s.push_str("<text x=\"10\" y=\"20\">no histograms recorded</text>\n");
    }
    for (band, (name, h)) in hists.iter().enumerate() {
        let y0 = band * (BAND + TITLE) + TITLE;
        let _ = writeln!(
            s,
            "<text x=\"4\" y=\"{}\">{} (n={})</text>",
            y0 - 5,
            obs::manifest::json_escape(name).replace('<', "&lt;"),
            h.count()
        );
        let buckets: Vec<(f64, f64, u64)> = h.nonzero_buckets().collect();
        let peak = buckets.iter().map(|&(_, _, c)| c).max().unwrap_or(1).max(1);
        let n = buckets.len().max(1);
        let bw = (WIDTH - 8) / n.max(1);
        for (i, (lo, _, c)) in buckets.iter().enumerate() {
            let bh = ((c * BAND as u64).div_ceil(peak) as usize).min(BAND);
            let _ = writeln!(
                s,
                "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{bh}\" fill=\"#4477aa\">\
                 <title>[{lo:.3e}, …) count {c}</title></rect>",
                4 + i * bw,
                y0 + BAND - bh,
                bw.saturating_sub(1).max(1),
            );
        }
    }
    s.push_str("</svg>\n");
    s
}

// ---- trace helpers ---------------------------------------------------------

/// A probe context for display: `u<unit> t<trial> a<attacker>`, or
/// `supervisor` for the job supervisor's brackets.
fn ctx_label(ctx: u64) -> String {
    if ctx == SUPERVISOR_CTX {
        return "supervisor".to_string();
    }
    let id = ProbeId { ctx, token: 0 };
    format!("u{} t{} a{}", id.unit(), id.trial(), id.attacker())
}

/// Reads a `.flightrec.jsonl` dump.
fn read_flight_dump(path: &Path) -> Result<FlightDump, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    FlightDump::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Header + per-kind counts, shared by `trace` and `diagnose`.
fn render_flight_header(out: &mut String, dump: &FlightDump) {
    let _ = writeln!(
        out,
        "flight recorder: source {}  events {} (dropped {}, capacity {})",
        dump.source,
        dump.records.len(),
        dump.dropped,
        dump.capacity,
    );
    let joined: Vec<String> = dump
        .counts_by_kind()
        .iter()
        .map(|(k, n)| format!("{k} {n}"))
        .collect();
    let _ = writeln!(out, "  counts: {}", joined.join(", "));
    let supervision: Vec<String> = dump
        .records
        .iter()
        .filter(|r| r.ctx == SUPERVISOR_CTX)
        .map(|r| match r.int("unit") {
            Some(u) => format!("{}(u{u})", r.kind),
            None => r.kind.clone(),
        })
        .collect();
    if !supervision.is_empty() {
        let _ = writeln!(out, "  supervision: {}", supervision.join(" "));
    }
}

/// ASCII timeline: one 60-column lane per probe context (sim-time
/// events only — supervisor brackets use logical unit time and are
/// summarized by [`render_flight_header`] instead). `!` marks a fault,
/// `D` a delivery, `.` any other event.
fn render_flight_timeline(out: &mut String, recs: &[DumpRecord]) {
    const COLS: usize = 60;
    const MAX_LANES: usize = 20;
    let sim: Vec<&DumpRecord> = recs.iter().filter(|r| r.ctx != SUPERVISOR_CTX).collect();
    let Some((tmin, tmax)) = sim
        .iter()
        .map(|r| r.time)
        .fold(None, |acc: Option<(f64, f64)>, t| match acc {
            None => Some((t, t)),
            Some((lo, hi)) => Some((lo.min(t), hi.max(t))),
        })
    else {
        let _ = writeln!(out, "  (no probe events recorded)");
        return;
    };
    let span = (tmax - tmin).max(f64::MIN_POSITIVE);
    let mut lanes: std::collections::BTreeMap<u64, [u8; COLS]> = std::collections::BTreeMap::new();
    for r in &sim {
        let lane = lanes.entry(r.ctx).or_insert([b' '; COLS]);
        let col = (((r.time - tmin) / span) * (COLS - 1) as f64).round() as usize;
        let col = col.min(COLS - 1);
        let mark = match r.kind.as_str() {
            "fault" => b'!',
            "delivered" => b'D',
            _ => b'.',
        };
        // Faults and deliveries win over plain event dots.
        if lane[col] == b' ' || mark != b'.' {
            lane[col] = mark;
        }
    }
    let _ = writeln!(
        out,
        "timeline ({} contexts, {:.3e} .. {:.3e} s; `.` event, `D` delivered, `!` fault):",
        lanes.len(),
        tmin,
        tmax
    );
    for (ctx, lane) in lanes.iter().take(MAX_LANES) {
        let _ = writeln!(
            out,
            "  {:<16} |{}|",
            ctx_label(*ctx),
            String::from_utf8_lossy(lane)
        );
    }
    if lanes.len() > MAX_LANES {
        let _ = writeln!(out, "  … {} more contexts", lanes.len() - MAX_LANES);
    }
}

/// The top-K slowest delivered probes with their RTT decomposition.
fn render_flight_slowest(out: &mut String, dump: &FlightDump, top: usize) {
    let mut delivered = dump.delivered();
    delivered.sort_by(|(a_id, a), (b_id, b)| {
        b.rtt
            .partial_cmp(&a.rtt)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a_id.cmp(b_id))
    });
    if delivered.is_empty() {
        let _ = writeln!(out, "  (no delivered probes recorded)");
        return;
    }
    let _ = writeln!(out, "top {} slowest probes:", top.min(delivered.len()));
    for (id, b) in delivered.into_iter().take(top) {
        let (Some(rtt), Some(residual)) = (b.rtt, b.residual()) else {
            continue;
        };
        let parts: Vec<String> = b
            .components()
            .iter()
            .filter(|&&(_, secs)| secs != 0.0)
            .map(|(name, secs)| format!("{name} {secs:.3e}"))
            .collect();
        let _ = writeln!(
            out,
            "  {:<16} probe {:<3} rtt {rtt:.3e} s = {} (residual {residual:.1e})",
            ctx_label(id.ctx),
            id.token,
            parts.join(" + "),
        );
    }
}

/// A small self-contained SVG timeline: one band per probe context,
/// event ticks colored by category.
fn flight_svg(recs: &[DumpRecord]) -> String {
    const WIDTH: usize = 640;
    const LANE: usize = 16;
    const LABEL: usize = 130;
    let sim: Vec<&DumpRecord> = recs.iter().filter(|r| r.ctx != SUPERVISOR_CTX).collect();
    let mut ctxs: Vec<u64> = sim.iter().map(|r| r.ctx).collect();
    ctxs.sort_unstable();
    ctxs.dedup();
    let (tmin, tmax) = sim
        .iter()
        .map(|r| r.time)
        .fold((f64::MAX, f64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));
    let span = (tmax - tmin).max(f64::MIN_POSITIVE);
    let height = ctxs.len().max(1) * LANE + 24;
    let mut s = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"10\">\n"
    );
    if ctxs.is_empty() {
        s.push_str("<text x=\"10\" y=\"20\">no probe events recorded</text>\n");
        s.push_str("</svg>\n");
        return s;
    }
    for (lane, ctx) in ctxs.iter().enumerate() {
        let y = lane * LANE + 16;
        let _ = writeln!(
            s,
            "<text x=\"4\" y=\"{}\">{}</text>",
            y + LANE - 6,
            obs::manifest::json_escape(&ctx_label(*ctx)).replace('<', "&lt;")
        );
        let _ = writeln!(
            s,
            "<line x1=\"{LABEL}\" y1=\"{0}\" x2=\"{1}\" y2=\"{0}\" stroke=\"#ddd\"/>",
            y + LANE / 2,
            WIDTH - 4
        );
    }
    for r in &sim {
        let Ok(lane) = ctxs.binary_search(&r.ctx) else {
            continue;
        };
        let y = lane * LANE + 16;
        let x = LABEL as f64 + ((r.time - tmin) / span) * (WIDTH - LABEL - 8) as f64;
        let color = match r.kind.as_str() {
            "fault" => "#cc3311",
            "delivered" => "#228833",
            "component" => "#4477aa",
            _ => "#999999",
        };
        let _ = writeln!(
            s,
            "<rect x=\"{x:.1}\" y=\"{}\" width=\"2\" height=\"{}\" fill=\"{color}\">\
             <title>{} t={:.3e}s</title></rect>",
            y + 2,
            LANE - 4,
            obs::manifest::json_escape(&r.kind).replace('<', "&lt;"),
            r.time,
        );
    }
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Args::parse(std::iter::empty()).is_err());
        assert!(Args::parse(["plan".into(), "oops".into()]).is_err());
        assert!(Args::parse(["plan".into(), "--scenario".into()]).is_err());
    }

    #[test]
    fn parse_rejects_options_the_command_does_not_take() {
        let err = Args::parse(
            "simulate --scenario s.json --trails 5"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap_err();
        assert!(err.starts_with("simulate does not take --trails"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        assert!(Args::parse(["diagnose".into(), "--top".into(), "3".into()]).is_err());
        // Every option the usage lists is taken.
        for (command, takes) in COMMANDS {
            for key in takes.split(' ') {
                assert!(usage().contains(&format!("--{key} ")), "{command} --{key}");
                let line = [command.to_string(), format!("--{key}"), "1".into()];
                assert!(Args::parse(line).is_ok(), "{command} --{key}");
            }
        }
    }

    #[test]
    fn unknown_command_reports_usage() {
        let err = run(&args("frobnicate")).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("usage:"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&args("help")).unwrap().contains("usage:"));
    }

    #[test]
    fn sample_then_plan_then_simulate_pipeline() {
        let dir = std::env::temp_dir().join("flow-recon-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        // Small scenario keeps the test fast.
        let json = run(&args("sample --seed 5 --bits 3 --rules 6 --capacity 3")).unwrap();
        std::fs::write(&path, &json).unwrap();

        let plan_out = run(&args(&format!(
            "plan --scenario {} --multi 2 --adaptive 2",
            path.display()
        )))
        .unwrap();
        assert!(plan_out.contains("optimal probe"), "{plan_out}");
        assert!(plan_out.contains("multi-probe sequence"));
        assert!(plan_out.contains("adaptive policy"));

        let leak_out = run(&args(&format!("leakage --scenario {}", path.display()))).unwrap();
        assert!(leak_out.contains("rule-structure leakage"));

        let sim_out = run(&args(&format!(
            "simulate --scenario {} --trials 10",
            path.display()
        )))
        .unwrap();
        assert!(sim_out.contains("naive"), "{sim_out}");
        assert!(sim_out.contains("accuracy"));
    }

    #[test]
    fn simulate_threads_flag_does_not_change_output() {
        let dir = std::env::temp_dir().join("flow-recon-cli-threads-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        let json = run(&args("sample --seed 5 --bits 3 --rules 6 --capacity 3")).unwrap();
        std::fs::write(&path, &json).unwrap();

        let serial = run(&args(&format!(
            "simulate --scenario {} --trials 12 --threads 1",
            path.display()
        )))
        .unwrap();
        let parallel = run(&args(&format!(
            "simulate --scenario {} --trials 12 --threads 4",
            path.display()
        )))
        .unwrap();
        assert_eq!(serial, parallel);

        let err = run(&args(&format!(
            "simulate --scenario {} --threads nope",
            path.display()
        )))
        .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn simulate_fault_rate_reports_answer_rate_and_validates() {
        let dir = std::env::temp_dir().join("flow-recon-cli-fault-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        let json = run(&args("sample --seed 5 --bits 3 --rules 6 --capacity 3")).unwrap();
        std::fs::write(&path, &json).unwrap();

        let out = run(&args(&format!(
            "simulate --scenario {} --trials 10 --fault-rate 0.1",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("answer-rate"), "{out}");
        assert!(out.contains("inconclusive"), "{out}");

        // Fault-free runs keep the original compact output.
        let clean = run(&args(&format!(
            "simulate --scenario {} --trials 10 --fault-rate 0.0",
            path.display()
        )))
        .unwrap();
        assert!(!clean.contains("answer-rate"), "{clean}");

        // Out-of-range rates fail at the boundary with the typed
        // ConfigError rendering, not a panic inside the simulator.
        let err = run(&args(&format!(
            "simulate --scenario {} --fault-rate 1.5",
            path.display()
        )))
        .unwrap_err();
        assert!(err.contains("--fault-rate"), "{err}");
        assert!(err.contains("probability"), "{err}");
    }

    #[test]
    fn simulate_policy_flag_selects_eviction_and_validates() {
        let dir = std::env::temp_dir().join("flow-recon-cli-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        let json = run(&args("sample --seed 6 --bits 3 --rules 6 --capacity 3")).unwrap();
        std::fs::write(&path, &json).unwrap();

        // Default runs report the SRT cache; an explicit policy is echoed.
        let default = run(&args(&format!(
            "simulate --scenario {} --trials 8",
            path.display()
        )))
        .unwrap();
        assert!(default.contains("ingress cache (srt)"), "{default}");
        for name in ["srt", "lru", "fdrc"] {
            let out = run(&args(&format!(
                "simulate --scenario {} --trials 8 --policy {name}",
                path.display()
            )))
            .unwrap();
            assert!(out.contains(&format!("ingress cache ({name})")), "{out}");
        }

        // Unknown names fail at the boundary with the typed ConfigError
        // rendering, not a panic inside the simulator.
        let err = run(&args(&format!(
            "simulate --scenario {} --policy fifo",
            path.display()
        )))
        .unwrap_err();
        assert!(err.contains("--policy"), "{err}");
        assert!(err.contains("unknown cache policy"), "{err}");
        assert!(err.contains("srt, lru or fdrc"), "{err}");
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let a = run(&args("sample --seed 9 --bits 3 --rules 5 --capacity 2")).unwrap();
        let b = run(&args("sample --seed 9 --bits 3 --rules 5 --capacity 2")).unwrap();
        assert_eq!(a, b);
        let c = run(&args("sample --seed 10 --bits 3 --rules 5 --capacity 2")).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn missing_scenario_file_reported() {
        let err = run(&args("plan --scenario /nonexistent/x.json")).unwrap_err();
        assert!(err.contains("reading"));
    }

    fn write_test_manifest(dir: &Path) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let mut r = obs::Recorder::enabled();
        r.add(obs::metrics::TRIALS, 240);
        r.add("attack.answered.naive", 230);
        r.add("attack.inconclusive.naive", 10);
        r.add(obs::metrics::FAULT_PACKETS_DROPPED, 17);
        r.add_with_suffix(obs::metrics::CACHE_HITS_PREFIX, "lru", 1800);
        r.add_with_suffix(obs::metrics::CACHE_MISSES_PREFIX, "lru", 200);
        r.add_with_suffix(obs::metrics::CACHE_EVICTIONS_PREFIX, "lru", 150);
        r.add_with_suffix(obs::metrics::CACHE_INSTALLS_PREFIX, "lru", 190);
        r.add(obs::metrics::JOBS_UNITS_RUN, 21);
        r.add(obs::metrics::JOBS_RETRIES, 2);
        r.add(obs::metrics::JOBS_PANICS_CAUGHT, 1);
        r.add(obs::metrics::JOBS_CHECKPOINTS_WRITTEN, 7);
        for i in 0..50 {
            r.observe(
                obs::metrics::PROBE_RTT_HIT,
                8.7e-5 * (1.0 + f64::from(i) / 50.0),
            );
            r.observe(
                obs::metrics::PROBE_RTT_MISS,
                4.1e-3 * (1.0 + f64::from(i) / 50.0),
            );
        }
        let entry = obs::ManifestEntry {
            experiment: "fault_sweep".into(),
            seed: 7,
            configs: 3,
            trials: 80,
            threads: 1,
            config_digest: "00deadbeef00".into(),
            git_rev: "abc123".into(),
            detlint_budget: 45,
            elapsed_secs: 2.25,
            status: "interrupted".into(),
            csv_files: vec!["fault_sweep.csv".into()],
        };
        let path = dir.join("fault_sweep.manifest.jsonl");
        std::fs::write(&path, entry.to_json_line(&r) + "\n").unwrap();
        path
    }

    #[test]
    fn diagnose_renders_manifest_report_and_svg() {
        let dir = std::env::temp_dir().join("flow-recon-cli-diagnose-test");
        let manifest = write_test_manifest(&dir);
        let out = run(&args(&format!(
            "diagnose --manifest {}",
            manifest.display()
        )))
        .unwrap();
        assert!(out.contains("experiment      fault_sweep"), "{out}");
        assert!(out.contains("detlint budget  45"), "{out}");
        assert!(out.contains("histogram netsim.probe_rtt_hit_secs"), "{out}");
        assert!(
            out.contains("histogram netsim.probe_rtt_miss_secs"),
            "{out}"
        );
        assert!(out.contains("n=50"), "{out}");
        assert!(out.contains("fault injection counters:"), "{out}");
        assert!(out.contains("packets_dropped"), "{out}");
        assert!(out.contains("answer rate by attacker:"), "{out}");
        assert!(out.contains("rate 0.958"), "{out}");
        assert!(out.contains("ingress cache counters by policy:"), "{out}");
        assert!(out.contains("lru"), "{out}");
        assert!(out.contains("hit rate 0.900"), "{out}");
        assert!(out.contains("status          interrupted"), "{out}");
        assert!(out.contains("supervisor:"), "{out}");
        assert!(out.contains("units_run"), "{out}");
        assert!(out.contains("panics_caught"), "{out}");
        assert!(out.contains("checkpoints_written"), "{out}");

        // Directory scan finds the same manifest, and --svg writes a chart.
        let svg_path = dir.join("diagnose.svg");
        let out2 = run(&args(&format!(
            "diagnose --results {} --svg {}",
            dir.display(),
            svg_path.display()
        )))
        .unwrap();
        assert!(out2.contains("experiment      fault_sweep"), "{out2}");
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.contains("netsim.probe_rtt_hit_secs"), "{svg}");
        assert!(svg.contains("<rect"), "{svg}");
    }

    fn write_test_flightrec(dir: &Path) -> (obs::FlightRecorder, PathBuf) {
        use obs::trace::{probe_ctx, CompKind, TraceEv, SUPERVISOR_CTX};
        std::fs::create_dir_all(dir).unwrap();
        let mut f = obs::FlightRecorder::enabled();
        f.begin(probe_ctx(0, 0, 1));
        f.log(0.0, Some(0), TraceEv::Inject { flow: 3 });
        f.log(
            0.001,
            Some(0),
            TraceEv::Component {
                kind: CompKind::Hop,
                secs: 0.001,
            },
        );
        f.log(
            0.004,
            Some(0),
            TraceEv::Component {
                kind: CompKind::Controller,
                secs: 0.003,
            },
        );
        f.log(
            0.002,
            Some(0),
            TraceEv::Fault {
                kind: "flow_mods_delayed",
                node: Some(1),
            },
        );
        f.log(0.004, Some(0), TraceEv::Delivered { rtt: 0.004 });
        f.begin(SUPERVISOR_CTX);
        f.log(
            0.0,
            None,
            TraceEv::UnitStart {
                unit: 0,
                attempt: 0,
            },
        );
        f.log(
            0.0,
            None,
            TraceEv::UnitOk {
                unit: 0,
                attempt: 0,
            },
        );
        let path = dir.join("fault_sweep.flightrec.jsonl");
        f.dump_jsonl(&path, "fault_sweep").unwrap();
        (f, path)
    }

    #[test]
    fn trace_renders_flightrec_timeline_and_decomposition() {
        let dir = std::env::temp_dir().join("flow-recon-cli-trace-test");
        let (_, fr) = write_test_flightrec(&dir);
        let out = run(&args(&format!("trace --flightrec {}", fr.display()))).unwrap();
        assert!(out.contains("flight recorder: source fault_sweep"), "{out}");
        assert!(out.contains("delivered 1"), "{out}");
        assert!(
            out.contains("supervision: unit_start(u0) unit_ok(u0)"),
            "{out}"
        );
        assert!(out.contains("timeline (1 contexts"), "{out}");
        assert!(out.contains("u0 t0 a1"), "{out}");
        assert!(out.contains('!'), "{out}");
        assert!(out.contains('D'), "{out}");
        assert!(out.contains("top 1 slowest probes:"), "{out}");
        assert!(out.contains("rtt 4.000e-3 s"), "{out}");
        assert!(out.contains("controller 3.000e-3"), "{out}");
        assert!(out.contains("hop 1.000e-3"), "{out}");
        assert!(out.contains("residual 0.0e0"), "{out}");

        let svg_path = dir.join("trace.svg");
        let out2 = run(&args(&format!(
            "trace --flightrec {} --svg {}",
            fr.display(),
            svg_path.display()
        )))
        .unwrap();
        assert!(out2.contains("wrote"), "{out2}");
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.contains("#cc3311"), "{svg}"); // fault tick
        assert!(svg.contains("#228833"), "{svg}"); // delivery tick
    }

    #[test]
    fn trace_validate_accepts_our_export_and_rejects_junk() {
        let dir = std::env::temp_dir().join("flow-recon-cli-trace-validate-test");
        let (f, _) = write_test_flightrec(&dir);
        let tj = dir.join("trace.json");
        std::fs::write(&tj, f.to_chrome_trace()).unwrap();
        let out = run(&args(&format!("trace --validate {}", tj.display()))).unwrap();
        assert!(out.contains("valid Chrome trace JSON"), "{out}");
        assert!(out.contains("7 events"), "{out}");

        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"notTraceEvents\":[]}").unwrap();
        let err = run(&args(&format!("trace --validate {}", bad.display()))).unwrap_err();
        assert!(err.contains("traceEvents"), "{err}");
        std::fs::write(&bad, "{\"traceEvents\":[{\"name\":\"x\"}]}").unwrap();
        let err = run(&args(&format!("trace --validate {}", bad.display()))).unwrap_err();
        assert!(err.contains("traceEvents[0]"), "{err}");

        let err = run(&args("trace --top 3")).unwrap_err();
        assert!(err.contains("--flightrec"), "{err}");
    }

    #[test]
    fn diagnose_includes_flight_summary_next_to_manifest() {
        let dir = std::env::temp_dir().join("flow-recon-cli-diagnose-flight-test");
        let manifest = write_test_manifest(&dir);
        let (_, fr) = write_test_flightrec(&dir);
        let out = run(&args(&format!(
            "diagnose --manifest {}",
            manifest.display()
        )))
        .unwrap();
        assert!(out.contains("experiment      fault_sweep"), "{out}");
        assert!(out.contains(&format!("== {} ==", fr.display())), "{out}");
        assert!(out.contains("flight recorder: source fault_sweep"), "{out}");
        assert!(out.contains("top 1 slowest probes:"), "{out}");
    }

    #[test]
    fn diagnose_reports_disabled_recorder_and_bad_paths() {
        let dir = std::env::temp_dir().join("flow-recon-cli-diagnose-empty-test");
        std::fs::create_dir_all(&dir).unwrap();
        let entry = obs::ManifestEntry {
            experiment: "latency_table".into(),
            seed: 7,
            configs: 0,
            trials: 0,
            threads: 1,
            config_digest: "0".into(),
            git_rev: "unknown".into(),
            detlint_budget: 0,
            elapsed_secs: 0.5,
            status: "ok".into(),
            csv_files: vec!["latency_table.csv".into()],
        };
        let path = dir.join("latency_table.manifest.jsonl");
        std::fs::write(&path, entry.to_json_line(&obs::Recorder::disabled()) + "\n").unwrap();
        let out = run(&args(&format!("diagnose --manifest {}", path.display()))).unwrap();
        assert!(out.contains("no metrics recorded"), "{out}");

        let err = run(&args("diagnose --manifest /nonexistent/x.manifest.jsonl")).unwrap_err();
        assert!(err.contains("reading"), "{err}");
        let empty = dir.join("no-manifests-here");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&args(&format!("diagnose --results {}", empty.display()))).unwrap_err();
        assert!(err.contains("no *.manifest.jsonl"), "{err}");
    }
}
