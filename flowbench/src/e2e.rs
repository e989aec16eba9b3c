//! End-to-end measurement: the experiment programs run as child
//! processes with tracing off, timed from outside, their peak memory
//! sampled from `/proc`, and their outputs checked.

use crate::replica::{fattree_batch, fattree_config, fattree_nets, report_digest, Batch, KINDS3};
use crate::{
    field, fnv_hex, kernel_s, secs, unit_seed, Unit, Workload, FATTREE_BATCH, FATTREE_KS,
    KERNEL_NOMINAL_S, SUITE_TRIALS, TOURNAMENT_CELLS, TOURNAMENT_TRIALS,
};
use attack::AttackPlan;
use serde::Value;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use traffic::NetworkScenario;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// A seed whose first sampled configuration is a detector, so the
/// pinned fat-tree rows are cheap to recompute.
const FATTREE_GOLDEN_SEED: u64 = 0;

/// FNV-1a digests of the golden outputs, one `workload name digest` per
/// line.
const PINS: &str = include_str!("../pins.txt");

/// Where a run happens: the checkout root, the release binaries and the
/// benchmark's scratch directory inside the cargo target directory.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The repository checkout.
    root: PathBuf,
    /// `<target>/release`.
    bin_dir: PathBuf,
    /// `<target>/flowbench`, recreated per workload.
    pub out: PathBuf,
    /// CPUs the programs may be pinned to with `taskset`; empty when
    /// pinning is unavailable.
    cpus: Vec<usize>,
}

impl Ctx {
    /// The checkout is the working directory; the target directory is
    /// `CARGO_TARGET_DIR` or `target`.
    ///
    /// # Errors
    ///
    /// When the working directory is not a flow-recon checkout.
    pub fn from_cwd() -> Result<Ctx, String> {
        let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        if !root.join("crates/experiments/Cargo.toml").is_file() {
            return Err(format!(
                "{} is not a flow-recon checkout (no crates/experiments)",
                root.display()
            ));
        }
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| root.join("target"), |t| root.join(t));
        let mut cpus = allowed_cpus();
        let pinnable = cpus.first().is_some_and(|c| {
            Command::new("taskset")
                .args(["-c", &c.to_string(), "true"])
                .output()
                .is_ok_and(|o| o.status.success())
        });
        if !pinnable {
            cpus.clear();
        }
        Ok(Ctx {
            bin_dir: target.join("release"),
            out: target.join("flowbench"),
            root,
            cpus,
        })
    }

    /// An empty scratch directory for `name`.
    ///
    /// # Errors
    ///
    /// When it cannot be recreated.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.out.join(name);
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// A command for `program`, pinned to `cpu` when given.
    fn command(&self, program: impl AsRef<std::ffi::OsStr>, cpu: Option<usize>) -> Command {
        let mut cmd = match cpu {
            Some(c) => {
                let mut cmd = Command::new("taskset");
                cmd.args(["-c", &c.to_string()]).arg(program);
                cmd
            }
            None => Command::new(program),
        };
        cmd.current_dir(&self.root);
        // FLOW_RECON_OBS, _TRACE, _THREADS and _KILL_AFTER_CKPT each change
        // the measured program.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("FLOW_RECON_") {
                cmd.env_remove(key);
            }
        }
        cmd
    }

    fn bin(&self, name: &str, cpu: Option<usize>) -> Command {
        self.command(self.bin_dir.join(name), cpu)
    }

    /// The calibration kernel's time on `cpu`, or on this process's CPU.
    fn kernel_on(&self, cpu: Option<usize>) -> Result<f64, String> {
        let Some(c) = cpu else {
            return Ok(kernel_s());
        };
        let exe = std::env::current_exe().map_err(|e| format!("locating flow_bench: {e}"))?;
        let out = self
            .command(exe, Some(c))
            .arg("kernel")
            .output()
            .map_err(|e| format!("timing the kernel on CPU {c}: {e}"))?;
        String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|_| format!("kernel on CPU {c} printed no time"))
    }

    /// Pins every thread of this process to `cpu`, or back to all allowed
    /// CPUs. Best effort: without `taskset` nothing changes.
    pub fn pin_self(&self, cpu: Option<usize>) {
        if self.cpus.is_empty() {
            return;
        }
        let list: Vec<String> = cpu.map_or_else(
            || self.cpus.iter().map(ToString::to_string).collect(),
            |c| vec![c.to_string()],
        );
        let _ = Command::new("taskset")
            .args(["-a", "-p", "-c", &list.join(",")])
            .arg(std::process::id().to_string())
            .output();
    }

    /// The CPU on which the kernel currently runs fastest, and its time.
    /// Each vCPU of the shared host switches between speeds on its own.
    pub fn quietest_cpu(&self) -> Result<(Option<usize>, f64), String> {
        let mut best = (None, f64::INFINITY);
        for &c in &self.cpus {
            let t = self.kernel_on(Some(c))?;
            if t < best.1 {
                best = (Some(c), t);
            }
        }
        if best.0.is_none() {
            best.1 = kernel_s();
        }
        Ok(best)
    }

    /// Runs `f` on the quietest CPU; returns its result and the factor
    /// that brings times measured meanwhile to the reference host speed,
    /// from the kernel's time on that CPU before and after.
    fn on_quiet_cpu<T>(
        &self,
        f: impl FnOnce(Option<usize>) -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        let (cpu, before) = self.quietest_cpu()?;
        let out = f(cpu)?;
        let after = self.kernel_on(cpu)?;
        Ok((out, 2.0 * KERNEL_NOMINAL_S / (before + after)))
    }

    /// Builds the experiment programs the workloads run.
    ///
    /// # Errors
    ///
    /// When cargo fails.
    pub fn build_bins(&self) -> Result<(), String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = self
            .command(cargo, None)
            .args(["build", "--release", "-q", "-p", "experiments"])
            .args(["--bin", "evaluate_suite", "--bin", "defense_tournament"])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("running cargo: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("building the experiment programs failed: {status}"))
        }
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`, as `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        match (lo.parse::<usize>(), hi.parse::<usize>()) {
            (Ok(lo), Ok(hi)) => cpus.extend(lo..=hi),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Start units until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many units.
    Units(usize),
}

impl Budget {
    /// Whether to start unit number `done`.
    #[must_use]
    pub fn more(self, started: Instant, done: usize) -> bool {
        match self {
            Budget::Seconds(s) => done == 0 || started.elapsed().as_secs_f64() < s,
            Budget::Units(n) => done < n,
        }
    }
}

/// A finished child process.
#[derive(Debug)]
struct ChildRun {
    wall_s: f64,
    success: bool,
    peak_rss_kb: u64,
    /// Stdout lines with their arrival time, seconds after spawn.
    lines: Vec<(f64, String)>,
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `cmd` to completion, timing it from spawn to exit and sampling
/// its peak resident set every 20 ms. Stderr goes to `log`.
fn run_child(mut cmd: Command, log: &Path) -> Result<ChildRun, String> {
    let stderr = fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr);
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawning {:?}: {e}", cmd.get_program()))?;
    let pid = child.id();
    let stdout = child.stdout.take().ok_or("child stdout was not captured")?;
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            BufReader::new(stdout)
                .lines()
                .map_while(Result::ok)
                .map(|l| (start.elapsed().as_secs_f64(), l))
                .collect::<Vec<_>>()
        });
        let poller = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = vm_hwm_kb(pid).unwrap_or(0).max(peak);
                std::thread::park_timeout(std::time::Duration::from_millis(20));
            }
            peak
        });
        let status = child.wait();
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        poller.thread().unpark();
        let peak_rss_kb = poller.join().map_err(|_| "memory poller panicked")?;
        let lines = reader.join().map_err(|_| "stdout reader panicked")?;
        let status = status.map_err(|e| format!("waiting for child: {e}"))?;
        Ok(ChildRun {
            wall_s,
            success: status.success(),
            peak_rss_kb,
            lines,
        })
    })
}

fn failure(what: &str, log: &Path) -> String {
    let text = fs::read_to_string(log).unwrap_or_default();
    let tail: Vec<&str> = text.lines().rev().take(5).collect();
    let tail: Vec<&str> = tail.into_iter().rev().collect();
    format!("{what} failed: {}", tail.join(" | "))
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn path_u64(v: &Value, path: &[&str]) -> Option<u64> {
    path.iter()
        .try_fold(v, |v, key| field(v, key))?
        .as_num()?
        .as_u64()
}

/// A parsed CSV: header names and rows of cells.
pub(crate) struct Csv {
    header: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
}

impl Csv {
    pub(crate) fn parse(text: &str) -> Csv {
        let mut lines = text.lines();
        let split = |l: &str| l.split(',').map(str::to_string).collect::<Vec<_>>();
        Csv {
            header: lines.next().map(split).unwrap_or_default(),
            rows: lines.map(split).collect(),
        }
    }

    fn col(&self, name: &str) -> Result<usize, String> {
        self.header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| format!("CSV has no `{name}` column"))
    }

    pub(crate) fn num(&self, row: &[String], name: &str) -> Result<f64, String> {
        let i = self.col(name)?;
        row.get(i)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("bad `{name}` cell in {row:?}"))
    }
}

fn check_share(x: f64, what: &str) -> Result<(), String> {
    if (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        Err(format!("{what} = {x} is outside [0, 1]"))
    }
}

/// Everything an end-to-end run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// The timed units.
    pub units: Vec<Unit>,
    /// Set-up times.
    pub setup_s: Vec<f64>,
    /// Peak resident set of every measured process, kB.
    pub rss_kb: Vec<u64>,
    /// The host-speed factor applied to each unit's time.
    pub scales: Vec<f64>,
    /// Units, golden checks and set-ups attempted.
    pub attempted: u64,
    /// Failed attempts, one message each.
    pub errors: Vec<String>,
}

impl E2e {
    fn attempt<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.errors.push(e)).ok()
    }
}

/// Measures `workload` end to end at `seed`.
#[must_use]
pub fn measure(ctx: &Ctx, workload: Workload, seed: u64, budget: Budget) -> E2e {
    if workload == Workload::Fattree {
        return measure_fattree(ctx, seed, budget, &fattree_config(seed));
    }
    let mut e = E2e::default();
    if e.attempt(golden(ctx, workload)).is_none() {
        return e;
    }
    let setups = ctx.on_quiet_cpu(|cpu| {
        (0..SETUP_REPS)
            .map(|_| setup(ctx, workload, seed, cpu))
            .collect::<Result<Vec<f64>, String>>()
    });
    if let Some((walls, scale)) = e.attempt(setups) {
        e.setup_s.extend(walls.iter().map(|w| w * scale));
    }
    let started = Instant::now();
    let mut i = 0;
    while budget.more(started, i) {
        let r = ctx.fresh_dir(&format!("{workload}/unit")).and_then(|dir| {
            ctx.on_quiet_cpu(|cpu| bin_unit(ctx, workload, &dir, unit_seed(seed, i), cpu))
        });
        if let Some(((mut unit, rss), scale)) = e.attempt(r) {
            unit.op_s *= scale;
            e.units.push(unit);
            e.rss_kb.push(rss);
            e.scales.push(scale);
        }
        i += 1;
    }
    e
}

fn program(workload: Workload) -> (&'static str, usize) {
    match workload {
        Workload::Suite => ("evaluate_suite", SUITE_TRIALS),
        _ => ("defense_tournament", TOURNAMENT_TRIALS),
    }
}

/// Runs `workload`'s program on one seed into `dir`.
fn run_bin(
    ctx: &Ctx,
    workload: Workload,
    dir: &Path,
    configs: usize,
    seed: u64,
    extra: &[&str],
    cpu: Option<usize>,
) -> Result<ChildRun, String> {
    let (name, trials) = program(workload);
    let mut cmd = ctx.bin(name, cpu);
    cmd.args(["--configs", &configs.to_string()])
        .args(["--trials", &trials.to_string()])
        .args(["--seed", &seed.to_string(), "--threads", "1", "--obs"])
        .args(extra)
        .arg("--out")
        .arg(dir);
    let log = dir.join("stderr.txt");
    let run = run_child(cmd, &log)?;
    if run.success {
        Ok(run)
    } else {
        Err(failure(&format!("{name} --seed {seed}"), &log))
    }
}

/// Fixed start-up cost: the program with no configurations to evaluate.
fn setup(ctx: &Ctx, workload: Workload, seed: u64, cpu: Option<usize>) -> Result<f64, String> {
    let dir = ctx.fresh_dir(&format!("{workload}/setup"))?;
    Ok(run_bin(ctx, workload, &dir, 0, seed, &[], cpu)?.wall_s)
}

/// The pinned `(name, digest)` pairs of `workload`.
fn pins(workload: Workload) -> impl Iterator<Item = (&'static str, &'static str)> {
    PINS.lines().filter_map(move |line| {
        let mut it = line.split_whitespace();
        match (it.next(), it.next(), it.next()) {
            (Some(w), Some(name), Some(digest)) if w == workload.name() => Some((name, digest)),
            _ => None,
        }
    })
}

fn check_pin(workload: Workload, name: &str, bytes: &[u8]) -> Result<(), String> {
    let got = fnv_hex(bytes);
    match pins(workload).find(|&(n, _)| n == name) {
        Some((_, pin)) if pin == got => Ok(()),
        Some((_, pin)) => Err(format!(
            "golden {workload} output {name} has digest {got}, pinned {pin}"
        )),
        None => Err(format!("no golden digest pinned for {workload} {name}")),
    }
}

/// Reruns a small fixed job and compares its outputs with the pinned
/// digests.
fn golden(ctx: &Ctx, workload: Workload) -> Result<(), String> {
    let dir = ctx.fresh_dir(&format!("{workload}/golden"))?;
    run_bin(
        ctx,
        workload,
        &dir,
        2,
        7,
        &["--fast", "--trials", "10"],
        None,
    )?;
    for (file, _) in pins(workload) {
        check_pin(workload, file, read(&dir.join(file))?.as_bytes())?;
    }
    Ok(())
}

/// One timed program run on `seed`, checked; returns the unit and the
/// process's peak resident set.
fn bin_unit(
    ctx: &Ctx,
    workload: Workload,
    dir: &Path,
    seed: u64,
    cpu: Option<usize>,
) -> Result<(Unit, u64), String> {
    let run = run_bin(ctx, workload, dir, 1, seed, &[], cpu)?;
    let unit = match workload {
        Workload::Suite => suite_outputs(dir, run.wall_s),
        _ => tournament_outputs(dir, &run),
    }
    .map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    Ok((unit, run.peak_rss_kb))
}

fn suite_outputs(dir: &Path, wall_s: f64) -> Result<Unit, String> {
    let manifest: Value = serde_json::from_str(&read(&dir.join("evaluate_suite.manifest.jsonl"))?)
        .map_err(|e| format!("manifest: {e}"))?;
    if field(&manifest, "status").and_then(Value::as_str) != Some("ok") {
        return Err("manifest status is not ok".into());
    }
    // Planner constructions: one per sampled configuration.
    let sampled = path_u64(
        &manifest,
        &["metrics", "histograms", "core.planner.evolve_secs", "count"],
    )
    .ok_or("manifest lacks the planner count")?;
    let trials = path_u64(&manifest, &["metrics", "counters", "attack.trials"]).unwrap_or(0);
    let fig7a = read(&dir.join("fig7a.csv"))?;
    let robust = read(&dir.join("suite_robust.csv"))?;
    let f = Csv::parse(&fig7a);
    let mut accepted = 0.0;
    for row in &f.rows {
        accepted += f.num(row, "configs")?;
        for col in [
            "naive_accuracy",
            "restricted_model_accuracy",
            "random_accuracy",
        ] {
            check_share(f.num(row, col)?, col)?;
        }
    }
    if !(1..=60).contains(&sampled) || accepted > 1.0 {
        return Err(format!("{sampled} sampled, {accepted} accepted"));
    }
    let answered = accepted as u64 * SUITE_TRIALS as u64;
    if trials != answered {
        return Err(format!("{trials} trials run, expected {answered}"));
    }
    let r = Csv::parse(&robust);
    if r.rows.len() != 4 {
        return Err(format!("suite_robust.csv has {} rows", r.rows.len()));
    }
    for row in &r.rows {
        let ok = r.num(row, "answered")? == answered as f64
            && r.num(row, "inconclusive")? == 0.0
            && r.num(row, "timeouts")? == 0.0
            && (answered == 0 || r.num(row, "answer_rate")? == 1.0);
        if !ok {
            return Err(format!("fault-free suite row {row:?}"));
        }
    }
    Ok(Unit {
        op_s: wall_s,
        ops: sampled,
        outputs: fig7a + &robust,
    })
}

fn tournament_outputs(dir: &Path, run: &ChildRun) -> Result<Unit, String> {
    // The grid phase starts when planning reports its configurations.
    let (planned_at, configs) = run
        .lines
        .iter()
        .find_map(|(t, l)| {
            let n = l.strip_suffix(" detector-feasible configurations")?;
            Some((*t, n.parse::<u64>().ok()?))
        })
        .ok_or("no planning line on stdout")?;
    let csv = read(&dir.join("defense_tournament.csv"))?;
    let c = Csv::parse(&csv);
    if c.rows.len() != 3 * TOURNAMENT_CELLS {
        return Err(format!("{} CSV rows", c.rows.len()));
    }
    for row in &c.rows {
        if c.num(row, "configs")? != configs as f64 {
            return Err(format!("row {row:?} disagrees on configs"));
        }
        if configs == 0 {
            continue;
        }
        for col in ["accuracy", "answer_rate", "hit_rate"] {
            check_share(c.num(row, col)?, col)?;
        }
        let fault_free = c.num(row, "fault_rate")? == 0.0;
        if fault_free && c.num(row, "answer_rate")? != 1.0 {
            return Err(format!("fault-free row {row:?} left questions open"));
        }
        if c.num(row, "hits")? + c.num(row, "misses")? == 0.0 {
            return Err(format!("row {row:?} saw no lookups"));
        }
    }
    Ok(Unit {
        op_s: run.wall_s - planned_at,
        ops: lookups(&csv),
        outputs: csv,
    })
}

/// Ingress lookups in a tournament CSV: every simulated packet and probe
/// that reached the attacked switch.
#[must_use]
pub fn lookups(csv: &str) -> u64 {
    let c = Csv::parse(csv);
    c.rows
        .iter()
        .map(|row| {
            ["hits", "misses", "uncovered"]
                .iter()
                .map(|col| c.num(row, col).unwrap_or(0.0) as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Trials per fabric of `bin/scalability.rs` (its `--trials` default).
const SCALABILITY_TRIALS: usize = 60;

/// The k=16 and k=32 rows `bin/scalability.rs` writes to
/// `scalability_fattree.csv` when `input` is the configuration it
/// selects from `seed`.
fn fattree_rows(seed: u64, input: &(NetworkScenario, AttackPlan)) -> Result<Vec<String>, String> {
    let (sc, plan) = input;
    let nets = fattree_nets(sc);
    FATTREE_KS
        .iter()
        .zip(&nets)
        .enumerate()
        .map(|(batch, (&k, net))| {
            let hops = net
                .topology
                .distance(net.ingress, net.server)
                .map_err(|e| format!("fat-tree path: {e}"))?;
            let report = Batch {
                trials: SCALABILITY_TRIALS,
                ..fattree_batch(sc, plan, &nets, seed, batch)
            }
            .engine();
            let accs: Vec<String> = KINDS3
                .iter()
                .map(|&kind| report.accuracy(kind).to_string())
                .collect();
            Ok(format!(
                "{k},{},{},{hops},{}",
                net.topology.len(),
                net.topology.link_count(),
                accs.join(",")
            ))
        })
        .collect()
}

/// Checks the fat-tree loop against its pinned rows and, at seed 7,
/// against the committed `results/scalability_fattree.csv`. `input` is
/// the configuration selected from `seed`.
fn fattree_golden(
    ctx: &Ctx,
    seed: u64,
    input: &(NetworkScenario, AttackPlan),
) -> Result<(), String> {
    let golden = fattree_config(FATTREE_GOLDEN_SEED);
    let rows = fattree_rows(FATTREE_GOLDEN_SEED, &golden)?;
    check_pin(Workload::Fattree, "rows", rows.join("\n").as_bytes())?;
    if seed == 7 {
        let committed = read(&ctx.root.join("results/scalability_fattree.csv"))?;
        for row in fattree_rows(seed, input)? {
            if !committed.lines().any(|l| l == row) {
                return Err(format!("fat-tree row `{row}` is not in the committed CSV"));
            }
        }
    }
    Ok(())
}

/// The `fattree` program, run in a child process of the benchmark: the
/// fat-tree loop of `bin/scalability.rs` on the configuration in
/// `input`, repeated in rounds of one batch per fabric. Writes one line
/// per result to `out`.
///
/// # Errors
///
/// When `input` cannot be read or `out` cannot be written.
pub fn fattree_child(seed: u64, budget: Budget, input: &Path, out: &Path) -> Result<(), String> {
    let (sc, plan): (NetworkScenario, AttackPlan) =
        serde_json::from_str(&read(input)?).map_err(|e| format!("{}: {e}", input.display()))?;
    let mut lines = Vec::new();
    for _ in 0..SETUP_REPS {
        lines.push(format!("kernel {}", kernel_s()));
        let t = Instant::now();
        std::hint::black_box(fattree_nets(&sc));
        lines.push(format!("setup {}", secs(t)));
    }
    let nets = fattree_nets(&sc);
    let started = Instant::now();
    let mut round = 0;
    while budget.more(started, round) {
        if round % 8 == 0 {
            lines.push(format!("kernel {}", kernel_s()));
        }
        for batch in round * FATTREE_KS.len()..(round + 1) * FATTREE_KS.len() {
            let b = fattree_batch(&sc, &plan, &nets, seed, batch);
            let t = Instant::now();
            let report = b.engine();
            let wall = secs(t);
            let mut line = format!("batch {} {}", wall, report_digest(&report));
            for kind in KINDS3 {
                line.push_str(&format!(
                    " {} {}",
                    report.accuracy(kind),
                    report.answer_rate(kind)
                ));
            }
            lines.push(line);
        }
        round += 1;
    }
    lines.push(String::new());
    fs::write(out, lines.join("\n")).map_err(|e| format!("writing {}: {e}", out.display()))
}

/// Measures `fattree` end to end on the configuration selected from
/// `seed`, after checking the fat-tree loop against its golden rows.
#[must_use]
pub fn measure_fattree(
    ctx: &Ctx,
    seed: u64,
    budget: Budget,
    input: &(NetworkScenario, AttackPlan),
) -> E2e {
    let mut e = E2e::default();
    if e.attempt(fattree_golden(ctx, seed, input)).is_none() {
        return e;
    }
    let run = (|| {
        let dir = ctx.fresh_dir("fattree")?;
        let (inputs, out) = (dir.join("input.json"), dir.join("fattree.txt"));
        let json = serde_json::to_string(input).map_err(|err| err.to_string())?;
        fs::write(&inputs, json).map_err(|err| format!("writing {}: {err}", inputs.display()))?;
        let exe = std::env::current_exe().map_err(|err| format!("locating flow_bench: {err}"))?;
        // The child times the kernel itself, on the CPU it is pinned to.
        let (cpu, _) = ctx.quietest_cpu()?;
        let mut cmd = ctx.command(exe, cpu);
        cmd.args(["fattree-child", "--seed", &seed.to_string()])
            .arg("--input")
            .arg(&inputs)
            .arg("--out")
            .arg(&out);
        match budget {
            Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
            Budget::Units(n) => cmd.args(["--units", &n.to_string()]),
        };
        let log = dir.join("stderr.txt");
        let run = run_child(cmd, &log)?;
        if !run.success {
            return Err(failure("fattree", &log));
        }
        Ok((run.peak_rss_kb, read(&out)?))
    })();
    let Some((rss, text)) = e.attempt(run) else {
        return e;
    };
    e.rss_kb.push(rss);
    // Each set-up and round is scaled by the kernel time taken last
    // before it.
    let mut scale = f64::NAN;
    let mut round = Unit::default();
    let mut in_round = 0;
    for line in text.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some(key @ ("setup" | "kernel")) => {
                let Some(t) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    continue;
                };
                if key == "kernel" {
                    scale = KERNEL_NOMINAL_S / t;
                } else {
                    e.setup_s.push(t * scale);
                }
            }
            Some("batch") => {
                let Some((wall, digest)) = e.attempt(fattree_line(&mut it)) else {
                    continue;
                };
                round.op_s += wall * scale;
                round.ops += FATTREE_BATCH as u64;
                round.outputs.push_str(&digest);
                in_round += 1;
                if in_round == FATTREE_KS.len() {
                    e.units.push(std::mem::take(&mut round));
                    e.scales.push(scale);
                    in_round = 0;
                }
            }
            _ => {}
        }
    }
    e
}

/// A batch line's time and digest, after checking its verdicts.
fn fattree_line<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<(f64, String), String> {
    let wall: f64 = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("batch line lacks its time")?;
    let digest = it.next().ok_or("batch line lacks its digest")?.to_string();
    let rest: Vec<f64> = it.map(|s| s.parse().unwrap_or(f64::NAN)).collect();
    if rest.len() != 2 * KINDS3.len() {
        return Err(format!("batch line has {} numbers", rest.len()));
    }
    for pair in rest.chunks(2) {
        check_share(pair[0], "fat-tree accuracy")?;
        if pair[1] != 1.0 {
            return Err(format!("fat-tree answer rate {}", pair[1]));
        }
    }
    Ok((wall, digest))
}
