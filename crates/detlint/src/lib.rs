//! `detlint` — workspace static analysis for the determinism and
//! panic-policy invariants.
//!
//! Every reproduced result in this repository rests on one contract: runs
//! are bit-identical across thread counts, and all randomness derives
//! from the run seed through named `*_STREAM_SALT` constants. The
//! byte-equality regression tests *detect* violations after the fact;
//! detlint *prevents* the three classic ways hidden entropy enters —
//! hash-iteration order, wall clocks, and OS RNGs — plus the slow creep
//! of panic paths, at CI time:
//!
//! * **D1** — no `HashMap`/`HashSet` in the deterministic crates
//!   (`flowspace`, `ftcache`, `core`, `traffic`, `attack`, `netsim`).
//! * **D2** — no `Instant`/`SystemTime`/`std::time` outside the
//!   allowlisted wall-clock modules in `experiments`/`bench`.
//! * **D3** — no `thread_rng`/`rand::random`/`from_entropy` anywhere, and
//!   all `*_SALT` constants must have workspace-unique values.
//! * **D4** — `unwrap()`/`expect(`/`panic!` counts in non-test library
//!   code are pinned by `crates/detlint/baseline.toml`; the baseline may
//!   only shrink.
//!
//! On top of the token pass, a second **dataflow pass** parses every
//! file into items ([`parser`]), builds a per-crate symbol table and
//! approximate call graph ([`graph`]), and checks:
//!
//! * **D5** — every `seed_from_u64` argument must trace (through
//!   locals, consts and function parameters) to
//!   `seed ^ <exactly one *_STREAM_SALT>`; inline literal salts, raw
//!   non-XOR arithmetic on seeds, salt reuse across streams, and second
//!   unsalted root streams per crate are findings.
//! * **D6** — float comparisons in deterministic crates must be total
//!   (`total_cmp`, not `partial_cmp`), and closures passed to
//!   `map_indexed` may not mutate shared state.
//! * **D7** — `Mutex`/`RwLock` pairs must be acquired in one global
//!   order per crate.
//! * **D8** — `CachePolicy` impls (and everything reachable from them)
//!   may not touch RNGs, interior mutability, or wall-clock.
//! * **D9** — every `Cargo.toml` dependency must resolve to the
//!   workspace or `crates/vendor/` (the offline seed build has no
//!   network).
//! * **D10** — every bare `pub` item of a library crate must be named
//!   by some non-test code: a program, a bench, an example, another
//!   library, or the benchmark's `flowbench/src` ([`unnamed`]). The rule
//!   is name-based, so a name that collides with another in use hides a
//!   finding.
//!
//! Findings can be emitted as SARIF 2.1.0 (`--format sarif`) for GitHub
//! code scanning.
//!
//! The escape hatch is `// detlint::allow(<rule>): <reason>` on (or
//! directly above) the offending line; an allow without a reason is
//! itself an error. detlint is deliberately dependency-free and
//! token-level: it lexes the workspace `.rs` files itself instead of
//! pulling in `syn`, consistent with the vendored-deps constraint.

pub mod dataflow;
pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod unnamed;

pub use rules::{FileCtx, FileReport, Finding, SaltDef};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Relative path of the panic-budget baseline, from the workspace root.
pub const BASELINE_PATH: &str = "crates/detlint/baseline.toml";

/// Full workspace analysis result.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Actual per-crate panic-site counts (D4 scope).
    pub panic_counts: BTreeMap<String, usize>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directory subtrees scanned, relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// The benchmark's sources: read for D10 callers, never linted.
const READ_ONLY_ROOT: &str = "flowbench/src";

/// Recursively collects `.rs` files under `dir` into `out`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full analysis rooted at `root` (the workspace directory).
///
/// # Errors
///
/// Returns a message if the tree cannot be read or the baseline is
/// missing or malformed — infrastructure failures, as opposed to rule
/// findings, which are reported in the [`Report`].
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report::default();
    let mut salts = Vec::new();
    let mut units: Vec<dataflow::AnalysisUnit> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let Some(ctx) = FileCtx::classify(&rel) else {
            continue;
        };
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let lexed = lexer::lex(&src);
        let file_report = rules::check_file_lexed(&ctx, &lexed);
        report.files_scanned += 1;
        report.findings.extend(file_report.findings);
        salts.extend(file_report.salts);
        if ctx.is_lib {
            *report
                .panic_counts
                .entry(ctx.crate_key.to_string())
                .or_insert(0) += file_report.panic_sites;
        }
        // Second pass input: the same lex, parsed into items. Allow
        // findings were already collected above, so the scratch vec is
        // discarded.
        let mut scratch = Vec::new();
        let allows = rules::collect_allows(&ctx, &lexed, &mut scratch);
        let test_spans = rules::test_spans(&lexed.tokens);
        let parsed = parser::parse(&lexed);
        let crate_key = ctx.crate_key.to_string();
        units.push(dataflow::AnalysisUnit {
            file: graph::FileUnit {
                rel_path: rel.clone(),
                crate_key,
                is_src: ctx.in_src,
                lexed,
                parsed,
                test_spans,
            },
            allows,
            deterministic: ctx.deterministic,
        });
    }

    report.findings.extend(rules::check_salt_uniqueness(&salts));
    report.findings.extend(dataflow::check_dataflow(&units));

    // The order of the benchmark's files is immaterial: D10 only asks
    // whether a name occurs.
    let mut read_only_files = Vec::new();
    let read_only = root.join(READ_ONLY_ROOT);
    if read_only.is_dir() {
        walk(&read_only, &mut read_only_files)?;
    }
    let readers = read_only_files
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map(|src| lexer::lex(&src))
                .map_err(|e| format!("read {}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    report
        .findings
        .extend(unnamed::check_unnamed(&units, &readers));
    report.findings.extend(manifest::check_manifests(root)?);

    let baseline_file = root.join(BASELINE_PATH);
    let baseline_text = std::fs::read_to_string(&baseline_file).map_err(|e| {
        format!(
            "missing panic-policy baseline {} ({e}); create it with \
             `cargo run -p detlint -- --print-budget`",
            baseline_file.display()
        )
    })?;
    let baseline = rules::parse_baseline(&baseline_text)?;
    report.findings.extend(rules::compare_baseline(
        &report.panic_counts,
        &baseline,
        BASELINE_PATH,
    ));

    report.findings.sort();
    Ok(report)
}

/// Renders the actual panic budget as baseline-file TOML.
#[must_use]
pub fn budget_toml(panic_counts: &BTreeMap<String, usize>) -> String {
    let mut out = String::from(
        "# detlint panic-policy baseline (rule D4).\n\
         # Per-crate count of `unwrap()`/`expect(`/`panic!` sites in non-test\n\
         # library code. CI fails if any count rises; when a count drops,\n\
         # lower the entry to match — the baseline may only shrink.\n\
         [panic_budget]\n",
    );
    for (krate, count) in panic_counts {
        out.push_str(&format!("{krate} = {count}\n"));
    }
    out
}

/// Renders the report's findings as a SARIF 2.1.0 document.
#[must_use]
pub fn sarif_json(report: &Report) -> String {
    sarif::to_sarif(&report.findings, env!("CARGO_PKG_VERSION"))
}

/// Whether the checked-in `baseline.toml` is byte-identical to the
/// budget regenerated from the actual panic counts (`--check-budget`).
/// `budget_toml` output is canonical — stable ordering, trailing
/// newline — so staleness is a plain string comparison.
///
/// # Errors
///
/// Returns a message if the baseline file cannot be read.
pub fn budget_is_current(root: &Path, report: &Report) -> Result<bool, String> {
    let path = root.join(BASELINE_PATH);
    let on_disk =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(on_disk == budget_toml(&report.panic_counts))
}

/// Locates the workspace root: walks up from `start` until a `Cargo.toml`
/// containing `[workspace]` is found.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
