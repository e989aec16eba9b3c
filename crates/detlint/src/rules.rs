//! The determinism and panic-policy rules (D1–D4) and the
//! `detlint::allow` escape-hatch grammar.
//!
//! Every rule is token-level: detlint cannot soundly prove that a given
//! `.iter()` call targets a hash collection, so the burden is inverted —
//! any *mention* of a forbidden construct in scope is a finding, and a
//! deliberate use must carry an in-source justification:
//!
//! ```text
//! // detlint::allow(D1): lookup-only index, never iterated
//! ```
//!
//! A bare `detlint::allow(D1)` with no `: reason` is itself an error.

use crate::lexer::{lex, Tok, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose output must be bit-identical across runs: rule D1
/// (hash-collection ban) applies to their `src/` trees.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "flowspace",
    "ftcache",
    "core",
    "traffic",
    "attack",
    "netsim",
];

/// The wall-clock allowlist for rule D2: the only files permitted to read
/// `std::time`. Entries ending in `/` allow a whole subtree.
pub const WALLCLOCK_ALLOWLIST: &[&str] = &[
    "crates/bench/",
    "crates/experiments/src/bin/scalability.rs",
    "crates/experiments/src/bin/ablation_evaluators.rs",
    // The observability crate's single wall-clock island: manifests
    // stamp elapsed wall time there, every other obs module runs on
    // virtual sim time.
    "crates/obs/src/walltime.rs",
    // The job supervisor's watchdog island: attempt deadlines are the
    // one wall-clock read supervision needs, and they gate only
    // *retries*, never results (a retried unit recomputes identically).
    "crates/jobs/src/watchdog.rs",
];

/// Rule identifiers understood by `detlint::allow(...)`.
pub const KNOWN_RULES: &[&str] = &["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9"];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id: `D1`..`D4`, or `allow` for escape-hatch misuse.
    pub rule: String,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "error[{}]: {}:{}: {}",
            self.rule, self.file, self.line, self.msg
        )
    }
}

/// A `*_SALT` constant definition found in source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaltDef {
    /// Constant name (ends in `_SALT`).
    pub name: String,
    /// Initializer tokens, normalized (underscores stripped, joined).
    pub value: String,
    /// Defining file.
    pub file: String,
    /// 1-based line of the `const`.
    pub line: u32,
}

/// How a file is classified before rule application.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// Crate key for the panic budget (directory under `crates/`, or
    /// `flow-recon` for the facade).
    pub crate_key: &'a str,
    /// Whether rule D1 applies (deterministic crate `src/` tree).
    pub deterministic: bool,
    /// Whether the file is on the D2 wall-clock allowlist.
    pub wallclock_ok: bool,
    /// Whether panic sites count toward the D4 budget (non-test, non-bin
    /// library code).
    pub is_lib: bool,
    /// Whether the file lives under the crate's `src/` tree (dataflow
    /// rules scope to source, not tests/examples).
    pub in_src: bool,
}

impl<'a> FileCtx<'a> {
    /// Classifies a workspace-relative path. Returns `None` for files
    /// detlint does not scan (vendored deps, detlint itself).
    pub fn classify(rel_path: &'a str) -> Option<Self> {
        if rel_path.starts_with("crates/vendor/") || rel_path.starts_with("crates/detlint/") {
            return None;
        }
        let crate_key = if let Some(rest) = rel_path.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or("")
        } else {
            "flow-recon"
        };
        let in_src = rel_path.contains("/src/")
            || (crate_key == "flow-recon" && rel_path.starts_with("src/"));
        let deterministic = DETERMINISTIC_CRATES.contains(&crate_key) && in_src;
        let wallclock_ok = WALLCLOCK_ALLOWLIST.iter().any(|allow| {
            if let Some(prefix) = allow.strip_suffix('/') {
                rel_path.starts_with(prefix)
            } else {
                rel_path == *allow
            }
        });
        let is_bin = rel_path.contains("/src/bin/") || rel_path.ends_with("src/main.rs");
        let is_lib = in_src && !is_bin;
        Some(FileCtx {
            rel_path,
            crate_key,
            deterministic,
            wallclock_ok,
            is_lib,
            in_src,
        })
    }
}

/// Per-file analysis output.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Rule violations (without salt-uniqueness, which is workspace-wide).
    pub findings: Vec<Finding>,
    /// `unwrap()`/`expect(`/`panic!` sites in budget scope.
    pub panic_sites: usize,
    /// `*_SALT` constants defined in this file.
    pub salts: Vec<SaltDef>,
}

/// In-scope allow annotations, resolved to the code lines they cover.
pub struct Allows {
    /// line → rule ids allowed on that line.
    by_line: BTreeMap<u32, BTreeSet<String>>,
}

impl Allows {
    /// Whether `rule` is allowed on `line`.
    #[must_use]
    pub fn permits(&self, line: u32, rule: &str) -> bool {
        self.by_line
            .get(&line)
            .is_some_and(|rules| rules.contains(rule))
    }
}

/// Parses `detlint::allow(...)` comments. A standalone allow (on a line
/// with no code) covers the next line that has code; a trailing allow
/// covers its own line. Malformed allows become findings.
pub fn collect_allows(
    ctx: &FileCtx,
    lexed: &crate::lexer::Lexed,
    findings: &mut Vec<Finding>,
) -> Allows {
    let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let mut by_line: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for comment in &lexed.comments {
        let Some(at) = comment.text.find("detlint::allow(") else {
            continue;
        };
        let rest = &comment.text[at + "detlint::allow(".len()..];
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                file: ctx.rel_path.to_string(),
                line: comment.line,
                rule: "allow".into(),
                msg: "malformed detlint::allow — missing `)`".into(),
            });
            continue;
        };
        let mut rules = Vec::new();
        let mut bad = false;
        for raw in rest[..close].split(',') {
            let id = raw.trim();
            if KNOWN_RULES.contains(&id) {
                rules.push(id.to_string());
            } else {
                findings.push(Finding {
                    file: ctx.rel_path.to_string(),
                    line: comment.line,
                    rule: "allow".into(),
                    msg: format!("unknown rule `{id}` in detlint::allow"),
                });
                bad = true;
            }
        }
        let tail = rest[close + 1..].trim_start();
        let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            findings.push(Finding {
                file: ctx.rel_path.to_string(),
                line: comment.line,
                rule: "allow".into(),
                msg: "detlint::allow without a `: reason` — justify the exception".into(),
            });
            bad = true;
        }
        if bad {
            continue;
        }
        // Resolve the covered line: self if the line has code, else the
        // next code line below — hopping over attribute lines so the allow
        // can sit above `#[allow(clippy::…)]` companions.
        let mut target = if code_lines.contains(&comment.line) {
            Some(comment.line)
        } else {
            code_lines.range(comment.line + 1..).next().copied()
        };
        while let Some(t) = target {
            if t == comment.line {
                break;
            }
            let first = lexed.tokens.iter().position(|tok| tok.line == t);
            let Some(idx) = first else { break };
            if lexed.tokens[idx].tok != Tok::Punct('#') {
                break;
            }
            // Skip the attribute (and `#!`): jump past its closing `]`.
            let after = match scan_attribute(&lexed.tokens, idx) {
                Some((end, _)) => end,
                None => match lexed.tokens[idx + 1..]
                    .iter()
                    .position(|tok| tok.tok == Tok::Punct(']'))
                {
                    Some(off) => idx + 1 + off + 1,
                    None => break,
                },
            };
            let next = lexed.tokens.get(after).map(|tok| tok.line);
            if next == target {
                break; // attribute and item share a line
            }
            target = next;
        }
        if let Some(t) = target {
            by_line.entry(t).or_default().extend(rules.iter().cloned());
        }
    }
    Allows { by_line }
}

/// Marks the token index ranges covered by `#[test]` / `#[cfg(test)]`
/// items (including whole `mod tests { … }` blocks).
pub fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok != Tok::Punct('#') {
            i += 1;
            continue;
        }
        // Inner attributes `#![...]` never gate an item.
        if matches!(tokens.get(i + 1), Some(t) if t.tok == Tok::Punct('!')) {
            i += 1;
            continue;
        }
        let Some((attr_end, is_test)) = scan_attribute(tokens, i) else {
            i += 1;
            continue;
        };
        if !is_test {
            i = attr_end;
            continue;
        }
        // Skip any further attributes between the test gate and the item.
        let mut j = attr_end;
        while j < tokens.len() && tokens[j].tok == Tok::Punct('#') {
            match scan_attribute(tokens, j) {
                Some((end, _)) => j = end,
                None => break,
            }
        }
        // Find the item body: the first `{` before any `;` ends the
        // header (a `;` means the gated item has no body, e.g. a `use`).
        let mut k = j;
        let mut body = None;
        while k < tokens.len() {
            match tokens[k].tok {
                Tok::Punct('{') => {
                    body = Some(k);
                    break;
                }
                Tok::Punct(';') => break,
                _ => k += 1,
            }
        }
        let Some(open) = body else {
            i = j;
            continue;
        };
        let mut depth = 0usize;
        let mut end = tokens.len();
        for (idx, t) in tokens.iter().enumerate().skip(open) {
            match t.tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end = idx + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        spans.push((i, end));
        i = end;
    }
    spans
}

/// Scans the attribute starting at `#` (index `start`); returns the index
/// one past the closing `]` and whether the attribute mentions `test`.
fn scan_attribute(tokens: &[Token], start: usize) -> Option<(usize, bool)> {
    if tokens.get(start)?.tok != Tok::Punct('#') || tokens.get(start + 1)?.tok != Tok::Punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut is_test = false;
    for (idx, t) in tokens.iter().enumerate().skip(start + 1) {
        match &t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((idx + 1, is_test));
                }
            }
            Tok::Ident(s) if s == "test" => is_test = true,
            _ => {}
        }
    }
    None
}

/// Runs rules D1–D4 over one file.
pub fn check_file(ctx: &FileCtx, src: &str) -> FileReport {
    check_file_lexed(ctx, &lex(src))
}

/// Like [`check_file`], but takes an already-lexed token stream so the
/// workspace driver can share one lex with the dataflow pass.
pub fn check_file_lexed(ctx: &FileCtx, lexed: &crate::lexer::Lexed) -> FileReport {
    let mut findings = Vec::new();
    let allows = collect_allows(ctx, lexed, &mut findings);
    let spans = test_spans(&lexed.tokens);
    let in_test = |idx: usize| spans.iter().any(|&(a, b)| idx >= a && idx < b);
    let toks = &lexed.tokens;
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut panic_sites = 0usize;
    let mut salts = Vec::new();

    let push = |findings: &mut Vec<Finding>,
                seen: &mut BTreeSet<(String, u32)>,
                rule: &str,
                line: u32,
                msg: String| {
        if allows.permits(line, rule) || !seen.insert((rule.to_string(), line)) {
            return;
        }
        findings.push(Finding {
            file: ctx.rel_path.to_string(),
            line,
            rule: rule.to_string(),
            msg,
        });
    };

    for (idx, t) in toks.iter().enumerate() {
        if in_test(idx) {
            continue;
        }
        let Tok::Ident(id) = &t.tok else { continue };
        let line = t.line;
        let path_sep = |k: usize| {
            matches!((toks.get(k), toks.get(k + 1)), (Some(a), Some(b))
                if a.tok == Tok::Punct(':') && b.tok == Tok::Punct(':'))
        };

        // D1 — hash collections in deterministic crates.
        if ctx.deterministic && (id == "HashMap" || id == "HashSet") {
            push(
                &mut findings,
                &mut seen,
                "D1",
                line,
                format!(
                    "`{id}` in deterministic crate `{}` — iteration order is \
                     seed-independent entropy; use BTreeMap/BTreeSet or a sorted \
                     Vec, or justify with `detlint::allow(D1): <reason>`",
                    ctx.crate_key
                ),
            );
        }

        // D2 — wall-clock reads outside the allowlist.
        if !ctx.wallclock_ok {
            let std_time = id == "std"
                && path_sep(idx + 1)
                && matches!(toks.get(idx + 3), Some(t) if t.tok == Tok::Ident("time".into()));
            if id == "Instant" || id == "SystemTime" || std_time {
                push(
                    &mut findings,
                    &mut seen,
                    "D2",
                    line,
                    "wall-clock read outside the allowlisted timing modules — \
                     results must not depend on real time; move the timing to \
                     `experiments`/`bench` or justify with \
                     `detlint::allow(D2): <reason>`"
                        .to_string(),
                );
            }
        }

        // D3 — OS entropy; never allowed implicitly anywhere.
        let rand_random = id == "rand"
            && path_sep(idx + 1)
            && matches!(toks.get(idx + 3), Some(t) if t.tok == Tok::Ident("random".into()));
        if id == "thread_rng" || id == "from_entropy" || rand_random {
            push(
                &mut findings,
                &mut seen,
                "D3",
                line,
                "OS-entropy RNG — every stream must derive from the run seed \
                 and a named `*_STREAM_SALT`"
                    .to_string(),
            );
        }

        // D3 salt collection: `const X_SALT: <ty> = <tokens…>;`
        if id == "const" {
            if let Some(Token {
                tok: Tok::Ident(name),
                ..
            }) = toks.get(idx + 1)
            {
                if name.ends_with("_SALT") {
                    let mut value = String::new();
                    let mut k = idx + 2;
                    // Skip to `=`, then join initializer tokens until `;`.
                    while k < toks.len() && toks[k].tok != Tok::Punct('=') {
                        k += 1;
                    }
                    k += 1;
                    while k < toks.len() && toks[k].tok != Tok::Punct(';') {
                        match &toks[k].tok {
                            Tok::Ident(s) => value.push_str(s),
                            Tok::Num(s) => value.push_str(&s.replace('_', "")),
                            Tok::Punct(c) => value.push(*c),
                            _ => value.push('?'),
                        }
                        k += 1;
                    }
                    salts.push(SaltDef {
                        name: name.clone(),
                        value,
                        file: ctx.rel_path.to_string(),
                        line,
                    });
                }
            }
        }

        // D4 — panic sites in library scope.
        if ctx.is_lib {
            let prev_dot = idx > 0 && toks[idx - 1].tok == Tok::Punct('.');
            let next_open = matches!(toks.get(idx + 1), Some(t) if t.tok == Tok::Punct('('));
            let next_bang = matches!(toks.get(idx + 1), Some(t) if t.tok == Tok::Punct('!'));
            let is_panic_site = (prev_dot && next_open && (id == "unwrap" || id == "expect"))
                || (next_bang && id == "panic");
            if is_panic_site && !allows.permits(line, "D4") {
                panic_sites += 1;
            }
        }
    }

    FileReport {
        findings,
        panic_sites,
        salts,
    }
}

/// Workspace-wide salt-uniqueness check (rule D3): two distinct constants
/// with the same value silently correlate "independent" streams.
pub fn check_salt_uniqueness(salts: &[SaltDef]) -> Vec<Finding> {
    let mut by_value: BTreeMap<&str, &SaltDef> = BTreeMap::new();
    let mut findings = Vec::new();
    for s in salts {
        match by_value.get(s.value.as_str()) {
            Some(first) => findings.push(Finding {
                file: s.file.clone(),
                line: s.line,
                rule: "D3".into(),
                msg: format!(
                    "salt `{}` duplicates the value of `{}` ({}:{}) — \
                     correlated RNG streams; pick a distinct salt",
                    s.name, first.name, first.file, first.line
                ),
            }),
            None => {
                by_value.insert(&s.value, s);
            }
        }
    }
    findings
}

/// Parses `baseline.toml`: `crate = count` lines under any section;
/// `#` comments and blank lines ignored.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("baseline.toml:{}: expected `crate = count`", n + 1))?;
        let count: usize = value
            .trim()
            .parse()
            .map_err(|e| format!("baseline.toml:{}: bad count: {e}", n + 1))?;
        out.insert(key.trim().to_string(), count);
    }
    Ok(out)
}

/// Rule D4: compares actual per-crate panic-site counts against the
/// checked-in baseline. A count above baseline fails (new panic paths);
/// a count below baseline also fails, with instructions to ratchet the
/// baseline down — it may only ever shrink.
pub fn compare_baseline(
    actual: &BTreeMap<String, usize>,
    baseline: &BTreeMap<String, usize>,
    baseline_path: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (krate, &count) in actual {
        let allowed = baseline.get(krate).copied().unwrap_or(0);
        if count > allowed {
            findings.push(Finding {
                file: baseline_path.to_string(),
                line: 0,
                rule: "D4".into(),
                msg: format!(
                    "crate `{krate}` has {count} unwrap/expect/panic sites in \
                     library code, baseline allows {allowed} — return a Result \
                     or annotate the site with `detlint::allow(D4): <reason>`"
                ),
            });
        } else if count < allowed {
            findings.push(Finding {
                file: baseline_path.to_string(),
                line: 0,
                rule: "D4".into(),
                msg: format!(
                    "crate `{krate}` is down to {count} panic sites but the \
                     baseline still allows {allowed} — ratchet the baseline \
                     down (it may only shrink)"
                ),
            });
        }
    }
    for krate in baseline.keys() {
        if !actual.contains_key(krate) {
            findings.push(Finding {
                file: baseline_path.to_string(),
                line: 0,
                rule: "D4".into(),
                msg: format!("baseline names unknown crate `{krate}` — remove the entry"),
            });
        }
    }
    findings
}
