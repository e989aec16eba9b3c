//! Rule D10: production code that only tests reach.
//!
//! A bare `pub` `fn`, `struct`, `enum`, `trait`, `type`, `const` or
//! `static` in a library crate's `src/` tree is a finding when no
//! non-test code names it. Non-test code is everything detlint scans
//! outside `tests/` directories and `#[test]`/`#[cfg(test)]` spans —
//! library `src`, `src/bin` programs, `crates/bench/benches`,
//! `examples/` and the facade — plus the benchmark's `flowbench/src`,
//! which is read for names but not linted. Examples count because they
//! are documented entry points that clippy compiles.
//!
//! An item is named when its identifier occurs as a token of that code,
//! except at a definition (the name after `fn`, `struct`, …), inside a
//! `pub use` re-export, as a `.name` field access not followed by `(`
//! or `::`, or as a `name:` field label (a declaration or initialiser),
//! so a getter is not named by the field it reads.
//! `pub(crate)`/`pub(super)` items are out of scope, and
//! methods of `impl Trait for` blocks carry no `pub`, so neither is ever
//! a candidate. Test-only items that stay (an oracle, a test double, or
//! the only constructor of an input production handles) carry
//! `detlint::allow(D10): <reason>`.
//!
//! The rule is name-based: an item whose name collides with any other
//! identifier in use is never flagged, however dead it is, and a type's
//! own `impl` blocks name it.

use crate::dataflow::AnalysisUnit;
use crate::lexer::{Lexed, Tok, Token};
use crate::rules::{test_spans, FileCtx, Finding};
use std::collections::BTreeSet;

/// Keywords that introduce a D10 candidate after `pub`.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Keywords whose next identifier is a definition, not a use.
const DEF_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

fn ident(tokens: &[Token], idx: usize) -> Option<&str> {
    match tokens.get(idx).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn is_punct(tokens: &[Token], idx: usize, c: char) -> bool {
    matches!(tokens.get(idx), Some(t) if t.tok == Tok::Punct(c))
}

fn in_spans(spans: &[(usize, usize)], idx: usize) -> bool {
    spans.iter().any(|&(a, b)| idx >= a && idx < b)
}

/// Whether `path` lies in a `tests/` directory.
fn in_tests_dir(rel_path: &str) -> bool {
    rel_path.starts_with("tests/") || rel_path.contains("/tests/")
}

/// Adds every identifier that the non-test code of one file names.
fn collect_names<'a>(tokens: &'a [Token], spans: &[(usize, usize)], names: &mut BTreeSet<&'a str>) {
    let mut i = 0;
    while i < tokens.len() {
        if in_spans(spans, i) {
            i += 1;
            continue;
        }
        // `pub use …;` and `pub(…) use …;` re-export, they do not call.
        if ident(tokens, i) == Some("pub") {
            let mut j = i + 1;
            if is_punct(tokens, j, '(') {
                while j < tokens.len() && !is_punct(tokens, j, ')') {
                    j += 1;
                }
                j += 1;
            }
            if ident(tokens, j) == Some("use") {
                while i < tokens.len() && !is_punct(tokens, i, ';') {
                    i += 1;
                }
                continue;
            }
        }
        if let Some(name) = ident(tokens, i) {
            let defined = i > 0 && ident(tokens, i - 1).is_some_and(|k| DEF_KEYWORDS.contains(&k));
            // `.name` reads a field and `name:` declares or initialises
            // one (or types a binding); a call or a `::` path names an item.
            let path = is_punct(tokens, i + 1, ':') && is_punct(tokens, i + 2, ':');
            let field = !path
                && (is_punct(tokens, i + 1, ':')
                    || (i > 0 && is_punct(tokens, i - 1, '.') && !is_punct(tokens, i + 1, '(')));
            if !defined && !field {
                names.insert(name);
            }
        }
        i += 1;
    }
}

/// The bare `pub` items of one library file outside test spans:
/// `(name, line)` of each.
fn candidates(tokens: &[Token], spans: &[(usize, usize)]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if ident(tokens, i) != Some("pub") || is_punct(tokens, i + 1, '(') || in_spans(spans, i) {
            continue;
        }
        // Qualifiers between `pub` and the keyword: `const fn`,
        // `unsafe fn`, `async fn`, `extern "C" fn`, `static mut`.
        let mut k = i + 1;
        while matches!(ident(tokens, k), Some("unsafe" | "async" | "extern"))
            || (ident(tokens, k) == Some("const") && ident(tokens, k + 1) == Some("fn"))
            || matches!(tokens.get(k), Some(t) if t.tok == Tok::Str)
        {
            k += 1;
        }
        if !ident(tokens, k).is_some_and(|kw| ITEM_KEYWORDS.contains(&kw)) {
            continue;
        }
        if ident(tokens, k + 1) == Some("mut") {
            k += 1;
        }
        if let Some(name) = ident(tokens, k + 1) {
            out.push((name.to_string(), tokens[k + 1].line));
        }
    }
    out
}

/// Runs D10 over the workspace `units`; `readers` are further sources
/// (the benchmark's) whose non-test code counts as callers.
#[must_use]
pub fn check_unnamed(units: &[AnalysisUnit], readers: &[Lexed]) -> Vec<Finding> {
    let mut names = BTreeSet::new();
    for u in units.iter().filter(|u| !in_tests_dir(&u.file.rel_path)) {
        collect_names(&u.file.lexed.tokens, &u.file.test_spans, &mut names);
    }
    for lexed in readers {
        collect_names(&lexed.tokens, &test_spans(&lexed.tokens), &mut names);
    }
    let mut findings = Vec::new();
    for u in units {
        if !FileCtx::classify(&u.file.rel_path).is_some_and(|ctx| ctx.is_lib) {
            continue;
        }
        for (name, line) in candidates(&u.file.lexed.tokens, &u.file.test_spans) {
            if names.contains(name.as_str()) || u.allows.permits(line, "D10") {
                continue;
            }
            findings.push(Finding {
                file: u.file.rel_path.clone(),
                line,
                rule: "D10".into(),
                msg: format!(
                    "`pub` item `{name}` is named by no non-test code — delete it \
                     (with the tests that only test it), narrow it to \
                     `#[cfg(test)]`, or keep it with `detlint::allow(D10): <reason>` \
                     naming the test it serves"
                ),
            });
        }
    }
    findings
}
