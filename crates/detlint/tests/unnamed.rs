//! Fixture-driven tests for rule D10: a library `pub` item that only
//! tests name is a finding, and every non-test caller clears it.

use detlint::dataflow::AnalysisUnit;
use detlint::graph::FileUnit;
use detlint::rules::{self, FileCtx, Finding};
use detlint::unnamed::check_unnamed;
use detlint::{lexer, parser};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The same per-file preparation `run_workspace` does.
fn unit_for(rel: &str, src: &str) -> AnalysisUnit {
    let ctx = FileCtx::classify(rel).unwrap_or_else(|| panic!("classify {rel}"));
    let lexed = lexer::lex(src);
    let mut scratch = Vec::new();
    let allows = rules::collect_allows(&ctx, &lexed, &mut scratch);
    let test_spans = rules::test_spans(&lexed.tokens);
    let parsed = parser::parse(&lexed);
    AnalysisUnit {
        file: FileUnit {
            rel_path: rel.to_string(),
            crate_key: ctx.crate_key.to_string(),
            is_src: ctx.in_src,
            lexed,
            parsed,
            test_spans,
        },
        allows,
        deterministic: ctx.deterministic,
    }
}

const LIB: &str = "crates/flowspace/src/fixture.rs";

/// The fixture library plus one caller of each kind.
fn workspace() -> Vec<AnalysisUnit> {
    vec![
        unit_for(LIB, &fixture("d10_unnamed.rs")),
        unit_for(
            "crates/experiments/src/bin/prog.rs",
            "fn main() { flowspace::fixture::from_bin(); }",
        ),
        unit_for(
            "examples/demo.rs",
            "use flowspace::fixture::FromExample;\nfn main() { let _ = FromExample; }",
        ),
        unit_for(
            "crates/bench/benches/bench.rs",
            "fn main() { let _ = flowspace::fixture::FROM_BENCH; }",
        ),
        unit_for(
            "tests/integration.rs",
            "use flowspace::fixture::*;\n#[test]\nfn t() { only_tests_dir(); const_only_tests(); oracle(); }",
        ),
        unit_for(
            "src/lib.rs",
            "pub use flowspace::fixture::{only_reexported, Widget};\n\
             pub fn read(p: &netsim::Probe) -> u32 { p.width }\n\
             pub fn call(w: &Widget) { w.called_as_method(); }",
        ),
    ]
}

fn flowbench() -> Vec<lexer::Lexed> {
    vec![lexer::lex(
        "pub fn bench() { flowspace::fixture::from_flowbench(); }",
    )]
}

fn lines_in(findings: &[Finding], file: &str) -> Vec<u32> {
    let mut lines: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "D10" && f.file == file)
        .map(|f| f.line)
        .collect();
    lines.sort_unstable();
    lines
}

#[test]
fn d10_flags_items_only_tests_reexports_or_field_accesses_name() {
    let findings = check_unnamed(&workspace(), &flowbench());
    // 6 tests/ only, 7 #[cfg(test)] only, 8 `pub use` only, 9 `.width`
    // only, 10 a `const fn` only tests call, 30 under a bare allow, 44 a
    // getter only its own field's `size:` label and `.size` read name.
    assert_eq!(lines_in(&findings, LIB), vec![6, 7, 8, 9, 10, 30, 44]);
    let hit = findings.iter().find(|f| f.line == 6).unwrap();
    assert!(hit.msg.contains("only_tests_dir"), "{}", hit.msg);
    // The callers' own `pub` items are named nowhere, but only library
    // `src` files hold candidates; the facade's `read`/`call` are.
    assert_eq!(lines_in(&findings, "src/lib.rs"), vec![2, 3]);
    assert!(findings
        .iter()
        .all(|f| f.file == LIB || f.file == "src/lib.rs"));
}

#[test]
fn d10_every_kind_of_caller_clears_an_item() {
    // Without the benchmark's sources, `from_flowbench` has no caller.
    let findings = check_unnamed(&workspace(), &[]);
    assert_eq!(lines_in(&findings, LIB), vec![5, 6, 7, 8, 9, 10, 30, 44]);
    // Without the program, the example and the bench, their items too.
    let lib_only = vec![unit_for(LIB, &fixture("d10_unnamed.rs"))];
    let findings = check_unnamed(&lib_only, &flowbench());
    assert_eq!(
        lines_in(&findings, LIB),
        vec![2, 3, 4, 6, 7, 8, 9, 10, 13, 30, 44]
    );
}

#[test]
fn d10_bare_allow_is_a_finding_of_its_own() {
    let ctx = FileCtx::classify(LIB).unwrap();
    let report = rules::check_file(&ctx, &fixture("d10_unnamed.rs"));
    let allows: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == "allow")
        .map(|f| f.line)
        .collect();
    assert_eq!(allows, vec![29]);
}
