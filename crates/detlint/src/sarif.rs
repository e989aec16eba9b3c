//! SARIF 2.1.0 serialization of a detlint [`Report`].
//!
//! Hand-rolled JSON (the vendored `serde_json` stand-in only parses
//! typed input, and detlint stays dependency-free anyway). The output
//! targets GitHub code scanning: one run, one driver, one result per
//! finding, with `startLine` clamped to 1 because SARIF regions are
//! 1-based while workspace-level findings (e.g. the D4 budget) carry
//! line 0.
//!
//! [`Report`]: crate::Report

use crate::rules::Finding;

/// Rule metadata surfaced in the SARIF `tool.driver.rules` array.
const RULE_HELP: &[(&str, &str)] = &[
    ("D1", "No hash collections in deterministic crates"),
    ("D2", "No wall-clock reads outside the allowlisted modules"),
    (
        "D3",
        "No OS entropy; *_SALT values must be workspace-unique",
    ),
    (
        "D4",
        "Panic sites in library code are pinned by baseline.toml",
    ),
    (
        "D5",
        "Every RNG seed must trace to seed ^ one *_STREAM_SALT",
    ),
    (
        "D6",
        "Float comparisons must be total; reductions index-ordered",
    ),
    ("D7", "Lock pairs must be acquired in one global order"),
    ("D8", "CachePolicy impls must be pure victim selectors"),
    (
        "D9",
        "Cargo.toml deps must resolve to the workspace or crates/vendor",
    ),
    (
        "D10",
        "Every pub library item must be named by some non-test code",
    ),
    ("allow", "detlint::allow annotations must be well-formed"),
];

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the findings as a SARIF 2.1.0 document (pretty-printed,
/// trailing newline, stable ordering — the caller passes findings
/// already sorted).
#[must_use]
pub fn to_sarif(findings: &[Finding], tool_version: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"detlint\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        esc(tool_version)
    ));
    out.push_str("          \"informationUri\": \"https://example.invalid/flow-recon/detlint\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULE_HELP.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            esc(id),
            esc(desc),
            if i + 1 < RULE_HELP.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let line = f.line.max(1);
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", esc(&f.rule)));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": \"{}\"}},\n",
            esc(&f.msg)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{\"uri\": \"{}\"}},\n",
            esc(&f.file)
        ));
        out.push_str(&format!(
            "                \"region\": {{\"startLine\": {line}}}\n"
        ));
        out.push_str("              }\n            }\n          ]\n");
        out.push_str(&format!(
            "        }}{}\n",
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_metacharacters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let s = to_sarif(&[], "0.0.0");
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"results\": [\n      ]"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn line_zero_clamps_to_one() {
        let f = Finding {
            file: "crates/detlint/baseline.toml".into(),
            line: 0,
            rule: "D4".into(),
            msg: "budget".into(),
        };
        let s = to_sarif(&[f], "0.0.0");
        assert!(s.contains("\"startLine\": 1"));
    }
}
