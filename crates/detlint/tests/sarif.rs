//! Structural validation of the SARIF 2.1.0 emitter. The vendored
//! `serde_json` stand-in only parses typed input, so this test carries
//! a minimal recursive-descent JSON checker: enough to prove the
//! document is well-formed JSON (objects, arrays, strings with
//! escapes, numbers, literals) before asserting on the SARIF fields
//! GitHub code scanning requires.

use detlint::rules::Finding;
use detlint::sarif::to_sarif;

// ---------------------------------------------------------------------------
// A tiny JSON well-formedness checker.
// ---------------------------------------------------------------------------

struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    fn new(s: &'a str) -> Self {
        Json {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                            out.push(c as char);
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                let Some(h) = self.peek() else {
                                    return Err("truncated \\u escape".into());
                                };
                                if !h.is_ascii_hexdigit() {
                                    return Err(format!("bad hex digit {:?}", h as char));
                                }
                                self.pos += 1;
                            }
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#x} inside string"))
                }
                Some(c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            Err("empty number".into())
        } else {
            Ok(())
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn document(mut self) -> Result<(), String> {
        self.value()?;
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }
}

fn assert_well_formed(doc: &str) {
    if let Err(e) = Json::new(doc).document() {
        panic!("malformed JSON: {e}\n---\n{doc}");
    }
}

fn finding(file: &str, line: u32, rule: &str, msg: &str) -> Finding {
    Finding {
        file: file.into(),
        line,
        rule: rule.into(),
        msg: msg.into(),
    }
}

#[test]
fn sarif_document_is_well_formed_json_with_required_fields() {
    let findings = vec![
        finding("crates/core/src/lib.rs", 12, "D1", "no HashMap here"),
        finding(
            "crates/netsim/src/sim.rs",
            407,
            "D5",
            "seed \"mix\" with \\ and\nnewline",
        ),
        finding("crates/detlint/baseline.toml", 0, "D4", "budget rose"),
    ];
    let doc = to_sarif(&findings, "1.2.3");
    assert_well_formed(&doc);

    // Required SARIF 2.1.0 skeleton for GitHub code scanning.
    assert!(doc.contains("\"$schema\""));
    assert!(doc.contains("sarif-schema-2.1.0.json"));
    assert!(doc.contains("\"version\": \"2.1.0\""));
    assert!(doc.contains("\"name\": \"detlint\""));
    assert!(doc.contains("\"version\": \"1.2.3\""));

    // One result per finding, each carrying ruleId + message + region.
    assert_eq!(doc.matches("\"ruleId\"").count(), findings.len());
    assert_eq!(doc.matches("\"physicalLocation\"").count(), findings.len());
    assert!(doc.contains("\"ruleId\": \"D5\""));
    assert!(doc.contains("\"uri\": \"crates/netsim/src/sim.rs\""));
    assert!(doc.contains("\"startLine\": 407"));
    // The line-0 workspace finding is clamped into SARIF's 1-based range.
    assert!(doc.contains("\"startLine\": 1"));
}

#[test]
fn every_shipped_rule_is_described_in_the_driver() {
    let doc = to_sarif(&[], "0.0.0");
    assert_well_formed(&doc);
    for rule in [
        "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "D10", "allow",
    ] {
        assert!(
            doc.contains(&format!("{{\"id\": \"{rule}\"")),
            "driver.rules missing {rule}"
        );
    }
}

#[test]
fn hostile_finding_text_cannot_break_the_document() {
    let findings = vec![finding(
        "crates/x/src/a\"b\\c.rs",
        3,
        "D3",
        "msg with \"quotes\", back\\slash, \ttab and \u{1} control",
    )];
    let doc = to_sarif(&findings, "0.0.0");
    assert_well_formed(&doc);
    assert!(doc.contains("\\u0001"));
}
