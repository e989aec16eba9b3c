//! CLI entry point: `cargo run -p detlint [-- --root <dir>]`.
//!
//! Exit status 0 means the workspace satisfies every determinism and
//! panic-policy rule; 1 means findings were printed (or, with
//! `--check-budget`, the baseline is stale); 2 means the tool itself
//! could not run (bad arguments, unreadable tree, missing baseline).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut print_budget = false;
    let mut check_budget = false;
    let mut format = String::from("text");
    let mut output: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("detlint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--print-budget" => print_budget = true,
            "--check-budget" => check_budget = true,
            "--format" => match args.next().as_deref() {
                Some("text") => format = "text".into(),
                Some("sarif") => format = "sarif".into(),
                Some(other) => {
                    eprintln!("detlint: unknown format `{other}` (expected text|sarif)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("detlint: --format requires text|sarif");
                    return ExitCode::from(2);
                }
            },
            "--output" => match args.next() {
                Some(path) => output = Some(PathBuf::from(path)),
                None => {
                    eprintln!("detlint: --output requires a file path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: detlint [--root <workspace-dir>] [--print-budget] \
                     [--check-budget] [--format text|sarif] [--output <file>]\n\n\
                     Checks the workspace against the determinism rules D1-D10\n\
                     (see DESIGN.md, \"Determinism policy\").\n\
                     --print-budget dumps the actual panic counts as\n\
                     baseline.toml content instead of failing on mismatch.\n\
                     --check-budget exits 1 if baseline.toml is not\n\
                     byte-identical to the regenerated budget.\n\
                     --format sarif emits findings as SARIF 2.1.0;\n\
                     --output writes them to a file instead of stdout."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("detlint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("detlint: cannot determine current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match detlint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("detlint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match detlint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };

    if print_budget {
        print!("{}", detlint::budget_toml(&report.panic_counts));
        return ExitCode::SUCCESS;
    }
    if check_budget {
        return match detlint::budget_is_current(&root, &report) {
            Ok(true) => {
                println!("detlint: baseline.toml is current");
                ExitCode::SUCCESS
            }
            Ok(false) => {
                println!(
                    "detlint: baseline.toml is stale — regenerate with \
                     `cargo run -p detlint -- --print-budget > {}`",
                    detlint::BASELINE_PATH
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("detlint: {e}");
                ExitCode::from(2)
            }
        };
    }

    if format == "sarif" {
        let doc = detlint::sarif_json(&report);
        if let Some(path) = &output {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("detlint: write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        } else {
            print!("{doc}");
        }
        return if report.findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for finding in &report.findings {
        println!("{finding}");
    }
    if report.findings.is_empty() {
        println!(
            "detlint: {} files clean (D1-D10); panic budget: {}",
            report.files_scanned,
            report
                .panic_counts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "detlint: {} finding(s) in {} files",
            report.findings.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
