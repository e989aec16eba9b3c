//! Converts the CSVs in `results/` into SVG figures mirroring the paper's
//! plots. Run after `evaluate_suite` (and optionally the other binaries).

use experiments::svg::{cdf_plot, grouped_bars};
use experiments::ExpOpts;
use std::path::Path;

fn read_csv(path: &Path) -> Option<(Vec<String>, Vec<Vec<String>>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let header: Vec<String> = lines.next()?.split(',').map(String::from).collect();
    let rows = lines
        .map(|l| l.split(',').map(String::from).collect())
        .collect();
    Some((header, rows))
}

fn f(cell: &str) -> f64 {
    cell.parse().unwrap_or(f64::NAN)
}

fn write_svg(opts: &ExpOpts, name: &str, svg: &str) {
    let path = opts.out_file(name);
    obs::write_atomic(&path, svg).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    let opts = ExpOpts::from_env_without_trials();

    if let Some((_, rows)) = read_csv(&opts.out.join("fig6a.csv")) {
        let labels: Vec<String> = rows
            .iter()
            .map(|r| format!("[{},{})", r[0], r[1]))
            .collect();
        let naive: Vec<f64> = rows.iter().map(|r| f(&r[3])).collect();
        let model: Vec<f64> = rows.iter().map(|r| f(&r[4])).collect();
        write_svg(
            &opts,
            "fig6a.svg",
            &grouped_bars(
                "Fig. 6a — accuracy vs P(target absent)",
                &labels,
                &[("naive", naive), ("model", model)],
                "average accuracy",
            ),
        );
    }

    if let Some((_, rows)) = read_csv(&opts.out.join("fig6b.csv")) {
        let pts: Vec<(f64, f64)> = rows.iter().map(|r| (f(&r[0]), f(&r[1]))).collect();
        write_svg(
            &opts,
            "fig6b.svg",
            &cdf_plot(
                "Fig. 6b — CDF of model-over-naive improvement",
                &pts,
                "additive improvement in average accuracy",
            ),
        );
    }

    if let Some((_, rows)) = read_csv(&opts.out.join("fig7a.csv")) {
        let labels: Vec<String> = rows.iter().map(|r| format!("{} rules", r[0])).collect();
        let naive: Vec<f64> = rows.iter().map(|r| f(&r[2])).collect();
        let model: Vec<f64> = rows.iter().map(|r| f(&r[3])).collect();
        let random: Vec<f64> = rows.iter().map(|r| f(&r[4])).collect();
        write_svg(
            &opts,
            "fig7a.svg",
            &grouped_bars(
                "Fig. 7a — accuracy vs rules covering the target",
                &labels,
                &[
                    ("naive", naive),
                    ("restricted model", model),
                    ("random", random),
                ],
                "average accuracy",
            ),
        );
    }

    if let Some((_, rows)) = read_csv(&opts.out.join("fig7b.csv")) {
        let labels: Vec<String> = rows
            .iter()
            .map(|r| format!("[{},{})", r[0], r[1]))
            .collect();
        let naive: Vec<f64> = rows.iter().map(|r| f(&r[3])).collect();
        let model: Vec<f64> = rows.iter().map(|r| f(&r[4])).collect();
        let random: Vec<f64> = rows.iter().map(|r| f(&r[5])).collect();
        write_svg(
            &opts,
            "fig7b.svg",
            &grouped_bars(
                "Fig. 7b — accuracy vs P(target absent), restricted",
                &labels,
                &[
                    ("naive", naive),
                    ("restricted model", model),
                    ("random", random),
                ],
                "average accuracy",
            ),
        );
    }

    if let Some((_, rows)) = read_csv(&opts.out.join("countermeasures.csv")) {
        let labels: Vec<String> = rows.iter().map(|r| r[0].clone()).collect();
        let naive: Vec<f64> = rows.iter().map(|r| f(&r[1])).collect();
        let model: Vec<f64> = rows.iter().map(|r| f(&r[2])).collect();
        let random: Vec<f64> = rows.iter().map(|r| f(&r[3])).collect();
        write_svg(
            &opts,
            "countermeasures.svg",
            &grouped_bars(
                "C1 — attacker accuracy under defenses",
                &labels,
                &[("naive", naive), ("model", model), ("random", random)],
                "average accuracy",
            ),
        );
    }
}
