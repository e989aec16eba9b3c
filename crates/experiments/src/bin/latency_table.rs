//! **T1** — the §VI-A latency measurements: hit vs miss response-time
//! statistics and the 1 ms threshold's separability.
//!
//! Paper: hit 0.087 ms ± 0.021 ms; miss 4.070 ms ± 1.806 ms.

use attack::measure_latency;
use experiments::{ExpOpts, Run};

fn main() {
    let opts = ExpOpts::from_env();
    opts.forbid_checkpointing("latency_table");
    let mut run = Run::new("latency_table", &opts);
    let samples = if opts.fast { 500 } else { 5000 };
    let t = measure_latency(samples, opts.seed);
    let ms = 1e3;
    println!("latency table ({samples} samples per case):\n");
    println!("  case   mean (ms)   std (ms)    p50 (ms)    p99 (ms)    paper mean   paper std");
    println!(
        "  hit    {:>8.4}   {:>8.4}   {:>8.4}   {:>8.4}    0.0870       0.0210",
        t.hit.mean * ms,
        t.hit.std * ms,
        t.hit.p50 * ms,
        t.hit.p99 * ms
    );
    println!(
        "  miss   {:>8.4}   {:>8.4}   {:>8.4}   {:>8.4}    4.0700       1.8060",
        t.miss.mean * ms,
        t.miss.std * ms,
        t.miss.p50 * ms,
        t.miss.p99 * ms
    );
    println!(
        "\n  1 ms threshold misclassification rate: {:.4}",
        t.threshold_error
    );
    run.write_csv(
        "latency_table.csv",
        "case,mean_ms,std_ms,p50_ms,p99_ms,paper_mean_ms,paper_std_ms",
        &[
            format!(
                "hit,{},{},{},{},0.087,0.021",
                t.hit.mean * ms,
                t.hit.std * ms,
                t.hit.p50 * ms,
                t.hit.p99 * ms
            ),
            format!(
                "miss,{},{},{},{},4.070,1.806",
                t.miss.mean * ms,
                t.miss.std * ms,
                t.miss.p50 * ms,
                t.miss.p99 * ms
            ),
        ],
    );
    std::process::exit(run.finish());
}
