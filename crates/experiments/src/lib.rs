//! Shared experiment harness: option parsing, the supervised runner,
//! scenario batches, binning, CSV output and ASCII rendering for the
//! paper-reproduction programs.
//!
//! Each program in `src/bin/` regenerates one table or figure of the
//! paper's §VI evaluation (see DESIGN.md's experiment index). Every
//! program that runs trials does so through [`run::Run`], the
//! supervised grid runner. All programs accept:
//!
//! ```text
//! --configs N                 number of random network configurations (default 40)
//! --trials N                  trials per configuration (default 60)
//! --seed N                    base RNG seed (default 7)
//! --fast                      shrink everything for a smoke run
//! --out DIR                   output directory (default results/)
//! --threads N|auto            trial engine threads (default FLOW_RECON_THREADS, else auto)
//! --obs                       record metrics into the manifest
//! --trace                     record the causal flight trace
//! --resume                    continue from <name>.ckpt.jsonl when present
//! --checkpoint-every N        checkpoint every N completed grid cells
//! --kill-after-checkpoints N  stop as if interrupted after checkpoint N ≥ 1;
//!                             needs --checkpoint-every
//! ```
//!
//! `--trace` and the last three act on the trial-running programs;
//! `ablation_evaluators`, `diagnose`, `latency_table` and
//! `render_figures` run no trials, take `--resume` as a no-op and refuse
//! a checkpoint interval or kill-point. A malformed option ends a
//! program with exit status 2 and the usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod figures;
pub mod harness;
pub mod opts;
pub mod run;
pub mod svg;
pub mod sweeps;

pub use chart::{ascii_bars, ascii_cdf};
pub use harness::{collect_configs, ConfigClass, ConfigOutcome};
pub use opts::ExpOpts;
pub use run::Run;
