//! Shared experiment harness: option parsing, scenario batches, binning,
//! CSV output and ASCII rendering for the paper-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's §VI evaluation (see DESIGN.md's experiment index). All binaries
//! accept:
//!
//! ```text
//! --configs N     number of random network configurations (default 40)
//! --trials N      trials per configuration (default 60)
//! --seed N        base RNG seed (default 7)
//! --fast          shrink everything for a smoke run
//! --out DIR       output directory (default results/)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod figures;
pub mod harness;
pub mod opts;
pub mod svg;
pub mod sweeps;

pub use chart::{ascii_bars, ascii_cdf};
pub use harness::{collect_configs, ConfigClass, ConfigOutcome, RunManifest};
pub use opts::ExpOpts;
