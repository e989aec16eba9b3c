//! Deterministic observability for the flow-recon workspace.
//!
//! The paper's entire signal is a timing distribution (hit ≈ 0.087 ms vs
//! miss ≈ 4.07 ms, §VI-A), yet most of the stack discards the
//! per-probe RTTs and fault events it produces. This crate provides the
//! missing layer — without perturbing a single result:
//!
//! * [`Counter`] — a monotonic `u64` accumulator;
//! * [`Histogram`] — a fixed-bucket log-scale latency histogram whose
//!   state is integer bucket counts, so merging is **exactly**
//!   associative and commutative (no floating-point sums). Durations on
//!   the deterministic path are differences of **virtual simulation
//!   time**; wall-clock reads live only in the detlint-D2-allowlisted
//!   [`walltime`] module;
//! * [`Recorder`] — a per-thread sink for the above. Worker recorders
//!   merge by unsigned addition, the same contract as the trial engine's
//!   accuracy reduction, so enabling observability never changes any
//!   experiment output. [`Recorder::disabled`] is all no-ops and
//!   allocates nothing.
//! * [`manifest`] — the JSONL run-manifest record written next to every
//!   experiment CSV (seed, config digest, git rev, detlint budget,
//!   elapsed, metrics), read back by [`ManifestEntry::from_json_line`]
//!   for `flow-recon diagnose`.
//! * [`trace`] — the flight recorder: a bounded, deterministic causal
//!   event trace ([`FlightRecorder`]) stamping every probe's chain with
//!   a [`ProbeId`], dumpable on a crash and exportable as Chrome
//!   trace-event / Perfetto JSON. Its dump reads back
//!   ([`trace::FlightDump`]) into per-kind counts and each delivered
//!   probe's RTT components ([`trace::Breakdown`]). See DESIGN.md §11.
//! * [`write_atomic`] — the one write path for result files (CSVs,
//!   SVGs, manifests, flight dumps, checkpoints): a killed run leaves
//!   the previous file or the new one, never a torn one.
//!
//! Every format the crate writes has its one reader here, next to its
//! writer: [`Recorder::from_metrics`], [`ManifestEntry::from_json_line`],
//! [`trace::FlightDump::parse`] and [`trace::validate_chrome_trace`],
//! each failing with a [`ReadError`]. The readers parse with the
//! vendored `serde_json`, the crate's only dependencies (with `serde`);
//! the writers are hand-rolled, so the instrumented hot paths gain no
//! hidden entropy or allocation pressure. See DESIGN.md §7
//! ("Observability").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod local;
pub mod manifest;
pub mod metrics;
mod read;
mod recorder;
pub mod trace;
pub mod walltime;

pub use hist::Histogram;
pub use manifest::ManifestEntry;
pub use read::ReadError;
pub use recorder::{Counter, Recorder};
pub use trace::{probe_ctx, Breakdown, CompKind, FlightDump, FlightRecorder, ProbeId, TraceEv};

use std::io;
use std::path::Path;

/// Writes `bytes` to `path` through a `.tmp` sibling and a rename, so a
/// process killed mid-write leaves the previous file or the new one,
/// never a torn one. It does not sync, so it promises nothing across a
/// power loss.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] when `path` names no file, and any
/// I/O error from writing or renaming the temporary file.
pub fn write_atomic(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let Some(name) = path.file_name() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        ));
    };
    let mut tmp = name.to_os_string();
    tmp.push(".tmp");
    let tmp = path.with_file_name(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_overwrites_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("obs-write-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        write_atomic(&path, "old,row\n").unwrap();
        write_atomic(&path, "new,row\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new,row\n");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.csv"], "no .tmp sibling is left");
        let err = write_atomic(dir.join(".."), "x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
