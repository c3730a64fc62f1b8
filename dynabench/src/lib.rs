//! dynabench: the end-to-end and per-layer benchmark of the dynawave
//! design-space-exploration pipeline.
//!
//! Three workloads ([`dse`], [`dvm`], [`serve_mix`]) drive the
//! repository's public API the way its users do. Every layer is timed
//! from outside, around calls into its public functions; the only
//! in-program number read is the existing `sim.instructions_committed`
//! obs counter, through a tick-clock recorder this crate installs. See
//! README.md for the metrics, the workloads and the layer map.

pub mod dse;
pub mod dvm;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod serve_mix;
pub mod stream;
pub mod workload;

use workload::{Outcome, RunOpts};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = [dse::NAME, dvm::NAME, serve_mix::NAME];

/// Processes an untraced run of `workload` is split across. Each process
/// runs at least one iteration, so a part's share of the run should
/// still fit one: `dse_campaign` iterations take about 5 s, `dvm_study`
/// ones about 2.5 s, each followed by its latency windows.
pub fn parts_of(workload: &str) -> usize {
    match workload {
        serve_mix::NAME => 4,
        dvm::NAME => 10,
        _ => 5,
    }
}

/// Runs the named workload.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match name {
        dse::NAME => dse::run(opts),
        dvm::NAME => dvm::run(opts),
        serve_mix::NAME => serve_mix::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
