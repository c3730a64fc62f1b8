//! Trace-driven out-of-order superscalar timing simulator.
//!
//! This crate replaces the heavily modified SimpleScalar the MICRO 2007
//! paper used. It is a **one-pass timestamp timing model**: every dynamic
//! instruction is assigned fetch / dispatch / ready / issue / complete /
//! commit cycles subject to
//!
//! * front-end bandwidth (fetch width) and instruction-cache / ITLB
//!   behaviour, with fetch redirect stalls on branch mispredictions
//!   (a gshare direction predictor, bimodal at zero history bits, and a
//!   BTB, [`branch`]),
//! * ROB / issue-queue / load-store-queue occupancy limits,
//! * register dependencies (true dataflow through dependency distances),
//! * issue bandwidth, functional-unit pools and data-cache ports,
//! * a two-level data cache + DTLB hierarchy ([`cache`]) with
//!   configurable sizes/latencies (the paper's Table 2 knobs), and
//! * in-order commit bandwidth.
//!
//! The model produces per-interval statistics ([`IntervalStats`]) —
//! cycles, activity counters for the Wattch-style power model
//! (`dynawave-power`) and ACE-residency integrals for the AVF model
//! (`dynawave-avf`). A Dynamic Vulnerability Management policy for the
//! issue queue ([`dvm`], the paper's Figure 16) can be enabled per run.
//!
//! # Examples
//!
//! ```
//! use dynawave_sim::{MachineConfig, SimOptions, Simulator};
//! use dynawave_workloads::Benchmark;
//!
//! let config = MachineConfig::baseline();
//! let opts = SimOptions { samples: 8, interval_instructions: 2000, seed: 1 };
//! let result = Simulator::new(config).run(Benchmark::Gcc, &opts);
//! assert_eq!(result.intervals.len(), 8);
//! let cpi = result.intervals[0].cpi();
//! assert!(cpi > 0.1 && cpi < 20.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod branch;
pub mod cache;
mod config;
pub mod dtm;
pub mod dvm;
mod pipeline;
mod resources;
mod stats;

pub use config::{DvmConfig, MachineConfig};
pub use pipeline::{SimOptions, Simulator};
pub use stats::{IntervalStats, RunResult};
