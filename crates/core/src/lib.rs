//! Wavelet neural networks for workload-dynamics-aware microarchitecture
//! design space exploration.
//!
//! This crate is the primary contribution of *"Informed Microarchitecture
//! Design Space Exploration using Workload Dynamics"* (Cho, Zhang & Li,
//! MICRO 2007), rebuilt as a Rust library on top of the workspace's
//! substrates:
//!
//! 1. Per-interval workload-dynamics traces (CPI / power / AVF over a
//!    sampled execution interval) come from the trace-driven simulator
//!    (`dynawave-sim` + `dynawave-power` + `dynawave-avf`) —
//!    [`collect_traces`].
//! 2. Each trace is decomposed with a discrete wavelet transform
//!    (`dynawave-wavelet`); a small set of **important coefficients** is
//!    selected magnitude-first.
//! 3. Every selected coefficient is predicted by its own RBF neural
//!    network (`dynawave-neural`) taking the 9-dimensional design vector
//!    as input — [`WaveletNeuralPredictor`].
//! 4. Predicted coefficients are inverse-transformed back into a
//!    time-domain dynamics forecast at unsimulated design points.
//!
//! The crate also packages the paper's evaluation machinery: normalized
//! MSE, directional symmetry / threshold scenario classification
//! ([`accuracy`]), parameter-importance star plots ([`importance`]),
//! hierarchical-clustering heat plots ([`cluster`]) and end-to-end
//! experiment drivers ([`experiment`]).
//!
//! # Examples
//!
//! Train on a few design points and forecast dynamics at a new one:
//!
//! ```no_run
//! use dynawave_core::{collect_traces, Metric, PredictorParams, WaveletNeuralPredictor};
//! use dynawave_sampling::{lhs, random, DesignSpace, Split};
//! use dynawave_sim::SimOptions;
//! use dynawave_workloads::Benchmark;
//!
//! let space = DesignSpace::micro2007();
//! let train_points = lhs::sample(&space, 40, 1);
//! let opts = SimOptions { samples: 64, interval_instructions: 1024, seed: 7 };
//! let train = collect_traces(Benchmark::Gcc, &train_points, Metric::Cpi, &opts);
//! let model = WaveletNeuralPredictor::train(&train, &PredictorParams::default()).unwrap();
//! let probe = random::sample(&space, 1, Split::Test, 2).remove(0);
//! let forecast = model.predict(&probe);
//! assert_eq!(forecast.len(), 64);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accuracy;
pub mod campaign;
pub mod cluster;
mod dataset;
pub mod experiment;
pub mod importance;
pub mod persist;
mod predictor;
pub mod recovery;
pub mod report;
pub mod serve;

pub use campaign::{run_journaled_parallel, threads_from_env, ShardedCampaign};
pub use dataset::{collect_metric_traces, collect_traces, trace_for, Metric, TraceSet};
pub use predictor::{
    CoefficientSelection, ModelKind, PortableCoeffModel, PortableModel, PredictorParams,
    WaveletNeuralPredictor,
};
pub use recovery::{CoeffRecovery, DegradationReport, RecoveryPolicy, RecoveryRung};
