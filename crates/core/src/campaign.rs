//! Fault-tolerant DSE campaigns: checkpoint/resume over simulation units.
//!
//! A paper-scale accuracy campaign simulates hundreds of design points per
//! `(benchmark, metric)` pair before a single model is trained. On shared
//! clusters those jobs get preempted, killed by OOM sweeps, or rebooted —
//! and restarting a multi-hour campaign from scratch is the difference
//! between "ran the full Table 2 sweep" and "gave up".
//!
//! This module decomposes an [`ExperimentConfig`] campaign into
//! [`WorkUnit`]s — one simulated trace per `(benchmark, metric, role,
//! design-point)` — and journals every completed unit to an append-only,
//! human-inspectable text file. A killed campaign resumes by replaying the
//! journal: completed units are never re-simulated, a partially written
//! trailing line (the kill signature) is dropped, and the final report is
//! **byte-identical** to an uninterrupted run because traces round-trip
//! through the journal with Rust's shortest-exact float formatting.
//!
//! The journal is guarded by a fingerprint of the campaign spec, so a
//! journal written under one configuration can never silently poison a
//! resumed run under another.
//!
//! # Parallel execution
//!
//! Work units are independent by construction, so campaigns shard across
//! worker threads ([`run_journaled_parallel`], the one file-backed
//! executor; `std::thread` only — the workspace is hermetic). Unit `i`
//! always belongs to shard `i % N`, each worker appends to its own
//! `<journal>.shard<k>` sidecar in the same fingerprinted format, and
//! completed traces merge back into canonical unit order — so the final
//! report and the final journal are **byte-identical for any thread
//! count**, including under kill-and-resume and fault injection (all
//! fault-injection sites live in training, which stays sequential on the
//! caller's thread). Sidecars record their shard count; resuming under a
//! different `N` is refused with [`CampaignError::ShardMismatch`] instead
//! of silently merging; a completed canonical journal has no sidecars and
//! serves any thread count. See DESIGN.md §10 for the full determinism
//! argument, and [`ShardedCampaign`] for the storage-agnostic core the
//! stress harness drives.
//!
//! # Examples
//!
//! ```no_run
//! use dynawave_core::campaign::{run_journaled_parallel, CampaignSpec};
//! use dynawave_core::experiment::ExperimentConfig;
//! use dynawave_core::{report, Metric};
//! use dynawave_workloads::Benchmark;
//!
//! let spec = CampaignSpec::single(Benchmark::Gcc, Metric::Cpi, ExperimentConfig::default());
//! // Re-running after a kill (at the same thread count) resumes from the
//! // journal instead of re-simulating completed units.
//! let evals = run_journaled_parallel(&spec, std::path::Path::new("gcc_cpi.journal"), 1)?;
//! let doc = report::full_report("gcc / cpi campaign", &evals);
//! # Ok::<(), dynawave_core::campaign::CampaignError>(())
//! ```

use crate::dataset::{trace_for, Metric, TraceSet};
use crate::experiment::{score_model, BenchmarkEvaluation, EnvConfigError, ExperimentConfig};
use crate::predictor::WaveletNeuralPredictor;
use dynawave_neural::ModelError;
use dynawave_sampling::DesignPoint;
use dynawave_workloads::Benchmark;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// Format tag on the first line of every campaign journal.
const MAGIC: &str = dynawave_obs::schema::CAMPAIGN_JOURNAL;

/// Whether a design point belongs to the training or the test design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitRole {
    /// Point from the LHS training design.
    Train,
    /// Point from the independent random test design.
    Test,
}

impl UnitRole {
    /// Stable lowercase name used in journal lines.
    pub fn name(self) -> &'static str {
        match self {
            UnitRole::Train => "train",
            UnitRole::Test => "test",
        }
    }

    /// Inverse of [`UnitRole::name`].
    pub fn parse(name: &str) -> Option<UnitRole> {
        match name {
            "train" => Some(UnitRole::Train),
            "test" => Some(UnitRole::Test),
            _ => None,
        }
    }
}

/// The atomic unit of campaign progress: one simulated dynamics trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Benchmark to simulate.
    pub benchmark: Benchmark,
    /// Metric to extract from the run.
    pub metric: Metric,
    /// Which design the point belongs to.
    pub role: UnitRole,
    /// Index of the point within its design.
    pub point_index: usize,
}

impl WorkUnit {
    /// The unit's stable journal key, e.g. `gcc cpi train 17`.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} {}",
            self.benchmark.name(),
            self.metric.name(),
            self.role.name(),
            self.point_index
        )
    }
}

/// What a campaign runs: which `(benchmark, metric)` pairs, at what scale.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Benchmarks to evaluate, in order.
    pub benchmarks: Vec<Benchmark>,
    /// Metrics to evaluate per benchmark, in order.
    pub metrics: Vec<Metric>,
    /// Scale, seeds and predictor hyper-parameters.
    pub config: ExperimentConfig,
}

impl CampaignSpec {
    /// A one-pair campaign.
    pub fn single(benchmark: Benchmark, metric: Metric, config: ExperimentConfig) -> Self {
        CampaignSpec {
            benchmarks: vec![benchmark],
            metrics: vec![metric],
            config,
        }
    }

    /// A deterministic fingerprint of every spec field. Journals record it
    /// so a resume under a different configuration is rejected instead of
    /// silently mixing incompatible traces.
    pub fn fingerprint(&self) -> u64 {
        let names: Vec<&str> = self.benchmarks.iter().map(|b| b.name()).collect();
        let metrics: Vec<&str> = self.metrics.iter().map(|m| m.name()).collect();
        fnv1a64(&format!("{names:?}|{metrics:?}|{:?}", self.config))
    }

    /// Total number of work units in this campaign.
    pub fn unit_count(&self) -> usize {
        self.benchmarks.len()
            * self.metrics.len()
            * (self.config.train_points + self.config.test_points)
    }
}

/// 64-bit FNV-1a over a canonical spec description. Not cryptographic —
/// it guards against configuration mix-ups, not adversaries. Shared with
/// the serve module, whose response journal uses the same guard.
pub(crate) fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors raised while journaling or resuming a campaign.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The journal does not start with the expected magic line.
    BadMagic,
    /// A structural journal line was missing or malformed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was expected there.
        expected: &'static str,
    },
    /// The journal was written under a different campaign spec.
    SpecMismatch {
        /// Fingerprint of the spec being resumed.
        expected: u64,
        /// Fingerprint recorded in the journal.
        found: u64,
    },
    /// A journaled trace value was NaN or infinite.
    NonFinite {
        /// 1-based line number.
        line: usize,
    },
    /// A unit line names a benchmark/metric/point outside this campaign.
    UnknownUnit {
        /// 1-based line number.
        line: usize,
    },
    /// A journaled trace has the wrong number of samples.
    BadTraceLength {
        /// 1-based line number.
        line: usize,
        /// Samples the spec requires.
        expected: usize,
        /// Samples found on the line.
        got: usize,
    },
    /// The campaign still has pending units.
    Incomplete {
        /// Units not yet simulated.
        remaining: usize,
    },
    /// Shard journals on disk were written by a run with a different
    /// worker count. Merging them silently would orphan units assigned to
    /// shards that no longer exist, so the resume is refused.
    ShardMismatch {
        /// Shard count of the resuming run.
        expected: usize,
        /// Shard count recorded in the sidecar journal.
        found: usize,
    },
    /// A worker thread died (panicked) mid-campaign.
    Worker {
        /// Which shard's worker failed.
        shard: usize,
        /// The panic payload, best-effort stringified.
        message: String,
    },
    /// Model training failed (possible only under a restrictive
    /// [`crate::RecoveryPolicy`]).
    Model(ModelError),
    /// A journal file operation failed.
    Io(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::BadMagic => write!(f, "not a dynawave campaign journal"),
            CampaignError::Malformed { line, expected } => {
                write!(f, "malformed journal at line {line}: expected {expected}")
            }
            CampaignError::SpecMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign: \
                 spec fingerprint {expected:016x}, journal has {found:016x}"
            ),
            CampaignError::NonFinite { line } => {
                write!(f, "non-finite trace value in journal at line {line}")
            }
            CampaignError::UnknownUnit { line } => {
                write!(f, "journal line {line} names a unit outside this campaign")
            }
            CampaignError::BadTraceLength {
                line,
                expected,
                got,
            } => write!(
                f,
                "journal line {line}: trace has {got} samples, spec requires {expected}"
            ),
            CampaignError::Incomplete { remaining } => {
                write!(f, "campaign has {remaining} pending units")
            }
            CampaignError::ShardMismatch { expected, found } => write!(
                f,
                "shard journals were written by a {found}-worker run but this run \
                 uses {expected} worker(s); rerun with DYNAWAVE_THREADS={found} or \
                 remove the .shard* sidecar files"
            ),
            CampaignError::Worker { shard, message } => {
                write!(f, "campaign worker for shard {shard} failed: {message}")
            }
            CampaignError::Model(e) => write!(f, "model training failed: {e}"),
            CampaignError::Io(msg) => write!(f, "journal I/O failed: {msg}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for CampaignError {
    fn from(e: ModelError) -> Self {
        CampaignError::Model(e)
    }
}

/// A campaign's units, designs and completed traces, tracking completion
/// so an interrupted campaign resumes exactly where it stopped.
///
/// The runner is storage-agnostic: [`CampaignRunner::resume`] rebuilds
/// state from journal text and [`CampaignRunner::journal`] renders it.
/// Units run through [`ShardedCampaign::step`] in memory or through the
/// file-backed executor [`run_journaled_parallel`].
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    spec: CampaignSpec,
    units: Vec<WorkUnit>,
    /// Journal key → index into `units` (BTreeMap keeps iteration and
    /// therefore behavior deterministic; workspace rule D004 bans
    /// HashMap in library code).
    index: BTreeMap<String, usize>,
    /// Completed unit index → simulated trace.
    completed: BTreeMap<usize, Vec<f64>>,
    train_design: Vec<DesignPoint>,
    test_design: Vec<DesignPoint>,
}

impl CampaignRunner {
    /// Starts a fresh campaign with every unit pending.
    pub fn new(spec: CampaignSpec) -> Self {
        let mut units = Vec::with_capacity(spec.unit_count());
        for &benchmark in &spec.benchmarks {
            for &metric in &spec.metrics {
                for (role, count) in [
                    (UnitRole::Train, spec.config.train_points),
                    (UnitRole::Test, spec.config.test_points),
                ] {
                    for point_index in 0..count {
                        units.push(WorkUnit {
                            benchmark,
                            metric,
                            role,
                            point_index,
                        });
                    }
                }
            }
        }
        let index = units
            .iter()
            .enumerate()
            .map(|(i, u)| (u.key(), i))
            .collect();
        let train_design = spec.config.train_design();
        let test_design = spec.config.test_design();
        CampaignRunner {
            spec,
            units,
            index,
            completed: BTreeMap::new(),
            train_design,
            test_design,
        }
    }

    /// Rebuilds a runner from journal text written by a previous
    /// (possibly killed) run.
    ///
    /// A trailing line without a terminating newline is treated as the
    /// partial write of a killed process and dropped; every
    /// newline-terminated line must parse cleanly.
    ///
    /// # Errors
    ///
    /// [`CampaignError::BadMagic`] / [`CampaignError::Malformed`] for a
    /// broken header, [`CampaignError::SpecMismatch`] if the journal was
    /// written under a different spec, and per-line errors for corrupt
    /// unit records (non-finite values, wrong trace length, unknown
    /// units).
    pub fn resume(spec: CampaignSpec, journal: &str) -> Result<Self, CampaignError> {
        let mut runner = CampaignRunner::new(spec);
        let mut lines = complete_lines(journal).lines().enumerate();
        runner.check_header(&mut lines)?;
        for (i, l) in lines {
            runner.ingest_unit_line(i + 1, l)?;
        }
        if dynawave_obs::is_enabled() && !runner.completed.is_empty() {
            dynawave_obs::marker_with_detail(
                "campaign.resumed_from",
                &format!("{} completed unit(s)", runner.completed.len()),
            );
            dynawave_obs::counter_add("campaign.units_resumed", runner.completed.len() as u64);
        }
        Ok(runner)
    }

    /// Validates the two-line journal header (magic + fingerprint) off the
    /// front of `lines`, leaving the iterator at the first body line.
    fn check_header<'a>(
        &self,
        lines: &mut impl Iterator<Item = (usize, &'a str)>,
    ) -> Result<(), CampaignError> {
        let (_, magic) = lines.next().ok_or(CampaignError::Malformed {
            line: 1,
            expected: "magic header",
        })?;
        if magic != MAGIC {
            return Err(CampaignError::BadMagic);
        }
        let (_, fp_line) = lines.next().ok_or(CampaignError::Malformed {
            line: 2,
            expected: "fingerprint <hex>",
        })?;
        let found = fp_line
            .strip_prefix("fingerprint ")
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
            .ok_or(CampaignError::Malformed {
                line: 2,
                expected: "fingerprint <hex>",
            })?;
        let expected = self.spec.fingerprint();
        if found != expected {
            return Err(CampaignError::SpecMismatch { expected, found });
        }
        Ok(())
    }

    /// Parses one `unit ...` journal body line (1-based `line` for error
    /// reporting) and records its trace as completed.
    fn ingest_unit_line(&mut self, line: usize, l: &str) -> Result<(), CampaignError> {
        if l.trim().is_empty() {
            return Ok(());
        }
        let mut parts = l.split_whitespace();
        if parts.next() != Some("unit") {
            return Err(CampaignError::Malformed {
                line,
                expected: "unit <benchmark> <metric> <train|test> <index> <samples...>",
            });
        }
        let (bench, metric, role, idx) = match (
            parts.next().and_then(Benchmark::from_name),
            parts.next().and_then(Metric::parse),
            parts.next().and_then(UnitRole::parse),
            parts.next().and_then(|v| v.parse::<usize>().ok()),
        ) {
            (Some(b), Some(m), Some(r), Some(i)) => (b, m, r, i),
            _ => return Err(CampaignError::UnknownUnit { line }),
        };
        let key = WorkUnit {
            benchmark: bench,
            metric,
            role,
            point_index: idx,
        }
        .key();
        let unit_index = *self
            .index
            .get(&key)
            .ok_or(CampaignError::UnknownUnit { line })?;
        let mut trace = Vec::with_capacity(self.spec.config.samples);
        for p in parts {
            let v: f64 = p.parse().map_err(|_| CampaignError::Malformed {
                line,
                expected: "floating-point trace sample",
            })?;
            if !v.is_finite() {
                return Err(CampaignError::NonFinite { line });
            }
            trace.push(v);
        }
        if trace.len() != self.spec.config.samples {
            return Err(CampaignError::BadTraceLength {
                line,
                expected: self.spec.config.samples,
                got: trace.len(),
            });
        }
        self.completed.insert(unit_index, trace);
        Ok(())
    }

    /// The campaign spec this runner executes.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// All work units, in execution order.
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Number of completed units.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Number of still-pending units.
    pub fn remaining(&self) -> usize {
        self.units.len() - self.completed.len()
    }

    /// `true` when every unit has a trace.
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.units.len()
    }

    fn design_point(&self, unit: &WorkUnit) -> &DesignPoint {
        match unit.role {
            UnitRole::Train => &self.train_design[unit.point_index],
            UnitRole::Test => &self.test_design[unit.point_index],
        }
    }

    /// Simulates the unit at `index` and records its trace, returning the
    /// unit and its newline-terminated journal line (`None` when `index`
    /// is out of range).
    fn run_unit(&mut self, index: usize) -> Option<(WorkUnit, String)> {
        let unit = *self.units.get(index)?;
        let opts = self.spec.config.sim_options();
        let (trace, line) = simulate_unit(&unit, self.design_point(&unit), &opts);
        self.completed.insert(index, trace);
        Some((unit, line))
    }

    /// The full journal text for the current state: header plus one line
    /// per completed unit, in execution order. Writing this to disk
    /// produces a journal that [`CampaignRunner::resume`] accepts and
    /// that is free of any partial tail.
    pub fn journal(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("fingerprint {:016x}\n", self.spec.fingerprint()));
        for (&i, trace) in &self.completed {
            out.push_str(&journal_line(&self.units[i], trace));
        }
        out
    }

    /// Trains, predicts and scores every `(benchmark, metric)` pair from
    /// the completed traces, using the spec's recovery policy (see
    /// [`ExperimentConfig::recovery`]).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Incomplete`] while units are pending;
    /// [`CampaignError::Model`] if training fails outright (possible only
    /// under a restrictive recovery policy).
    pub fn finish(&self) -> Result<Vec<BenchmarkEvaluation>, CampaignError> {
        let _span = dynawave_obs::span("campaign.finish");
        if !self.is_complete() {
            return Err(CampaignError::Incomplete {
                remaining: self.remaining(),
            });
        }
        let cfg = &self.spec.config;
        let mut evals = Vec::new();
        for &benchmark in &self.spec.benchmarks {
            for &metric in &self.spec.metrics {
                let gather = |role: UnitRole| -> Vec<Vec<f64>> {
                    self.units
                        .iter()
                        .enumerate()
                        .filter(|(_, u)| {
                            u.benchmark == benchmark && u.metric == metric && u.role == role
                        })
                        .filter_map(|(i, _)| self.completed.get(&i).cloned())
                        .collect()
                };
                let train = TraceSet {
                    benchmark,
                    metric,
                    points: self.train_design.clone(),
                    traces: gather(UnitRole::Train),
                };
                let (model, degradation) = match WaveletNeuralPredictor::train_resilient(
                    &train,
                    &cfg.predictor,
                    &cfg.recovery,
                ) {
                    Ok(trained) => trained,
                    Err(e) => {
                        dynawave_obs::counter_add("campaign.units_failed", 1);
                        return Err(e.into());
                    }
                };
                let test = TraceSet {
                    benchmark,
                    metric,
                    points: self.test_design.clone(),
                    traces: gather(UnitRole::Test),
                };
                let mut eval = score_model(benchmark, metric, model, test);
                eval.degradation = degradation;
                evals.push(eval);
            }
        }
        Ok(evals)
    }
}

/// A campaign partitioned into shards: unit `i` belongs to shard
/// `i % shards`, always — the assignment depends only on the spec, never
/// on thread scheduling, which is the first half of the determinism
/// argument (DESIGN.md §10). The second half is the merge:
/// completed traces land in the runner's `BTreeMap` keyed by canonical
/// unit index, so [`ShardedCampaign::merged_journal`] and
/// [`ShardedCampaign::finish`] are byte-identical for any shard count.
///
/// Like [`CampaignRunner`] this is storage-agnostic — [`ShardedCampaign::step`]
/// advances one shard by one unit and hands back the journal line, and
/// [`ShardedCampaign::ingest_shard_journal`] rebuilds progress from
/// sidecar text — which is what lets the `dynawave-testkit` stress
/// harness drive it through arbitrary interleavings and mid-run kills
/// in-memory. The file-backed threaded driver is
/// [`run_journaled_parallel`].
#[derive(Debug, Clone)]
pub struct ShardedCampaign {
    runner: CampaignRunner,
    shards: usize,
    /// Unit indices owned by each shard, in canonical order.
    queues: Vec<Vec<usize>>,
}

impl ShardedCampaign {
    /// Partitions a fresh campaign into `shards` shards (clamped to at
    /// least one).
    pub fn new(spec: CampaignSpec, shards: usize) -> Self {
        ShardedCampaign::from_runner(CampaignRunner::new(spec), shards)
    }

    /// Partitions an existing (possibly partially complete) runner.
    pub fn from_runner(runner: CampaignRunner, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut queues = vec![Vec::new(); shards];
        for i in 0..runner.units.len() {
            queues[i % shards].push(i);
        }
        ShardedCampaign {
            runner,
            shards,
            queues,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The underlying runner.
    pub fn runner(&self) -> &CampaignRunner {
        &self.runner
    }

    /// Number of completed units across all shards.
    pub fn completed_count(&self) -> usize {
        self.runner.completed_count()
    }

    /// `true` when every unit in every shard has a trace.
    pub fn is_complete(&self) -> bool {
        self.runner.is_complete()
    }

    /// Pending unit indices owned by `shard`, in canonical order.
    pub fn pending_for_shard(&self, shard: usize) -> Vec<usize> {
        self.queues
            .get(shard)
            .map(|q| {
                q.iter()
                    .copied()
                    .filter(|i| !self.runner.completed.contains_key(i))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Runs `shard`'s next pending unit. Returns the unit and its journal
    /// line (append it to the shard's sidecar before acting on the
    /// result), or `None` when the shard index is out of range or the
    /// shard has no pending work.
    pub fn step(&mut self, shard: usize) -> Option<(WorkUnit, String)> {
        let next = self
            .queues
            .get(shard)?
            .iter()
            .copied()
            .find(|i| !self.runner.completed.contains_key(i))?;
        self.runner.run_unit(next)
    }

    /// The full sidecar journal text for one shard: the canonical header,
    /// a `shard <k> of <n>` declaration line, then one line per completed
    /// unit owned by the shard, in canonical order.
    pub fn shard_journal(&self, shard: usize) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!(
            "fingerprint {:016x}\n",
            self.runner.spec.fingerprint()
        ));
        out.push_str(&format!("shard {shard} of {}\n", self.shards));
        if let Some(queue) = self.queues.get(shard) {
            for i in queue {
                if let Some(trace) = self.runner.completed.get(i) {
                    out.push_str(&journal_line(&self.runner.units[*i], trace));
                }
            }
        }
        out
    }

    /// Replays one shard's sidecar journal into this campaign, returning
    /// `(declared shard, units ingested)`. Tolerates a torn final line
    /// (the kill signature), like [`CampaignRunner::resume`].
    ///
    /// # Errors
    ///
    /// Header errors as in [`CampaignRunner::resume`], plus
    /// [`CampaignError::ShardMismatch`] when the sidecar declares a
    /// different shard count than this campaign uses, and
    /// [`CampaignError::Malformed`] when the declared shard index is out
    /// of range for the declared count.
    pub fn ingest_shard_journal(&mut self, text: &str) -> Result<(usize, usize), CampaignError> {
        let mut lines = complete_lines(text).lines().enumerate();
        self.runner.check_header(&mut lines)?;
        let declared = lines.next().and_then(|(_, l)| parse_shard_line(l)).ok_or(
            CampaignError::Malformed {
                line: 3,
                expected: "shard <k> of <n>",
            },
        )?;
        let (shard, of) = declared;
        if of != self.shards {
            return Err(CampaignError::ShardMismatch {
                expected: self.shards,
                found: of,
            });
        }
        if shard >= of {
            return Err(CampaignError::Malformed {
                line: 3,
                expected: "shard <k> of <n> with k < n",
            });
        }
        let before = self.runner.completed.len();
        for (i, l) in lines {
            self.runner.ingest_unit_line(i + 1, l)?;
        }
        Ok((shard, self.runner.completed.len() - before))
    }

    /// The canonical merged journal for the current state — identical to
    /// what a one-shard campaign produces from the same completed set,
    /// whatever order the shards ran in.
    pub fn merged_journal(&self) -> String {
        self.runner.journal()
    }

    /// Trains and scores the completed campaign; see
    /// [`CampaignRunner::finish`]. Training runs on the calling thread —
    /// sequentially — which is what keeps fault-injection schedules (all
    /// sites are solver-side) independent of the shard count.
    pub fn finish(&self) -> Result<Vec<BenchmarkEvaluation>, CampaignError> {
        self.runner.finish()
    }
}

/// `shard <k> of <n>` → `(k, n)`.
fn parse_shard_line(l: &str) -> Option<(usize, usize)> {
    let mut parts = l.split_whitespace();
    if parts.next() != Some("shard") {
        return None;
    }
    let shard = parts.next()?.parse().ok()?;
    if parts.next() != Some("of") {
        return None;
    }
    let of = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((shard, of))
}

/// Only newline-terminated lines of a journal are trustworthy: a kill
/// mid-write leaves a partial final line, which must be ignored.
pub(crate) fn complete_lines(journal: &str) -> &str {
    match journal.rfind('\n') {
        Some(last) => journal.get(..=last).unwrap_or_default(),
        None => "",
    }
}

/// Bucket bounds for the `campaign.unit_latency` histogram: per-unit
/// tick deltas between heartbeats. On the deterministic tick clock a
/// unit costs single-digit ticks today; the doubling tail leaves room
/// for more heavily instrumented stages without re-bucketing committed
/// streams (histogram merges require identical bounds).
const UNIT_LATENCY_BOUNDS: [f64; 6] = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Per-unit completion heartbeat: a killed campaign's stream shows
/// exactly how far it got, and the unit key in the marker detail is what
/// the parallel merge sorts worker segments by. The tick delta since the
/// previous heartbeat lands in the `campaign.unit_latency` histogram, so
/// `obs_report` gets a latency distribution without re-deriving it from
/// raw spans. Deltas count recorder activity per unit, which is
/// identical for every worker split of the same unit set — histograms
/// with matching bounds sum across workers at merge time.
fn observe_unit_done(unit: &WorkUnit) {
    if dynawave_obs::is_enabled() {
        dynawave_obs::marker_latency(
            "campaign.heartbeat",
            &unit.key(),
            "campaign.unit_latency",
            &UNIT_LATENCY_BOUNDS,
        );
        dynawave_obs::counter_add("campaign.units_done", 1);
    }
}

/// Worker count for parallel campaigns: `DYNAWAVE_THREADS` when set, the
/// machine's available parallelism otherwise. Deliberately *not* part of
/// [`ExperimentConfig`] — the journal fingerprint covers the config, and
/// the whole point of the deterministic merge is that the same journal
/// serves any thread count.
///
/// # Errors
///
/// [`EnvConfigError`] when `DYNAWAVE_THREADS` is set but is not a
/// positive integer.
pub fn threads_from_env() -> Result<usize, EnvConfigError> {
    // dynalint:allow(D004) -- documented, explicit config entry point (mirrors ExperimentConfig::from_env)
    match std::env::var("DYNAWAVE_THREADS") {
        Ok(value) => match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(EnvConfigError {
                name: "DYNAWAVE_THREADS",
                value,
                expected: "a positive worker count",
            }),
        },
        // dynalint:allow(D004) -- capacity probe at the documented entry point; affects wall-clock only, never report bytes
        Err(_) => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
    }
}

/// The one per-unit body: simulates `unit` at `point`, formats its journal
/// line and sends its heartbeat. Both the in-memory [`ShardedCampaign::step`]
/// and the file-backed worker run every unit through here.
fn simulate_unit(
    unit: &WorkUnit,
    point: &DesignPoint,
    opts: &dynawave_sim::SimOptions,
) -> (Vec<f64>, String) {
    let trace = trace_for(unit.benchmark, point, unit.metric, opts);
    let line = journal_line(unit, &trace);
    observe_unit_done(unit);
    (trace, line)
}

/// Formats one completed unit as its journal line (newline-terminated).
/// Floats use Rust's shortest round-trip representation, which is what
/// makes a resumed campaign bit-identical to an uninterrupted one.
fn journal_line(unit: &WorkUnit, trace: &[f64]) -> String {
    let mut line = String::from("unit ");
    line.push_str(&unit.key());
    for v in trace {
        line.push(' ');
        line.push_str(&format!("{v}"));
    }
    line.push('\n');
    line
}

fn io_err(e: std::io::Error) -> CampaignError {
    CampaignError::Io(e.to_string())
}

/// Runs a campaign to completion across `threads` worker threads, each
/// journaling to its own `<path>.shard<k>` sidecar, then merges into the
/// canonical journal at `path` and deletes the sidecars. This is the one
/// file-backed executor; sequential execution is `threads = 1`. The
/// returned evaluations, the final report, and the final journal bytes are
/// identical for every thread count; with tracing enabled, each worker
/// records to its own recorder and the streams merge deterministically in
/// canonical unit order (see [`dynawave_obs::absorb_workers`]).
///
/// A killed parallel run resumes by calling this again with the same
/// spec, path, and thread count; surviving sidecars (torn tails included)
/// are replayed before new work starts. Resuming under a *different*
/// thread count is refused with [`CampaignError::ShardMismatch`] — a
/// completed canonical journal, however, has no sidecars and serves any
/// thread count.
///
/// # Errors
///
/// Journal parse errors from [`CampaignRunner::resume`] and
/// [`ShardedCampaign::ingest_shard_journal`] (including
/// [`CampaignError::ShardMismatch`] for foreign sidecars), I/O failures as
/// [`CampaignError::Io`], [`CampaignError::Worker`] when a worker thread
/// panics, and model-training failures under restrictive recovery
/// policies.
pub fn run_journaled_parallel(
    spec: &CampaignSpec,
    path: &Path,
    threads: usize,
) -> Result<Vec<BenchmarkEvaluation>, CampaignError> {
    let _span = dynawave_obs::span("campaign.run");
    let threads = threads.max(1);
    let mut sharded = load_sharded(spec, path, threads)?;
    let traced = dynawave_obs::is_enabled();
    let opts = sharded.runner.spec.config.sim_options();
    // Snapshot each shard's pending work as (canonical index, unit,
    // design point) so workers never touch shared state.
    let work: Vec<Vec<(usize, WorkUnit, DesignPoint)>> = (0..threads)
        .map(|shard| {
            sharded
                .pending_for_shard(shard)
                .into_iter()
                .map(|i| {
                    let unit = sharded.runner.units[i];
                    (i, unit, sharded.runner.design_point(&unit).clone())
                })
                .collect()
        })
        .collect();
    let outcomes: Vec<Result<ShardOutcome, CampaignError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .iter()
            .enumerate()
            .map(|(shard, units)| {
                let opts = &opts;
                let sidecar = shard_path(path, shard);
                scope.spawn(move || run_shard(units, opts, &sidecar, traced))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(shard, handle)| {
                handle.join().unwrap_or_else(|payload| {
                    Err(CampaignError::Worker {
                        shard,
                        message: panic_message(payload.as_ref()),
                    })
                })
            })
            .collect()
    });
    let mut recorders = Vec::new();
    for outcome in outcomes {
        let ShardOutcome {
            completed,
            recorder,
        } = outcome?;
        for (i, trace) in completed {
            sharded.runner.completed.insert(i, trace);
        }
        recorders.extend(recorder);
    }
    if traced {
        // Sort worker event segments into canonical unit order so the
        // merged stream is byte-identical for any thread count.
        let order: BTreeMap<String, usize> = sharded.runner.index.clone();
        dynawave_obs::absorb_workers(recorders, "campaign.heartbeat", move |detail| {
            order.get(detail).map(|i| *i as u64).unwrap_or(u64::MAX)
        });
    }
    std::fs::write(path, sharded.runner.journal()).map_err(io_err)?;
    for shard in 0..threads {
        let _ = std::fs::remove_file(shard_path(path, shard));
    }
    sharded.runner.finish()
}

/// What one worker thread hands back to the merge.
struct ShardOutcome {
    /// `(canonical unit index, trace)` for every unit the worker ran.
    completed: Vec<(usize, Vec<f64>)>,
    /// The worker's thread-local recorder, when tracing was on.
    recorder: Option<dynawave_obs::Recorder>,
}

/// Worker body: run each assigned unit, appending its journal line to the
/// shard's sidecar *before* moving on so the journal stays ahead of the
/// computation.
fn run_shard(
    units: &[(usize, WorkUnit, DesignPoint)],
    opts: &dynawave_sim::SimOptions,
    sidecar: &Path,
    traced: bool,
) -> Result<ShardOutcome, CampaignError> {
    if traced {
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    }
    let mut completed = Vec::with_capacity(units.len());
    for (i, unit, point) in units {
        let (trace, line) = simulate_unit(unit, point, opts);
        append(sidecar, &line)?;
        completed.push((*i, trace));
    }
    Ok(ShardOutcome {
        completed,
        recorder: dynawave_obs::take(),
    })
}

/// Best-effort stringification of a worker panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("worker panicked")
    }
}

/// The sidecar journal path for one shard: `<path>.shard<k>`.
pub fn shard_path(path: &Path, shard: usize) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".shard{shard}"));
    PathBuf::from(name)
}

/// Finds `<path>.shard<k>` sidecars next to the canonical journal,
/// returning `(k, text)` pairs sorted by `k`.
fn discover_sidecars(path: &Path) -> Result<Vec<(usize, String)>, CampaignError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = match path.file_name().and_then(|n| n.to_str()) {
        Some(stem) => format!("{stem}.shard"),
        None => return Ok(Vec::new()),
    };
    let entries = match std::fs::read_dir(&parent) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(e)),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let shard = match name.to_str().and_then(|n| n.strip_prefix(&prefix)) {
            Some(suffix) => match suffix.parse::<usize>() {
                Ok(shard) => shard,
                Err(_) => continue,
            },
            None => continue,
        };
        let text = std::fs::read_to_string(entry.path()).map_err(io_err)?;
        found.push((shard, text));
    }
    found.sort_by_key(|(shard, _)| *shard);
    Ok(found)
}

/// Loads or initializes the sharded campaign from the canonical journal
/// plus any shard sidecars, then rewrites all of them partial-tail-free
/// before new work starts. Sidecars declaring a different shard count are
/// refused ([`CampaignError::ShardMismatch`]); sidecars whose declared
/// index differs from their filename are corrupt
/// ([`CampaignError::Malformed`]).
fn load_sharded(
    spec: &CampaignSpec,
    path: &Path,
    threads: usize,
) -> Result<ShardedCampaign, CampaignError> {
    let runner = match std::fs::read_to_string(path) {
        Ok(text) => CampaignRunner::resume(spec.clone(), &text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => CampaignRunner::new(spec.clone()),
        Err(e) => return Err(io_err(e)),
    };
    let mut sharded = ShardedCampaign::from_runner(runner, threads);
    let mut sidecar_units = 0;
    for (file_shard, text) in discover_sidecars(path)? {
        let (declared, ingested) = sharded.ingest_shard_journal(&text)?;
        if declared != file_shard {
            return Err(CampaignError::Malformed {
                line: 3,
                expected: "shard index matching the sidecar filename",
            });
        }
        sidecar_units += ingested;
    }
    if dynawave_obs::is_enabled() && sidecar_units > 0 {
        dynawave_obs::marker_with_detail(
            "campaign.resumed_from",
            &format!("{sidecar_units} sharded unit(s)"),
        );
        dynawave_obs::counter_add("campaign.units_resumed", sidecar_units as u64);
    }
    std::fs::write(path, sharded.runner.journal()).map_err(io_err)?;
    for shard in 0..threads {
        std::fs::write(shard_path(path, shard), sharded.shard_journal(shard)).map_err(io_err)?;
    }
    Ok(sharded)
}

fn append(path: &Path, text: &str) -> Result<(), CampaignError> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(io_err)?;
    f.write_all(text.as_bytes()).map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::single(
            Benchmark::Eon,
            Metric::Cpi,
            ExperimentConfig {
                train_points: 12,
                test_points: 4,
                samples: 16,
                interval_instructions: 400,
                seed: 21,
                ..ExperimentConfig::default()
            },
        )
    }

    /// A one-shard (sequential) campaign with its first `units` units run.
    fn stepped(spec: &CampaignSpec, units: usize) -> ShardedCampaign {
        let mut campaign = ShardedCampaign::new(spec.clone(), 1);
        for _ in 0..units {
            campaign.step(0);
        }
        campaign
    }

    /// Steps a one-shard campaign until it runs dry; returns the count.
    fn drain(campaign: &mut ShardedCampaign) -> usize {
        std::iter::from_fn(|| campaign.step(0)).count()
    }

    #[test]
    fn fresh_campaign_enumerates_units_in_order() {
        let spec = tiny_spec();
        let runner = CampaignRunner::new(spec.clone());
        assert_eq!(runner.units().len(), 16);
        assert_eq!(runner.units().len(), spec.unit_count());
        assert_eq!(runner.units()[0].role, UnitRole::Train);
        assert_eq!(runner.units()[12].role, UnitRole::Test);
        assert_eq!(runner.units()[3].key(), "eon cpi train 3");
        assert_eq!(runner.remaining(), 16);
        assert!(!runner.is_complete());
    }

    #[test]
    fn run_to_completion_and_finish() {
        let mut campaign = ShardedCampaign::new(tiny_spec(), 1);
        assert_eq!(drain(&mut campaign), 16);
        assert!(campaign.is_complete());
        let evals = campaign.finish().unwrap();
        assert_eq!(evals.len(), 1);
        assert_eq!(evals[0].nmse_per_test.len(), 4);
        assert!(evals[0].degradation.is_pristine());
    }

    #[test]
    fn finish_before_completion_is_rejected() {
        let campaign = stepped(&tiny_spec(), 1);
        assert!(matches!(
            campaign.finish(),
            Err(CampaignError::Incomplete { remaining: 15 })
        ));
    }

    #[test]
    fn journal_roundtrip_restores_progress() {
        let spec = tiny_spec();
        let campaign = stepped(&spec, 5);
        let restored = CampaignRunner::resume(spec, &campaign.merged_journal()).unwrap();
        assert_eq!(restored.completed_count(), 5);
        assert_eq!(restored.remaining(), 11);
    }

    #[test]
    fn resume_drops_partial_tail_but_rejects_corrupt_complete_lines() {
        let spec = tiny_spec();
        let journal = stepped(&spec, 3).merged_journal();
        // A kill mid-write: the last line loses its tail (and newline).
        let cut = journal.len() - 10;
        let killed = &journal[..cut];
        let restored = CampaignRunner::resume(spec.clone(), killed).unwrap();
        assert_eq!(restored.completed_count(), 2);
        // But a *complete* line with garbage is corruption, not a kill.
        let corrupt = journal.replacen("unit eon", "unit zzz", 1);
        assert!(matches!(
            CampaignRunner::resume(spec, &corrupt),
            Err(CampaignError::UnknownUnit { .. })
        ));
    }

    #[test]
    fn resume_rejects_non_finite_and_short_traces() {
        let spec = tiny_spec();
        let journal = stepped(&spec, 1).merged_journal();
        let header_len = journal.find("unit").unwrap();
        let (header, unit_line) = journal.split_at(header_len);
        // Replace the first sample with NaN.
        let mut parts: Vec<&str> = unit_line.trim_end().split(' ').collect();
        parts[6] = "NaN";
        let poisoned = format!("{header}{}\n", parts.join(" "));
        assert!(matches!(
            CampaignRunner::resume(spec.clone(), &poisoned),
            Err(CampaignError::NonFinite { .. })
        ));
        // Drop one sample: complete line, wrong length.
        parts.remove(6);
        let short = format!("{header}{}\n", parts.join(" "));
        assert!(matches!(
            CampaignRunner::resume(spec, &short),
            Err(CampaignError::BadTraceLength {
                expected: 16,
                got: 15,
                ..
            })
        ));
    }

    #[test]
    fn resume_rejects_other_specs_and_garbage() {
        let spec = tiny_spec();
        let runner = CampaignRunner::new(spec.clone());
        let other = CampaignSpec::single(
            Benchmark::Mcf,
            Metric::Power,
            ExperimentConfig {
                seed: 999,
                ..spec.config.clone()
            },
        );
        assert!(matches!(
            CampaignRunner::resume(other, &runner.journal()),
            Err(CampaignError::SpecMismatch { .. })
        ));
        assert!(matches!(
            CampaignRunner::resume(spec.clone(), "hello\nworld\n"),
            Err(CampaignError::BadMagic)
        ));
        assert!(CampaignRunner::resume(spec, "").is_err());
    }

    #[test]
    fn killed_and_resumed_campaign_report_is_byte_identical() {
        let spec = tiny_spec();
        // Uninterrupted reference run.
        let reference = stepped(&spec, spec.unit_count());
        let ref_report = report::full_report("campaign", &reference.finish().unwrap());
        // Killed after 7 units, mid-line, then resumed from the journal.
        let journal = stepped(&spec, 7).merged_journal();
        let killed = &journal[..journal.len() - 3];
        let runner = CampaignRunner::resume(spec, killed).unwrap();
        assert_eq!(runner.completed_count(), 6);
        let mut resumed = ShardedCampaign::from_runner(runner, 1);
        assert_eq!(drain(&mut resumed), 10);
        let resumed_report = report::full_report("campaign", &resumed.finish().unwrap());
        assert_eq!(ref_report, resumed_report);
    }

    #[test]
    fn sharded_merge_is_byte_identical_to_sequential_for_any_shard_count() {
        let spec = tiny_spec();
        let want = stepped(&spec, spec.unit_count()).merged_journal();
        for shards in [2, 3, 5, 16, 17] {
            let mut sharded = ShardedCampaign::new(spec.clone(), shards);
            // Drain shards round-robin — any schedule reaches the same
            // merged bytes.
            loop {
                let mut progressed = false;
                for shard in 0..sharded.shards() {
                    progressed |= sharded.step(shard).is_some();
                }
                if !progressed {
                    break;
                }
            }
            assert!(sharded.is_complete());
            assert_eq!(sharded.merged_journal(), want, "{shards} shards diverged");
        }
    }

    #[test]
    fn shard_journals_roundtrip_with_torn_tails() {
        let spec = tiny_spec();
        let mut sharded = ShardedCampaign::new(spec.clone(), 3);
        for _ in 0..2 {
            for shard in 0..3 {
                sharded.step(shard);
            }
        }
        let mut rebuilt = ShardedCampaign::new(spec, 3);
        for shard in 0..3 {
            let text = sharded.shard_journal(shard);
            // Tear the tail of one sidecar, as a kill mid-write would.
            let text = if shard == 1 {
                &text[..text.len() - 9]
            } else {
                &text
            };
            let (declared, _) = rebuilt.ingest_shard_journal(text).unwrap();
            assert_eq!(declared, shard);
        }
        // Shard 1 lost its torn final unit; everything else survived.
        assert_eq!(rebuilt.completed_count(), 5);
    }

    #[test]
    fn ingest_refuses_foreign_shard_counts_and_bad_indices() {
        let spec = tiny_spec();
        let four = ShardedCampaign::new(spec.clone(), 4);
        let mut two = ShardedCampaign::new(spec.clone(), 2);
        assert!(matches!(
            two.ingest_shard_journal(&four.shard_journal(0)),
            Err(CampaignError::ShardMismatch {
                expected: 2,
                found: 4,
            })
        ));
        let mut corrupt = ShardedCampaign::new(spec, 2);
        let text = two.shard_journal(0).replace("shard 0 of 2", "shard 7 of 2");
        assert!(matches!(
            corrupt.ingest_shard_journal(&text),
            Err(CampaignError::Malformed { line: 3, .. })
        ));
    }

    #[test]
    fn shard_line_parses_strictly() {
        assert_eq!(parse_shard_line("shard 3 of 8"), Some((3, 8)));
        assert_eq!(parse_shard_line("shard 3 of"), None);
        assert_eq!(parse_shard_line("shard x of 8"), None);
        assert_eq!(parse_shard_line("shard 3 of 8 extra"), None);
        assert_eq!(parse_shard_line("unit eon cpi train 0"), None);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_knob() {
        let spec = tiny_spec();
        let base = spec.fingerprint();
        assert_eq!(base, tiny_spec().fingerprint());
        let mut other = spec.clone();
        other.config.seed ^= 1;
        assert_ne!(base, other.fingerprint());
        let mut other = spec.clone();
        other.benchmarks.push(Benchmark::Gcc);
        assert_ne!(base, other.fingerprint());
        let mut other = spec;
        other.config.recovery.ridge_escalations += 1;
        assert_ne!(base, other.fingerprint());
    }
}
