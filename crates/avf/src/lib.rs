//! Architectural Vulnerability Factor analysis.
//!
//! Implements the ACE-based AVF methodology of Mukherjee et al. (MICRO
//! 2003) and Biswas et al. (ISCA 2005) — the paper's references \[19, 20\] —
//! on top of the residency integrals the timing model collects.
//!
//! A structure's AVF over an interval is the fraction of its bit-cycles
//! occupied by ACE (Architecturally Correct Execution) state:
//!
//! ```text
//! AVF = sum(ACE-entry-residency-cycles) / (entries * interval-cycles)
//! ```
//!
//! Idle entries are un-ACE by construction; dynamically dead instructions
//! contribute only a fraction of their bits (opcode/control fields remain
//! ACE even when the result is dead) — the timing model applies that
//! weighting when it accumulates `*_ace` integrals.
//!
//! # Examples
//!
//! ```
//! use dynawave_avf::AvfModel;
//! use dynawave_sim::{MachineConfig, SimOptions, Simulator};
//! use dynawave_workloads::Benchmark;
//!
//! let config = MachineConfig::baseline();
//! let run = Simulator::new(config.clone()).run(
//!     Benchmark::Vpr,
//!     &SimOptions { samples: 4, interval_instructions: 2000, seed: 7 },
//! );
//! let avf = AvfModel::new(&config);
//! let trace = avf.iq_avf_trace(&run);
//! assert!(trace.iter().all(|&v| (0.0..=1.0).contains(&v)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use dynawave_sim::{IntervalStats, MachineConfig, RunResult};

/// Which hardware structure an AVF query refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Issue queue (the DVM case study's target).
    IssueQueue,
    /// Reorder buffer.
    Rob,
    /// Load/store queue.
    Lsq,
}

/// Per-interval AVF report across the tracked structures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvfReport {
    /// Issue-queue AVF in `[0, 1]`.
    pub iq: f64,
    /// Reorder-buffer AVF in `[0, 1]`.
    pub rob: f64,
    /// Load/store-queue AVF in `[0, 1]`.
    pub lsq: f64,
}

impl AvfReport {
    /// Bit-capacity-weighted combined AVF of the tracked structures.
    ///
    /// Weights approximate relative entry widths: an IQ entry carries a
    /// waiting instruction (~128 bits), a ROB entry result + bookkeeping
    /// (~128 bits), an LSQ entry address + data (~128 bits) — equal widths,
    /// so the combination weights by entry count.
    pub fn combined(&self, config: &MachineConfig) -> f64 {
        let wi = f64::from(config.iq_size);
        let wr = f64::from(config.rob_size);
        let wl = f64::from(config.lsq_size);
        (self.iq * wi + self.rob * wr + self.lsq * wl) / (wi + wr + wl)
    }
}

/// AVF calculator bound to one machine configuration.
#[derive(Debug, Clone)]
pub struct AvfModel {
    iq_size: f64,
    rob_size: f64,
    lsq_size: f64,
}

impl AvfModel {
    /// Builds the model for `config`.
    pub fn new(config: &MachineConfig) -> Self {
        AvfModel {
            iq_size: f64::from(config.iq_size),
            rob_size: f64::from(config.rob_size),
            lsq_size: f64::from(config.lsq_size),
        }
    }

    /// AVF of one structure over one interval; `0.0` for empty intervals.
    pub fn interval_avf(&self, s: &IntervalStats, structure: Structure) -> f64 {
        if s.cycles == 0 {
            return 0.0;
        }
        let cycles = s.cycles as f64;
        let (ace, size) = match structure {
            Structure::IssueQueue => (s.iq_ace, self.iq_size),
            Structure::Rob => (s.rob_ace, self.rob_size),
            Structure::Lsq => (s.lsq_ace, self.lsq_size),
        };
        (ace / (size * cycles)).clamp(0.0, 1.0)
    }

    /// Full per-interval report.
    pub fn interval_report(&self, s: &IntervalStats) -> AvfReport {
        AvfReport {
            iq: self.interval_avf(s, Structure::IssueQueue),
            rob: self.interval_avf(s, Structure::Rob),
            lsq: self.interval_avf(s, Structure::Lsq),
        }
    }

    /// AVF trace for one structure: one value per interval of `run`.
    pub fn avf_trace(&self, run: &RunResult, structure: Structure) -> Vec<f64> {
        run.intervals
            .iter()
            .map(|s| self.interval_avf(s, structure))
            .collect()
    }

    /// Combined AVF trace ([`AvfReport::combined`]): one value per
    /// interval of `run`, a run of `config` (the Figure 8c metric).
    pub fn combined_trace(&self, run: &RunResult, config: &MachineConfig) -> Vec<f64> {
        run.intervals
            .iter()
            .map(|s| self.interval_report(s).combined(config))
            .collect()
    }

    /// Issue-queue AVF trace (the §5 case-study metric).
    pub fn iq_avf_trace(&self, run: &RunResult) -> Vec<f64> {
        self.avf_trace(run, Structure::IssueQueue)
    }

    /// Cycle-weighted average AVF of a structure over the whole run.
    pub fn average_avf(&self, run: &RunResult, structure: Structure) -> f64 {
        let total: u64 = run.intervals.iter().map(|i| i.cycles).sum();
        if total == 0 {
            return 0.0;
        }
        run.intervals
            .iter()
            .map(|i| self.interval_avf(i, structure) * i.cycles as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynawave_sim::{DvmConfig, SimOptions, Simulator};
    use dynawave_workloads::Benchmark;

    fn run(cfg: &MachineConfig, b: Benchmark) -> RunResult {
        Simulator::new(cfg.clone()).run(
            b,
            &SimOptions {
                samples: 8,
                interval_instructions: 2000,
                seed: 9,
            },
        )
    }

    #[test]
    fn avf_bounded_and_nonzero() {
        let cfg = MachineConfig::baseline();
        let model = AvfModel::new(&cfg);
        for b in [Benchmark::Vpr, Benchmark::Mcf, Benchmark::Eon] {
            let r = run(&cfg, b);
            for s in [Structure::IssueQueue, Structure::Rob, Structure::Lsq] {
                let avg = model.average_avf(&r, s);
                assert!((0.0..=1.0).contains(&avg), "{b}/{s:?}: {avg}");
            }
            assert!(
                model.average_avf(&r, Structure::Rob) > 0.01,
                "{b} ROB AVF ~ 0"
            );
        }
    }

    #[test]
    fn empty_interval_avf_zero() {
        let model = AvfModel::new(&MachineConfig::baseline());
        assert_eq!(
            model.interval_avf(&IntervalStats::default(), Structure::IssueQueue),
            0.0
        );
    }

    #[test]
    fn dvm_lowers_iq_avf() {
        let base = MachineConfig::baseline();
        let dvm = base.clone().with_dvm(DvmConfig {
            threshold: 0.1,
            initial_wq_ratio: 1.0,
        });
        let m_base = AvfModel::new(&base);
        let m_dvm = AvfModel::new(&dvm);
        let plain = m_base.average_avf(&run(&base, Benchmark::Mcf), Structure::IssueQueue);
        let managed = m_dvm.average_avf(&run(&dvm, Benchmark::Mcf), Structure::IssueQueue);
        assert!(managed < plain, "{managed} >= {plain}");
    }

    #[test]
    fn avf_varies_over_time() {
        let cfg = MachineConfig::baseline();
        let model = AvfModel::new(&cfg);
        let trace = model.iq_avf_trace(&run(&cfg, Benchmark::Vpr));
        let lo = trace.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = trace.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi > lo, "flat AVF trace");
    }

    #[test]
    fn combined_trace_lies_between_its_structures() {
        let cfg = MachineConfig::baseline();
        let model = AvfModel::new(&cfg);
        let r = run(&cfg, Benchmark::Mcf);
        let combined = model.combined_trace(&r, &cfg);
        assert_eq!(combined.len(), r.intervals.len());
        for (v, s) in combined.iter().zip(&r.intervals) {
            let parts = [Structure::IssueQueue, Structure::Rob, Structure::Lsq]
                .map(|st| model.interval_avf(s, st));
            let lo = parts.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = parts.iter().cloned().fold(0.0f64, f64::max);
            assert!((lo..=hi).contains(v), "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn avf_is_residency_over_capacity() {
        let cfg = MachineConfig::baseline();
        let model = AvfModel::new(&cfg);
        let s = IntervalStats {
            cycles: 100,
            iq_ace: f64::from(cfg.iq_size) * 50.0, // half the bit-cycles ACE
            ..IntervalStats::default()
        };
        assert!((model.interval_avf(&s, Structure::IssueQueue) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn avf_clamps_to_one() {
        let cfg = MachineConfig::baseline();
        let model = AvfModel::new(&cfg);
        let s = IntervalStats {
            cycles: 10,
            rob_ace: 1e12,
            ..IntervalStats::default()
        };
        assert_eq!(model.interval_avf(&s, Structure::Rob), 1.0);
    }

    #[test]
    fn smaller_structure_same_residency_higher_avf() {
        let mut small = MachineConfig::baseline();
        small.iq_size = 32;
        let big = MachineConfig::baseline();
        let s = IntervalStats {
            cycles: 100,
            iq_ace: 1600.0,
            ..IntervalStats::default()
        };
        let a_small = AvfModel::new(&small).interval_avf(&s, Structure::IssueQueue);
        let a_big = AvfModel::new(&big).interval_avf(&s, Structure::IssueQueue);
        assert!(a_small > a_big);
    }

    #[test]
    fn dead_instructions_lower_avf() {
        // Same machine and workload, but a deadness-heavy custom profile
        // must show lower IQ AVF than a deadness-free one.
        use dynawave_workloads::{BenchmarkProfile, TraceGenerator};
        let sim_opts = SimOptions {
            samples: 8,
            interval_instructions: 1500,
            seed: 21,
        };
        let run_with_dead = |frac: f64| {
            let profile = BenchmarkProfile::builder("deadness-probe")
                .dead_fraction(frac)
                .build();
            let trace = TraceGenerator::from_profile(
                profile,
                sim_opts.samples as u64 * sim_opts.interval_instructions,
                sim_opts.seed,
            );
            let cfg = MachineConfig::baseline();
            let run = Simulator::new(cfg.clone()).run_trace(trace, &sim_opts);
            AvfModel::new(&cfg).average_avf(&run, Structure::IssueQueue)
        };
        let lively = run_with_dead(0.0);
        let deadish = run_with_dead(0.6);
        assert!(
            deadish < lively,
            "dead-heavy {deadish} not below dead-free {lively}"
        );
    }

    #[test]
    fn combined_report_is_weighted_mean() {
        let cfg = MachineConfig::baseline();
        let rep = AvfReport {
            iq: 0.2,
            rob: 0.4,
            lsq: 0.6,
        };
        let c = rep.combined(&cfg);
        assert!(c > 0.2 && c < 0.6);
        // Equal AVFs combine to the same value.
        let eq = AvfReport {
            iq: 0.5,
            rob: 0.5,
            lsq: 0.5,
        };
        assert!((eq.combined(&cfg) - 0.5).abs() < 1e-12);
    }
}
