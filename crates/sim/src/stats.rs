//! Per-interval simulation statistics.

use crate::config::MachineConfig;

/// Counters and residency integrals collected over one sample interval.
///
/// The activity counters feed the Wattch-style power model
/// (`dynawave-power`); the ACE-residency integrals feed the AVF model
/// (`dynawave-avf`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalStats {
    /// Instructions committed in the interval.
    pub instructions: u64,
    /// Cycles the interval spanned.
    pub cycles: u64,

    // --- Front end ---
    /// Instruction-cache accesses (one per fetched line).
    pub il1_accesses: u64,
    /// Instruction-cache misses.
    pub il1_misses: u64,
    /// ITLB misses.
    pub itlb_misses: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branch direction mispredictions.
    pub mispredicts: u64,
    /// BTB misses on taken branches.
    pub btb_misses: u64,

    // --- Execution ---
    /// Integer ALU operations.
    pub int_alu_ops: u64,
    /// Integer multiply/divide operations.
    pub int_mul_ops: u64,
    /// FP ALU operations.
    pub fp_alu_ops: u64,
    /// FP multiply/divide operations.
    pub fp_mul_ops: u64,
    /// Instructions issued (== instructions, in this model).
    pub issues: u64,

    // --- Memory hierarchy ---
    /// L1D accesses (loads + stores).
    pub dl1_accesses: u64,
    /// L1D misses.
    pub dl1_misses: u64,
    /// DTLB misses.
    pub dtlb_misses: u64,
    /// L2 accesses (L1I + L1D misses).
    pub l2_accesses: u64,
    /// L2 misses (main-memory accesses).
    pub l2_misses: u64,

    // --- Structure occupancy (entry-cycles over the interval) ---
    /// Issue-queue occupancy integral.
    pub iq_occupancy: f64,
    /// Issue-queue ACE-bit residency integral.
    pub iq_ace: f64,
    /// Reorder-buffer occupancy integral.
    pub rob_occupancy: f64,
    /// Reorder-buffer ACE-bit residency integral.
    pub rob_ace: f64,
    /// Load-store-queue occupancy integral.
    pub lsq_occupancy: f64,
    /// Load-store-queue ACE-bit residency integral.
    pub lsq_ace: f64,

    // --- DVM ---
    /// Cycles dispatch was stalled by the DVM policy.
    pub dvm_stall_cycles: u64,
    /// Number of DVM trigger activations in the interval.
    pub dvm_triggers: u64,
    /// Evaluation windows the DTM fetch throttle spent engaged.
    pub dtm_engaged_windows: u64,
    /// Next-line prefetch fills issued (L1I + L1D).
    pub prefetch_fills: u64,
    /// Loads satisfied by store-to-load forwarding from the store buffer.
    pub store_forwards: u64,
}

impl IntervalStats {
    /// Accumulates another interval's counters into this one (used to
    /// coarsen sampling granularity without re-simulation).
    pub fn absorb(&mut self, other: &IntervalStats) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.il1_accesses += other.il1_accesses;
        self.il1_misses += other.il1_misses;
        self.itlb_misses += other.itlb_misses;
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
        self.btb_misses += other.btb_misses;
        self.int_alu_ops += other.int_alu_ops;
        self.int_mul_ops += other.int_mul_ops;
        self.fp_alu_ops += other.fp_alu_ops;
        self.fp_mul_ops += other.fp_mul_ops;
        self.issues += other.issues;
        self.dl1_accesses += other.dl1_accesses;
        self.dl1_misses += other.dl1_misses;
        self.dtlb_misses += other.dtlb_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.iq_occupancy += other.iq_occupancy;
        self.iq_ace += other.iq_ace;
        self.rob_occupancy += other.rob_occupancy;
        self.rob_ace += other.rob_ace;
        self.lsq_occupancy += other.lsq_occupancy;
        self.lsq_ace += other.lsq_ace;
        self.dvm_stall_cycles += other.dvm_stall_cycles;
        self.dvm_triggers += other.dvm_triggers;
        self.dtm_engaged_windows += other.dtm_engaged_windows;
        self.prefetch_fills += other.prefetch_fills;
        self.store_forwards += other.store_forwards;
    }

    /// Cycles per instruction for the interval.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// The outcome of one simulation run: the configuration, the per-interval
/// statistics and the total cycle count.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The configuration that was simulated.
    pub config: MachineConfig,
    /// Per-interval statistics, in execution order.
    pub intervals: Vec<IntervalStats>,
}

impl RunResult {
    /// CPI trace: one value per interval.
    pub fn cpi_trace(&self) -> Vec<f64> {
        self.intervals.iter().map(IntervalStats::cpi).collect()
    }

    /// Total cycles across all intervals.
    pub fn total_cycles(&self) -> u64 {
        self.intervals.iter().map(|i| i.cycles).sum()
    }

    /// Total committed instructions across all intervals.
    pub fn total_instructions(&self) -> u64 {
        self.intervals.iter().map(|i| i.instructions).sum()
    }

    /// Aggregate CPI over the whole run.
    pub fn aggregate_cpi(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / instr as f64
        }
    }

    /// Merges every `factor` consecutive intervals into one, producing the
    /// run that a simulation with `factor`-times-longer sample intervals
    /// would have recorded (timing is sampling-independent, so the result
    /// is exact, not an approximation).
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0` or does not divide the interval count.
    pub fn coarsen(&self, factor: usize) -> RunResult {
        assert!(factor > 0, "coarsening factor must be positive");
        assert_eq!(
            self.intervals.len() % factor,
            0,
            "factor {} does not divide {} intervals",
            factor,
            self.intervals.len()
        );
        let intervals = self
            .intervals
            .chunks(factor)
            .map(|chunk| {
                let mut merged = chunk[0].clone();
                for s in &chunk[1..] {
                    merged.absorb(s);
                }
                merged
            })
            .collect();
        RunResult {
            config: self.config.clone(),
            intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_and_ipc() {
        let s = IntervalStats {
            instructions: 100,
            cycles: 250,
            ..IntervalStats::default()
        };
        assert!((s.cpi() - 2.5).abs() < 1e-12);
        assert!((1.0 / s.cpi() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let s = IntervalStats::default();
        assert_eq!(s.cpi(), 0.0);
        let r = RunResult {
            config: MachineConfig::baseline(),
            intervals: Vec::new(),
        };
        assert_eq!(r.aggregate_cpi(), 0.0);
    }

    #[test]
    fn coarsen_preserves_totals() {
        let mk = |i, c| IntervalStats {
            instructions: i,
            cycles: c,
            dl1_misses: 3,
            iq_ace: 10.0,
            ..IntervalStats::default()
        };
        let r = RunResult {
            config: MachineConfig::baseline(),
            intervals: vec![mk(100, 150), mk(100, 250), mk(100, 100), mk(100, 300)],
        };
        let c = r.coarsen(2);
        assert_eq!(c.intervals.len(), 2);
        assert_eq!(c.intervals[0].instructions, 200);
        assert_eq!(c.intervals[0].cycles, 400);
        assert_eq!(c.intervals[0].dl1_misses, 6);
        assert_eq!(c.intervals[0].iq_ace, 20.0);
        assert_eq!(c.total_cycles(), r.total_cycles());
        assert_eq!(c.aggregate_cpi(), r.aggregate_cpi());
        // Factor 1 is the identity.
        assert_eq!(r.coarsen(1).cpi_trace(), r.cpi_trace());
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn coarsen_requires_divisor() {
        let r = RunResult {
            config: MachineConfig::baseline(),
            intervals: vec![IntervalStats::default(); 3],
        };
        let _ = r.coarsen(2);
    }

    #[test]
    fn run_result_aggregation() {
        let mk = |i, c| IntervalStats {
            instructions: i,
            cycles: c,
            ..IntervalStats::default()
        };
        let r = RunResult {
            config: MachineConfig::baseline(),
            intervals: vec![mk(100, 100), mk(100, 300)],
        };
        assert_eq!(r.total_cycles(), 400);
        assert_eq!(r.total_instructions(), 200);
        assert!((r.aggregate_cpi() - 2.0).abs() < 1e-12);
        assert_eq!(r.cpi_trace(), vec![1.0, 3.0]);
    }
}
