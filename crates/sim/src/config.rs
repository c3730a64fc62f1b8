//! Machine configuration: the Table 1 baseline and the Table 2 knobs.

/// Configuration of the issue-queue Dynamic Vulnerability Management
/// policy (paper §5, Figure 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvmConfig {
    /// IQ-AVF trigger threshold (the "DVM target"); the paper evaluates
    /// 0.2, 0.3 and 0.5.
    pub threshold: f64,
    /// Initial ratio of waiting to ready instructions allowed in the IQ.
    pub initial_wq_ratio: f64,
}

impl Default for DvmConfig {
    fn default() -> Self {
        DvmConfig {
            threshold: 0.3,
            initial_wq_ratio: 4.0,
        }
    }
}

/// A simulated machine configuration.
///
/// The nine fields up to `dl1_lat` are the paper's Table 2 design-space
/// knobs; the remainder are Table 1 baseline structures that stay fixed
/// during exploration. Fetch, issue and commit width share `fetch_width`
/// ("8-wide fetch/issue/commit").
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Fetch/issue/commit width (instructions per cycle).
    pub fetch_width: u32,
    /// Reorder-buffer entries.
    pub rob_size: u32,
    /// Issue-queue entries.
    pub iq_size: u32,
    /// Load/store-queue entries.
    pub lsq_size: u32,
    /// Unified L2 capacity in KB.
    pub l2_kb: u32,
    /// L2 hit latency in cycles.
    pub l2_lat: u32,
    /// L1 instruction-cache capacity in KB.
    pub il1_kb: u32,
    /// L1 data-cache capacity in KB.
    pub dl1_kb: u32,
    /// L1 data-cache hit latency in cycles.
    pub dl1_lat: u32,

    // --- Fixed Table 1 structures ---
    /// Main-memory access latency in cycles.
    pub mem_lat: u32,
    /// Direction-predictor table entries (power of two).
    pub bp_entries: u32,
    /// gshare global-history bits; `0` makes the predictor bimodal
    /// (per-PC counters only).
    pub bp_history_bits: u32,
    /// BTB entries.
    pub btb_entries: u32,
    /// BTB associativity.
    pub btb_ways: u32,
    /// Return-address-stack entries (Table 1). Recorded and printed, but
    /// not modelled: the synthetic traces mark no calls or returns.
    pub ras_entries: u32,
    /// L1 instruction-cache associativity.
    pub il1_ways: u32,
    /// L1 instruction-cache line size in bytes.
    pub il1_line: u32,
    /// L1 data-cache associativity.
    pub dl1_ways: u32,
    /// L1 data-cache line size in bytes.
    pub dl1_line: u32,
    /// L1 data-cache ports.
    pub dl1_ports: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L2 line size in bytes.
    pub l2_line: u32,
    /// ITLB entries.
    pub itlb_entries: u32,
    /// DTLB entries.
    pub dtlb_entries: u32,
    /// TLB associativity (both TLBs).
    pub tlb_ways: u32,
    /// TLB miss penalty in cycles.
    pub tlb_miss_lat: u32,
    /// Integer ALUs.
    pub int_alu_units: u32,
    /// Integer multiply/divide units.
    pub int_mul_units: u32,
    /// FP ALUs.
    pub fp_alu_units: u32,
    /// FP multiply/divide/sqrt units.
    pub fp_mul_units: u32,
    /// Front-end depth in cycles (fetch to dispatch).
    pub front_depth: u32,
    /// Extra pipeline-refill cycles after a branch misprediction resolves.
    pub mispredict_extra: u32,
    /// Optional IQ DVM policy.
    pub dvm: Option<DvmConfig>,
    /// Optional fetch-throttling DTM policy.
    pub dtm: Option<crate::dtm::DtmConfig>,
    /// Enable next-line prefetching into both L1 caches (extension; the
    /// paper's machine has no prefetcher, so the baseline disables it).
    pub prefetch_next_line: bool,
    /// Enable store-to-load forwarding from the store buffer (extension;
    /// disabled in the baseline so recorded experiments stay
    /// reproducible).
    pub store_forwarding: bool,
}

impl MachineConfig {
    /// The paper's Table 1 baseline machine.
    pub fn baseline() -> Self {
        MachineConfig {
            fetch_width: 8,
            rob_size: 96,
            iq_size: 96,
            lsq_size: 48,
            l2_kb: 2048,
            l2_lat: 12,
            il1_kb: 32,
            dl1_kb: 64,
            dl1_lat: 1,
            mem_lat: 200,
            bp_entries: 2048,
            bp_history_bits: 10,
            btb_entries: 2048,
            btb_ways: 4,
            ras_entries: 32,
            il1_ways: 2,
            il1_line: 32,
            dl1_ways: 4,
            dl1_line: 64,
            dl1_ports: 2,
            l2_ways: 4,
            l2_line: 128,
            itlb_entries: 128,
            dtlb_entries: 256,
            tlb_ways: 4,
            tlb_miss_lat: 200,
            int_alu_units: 8,
            int_mul_units: 4,
            fp_alu_units: 8,
            fp_mul_units: 4,
            front_depth: 3,
            mispredict_extra: 3,
            dvm: None,
            dtm: None,
            prefetch_next_line: false,
            store_forwarding: false,
        }
    }

    /// Applies the nine Table 2 knobs in design-space order
    /// `[Fetch_width, ROB_size, IQ_size, LSQ_size, L2_size, L2_lat,
    /// il1_size, dl1_size, dl1_lat]` on top of the baseline. A tenth
    /// value, if present, is the DVM parameter from the §5 case study:
    /// `0` disables the policy, any positive value enables it with that
    /// trigger threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `knobs.len()` is 9 or 10, or if any knob is
    /// non-positive.
    pub fn from_design_values(knobs: &[f64]) -> Self {
        assert!(
            knobs.len() == 9 || knobs.len() == 10,
            "expected 9 or 10 design values, got {}",
            knobs.len()
        );
        for (i, &v) in knobs.iter().take(9).enumerate() {
            assert!(v > 0.0, "design value {i} must be positive, got {v}");
        }
        let mut c = MachineConfig::baseline();
        c.fetch_width = knobs[0] as u32;
        c.rob_size = knobs[1] as u32;
        c.iq_size = knobs[2] as u32;
        c.lsq_size = knobs[3] as u32;
        c.l2_kb = knobs[4] as u32;
        c.l2_lat = knobs[5] as u32;
        c.il1_kb = knobs[6] as u32;
        c.dl1_kb = knobs[7] as u32;
        c.dl1_lat = knobs[8] as u32;
        if knobs.len() == 10 && knobs[9] > 0.0 {
            c.dvm = Some(DvmConfig {
                threshold: knobs[9],
                ..DvmConfig::default()
            });
        }
        c
    }

    /// Enables the IQ DVM policy with the given configuration.
    pub fn with_dvm(mut self, dvm: DvmConfig) -> Self {
        self.dvm = Some(dvm);
        self
    }

    /// Enables the fetch-throttling DTM policy with the given
    /// configuration.
    pub fn with_dtm(mut self, dtm: crate::dtm::DtmConfig) -> Self {
        self.dtm = Some(dtm);
        self
    }

    /// Enables next-line prefetching in both L1 caches.
    pub fn with_next_line_prefetch(mut self) -> Self {
        self.prefetch_next_line = true;
        self
    }

    /// Enables store-to-load forwarding from the store buffer.
    pub fn with_store_forwarding(mut self) -> Self {
        self.store_forwarding = true;
        self
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = MachineConfig::baseline();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.rob_size, 96);
        assert_eq!(c.iq_size, 96);
        assert_eq!(c.lsq_size, 48);
        assert_eq!(c.l2_kb, 2048);
        assert_eq!(c.l2_lat, 12);
        assert_eq!(c.il1_kb, 32);
        assert_eq!(c.dl1_kb, 64);
        assert_eq!(c.dl1_lat, 1);
        assert_eq!(c.mem_lat, 200);
        assert_eq!(c.bp_entries, 2048);
        assert_eq!(c.ras_entries, 32);
        assert!(c.dvm.is_none());
    }

    #[test]
    fn from_design_values_applies_knobs() {
        let c = MachineConfig::from_design_values(&[
            4.0, 128.0, 64.0, 32.0, 1024.0, 14.0, 16.0, 32.0, 2.0,
        ]);
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.iq_size, 64);
        assert_eq!(c.lsq_size, 32);
        assert_eq!(c.l2_kb, 1024);
        assert_eq!(c.l2_lat, 14);
        assert_eq!(c.il1_kb, 16);
        assert_eq!(c.dl1_kb, 32);
        assert_eq!(c.dl1_lat, 2);
        assert!(c.dvm.is_none());
    }

    #[test]
    fn tenth_value_toggles_dvm() {
        let mut v = vec![8.0, 96.0, 96.0, 48.0, 2048.0, 12.0, 32.0, 64.0, 1.0];
        v.push(1.0);
        assert!(MachineConfig::from_design_values(&v).dvm.is_some());
        v[9] = 0.0;
        assert!(MachineConfig::from_design_values(&v).dvm.is_none());
    }

    #[test]
    #[should_panic(expected = "expected 9 or 10")]
    fn wrong_knob_count_panics() {
        let _ = MachineConfig::from_design_values(&[1.0; 5]);
    }
}
