//! The one-pass out-of-order timing model.

use crate::branch::{Btb, Gshare};
use crate::cache::{Cache, Tlb};
use crate::config::MachineConfig;
use crate::dtm::DtmState;
use crate::dvm::DvmState;
use crate::resources::{CompletionWindow, OccupancyRing, ServerPool};
use crate::stats::{IntervalStats, RunResult};
use dynawave_workloads::{Benchmark, Instruction, OpClass, TraceGenerator};

/// Dependency window size; must exceed the workload generator's maximum
/// dependency distance.
const DEP_WINDOW: usize = 512;

/// Fraction of a dynamically dead instruction's bits that remain ACE
/// (opcode/control fields still matter even when the result is dead).
const DEAD_ACE_FRACTION: f64 = 0.12;

/// Fetch-bubble cycles charged for a BTB miss on a taken branch.
const BTB_MISS_BUBBLE: u64 = 2;

/// Cycles between DTM trigger evaluations.
const DTM_WINDOW_CYCLES: u64 = 256;

/// Direct-mapped store-buffer tracker size (power of two).
const STORE_TRACKER: usize = 256;

/// Options controlling one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Number of sample intervals to produce (the paper uses 128).
    pub samples: usize,
    /// Instructions per sample interval.
    pub interval_instructions: u64,
    /// Workload seed (the "input set").
    pub seed: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            samples: 128,
            interval_instructions: 2048,
            seed: 0xD15EA5E,
        }
    }
}

/// The simulator: owns a machine configuration, runs workloads on it.
///
/// See the crate docs for the modelling approach.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
}

impl Simulator {
    /// Creates a simulator for `config`.
    pub fn new(config: MachineConfig) -> Self {
        Simulator { config }
    }

    /// Runs `benchmark` from a cold machine and returns per-interval
    /// statistics: [`Simulator::run_with_warmup`] with no warm-up. The
    /// paper's dynamics traces include whatever state the interval starts
    /// with, and the predictive models see the same cold start at every
    /// configuration.
    ///
    /// The workload trace is a pure function of `(benchmark,
    /// opts.samples * opts.interval_instructions, opts.seed)`, so two runs
    /// with different configurations see the identical instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if `opts.samples == 0` or `opts.interval_instructions == 0`.
    pub fn run(&self, benchmark: Benchmark, opts: &SimOptions) -> RunResult {
        self.run_with_warmup(benchmark, opts, 0)
    }

    /// Executes `warmup_instructions` first (warming caches, predictors
    /// and queues, the SimPoint fast-forward analogue) and discards their
    /// statistics, then samples as [`Simulator::run`]. The sampled region
    /// covers the instructions *after* the warm-up, so two configurations
    /// still observe the same code.
    ///
    /// # Panics
    ///
    /// As for [`Simulator::run`].
    pub fn run_with_warmup(
        &self,
        benchmark: Benchmark,
        opts: &SimOptions,
        warmup_instructions: u64,
    ) -> RunResult {
        assert!(opts.samples > 0, "need at least one sample interval");
        assert!(
            opts.interval_instructions > 0,
            "need a positive interval length"
        );
        let total = warmup_instructions + opts.samples as u64 * opts.interval_instructions;
        let mut trace = TraceGenerator::new(benchmark, total, opts.seed);
        let mut engine = Engine::new(&self.config);
        let mut scratch = IntervalStats::default();
        // The generator produces warmup + samples * interval instructions,
        // so this prefix always exists; take() makes that panic-free.
        for instr in trace.by_ref().take(warmup_instructions as usize) {
            engine.step(&instr, &mut scratch);
        }
        // Close the warm-up as a discarded interval, so its DVM stalls and
        // DTM windows are not reported in the first sampled interval.
        engine.close_interval(&mut scratch, &mut 0);
        self.run_trace_on_engine(engine, trace, opts)
    }

    /// Runs an explicit instruction stream (custom workloads / tests).
    /// A trailing partial interval (stream length not a multiple of
    /// `opts.interval_instructions`) is recorded too.
    pub fn run_trace<I>(&self, trace: I, opts: &SimOptions) -> RunResult
    where
        I: IntoIterator<Item = Instruction>,
    {
        self.run_trace_on_engine(Engine::new(&self.config), trace, opts)
    }

    /// Shared core of [`Simulator::run_trace`] and
    /// [`Simulator::run_with_warmup`]: samples `trace` on an existing
    /// (possibly pre-warmed) engine.
    fn run_trace_on_engine<I>(&self, mut engine: Engine, trace: I, opts: &SimOptions) -> RunResult
    where
        I: IntoIterator<Item = Instruction>,
    {
        let _span = dynawave_obs::span("sim.run_trace");
        let mut intervals = Vec::with_capacity(opts.samples);
        let mut current = IntervalStats::default();
        let mut interval_start = engine.last_commit;
        // DVM trigger evaluation period: sample_interval / 5, in committed
        // instructions (a cycle-domain proxy with bounded skew).
        let dvm_period = (opts.interval_instructions / 5).max(1);
        let mut since_dvm_update = 0u64;

        for instr in trace {
            engine.step(&instr, &mut current);
            current.instructions += 1;
            since_dvm_update += 1;

            if since_dvm_update >= dvm_period {
                since_dvm_update = 0;
                if let Some(dvm) = engine.dvm.as_mut() {
                    dvm.periodic_update(engine.last_commit, engine.cumulative_iq_ace);
                }
            }

            if current.instructions >= opts.interval_instructions {
                engine.close_interval(&mut current, &mut interval_start);
                intervals.push(std::mem::take(&mut current));
            }
        }
        if current.instructions > 0 {
            engine.close_interval(&mut current, &mut interval_start);
            intervals.push(current);
        }
        if dynawave_obs::is_enabled() {
            dynawave_obs::counter_add("sim.intervals_retired", intervals.len() as u64);
            let committed: u64 = intervals.iter().map(|i| i.instructions).sum();
            dynawave_obs::counter_add("sim.instructions_committed", committed);
        }
        RunResult {
            config: self.config.clone(),
            intervals,
        }
    }
}

/// Internal per-run microarchitectural state.
struct Engine {
    // Front end.
    il1: Cache,
    itlb: Tlb,
    predictor: Gshare,
    btb: Btb,
    fetch_pool: ServerPool,
    fetch_ready: u64,
    last_line: u64,
    line_shift: u32,
    // Structures.
    rob: OccupancyRing,
    iq: OccupancyRing,
    lsq: OccupancyRing,
    window: CompletionWindow,
    // Back end.
    issue_pool: ServerPool,
    commit_pool: ServerPool,
    int_alu: ServerPool,
    int_mul: ServerPool,
    fp_alu: ServerPool,
    fp_mul: ServerPool,
    dl1_ports: ServerPool,
    dl1: Cache,
    dtlb: Tlb,
    l2: Cache,
    last_commit: u64,
    // Config scalars.
    front_depth: u64,
    mispredict_extra: u64,
    dl1_lat: u64,
    l2_lat: u64,
    mem_lat: u64,
    tlb_miss_lat: u64,
    // DVM.
    dvm: Option<DvmState>,
    cumulative_iq_ace: f64,
    reported_triggers: u64,
    reported_stalls: u64,
    // DTM.
    dtm: Option<DtmState>,
    reported_engaged: u64,
    prefetch: bool,
    il1_line_bytes: u64,
    dl1_line_bytes: u64,
    // Store-to-load forwarding: direct-mapped map of recent store
    // addresses to (instruction index, completion cycle).
    store_addrs: Vec<u64>,
    store_meta: Vec<(u64, u64)>,
    instr_index: u64,
    lsq_span: u64,
    forwarding: bool,
}

impl Engine {
    fn new(c: &MachineConfig) -> Self {
        Engine {
            il1: Cache::new(u64::from(c.il1_kb) * 1024, c.il1_ways, c.il1_line),
            itlb: Tlb::new(c.itlb_entries, c.tlb_ways),
            predictor: Gshare::new(c.bp_entries, c.bp_history_bits),
            btb: Btb::new(c.btb_entries, c.btb_ways),
            fetch_pool: ServerPool::new(c.fetch_width),
            fetch_ready: 0,
            last_line: u64::MAX,
            line_shift: c.il1_line.trailing_zeros(),
            rob: OccupancyRing::new(c.rob_size),
            iq: OccupancyRing::new(c.iq_size),
            lsq: OccupancyRing::new(c.lsq_size),
            window: CompletionWindow::new(DEP_WINDOW),
            issue_pool: ServerPool::new(c.fetch_width),
            commit_pool: ServerPool::new(c.fetch_width),
            int_alu: ServerPool::new(c.int_alu_units),
            int_mul: ServerPool::new(c.int_mul_units),
            fp_alu: ServerPool::new(c.fp_alu_units),
            fp_mul: ServerPool::new(c.fp_mul_units),
            dl1_ports: ServerPool::new(c.dl1_ports),
            dl1: Cache::new(u64::from(c.dl1_kb) * 1024, c.dl1_ways, c.dl1_line),
            dtlb: Tlb::new(c.dtlb_entries, c.tlb_ways),
            l2: Cache::new(u64::from(c.l2_kb) * 1024, c.l2_ways, c.l2_line),
            last_commit: 0,
            front_depth: u64::from(c.front_depth),
            mispredict_extra: u64::from(c.mispredict_extra),
            dl1_lat: u64::from(c.dl1_lat),
            l2_lat: u64::from(c.l2_lat),
            mem_lat: u64::from(c.mem_lat),
            tlb_miss_lat: u64::from(c.tlb_miss_lat),
            dvm: c.dvm.map(|d| DvmState::new(d, c.iq_size)),
            cumulative_iq_ace: 0.0,
            reported_triggers: 0,
            reported_stalls: 0,
            dtm: c.dtm.map(DtmState::new),
            reported_engaged: 0,
            prefetch: c.prefetch_next_line,
            il1_line_bytes: u64::from(c.il1_line),
            dl1_line_bytes: u64::from(c.dl1_line),
            store_addrs: vec![u64::MAX; STORE_TRACKER],
            store_meta: vec![(0, 0); STORE_TRACKER],
            instr_index: 0,
            lsq_span: u64::from(c.lsq_size),
            forwarding: c.store_forwarding,
        }
    }

    /// Seals `stats` as the interval that began at cycle `*start`: stamps
    /// its cycle count and the DVM/DTM activity since the previous close,
    /// and starts the next interval at the current commit cycle.
    fn close_interval(&mut self, stats: &mut IntervalStats, start: &mut u64) {
        stats.cycles = self.last_commit.saturating_sub(*start).max(1);
        *start = self.last_commit;
        if let Some(dvm) = &self.dvm {
            stats.dvm_triggers = dvm.triggers() - self.reported_triggers;
            self.reported_triggers = dvm.triggers();
            stats.dvm_stall_cycles = dvm.stall_cycles() - self.reported_stalls;
            self.reported_stalls = dvm.stall_cycles();
        }
        if let Some(dtm) = &self.dtm {
            stats.dtm_engaged_windows = dtm.engaged_windows() - self.reported_engaged;
            self.reported_engaged = dtm.engaged_windows();
        }
    }

    /// Times one instruction and accumulates interval statistics.
    fn step(&mut self, instr: &Instruction, stats: &mut IntervalStats) {
        // ---- Fetch ----
        let line = instr.pc >> self.line_shift;
        if line != self.last_line {
            self.last_line = line;
            stats.il1_accesses += 1;
            let mut fill = 0u64;
            if !self.itlb.access(instr.pc) {
                stats.itlb_misses += 1;
                fill += self.tlb_miss_lat;
            }
            if !self.il1.access(instr.pc) {
                stats.il1_misses += 1;
                stats.l2_accesses += 1;
                fill += if self.l2.access(instr.pc) {
                    self.l2_lat
                } else {
                    stats.l2_misses += 1;
                    self.l2_lat + self.mem_lat
                };
                if self.prefetch {
                    // Next-line prefetch: fill the sequential successor
                    // off the critical path.
                    let next = instr.pc + self.il1_line_bytes;
                    self.l2.access(next);
                    if !self.il1.access(next) {
                        stats.prefetch_fills += 1;
                    }
                }
            }
            self.fetch_ready += fill;
        }
        // DTM fetch throttling: while engaged, each fetch slot is held
        // longer, cutting effective front-end bandwidth.
        let fetch_busy = self
            .dtm
            .as_ref()
            .map_or(1, |d| d.fetch_penalty_factor().round() as u64)
            .max(1);
        let fetch = self.fetch_pool.allocate(self.fetch_ready, fetch_busy);

        // ---- Dispatch: front-end depth + structure capacity ----
        let mut dispatch = fetch + self.front_depth;
        dispatch = dispatch.max(self.rob.earliest_slot());
        dispatch = dispatch.max(self.iq.earliest_slot());
        if instr.is_memory() {
            dispatch = dispatch.max(self.lsq.earliest_slot());
        }
        if let Some(dvm) = self.dvm.as_mut() {
            dispatch = dvm.constrain_dispatch(dispatch);
        }

        // ---- Ready: true data dependencies ----
        let mut ready = dispatch;
        ready = ready.max(self.window.completion_of(instr.dep1));
        ready = ready.max(self.window.completion_of(instr.dep2));

        // ---- Issue: bandwidth, functional units, cache ports ----
        let mut issue = self.issue_pool.allocate(ready, 1);
        issue = match instr.class {
            OpClass::IntAlu | OpClass::Branch => self.int_alu.allocate(issue, 1),
            OpClass::IntMul => self.int_mul.allocate(issue, 1),
            OpClass::FpAlu => self.fp_alu.allocate(issue, 1),
            OpClass::FpMul => self.fp_mul.allocate(issue, 1),
            OpClass::Load | OpClass::Store => self.dl1_ports.allocate(issue, 1),
        };

        // ---- Execute ----
        let complete = issue
            + match instr.class {
                OpClass::IntAlu => 1,
                OpClass::IntMul => 3,
                OpClass::FpAlu => 2,
                OpClass::FpMul => 4,
                OpClass::Branch => 1,
                OpClass::Store => {
                    // Stores retire through the store buffer; the cache state
                    // is still updated (write-allocate) for later loads.
                    stats.dl1_accesses += 1;
                    if !self.dtlb.access(instr.addr) {
                        stats.dtlb_misses += 1;
                    }
                    if !self.dl1.access(instr.addr) {
                        stats.dl1_misses += 1;
                        stats.l2_accesses += 1;
                        if !self.l2.access(instr.addr) {
                            stats.l2_misses += 1;
                        }
                    }
                    // Track for store-to-load forwarding (8-byte granules).
                    let slot = ((instr.addr >> 3) as usize) & (STORE_TRACKER - 1);
                    self.store_addrs[slot] = instr.addr >> 3;
                    self.store_meta[slot] = (self.instr_index, issue + 1);
                    1
                }
                OpClass::Load => {
                    // Store-to-load forwarding: a load that hits a store still
                    // in the LSQ window reads from the store buffer at unit
                    // latency.
                    let slot = ((instr.addr >> 3) as usize) & (STORE_TRACKER - 1);
                    let mut forwarded = None;
                    if self.forwarding && self.store_addrs[slot] == instr.addr >> 3 {
                        let (st_index, st_ready) = self.store_meta[slot];
                        if self.instr_index - st_index <= self.lsq_span {
                            stats.store_forwards += 1;
                            stats.dl1_accesses += 1;
                            // The forwarded value is ready one cycle after
                            // both the load issues and the store's data is.
                            forwarded = Some(st_ready.saturating_sub(issue).max(1));
                        }
                    }
                    if let Some(lat) = forwarded {
                        lat
                    } else {
                        stats.dl1_accesses += 1;
                        let mut lat = self.dl1_lat;
                        if !self.dtlb.access(instr.addr) {
                            stats.dtlb_misses += 1;
                            lat += self.tlb_miss_lat;
                        }
                        if !self.dl1.access(instr.addr) {
                            stats.dl1_misses += 1;
                            stats.l2_accesses += 1;
                            if self.l2.access(instr.addr) {
                                lat += self.l2_lat;
                            } else {
                                stats.l2_misses += 1;
                                lat += self.l2_lat + self.mem_lat;
                                if let Some(dvm) = self.dvm.as_mut() {
                                    dvm.on_l2_miss(issue + lat);
                                }
                            }
                            if self.prefetch {
                                let next = instr.addr + self.dl1_line_bytes;
                                self.l2.access(next);
                                if !self.dl1.access(next) {
                                    stats.prefetch_fills += 1;
                                }
                            }
                        }
                        lat
                    }
                }
            };

        // ---- Branch resolution ----
        if instr.is_branch() {
            stats.branches += 1;
            if !self.predictor.predict_and_update(instr.pc, instr.taken) {
                stats.mispredicts += 1;
                self.fetch_ready = self.fetch_ready.max(complete + self.mispredict_extra);
            } else if instr.taken && !self.btb.access(instr.pc) {
                stats.btb_misses += 1;
                self.fetch_ready = self.fetch_ready.max(fetch + BTB_MISS_BUBBLE);
            }
        }

        // ---- Commit (in order, width-limited) ----
        let commit_ready = (complete + 1).max(self.last_commit);
        let commit = self
            .commit_pool
            .allocate(commit_ready, 1)
            .max(self.last_commit);
        self.last_commit = commit;

        // ---- Bookkeeping ----
        self.window.push(complete);
        self.rob.push(commit + 1);
        self.iq.push(issue + 1);
        if instr.is_memory() {
            self.lsq.push(commit + 1);
        }
        match instr.class {
            OpClass::IntAlu | OpClass::Branch => stats.int_alu_ops += 1,
            OpClass::IntMul => stats.int_mul_ops += 1,
            OpClass::FpAlu => stats.fp_alu_ops += 1,
            OpClass::FpMul => stats.fp_mul_ops += 1,
            OpClass::Load | OpClass::Store => {}
        }
        stats.issues += 1;

        // Residency integrals (entry-cycles), ACE-weighted for AVF.
        let ace = if instr.dead { DEAD_ACE_FRACTION } else { 1.0 };
        let iq_res = (issue - dispatch + 1) as f64;
        let rob_res = (commit - dispatch + 1) as f64;
        stats.iq_occupancy += iq_res;
        stats.iq_ace += iq_res * ace;
        self.cumulative_iq_ace += iq_res * ace;
        stats.rob_occupancy += rob_res;
        stats.rob_ace += rob_res * ace;
        if instr.is_memory() {
            stats.lsq_occupancy += rob_res;
            stats.lsq_ace += rob_res * ace;
        }
        if let Some(dvm) = self.dvm.as_mut() {
            dvm.note_instruction(dispatch, ready, issue);
        }
        if let Some(dtm) = self.dtm.as_mut() {
            dtm.on_commit(commit, DTM_WINDOW_CYCLES);
        }
        self.instr_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> SimOptions {
        SimOptions {
            samples: 16,
            interval_instructions: 1500,
            seed: 42,
        }
    }

    fn run(b: Benchmark, cfg: MachineConfig) -> RunResult {
        Simulator::new(cfg).run(b, &quick_opts())
    }

    #[test]
    fn produces_requested_samples() {
        let r = run(Benchmark::Gcc, MachineConfig::baseline());
        assert_eq!(r.intervals.len(), 16);
        assert_eq!(r.total_instructions(), 16 * 1500);
    }

    #[test]
    fn cpi_in_plausible_range() {
        for b in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Swim] {
            let r = run(b, MachineConfig::baseline());
            let cpi = r.aggregate_cpi();
            assert!(cpi > 0.12 && cpi < 30.0, "{b}: cpi {cpi}");
        }
    }

    #[test]
    fn deterministic() {
        let a = run(Benchmark::Vpr, MachineConfig::baseline());
        let b = run(Benchmark::Vpr, MachineConfig::baseline());
        assert_eq!(a.cpi_trace(), b.cpi_trace());
    }

    #[test]
    fn narrower_machine_is_slower() {
        let wide = run(Benchmark::Crafty, MachineConfig::baseline());
        let mut narrow_cfg = MachineConfig::baseline();
        narrow_cfg.fetch_width = 2;
        let narrow = run(Benchmark::Crafty, narrow_cfg);
        assert!(
            narrow.aggregate_cpi() > wide.aggregate_cpi() * 1.08,
            "narrow {} vs wide {}",
            narrow.aggregate_cpi(),
            wide.aggregate_cpi()
        );
    }

    #[test]
    fn smaller_dl1_misses_more() {
        let mut small_cfg = MachineConfig::baseline();
        small_cfg.dl1_kb = 8;
        let small = run(Benchmark::Twolf, small_cfg);
        let big = run(Benchmark::Twolf, MachineConfig::baseline());
        let m_small: u64 = small.intervals.iter().map(|i| i.dl1_misses).sum();
        let m_big: u64 = big.intervals.iter().map(|i| i.dl1_misses).sum();
        assert!(m_small > m_big, "{m_small} vs {m_big}");
        assert!(small.aggregate_cpi() >= big.aggregate_cpi());
    }

    #[test]
    fn slower_memory_hurts_mcf() {
        let mut slow = MachineConfig::baseline();
        slow.l2_kb = 256;
        slow.l2_lat = 20;
        let fast = run(Benchmark::Mcf, MachineConfig::baseline());
        let slowr = run(Benchmark::Mcf, slow);
        assert!(slowr.aggregate_cpi() > fast.aggregate_cpi());
    }

    #[test]
    fn dynamics_vary_across_intervals() {
        let r = run(Benchmark::Gap, MachineConfig::baseline());
        let trace = r.cpi_trace();
        let lo = trace.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = trace.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi > lo * 1.15, "flat CPI trace: {lo}..{hi}");
    }

    #[test]
    fn avf_integrals_bounded_by_capacity() {
        let cfg = MachineConfig::baseline();
        let r = run(Benchmark::Gcc, cfg.clone());
        for i in &r.intervals {
            let iq_avf = i.iq_ace / (f64::from(cfg.iq_size) * i.cycles as f64);
            assert!(iq_avf >= 0.0 && iq_avf <= 1.05, "iq avf {iq_avf}");
            let rob_avf = i.rob_ace / (f64::from(cfg.rob_size) * i.cycles as f64);
            assert!(rob_avf >= 0.0 && rob_avf <= 1.05, "rob avf {rob_avf}");
        }
    }

    #[test]
    fn dvm_reduces_iq_ace_residency() {
        let base = MachineConfig::baseline();
        let with_dvm = base.clone().with_dvm(crate::DvmConfig {
            threshold: 0.1,
            initial_wq_ratio: 1.0,
        });
        let plain = run(Benchmark::Mcf, base);
        let managed = run(Benchmark::Mcf, with_dvm);
        let ace = |r: &RunResult| -> f64 {
            r.intervals
                .iter()
                .map(|i| i.iq_ace / (96.0 * i.cycles as f64))
                .sum::<f64>()
                / r.intervals.len() as f64
        };
        assert!(
            ace(&managed) < ace(&plain),
            "DVM did not reduce IQ AVF: {} vs {}",
            ace(&managed),
            ace(&plain)
        );
    }

    #[test]
    fn dvm_triggers_on_high_occupancy_workload() {
        // crafty keeps the IQ busy without long L2 stalls, so the online
        // AVF estimate exceeds a low threshold and the trigger fires.
        let cfg = MachineConfig::baseline().with_dvm(crate::DvmConfig {
            threshold: 0.05,
            initial_wq_ratio: 8.0,
        });
        let r = run(Benchmark::Crafty, cfg);
        let triggers: u64 = r.intervals.iter().map(|i| i.dvm_triggers).sum();
        assert!(triggers > 0, "DVM never triggered");
    }

    #[test]
    fn mcf_l2_misses_exceed_eon() {
        let mcf = run(Benchmark::Mcf, MachineConfig::baseline());
        let eon = run(Benchmark::Eon, MachineConfig::baseline());
        let misses = |r: &RunResult| -> u64 { r.intervals.iter().map(|i| i.l2_misses).sum() };
        assert!(misses(&mcf) > misses(&eon) * 2);
    }

    #[test]
    fn warmup_discards_cold_start() {
        let cfg = MachineConfig::baseline();
        let opts = quick_opts();
        let cold = Simulator::new(cfg.clone()).run(Benchmark::Eon, &opts);
        let warm = Simulator::new(cfg).run_with_warmup(Benchmark::Eon, &opts, 20_000);
        assert_eq!(warm.intervals.len(), cold.intervals.len());
        // The warmed run's first interval avoids compulsory misses.
        assert!(
            warm.intervals[0].il1_misses <= cold.intervals[0].il1_misses,
            "{} > {}",
            warm.intervals[0].il1_misses,
            cold.intervals[0].il1_misses
        );
    }

    #[test]
    fn warmup_discards_policy_activity() {
        // crafty engages a low DTM trigger all through a long warm-up;
        // none of those windows may surface in the sampled intervals,
        // each of which spans at most cycles / 256 + 1 evaluation windows.
        let cfg = MachineConfig::baseline().with_dtm(crate::dtm::DtmConfig {
            ipc_trigger: 0.2,
            throttle_factor: 0.5,
        });
        let r = Simulator::new(cfg).run_with_warmup(Benchmark::Crafty, &quick_opts(), 20_000);
        assert!(r.intervals.iter().any(|i| i.dtm_engaged_windows > 0));
        for (k, i) in r.intervals.iter().enumerate() {
            let windows = i.cycles / DTM_WINDOW_CYCLES + 1;
            assert!(
                i.dtm_engaged_windows <= windows,
                "interval {k}: {} engaged windows in {} cycles",
                i.dtm_engaged_windows,
                i.cycles
            );
        }
    }

    #[test]
    fn store_forwarding_happens_and_helps() {
        // Hot-region stores are frequently re-read by nearby loads.
        let r = run(
            Benchmark::Vortex,
            MachineConfig::baseline().with_store_forwarding(),
        );
        let forwards: u64 = r.intervals.iter().map(|i| i.store_forwards).sum();
        assert!(forwards > 0, "no store-to-load forwarding observed");
        let loads: u64 = r.intervals.iter().map(|i| i.dl1_accesses).sum();
        assert!(forwards < loads, "forwarding cannot exceed memory ops");
        // Forwarded loads shortcut the cache: CPI must not get worse.
        let plain = run(Benchmark::Vortex, MachineConfig::baseline());
        assert!(r.aggregate_cpi() <= plain.aggregate_cpi() * 1.001);
        let plain_forwards: u64 = plain.intervals.iter().map(|i| i.store_forwards).sum();
        assert_eq!(plain_forwards, 0, "forwarding must be off by default");
    }

    #[test]
    fn next_line_prefetch_helps_streaming_workloads() {
        // swim streams through memory; a next-line prefetcher must cut
        // its L1D miss count and not slow it down.
        let plain = run(Benchmark::Swim, MachineConfig::baseline());
        let pf = run(
            Benchmark::Swim,
            MachineConfig::baseline().with_next_line_prefetch(),
        );
        let misses = |r: &RunResult| r.intervals.iter().map(|i| i.dl1_misses).sum::<u64>();
        let fills: u64 = pf.intervals.iter().map(|i| i.prefetch_fills).sum();
        assert!(fills > 0, "prefetcher never filled");
        assert!(
            misses(&pf) < misses(&plain),
            "prefetching did not reduce misses: {} vs {}",
            misses(&pf),
            misses(&plain)
        );
        assert!(pf.aggregate_cpi() <= plain.aggregate_cpi() * 1.01);
    }

    #[test]
    fn dtm_throttles_hot_workloads() {
        // crafty runs hot; a low trigger must engage and slow it down.
        let hot = MachineConfig::baseline().with_dtm(crate::dtm::DtmConfig {
            ipc_trigger: 0.2,
            throttle_factor: 0.5,
        });
        let plain = run(Benchmark::Crafty, MachineConfig::baseline());
        let managed = run(Benchmark::Crafty, hot);
        let engaged: u64 = managed
            .intervals
            .iter()
            .map(|i| i.dtm_engaged_windows)
            .sum();
        assert!(engaged > 0, "DTM never engaged");
        assert!(
            managed.aggregate_cpi() > plain.aggregate_cpi(),
            "throttling did not slow the machine: {} vs {}",
            managed.aggregate_cpi(),
            plain.aggregate_cpi()
        );
    }

    #[test]
    fn predictor_kind_changes_front_end_behaviour() {
        // gshare and its zero-history (bimodal) form must produce genuinely
        // different accuracy on a branchy workload. (On these synthetic
        // outcome streams bimodal can beat gshare: per-site behaviour is
        // strong while the global history is polluted across hundreds of
        // interleaved sites.)
        let mut bimodal_cfg = MachineConfig::baseline();
        bimodal_cfg.bp_history_bits = 0;
        let g = run(Benchmark::Gcc, MachineConfig::baseline());
        let b = run(Benchmark::Gcc, bimodal_cfg);
        let mis = |r: &RunResult| r.intervals.iter().map(|i| i.mispredicts).sum::<u64>();
        assert_ne!(mis(&g), mis(&b), "predictor choice had no effect");
        // Both stay in a sane accuracy band.
        let branches: u64 = g.intervals.iter().map(|i| i.branches).sum();
        for m in [mis(&g), mis(&b)] {
            assert!(m * 2 < branches, "worse than a coin flip");
        }
    }

    #[test]
    fn dtm_with_high_trigger_is_free() {
        let cfg = MachineConfig::baseline().with_dtm(crate::dtm::DtmConfig {
            ipc_trigger: 100.0,
            throttle_factor: 0.5,
        });
        let plain = run(Benchmark::Eon, MachineConfig::baseline());
        let managed = run(Benchmark::Eon, cfg);
        assert_eq!(plain.aggregate_cpi(), managed.aggregate_cpi());
    }

    #[test]
    fn interval_edge_is_exact() {
        // An instruction stream whose length lands exactly on a 128-
        // instruction interval edge must produce only full intervals —
        // no trailing partial — and conserve the instruction count.
        let opts = SimOptions {
            samples: 4,
            interval_instructions: 128,
            seed: 7,
        };
        let sim = Simulator::new(MachineConfig::baseline());
        let exact = TraceGenerator::new(Benchmark::Gcc, 4 * 128, 7);
        let r = sim.run_trace(exact, &opts);
        assert_eq!(r.intervals.len(), 4);
        assert!(r.intervals.iter().all(|i| i.instructions == 128));
        assert_eq!(r.total_instructions(), 4 * 128);

        // One instruction past the edge spills into a partial interval of
        // exactly one instruction; nothing is lost or double-counted.
        let over = TraceGenerator::new(Benchmark::Gcc, 4 * 128 + 1, 7);
        let r = sim.run_trace(over, &opts);
        assert_eq!(r.intervals.len(), 5);
        assert!(r.intervals[..4].iter().all(|i| i.instructions == 128));
        assert_eq!(r.intervals[4].instructions, 1);
        assert_eq!(r.total_instructions(), 4 * 128 + 1);

        // One short of the edge: the last interval is partial with 127.
        let under = TraceGenerator::new(Benchmark::Gcc, 4 * 128 - 1, 7);
        let r = sim.run_trace(under, &opts);
        assert_eq!(r.intervals.len(), 4);
        assert_eq!(r.intervals[3].instructions, 127);
        assert_eq!(r.total_instructions(), 4 * 128 - 1);
    }

    /// Sums the fields the trailing-partial tests compare.
    fn totals(r: &RunResult) -> [u64; 5] {
        r.intervals.iter().fold([0; 5], |t, i| {
            [
                t[0] + i.instructions,
                t[1] + i.cycles,
                t[2] + i.dtm_engaged_windows,
                t[3] + i.dvm_stall_cycles,
                t[4] + i.dvm_triggers,
            ]
        })
    }

    #[test]
    fn trailing_partial_interval_keeps_dtm_accounting() {
        // 2900 instructions as one interval, or as two full intervals and
        // a 900-instruction tail: DTM windows are cycle-based, so the
        // totals must not depend on where the sampling cuts fall.
        let cfg = MachineConfig::baseline().with_dtm(crate::dtm::DtmConfig {
            ipc_trigger: 0.2,
            throttle_factor: 0.5,
        });
        let sim = Simulator::new(cfg);
        let run_at = |interval_instructions| {
            let opts = SimOptions {
                samples: 1,
                interval_instructions,
                seed: 42,
            };
            sim.run_trace(TraceGenerator::new(Benchmark::Crafty, 2900, 42), &opts)
        };
        let (cut, whole) = (run_at(1000), run_at(2900));
        assert_eq!(cut.intervals.len(), 3);
        assert_eq!(cut.intervals[2].instructions, 900);
        assert!(totals(&whole)[2] > 0, "DTM never engaged");
        assert_eq!(totals(&cut)[..3], totals(&whole)[..3]);
    }

    #[test]
    fn trailing_partial_interval_keeps_dvm_accounting() {
        // Intervals of 1450 and 1454 share the DVM evaluation period
        // (interval / 5 = 290), so the policy runs identically; only the
        // second leaves a 1446-instruction tail that must still report
        // its stall cycles and triggers.
        let cfg = MachineConfig::baseline().with_dvm(crate::DvmConfig {
            threshold: 0.1,
            initial_wq_ratio: 1.0,
        });
        let sim = Simulator::new(cfg);
        let run_at = |interval_instructions| {
            let opts = SimOptions {
                samples: 2,
                interval_instructions,
                seed: 42,
            };
            sim.run_trace(TraceGenerator::new(Benchmark::Mcf, 2900, 42), &opts)
        };
        let (exact, tailed) = (run_at(1450), run_at(1454));
        assert_eq!(tailed.intervals[1].instructions, 1446);
        assert!(
            tailed.intervals[1].dvm_stall_cycles > 0,
            "tail lost DVM stalls"
        );
        assert_eq!(totals(&exact), totals(&tailed));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let _ = Simulator::new(MachineConfig::baseline()).run(
            Benchmark::Gcc,
            &SimOptions {
                samples: 0,
                interval_instructions: 100,
                seed: 1,
            },
        );
    }
}
