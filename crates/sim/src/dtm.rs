//! Dynamic Thermal/power Management: a fetch-throttling policy.
//!
//! The paper's introduction motivates workload-dynamics prediction with
//! DTM: "instead of designing packaging that can meet the cooling capacity
//! for worst-case scenarios, architects can examine how the workload
//! thermal dynamics behave ... and deploy appropriate dynamic thermal
//! management policies". This module implements the classic fetch-throttle
//! response (Brooks & Martonosi, HPCA 2001 — the paper's reference \[1\]):
//! when the machine's recent activity density (issued instructions per
//! cycle, the dominant driver of dynamic power) exceeds a trigger, fetch
//! is throttled for the next window; it disengages once activity falls
//! below the trigger again.
//!
//! Together with the IQ DVM policy ([`crate::dvm`]) this gives the
//! simulator one scenario-driven optimization per domain the paper
//! evaluates (power and reliability).

/// Configuration of the fetch-throttling DTM policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtmConfig {
    /// Activity trigger in issued instructions per cycle; sustained IPC
    /// above this engages throttling.
    pub ipc_trigger: f64,
    /// Fraction of fetch slots left usable while engaged, in `(0, 1]`.
    pub throttle_factor: f64,
}

impl Default for DtmConfig {
    fn default() -> Self {
        DtmConfig {
            ipc_trigger: 3.0,
            throttle_factor: 0.5,
        }
    }
}

/// Runtime state of the DTM policy.
#[derive(Debug, Clone)]
pub struct DtmState {
    config: DtmConfig,
    engaged: bool,
    window_start_cycle: u64,
    window_instructions: u64,
    engaged_windows: u64,
}

impl DtmState {
    /// Creates the policy state.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < throttle_factor <= 1.0` and
    /// `ipc_trigger > 0.0`.
    pub fn new(config: DtmConfig) -> Self {
        assert!(
            config.throttle_factor > 0.0 && config.throttle_factor <= 1.0,
            "throttle factor must be in (0, 1]"
        );
        assert!(config.ipc_trigger > 0.0, "IPC trigger must be positive");
        DtmState {
            config,
            engaged: false,
            window_start_cycle: 0,
            window_instructions: 0,
            engaged_windows: 0,
        }
    }

    /// Number of evaluation windows spent engaged.
    pub fn engaged_windows(&self) -> u64 {
        self.engaged_windows
    }

    /// Extra fetch delay (in cycles, fractional accumulation handled by
    /// the caller as a slowdown multiplier) applied per instruction while
    /// engaged: `1/throttle_factor - 1` extra fetch-slot cycles.
    pub fn fetch_penalty_factor(&self) -> f64 {
        if self.engaged {
            1.0 / self.config.throttle_factor
        } else {
            1.0
        }
    }

    /// Records one committed instruction and, at window boundaries
    /// (`window_cycles` of progress), re-evaluates the trigger.
    pub fn on_commit(&mut self, now_cycle: u64, window_cycles: u64) {
        self.window_instructions += 1;
        let elapsed = now_cycle.saturating_sub(self.window_start_cycle);
        if elapsed >= window_cycles {
            let ipc = self.window_instructions as f64 / elapsed.max(1) as f64;
            self.engaged = ipc > self.config.ipc_trigger;
            if self.engaged {
                self.engaged_windows += 1;
            }
            self.window_start_cycle = now_cycle;
            self.window_instructions = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engages_on_high_activity_disengages_on_low() {
        let mut dtm = DtmState::new(DtmConfig {
            ipc_trigger: 2.0,
            throttle_factor: 0.5,
        });
        // ~4 instructions per cycle past the 100-cycle window: engage.
        for i in 0..440u64 {
            dtm.on_commit(i / 4, 100);
        }
        assert!(dtm.engaged);
        assert_eq!(dtm.engaged_windows(), 1);
        assert!((dtm.fetch_penalty_factor() - 2.0).abs() < 1e-12);
        // one instruction every 2 cycles past the next window: disengage.
        for i in 0..60u64 {
            dtm.on_commit(110 + i * 2, 100);
        }
        assert!(!dtm.engaged);
        assert_eq!(dtm.fetch_penalty_factor(), 1.0);
    }

    #[test]
    fn counts_windows_and_transitions() {
        let mut dtm = DtmState::new(DtmConfig {
            ipc_trigger: 1.0,
            throttle_factor: 0.25,
        });
        let mut cycle = 0u64;
        // Sustained two commits per cycle: IPC 2 > trigger 1 in every
        // window, so the policy engages at the first evaluation and stays
        // engaged through all twelve 50-cycle windows.
        for _ in 0..600u64 {
            dtm.on_commit(cycle, 50);
            cycle += 1;
            dtm.on_commit(cycle, 50);
            if cycle >= 50 {
                assert!(dtm.engaged, "disengaged at cycle {cycle}");
            }
        }
        assert_eq!(
            dtm.engaged_windows(),
            12,
            "stayed engaged across hot windows"
        );
    }

    #[test]
    #[should_panic(expected = "throttle factor")]
    fn bad_factor_panics() {
        let _ = DtmState::new(DtmConfig {
            ipc_trigger: 1.0,
            throttle_factor: 0.0,
        });
    }
}
