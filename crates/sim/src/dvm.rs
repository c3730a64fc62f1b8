//! Dynamic Vulnerability Management for the issue queue (paper §5).
//!
//! Implements the Figure 16 policy:
//!
//! ```text
//! DVM_IQ {
//!     ACE bits counter updating();
//!     if current context has L2 cache misses
//!     then stall dispatching instructions for current context;
//!     every (sample_interval/5) cycles {
//!         if online IQ_AVF > trigger threshold
//!         then wq_ratio = wq_ratio / 2;
//!         else wq_ratio = wq_ratio + 1;
//!     }
//!     if (ratio of waiting instruction # to ready instruction # > wq_ratio)
//!     then stall dispatching instructions;
//! }
//! ```
//!
//! `wq_ratio` adapts through slow increases and rapid (halving) decreases
//! so the policy responds quickly to vulnerability emergencies.

use crate::config::DvmConfig;
use std::collections::VecDeque;

/// Timing record of one in-flight instruction, used to classify issue-queue
/// occupants into *waiting* (operands not ready) and *ready* (ready but not
/// yet issued).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    dispatch: u64,
    ready: u64,
    issue: u64,
}

/// Runtime state of the IQ DVM policy.
#[derive(Debug, Clone)]
pub struct DvmState {
    config: DvmConfig,
    wq_ratio: f64,
    /// Dispatch is stalled until this cycle while an L2 miss is
    /// outstanding.
    block_until: u64,
    window: VecDeque<InFlight>,
    iq_capacity: usize,
    /// ACE integral and cycle mark at the last periodic update.
    last_ace: f64,
    last_cycle: u64,
    triggers: u64,
    stall_cycles: u64,
}

impl DvmState {
    /// Creates the policy state for an IQ of `iq_size` entries.
    pub fn new(config: DvmConfig, iq_size: u32) -> Self {
        DvmState {
            wq_ratio: config.initial_wq_ratio,
            config,
            block_until: 0,
            window: VecDeque::with_capacity(iq_size as usize),
            iq_capacity: iq_size as usize,
            last_ace: 0.0,
            last_cycle: 0,
            triggers: 0,
            stall_cycles: 0,
        }
    }

    /// Number of times the trigger fired (AVF above threshold).
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Total dispatch-stall cycles charged to the policy.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Records an outstanding L2 miss that completes at `complete`;
    /// dispatch stalls until the data returns (Figure 16, first clause).
    pub fn on_l2_miss(&mut self, complete: u64) {
        self.block_until = self.block_until.max(complete);
    }

    /// Applies the policy's dispatch constraints to a tentative dispatch
    /// cycle, returning the (possibly delayed) cycle.
    pub fn constrain_dispatch(&mut self, tentative: u64) -> u64 {
        let mut t = tentative;
        if t < self.block_until {
            self.stall_cycles += self.block_until - t;
            t = self.block_until;
        }
        // Waiting/ready census of the issue queue at cycle t.
        let mut waiting = 0u32;
        let mut ready = 0u32;
        let mut earliest_issue = u64::MAX;
        for f in &self.window {
            if f.dispatch <= t && f.issue > t {
                if f.ready > t {
                    waiting += 1;
                    earliest_issue = earliest_issue.min(f.issue);
                } else {
                    ready += 1;
                }
            }
        }
        if f64::from(waiting) > self.wq_ratio * f64::from(ready.max(1)) {
            // Stall until the earliest waiting occupant issues (bounded).
            let until = earliest_issue.min(t + 64);
            if until > t {
                self.stall_cycles += until - t;
                t = until;
            }
        }
        t
    }

    /// Registers a newly timed instruction in the in-flight window.
    pub fn note_instruction(&mut self, dispatch: u64, ready: u64, issue: u64) {
        if self.window.len() == self.iq_capacity {
            self.window.pop_front();
        }
        self.window.push_back(InFlight {
            dispatch,
            ready,
            issue,
        });
    }

    /// Periodic trigger evaluation ("every sample_interval/5 cycles"):
    /// compares the online IQ AVF over the elapsed window against the
    /// threshold and adapts `wq_ratio` (halve on trigger, increment
    /// otherwise).
    pub fn periodic_update(&mut self, now_cycle: u64, cumulative_iq_ace: f64) {
        let dc = now_cycle.saturating_sub(self.last_cycle).max(1);
        let da = (cumulative_iq_ace - self.last_ace).max(0.0);
        let online_avf = da / (self.iq_capacity as f64 * dc as f64);
        if online_avf > self.config.threshold {
            self.wq_ratio = (self.wq_ratio / 2.0).max(0.125);
            self.triggers += 1;
        } else {
            self.wq_ratio = (self.wq_ratio + 1.0).min(64.0);
        }
        self.last_cycle = now_cycle;
        self.last_ace = cumulative_iq_ace;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> DvmState {
        DvmState::new(DvmConfig::default(), 8)
    }

    #[test]
    fn l2_miss_blocks_dispatch() {
        let mut d = state();
        d.on_l2_miss(100);
        assert_eq!(d.constrain_dispatch(40), 100);
        assert_eq!(d.stall_cycles(), 60);
        // After the miss resolves, no constraint.
        assert_eq!(d.constrain_dispatch(150), 150);
    }

    #[test]
    fn wq_ratio_throttles_waiting_heavy_queues() {
        let mut d = DvmState::new(
            DvmConfig {
                threshold: 0.3,
                initial_wq_ratio: 1.0,
            },
            8,
        );
        // Fill the window with waiting instructions (ready far in future).
        for _ in 0..6 {
            d.note_instruction(0, 1000, 1001);
        }
        // One ready instruction.
        d.note_instruction(0, 0, 1001);
        let t = d.constrain_dispatch(10);
        assert!(t > 10, "dispatch should be throttled");
    }

    #[test]
    fn trigger_halves_ratio_and_counts() {
        let mut d = state();
        let r0 = d.wq_ratio;
        // Huge ACE growth over few cycles => AVF ~ 1 > threshold.
        d.periodic_update(10, 80.0);
        assert!(d.wq_ratio < r0);
        assert_eq!(d.triggers(), 1);
        // Now no ACE growth => AVF 0 => ratio relaxes.
        let r1 = d.wq_ratio;
        d.periodic_update(20, 80.0);
        assert!(d.wq_ratio > r1);
        assert_eq!(d.triggers(), 1);
    }

    #[test]
    fn ratio_bounds_hold() {
        let mut d = state();
        for i in 0..100 {
            d.periodic_update(10 * (i + 1), 1e9 * (i + 1) as f64);
        }
        assert!(d.wq_ratio >= 0.125);
        let mut d = state();
        for i in 0..100 {
            d.periodic_update(10 * (i + 1), 0.0);
        }
        assert!(d.wq_ratio <= 64.0);
    }

    #[test]
    fn window_is_bounded_by_iq_capacity() {
        let mut d = state();
        for i in 0..100 {
            d.note_instruction(i, i, i + 1);
        }
        assert!(d.window.len() <= 8);
    }
}
