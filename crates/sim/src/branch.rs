//! Front-end predictors: gshare direction predictor and BTB.

use crate::cache::{prev_power_of_two, Cache};

/// A gshare direction predictor: global history XOR PC indexes a table of
/// 2-bit saturating counters (Table 1: 2K entries, 10-bit history).
///
/// With zero history bits the index is the PC alone, which is the classic
/// bimodal (per-PC counter) predictor.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u64,
    history: u64,
    history_mask: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` counters (rounded down to a
    /// power of two) and `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: u32, history_bits: u32) -> Self {
        assert!(entries > 0, "predictor needs entries");
        let entries = prev_power_of_two(entries as usize);
        Gshare {
            table: vec![2; entries], // weakly taken
            mask: entries as u64 - 1,
            history: 0,
            history_mask: (1u64 << history_bits.min(63)) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`, then updates the
    /// counters and history with the actual `taken` outcome. Returns
    /// `true` if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.table[idx] >= 2;
        if taken {
            if self.table[idx] < 3 {
                self.table[idx] += 1;
            }
        } else if self.table[idx] > 0 {
            self.table[idx] -= 1;
        }
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        predicted == taken
    }
}

/// A branch target buffer modelled as a tag cache over branch PCs.
///
/// A taken branch whose target is absent costs a fetch bubble even when
/// the direction was predicted correctly.
#[derive(Debug, Clone)]
pub struct Btb {
    inner: Cache,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `entries < ways` or `ways == 0`.
    pub fn new(entries: u32, ways: u32) -> Self {
        Btb {
            // One "line" per 4-byte instruction slot.
            inner: Cache::new(u64::from(entries) * 4, ways, 4),
        }
    }

    /// Looks up (and on miss, installs) the branch at `pc`.
    /// Returns `true` on hit.
    pub fn access(&mut self, pc: u64) -> bool {
        self.inner.access(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mispredictions over `outcomes` for the branch at 0x400.
    fn mispredicts(g: &mut Gshare, outcomes: impl IntoIterator<Item = bool>) -> usize {
        outcomes
            .into_iter()
            .filter(|&taken| !g.predict_and_update(0x400, taken))
            .count()
    }

    /// `n` outcomes alternating taken / not-taken, starting with taken.
    fn alternating(n: usize) -> impl Iterator<Item = bool> {
        (0..n).map(|i| i % 2 == 0)
    }

    #[test]
    fn gshare_learns_a_bias() {
        let mut g = Gshare::new(1024, 8);
        let missed = mispredicts(&mut g, std::iter::repeat_n(true, 1000));
        assert!(missed < 50, "{missed}");
    }

    #[test]
    fn gshare_learns_alternation_via_history() {
        let mut g = Gshare::new(4096, 10);
        mispredicts(&mut g, alternating(4000));
        // After warmup, the alternating pattern is history-predictable.
        let later = mispredicts(&mut g, alternating(4000));
        assert!(later < 200, "second-half mispredicts {later}");
    }

    #[test]
    fn gshare_struggles_on_random() {
        let mut g = Gshare::new(1024, 10);
        let mut state = 0x12345u64;
        let outcomes = (0..4000).map(|_| {
            state = dynawave_numeric_splitmix(state);
            state & 1 == 1
        });
        assert!(mispredicts(&mut g, outcomes) > 1200);
    }

    // Local copy to avoid a test-only dependency edge.
    fn dynawave_numeric_splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn bimodal_learns_bias_but_not_patterns() {
        // Zero history bits is bimodal: a per-PC counter learns a bias...
        let mut b = Gshare::new(1024, 0);
        let missed = mispredicts(&mut b, std::iter::repeat_n(true, 1000));
        assert!(missed < 50, "{missed}");
        // ...but alternation defeats it.
        let mut b = Gshare::new(1024, 0);
        let missed = mispredicts(&mut b, alternating(1000));
        assert!(missed > 400, "{missed}");
    }

    #[test]
    fn btb_hits_after_install() {
        let mut b = Btb::new(64, 4);
        assert!(!b.access(0x1000));
        assert!(b.access(0x1000));
    }
}
