//! Outside-the-program measurement: wall-clock timers around calls into
//! a layer's public functions, order statistics with the "ten samples
//! beyond" rule, output fingerprints and peak memory.

// dynalint:allow(D004) -- the benchmark times the program from outside, by design
use std::time::Instant;

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail it claims to describe is not measured.
pub const MIN_BEYOND: usize = 10;

/// Runs `f` once and returns its result with the host seconds it took.
/// The result passes through `black_box`, so the measured call cannot be
/// optimised away, and is returned unchanged.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // dynalint:allow(D004, D007) -- the benchmark times the program from outside, by design
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Median of `xs` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Interquartile mean of `xs`: the mean after dropping the lowest and the
/// highest quarter (rounded down); `None` when empty. Unlike the median,
/// it moves smoothly when the values split between two levels, as timings
/// do on a host that alternates between a fast and a slow state.
pub fn trimmed_mean(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let kept = v.get(cut..v.len() - cut)?;
    if kept.is_empty() {
        return None;
    }
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Nearest-rank `pct` percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond the rank.
pub fn percentile(xs: &[f64], pct: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..=100.0).contains(&pct) {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Latency percentiles taken window by window: every `window` samples
/// close a window and record its p50 and p99, and a run reports the
/// median over its windows. A burst of host contention then moves one
/// window's tail, not the run's, and memory stays the same however many
/// samples a run takes. A trailing partial window is dropped.
#[derive(Debug, Default)]
pub struct Windowed {
    current: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Windowed {
    /// Samples per window: enough for every window's p99 to have forty
    /// samples beyond it.
    pub const WINDOW: usize = 4000;

    /// An empty collector.
    pub fn new() -> Self {
        Windowed::default()
    }

    /// Adds one sample, closing the window when it is full.
    pub fn push(&mut self, x: f64) {
        self.current.push(x);
        if self.current.len() >= Self::WINDOW {
            if let (Some(p50), Some(p99)) = (
                percentile(&self.current, 50.0),
                percentile(&self.current, 99.0),
            ) {
                self.p50.push(p50);
                self.p99.push(p99);
            }
            self.current.clear();
        }
    }

    /// Median over closed windows of each window's median; `None` before
    /// the first window closes.
    pub fn p50(&self) -> Option<f64> {
        median(&self.p50)
    }

    /// Median over closed windows of each window's p99.
    pub fn p99(&self) -> Option<f64> {
        median(&self.p99)
    }

    /// Closed windows so far.
    pub fn windows(&self) -> usize {
        self.p99.len()
    }
}

/// 64-bit FNV-1a over everything written into it. Floats are hashed by
/// their bit patterns, so a fingerprint pins outputs exactly.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in, length-prefixed so concatenations differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float sequence in, bit for bit.
    pub fn floats(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.u64(x.to_bits());
        }
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), when the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs `iteration` back to back for about `seconds` of host time and
/// returns the wall time each iteration reports. Runs at least
/// `min_iterations`, then stops before a call that would overrun the
/// budget, judged by the median duration of the calls so far (which may
/// include work outside the reported wall).
pub fn repeat_for<E>(
    seconds: f64,
    min_iterations: usize,
    mut iteration: impl FnMut(usize) -> Result<f64, E>,
) -> Result<Vec<f64>, E> {
    // dynalint:allow(D004, D007) -- the benchmark times the program from outside, by design
    let start = Instant::now();
    let (mut walls, mut calls) = (Vec::new(), Vec::new());
    loop {
        if walls.len() >= min_iterations.max(1) {
            let typical = median(&calls).unwrap_or(0.0);
            if start.elapsed().as_secs_f64() + typical > seconds {
                return Ok(walls);
            }
        }
        let (wall, call) = timed(|| iteration(walls.len()));
        walls.push(wall?);
        calls.push(call);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn trimmed_mean_drops_the_outer_quarters() {
        assert_eq!(trimmed_mean(&[]), None);
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, 0.0]), Some(2.0));
        let split = [4.0, 4.0, 4.0, 4.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0];
        assert_eq!(trimmed_mean(&split), Some(32.0 / 6.0));
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::default();
        a.str("ab");
        a.str("c");
        let mut b = Fingerprint::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.value(), b.value());
    }
}
