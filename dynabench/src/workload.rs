//! What every workload shares: run options, the outcome it reports, the
//! operation tally and the golden fingerprints.

use crate::measure::{median, peak_rss_mib, Windowed};
use crate::metrics::{self, Values};
use std::path::PathBuf;

/// Seed of the committed golden fingerprints.
pub const DEFAULT_SEED: u64 = 1;

/// Golden output fingerprints at [`DEFAULT_SEED`] and full scale, one
/// `<workload> <hex>` line each.
const GOLDEN: &str = include_str!("../golden.txt");

/// Problem size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as defined: paper-shaped traces.
    Full,
    /// A seconds-long smoke run for the self-tests.
    Tiny,
}

impl Scale {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Host seconds the timed phase may take.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Private scratch directory for journals; removed by the caller.
    pub scratch: PathBuf,
}

/// Operations attempted and failed, with the first failure's reason.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Why the first failure failed.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one checked operation; `what` explains a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub tally: Tally,
    /// Measured metrics (end-to-end or per-layer, by run mode).
    pub values: Values,
    /// Run context printed beside the result: `(key, value)` pairs whose
    /// values are JSON literals.
    pub context: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a context entry whose value is already a JSON literal.
    pub fn note(&mut self, key: &str, json_value: impl Into<String>) {
        self.context.push((key.to_string(), json_value.into()));
    }

    /// Sets every per-layer metric whose name starts with one of
    /// `prefixes` to 0: the workload's path does not call that layer.
    pub fn not_exercised(&mut self, prefixes: &[&str]) {
        for (name, _) in metrics::per_layer() {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.values.set(name, 0.0);
            }
        }
    }

    /// Sets every end-to-end metric: medians of the set-up times and
    /// iteration walls, operations per host second, the windowed latency
    /// percentiles and peak memory. Fails when no latency window closed.
    pub fn set_end_to_end(
        &mut self,
        setup: &[f64],
        walls: &[f64],
        operations: f64,
        predict_us: &Windowed,
        query_us: &Windowed,
    ) -> Result<(), String> {
        let v = &mut self.values;
        v.set("setup_s", median(setup).unwrap_or(0.0));
        v.set("wall_s", median(walls).unwrap_or(0.0));
        v.set("req_per_s", operations / walls.iter().sum::<f64>());
        for (name, p) in [
            ("predict_p50_us", predict_us.p50()),
            ("predict_p99_us", predict_us.p99()),
            ("query_p50_us", query_us.p50()),
            ("query_p99_us", query_us.p99()),
        ] {
            let p =
                p.ok_or_else(|| format!("{name}: no full window of {} samples", Windowed::WINDOW))?;
            v.set(name, p);
        }
        v.set(
            "peak_rss_mib",
            peak_rss_mib().ok_or("VmHWM is not available")?,
        );
        self.note("latency_window", Windowed::WINDOW.to_string());
        self.note("predict_windows", predict_us.windows().to_string());
        self.note("query_windows", query_us.windows().to_string());
        Ok(())
    }

    /// Checks `fingerprint` against the golden value for `workload`, when
    /// this run is the one the golden values were taken from, and records
    /// the fingerprint in the context either way.
    pub fn check_golden(&mut self, workload: &str, opts: &RunOpts, fingerprint: u64) {
        self.note("fingerprint", format!("\"{fingerprint:016x}\""));
        if opts.seed != DEFAULT_SEED || opts.scale != Scale::Full {
            self.note("golden", "\"not-applicable\"");
            return;
        }
        let expected = golden(workload);
        self.tally.check(expected == Some(fingerprint), || {
            format!(
                "{workload}: output fingerprint {fingerprint:016x} differs from golden {}",
                expected.map_or("<missing>".to_string(), |g| format!("{g:016x}"))
            )
        });
        let verdict = if expected == Some(fingerprint) {
            "match"
        } else {
            "mismatch"
        };
        self.note("golden", format!("\"{verdict}\""));
    }
}

/// The committed golden fingerprint of `workload`, if any.
pub fn golden(workload: &str) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        if parts.next()? != workload {
            return None;
        }
        u64::from_str_radix(parts.next()?, 16).ok()
    })
}

/// `(available_parallelism, threads the parallel workload uses)`. The
/// campaign runs one shard per hardware thread, but never more than two,
/// so the workload is the same on a larger machine.
pub fn threads() -> (usize, usize) {
    // dynalint:allow(D004) -- the run context reports the machine's parallelism
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (available, available.min(2))
}

/// Formats a list of numbers as a JSON array literal.
pub fn json_array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(","))
}
