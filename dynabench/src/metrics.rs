//! The benchmark's metric vocabulary and its result line.
//!
//! Every run prints every end-to-end metric (untraced) or every
//! per-layer metric (traced). A per-layer metric of a layer that the
//! workload's own path never calls reads 0: nothing was measured because
//! nothing ran (the campaign executor under `serve_mix`, say).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("predict_p50_us", "us"),
    ("predict_p99_us", "us"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Benchmarks whose per-layer generator and engine rates are named in
/// the vocabulary: the union of every workload's benchmarks.
pub const LAYER_BENCHMARKS: [&str; 4] = ["gcc", "mcf", "crafty", "swim"];

/// Serve request kinds with their own handling-time metric.
pub const SERVE_KINDS: [&str; 6] = ["predict", "pareto", "topk", "sweep", "stats", "malformed"];

/// Per-layer metrics: `(name, unit)`, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for b in LAYER_BENCHMARKS {
        out.push((format!("workloads.gen_ns_per_instr.{b}"), "ns"));
    }
    for b in LAYER_BENCHMARKS {
        out.push((format!("sim.engine_ns_per_instr.{b}"), "ns"));
    }
    let fixed: [(&str, &'static str); 19] = [
        ("sim.engine_ns_per_instr.dvm_on", "ns"),
        ("sim.engine_ns_per_instr.dvm_off", "ns"),
        ("sim.busy_s", "s"),
        ("sim.share", "ratio"),
        ("sim.instr_per_point", "ratio"),
        ("power.trace_us", "us"),
        ("avf.trace_us", "us"),
        ("dataset.trace_for_ms", "ms"),
        ("wavelet.wavedec_us", "us"),
        ("wavelet.waverec_us", "us"),
        ("predictor.train_ms", "ms"),
        ("predictor.predict_us", "us"),
        ("nmse_cpi_pct", "%"),
        ("nmse_power_pct", "%"),
        ("nmse_avf_pct", "%"),
        ("nmse_iq_avf_pct", "%"),
        ("campaign.unit_ms", "ms"),
        ("campaign.finish_ms", "ms"),
        ("campaign.shard_imbalance", "ratio"),
    ];
    out.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    for k in SERVE_KINDS {
        out.push((format!("serve.handle_us.{k}"), "us"));
    }
    out.push(("serve.journal_append_us".into(), "us"));
    out.push(("serve.model_resolve_ms".into(), "ms"));
    out.push(("serve.cache_hit_ratio".into(), "ratio"));
    out.push(("trace.overhead_s".into(), "s"));
    out
}

/// `true` when `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most
/// 64 characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values of one run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records `value` under `name`, replacing any earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line for `vocabulary`. Fails when a metric is
/// missing or not finite, so a run can never print a partial result.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    vocabulary: &[(String, &'static str)],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(vocabulary.len());
    for (name, unit) in vocabulary {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    ))
}

/// The end-to-end vocabulary with owned names, as [`result_line`] takes it.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}
