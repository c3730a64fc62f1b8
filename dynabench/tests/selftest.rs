//! Self-tests of the benchmark: the percentile rule, the request
//! stream's seeding, the metric vocabulary, and a tiny-scale smoke run of
//! every workload in both modes.

use dynabench::measure::{percentile, Windowed};
use dynabench::metrics::{self, valid_name};
use dynabench::serve_mix::serve_config;
use dynabench::stream::{self, Kind};
use dynabench::workload::{golden, RunOpts, Scale};
use dynabench::{run_workload, WORKLOADS};
use dynawave_obs::json::{self, Value};

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&xs, 99.0), Some(990.0));
    assert_eq!(percentile(&xs[..999], 99.0), None);
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&twenty, 50.0), Some(10.0));
    assert_eq!(percentile(&twenty[..19], 50.0), None);
    assert_eq!(percentile(&[], 50.0), None);
    // A latency window is large enough for its p99.
    assert!(percentile(&vec![1.0; Windowed::WINDOW], 99.0).is_some());
    // Unsorted input gives the same answer.
    let mut shuffled = xs.clone();
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 99.0), Some(990.0));
}

#[test]
fn windowed_percentiles_report_the_median_window() {
    let mut w = Windowed::new();
    assert_eq!(w.p99(), None);
    // Three windows of 1..=WINDOW, the middle one shifted up by 1000.
    for shift in [0.0, 1000.0, 0.0] {
        for i in 1..=Windowed::WINDOW {
            w.push(i as f64 + shift);
        }
    }
    w.push(1e9); // an unfinished window is not reported
    assert_eq!(w.windows(), 3);
    assert_eq!(w.p50(), Some(2000.0));
    assert_eq!(w.p99(), Some(3960.0));
}

#[test]
fn request_stream_is_seeded() {
    let space = serve_config(Scale::Full).config.space();
    let a = stream::generate(7, 2000, &space);
    assert_eq!(a, stream::generate(7, 2000, &space));
    assert_ne!(a, stream::generate(8, 2000, &space));
    let malformed = a
        .iter()
        .filter(|r| matches!(r.kind, Kind::Malformed(_)))
        .count();
    assert!(
        (10..=80).contains(&malformed),
        "{malformed} malformed lines in 2000"
    );
    for kind in ["predict", "pareto", "topk", "sweep", "stats"] {
        assert!(a.iter().any(|r| r.kind.name() == kind), "no {kind} request");
    }
}

#[test]
fn metric_names_are_legal_and_match_the_benchmark_file() {
    let e2e = metrics::end_to_end();
    let layer = metrics::per_layer();
    for (name, unit) in e2e.iter().chain(&layer) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(!unit.is_empty());
    }
    assert!(!valid_name("wall s") && !valid_name("") && !valid_name(".x"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.as_object()
            .and_then(|o| o.get(key))
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect("field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), owned(e2e));
    assert_eq!(listed("per_layer"), owned(layer));
}

#[test]
fn every_workload_has_a_golden_fingerprint() {
    for w in WORKLOADS {
        assert!(golden(w).is_some(), "no golden fingerprint for {w}");
    }
}

fn smoke(workload: &str, trace: bool) -> dynabench::workload::Outcome {
    let opts = RunOpts {
        seed: 3,
        seconds: 2.0,
        trace,
        scale: Scale::Tiny,
        scratch: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{workload}-{trace}")),
    };
    let out = run_workload(workload, &opts).expect("workload runs");
    let _ = std::fs::remove_dir_all(&opts.scratch);
    assert!(out.tally.attempted > 0);
    assert_eq!(
        out.tally.failed, 0,
        "{workload}: {:?}",
        out.tally.first_failure
    );
    let vocabulary = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let line = metrics::result_line(true, out.tally.attempted, 0, &vocabulary, &out.values)
        .expect("every metric measured");
    assert!(json::parse(&line).is_ok(), "result line is JSON: {line}");
    out
}

#[test]
fn smoke_dse_campaign() {
    smoke("dse_campaign", false);
    let traced = smoke("dse_campaign", true);
    assert_eq!(traced.values.get("sim.instr_per_point"), Some(3.0));
}

#[test]
fn smoke_dvm_study() {
    smoke("dvm_study", false);
    let traced = smoke("dvm_study", true);
    assert_eq!(traced.values.get("sim.instr_per_point"), Some(1.0));
}

#[test]
fn smoke_serve_mix() {
    smoke("serve_mix", false);
    let traced = smoke("serve_mix", true);
    assert_eq!(traced.values.get("sim.instr_per_point"), Some(3.0));
}

#[test]
fn unknown_workload_is_refused() {
    let opts = RunOpts {
        seed: 1,
        seconds: 0.1,
        trace: false,
        scale: Scale::Tiny,
        scratch: std::env::temp_dir(),
    };
    assert!(run_workload("nope", &opts).is_err());
}
