//! Per-layer probes shared by the workloads. Each one calls a layer's
//! public functions under an outside timer and hands back what the call
//! returned, so the caller can check it against the direct call.

use crate::measure::{median, repeat_for, timed, Windowed};
use crate::workload::Tally;
use dynawave_avf::{AvfModel, Structure};
use dynawave_core::experiment::BenchmarkEvaluation;
use dynawave_core::Metric;
use dynawave_power::PowerModel;
use dynawave_sampling::DesignPoint;
use dynawave_sim::{MachineConfig, RunResult, SimOptions, Simulator};
use dynawave_wavelet::{wavedec, waverec, Wavelet};
use dynawave_workloads::{Benchmark, Instruction, TraceGenerator};

/// Instructions one simulation of `opts` executes.
pub fn instructions_per_run(opts: &SimOptions) -> u64 {
    opts.samples as u64 * opts.interval_instructions
}

/// Simulated instructions per design point, from the
/// `sim.instructions_committed` counter of a drained tick-clock recorder:
/// 1.0 when every point is simulated once.
pub fn instr_per_point(events: &[dynawave_obs::Event], points: f64, opts: &SimOptions) -> f64 {
    let committed: u64 = events
        .iter()
        .filter(|e| {
            e.kind == dynawave_obs::event::EventKind::Counter
                && e.name == "sim.instructions_committed"
        })
        .filter_map(|e| e.count)
        .sum();
    committed as f64 / (points * instructions_per_run(opts) as f64)
}

/// One `dataset::trace_for` call replayed layer by layer: the simulation
/// and the metric extraction timed separately.
pub struct Replay {
    /// The metric trace, as `trace_for` computes it.
    pub trace: Vec<f64>,
    /// The simulation's result.
    pub run: RunResult,
    /// Host seconds in `Simulator::run`.
    pub sim_s: f64,
    /// Host seconds turning the run into the metric trace.
    pub extract_s: f64,
}

/// Replays `trace_for(benchmark, point, metric, opts)` through the
/// simulator, power and AVF layers' public functions.
pub fn replay(
    benchmark: Benchmark,
    point: &DesignPoint,
    metric: Metric,
    opts: &SimOptions,
) -> Replay {
    let config = MachineConfig::from_design_values(point.values());
    let (run, sim_s) = timed(|| Simulator::new(config.clone()).run(benchmark, opts));
    let (trace, extract_s) = match metric {
        Metric::Cpi => timed(|| run.cpi_trace()),
        Metric::Power => timed(|| PowerModel::new(&config).power_trace(&run)),
        Metric::Avf => timed(|| {
            let avf = AvfModel::new(&config);
            run.intervals
                .iter()
                .map(|i| avf.interval_report(i).combined(&config))
                .collect()
        }),
        Metric::IqAvf => timed(|| AvfModel::new(&config).avf_trace(&run, Structure::IssueQueue)),
    };
    Replay {
        trace,
        run,
        sim_s,
        extract_s,
    }
}

/// Host ns per generated instruction of `TraceGenerator` for `benchmark`
/// (median of `reps` full passes); checks each pass yields every
/// instruction.
pub fn generator_ns_per_instr(
    benchmark: Benchmark,
    opts: &SimOptions,
    reps: usize,
    tally: &mut Tally,
) -> f64 {
    let total = instructions_per_run(opts);
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (count, dt) = timed(|| TraceGenerator::new(benchmark, total, opts.seed).count());
        tally.check(count as u64 == total, || {
            format!(
                "generator for {} yielded {count} of {total}",
                benchmark.name()
            )
        });
        secs.push(dt);
    }
    median(&secs).unwrap_or(0.0) * 1e9 / total as f64
}

/// The instruction stream every design point of `benchmark` sees.
pub fn instruction_stream(benchmark: Benchmark, opts: &SimOptions) -> Vec<Instruction> {
    TraceGenerator::new(benchmark, instructions_per_run(opts), opts.seed).collect()
}

/// Times the timing engine alone: `Simulator::run_trace` over a
/// pre-generated stream at `point`. Returns the run and the host seconds.
pub fn engine_run(
    point: &DesignPoint,
    stream: &[Instruction],
    opts: &SimOptions,
) -> (RunResult, f64) {
    let config = MachineConfig::from_design_values(point.values());
    let sim = Simulator::new(config);
    timed(|| sim.run_trace(stream.iter().copied(), opts))
}

/// Median `wavedec` and `waverec` host microseconds over `traces`;
/// checks that each round trip reconstructs its trace.
pub fn wavelet_us(traces: &[Vec<f64>], wavelet: Wavelet, tally: &mut Tally) -> (f64, f64) {
    let mut dec_us = Vec::with_capacity(traces.len());
    let mut rec_us = Vec::with_capacity(traces.len());
    for t in traces {
        let (dec, dt) = timed(|| wavedec(t, wavelet));
        dec_us.push(dt * 1e6);
        let Ok(dec) = dec else {
            tally.check(false, || {
                format!("wavedec failed on a {}-sample trace", t.len())
            });
            continue;
        };
        let (rec, dt) = timed(|| waverec(&dec));
        rec_us.push(dt * 1e6);
        let scale = t.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        let ok = rec.is_ok_and(|r| {
            r.len() == t.len() && r.iter().zip(t).all(|(a, b)| (a - b).abs() <= 1e-9 * scale)
        });
        tally.check(ok, || {
            "waverec(wavedec(x)) does not reconstruct x".to_string()
        });
    }
    (
        median(&dec_us).unwrap_or(0.0),
        median(&rec_us).unwrap_or(0.0),
    )
}

/// Median NMSE (%) of `metric` over the held-out test design, pooled
/// across every evaluation of that metric; 0 when none was evaluated.
pub fn pooled_nmse(evals: &[BenchmarkEvaluation], metric: Metric) -> f64 {
    let pooled: Vec<f64> = evals
        .iter()
        .filter(|e| e.metric == metric)
        .flat_map(|e| e.nmse_per_test.iter().copied())
        .collect();
    median(&pooled).unwrap_or(0.0)
}

/// Records each metric's pooled NMSE under its per-layer name.
pub fn nmse_values(evals: &[BenchmarkEvaluation], values: &mut crate::metrics::Values) {
    for m in [Metric::Cpi, Metric::Power, Metric::Avf, Metric::IqAvf] {
        values.set(format!("nmse_{}_pct", m.name()), pooled_nmse(evals, m));
    }
}

/// Fingerprint of everything an evaluation outputs: every held-out test
/// trace, every prediction and every NMSE.
pub fn evaluation_fingerprint(e: &BenchmarkEvaluation) -> u64 {
    let mut fp = crate::measure::Fingerprint::default();
    fp.str(e.benchmark.name());
    fp.str(e.metric.name());
    for t in &e.test.traces {
        fp.floats(t);
    }
    for p in &e.predictions {
        fp.floats(p);
    }
    fp.floats(&e.nmse_per_test);
    fp.value()
}

/// Combined fingerprint of a list of evaluations, in order.
pub fn evaluations_fingerprint(evals: &[BenchmarkEvaluation]) -> u64 {
    let mut fp = crate::measure::Fingerprint::default();
    for e in evals {
        fp.u64(evaluation_fingerprint(e));
    }
    fp.value()
}

/// Share of each iteration's wall that an evaluation workload then spends
/// taking latency windows. Interleaving the windows with the iterations
/// spreads the latency samples over the whole run, so a passing burst of
/// host contention cannot set a run's percentiles on its own.
pub const LATENCY_SHARE: f64 = 0.25;

/// Calls `window` with the predict and query collectors, each call
/// filling one window of each, for about `seconds` and at least once.
/// Predict and query windows alternate, so both cover the same stretch of
/// host time.
pub fn latency_windows(
    seconds: f64,
    predict: &mut Windowed,
    query: &mut Windowed,
    mut window: impl FnMut(&mut Windowed, &mut Windowed),
) {
    let Ok(_) = repeat_for(seconds, 1, |_| {
        Ok::<f64, std::convert::Infallible>(timed(|| window(predict, query)).1)
    });
}

/// Fills one window of `predict` latencies (µs) over each evaluation's
/// held-out test design, round-robin; checks every call against the
/// evaluation's own predictions.
pub fn predict_window(evals: &[BenchmarkEvaluation], us: &mut Windowed, tally: &mut Tally) {
    for (s, e) in (0..Windowed::WINDOW).zip(evals.iter().cycle()) {
        let j = (s / evals.len()) % e.test.points.len();
        let (p, dt) = timed(|| e.model.predict(&e.test.points[j]));
        us.push(dt * 1e6);
        tally.check(e.predictions.get(j) == Some(&p), || {
            format!(
                "predict of {}/{} point {j} differs from its evaluation",
                e.benchmark.name(),
                e.metric.name()
            )
        });
    }
}
