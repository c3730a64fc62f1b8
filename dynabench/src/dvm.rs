//! `dvm_study`: the §5 case study, `evaluate_benchmark(gcc, IQ AVF)` in
//! the 10-parameter design space whose last knob engages the Dynamic
//! Vulnerability Management throttle.
//!
//! It uses the simulator differently from `dse_campaign`: the DVM path is
//! live on the DVM-on points, one metric is evaluated, and the sequential
//! path runs on one thread with no executor and no journal. A change that
//! simulates once per design point should leave it unchanged, and a fast
//! path that compiles DVM out when it is off must not slow it.

use crate::layers::{self, instructions_per_run, LATENCY_SHARE};
use crate::measure::{median, repeat_for, timed, Windowed};
use crate::workload::{json_array, Outcome, RunOpts, Scale, Tally};
use dynawave_core::experiment::{evaluate_benchmark, BenchmarkEvaluation, ExperimentConfig};
use dynawave_core::{trace_for, Metric, TraceSet, WaveletNeuralPredictor};
use dynawave_sampling::DesignPoint;
use dynawave_workloads::Benchmark;

/// Workload name.
pub const NAME: &str = "dvm_study";

/// The case study's benchmark and metric.
const BENCHMARK: Benchmark = Benchmark::Gcc;
const METRIC: Metric = Metric::IqAvf;

/// How often set-up is repeated; its median is `setup_s`.
const SETUP_REPS: usize = 201;
/// Points per DVM setting in the engine probe.
const ENGINE_POINTS: usize = 4;
/// Full passes of the generator probe.
const GEN_REPS: usize = 3;

/// The study's experiment configuration at `seed`.
pub fn config(seed: u64, scale: Scale) -> ExperimentConfig {
    let (train_points, test_points, samples, interval_instructions) = match scale {
        Scale::Full => (24, 6, 128, 2048),
        Scale::Tiny => (12, 3, 16, 256),
    };
    ExperimentConfig {
        train_points,
        test_points,
        samples,
        interval_instructions,
        seed,
        with_dvm_parameter: true,
        ..ExperimentConfig::default()
    }
}

fn dvm_on(point: &DesignPoint) -> bool {
    point.values().get(9).is_some_and(|&v| v > 0.0)
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if opts.trace {
        traced(opts, &config(opts.seed, opts.scale), &mut out)?;
        return Ok(out);
    }
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            timed(|| {
                let cfg = config(opts.seed, opts.scale);
                (cfg.train_design(), cfg.test_design())
            })
            .1
        })
        .collect();
    let cfg = config(opts.seed, opts.scale);
    let evaluate = || {
        evaluate_benchmark(BENCHMARK, METRIC, &cfg).map_err(|e| format!("evaluation failed: {e}"))
    };
    let mut reference = None;
    let mut last = None;
    let (mut predict, mut query) = (Windowed::new(), Windowed::new());
    let on_level = cfg.space().parameters()[9]
        .train_levels()
        .iter()
        .fold(0.0, |m: f64, v| m.max(*v));
    let walls = repeat_for(opts.seconds, 1, |_| {
        let (eval, wall) = timed(evaluate);
        let eval = eval?;
        let fp = layers::evaluation_fingerprint(&eval);
        match reference {
            None => {
                out.check_golden(NAME, opts, fp);
                reference = Some(fp);
            }
            Some(first) => out.tally.check(first == fp, || {
                "evaluation output changed between iterations".into()
            }),
        }
        let tally = &mut out.tally;
        layers::latency_windows(wall * LATENCY_SHARE, &mut predict, &mut query, |p, q| {
            layers::predict_window(std::slice::from_ref(&eval), p, tally);
            dvm_query_window(&eval, on_level, q, tally);
        });
        last = Some(eval);
        Ok::<f64, String>(wall)
    })?;
    let evals = [last.ok_or("no iteration ran")?];
    let points = ((cfg.train_points + cfg.test_points) * walls.len()) as f64;
    out.set_end_to_end(&setup, &walls, points, &predict, &query)?;
    out.note("iterations", walls.len().to_string());
    out.note("walls_s", json_array(&walls));
    out.note(
        "nmse_iq_avf_pct",
        format!("{}", layers::pooled_nmse(&evals, METRIC)),
    );
    Ok(out)
}

/// The DVM on/off query: IQ AVF predicted at one held-out point with the
/// throttle off and on, the question the case study asks per point.
fn dvm_query_window(e: &BenchmarkEvaluation, on_level: f64, us: &mut Windowed, tally: &mut Tally) {
    for s in 0..Windowed::WINDOW {
        let j = s % e.test.points.len();
        let point = &e.test.points[j];
        let mut off = point.values().to_vec();
        off[9] = 0.0;
        let mut on = off.clone();
        on[9] = on_level;
        let (off, on) = (DesignPoint::new(off), DesignPoint::new(on));
        let (preds, dt) = timed(|| (e.model.predict(&off), e.model.predict(&on)));
        us.push(dt * 1e6);
        let own = if dvm_on(point) { &preds.1 } else { &preds.0 };
        tally.check(*own == e.predictions[j], || {
            format!("DVM query at point {j} differs from the evaluation")
        });
    }
}

fn traced(opts: &RunOpts, cfg: &ExperimentConfig, out: &mut Outcome) -> Result<(), String> {
    let sim_opts = cfg.sim_options();
    let evaluate = || {
        evaluate_benchmark(BENCHMARK, METRIC, cfg).map_err(|e| format!("evaluation failed: {e}"))
    };
    let (reference, wall_u) = timed(evaluate);
    let reference = reference?;
    let reference_fp = layers::evaluation_fingerprint(&reference);
    out.check_golden(NAME, opts, reference_fp);

    dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    let (traced_eval, wall_t) = timed(evaluate);
    let events = dynawave_obs::drain().unwrap_or_default();
    out.tally.check(
        traced_eval.is_ok_and(|e| layers::evaluation_fingerprint(&e) == reference_fp),
        || "traced evaluation output differs from the untraced one".into(),
    );
    let points = (cfg.train_points + cfg.test_points) as f64;
    let v = &mut out.values;
    v.set(
        "sim.instr_per_point",
        layers::instr_per_point(&events, points, &sim_opts),
    );
    v.set("trace.overhead_s", wall_t - wall_u);

    // Simulator and AVF layers: every point's trace_for replayed.
    let train = cfg.train_design();
    let test = cfg.test_design();
    let mut busy = 0.0;
    let mut avf_us = Vec::new();
    let mut train_traces = Vec::with_capacity(train.len());
    let mut engine_refs = Vec::new();
    for (i, point) in train.iter().chain(&test).enumerate() {
        let r = layers::replay(BENCHMARK, point, METRIC, &sim_opts);
        busy += r.sim_s;
        avf_us.push(r.extract_s * 1e6);
        if i < train.len() {
            let keep = engine_refs
                .iter()
                .filter(|(p, _): &&(DesignPoint, _)| dvm_on(p) == dvm_on(point))
                .count();
            if keep < ENGINE_POINTS {
                engine_refs.push((point.clone(), r.run.intervals));
            }
            train_traces.push(r.trace);
        } else {
            let j = i - train.len();
            out.tally
                .check(reference.test.traces.get(j) == Some(&r.trace), || {
                    format!("replayed test trace {j} differs from the evaluation's")
                });
        }
    }
    let v = &mut out.values;
    v.set("sim.busy_s", busy);
    v.set("sim.share", busy / wall_t);
    v.set("avf.trace_us", median(&avf_us).unwrap_or(0.0));

    let mut trace_for_ms = Vec::new();
    for (i, point) in train.iter().enumerate().take(ENGINE_POINTS) {
        let (t, dt) = timed(|| trace_for(BENCHMARK, point, METRIC, &sim_opts));
        trace_for_ms.push(dt * 1e3);
        out.tally.check(train_traces[i] == t, || {
            format!("trace_for of training point {i} differs from its replay")
        });
    }
    out.values
        .set("dataset.trace_for_ms", median(&trace_for_ms).unwrap_or(0.0));

    let instrs = instructions_per_run(&sim_opts) as f64;
    let gen = layers::generator_ns_per_instr(BENCHMARK, &sim_opts, GEN_REPS, &mut out.tally);
    out.values.set(
        format!("workloads.gen_ns_per_instr.{}", BENCHMARK.name()),
        gen,
    );
    let stream = layers::instruction_stream(BENCHMARK, &sim_opts);
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    for (point, intervals) in &engine_refs {
        let (run, dt) = layers::engine_run(point, &stream, &sim_opts);
        if dvm_on(point) {
            on_s.push(dt)
        } else {
            off_s.push(dt)
        }
        out.tally.check(run.intervals == *intervals, || {
            "run_trace differs from Simulator::run".into()
        });
    }
    let ns = |xs: &[f64]| median(xs).unwrap_or(0.0) * 1e9 / instrs;
    let all: Vec<f64> = on_s.iter().chain(&off_s).copied().collect();
    let v = &mut out.values;
    v.set(
        format!("sim.engine_ns_per_instr.{}", BENCHMARK.name()),
        ns(&all),
    );
    v.set("sim.engine_ns_per_instr.dvm_on", ns(&on_s));
    v.set("sim.engine_ns_per_instr.dvm_off", ns(&off_s));

    let (dec, rec) = layers::wavelet_us(
        &reference.test.traces,
        cfg.predictor.wavelet,
        &mut out.tally,
    );
    out.values.set("wavelet.wavedec_us", dec);
    out.values.set("wavelet.waverec_us", rec);
    let set = TraceSet {
        benchmark: BENCHMARK,
        metric: METRIC,
        points: train,
        traces: train_traces,
    };
    let (model, train_s) =
        timed(|| WaveletNeuralPredictor::train_resilient(&set, &cfg.predictor, &cfg.recovery));
    let (model, _) = model.map_err(|e| format!("training failed: {e}"))?;
    let mut predict_us = Vec::new();
    for (j, point) in test.iter().enumerate() {
        let (p, dt) = timed(|| model.predict(point));
        predict_us.push(dt * 1e6);
        out.tally.check(p == reference.predictions[j], || {
            format!("retrained model predicts differently at point {j}")
        });
    }
    out.values.set("predictor.train_ms", train_s * 1e3);
    out.values
        .set("predictor.predict_us", median(&predict_us).unwrap_or(0.0));
    layers::nmse_values(std::slice::from_ref(&reference), &mut out.values);
    out.not_exercised(&[
        "workloads.gen_ns_per_instr.mcf",
        "workloads.gen_ns_per_instr.crafty",
        "workloads.gen_ns_per_instr.swim",
        "sim.engine_ns_per_instr.mcf",
        "sim.engine_ns_per_instr.crafty",
        "sim.engine_ns_per_instr.swim",
        "power.",
        "campaign.",
        "serve.",
    ]);
    out.note("wall_untraced_s", format!("{wall_u}"));
    out.note("wall_traced_s", format!("{wall_t}"));
    Ok(())
}
