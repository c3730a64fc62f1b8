//! `serve_mix`: the prediction daemon's per-line loop, driven in process
//! by one closed-loop client over the seeded request stream.
//!
//! Each line goes through `ServeEngine::handle_line` and then
//! `ServeJournal::append`, exactly as the `serve` binary runs it, under
//! the daemon's default admission settings. Set-up is the cold start:
//! one request per (benchmark, metric) model, each a cache miss that
//! trains the model at a reduced scale. The timed phase runs no
//! simulation and sees only cache hits, so its latency is RBF predict,
//! IDWT, JSON parsing and rendering, and the journal append.

use crate::layers::{self, instructions_per_run};
use crate::measure::{median, repeat_for, timed, Fingerprint, Windowed};
use crate::metrics::SERVE_KINDS;
use crate::stream::{self, Kind, Request};
use crate::workload::{Outcome, RunOpts, Scale, Tally};
use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::serve::{ServeConfig, ServeEngine, ServeJournal};
use dynawave_core::{trace_for, Metric, TraceSet, WaveletNeuralPredictor};
use dynawave_obs::event::push_json_number;
use dynawave_sampling::{random, Split};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
// dynalint:allow(D004) -- the benchmark times the program from outside, by design
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "serve_mix";

/// Training points of the engine probe per benchmark.
const ENGINE_POINTS: usize = 2;
/// Full passes of the generator probe per benchmark.
const GEN_REPS: usize = 3;
/// Held-out points each retrained model predicts in the predictor probe.
const PREDICT_POINTS: usize = 8;

/// The daemon's configuration: default admission settings, models
/// trained at a reduced scale so a cold start takes seconds.
pub fn serve_config(scale: Scale) -> ServeConfig {
    let (train_points, samples, interval_instructions) = match scale {
        Scale::Full => (24, 64, 512),
        Scale::Tiny => (8, 16, 128),
    };
    ServeConfig {
        config: ExperimentConfig {
            train_points,
            samples,
            interval_instructions,
            ..ExperimentConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Request lines per pass of the timed phase.
pub fn stream_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => 2000,
        Scale::Tiny => 200,
    }
}

/// One daemon session: the engine and its response journal.
struct Session {
    engine: ServeEngine,
    journal: ServeJournal,
    path: PathBuf,
}

impl Session {
    fn open(config: &ServeConfig, dir: &Path) -> Result<Session, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join("serve.journal");
        let journal = ServeJournal::create(&path, config).map_err(|e| format!("journal: {e}"))?;
        let mut engine = ServeEngine::new(config.clone());
        engine.note_journal_attached();
        Ok(Session {
            engine,
            journal,
            path,
        })
    }

    /// Starts a fresh journal file for the next pass, so the journal
    /// does not grow with the run length.
    fn rotate_journal(&mut self) -> Result<(), String> {
        self.journal = ServeJournal::create(&self.path, self.engine.config())
            .map_err(|e| format!("journal: {e}"))?;
        Ok(())
    }

    /// One line through the daemon loop: handle, then journal. Returns
    /// the response with the handling and append host seconds.
    fn serve(&mut self, line: &str) -> (String, f64, f64) {
        let (response, handle_s) = timed(|| self.engine.handle_line(line));
        let ((), append_s) = timed(|| self.journal.append(&response));
        (response, handle_s, append_s)
    }
}

/// A cold start: a fresh session answering the warm-up requests. Returns
/// the session, its host seconds, each request's handling seconds and
/// the responses.
fn cold_start(
    config: &ServeConfig,
    dir: &Path,
    warm: &[Request],
) -> Result<(Session, f64, Vec<f64>, Vec<String>), String> {
    let (session, wall) = timed(|| {
        let mut session = Session::open(config, dir)?;
        let mut handle = Vec::with_capacity(warm.len());
        let mut responses = Vec::with_capacity(warm.len());
        for r in warm {
            let (response, h, _) = session.serve(&r.line);
            handle.push(h);
            responses.push(response);
        }
        Ok::<_, String>((session, handle, responses))
    });
    let (session, handle, responses) = session?;
    Ok((session, wall, handle, responses))
}

/// One pass over the stream through the daemon loop. Checks every
/// response, folds the transcript into `transcript` when given, and hands
/// each request's kind with its handling and append seconds to `record`.
/// Returns the pass's host seconds.
fn pass(
    session: &mut Session,
    requests: &[Request],
    tally: &mut Tally,
    mut transcript: Option<&mut Fingerprint>,
    mut record: impl FnMut(Kind, f64, f64),
) -> Result<f64, String> {
    session.rotate_journal()?;
    // dynalint:allow(D004, D007) -- the benchmark times the program from outside, by design
    let start = Instant::now();
    for r in requests {
        let (response, handle_s, append_s) = session.serve(&r.line);
        record(r.kind, handle_s, append_s);
        tally.check(r.kind.accepts(&response), || {
            format!("{} got: {response}", r.line)
        });
        if let Some(fp) = transcript.as_deref_mut() {
            fp.str(&response);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    tally.check(!session.journal.is_broken(), || {
        "the response journal broke".into()
    });
    Ok(wall)
}

fn check_warm(responses: &[String], warm: &[Request], tally: &mut Tally) {
    for (r, response) in warm.iter().zip(responses) {
        tally.check(r.kind.accepts(response), || {
            format!("cold start {} got: {response}", r.line)
        });
    }
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let config = serve_config(opts.scale);
    let space = config.config.space();
    let warm = stream::warmup(&space);
    let requests = stream::generate(opts.seed, stream_len(opts.scale), &space);
    let mut out = Outcome::default();
    out.note("stream_len", requests.len().to_string());
    if opts.trace {
        traced(opts, &config, &warm, &requests, &mut out)?;
        return Ok(out);
    }
    // One cold start per process: a split run's processes give the
    // several set-up samples whose median is `setup_s`.
    let (mut session, cold_s, _, responses) =
        cold_start(&config, &opts.scratch.join("serve"), &warm)?;
    check_warm(&responses, &warm, &mut out.tally);
    let mut transcript = Fingerprint::default();
    for r in &responses {
        transcript.str(r);
    }
    let (mut predict, mut query) = (Windowed::new(), Windowed::new());
    let walls = repeat_for(opts.seconds, passes_for_windows(&requests)?, |p| {
        let fp = (p == 0).then_some(&mut transcript);
        pass(&mut session, &requests, &mut out.tally, fp, |kind, h, a| {
            if kind == Kind::Predict {
                predict.push((h + a) * 1e6);
            } else if kind.is_query() {
                query.push((h + a) * 1e6);
            }
        })
    })?;
    out.check_golden(NAME, opts, transcript.value());
    let requests_served = (requests.len() * walls.len()) as f64;
    out.set_end_to_end(&[cold_s], &walls, requests_served, &predict, &query)?;
    out.note("passes", walls.len().to_string());
    Ok(out)
}

/// Passes over `requests` that close one latency window of `predict`
/// requests and one of queries: the fewest a run needs to report its
/// percentiles. `--seconds` only bounds the passes after these.
fn passes_for_windows(requests: &[Request]) -> Result<usize, String> {
    let predicts = requests.iter().filter(|r| r.kind == Kind::Predict).count();
    let queries = requests.iter().filter(|r| r.kind.is_query()).count();
    let fewest = predicts.min(queries);
    if fewest == 0 {
        return Err("the request stream has no predict or no query lines".into());
    }
    Ok(Windowed::WINDOW.div_ceil(fewest))
}

/// The model-cache hit ratio a `stats` request reports.
fn cache_hit_ratio(session: &mut Session) -> Result<f64, String> {
    let line = "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"probe\",\"kind\":\"stats\"}";
    let (response, _, _) = session.serve(line);
    let doc = dynawave_obs::json::parse(&response).map_err(|e| format!("stats response: {e}"))?;
    let models = doc
        .as_object()
        .and_then(|o| o.get("stats"))
        .and_then(|s| s.as_object())
        .and_then(|s| s.get("models"))
        .and_then(|m| m.as_object())
        .ok_or("stats response has no model counts")?;
    let count = |k: &str| models.get(k).and_then(|v| v.as_u64()).unwrap_or(0) as f64;
    let (hits, misses) = (count("hits"), count("misses"));
    Ok(hits / (hits + misses).max(1.0))
}

/// The `results` array a single-point `predict` answers with, rendered
/// as the daemon renders it.
fn predict_results(trace: &[f64]) -> String {
    let n = trace.len().max(1) as f64;
    let mean = trace.iter().sum::<f64>() / n;
    let lo = trace.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = trace.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut out = String::from("\"results\":[{\"mean\":");
    push_json_number(&mut out, mean);
    out.push_str(",\"min\":");
    push_json_number(&mut out, lo);
    out.push_str(",\"max\":");
    push_json_number(&mut out, hi);
    out.push_str("}]");
    out
}

fn traced(
    opts: &RunOpts,
    config: &ServeConfig,
    warm: &[Request],
    requests: &[Request],
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = &config.config;
    let sim_opts = cfg.sim_options();
    let (mut session, _, handle, reference) =
        cold_start(config, &opts.scratch.join("serve-untraced"), warm)?;
    check_warm(&reference, warm, &mut out.tally);
    out.values.set(
        "serve.model_resolve_ms",
        median(&handle.iter().map(|h| h * 1e3).collect::<Vec<_>>()).unwrap_or(0.0),
    );

    dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    let cold = cold_start(config, &opts.scratch.join("serve-traced"), warm);
    let events = dynawave_obs::drain().unwrap_or_default();
    let (_, cold_wall_t, _, responses) = cold?;
    out.tally.check(responses == reference, || {
        "traced cold start answered differently".into()
    });
    let trained_points = (stream::BENCHMARKS.len() * cfg.train_points) as f64;
    out.values.set(
        "sim.instr_per_point",
        layers::instr_per_point(&events, trained_points, &sim_opts),
    );

    // Daemon layer: the first pass untraced (its transcript is the one
    // the golden fingerprint pins), the second with the recorder installed.
    let mut transcript = Fingerprint::default();
    for r in &reference {
        transcript.str(r);
    }
    let wall_u = pass(
        &mut session,
        requests,
        &mut out.tally,
        Some(&mut transcript),
        |_, _, _| {},
    )?;
    out.check_golden(NAME, opts, transcript.value());
    let mut handle_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut append_us = Vec::with_capacity(requests.len());
    dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    let traced_pass = pass(
        &mut session,
        requests,
        &mut out.tally,
        None,
        |kind, h, a| {
            handle_us.entry(kind.name()).or_default().push(h * 1e6);
            append_us.push(a * 1e6);
        },
    );
    dynawave_obs::drain();
    let wall_t = traced_pass?;
    out.values.set("trace.overhead_s", wall_t - wall_u);
    for k in SERVE_KINDS {
        let us = handle_us.get(k).and_then(|xs| median(xs)).unwrap_or(0.0);
        out.values.set(format!("serve.handle_us.{k}"), us);
    }
    out.values
        .set("serve.journal_append_us", median(&append_us).unwrap_or(0.0));
    out.values
        .set("serve.cache_hit_ratio", cache_hit_ratio(&mut session)?);

    // Cold start replayed layer by layer: each model's training traces,
    // then its training.
    let train = cfg.train_design();
    let held_out = random::sample(&cfg.space(), PREDICT_POINTS, Split::Test, opts.seed);
    let mut busy = 0.0;
    let (mut power_us, mut avf_us, mut trace_for_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut train_ms, mut predict_us) = (Vec::new(), Vec::new());
    let mut all_traces = Vec::new();
    let mut engine_refs = BTreeMap::new();
    for (b_idx, b) in stream::BENCHMARKS.into_iter().enumerate() {
        for (m_idx, m) in Metric::DOMAINS.into_iter().enumerate() {
            let mut traces = Vec::with_capacity(train.len());
            for (i, point) in train.iter().enumerate() {
                let r = layers::replay(b, point, m, &sim_opts);
                busy += r.sim_s;
                match m {
                    Metric::Power => power_us.push(r.extract_s * 1e6),
                    Metric::Avf => avf_us.push(r.extract_s * 1e6),
                    _ => {}
                }
                if m == Metric::Cpi && i < ENGINE_POINTS {
                    engine_refs.insert((b, i), r.run.intervals);
                }
                traces.push(r.trace);
            }
            let (t, dt) = timed(|| trace_for(b, &train[0], m, &sim_opts));
            trace_for_ms.push(dt * 1e3);
            out.tally.check(t == traces[0], || {
                format!(
                    "trace_for({}, {}) differs from its replay",
                    b.name(),
                    m.name()
                )
            });
            let set = TraceSet {
                benchmark: b,
                metric: m,
                points: train.clone(),
                traces,
            };
            let (model, dt) = timed(|| {
                WaveletNeuralPredictor::train_resilient(&set, &cfg.predictor, &cfg.recovery)
            });
            train_ms.push(dt * 1e3);
            let (model, _) = model.map_err(|e| format!("training failed: {e}"))?;
            let warm_point = dynawave_sampling::DesignPoint::new(
                cfg.space()
                    .parameters()
                    .iter()
                    .map(|p| p.test_levels()[0])
                    .collect(),
            );
            let served = &reference[b_idx * Metric::DOMAINS.len() + m_idx];
            out.tally.check(
                served.contains(&predict_results(&model.predict(&warm_point))),
                || {
                    format!(
                        "retrained {}/{} model answers differently from the daemon",
                        b.name(),
                        m.name()
                    )
                },
            );
            for point in &held_out {
                predict_us.push(timed(|| model.predict(point)).1 * 1e6);
            }
            all_traces.extend(set.traces);
        }
    }
    let v = &mut out.values;
    v.set("sim.busy_s", busy);
    v.set("sim.share", busy / cold_wall_t);
    v.set("power.trace_us", median(&power_us).unwrap_or(0.0));
    v.set("avf.trace_us", median(&avf_us).unwrap_or(0.0));
    v.set("dataset.trace_for_ms", median(&trace_for_ms).unwrap_or(0.0));
    v.set("predictor.train_ms", median(&train_ms).unwrap_or(0.0));
    v.set("predictor.predict_us", median(&predict_us).unwrap_or(0.0));
    let (dec, rec) = layers::wavelet_us(&all_traces, cfg.predictor.wavelet, &mut out.tally);
    out.values.set("wavelet.wavedec_us", dec);
    out.values.set("wavelet.waverec_us", rec);

    let instrs = instructions_per_run(&sim_opts) as f64;
    for b in stream::BENCHMARKS {
        let gen = layers::generator_ns_per_instr(b, &sim_opts, GEN_REPS, &mut out.tally);
        out.values
            .set(format!("workloads.gen_ns_per_instr.{}", b.name()), gen);
        let stream = layers::instruction_stream(b, &sim_opts);
        let mut secs = Vec::new();
        for (i, point) in train.iter().enumerate().take(ENGINE_POINTS) {
            let (run, dt) = layers::engine_run(point, &stream, &sim_opts);
            secs.push(dt);
            out.tally
                .check(engine_refs.get(&(b, i)) == Some(&run.intervals), || {
                    format!(
                        "run_trace of {} point {i} differs from Simulator::run",
                        b.name()
                    )
                });
        }
        out.values.set(
            format!("sim.engine_ns_per_instr.{}", b.name()),
            median(&secs).unwrap_or(0.0) * 1e9 / instrs,
        );
    }
    out.not_exercised(&["sim.engine_ns_per_instr.dvm_", "campaign.", "nmse_"]);
    out.note("wall_untraced_s", format!("{wall_u}"));
    out.note("wall_traced_s", format!("{wall_t}"));
    Ok(())
}
