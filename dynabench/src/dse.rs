//! `dse_campaign`: the sharded, journaled campaign over {mcf, crafty} ×
//! the three metric domains, with paper-shaped traces.
//!
//! It is the simulation-bound workload and the only one that uses the
//! campaign executor, the journal and the train-and-score finish. mcf's
//! working set overflows the modelled caches and crafty's fits, so a
//! cache-path change shows on one and not the other. Every design point
//! is simulated once per metric, which is the waste `sim.instr_per_point`
//! (3.0 here) records.

use crate::layers::{self, instructions_per_run, LATENCY_SHARE};
use crate::measure::{median, repeat_for, timed, Windowed};
use crate::workload::{json_array, threads, Outcome, RunOpts, Scale, Tally};
use dynawave_core::campaign::{run_journaled_parallel, CampaignRunner, CampaignSpec, UnitRole};
use dynawave_core::experiment::{BenchmarkEvaluation, ExperimentConfig};
use dynawave_core::{trace_for, Metric, ShardedCampaign, TraceSet, WaveletNeuralPredictor};
use dynawave_workloads::Benchmark;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Workload name.
pub const NAME: &str = "dse_campaign";

/// Benchmarks of the campaign: one cache-hostile, one cache-friendly.
pub const BENCHMARKS: [Benchmark; 2] = [Benchmark::Mcf, Benchmark::Crafty];

/// How often set-up is repeated; its median is `setup_s`.
const SETUP_REPS: usize = 201;
/// Training points of the engine probe per benchmark.
const ENGINE_POINTS: usize = 4;
/// Full passes of the generator probe per benchmark.
const GEN_REPS: usize = 3;

/// The campaign's experiment configuration at `seed`.
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
        ..ExperimentConfig::default()
    }
}

/// The campaign spec over [`BENCHMARKS`] × `Metric::DOMAINS`.
pub fn spec(cfg: &ExperimentConfig) -> CampaignSpec {
    CampaignSpec {
        benchmarks: BENCHMARKS.to_vec(),
        metrics: Metric::DOMAINS.to_vec(),
        config: cfg.clone(),
    }
}

/// One campaign in a fresh journal directory (a leftover journal would
/// resume instead of simulating). Returns the evaluations, the host
/// seconds of `run_journaled_parallel` and the final journal text.
fn run_campaign(
    spec: &CampaignSpec,
    threads: usize,
    dir: &Path,
) -> Result<(Vec<BenchmarkEvaluation>, f64, String), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("campaign.journal");
    let (evals, wall) = timed(|| run_journaled_parallel(spec, &path, threads));
    let evals = evals.map_err(|e| format!("campaign failed: {e}"))?;
    let journal = std::fs::read_to_string(&path).map_err(|e| format!("read journal: {e}"))?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok((evals, wall, journal))
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let cfg = config(opts.seed, opts.scale);
    let mut out = Outcome::default();
    let spec = spec(&cfg);
    out.note("units", spec.unit_count().to_string());
    if opts.trace {
        traced(opts, &spec, &mut out)?;
    } else {
        untraced(opts, &spec, &mut out)?;
    }
    Ok(out)
}

fn untraced(opts: &RunOpts, spec: &CampaignSpec, out: &mut Outcome) -> Result<(), String> {
    let (_, threads) = threads();
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| timed(|| CampaignRunner::new(spec.clone())).1)
        .collect();
    let mut reference: Option<Vec<u64>> = None;
    let mut last: Vec<BenchmarkEvaluation> = Vec::new();
    let (mut predict, mut query) = (Windowed::new(), Windowed::new());
    let walls = repeat_for(opts.seconds, 1, |i| {
        let (evals, wall, _) = run_campaign(spec, threads, &opts.scratch.join(format!("dse-{i}")))?;
        let fps: Vec<u64> = evals.iter().map(layers::evaluation_fingerprint).collect();
        match &reference {
            None => {
                out.check_golden(NAME, opts, layers::evaluations_fingerprint(&evals));
                reference = Some(fps);
            }
            Some(first) => {
                for (j, e) in evals.iter().enumerate() {
                    out.tally.check(first.get(j) == fps.get(j), || {
                        format!(
                            "{}/{} output changed between iterations",
                            e.benchmark.name(),
                            e.metric.name()
                        )
                    });
                }
            }
        }
        let tally = &mut out.tally;
        layers::latency_windows(wall * LATENCY_SHARE, &mut predict, &mut query, |p, q| {
            layers::predict_window(&evals, p, tally);
            domain_query_window(&evals, q, tally);
        });
        last = evals;
        Ok::<f64, String>(wall)
    })?;
    let units = (spec.unit_count() * walls.len()) as f64;
    out.set_end_to_end(&setup, &walls, units, &predict, &query)?;
    out.note("iterations", walls.len().to_string());
    out.note("walls_s", json_array(&walls));
    for m in Metric::DOMAINS {
        out.note(
            &format!("nmse_{}_pct", m.name()),
            format!("{}", layers::pooled_nmse(&last, m)),
        );
    }
    Ok(())
}

/// The all-domain query: CPI, power and AVF of one benchmark predicted at
/// one held-out point, as a Pareto query needs per point.
fn domain_query_window(evals: &[BenchmarkEvaluation], us: &mut Windowed, tally: &mut Tally) {
    let groups: Vec<Vec<&BenchmarkEvaluation>> = BENCHMARKS
        .iter()
        .map(|b| evals.iter().filter(|e| e.benchmark == *b).collect())
        .collect();
    for s in 0..Windowed::WINDOW {
        let group = &groups[s % groups.len()];
        let points = &group[0].test.points;
        let j = (s / groups.len()) % points.len();
        let (preds, dt) = timed(|| {
            group
                .iter()
                .map(|e| e.model.predict(&points[j]))
                .collect::<Vec<_>>()
        });
        us.push(dt * 1e6);
        let ok = preds.iter().zip(group).all(|(p, e)| *p == e.predictions[j]);
        tally.check(ok, || {
            format!("all-domain query at point {j} differs from the evaluations")
        });
    }
}

/// `unit <key> <values>` journal lines by unit key.
fn journal_units(journal: &str) -> BTreeMap<String, (String, Vec<f64>)> {
    journal
        .lines()
        .filter(|l| l.starts_with("unit "))
        .filter_map(|l| {
            let tokens: Vec<&str> = l.split(' ').collect();
            let key = tokens.get(1..5)?.join(" ");
            let trace = tokens[5..]
                .iter()
                .map(|t| t.parse().ok())
                .collect::<Option<Vec<f64>>>()?;
            Some((key, (format!("{l}\n"), trace)))
        })
        .collect()
}

fn traced(opts: &RunOpts, spec: &CampaignSpec, out: &mut Outcome) -> Result<(), String> {
    let (_, threads) = threads();
    let cfg = &spec.config;
    let sim_opts = cfg.sim_options();
    let (reference, wall_u, _) = run_campaign(spec, threads, &opts.scratch.join("dse-untraced"))?;
    let reference_fp = layers::evaluations_fingerprint(&reference);
    out.check_golden(NAME, opts, reference_fp);

    dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    let traced_run = run_campaign(spec, threads, &opts.scratch.join("dse-traced"));
    let events = dynawave_obs::drain().unwrap_or_default();
    let (evals, wall_t, journal) = traced_run?;
    out.tally.check(
        layers::evaluations_fingerprint(&evals) == reference_fp,
        || "traced campaign output differs from the untraced one".into(),
    );
    let points = (BENCHMARKS.len() * (cfg.train_points + cfg.test_points)) as f64;
    let v = &mut out.values;
    v.set(
        "sim.instr_per_point",
        layers::instr_per_point(&events, points, &sim_opts),
    );
    v.set("trace.overhead_s", wall_t - wall_u);
    let units = journal_units(&journal);

    // Campaign layer: every unit through ShardedCampaign::step, round
    // robin over the executor's own shard assignment, then the finish.
    let mut sharded = ShardedCampaign::new(spec.clone(), threads);
    let owned: Vec<BTreeSet<String>> = (0..threads)
        .map(|s| {
            sharded
                .pending_for_shard(s)
                .iter()
                .map(|&i| sharded.runner().units()[i].key())
                .collect()
        })
        .collect();
    let mut shard_s = vec![0.0; threads];
    let mut unit_ms = Vec::new();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (s, busy) in shard_s.iter_mut().enumerate() {
            let (step, dt) = timed(|| sharded.step(s));
            let Some((unit, line)) = step else { continue };
            progressed = true;
            *busy += dt;
            unit_ms.push(dt * 1e3);
            let key = unit.key();
            let same = units.get(&key).is_some_and(|(l, _)| *l == line);
            out.tally.check(owned[s].contains(&key) && same, || {
                format!("step({s}) ran {key} with a different journal line or shard")
            });
        }
    }
    let (finished, finish_s) = timed(|| sharded.finish());
    let finished = finished.map_err(|e| format!("campaign finish failed: {e}"))?;
    out.tally.check(
        layers::evaluations_fingerprint(&finished) == reference_fp,
        || "stepped campaign output differs from run_journaled_parallel".into(),
    );
    let mean_shard = shard_s.iter().sum::<f64>() / threads as f64;
    let v = &mut out.values;
    v.set("campaign.unit_ms", median(&unit_ms).unwrap_or(0.0));
    v.set("campaign.finish_ms", finish_s * 1e3);
    v.set(
        "campaign.shard_imbalance",
        shard_s.iter().fold(0.0_f64, |m, x| m.max(*x)) / mean_shard,
    );

    // Simulator, power and AVF layers: every unit's trace_for replayed.
    let train = cfg.train_design();
    let test = cfg.test_design();
    let mut busy = 0.0;
    let (mut power_us, mut avf_us) = (Vec::new(), Vec::new());
    let mut engine_refs: BTreeMap<(Benchmark, usize), Vec<dynawave_sim::IntervalStats>> =
        BTreeMap::new();
    for unit in sharded.runner().units() {
        let point = match unit.role {
            UnitRole::Train => &train[unit.point_index],
            UnitRole::Test => &test[unit.point_index],
        };
        let r = layers::replay(unit.benchmark, point, unit.metric, &sim_opts);
        busy += r.sim_s;
        match unit.metric {
            Metric::Power => power_us.push(r.extract_s * 1e6),
            Metric::Avf => avf_us.push(r.extract_s * 1e6),
            _ => {}
        }
        let key = unit.key();
        out.tally
            .check(units.get(&key).is_some_and(|(_, t)| *t == r.trace), || {
                format!("replayed trace of {key} differs from the campaign's")
            });
        if unit.role == UnitRole::Train
            && unit.metric == Metric::Cpi
            && unit.point_index < ENGINE_POINTS
        {
            engine_refs.insert((unit.benchmark, unit.point_index), r.run.intervals);
        }
    }
    let v = &mut out.values;
    v.set("sim.busy_s", busy);
    v.set("sim.share", busy / (wall_t * threads as f64));
    v.set("power.trace_us", median(&power_us).unwrap_or(0.0));
    v.set("avf.trace_us", median(&avf_us).unwrap_or(0.0));

    // Dataset layer: trace_for itself, on each pair's first training point.
    let mut trace_for_ms = Vec::new();
    for b in BENCHMARKS {
        for m in Metric::DOMAINS {
            let (t, dt) = timed(|| trace_for(b, &train[0], m, &sim_opts));
            trace_for_ms.push(dt * 1e3);
            let key = format!("{} {} train 0", b.name(), m.name());
            out.tally
                .check(units.get(&key).is_some_and(|(_, r)| *r == t), || {
                    format!("trace_for({key}) differs from the campaign's trace")
                });
        }
    }
    out.values
        .set("dataset.trace_for_ms", median(&trace_for_ms).unwrap_or(0.0));

    // Workload generator and timing engine, separately.
    let instrs = instructions_per_run(&sim_opts) as f64;
    for b in BENCHMARKS {
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
        let ns = median(&secs).unwrap_or(0.0) * 1e9 / instrs;
        out.values
            .set(format!("sim.engine_ns_per_instr.{}", b.name()), ns);
    }

    // Wavelet and predictor layers.
    let test_traces: Vec<Vec<f64>> = reference
        .iter()
        .flat_map(|e| e.test.traces.clone())
        .collect();
    let (dec, rec) = layers::wavelet_us(&test_traces, cfg.predictor.wavelet, &mut out.tally);
    out.values.set("wavelet.wavedec_us", dec);
    out.values.set("wavelet.waverec_us", rec);
    let (mut train_ms, mut predict_us) = (Vec::new(), Vec::new());
    for e in &reference {
        let traces = (0..cfg.train_points)
            .map(|i| {
                let key = format!("{} {} train {i}", e.benchmark.name(), e.metric.name());
                units.get(&key).map(|(_, t)| t.clone())
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("journal is missing training units")?;
        let set = TraceSet {
            benchmark: e.benchmark,
            metric: e.metric,
            points: train.clone(),
            traces,
        };
        let (model, dt) =
            timed(|| WaveletNeuralPredictor::train_resilient(&set, &cfg.predictor, &cfg.recovery));
        train_ms.push(dt * 1e3);
        let (model, _) = model.map_err(|err| format!("training failed: {err}"))?;
        for (j, point) in e.test.points.iter().enumerate() {
            let (p, dt) = timed(|| model.predict(point));
            predict_us.push(dt * 1e6);
            out.tally.check(p == e.predictions[j], || {
                format!(
                    "retrained {}/{} predicts differently at point {j}",
                    e.benchmark.name(),
                    e.metric.name()
                )
            });
        }
    }
    out.values
        .set("predictor.train_ms", median(&train_ms).unwrap_or(0.0));
    out.values
        .set("predictor.predict_us", median(&predict_us).unwrap_or(0.0));
    layers::nmse_values(&reference, &mut out.values);
    out.not_exercised(&[
        "workloads.gen_ns_per_instr.gcc",
        "workloads.gen_ns_per_instr.swim",
        "sim.engine_ns_per_instr.gcc",
        "sim.engine_ns_per_instr.swim",
        "sim.engine_ns_per_instr.dvm_",
        "serve.",
    ]);
    out.note("wall_untraced_s", format!("{wall_u}"));
    out.note("wall_traced_s", format!("{wall_t}"));
    out.note("steps", unit_ms.len().to_string());
    Ok(())
}
