//! Concurrency battery for the parallel sharded campaign executor:
//! reports, journals, and obs event streams must be byte-identical for
//! any thread count — including under kill-and-resume and deterministic
//! fault injection — and shard-count mismatches must be refused, not
//! silently merged. A seeded interleaving stress harness drives the
//! storage-agnostic core through randomized schedules and mid-run kills
//! against the sequential oracle: the in-memory one-shard campaign.

use dynawave_core::campaign::{
    run_journaled_parallel, shard_path, threads_from_env, CampaignError, CampaignSpec,
    ShardedCampaign,
};
use dynawave_core::experiment::{BenchmarkEvaluation, ExperimentConfig};
use dynawave_core::{report, Metric};
use dynawave_testkit::stress::{stress_parallel, StressOp};
use dynawave_workloads::Benchmark;
use std::fs;
use std::path::PathBuf;

fn tiny_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::single(
        Benchmark::Eon,
        Metric::Cpi,
        ExperimentConfig {
            train_points: 10,
            test_points: 4,
            samples: 16,
            interval_instructions: 400,
            seed,
            ..ExperimentConfig::default()
        },
    )
}

/// A two-pair spec so the merge has to interleave units across
/// (benchmark, metric) boundaries, not just within one pair.
fn wide_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec![Benchmark::Eon, Benchmark::Mcf],
        metrics: vec![Metric::Cpi, Metric::Power],
        config: ExperimentConfig {
            train_points: 6,
            test_points: 2,
            samples: 16,
            interval_instructions: 400,
            seed,
            ..ExperimentConfig::default()
        },
    }
}

/// A collision-free scratch journal path that cleans itself (and any
/// shard sidecars) up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "dynawave-parallel-{}-{tag}.journal",
            std::process::id()
        ));
        let scratch = Scratch(path);
        scratch.wipe();
        scratch
    }

    fn wipe(&self) {
        let _ = fs::remove_file(&self.0);
        for shard in 0..32 {
            let _ = fs::remove_file(shard_path(&self.0, shard));
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// Runs the campaign at `threads` under a fresh tick-clock recorder,
/// returning its evaluations and event stream.
fn traced_run(
    spec: &CampaignSpec,
    threads: usize,
    tag: &str,
) -> (Vec<BenchmarkEvaluation>, Vec<dynawave_obs::Event>) {
    let scratch = Scratch::new(tag);
    let prior = dynawave_obs::take();
    dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    let evals = run_journaled_parallel(spec, &scratch.0, threads).unwrap();
    let events = dynawave_obs::drain().expect("recorder was installed");
    if let Some(prior) = prior {
        dynawave_obs::install(prior);
    }
    (evals, events)
}

/// The sequential oracle: a one-shard campaign stepped to completion in
/// memory. Returns its canonical journal and report.
fn oracle(spec: &CampaignSpec) -> (String, String) {
    let mut campaign = ShardedCampaign::new(spec.clone(), 1);
    while campaign.step(0).is_some() {}
    let evals = campaign.finish().unwrap();
    (
        campaign.merged_journal(),
        report::full_report("campaign", &evals),
    )
}

#[test]
fn reports_and_journals_byte_identical_across_thread_counts() {
    let spec = wide_spec(41);
    let (want_journal, want_report) = oracle(&spec);
    for threads in [1, 2, 4, 8] {
        let scratch = Scratch::new(&format!("threads-{threads}"));
        let evals = run_journaled_parallel(&spec, &scratch.0, threads).unwrap();
        assert_eq!(
            report::full_report("campaign", &evals),
            want_report,
            "report diverged at {threads} threads"
        );
        assert_eq!(
            fs::read_to_string(&scratch.0).unwrap(),
            want_journal,
            "canonical journal diverged at {threads} threads"
        );
        // Completion cleans up every sidecar.
        for shard in 0..threads {
            assert!(
                !shard_path(&scratch.0, shard).exists(),
                "sidecar {shard} survived completion"
            );
        }
    }
}

#[test]
fn kill_and_resume_under_4_threads_is_byte_identical() {
    let spec = tiny_spec(43);
    let (want_journal, want) = oracle(&spec);

    // Simulate a killed 4-thread run: some shards part-done, one sidecar
    // torn mid-write, no canonical journal yet.
    let victim = Scratch::new("kill-victim");
    let mut partial = ShardedCampaign::new(spec.clone(), 4);
    for _ in 0..2 {
        for shard in 0..4 {
            partial.step(shard);
        }
    }
    assert_eq!(partial.completed_count(), 8);
    for shard in 0..4 {
        let mut text = partial.shard_journal(shard);
        if shard == 1 {
            text.truncate(text.len() - 9);
        }
        fs::write(shard_path(&victim.0, shard), text).unwrap();
    }

    // Resume under the same thread count: torn tail dropped and
    // re-simulated, report and canonical journal byte-identical.
    let evals = run_journaled_parallel(&spec, &victim.0, 4).unwrap();
    assert_eq!(report::full_report("campaign", &evals), want);
    assert_eq!(fs::read_to_string(&victim.0).unwrap(), want_journal);

    // And the completed canonical journal now serves any thread count.
    let evals = run_journaled_parallel(&spec, &victim.0, 2).unwrap();
    assert_eq!(report::full_report("campaign", &evals), want);
}

#[test]
fn chaos_under_4_threads_degrades_identically_to_1_thread() {
    use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
    let spec = tiny_spec(97);
    let plan = || {
        FaultPlan::new(5)
            .rate(0.5)
            .targeting(&[FaultSite::RbfWeightFit])
            .kinds(&[
                FaultKind::Singular,
                FaultKind::NonFinite,
                FaultKind::EarlyStop,
            ])
    };
    let run = |threads: usize, tag: &str| {
        let scratch = Scratch::new(tag);
        let (out, fault_report) = fault::with_plan(plan(), || {
            run_journaled_parallel(&spec, &scratch.0, threads)
        });
        (out.unwrap(), fault_report)
    };
    let (evals_1, faults_1) = run(1, "chaos-1");
    let (evals_4, faults_4) = run(4, "chaos-4");
    // All fault sites are solver-side: training stays sequential on the
    // caller's thread, so the injected schedule cannot depend on the
    // worker count.
    assert!(faults_1.fired > 0, "plan must inject to mean much");
    assert_eq!(faults_1, faults_4, "fault schedule depends on thread count");
    assert_eq!(
        evals_1[0].degradation.rung_counts(),
        evals_4[0].degradation.rung_counts(),
        "recovery ladder depends on thread count"
    );
    assert!(evals_1[0].degradation.degraded_count() > 0);
    assert_eq!(
        report::full_report("chaos campaign", &evals_1),
        report::full_report("chaos campaign", &evals_4)
    );
}

#[test]
fn obs_streams_byte_identical_across_thread_counts_and_runs() {
    let spec = tiny_spec(59);
    let traced_run = |threads: usize, tag: &str| {
        let (evals, events) = traced_run(&spec, threads, tag);
        (evals, dynawave_obs::encode_lines(&events))
    };
    let (evals_1, stream_1) = traced_run(1, "obs-1");
    let (_, stream_2) = traced_run(2, "obs-2");
    let (evals_4, stream_4) = traced_run(4, "obs-4");
    let (_, stream_8) = traced_run(8, "obs-8");
    let (_, stream_4b) = traced_run(4, "obs-4b");
    assert_eq!(
        stream_1, stream_4,
        "stream diverged between 1 and 4 threads"
    );
    assert_eq!(
        stream_1, stream_2,
        "stream diverged between 1 and 2 threads"
    );
    assert_eq!(
        stream_1, stream_8,
        "stream diverged between 1 and 8 threads"
    );
    assert_eq!(stream_4, stream_4b, "4-thread stream diverged across runs");
    assert_eq!(evals_1[0].nmse_per_test, evals_4[0].nmse_per_test);
    let summary = dynawave_obs::validate_stream(&stream_4);
    assert!(summary.is_clean(), "{:?}", summary.errors);
}

#[test]
fn worker_spans_nest_under_campaign_run_at_any_thread_count() {
    let spec = tiny_spec(71);
    for threads in [1, 4] {
        let (_, events) = traced_run(&spec, threads, &format!("depth-{threads}"));
        let enters: Vec<_> = events
            .iter()
            .filter(|e| e.kind == dynawave_obs::EventKind::SpanEnter && e.name == "sim.run_trace")
            .collect();
        assert_eq!(enters.len(), spec.unit_count(), "one run per unit");
        assert!(
            enters.iter().all(|e| e.depth == Some(1)),
            "sim.run_trace must nest under campaign.run at {threads} threads"
        );
    }
}

#[test]
fn stream_analysis_is_deterministic_and_sums_like_the_profile() {
    let spec = tiny_spec(67);
    let (_, events_1) = traced_run(&spec, 1, "analysis-1");
    let (_, events_4) = traced_run(&spec, 4, "analysis-4");
    let analysis_1 = dynawave_obs::StreamAnalysis::from_events(&events_1);
    let analysis_4 = dynawave_obs::StreamAnalysis::from_events(&events_4);
    // The derived report is byte-identical across worker counts, like the
    // stream it came from.
    let report_1 = analysis_1.render_markdown(5);
    assert_eq!(
        report_1,
        analysis_4.render_markdown(5),
        "obs report diverged between 1 and 4 threads"
    );
    assert_eq!(report_1, analysis_1.render_markdown(5), "render not stable");
    // Per-stage inclusive time must agree exactly with the existing
    // PipelineProfile section — two views of one attribution.
    let profile = dynawave_obs::PipelineProfile::from_events(&events_4);
    for (stage, stats) in profile.stages() {
        let got = &analysis_4.stages[stage];
        assert_eq!(
            got.inclusive_ticks, stats.ticks,
            "stage {stage} inclusive ticks diverged from PipelineProfile"
        );
        assert_eq!(got.count, stats.spans, "stage {stage} span count diverged");
        assert!(
            got.self_ticks <= got.inclusive_ticks,
            "stage {stage} self time exceeds inclusive"
        );
    }
    // One latency sample per completed unit, and the executor's
    // campaign.unit_latency histogram holds the same population.
    assert_eq!(analysis_4.unit_latencies.len(), spec.unit_count());
    let (_, counts) = &analysis_4.histograms["campaign.unit_latency"];
    assert_eq!(
        counts.iter().sum::<u64>(),
        spec.unit_count() as u64,
        "histogram population != unit count"
    );
    assert!(analysis_4.latency_summary().is_some());
    // parse_events round-trips the encoded stream into the same analysis.
    let text = dynawave_obs::encode_lines(&events_4);
    let reparsed = dynawave_obs::parse_events(&text).unwrap();
    assert_eq!(
        dynawave_obs::StreamAnalysis::from_events(&reparsed).render_markdown(5),
        report_1
    );
}

#[test]
fn parallel_resume_refuses_foreign_shard_counts() {
    let spec = tiny_spec(61);
    let scratch = Scratch::new("mismatch");
    let mut partial = ShardedCampaign::new(spec.clone(), 4);
    partial.step(0);
    partial.step(2);
    for shard in 0..4 {
        fs::write(shard_path(&scratch.0, shard), partial.shard_journal(shard)).unwrap();
    }
    match run_journaled_parallel(&spec, &scratch.0, 2) {
        Err(CampaignError::ShardMismatch { expected, found }) => {
            assert_eq!((expected, found), (2, 4));
        }
        other => panic!("expected ShardMismatch, got {other:?}"),
    }
    // A one-thread run refuses them too: sequential is the one-shard case.
    match run_journaled_parallel(&spec, &scratch.0, 1) {
        Err(CampaignError::ShardMismatch { expected, found }) => {
            assert_eq!((expected, found), (1, 4));
        }
        other => panic!("expected ShardMismatch, got {other:?}"),
    }
}

#[test]
fn stress_randomized_schedules_match_the_sequential_oracle() {
    let spec = tiny_spec(73);
    // Sequential oracle, computed once.
    let (oracle_journal, oracle_report) = oracle(&spec);

    stress_parallel("sharded campaign vs sequential oracle", 3, 12, |plan| {
        let shards = plan.shards;
        let mut campaign = ShardedCampaign::new(spec.clone(), shards);
        // Shadow "disk": the persisted sidecar text per shard. Steps
        // append their journal line, as the file-backed driver does.
        let mut journals: Vec<String> = (0..shards)
            .map(|shard| campaign.shard_journal(shard))
            .collect();
        let header_len = journals[0].len();
        for op in &plan.ops {
            match *op {
                StressOp::Step(shard) => {
                    let shard = shard % shards;
                    if let Some((_, line)) = campaign.step(shard) {
                        journals[shard].push_str(&line);
                    }
                }
                StressOp::Kill { shard, drop_bytes } => {
                    // Tear the tail (never the header: it was written
                    // whole at shard start), then rebuild the executor
                    // from the persisted journals alone.
                    let shard = shard % shards;
                    let body = journals[shard].len() - header_len;
                    let keep = journals[shard].len() - drop_bytes.min(body);
                    journals[shard].truncate(keep);
                    let mut rebuilt = ShardedCampaign::new(spec.clone(), shards);
                    for text in &journals {
                        rebuilt
                            .ingest_shard_journal(text)
                            .map_err(|e| format!("resume failed: {e}"))?;
                    }
                    campaign = rebuilt;
                    journals = (0..shards)
                        .map(|shard| campaign.shard_journal(shard))
                        .collect();
                }
            }
        }
        // Drain whatever the schedule left pending, round-robin.
        loop {
            let mut progressed = false;
            for shard in 0..shards {
                progressed |= campaign.step(shard).is_some();
            }
            if !progressed {
                break;
            }
        }
        if !campaign.is_complete() {
            return Err(format!(
                "campaign stalled at {}/{} units",
                campaign.completed_count(),
                spec.unit_count()
            ));
        }
        if campaign.merged_journal() != oracle_journal {
            return Err("merged journal diverged from sequential oracle".into());
        }
        let evals = campaign.finish().map_err(|e| format!("finish: {e}"))?;
        if report::full_report("campaign", &evals) != oracle_report {
            return Err("report diverged from sequential oracle".into());
        }
        Ok(())
    });
}

#[test]
fn threads_from_env_parses_overrides_and_defaults() {
    // One test owns the env var: cargo may run tests concurrently in one
    // process, and DYNAWAVE_THREADS is read nowhere else in this binary.
    std::env::set_var("DYNAWAVE_THREADS", "3");
    assert_eq!(threads_from_env().unwrap(), 3);
    std::env::set_var("DYNAWAVE_THREADS", "0");
    let err = threads_from_env().unwrap_err();
    assert_eq!(err.name, "DYNAWAVE_THREADS");
    std::env::set_var("DYNAWAVE_THREADS", "many");
    assert!(threads_from_env().is_err());
    std::env::remove_var("DYNAWAVE_THREADS");
    assert!(threads_from_env().unwrap() >= 1);
}
