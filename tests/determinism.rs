//! Determinism regression tests: a single `ExperimentConfig.seed` must pin
//! every stochastic component of the workspace bit-for-bit, run to run.
//! These guard the hermetic in-tree RNG — any change to its stream or to a
//! consumer's draw order shows up here before it silently shifts results.

use dynawave_core::experiment::{evaluate_benchmark, ExperimentConfig};
use dynawave_core::Metric;
use dynawave_sampling::{lhs, random, DesignSpace, Split};
use dynawave_workloads::{Benchmark, TraceGenerator};

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        train_points: 20,
        test_points: 5,
        samples: 16,
        interval_instructions: 500,
        seed: 20260806,
        ..ExperimentConfig::default()
    }
}

#[test]
fn traces_are_bit_identical_across_runs() {
    let cfg = cfg();
    for bench in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Swim] {
        let a: Vec<_> = TraceGenerator::new(bench, 10_000, cfg.seed).collect();
        let b: Vec<_> = TraceGenerator::new(bench, 10_000, cfg.seed).collect();
        assert_eq!(
            a, b,
            "{bench} trace differs between runs of seed {}",
            cfg.seed
        );
    }
}

#[test]
fn traces_differ_across_seeds_and_benchmarks() {
    let cfg = cfg();
    let a: Vec<_> = TraceGenerator::new(Benchmark::Gcc, 5_000, cfg.seed).collect();
    let b: Vec<_> = TraceGenerator::new(Benchmark::Gcc, 5_000, cfg.seed + 1).collect();
    let c: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 5_000, cfg.seed).collect();
    assert_ne!(a, b, "seed does not feed the trace stream");
    assert_ne!(a, c, "benchmark label does not feed the trace stream");
}

#[test]
fn lhs_matrix_is_identical_across_runs() {
    let cfg = cfg();
    let a = cfg.train_design();
    let b = cfg.train_design();
    assert_eq!(a, b, "LHS training design differs between runs");
    // And the raw sampler agrees with itself under an explicit space.
    let space = DesignSpace::micro2007();
    assert_eq!(
        lhs::sample(&space, 50, cfg.seed),
        lhs::sample(&space, 50, cfg.seed)
    );
}

#[test]
fn random_test_design_is_identical_across_runs() {
    let cfg = cfg();
    let space = DesignSpace::micro2007();
    assert_eq!(
        random::sample(&space, 30, Split::Test, cfg.seed),
        random::sample(&space, 30, Split::Test, cfg.seed)
    );
}

#[test]
fn end_to_end_nmse_is_identical_across_runs() {
    let cfg = cfg();
    let a = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg).expect("pipeline runs");
    let b = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg).expect("pipeline runs");
    assert_eq!(
        a.nmse_per_test, b.nmse_per_test,
        "end-to-end NMSE differs between identical runs"
    );
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.median_nmse(), b.median_nmse());
}

#[test]
fn obs_event_streams_are_byte_identical_across_runs() {
    // Tracing must not perturb determinism, and must itself be
    // deterministic: two identical seeded runs on the tick clock emit
    // byte-identical JSON-lines streams.
    let run = || {
        let prior = dynawave_obs::take();
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        let eval = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg()).expect("pipeline runs");
        let events = dynawave_obs::drain().expect("recorder was installed");
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
        (eval, dynawave_obs::encode_lines(&events))
    };
    let (eval_a, stream_a) = run();
    let (eval_b, stream_b) = run();
    assert_eq!(stream_a, stream_b, "traced event streams differ");
    assert_eq!(eval_a.nmse_per_test, eval_b.nmse_per_test);
    // The stream is schema-valid and covers the instrumented stages this
    // path exercises.
    let summary = dynawave_obs::validate_stream(&stream_a);
    assert!(summary.is_clean(), "{:?}", summary.errors);
    for stage in ["sim", "wavelet", "neural", "predictor", "experiment"] {
        assert!(
            summary.stages.contains(stage),
            "stage {stage} missing from {:?}",
            summary.stages
        );
    }
    // An untraced run is unaffected by instrumentation.
    let plain = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg()).expect("pipeline runs");
    assert_eq!(plain.nmse_per_test, eval_a.nmse_per_test);
}

#[test]
fn traced_parallel_campaign_streams_are_byte_identical_across_runs() {
    use dynawave_core::campaign::{run_journaled_parallel, shard_path, CampaignSpec};
    // Four worker threads, each with its own thread-local recorder; the
    // merged stream must be deterministic run to run, schema-valid, and
    // cover the same stages `obs_validate --require-stages` gates on in
    // CI.
    let spec = CampaignSpec::single(
        Benchmark::Eon,
        Metric::Cpi,
        ExperimentConfig {
            train_points: 10,
            test_points: 4,
            samples: 16,
            interval_instructions: 400,
            seed: 20260808,
            ..ExperimentConfig::default()
        },
    );
    let run = |tag: &str| {
        let journal = std::env::temp_dir().join(format!(
            "dynawave-determinism-par-{}-{tag}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let prior = dynawave_obs::take();
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        let evals = run_journaled_parallel(&spec, &journal, 4).expect("campaign runs");
        let events = dynawave_obs::drain().expect("recorder was installed");
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
        let _ = std::fs::remove_file(&journal);
        for shard in 0..4 {
            let _ = std::fs::remove_file(shard_path(&journal, shard));
        }
        (evals, dynawave_obs::encode_lines(&events))
    };
    let (evals_a, stream_a) = run("a");
    let (evals_b, stream_b) = run("b");
    assert_eq!(stream_a, stream_b, "traced parallel streams differ");
    assert_eq!(evals_a[0].nmse_per_test, evals_b[0].nmse_per_test);
    let summary = dynawave_obs::validate_stream(&stream_a);
    assert!(summary.is_clean(), "{:?}", summary.errors);
    for stage in ["sim", "wavelet", "neural", "predictor", "campaign"] {
        assert!(
            summary.stages.contains(stage),
            "stage {stage} missing from {:?}",
            summary.stages
        );
    }
}

#[test]
fn chaos_runs_are_bit_identical_across_runs() {
    use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
    let cfg = cfg();
    // A chaos run is a first-class experiment: the same fault-plan seed
    // must produce the same injected faults, the same degradation ladder
    // and the same numbers, bit for bit.
    let run = || {
        let plan = FaultPlan::new(0xBAD5EED)
            .rate(0.4)
            .targeting(&[FaultSite::RbfWeightFit])
            .kinds(&[FaultKind::Singular, FaultKind::NonFinite]);
        fault::with_plan(plan, || {
            evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg).expect("resilient run")
        })
    };
    let (a, fr_a) = run();
    let (b, fr_b) = run();
    assert_eq!(fr_a, fr_b, "fault schedule differs between identical plans");
    assert!(
        fr_a.fired > 0,
        "plan must inject for this test to mean much"
    );
    assert_eq!(a.degradation, b.degradation, "degradation ladder differs");
    assert!(a.degradation.degraded_count() > 0);
    assert_eq!(a.nmse_per_test, b.nmse_per_test);
    assert_eq!(a.predictions, b.predictions);
}

/// FNV-1a over every field of every interval of `result`: the `u64`
/// counters as little-endian bytes, then the `f64` integrals via
/// `to_bits`, each group in declaration order. The exhaustive destructure
/// makes a new `IntervalStats` field a compile error here, not a silent
/// hole in the fingerprint.
fn fingerprint(result: &dynawave_sim::RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in &result.intervals {
        let dynawave_sim::IntervalStats {
            instructions,
            cycles,
            il1_accesses,
            il1_misses,
            itlb_misses,
            branches,
            mispredicts,
            btb_misses,
            int_alu_ops,
            int_mul_ops,
            fp_alu_ops,
            fp_mul_ops,
            issues,
            dl1_accesses,
            dl1_misses,
            dtlb_misses,
            l2_accesses,
            l2_misses,
            iq_occupancy,
            iq_ace,
            rob_occupancy,
            rob_ace,
            lsq_occupancy,
            lsq_ace,
            dvm_stall_cycles,
            dvm_triggers,
            dtm_engaged_windows,
            prefetch_fills,
            store_forwards,
        } = s;
        for word in [
            instructions,
            cycles,
            il1_accesses,
            il1_misses,
            itlb_misses,
            branches,
            mispredicts,
            btb_misses,
            int_alu_ops,
            int_mul_ops,
            fp_alu_ops,
            fp_mul_ops,
            issues,
            dl1_accesses,
            dl1_misses,
            dtlb_misses,
            l2_accesses,
            l2_misses,
            dvm_stall_cycles,
            dvm_triggers,
            dtm_engaged_windows,
            prefetch_fills,
            store_forwards,
        ] {
            eat(*word);
        }
        for x in [
            iq_occupancy,
            iq_ace,
            rob_occupancy,
            rob_ace,
            lsq_occupancy,
            lsq_ace,
        ] {
            eat(x.to_bits());
        }
    }
    h
}

/// Every fingerprinted simulation, labelled `benchmark/config`.
fn fingerprinted_runs() -> Vec<(String, u64)> {
    use dynawave_sim::dtm::DtmConfig;
    use dynawave_sim::{DvmConfig, MachineConfig, SimOptions, Simulator};
    let opts = SimOptions {
        samples: 16,
        interval_instructions: 1024,
        seed: 7,
    };
    let space = DesignSpace::micro2007();
    let corner = |pick: fn(f64, f64) -> f64| {
        let knobs: Vec<f64> = space
            .parameters()
            .iter()
            .map(|p| p.train_levels().iter().copied().reduce(pick).unwrap_or(1.0))
            .collect();
        MachineConfig::from_design_values(&knobs)
    };
    let configs = [
        ("baseline", MachineConfig::baseline()),
        ("train_min", corner(f64::min)),
        ("train_max", corner(f64::max)),
    ];
    let mut runs = Vec::new();
    for bench in Benchmark::ALL {
        for (name, config) in &configs {
            let r = Simulator::new(config.clone()).run(bench, &opts);
            runs.push((format!("{bench}/{name}"), fingerprint(&r)));
        }
    }
    let base = MachineConfig::baseline;
    let mut bimodal = base();
    bimodal.bp_history_bits = 0;
    let mcf_variants = [
        (
            "dvm",
            base().with_dvm(DvmConfig {
                threshold: 0.1,
                initial_wq_ratio: 1.0,
            }),
        ),
        (
            "dtm",
            base().with_dtm(DtmConfig {
                ipc_trigger: 0.2,
                throttle_factor: 0.5,
            }),
        ),
        ("prefetch", base().with_next_line_prefetch()),
        ("store_forwarding", base().with_store_forwarding()),
        ("history_bits_0", bimodal),
    ];
    for (name, config) in mcf_variants {
        let r = Simulator::new(config).run(Benchmark::Mcf, &opts);
        runs.push((format!("mcf/{name}"), fingerprint(&r)));
    }
    let r = Simulator::new(base()).run_with_warmup(Benchmark::Gcc, &opts, 5000);
    runs.push(("gcc/warmup_5000".to_string(), fingerprint(&r)));
    runs
}

/// Frozen `fingerprint` of every run in `fingerprinted_runs`, recorded
/// before the timing engine was pared down. `mcf/history_bits_0` was
/// recorded with the since-removed bimodal predictor kind, which gshare
/// at zero history bits reproduces bit for bit. Any change here is a
/// deliberate re-baseline of simulator output and is recorded as such in
/// CHANGES.md.
const FROZEN_FINGERPRINTS: [(&str, u64); 42] = [
    ("bzip2/baseline", 0x26df8b44161827ae),
    ("bzip2/train_min", 0x26f0eeaa33a407cb),
    ("bzip2/train_max", 0x7a8c4273d58c52c2),
    ("crafty/baseline", 0x1aab1e8f80886972),
    ("crafty/train_min", 0xdbdca40acf3cb202),
    ("crafty/train_max", 0x2cf8ae4456d37d36),
    ("eon/baseline", 0xd548627792670ba9),
    ("eon/train_min", 0xde94c9a11dd38947),
    ("eon/train_max", 0xabe52784d4d37515),
    ("gap/baseline", 0x58c738681e0ffcf3),
    ("gap/train_min", 0xc392174356fe9e62),
    ("gap/train_max", 0xb80614fdb591e8cd),
    ("gcc/baseline", 0xb19372a74e1d26b0),
    ("gcc/train_min", 0xefd7ded20e23a631),
    ("gcc/train_max", 0x7a3cac198597f556),
    ("mcf/baseline", 0xc4a8d9ad7063d33f),
    ("mcf/train_min", 0x5df2bf1e5980656d),
    ("mcf/train_max", 0x3d474bb4229263ab),
    ("parser/baseline", 0x0272b193b08ea1a1),
    ("parser/train_min", 0x6bc5e0849ebecc6d),
    ("parser/train_max", 0xe179398c34aae9e3),
    ("perlbmk/baseline", 0xb446ea68cede5281),
    ("perlbmk/train_min", 0xafdb7acfcfbc308f),
    ("perlbmk/train_max", 0x2fca5c45d695934b),
    ("swim/baseline", 0xf12e70f52978e935),
    ("swim/train_min", 0x9b1b894a1e5ac487),
    ("swim/train_max", 0x6d52d7e79c9391a0),
    ("twolf/baseline", 0xaa84257f1ceebe25),
    ("twolf/train_min", 0x2b08e35906b48175),
    ("twolf/train_max", 0x313fd8990fe7b721),
    ("vortex/baseline", 0xc7f61729bc3a8081),
    ("vortex/train_min", 0xc3ca4ed0aaca26c0),
    ("vortex/train_max", 0x2ade04afaf526755),
    ("vpr/baseline", 0xca479bc8ecf3fdbe),
    ("vpr/train_min", 0x5f4f8236010f0e68),
    ("vpr/train_max", 0xf80de27ece905cca),
    ("mcf/dvm", 0x2aa7dea43010dbde),
    ("mcf/dtm", 0xf79e84cbe045529c),
    ("mcf/prefetch", 0xeeed06ce1d40d495),
    ("mcf/store_forwarding", 0xabc92615b7f2eb90),
    ("mcf/history_bits_0", 0xde2f9acb131385f7),
    ("gcc/warmup_5000", 0xb5ac1a8ae7b68ba1),
];

#[test]
fn simulator_output_matches_frozen_fingerprints() {
    let runs = fingerprinted_runs();
    let labels: Vec<&str> = runs.iter().map(|(label, _)| label.as_str()).collect();
    let frozen_labels: Vec<&str> = FROZEN_FINGERPRINTS.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, frozen_labels, "fingerprinted run set changed");
    let drifted: Vec<String> = runs
        .iter()
        .zip(FROZEN_FINGERPRINTS)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((label, got), (_, want))| format!("{label}: 0x{got:016x} (frozen 0x{want:016x})"))
        .collect();
    assert!(
        drifted.is_empty(),
        "simulator output drifted from the frozen fingerprints:\n{}",
        drifted.join("\n")
    );
}
