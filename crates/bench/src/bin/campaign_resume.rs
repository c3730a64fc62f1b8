//! Fault-tolerant campaign demo: journaled checkpoint/resume plus a
//! deterministic chaos run.
//!
//! Phase 1 starts a journaled campaign and deliberately "kills" it partway
//! through (including a torn final journal line), then resumes it and
//! verifies the final report is **byte-identical** to an uninterrupted
//! run. Phase 2 re-runs the campaign under an injected-fault plan and
//! prints the model-degradation ladder that let it finish anyway.

use dynawave_bench::{fmt, print_table, start};
use dynawave_core::campaign::{run_journaled_parallel, CampaignSpec, ShardedCampaign};
use dynawave_core::{report, Metric};
use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Campaign resume",
        "journaled checkpoint/resume + chaos run with graceful degradation",
    );
    let spec = CampaignSpec::single(Benchmark::Gcc, Metric::Cpi, cfg);
    let dir = std::env::temp_dir().join(format!("dynawave-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let journal = dir.join("gcc_cpi.journal");

    println!(
        "\ncampaign: {} units ({} train + {} test points), fingerprint {:016x}",
        spec.unit_count(),
        spec.config.train_points,
        spec.config.test_points,
        spec.fingerprint()
    );

    // Uninterrupted reference run (separate journal).
    let reference = dir.join("reference.journal");
    let ref_evals = run_journaled_parallel(&spec, &reference, 1).expect("reference campaign");
    let ref_report = report::full_report("campaign", &ref_evals);

    // Phase 1: run part of the campaign, tear the journal tail, resume.
    let kill_after = spec.unit_count() / 2;
    let mut partial = ShardedCampaign::new(spec.clone(), 1);
    for _ in 0..kill_after {
        partial.step(0);
    }
    let text = partial.merged_journal();
    std::fs::write(&journal, &text[..text.len().saturating_sub(11)]).expect("tear journal");
    println!(
        "simulated kill after {} units (journal tail torn mid-line)",
        partial.completed_count()
    );
    let evals = run_journaled_parallel(&spec, &journal, 1).expect("resumed campaign");
    let resumed_report = report::full_report("campaign", &evals);
    println!(
        "resume: report byte-identical to uninterrupted run: {}",
        ref_report == resumed_report
    );
    assert_eq!(ref_report, resumed_report, "resume must be bit-exact");

    // Phase 2: same campaign under a deterministic fault plan.
    let chaos_journal = dir.join("chaos.journal");
    let plan = FaultPlan::new(0xC4A05)
        .rate(0.5)
        .targeting(&[FaultSite::RbfWeightFit])
        .kinds(&[FaultKind::Singular, FaultKind::NonFinite]);
    let (out, fault_report) =
        fault::with_plan(plan, || run_journaled_parallel(&spec, &chaos_journal, 1));
    let chaos_evals = out.expect("chaos campaign completes");
    println!(
        "\nchaos run: {} faults injected over {} fit consultations",
        fault_report.fired, fault_report.armed
    );
    let mut rows = Vec::new();
    for e in &chaos_evals {
        let [primary, ridge, linear, mean] = e.degradation.rung_counts();
        rows.push(vec![
            format!("{} / {}", e.benchmark, e.metric),
            primary.to_string(),
            ridge.to_string(),
            linear.to_string(),
            mean.to_string(),
            fmt(e.median_nmse(), 2),
        ]);
    }
    print_table(
        &[
            "pair",
            "primary",
            "ridge-esc",
            "linear-fb",
            "mean-fb",
            "median NMSE%",
        ],
        &rows,
    );
    println!(
        "degraded coefficients: {} of {} — campaign finished anyway",
        chaos_evals[0].degradation.degraded_count(),
        chaos_evals[0].degradation.coefficient_count()
    );

    let _ = std::fs::remove_dir_all(&dir);
    dynawave_bench::finish(t0);
}
