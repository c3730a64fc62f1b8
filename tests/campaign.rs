//! Fault-tolerance integration tests: journaled campaigns must survive
//! kills (partial journal writes) and resume to a byte-identical report,
//! and must refuse journals written under a different configuration.
//! Every run here is the file-backed executor at one thread.

use dynawave_core::campaign::{
    run_journaled_parallel, shard_path, CampaignError, CampaignSpec, ShardedCampaign,
};
use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::{report, Metric};
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

/// A collision-free scratch path that cleans itself (and its one-thread
/// sidecar) up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "dynawave-campaign-{}-{tag}.journal",
            std::process::id()
        ));
        let scratch = Scratch(path);
        scratch.wipe();
        scratch
    }

    fn wipe(&self) {
        let _ = fs::remove_file(&self.0);
        let _ = fs::remove_file(shard_path(&self.0, 0));
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// A one-shard campaign with its first `units` units run in memory.
fn stepped(spec: &CampaignSpec, units: usize) -> ShardedCampaign {
    let mut campaign = ShardedCampaign::new(spec.clone(), 1);
    for _ in 0..units {
        campaign.step(0);
    }
    campaign
}

#[test]
fn killed_file_backed_campaign_resumes_byte_identical() {
    let spec = tiny_spec(31);
    // Reference: one uninterrupted run.
    let reference = Scratch::new("reference");
    let evals = run_journaled_parallel(&spec, &reference.0, 1).unwrap();
    let want = report::full_report("campaign", &evals);

    // Victim: a canonical journal holding 6 of 14 units, "killed" by
    // chopping bytes off its tail, leaving a partial final line.
    let victim = Scratch::new("victim");
    let text = stepped(&spec, 6).merged_journal();
    assert!(text.ends_with('\n'));
    fs::write(&victim.0, &text[..text.len() - 17]).unwrap();

    // Resume: the partial line is dropped and re-simulated; everything
    // completed stays journaled; the final report matches byte for byte.
    let evals = run_journaled_parallel(&spec, &victim.0, 1).unwrap();
    let got = report::full_report("campaign", &evals);
    assert_eq!(want, got);
    assert_eq!(
        fs::read_to_string(&victim.0).unwrap(),
        fs::read_to_string(&reference.0).unwrap()
    );

    // The journal left behind is complete and immediately reusable: a
    // third invocation re-simulates nothing and reports identically.
    let evals = run_journaled_parallel(&spec, &victim.0, 1).unwrap();
    assert_eq!(want, report::full_report("campaign", &evals));
}

#[test]
fn killed_one_thread_run_resumes_from_its_torn_sidecar() {
    let spec = tiny_spec(37);
    let want = stepped(&spec, spec.unit_count());
    let want_report = report::full_report("campaign", &want.finish().unwrap());

    // A killed one-thread run leaves a `shard 0 of 1` sidecar and no
    // canonical journal; the kill tore the sidecar's last line.
    let victim = Scratch::new("sidecar");
    let text = stepped(&spec, 5).shard_journal(0);
    assert!(text.contains("shard 0 of 1\n"));
    fs::write(shard_path(&victim.0, 0), &text[..text.len() - 11]).unwrap();

    let evals = run_journaled_parallel(&spec, &victim.0, 1).unwrap();
    assert_eq!(report::full_report("campaign", &evals), want_report);
    assert_eq!(
        fs::read_to_string(&victim.0).unwrap(),
        want.merged_journal()
    );
    assert!(
        !shard_path(&victim.0, 0).exists(),
        "sidecar survived completion"
    );
}

#[test]
fn journal_from_a_different_spec_is_refused() {
    let spec = tiny_spec(7);
    let scratch = Scratch::new("foreign");
    fs::write(&scratch.0, stepped(&spec, 3).merged_journal()).unwrap();
    let other = tiny_spec(8);
    match run_journaled_parallel(&other, &scratch.0, 1) {
        Err(CampaignError::SpecMismatch { expected, found }) => {
            assert_eq!(expected, other.fingerprint());
            assert_eq!(found, spec.fingerprint());
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
}

#[test]
fn corrupt_complete_journal_line_is_an_error_not_a_skip() {
    let spec = tiny_spec(13);
    let scratch = Scratch::new("corrupt");
    let text = stepped(&spec, 2).merged_journal();
    // Poison a value on a *complete* (newline-terminated) line.
    let poisoned = text.replacen("unit eon cpi train 0 ", "unit eon cpi train 0 NaN ", 1);
    assert_ne!(text, poisoned);
    fs::write(&scratch.0, poisoned).unwrap();
    assert!(matches!(
        run_journaled_parallel(&spec, &scratch.0, 1),
        Err(CampaignError::NonFinite { .. })
    ));
}

#[test]
fn chaos_journaled_campaign_completes_under_injected_faults() {
    use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
    let spec = tiny_spec(97);
    let scratch = Scratch::new("chaos");
    let plan = FaultPlan::new(5)
        .rate(0.5)
        .targeting(&[FaultSite::RbfWeightFit])
        .kinds(&[
            FaultKind::Singular,
            FaultKind::NonFinite,
            FaultKind::EarlyStop,
        ]);
    let (out, fault_report) =
        fault::with_plan(plan, || run_journaled_parallel(&spec, &scratch.0, 1));
    let evals = out.unwrap();
    assert!(fault_report.fired > 0);
    let degradation = &evals[0].degradation;
    assert_eq!(
        degradation.rung_counts().iter().sum::<usize>(),
        degradation.coefficient_count(),
        "every coefficient must be accounted for"
    );
    assert!(degradation.degraded_count() > 0);
    // Degradation is visible in the archived report.
    let doc = report::full_report("chaos campaign", &evals);
    assert!(doc.contains("Model health:"));
    assert!(doc.contains("fallback") || doc.contains("ridge-escalated"));
}
