//! Figure 8: MSE boxplots of workload-dynamics prediction accuracy in the
//! performance (CPI), power and reliability (AVF) domains, one box per
//! SPEC CPU 2000 benchmark.

use dynawave_bench::{fmt, print_table, start};
use dynawave_core::experiment::score_model;
use dynawave_core::{collect_metric_traces, Metric, WaveletNeuralPredictor};
use dynawave_numeric::stats::BoxplotSummary;
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Figure 8",
        "NMSE%% boxplots of dynamics prediction across 3 domains x 12 benchmarks",
    );
    let opts = cfg.sim_options();
    let train_design = cfg.train_design();
    let test_design = cfg.test_design();

    // benchmark -> [per-domain NMSE vectors]
    let mut results: Vec<(Benchmark, [Vec<f64>; 3])> = Vec::new();
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let train_sets = collect_metric_traces(bench, &train_design, &Metric::DOMAINS, &opts);
        let test_sets = collect_metric_traces(bench, &test_design, &Metric::DOMAINS, &opts);
        let mut per_domain: [Vec<f64>; 3] = Default::default();
        for (slot, (train, test)) in train_sets.into_iter().zip(test_sets).enumerate() {
            let model =
                WaveletNeuralPredictor::train(&train, &cfg.predictor).expect("predictor training");
            let eval = score_model(bench, train.metric, model, test);
            per_domain[slot] = eval.nmse_per_test;
        }
        results.push((bench, per_domain));
    }

    let mut medians: [Vec<f64>; 3] = Default::default();
    for (i, metric) in Metric::DOMAINS.iter().enumerate() {
        println!(
            "\n({}) {} domain, NMSE %:",
            (b'a' + i as u8) as char,
            metric
        );
        let mut rows = Vec::new();
        let mut all = Vec::new();
        for (bench, domains) in &results {
            let data = &domains[i];
            let s = BoxplotSummary::from_data(data).expect("non-empty");
            all.extend_from_slice(data);
            medians[i].push(s.median);
            rows.push(vec![
                bench.name().to_string(),
                fmt(s.whisker_low, 2),
                fmt(s.q1, 2),
                fmt(s.median, 2),
                fmt(s.q3, 2),
                fmt(s.whisker_high, 2),
                fmt(s.mean, 2),
                s.outliers.len().to_string(),
            ]);
        }
        let overall = BoxplotSummary::from_data(&all).expect("non-empty");
        print_table(
            &[
                "benchmark",
                "whisk-",
                "Q1",
                "median",
                "Q3",
                "whisk+",
                "mean",
                "outliers",
            ],
            &rows,
        );
        println!(
            "overall median: {:.2}%  overall max: {:.2}%",
            overall.median,
            all.iter().cloned().fold(0.0f64, f64::max)
        );
    }
    println!(
        "\nExpected shape (paper): CPI medians 0.5-8.6%% (overall 2.3%%),\n\
         power slightly less accurate (overall 2.6%%, max ~35%%), AVF errors\n\
         much smaller (max ~3%%)."
    );
    dynawave_bench::finish(t0);
}
