//! Figure 14: detailed workload execution scenario predictions on bzip2 —
//! simulated vs predicted dynamics traces in all three domains.

use dynawave_bench::{downsample, fmt, sparkline, start};
use dynawave_core::accuracy::Thresholds;
use dynawave_core::experiment::score_model;
use dynawave_core::{collect_metric_traces, Metric, WaveletNeuralPredictor};
use dynawave_numeric::stats::nmse_percent;
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Figure 14",
        "simulated vs predicted bzip2 dynamics traces (3 domains)",
    );
    let opts = cfg.sim_options();
    let bench = Benchmark::Bzip2;
    let train_sets = collect_metric_traces(bench, &cfg.train_design(), &Metric::DOMAINS, &opts);
    let test_sets = collect_metric_traces(bench, &cfg.test_design(), &Metric::DOMAINS, &opts);
    for (train, test) in train_sets.into_iter().zip(test_sets) {
        let metric = train.metric;
        let model = WaveletNeuralPredictor::train(&train, &cfg.predictor).expect("training");
        let eval = score_model(bench, metric, model, test);
        // Show the median-error test configuration.
        let mut order: Vec<usize> = (0..eval.nmse_per_test.len()).collect();
        order.sort_by(|&a, &b| eval.nmse_per_test[a].total_cmp(&eval.nmse_per_test[b]));
        let pick = order[order.len() / 2];
        let actual = &eval.test.traces[pick];
        let predicted = &eval.predictions[pick];
        let th = Thresholds::from_trace(actual);
        println!(
            "\n{} domain @ test config {} (NMSE {:.2}%):",
            metric,
            pick,
            nmse_percent(actual, predicted)
        );
        println!("  simulated : {}", sparkline(&downsample(actual, 64)));
        println!("  predicted : {}", sparkline(&downsample(predicted, 64)));
        println!(
            "  thresholds Q1={} Q2={} Q3={}",
            fmt(th.q1, 3),
            fmt(th.q2, 3),
            fmt(th.q3, 3)
        );
        let s = &eval.scenarios[pick];
        println!(
            "  directional asymmetry: Q1 {:.1}%  Q2 {:.1}%  Q3 {:.1}%",
            s.q1_asymmetry, s.q2_asymmetry, s.q3_asymmetry
        );
    }
    println!(
        "\nExpected shape (paper): predicted traces closely track the\n\
         simulated program dynamics in all domains."
    );
    dynawave_bench::finish(t0);
}
