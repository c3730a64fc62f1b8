//! Ablation: magnitude- vs order-based coefficient selection (paper §3
//! states the magnitude scheme "always outperforms" the order scheme).

use dynawave_bench::{fmt, print_table, start};
use dynawave_core::experiment::score_model;
use dynawave_core::{
    collect_metric_traces, CoefficientSelection, Metric, PredictorParams, WaveletNeuralPredictor,
};
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Ablation: coefficient selection",
        "magnitude-based vs order-based top-k coefficient selection",
    );
    let opts = cfg.sim_options();
    let mut rows = Vec::new();
    let mut wins = 0usize;
    let mut cells = 0usize;
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let train_sets = collect_metric_traces(bench, &cfg.train_design(), &Metric::DOMAINS, &opts);
        let test_sets = collect_metric_traces(bench, &cfg.test_design(), &Metric::DOMAINS, &opts);
        for (train, test) in train_sets.into_iter().zip(test_sets) {
            let metric = train.metric;
            let mut errs = [0.0f64; 2];
            for (slot, selection) in [CoefficientSelection::Magnitude, CoefficientSelection::Order]
                .into_iter()
                .enumerate()
            {
                let params = PredictorParams {
                    selection,
                    ..cfg.predictor.clone()
                };
                let model = WaveletNeuralPredictor::train(&train, &params).expect("training");
                errs[slot] = score_model(bench, metric, model, test.clone()).mean_nmse();
            }
            cells += 1;
            if errs[0] <= errs[1] {
                wins += 1;
            }
            rows.push(vec![
                bench.name().to_string(),
                metric.to_string(),
                fmt(errs[0], 3),
                fmt(errs[1], 3),
                if errs[0] <= errs[1] {
                    "magnitude"
                } else {
                    "order"
                }
                .to_string(),
            ]);
        }
    }
    println!();
    print_table(
        &[
            "benchmark",
            "metric",
            "magnitude NMSE%",
            "order NMSE%",
            "winner",
        ],
        &rows,
    );
    println!("\nmagnitude wins {wins}/{cells} cells (paper: always)");
    dynawave_bench::finish(t0);
}
