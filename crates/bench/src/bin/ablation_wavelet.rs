//! Ablation: Haar (the paper's primer wavelet) vs Daubechies-4 as the
//! mother wavelet of the decomposition.

use dynawave_bench::{fmt, print_table, start};
use dynawave_core::experiment::score_model;
use dynawave_core::{collect_metric_traces, Metric, PredictorParams, WaveletNeuralPredictor};
use dynawave_wavelet::Wavelet;
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Ablation: mother wavelet",
        "Haar vs Daubechies-4 decomposition under identical budgets",
    );
    let opts = cfg.sim_options();
    let mut rows = Vec::new();
    let mut totals = [0.0f64; 2];
    let mut cells = 0usize;
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let train_sets = collect_metric_traces(bench, &cfg.train_design(), &Metric::DOMAINS, &opts);
        let test_sets = collect_metric_traces(bench, &cfg.test_design(), &Metric::DOMAINS, &opts);
        for (train, test) in train_sets.into_iter().zip(test_sets) {
            let metric = train.metric;
            let mut errs = [0.0f64; 2];
            for (slot, wavelet) in [Wavelet::Haar, Wavelet::Daubechies4]
                .into_iter()
                .enumerate()
            {
                let params = PredictorParams {
                    wavelet,
                    ..cfg.predictor.clone()
                };
                let model = WaveletNeuralPredictor::train(&train, &params).expect("training");
                errs[slot] = score_model(bench, metric, model, test.clone()).mean_nmse();
                totals[slot] += errs[slot];
            }
            cells += 1;
            rows.push(vec![
                bench.name().to_string(),
                metric.to_string(),
                fmt(errs[0], 3),
                fmt(errs[1], 3),
            ]);
        }
    }
    println!();
    print_table(&["benchmark", "metric", "haar NMSE%", "db4 NMSE%"], &rows);
    println!(
        "\nmeans: haar {:.3}%  db4 {:.3}%",
        totals[0] / cells as f64,
        totals[1] / cells as f64
    );
    dynawave_bench::finish(t0);
}
