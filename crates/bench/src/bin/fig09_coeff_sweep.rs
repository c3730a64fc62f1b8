//! Figure 9: the trend of prediction error as the number of predicted
//! wavelet coefficients grows (16, 32, 64, 96, 128), averaged over all
//! benchmarks, for CPI / power / AVF.

use dynawave_bench::{fmt, print_table, start};
use dynawave_core::experiment::score_model;
use dynawave_core::{collect_metric_traces, Metric, PredictorParams, WaveletNeuralPredictor};
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Figure 9",
        "mean NMSE%% vs number of predicted wavelet coefficients",
    );
    let opts = cfg.sim_options();
    let ks: Vec<usize> = [16usize, 32, 64, 96, 128]
        .iter()
        .copied()
        .filter(|&k| k <= cfg.samples)
        .collect();
    // Simulate each benchmark once; sweep k on the cached traces.
    let mut totals = vec![[0.0f64; 3]; ks.len()];
    let mut count = 0usize;
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let train_sets = collect_metric_traces(bench, &cfg.train_design(), &Metric::DOMAINS, &opts);
        let test_sets = collect_metric_traces(bench, &cfg.test_design(), &Metric::DOMAINS, &opts);
        count += 1;
        for (slot, (train, test)) in train_sets.into_iter().zip(test_sets).enumerate() {
            for (ki, &k) in ks.iter().enumerate() {
                let params = PredictorParams {
                    coefficients: k,
                    ..cfg.predictor.clone()
                };
                let model = WaveletNeuralPredictor::train(&train, &params).expect("training");
                let eval = score_model(bench, train.metric, model, test.clone());
                totals[ki][slot] += eval.mean_nmse();
            }
        }
    }
    println!();
    let rows: Vec<Vec<String>> = ks
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            let mut row = vec![k.to_string()];
            for slot in 0..3 {
                row.push(fmt(totals[ki][slot] / count as f64, 3));
            }
            row
        })
        .collect();
    print_table(
        &["# coefficients", "CPI NMSE%", "Power NMSE%", "AVF NMSE%"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): error falls with more coefficients, with\n\
         diminishing returns beyond 16 - the cost-effective sweet spot."
    );
    let _ = Metric::DOMAINS; // domain order documented by the header
    dynawave_bench::finish(t0);
}
