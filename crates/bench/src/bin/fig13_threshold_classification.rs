//! Figure 13: threshold-based workload execution scenario prediction —
//! directional asymmetry (1 - DS) at the Q1/Q2/Q3 thresholds for every
//! benchmark in the three domains.

use dynawave_bench::{fmt, print_table, start};
use dynawave_core::experiment::score_model;
use dynawave_core::{collect_metric_traces, Metric, WaveletNeuralPredictor};
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Figure 13",
        "directional asymmetry (1-DS)%% at thresholds Q1/Q2/Q3",
    );
    let opts = cfg.sim_options();
    let mut tables: [Vec<Vec<String>>; 3] = Default::default();
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let train_sets = collect_metric_traces(bench, &cfg.train_design(), &Metric::DOMAINS, &opts);
        let test_sets = collect_metric_traces(bench, &cfg.test_design(), &Metric::DOMAINS, &opts);
        for (slot, (train, test)) in train_sets.into_iter().zip(test_sets).enumerate() {
            let model = WaveletNeuralPredictor::train(&train, &cfg.predictor).expect("training");
            let eval = score_model(bench, train.metric, model, test);
            let [q1, q2, q3] = eval.mean_asymmetry();
            tables[slot].push(vec![
                bench.name().to_string(),
                fmt(q1, 2),
                fmt(q2, 2),
                fmt(q3, 2),
            ]);
        }
    }
    for (slot, metric) in Metric::DOMAINS.iter().enumerate() {
        println!("\n{metric} domain, directional asymmetry %:");
        print_table(&["benchmark", "1Q", "2Q", "3Q"], &tables[slot]);
    }
    println!(
        "\nExpected shape (paper): single-digit asymmetry for most\n\
         benchmark/threshold pairs - the models classify execution\n\
         scenarios accurately enough to drive proactive DPM/DVM."
    );
    dynawave_bench::finish(t0);
}
