//! Ablation: per-coefficient regressor choice — tree-centered RBF (the
//! paper's model) vs randomly-centered RBF vs ridge-linear regression.

use dynawave_bench::{fmt, print_table, start};
use dynawave_core::experiment::score_model;
use dynawave_core::{
    collect_metric_traces, Metric, ModelKind, PredictorParams, WaveletNeuralPredictor,
};
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Ablation: coefficient regressor",
        "tree-RBF vs random-center RBF vs linear ridge regression",
    );
    let opts = cfg.sim_options();
    let kinds = [ModelKind::TreeRbf, ModelKind::RandomRbf, ModelKind::Linear];
    let mut totals = [0.0f64; 3];
    let mut rows = Vec::new();
    let mut cells = 0usize;
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let train_sets = collect_metric_traces(bench, &cfg.train_design(), &Metric::DOMAINS, &opts);
        let test_sets = collect_metric_traces(bench, &cfg.test_design(), &Metric::DOMAINS, &opts);
        for (train, test) in train_sets.into_iter().zip(test_sets) {
            let metric = train.metric;
            let mut errs = [0.0f64; 3];
            for (slot, kind) in kinds.into_iter().enumerate() {
                let params = PredictorParams {
                    model: kind,
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
                fmt(errs[2], 3),
            ]);
        }
    }
    println!();
    print_table(
        &[
            "benchmark",
            "metric",
            "tree-RBF NMSE%",
            "random-RBF NMSE%",
            "linear NMSE%",
        ],
        &rows,
    );
    println!(
        "\nmeans: tree-RBF {:.3}%  random-RBF {:.3}%  linear {:.3}%",
        totals[0] / cells as f64,
        totals[1] / cells as f64,
        totals[2] / cells as f64
    );
    println!(
        "Expected shape: non-linear RBF models beat the linear baseline;\n\
         tree-informed centers beat blind placement."
    );
    dynawave_bench::finish(t0);
}
