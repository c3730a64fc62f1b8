//! Which microarchitecture parameters shape a workload's dynamics?
//!
//! Trains wavelet neural predictors for one benchmark in all three
//! domains and prints the regression-tree star-plot rankings (paper
//! Figure 11): split-order importance (parameters that split earliest)
//! and split-frequency importance (parameters that split most often).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dynawave-core --example parameter_importance [benchmark]
//! ```

use dynawave_core::importance::{split_frequency_star, split_order_star};
use dynawave_core::{collect_metric_traces, Metric, PredictorParams, WaveletNeuralPredictor};
use dynawave_sampling::DesignSpace;
use dynawave_sim::SimOptions;
use dynawave_workloads::Benchmark;

fn main() {
    let bench = std::env::args()
        .nth(1)
        .and_then(|n| Benchmark::from_name(&n))
        .unwrap_or(Benchmark::Gcc);
    let space = DesignSpace::micro2007();
    let names: Vec<&str> = space.parameters().iter().map(|p| p.name()).collect();
    let opts = SimOptions {
        samples: 64,
        interval_instructions: 2000,
        seed: 42,
    };
    println!("simulating {bench} over a 60-point LHS design ...");
    let train_points = dynawave_sampling::lhs::sample(&space, 60, 5);
    let sets = collect_metric_traces(bench, &train_points, &Metric::DOMAINS, &opts);
    for set in sets {
        let metric = set.metric;
        let model = WaveletNeuralPredictor::train(&set, &PredictorParams::default())
            .expect("training succeeds");
        println!("\n== {metric} domain ==");
        if let Some(star) = split_order_star(&model, &names) {
            let top: Vec<String> = star
                .ranking()
                .into_iter()
                .take(3)
                .map(|(n, v)| format!("{n} ({v:.2})"))
                .collect();
            println!("  earliest splits : {}", top.join(", "));
        }
        if let Some(star) = split_frequency_star(&model, &names) {
            let top: Vec<String> = star
                .ranking()
                .into_iter()
                .take(3)
                .map(|(n, v)| format!("{n} ({v:.2})"))
                .collect();
            println!("  most frequent   : {}", top.join(", "));
        }
    }
    println!(
        "\nThese rankings tell an architect which knobs to explore first\n\
         when optimizing for this workload (paper Figure 11)."
    );
}
