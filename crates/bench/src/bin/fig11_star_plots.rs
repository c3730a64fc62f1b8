//! Figure 11: star plots of the roles the nine design parameters play in
//! predicting workload dynamics, per domain, by regression-tree split
//! order and split frequency.

use dynawave_bench::{print_table, start};
use dynawave_core::importance::{split_frequency_star, split_order_star, StarPlot};
use dynawave_core::{collect_metric_traces, Metric, WaveletNeuralPredictor};
use dynawave_sampling::DesignSpace;
use dynawave_workloads::Benchmark;

fn spoke_cell(v: f64) -> String {
    // 0..1 -> 0..8 filled blocks, a textual star-plot spoke.
    let n = (v * 8.0).round() as usize;
    format!("{}{}", "#".repeat(n), ".".repeat(8 - n))
}

fn print_stars(title: &str, stars: &[(Benchmark, StarPlot)], names: &[&str]) {
    println!("\n{title}");
    let mut header = vec!["benchmark"];
    header.extend_from_slice(names);
    let rows: Vec<Vec<String>> = stars
        .iter()
        .map(|(b, s)| {
            let mut row = vec![b.name().to_string()];
            row.extend(s.spokes.iter().map(|&v| spoke_cell(v)));
            row
        })
        .collect();
    print_table(&header, &rows);
}

fn main() {
    let (cfg, t0) = start(
        "Figure 11",
        "parameter importance star plots (split order / split frequency)",
    );
    let space = DesignSpace::micro2007();
    let names: Vec<&str> = space.parameters().iter().map(|p| p.name()).collect();
    let opts = cfg.sim_options();

    let mut order_stars: [Vec<(Benchmark, StarPlot)>; 3] = Default::default();
    let mut freq_stars: [Vec<(Benchmark, StarPlot)>; 3] = Default::default();
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let train_sets = collect_metric_traces(bench, &cfg.train_design(), &Metric::DOMAINS, &opts);
        for (slot, train) in train_sets.into_iter().enumerate() {
            let model = WaveletNeuralPredictor::train(&train, &cfg.predictor).expect("training");
            if let Some(star) = split_order_star(&model, &names) {
                order_stars[slot].push((bench, star));
            }
            if let Some(star) = split_frequency_star(&model, &names) {
                freq_stars[slot].push((bench, star));
            }
        }
    }
    for (slot, metric) in Metric::DOMAINS.iter().enumerate() {
        print_stars(
            &format!("(a) split-order importance, {metric} domain"),
            &order_stars[slot],
            &names,
        );
        print_stars(
            &format!("(b) split-frequency importance, {metric} domain"),
            &freq_stars[slot],
            &names,
        );
        // Dominant-parameter summary row.
        println!("dominant per benchmark (split order):");
        for (b, s) in &order_stars[slot] {
            print!("  {}:{}", b.name(), s.parameters[s.dominant()]);
        }
        println!();
    }
    println!(
        "\nExpected shape (paper): different parameters dominate different\n\
         benchmark/domain pairs, e.g. fetch/dl1/LSQ for gcc performance."
    );
    dynawave_bench::finish(t0);
}
