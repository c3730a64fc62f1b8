//! Figure 18: heat plot of per-test-case prediction error for IQ AVF and
//! processor power when the DVM policy is enabled, with benchmarks
//! ordered by hierarchical clustering (the dendrogram).

use dynawave_bench::{fmt, start};
use dynawave_core::cluster::hierarchical_cluster;
use dynawave_core::{collect_metric_traces, Metric, WaveletNeuralPredictor};
use dynawave_numeric::stats::nmse_percent;
use dynawave_sampling::DesignPoint;
use dynawave_workloads::Benchmark;

fn heat_cell(v: f64, max: f64) -> char {
    const SHADES: [char; 5] = ['.', ':', '+', '*', '#'];
    let idx = ((v / max.max(1e-12)) * 4.0).round() as usize;
    SHADES[idx.min(4)]
}

fn force_dvm(points: &[DesignPoint]) -> Vec<DesignPoint> {
    points
        .iter()
        .map(|p| {
            let mut v = p.values().to_vec();
            v[9] = 0.3; // policy enabled at the default target
            DesignPoint::new(v)
        })
        .collect()
}

fn main() {
    let (mut cfg, t0) = start(
        "Figure 18",
        "heat plot of NMSE%% (IQ AVF and power) with DVM enabled, 12x test-set",
    );
    cfg.with_dvm_parameter = true;
    let opts = cfg.sim_options();
    let train_design = cfg.train_design();
    let test_design = force_dvm(&cfg.test_design());

    // One simulation per (benchmark, point) yields both metrics' traces.
    let metrics = [Metric::IqAvf, Metric::Power];
    let mut rows: [Vec<Vec<f64>>; 2] = Default::default();
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let train = collect_metric_traces(bench, &train_design, &metrics, &opts);
        let test = collect_metric_traces(bench, &test_design, &metrics, &opts);
        for ((train, test), rows) in train.iter().zip(&test).zip(&mut rows) {
            let model = WaveletNeuralPredictor::train(train, &cfg.predictor).expect("training");
            rows.push(
                test.traces
                    .iter()
                    .zip(test.points.iter().map(|p| model.predict(p)))
                    .map(|(a, p)| nmse_percent(a, &p))
                    .collect(),
            );
        }
    }

    for (metric, rows) in metrics.into_iter().zip(rows) {
        let dendro = hierarchical_cluster(&rows);
        let max = rows
            .iter()
            .flat_map(|r| r.iter().cloned())
            .fold(0.0f64, f64::max);
        println!(
            "\n({}) NMSE heat plot (rows = test cases, cols = benchmarks in dendrogram order; scale max {:.2}%):",
            metric, max
        );
        print!("{:>10}", "");
        for &b in &dendro.order {
            print!(" {:>7}", Benchmark::ALL[b].name());
        }
        println!();
        for case in 0..rows[0].len() {
            print!("{:>10}", format!("case {case}"));
            for &b in &dendro.order {
                print!(" {:>7}", heat_cell(rows[b][case], max));
            }
            println!();
        }
        println!("\ndendrogram merges (ids 0..11 are benchmarks in Benchmark::ALL order):");
        for m in &dendro.merges {
            println!(
                "  {:>2} + {:>2} at distance {}",
                m.a,
                m.b,
                fmt(m.distance, 3)
            );
        }
        println!("per-benchmark mean NMSE%:");
        for (i, b) in Benchmark::ALL.iter().enumerate() {
            let mean = rows[i].iter().sum::<f64>() / rows[i].len() as f64;
            print!("  {}:{}", b.name(), fmt(mean, 2));
        }
        println!();
    }
    println!(
        "\nExpected shape (paper): high accuracy across benchmarks/cases\n\
         with per-benchmark variation in the AVF domain; power accuracy is\n\
         more uniform."
    );
    dynawave_bench::finish(t0);
}
