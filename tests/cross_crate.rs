//! Cross-crate consistency tests: simulator, power and AVF models seen
//! through the `dynawave-core` dataset layer.

use dynawave_avf::{AvfModel, Structure};
use dynawave_core::{collect_metric_traces, trace_for, Metric};
use dynawave_power::PowerModel;
use dynawave_sampling::{lhs, random, DesignPoint, DesignSpace, Split};
use dynawave_sim::{MachineConfig, SimOptions, Simulator};
use dynawave_workloads::Benchmark;

fn opts() -> SimOptions {
    SimOptions {
        samples: 16,
        interval_instructions: 900,
        seed: 77,
    }
}

fn baseline_point() -> DesignPoint {
    DesignPoint::new(vec![8.0, 96.0, 96.0, 48.0, 2048.0, 12.0, 32.0, 64.0, 1.0])
}

#[test]
fn domain_traces_consistent_with_individual_collection() {
    let points = vec![baseline_point()];
    let [cpi, power, avf]: [_; 3] =
        collect_metric_traces(Benchmark::Parser, &points, &Metric::DOMAINS, &opts())
            .try_into()
            .expect("one set per domain");
    assert_eq!(
        cpi.traces[0],
        trace_for(Benchmark::Parser, &points[0], Metric::Cpi, &opts())
    );
    assert_eq!(
        power.traces[0],
        trace_for(Benchmark::Parser, &points[0], Metric::Power, &opts())
    );
    assert_eq!(
        avf.traces[0],
        trace_for(Benchmark::Parser, &points[0], Metric::Avf, &opts())
    );
}

#[test]
fn metric_traces_equal_per_metric_trace_for_in_any_order() {
    // 9-knob Table-2 points, and 10-knob points with the DVM throttle on.
    let nine = lhs::sample(&DesignSpace::micro2007(), 2, 11);
    let ten: Vec<DesignPoint> = lhs::sample(&DesignSpace::micro2007_with_dvm(), 2, 12)
        .iter()
        .map(|p| {
            let mut v = p.values().to_vec();
            v[9] = 0.3;
            DesignPoint::new(v)
        })
        .collect();
    let all = [Metric::Cpi, Metric::Power, Metric::Avf, Metric::IqAvf];
    for points in [nine, ten] {
        let expected: Vec<Vec<Vec<f64>>> = all
            .iter()
            .map(|&m| {
                points
                    .iter()
                    .map(|p| trace_for(Benchmark::Mcf, p, m, &opts()))
                    .collect()
            })
            .collect();
        // Every ordering of all four metrics, plus a sub-list and a
        // single metric.
        let mut orders: Vec<Vec<usize>> = Vec::new();
        for a in 0..4 {
            for b in (0..4).filter(|&b| b != a) {
                for c in (0..4).filter(|&c| c != a && c != b) {
                    orders.push(vec![a, b, c, 6 - a - b - c]);
                }
            }
        }
        orders.push(vec![3, 1]);
        orders.push(vec![2]);
        for order in orders {
            let metrics: Vec<Metric> = order.iter().map(|&i| all[i]).collect();
            let sets = collect_metric_traces(Benchmark::Mcf, &points, &metrics, &opts());
            assert_eq!(sets.len(), metrics.len());
            for (set, &i) in sets.iter().zip(&order) {
                assert_eq!(set.metric, all[i]);
                assert_eq!(set.benchmark, Benchmark::Mcf);
                assert_eq!(set.points, points);
                assert_eq!(set.traces, expected[i], "{} traces differ", all[i]);
            }
        }
    }
}

#[test]
fn every_benchmark_runs_on_every_test_level_extreme() {
    // Corner configurations of the test grid must simulate cleanly for
    // all twelve benchmarks.
    let small = DesignPoint::new(vec![2.0, 128.0, 32.0, 16.0, 256.0, 14.0, 8.0, 16.0, 3.0]);
    let large = DesignPoint::new(vec![8.0, 160.0, 64.0, 32.0, 4096.0, 8.0, 32.0, 64.0, 1.0]);
    for bench in Benchmark::ALL {
        for point in [&small, &large] {
            let t = trace_for(bench, point, Metric::Cpi, &opts());
            assert_eq!(t.len(), 16);
            assert!(
                t.iter().all(|&v| v.is_finite() && v > 0.0),
                "{bench} produced a bad CPI trace"
            );
        }
    }
}

#[test]
fn larger_caches_never_increase_miss_counts() {
    // Monotonicity across the dl1 axis for a cache-sensitive benchmark.
    let mut misses = Vec::new();
    for dl1 in [8.0, 16.0, 32.0, 64.0] {
        let p = DesignPoint::new(vec![8.0, 96.0, 96.0, 48.0, 2048.0, 12.0, 32.0, dl1, 1.0]);
        let config = MachineConfig::from_design_values(p.values());
        let run = Simulator::new(config).run(Benchmark::Twolf, &opts());
        misses.push(run.intervals.iter().map(|i| i.dl1_misses).sum::<u64>());
    }
    for w in misses.windows(2) {
        assert!(
            w[1] <= w[0] + w[0] / 10,
            "dl1 misses increased with capacity: {misses:?}"
        );
    }
}

#[test]
fn power_and_avf_remain_in_physical_bounds_across_design_space() {
    let space = DesignSpace::micro2007();
    let pts = lhs::sample(&space, 12, 5);
    for p in &pts {
        let config = MachineConfig::from_design_values(p.values());
        let run = Simulator::new(config.clone()).run(Benchmark::Vortex, &opts());
        let power = PowerModel::new(&config);
        let avf = AvfModel::new(&config);
        for i in &run.intervals {
            let w = power.interval_power(i).total();
            assert!(w > 1.0 && w < 500.0, "power {w} W out of bounds at {p}");
            let rep = avf.interval_report(i);
            for v in [rep.iq, rep.rob, rep.lsq] {
                assert!((0.0..=1.0).contains(&v), "AVF {v} out of bounds at {p}");
            }
        }
    }
}

#[test]
fn same_workload_different_configs_share_instruction_stream() {
    // Aggregate branch counts are timing-independent: two configs must
    // observe the identical dynamic branch count.
    let count = |p: &DesignPoint| {
        let config = MachineConfig::from_design_values(p.values());
        let run = Simulator::new(config).run(Benchmark::Bzip2, &opts());
        run.intervals.iter().map(|i| i.branches).sum::<u64>()
    };
    let a = count(&baseline_point());
    let b = count(&DesignPoint::new(vec![
        2.0, 128.0, 32.0, 16.0, 256.0, 20.0, 8.0, 8.0, 4.0,
    ]));
    assert_eq!(a, b, "branch counts diverged across configurations");
}

#[test]
fn dvm_point_reduces_iq_avf_and_costs_cycles() {
    let mut v = vec![8.0, 96.0, 96.0, 48.0, 256.0, 20.0, 32.0, 16.0, 2.0, 0.0];
    let off = DesignPoint::new(v.clone());
    v[9] = 0.3;
    let on = DesignPoint::new(v);
    let run_of = |p: &DesignPoint| {
        let config = MachineConfig::from_design_values(p.values());
        let run = Simulator::new(config.clone()).run(Benchmark::Mcf, &opts());
        let avf = AvfModel::new(&config).average_avf(&run, Structure::IssueQueue);
        (avf, run.total_cycles())
    };
    let (avf_off, cycles_off) = run_of(&off);
    let (avf_on, cycles_on) = run_of(&on);
    assert!(avf_on < avf_off, "DVM did not lower IQ AVF");
    assert!(
        cycles_on >= cycles_off,
        "DVM sped the machine up, which cannot happen"
    );
}

#[test]
fn test_design_points_are_always_simulable() {
    let space = DesignSpace::micro2007_with_dvm();
    for p in random::sample(&space, 30, Split::Test, 123) {
        let config = MachineConfig::from_design_values(p.values());
        let run = Simulator::new(config).run(
            Benchmark::Eon,
            &SimOptions {
                samples: 4,
                interval_instructions: 500,
                seed: 3,
            },
        );
        assert_eq!(run.intervals.len(), 4);
    }
}
