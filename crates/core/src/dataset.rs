//! Simulation-backed dataset collection: design points → dynamics traces.

use dynawave_avf::{AvfModel, Structure};
use dynawave_power::PowerModel;
use dynawave_sampling::DesignPoint;
use dynawave_sim::{MachineConfig, RunResult, SimOptions, Simulator};
use dynawave_workloads::Benchmark;

/// Which workload-dynamics metric a trace measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Cycles per instruction (performance domain).
    Cpi,
    /// Total processor power in watts (power domain).
    Power,
    /// Combined processor AVF (reliability domain, Figure 8c).
    Avf,
    /// Issue-queue AVF (the §5 DVM case study).
    IqAvf,
}

impl Metric {
    /// All metrics of the paper's three domains (Figure 8).
    pub const DOMAINS: [Metric; 3] = [Metric::Cpi, Metric::Power, Metric::Avf];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Cpi => "cpi",
            Metric::Power => "power",
            Metric::Avf => "avf",
            Metric::IqAvf => "iq_avf",
        }
    }

    /// Inverse of [`Metric::name`]: parses a stable lowercase name.
    pub fn parse(name: &str) -> Option<Metric> {
        match name {
            "cpi" => Some(Metric::Cpi),
            "power" => Some(Metric::Power),
            "avf" => Some(Metric::Avf),
            "iq_avf" => Some(Metric::IqAvf),
            _ => None,
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A collection of per-design-point dynamics traces for one
/// `(benchmark, metric)` pair — the training or test set of a predictor.
#[derive(Debug, Clone)]
pub struct TraceSet {
    /// The benchmark the traces belong to.
    pub benchmark: Benchmark,
    /// The measured metric.
    pub metric: Metric,
    /// Design points, parallel to `traces`.
    pub points: Vec<DesignPoint>,
    /// One dynamics trace (length = `SimOptions::samples`) per point.
    pub traces: Vec<Vec<f64>>,
}

impl TraceSet {
    /// Number of design points in the set.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// A set over `points` whose traces are still to be simulated.
    fn unfilled(benchmark: Benchmark, metric: Metric, points: &[DesignPoint]) -> Self {
        TraceSet {
            benchmark,
            metric,
            points: points.to_vec(),
            traces: Vec::with_capacity(points.len()),
        }
    }
}

/// The dynamics trace for `metric` from one run of `config`.
fn metric_trace(run: &RunResult, config: &MachineConfig, metric: Metric) -> Vec<f64> {
    match metric {
        Metric::Cpi => run.cpi_trace(),
        Metric::Power => PowerModel::new(config).power_trace(run),
        Metric::Avf => AvfModel::new(config).combined_trace(run, config),
        Metric::IqAvf => AvfModel::new(config).avf_trace(run, Structure::IssueQueue),
    }
}

/// Simulates one design point and extracts its dynamics trace for `metric`.
///
/// Design points may carry 9 values (Table 2) or 10 (with the DVM flag of
/// the §5 case study).
///
/// # Panics
///
/// Panics on invalid design values ([`MachineConfig::from_design_values`]).
pub fn trace_for(
    benchmark: Benchmark,
    point: &DesignPoint,
    metric: Metric,
    opts: &SimOptions,
) -> Vec<f64> {
    let config = MachineConfig::from_design_values(point.values());
    let run = Simulator::new(config.clone()).run(benchmark, opts);
    metric_trace(&run, &config, metric)
}

/// Simulates every point once and appends to each of `sets` its metric's
/// trace from that run: the one simulation loop behind every collector.
fn fill(sets: &mut [TraceSet], benchmark: Benchmark, points: &[DesignPoint], opts: &SimOptions) {
    for point in points {
        let config = MachineConfig::from_design_values(point.values());
        let run = Simulator::new(config.clone()).run(benchmark, opts);
        for set in sets.iter_mut() {
            set.traces.push(metric_trace(&run, &config, set.metric));
        }
    }
}

/// Simulates every design point **once** and returns one [`TraceSet`] per
/// entry of `metrics`, in order, each equal to [`collect_traces`]'s.
pub fn collect_metric_traces(
    benchmark: Benchmark,
    points: &[DesignPoint],
    metrics: &[Metric],
    opts: &SimOptions,
) -> Vec<TraceSet> {
    let mut sets: Vec<TraceSet> = metrics
        .iter()
        .map(|&m| TraceSet::unfilled(benchmark, m, points))
        .collect();
    fill(&mut sets, benchmark, points, opts);
    sets
}

/// Simulates every design point and gathers its `metric` traces: the
/// expensive step the predictive models exist to avoid at *unsimulated*
/// points (the paper simulates 200 training + 50 test configurations).
pub fn collect_traces(
    benchmark: Benchmark,
    points: &[DesignPoint],
    metric: Metric,
    opts: &SimOptions,
) -> TraceSet {
    let mut set = TraceSet::unfilled(benchmark, metric, points);
    fill(std::slice::from_mut(&mut set), benchmark, points, opts);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynawave_sampling::{lhs, DesignSpace};

    fn opts() -> SimOptions {
        SimOptions {
            samples: 16,
            interval_instructions: 800,
            seed: 5,
        }
    }

    #[test]
    fn collects_traces_of_right_shape() {
        let space = DesignSpace::micro2007();
        let pts = lhs::sample(&space, 3, 1);
        let set = collect_traces(Benchmark::Eon, &pts, Metric::Cpi, &opts());
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        for t in &set.traces {
            assert_eq!(t.len(), 16);
            assert!(t.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn metrics_have_distinct_scales() {
        let space = DesignSpace::micro2007();
        let pts = lhs::sample(&space, 1, 2);
        let cpi = trace_for(Benchmark::Gcc, &pts[0], Metric::Cpi, &opts());
        let power = trace_for(Benchmark::Gcc, &pts[0], Metric::Power, &opts());
        let avf = trace_for(Benchmark::Gcc, &pts[0], Metric::Avf, &opts());
        assert!(power[0] > cpi[0], "power in watts should exceed CPI");
        assert!(avf.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn dvm_flag_changes_iq_avf() {
        let mut values = vec![8.0, 96.0, 96.0, 48.0, 2048.0, 12.0, 32.0, 64.0, 1.0];
        values.push(0.0);
        let off = DesignPoint::new(values.clone());
        values[9] = 1.0;
        let on = DesignPoint::new(values);
        let t_off = trace_for(Benchmark::Mcf, &off, Metric::IqAvf, &opts());
        let t_on = trace_for(Benchmark::Mcf, &on, Metric::IqAvf, &opts());
        let mean = |t: &[f64]| t.iter().sum::<f64>() / t.len() as f64;
        assert!(mean(&t_on) < mean(&t_off), "DVM should lower IQ AVF");
    }

    #[test]
    fn metric_names() {
        assert_eq!(Metric::Cpi.to_string(), "cpi");
        assert_eq!(Metric::IqAvf.to_string(), "iq_avf");
        assert_eq!(Metric::DOMAINS.len(), 3);
    }

    #[test]
    fn metric_names_roundtrip() {
        for m in [Metric::Cpi, Metric::Power, Metric::Avf, Metric::IqAvf] {
            assert_eq!(Metric::parse(m.name()), Some(m));
        }
        assert_eq!(Metric::parse("ipc"), None);
    }
}
