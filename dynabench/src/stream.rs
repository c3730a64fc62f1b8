//! The seeded `serve_mix` request stream: predict / pareto / topk / sweep
//! / stats calls plus about 2% malformed lines, over four benchmarks and
//! the three metric domains. Each line carries the outcome it must get.
//!
//! The repository holds no record of served traffic, so the shares and
//! sizes below are assumptions, each with its reason. `serve_mix`'s
//! `req_per_s` and `wall_s` depend on them; its per-kind latencies
//! (`predict_*`, `query_*`) do not.

use dynawave_core::Metric;
use dynawave_numeric::rng::Rng;
use dynawave_sampling::DesignSpace;
use dynawave_workloads::Benchmark;

/// Benchmarks the serve stream queries.
pub const BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Gcc,
    Benchmark::Mcf,
    Benchmark::Crafty,
    Benchmark::Swim,
];

/// What a request line is, and so which response it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-model batch prediction; must answer `ok`.
    Predict,
    /// Pareto frontier over the three domain models; must answer `ok`.
    Pareto,
    /// Top-K under a power budget (CPI and power models); must answer `ok`.
    TopK,
    /// One-knob sensitivity sweep; must answer `ok`.
    Sweep,
    /// Introspection probe; must answer `stats`.
    Stats,
    /// A malformed line; must answer `error` with this code.
    Malformed(&'static str),
}

impl Kind {
    /// Whether this kind's latency counts toward `query_*`: the
    /// multi-model queries.
    pub fn is_query(self) -> bool {
        matches!(self, Kind::Pareto | Kind::TopK | Kind::Sweep)
    }

    /// Stable name, as the per-kind metrics use it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Predict => "predict",
            Kind::Pareto => "pareto",
            Kind::TopK => "topk",
            Kind::Sweep => "sweep",
            Kind::Stats => "stats",
            Kind::Malformed(_) => "malformed",
        }
    }

    /// Whether `response` is the outcome this kind of line must get.
    pub fn accepts(self, response: &str) -> bool {
        // The head is `{"schema":..,"seq":..,"tick":..,"id":"<id>","kind":"<k>"`
        // and ids in this stream never contain quotes, so the first
        // `"kind"` field is the response kind.
        let kind = response
            .split_once(",\"kind\":\"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(k, _)| k);
        match self {
            Kind::Stats => kind == Some("stats"),
            Kind::Malformed(code) => {
                kind == Some("error") && response.contains(&format!(",\"error\":\"{code}\""))
            }
            _ => kind == Some("ok"),
        }
    }
}

/// One request line with the outcome it must get.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The JSON line sent to the daemon.
    pub line: String,
    /// What it is.
    pub kind: Kind,
}

const HEAD: &str = "{\"schema\":\"dynawave-serve\",\"v\":1";

fn vector(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(","))
}

/// A design vector drawn from the space's test levels: configurations
/// the models were not trained on.
fn point(space: &DesignSpace, rng: &mut Rng) -> Vec<f64> {
    space
        .parameters()
        .iter()
        .map(|p| {
            let levels = p.test_levels();
            levels[rng.range_usize(0, levels.len())]
        })
        .collect()
}

/// Between `lo` and `hi` (inclusive) design vectors, as a JSON array.
fn points(space: &DesignSpace, rng: &mut Rng, (lo, hi): (usize, usize)) -> String {
    let n = rng.range_usize(lo, hi + 1);
    let pts: Vec<String> = (0..n).map(|_| vector(&point(space, rng))).collect();
    format!("[{}]", pts.join(","))
}

fn predict_line(id: &str, b: Benchmark, m: Metric, points: &str, trace: bool) -> String {
    format!(
        "{HEAD},\"id\":\"{id}\",\"kind\":\"predict\",\"benchmark\":\"{}\",\"metric\":\"{}\",\"points\":{points}{}}}",
        b.name(),
        m.name(),
        if trace { ",\"trace\":true" } else { "" }
    )
}

/// The cold start: one single-point `predict` per (benchmark, metric),
/// so each request misses on exactly one model and trains it.
pub fn warmup(space: &DesignSpace) -> Vec<Request> {
    let first: Vec<f64> = space
        .parameters()
        .iter()
        .map(|p| p.test_levels()[0])
        .collect();
    let pts = format!("[{}]", vector(&first));
    let mut out = Vec::new();
    for b in BENCHMARKS {
        for m in Metric::DOMAINS {
            out.push(Request {
                line: predict_line(
                    &format!("warm-{}-{}", b.name(), m.name()),
                    b,
                    m,
                    &pts,
                    false,
                ),
                kind: Kind::Predict,
            });
        }
    }
    out
}

/// Share of malformed lines: a small steady rate of client errors, which
/// still puts every one of the five typed errors in each pass.
const MALFORMED: f64 = 0.02;
/// Cumulative share up to which a line is a `predict`: about half.
/// `predict` is the daemon's single-model call and the only kind behind
/// `predict_*`; the three multi-model kinds together get a similar share,
/// so both latency families close their windows at similar rates.
const PREDICT_UPTO: f64 = 0.50;
/// Cumulative shares of `pareto`, `topk` and `sweep`: 12.5% each, as no
/// record favours one query over another.
const PARETO_UPTO: f64 = 0.625;
const TOPK_UPTO: f64 = 0.75;
const SWEEP_UPTO: f64 = 0.875;
// The remaining 12.5% are `stats` probes, as many as one query kind.

/// Points per `predict`: a handful of candidates, around the two the
/// `ci.sh --serve` battery sends.
const PREDICT_POINTS: (usize, usize) = (1, 4);
/// Points per `pareto` or `topk`: enough candidates for a frontier or a
/// top-k to choose among.
const QUERY_POINTS: (usize, usize) = (4, 8);
/// Share of `predict` calls asking for the whole trace instead of its
/// summary: a minority, as a trace is the large response.
const WITH_TRACE: f64 = 0.1;
/// Range of `topk` power budgets in watts. The power model is tuned to a
/// 20–140 W band, so budgets here both keep and drop candidates.
const POWER_BUDGET_W: (f64, f64) = (10.0, 100.0);

/// The seeded request stream of `len` lines.
pub fn generate(seed: u64, len: usize, space: &DesignSpace) -> Vec<Request> {
    let mut rng = Rng::from_label(seed, "dynabench.serve_mix");
    let dims = space.dims();
    (0..len)
        .map(|i| {
            let id = format!("r{i}");
            let b = BENCHMARKS[rng.range_usize(0, BENCHMARKS.len())];
            let m = Metric::DOMAINS[rng.range_usize(0, Metric::DOMAINS.len())];
            let draw = rng.next_f64();
            if draw < MALFORMED {
                return malformed(&id, space, &mut rng);
            }
            let (kind, line) = if draw < PREDICT_UPTO {
                let trace = rng.next_bool_with(WITH_TRACE);
                let pts = points(space, &mut rng, PREDICT_POINTS);
                (Kind::Predict, predict_line(&id, b, m, &pts, trace))
            } else if draw < PARETO_UPTO {
                let pts = points(space, &mut rng, QUERY_POINTS);
                (
                    Kind::Pareto,
                    format!(
                        "{HEAD},\"id\":\"{id}\",\"kind\":\"pareto\",\"benchmark\":\"{}\",\"points\":{pts}}}",
                        b.name()
                    ),
                )
            } else if draw < TOPK_UPTO {
                let k = rng.range_usize(1, 4);
                let budget = rng.range_f64(POWER_BUDGET_W.0, POWER_BUDGET_W.1);
                let pts = points(space, &mut rng, QUERY_POINTS);
                (
                    Kind::TopK,
                    format!(
                        "{HEAD},\"id\":\"{id}\",\"kind\":\"topk\",\"benchmark\":\"{}\",\"k\":{k},\"power_budget\":{budget},\"points\":{pts}}}",
                        b.name()
                    ),
                )
            } else if draw < SWEEP_UPTO {
                let axis = rng.range_usize(0, dims);
                let levels = space.parameters().get(axis).map(|p| p.train_levels()).unwrap_or_default();
                let values = vector(levels);
                let base = vector(&point(space, &mut rng));
                (
                    Kind::Sweep,
                    format!(
                        "{HEAD},\"id\":\"{id}\",\"kind\":\"sweep\",\"benchmark\":\"{}\",\"metric\":\"{}\",\"base\":{base},\"axis\":{axis},\"values\":{values}}}",
                        b.name(),
                        m.name()
                    ),
                )
            } else {
                (Kind::Stats, format!("{HEAD},\"id\":\"{id}\",\"kind\":\"stats\"}}"))
            };
            Request { line, kind }
        })
        .collect()
}

/// One of five malformed lines, each with the typed error it must get.
fn malformed(id: &str, space: &DesignSpace, rng: &mut Rng) -> Request {
    let p = point(space, rng);
    let pts = format!("[{}]", vector(&p));
    let (code, line) = match rng.range_usize(0, 5) {
        0 => ("bad-json", format!("{HEAD},\"id\":\"{id}\",\"kind\":\"predict\"")),
        1 => (
            "unknown-benchmark",
            format!("{HEAD},\"id\":\"{id}\",\"kind\":\"predict\",\"benchmark\":\"doom\",\"metric\":\"cpi\",\"points\":{pts}}}"),
        ),
        2 => (
            "bad-arity",
            format!(
                "{HEAD},\"id\":\"{id}\",\"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"points\":[{}]}}",
                vector(&p[1..])
            ),
        ),
        3 => ("unknown-kind", format!("{HEAD},\"id\":\"{id}\",\"kind\":\"explode\",\"benchmark\":\"gcc\"}}")),
        _ => (
            "unknown-metric",
            format!("{HEAD},\"id\":\"{id}\",\"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"ipc\",\"points\":{pts}}}"),
        ),
    };
    Request {
        line,
        kind: Kind::Malformed(code),
    }
}
