//! Command-line entry point of the benchmark.
//!
//! ```text
//! dynabench --workload <dse_campaign|dvm_study|serve_mix|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run-context line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--workload all` runs
//! each workload in its own process (so `peak_rss_mib` is per workload),
//! prints a table of every metric, and ends with the combined result.
//! An untraced run of one workload re-runs this executable once per part
//! (`--part <i>`) and reports the interquartile mean over the parts.

use dynabench::measure::trimmed_mean;
use dynabench::metrics::{self, result_line, Values};
use dynabench::workload::{threads, RunOpts, Scale, Tally, DEFAULT_SEED};
use dynabench::{parts_of, run_workload, WORKLOADS};
use dynawave_obs::json::{self, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Cli {
    workload: String,
    opts: RunOpts,
    /// Set in the child processes of a split run: run this workload in
    /// this process.
    part: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: dynabench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut part = None;
    let mut opts = RunOpts {
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        scale: Scale::Full,
        scratch: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--part" => part = Some(value.parse().map_err(|_| bad())?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok(Cli {
        workload,
        opts,
        part,
    })
}

/// The commit the benchmark was built from, with `-dirty` appended when
/// the tracked files differ from it, when run inside a git checkout.
fn git_commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_one(cli: &Cli) -> Result<(), String> {
    let opts = &cli.opts;
    let scratch =
        PathBuf::from(".dynabench_tmp").join(format!("{}-{}", cli.workload, std::process::id()));
    let opts = RunOpts {
        scratch: scratch.clone(),
        ..opts.clone()
    };
    let outcome = run_workload(&cli.workload, &opts);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".dynabench_tmp");
    let mut outcome = outcome?;
    let (available, used) = threads();
    let mut context = vec![
        ("workload".to_string(), format!("\"{}\"", cli.workload)),
        ("seed".to_string(), opts.seed.to_string()),
        ("scale".to_string(), format!("\"{}\"", opts.scale.name())),
        ("trace".to_string(), opts.trace.to_string()),
        ("seconds".to_string(), opts.seconds.to_string()),
        ("available_parallelism".to_string(), available.to_string()),
        ("threads".to_string(), used.to_string()),
        ("commit".to_string(), format!("\"{}\"", git_commit())),
    ];
    context.append(&mut outcome.context);
    if let Some(why) = &outcome.tally.first_failure {
        context.push(("first_failure".to_string(), format!("{why:?}")));
        eprintln!("dynabench: {} failed: {why}", cli.workload);
    }
    let fields: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{\"context\":{{{}}}}}", fields.join(","));
    let vocabulary = if opts.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let t = &outcome.tally;
    println!(
        "{}",
        result_line(
            t.failed == 0,
            t.attempted,
            t.failed,
            &vocabulary,
            &outcome.values
        )?
    );
    Ok(())
}

/// A child process's run context (as printed) and its parsed result.
struct ChildRun {
    context: String,
    fingerprint: Option<Value>,
    result: Value,
}

/// Runs this executable with `args` and reads its last two lines: the
/// context object and the result object.
fn child(args: &[String]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(String::from_utf8_lossy(&output.stderr).into_owned());
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result =
        json::parse(lines.next().unwrap_or_default()).map_err(|e| format!("result: {e}"))?;
    let line = lines.next().unwrap_or_default();
    let context = line
        .strip_prefix("{\"context\":")
        .and_then(|c| c.strip_suffix('}'))
        .ok_or("no context line")?
        .to_string();
    let fingerprint = json::parse(&context)
        .ok()
        .and_then(|c| c.as_object().and_then(|o| o.get("fingerprint")).cloned());
    Ok(ChildRun {
        context,
        fingerprint,
        result,
    })
}

fn child_args(workload: &str, o: &RunOpts, seconds: f64) -> Vec<String> {
    let mut args: Vec<String> = ["--workload", workload, "--seed", &o.seed.to_string()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(["--seconds".into(), seconds.to_string(), "--trace".into()]);
    args.push(if o.trace { "1" } else { "0" }.into());
    args
}

fn count(result: &Value, key: &str) -> u64 {
    result
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result
        .as_object()?
        .get("metrics")?
        .as_object()?
        .get(name)?
        .as_object()?
        .get("value")?
        .as_f64()
}

/// An untraced run split across fresh processes. On a shared host the
/// speed of one process differs from the next, and the host alternates
/// between a fast and a slow state, so one process's figures vary by more
/// than the bounds allow. Each part measures for its share of the time;
/// every end-to-end metric is the interquartile mean of the parts' values,
/// which, unlike their median, does not jump from one state's figure to
/// the other's when the parts split between the two.
fn run_parts(cli: &Cli) -> Result<(), String> {
    let parts = parts_of(&cli.workload);
    let mut tally = Tally::default();
    let mut runs = Vec::with_capacity(parts);
    for i in 0..parts {
        let mut args = child_args(&cli.workload, &cli.opts, cli.opts.seconds / parts as f64);
        args.extend(["--part".into(), i.to_string()]);
        let run = child(&args).map_err(|e| format!("{} part {i}: {e}", cli.workload))?;
        tally.attempted += count(&run.result, "attempted");
        tally.failed += count(&run.result, "failed");
        runs.push(run);
    }
    let first = runs.first().and_then(|r| r.fingerprint.clone());
    tally.check(runs.iter().all(|r| r.fingerprint == first), || {
        "parts produced different outputs".into()
    });
    let mut values = Values::default();
    for (name, _) in metrics::end_to_end() {
        let xs: Vec<f64> = runs
            .iter()
            .filter_map(|r| metric(&r.result, &name))
            .collect();
        if xs.len() == parts {
            values.set(name, trimmed_mean(&xs).unwrap_or(f64::NAN));
        }
    }
    let encoded: Vec<&str> = runs.iter().map(|r| r.context.as_str()).collect();
    println!(
        "{{\"context\":{{\"workload\":\"{}\",\"seed\":{},\"parts\":[{}]}}}}",
        cli.workload,
        cli.opts.seed,
        encoded.join(",")
    );
    println!(
        "{}",
        result_line(
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            &metrics::end_to_end(),
            &values
        )?
    );
    Ok(())
}

/// Runs every workload in a child process of this executable and prints
/// one table of all their metrics, then the combined result.
fn run_all(cli: &Cli) -> Result<(), String> {
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut rows = Vec::new();
    let mut combined = Vec::new();
    for w in WORKLOADS {
        let doc = child(&child_args(w, &cli.opts, cli.opts.seconds))
            .map_err(|e| format!("{w}: {e}"))?
            .result;
        let obj = doc.as_object().ok_or("result is not an object")?;
        attempted += obj.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += obj.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        correct &= obj.get("correct") == Some(&Value::Bool(true));
        let ms = obj
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or("result has no metrics")?;
        for (name, m) in ms {
            let m = m.as_object().ok_or("metric is not an object")?;
            let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|v| v.as_str()).unwrap_or("");
            rows.push(format!("{w:<13} {name:<36} {value:>16.6} {unit}"));
            combined.push(format!(
                "\"{w}.{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
    }
    for r in rows {
        println!("{r}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        combined.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    // dynalint:allow(D004) -- command-line arguments are the benchmark's input
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|cli| {
        if cli.workload == "all" {
            run_all(&cli)
        } else if cli.opts.trace || cli.part.is_some() {
            run_one(&cli)
        } else {
            run_parts(&cli)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dynabench: {e}");
            ExitCode::FAILURE
        }
    }
}
