//! `perfbench` — the repository benchmark.
//!
//! Three workloads drive the public entry points a user calls, on the
//! execution path each uses by default, over the default precision
//! ladder (`tr-g8k24s3`, `tr-g8k16s3`, `tr-g8k12s3`, `tr-g8k8s2`,
//! `qt-w8a8`) and the zoo checkpoints:
//!
//! * `serve_mlp` — open-loop traffic through `ShardedService` + `NnEngine`;
//! * `offline_cnn` — closed-loop ResNet-18 batches through `tr_nn::exec`;
//! * `lstm_stream` — closed-loop LSTM windows through `LstmLm::forward`.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mlp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics of an untraced run; `--trace 1` enables `tr_obs`
//! for a second pass and reports the per-layer metrics. Every run checks
//! the names and units it prints against `BENCHMARK.json`.

mod common;
mod offline;
mod probes;
mod serve;

use common::RunResult;
use std::collections::BTreeSet;
use std::process::ExitCode;
use tr_obs::JsonValue;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What `BENCHMARK.json` declares for one mode.
struct Declared {
    /// `(name, unit)` of every metric the mode prints.
    metrics: BTreeSet<(String, String)>,
    workloads: Vec<String>,
}

fn declared(trace: bool) -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = JsonValue::parse(&text)?;
    let list = |key: &str| match json.get(key) {
        Some(JsonValue::Array(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json has no `{key}` list")),
    };
    let field = |item: &JsonValue, key: &str| match item.get(key) {
        Some(JsonValue::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json entry without a string `{key}`")),
    };
    let metrics = list(if trace { "per_layer" } else { "end_to_end" })?
        .iter()
        .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
        .collect::<Result<_, String>>()?;
    let workloads = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<_, _>>()?;
    Ok(Declared { metrics, workloads })
}

/// Fail unless the printed metrics are exactly the declared ones.
fn self_check(result: &RunResult, declared: &BTreeSet<(String, String)>) -> Result<(), String> {
    let printed: BTreeSet<(String, String)> = result
        .metrics
        .0
        .iter()
        .map(|(n, _, u)| (n.clone(), (*u).to_string()))
        .collect();
    if printed.len() != result.metrics.0.len() {
        return Err("a metric is printed twice".to_string());
    }
    let missing: Vec<_> = declared.difference(&printed).collect();
    let extra: Vec<_> = printed.difference(declared).collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    if let Some((name, v, _)) = result.metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a number: {v}"));
    }
    Ok(())
}

fn run(args: &Args) -> Result<RunResult, String> {
    let Declared { metrics, workloads } = declared(args.trace)?;
    if !workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload {} (BENCHMARK.json lists {workloads:?})",
            args.workload
        ));
    }
    let zoo = common::zoo();
    let result = match args.workload.as_str() {
        "serve_mlp" => serve::run(&zoo, args.seed, args.seconds, args.trace)?,
        "offline_cnn" => offline::run(
            offline::Kind::Cnn,
            &zoo,
            args.seed,
            args.seconds,
            args.trace,
        )?,
        "lstm_stream" => offline::run(
            offline::Kind::Lstm,
            &zoo,
            args.seed,
            args.seconds,
            args.trace,
        )?,
        other => return Err(format!("workload {other} is declared but not implemented")),
    };
    self_check(&result, &metrics)?;
    Ok(result)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(r) => {
            let metrics = r
                .metrics
                .0
                .iter()
                .map(|(name, value, unit)| {
                    let m = vec![
                        ("value".to_string(), JsonValue::Num(*value)),
                        ("unit".to_string(), JsonValue::str(unit)),
                    ];
                    (name.clone(), JsonValue::object(m))
                })
                .collect();
            let out = JsonValue::object(vec![
                ("correct".to_string(), JsonValue::Bool(r.correct)),
                ("attempted".to_string(), JsonValue::UInt(r.attempted)),
                ("failed".to_string(), JsonValue::UInt(r.failed)),
                ("metrics".to_string(), JsonValue::object(metrics)),
            ]);
            println!("{}", out.to_string());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
