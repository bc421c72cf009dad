//! The SPLASH serving benchmark: one process per run, one workload per
//! run, traffic generated from a seed, the program driven only through
//! its public API.
//!
//! ```text
//! splashbench --workload <wire_stream|engine_bulk|durable_online>
//!             --seed <n> --seconds <s> --trace <0|1>
//! splashbench --smoke [--workload <name>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). A failed correctness check prints the object with
//! `"correct": false` and exits 1; a run that cannot complete exits 1
//! without it. `--smoke` runs each workload at a tiny size in both modes
//! and checks every printed name and unit against `BENCHMARK.json`.
//! See `NOTES.md` for what each workload and metric is for.

mod alloc;
mod bulk;
mod durable;
mod json;
mod layers;
mod metrics;
mod procfs;
mod stats;
mod traffic;
mod wire;

use std::fmt::Write as _;
use std::process::ExitCode;

use metrics::{Row, Values, Workload};
use stats::{Phase, Tally};
use traffic::{Res, Sizes};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Traffic seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// Run sizes (full or smoke).
    pub sizes: Sizes,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted and failed.
    pub tally: Tally,
    /// Correctness checks: description and verdict.
    pub checks: Vec<(String, bool)>,
    /// Measured metric values.
    pub values: Values,
}

impl Outcome {
    /// Whether every check passed and no request failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && !self.checks.is_empty() && self.checks.iter().all(|c| c.1)
    }
}

/// Records the end-to-end metrics of the timed phase (its first, untraced
/// half), its tail percentiles under the `server` layer (`wire`) or the
/// `service` layer, and, when a traced half follows, the tracing
/// overhead: traced minus untraced on each end-to-end metric.
pub fn record_phases(phases: &[Phase], wire: bool, values: &mut Values) {
    let tails = if wire {
        [
            "server.ingest_p90_ms",
            "server.ingest_p99_ms",
            "server.predict_p90_ms",
            "server.predict_p99_ms",
        ]
    } else {
        [
            "service.ingest_p90_ms",
            "service.ingest_p99_ms",
            "service.predict_p90_ms",
            "service.predict_p99_ms",
        ]
    };
    let p = &phases[0];
    values.set(tails[0], stats::quantile(&p.ingest_ns, 0.9) / 1e6);
    values.set(tails[1], stats::quantile(&p.ingest_ns, 0.99) / 1e6);
    values.set(tails[2], stats::quantile(&p.predict_ns, 0.9) / 1e6);
    values.set(tails[3], stats::quantile(&p.predict_ns, 0.99) / 1e6);
    let summary = |p: &Phase| {
        [
            p.edges_per_s(),
            stats::clean_latency(&p.ingest_ns) / 1e6,
            stats::clean_latency(&p.predict_ns) / 1e6,
        ]
    };
    const NAMES: [(&str, &str); 3] = [
        ("edges_per_s", "trace.edges_per_s_overhead"),
        ("ingest_p1_ms", "trace.ingest_p1_ms_overhead"),
        ("predict_p1_ms", "trace.predict_p1_ms_overhead"),
    ];
    let untraced = summary(&phases[0]);
    for (i, (name, _)) in NAMES.iter().enumerate() {
        values.set(name, untraced[i]);
    }
    if let Some(traced) = phases.get(1).map(summary) {
        for (i, (_, overhead)) in NAMES.iter().enumerate() {
            values.set(overhead, traced[i] - untraced[i]);
        }
    }
}

fn run(opts: &Opts) -> Res<Outcome> {
    match opts.workload {
        Workload::WireStream => wire::run(opts),
        Workload::EngineBulk => bulk::run(opts),
        Workload::DurableOnline => durable::run(opts),
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_json(out: &Outcome, rows: &[Row]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.tally.attempted,
        out.tally.failed
    );
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Runs one workload and prints its report; returns whether it was
/// correct, and the printed rows.
fn run_and_report(opts: &Opts) -> Res<(bool, Vec<Row>)> {
    let out = run(opts)?;
    let rows = out.values.rows(opts.workload, opts.traced)?;
    println!(
        "workload {} seed {} traced {}: {} requests attempted, {} succeeded, {} failed",
        opts.workload.name(),
        opts.seed,
        opts.traced,
        out.tally.attempted,
        out.tally.attempted - out.tally.failed,
        out.tally.failed
    );
    for (what, ok) in &out.checks {
        println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    for (name, value, unit) in &rows {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!("{}", result_json(&out, &rows));
    Ok((out.correct(), rows))
}

/// Checks printed rows against `BENCHMARK.json`'s table `key`: the same
/// names, in the same order, with the same units.
fn check_against_manifest(manifest: &json::Value, key: &str, rows: &[Row]) -> Res<()> {
    let listed: Vec<(String, String)> = manifest
        .get(key)
        .and_then(json::Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(json::Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{key} entry lacks name/unit"))
        })
        .collect::<Res<_>>()?;
    let printed: Vec<(String, String)> = rows
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect();
    if listed != printed {
        return Err(format!(
            "{key} in BENCHMARK.json {listed:?} does not match the printed metrics {printed:?}"
        ));
    }
    Ok(())
}

/// The smoke mode: every workload (or the named one) at a tiny size,
/// untraced and traced, checked against `BENCHMARK.json`.
fn smoke(only: Option<Workload>) -> Res<()> {
    let path = [
        "BENCHMARK.json",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"),
    ]
    .into_iter()
    .find(|p| std::path::Path::new(p).exists())
    .ok_or("BENCHMARK.json not found")?;
    let manifest = json::parse(&std::fs::read_to_string(path).map_err(|e| e.to_string())?)?;
    let names: Vec<&str> = manifest
        .get("workloads")
        .and_then(json::Value::as_array)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(json::Value::as_str))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if names != known {
        return Err(format!(
            "BENCHMARK.json workloads {names:?} differ from {known:?}"
        ));
    }
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        for traced in [false, true] {
            let opts = Opts {
                workload,
                seed: 7,
                seconds: 0.4,
                traced,
                sizes: Sizes::new(true),
            };
            let (correct, rows) = run_and_report(&opts)?;
            if !correct {
                return Err(format!("{} failed its checks", workload.name()));
            }
            let key = if traced { "per_layer" } else { "end_to_end" };
            check_against_manifest(&manifest, key, &rows)?;
        }
    }
    println!("smoke ok: names and units match BENCHMARK.json");
    Ok(())
}

fn parse_args(args: &[String]) -> Res<(Option<Opts>, bool)> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut smoke) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?)
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if smoke {
        let opts = workload.map(|workload| Opts {
            workload,
            seed: 7,
            seconds: 0.4,
            traced: false,
            sizes: Sizes::new(true),
        });
        return Ok((opts, true));
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return Err(
            "usage: splashbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                    | --smoke [--workload <name>]"
                .into(),
        );
    };
    Ok((
        Some(Opts {
            workload,
            seed,
            seconds,
            traced,
            sizes: Sizes::new(false),
        }),
        false,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|(opts, is_smoke)| {
        if is_smoke {
            smoke(opts.map(|o| o.workload)).map(|()| true)
        } else {
            let opts = opts.expect("parse_args returns options outside smoke mode");
            run_and_report(&opts).map(|(correct, _)| correct)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("splashbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn every_metric_name_is_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(!names[..i].contains(n), "{n} listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let out = Outcome::default();
        let line = result_json(&out, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 0, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        json::parse(&line).unwrap();
    }
}
