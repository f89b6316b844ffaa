//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! peercache-benchmark --workload NAME --seed S [--seconds T] [--trace 0|1] [--quick] [--out FILE]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--out` also writes a record with the host block and the output
//! digest, which `compare` reads. The exit code is 0 only when every
//! output check passed.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use peercache_benchmark::metrics::{percentile, Metric, END_TO_END, PER_LAYER};
use peercache_benchmark::{Outcome, Settings, Workload, WORKLOADS};
use peercache_graph::paths::Parallelism;

mod heap;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Variables that switch on library tracing or change how the
/// repository's own perf gate runs; measuring under them would time a
/// different program.
const FORBIDDEN_ENV: [&str; 3] = [
    "PEERCACHE_TRACE",
    "PEERCACHE_PERF_TOL",
    "PEERCACHE_BENCH_QUICK",
];

/// Threads of every workload: each pins `Parallelism::Sequential`.
const THREADS: usize = 1;

const USAGE: &str = "usage: peercache-benchmark --workload NAME --seed S [--seconds T] \
                     [--trace 0|1] [--quick] [--out FILE]";

struct Args {
    workload: Workload,
    name: String,
    settings: Settings,
    out: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut traced, mut quick, mut out) =
        (None, None, 0.0, false, false, None);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })?;
    Ok(Args {
        workload,
        name,
        settings: Settings {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced,
            quick,
        },
        out,
    })
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    let busy_s: f64 = o.op_ms.iter().sum::<f64>() / 1e3;
    vec![
        ("setup_s", percentile(&o.setup_s, 50.0)),
        ("op_ms_p50", percentile(&o.op_ms, 50.0)),
        ("op_ms_p90", percentile(&o.op_ms, 90.0)),
        ("ops_per_s", o.op_ms.len() as f64 / busy_s),
        (
            "peak_heap_mb",
            heap::peak_bytes() as f64 / (1024.0 * 1024.0),
        ),
        ("cost_total", o.cost_total),
        ("load_gini", o.load_gini),
    ]
}

/// Every metric of `table` with its unit, taking values from `values`
/// (0 for a per-layer metric the workload never reaches).
fn render_metrics(table: &[Metric], values: &[(&'static str, f64)]) -> Result<String, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !table.iter().any(|m| m.name == *n))
    {
        return Err(format!("metric {name} is not in the metric table"));
    }
    let mut parts = Vec::new();
    for m in table {
        let v = values
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(0.0, |&(_, v)| v);
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// Output of `program --version`-style commands, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    // Never let git walk above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .replace(['"', '\\'], "")
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("refusing to measure: {var} is set");
        return ExitCode::from(2);
    }
    let s = args.settings;
    let mut o = (args.workload)(&s);
    let (table, values) = if s.traced {
        (PER_LAYER, o.layers.clone())
    } else {
        (END_TO_END, end_to_end(&o))
    };
    let metrics = render_metrics(table, &values).unwrap_or_else(|e| {
        o.errors.push(e);
        "{}".into()
    });
    let attempted = o.op_ms.len() as u64 + o.failed;
    if attempted == 0 {
        o.errors.push("no op was attempted".into());
    }
    for e in &o.errors {
        eprintln!("check failed: {e}");
    }
    let correct = o.errors.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.failed
    );
    eprintln!(
        "{} seed {}: {} units, {} ops, digest {:#018x}",
        args.name,
        s.seed,
        o.units,
        o.op_ms.len(),
        o.digest,
    );
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"quick\": {}, \"seconds\": {}, \
             \"host\": {{\"cores\": {}, \"threads\": {}, \"probe_ms\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}}, \
             \"units\": {}, \"ops\": {}, \"digest\": \"{:#018x}\", \"result\": {result}}}\n",
            args.name,
            s.seed,
            s.traced,
            s.quick,
            s.seconds,
            Parallelism::Auto.threads(usize::MAX),
            THREADS,
            if o.probe_ms.is_finite() { o.probe_ms } else { 0.0 },
            command_line("rustc", &["--version"]),
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            o.units,
            o.op_ms.len(),
            o.digest,
        );
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
