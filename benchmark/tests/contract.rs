//! The benchmark's contract: `BENCHMARK.json` and the metric tables
//! agree, every run prints every metric with its unit, the output digest
//! repeats across runs of the same seed, traced or not, and the exact
//! metrics repeat across runs of any seed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use peercache_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use peercache_benchmark::WORKLOADS;
use peercache_obs::Json;

const BIN: &str = env!("CARGO_BIN_EXE_peercache-benchmark");

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn table(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn spec_names_the_metrics_and_workloads_the_binary_runs() {
    let spec = spec();
    assert_eq!(names_and_units(&spec, "end_to_end"), table(END_TO_END));
    assert_eq!(names_and_units(&spec, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(workloads, ours);
}

fn run(workload: &str, seed: u64, trace: u8, out: &Path) -> Output {
    Command::new(BIN)
        .args(["--workload", workload, "--quick", "--seconds", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", &trace.to_string(), "--out"])
        .arg(out)
        .output()
        .expect("benchmark runs")
}

/// The run's last stdout line and its `--out` record, after checking
/// the line's shape and that every metric of `metrics` is printed with
/// its unit.
fn checked_run(workload: &str, seed: u64, trace: u8, tag: &str, metrics: &[Metric]) -> Json {
    let out: PathBuf =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}.json"));
    let output = run(workload, seed, trace, &out);
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let printed: Vec<(String, String)> = line
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().into(),
            )
        })
        .collect();
    assert_eq!(printed, table(metrics), "{workload} trace {trace}");
    Json::parse(&std::fs::read_to_string(out).unwrap()).unwrap()
}

fn value(record: &Json, metric: &str) -> f64 {
    record
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap()
}

#[test]
fn quick_runs_print_every_metric_and_repeat_exactly() {
    for (workload, _) in WORKLOADS {
        let first = checked_run(workload, 7, 0, "a", END_TO_END);
        let again = checked_run(workload, 7, 0, "b", END_TO_END);
        let other_seed = checked_run(workload, 8, 0, "c", END_TO_END);
        let traced = checked_run(workload, 7, 1, "traced", PER_LAYER);
        // The exact metrics cover the reference set, whose inputs do not
        // depend on the seed.
        for metric in ["cost_total", "load_gini"] {
            for other in [&again, &other_seed] {
                assert_eq!(
                    value(&first, metric).to_bits(),
                    value(other, metric).to_bits(),
                    "{workload}: {metric} differs between two runs"
                );
            }
        }
        let digest = |r: &Json| r.get("digest").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(digest(&first), digest(&again), "{workload}: repeat digest");
        assert_eq!(digest(&first), digest(&traced), "{workload}: traced digest");
        assert_ne!(
            digest(&first),
            digest(&other_seed),
            "{workload}: seed digest"
        );
        assert!(first.get("host").and_then(|h| h.get("cores")).is_some());
    }
}

#[test]
fn refuses_to_measure_under_library_tracing() {
    let output = Command::new(BIN)
        .args(["--workload", "plan-rgg300", "--seed", "1", "--quick"])
        .env("PEERCACHE_TRACE", "/dev/null")
        .output()
        .expect("benchmark runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
