//! Compares two sets of benchmark results.
//!
//! ```text
//! compare BASE_DIR NEW_DIR
//! ```
//!
//! Run it from the repository root: it reads the bounds from
//! `BENCHMARK.json` there. Each directory holds the records
//! `peercache-benchmark --out` wrote (traced records are skipped). A
//! record whose output checks failed (`"correct": false`) is refused. For
//! every workload and end-to-end metric it prints both sets' median and
//! quartiles and a verdict against the metric's tolerance, which is the
//! bound times the base median, but at least the metric's floor
//! ([`WALL`]):
//!
//! * `worse`: the new median is worse than the base median by more
//!   than the tolerance, or the new set failed more ops than the base
//!   set (on every metric of the workload: a failed op is left out of
//!   the op times, so more failures can read as faster ops);
//! * `unresolved`: either set's quartile distance is wider than the
//!   tolerance, unless every new run beats every base run; or a wall-time
//!   gain while the two sets' median host-speed probe readings differ by
//!   more than the metric's spread (scaled times read a few percent low
//!   in a busy stretch, so a gain then may be the host's);
//! * `improved`: the new median is better by more than both quartile
//!   distances and the floor, and the new run beats the base run on at
//!   least nine in ten seeds run in both (every new run beats every base
//!   run, when no seed is);
//! * `unchanged`: otherwise.
//!
//! Exact metrics carry a bound of 1e-9 and are the same for every seed,
//! so any difference between the sets is a change. The tool also counts,
//! per workload, the seeds run in both sets whose output digests agree.
//! Exits 1 when any pairing is worse.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use peercache_benchmark::metrics::{percentile, quartiles};
use peercache_obs::Json;

/// The wall-time metrics, with their floors in the metric's unit: a
/// change to a set-up or an op smaller than the floor is not judged.
const WALL: [(&str, f64); 4] = [
    ("setup_s", 0.05),
    ("op_ms_p50", 1.0),
    ("op_ms_p90", 1.0),
    ("ops_per_s", 0.0),
];

/// One end-to-end metric of the spec.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
    /// The least change that counts, in the metric's unit.
    floor: f64,
    /// A wall-time metric, which host speed moves.
    wall: bool,
}

/// One untraced run.
struct Record {
    workload: String,
    seed: u64,
    digest: String,
    failed: u64,
    probe_ms: f64,
    metrics: BTreeMap<String, f64>,
}

/// One set's runs of one workload × metric pairing.
struct Side {
    /// Each run's value, by seed.
    values: BTreeMap<u64, f64>,
    /// Failed ops over the set's runs of the workload.
    failed: u64,
    /// Median host-speed probe reading of those runs, milliseconds.
    probe_ms: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_spec(path: &Path) -> Result<Vec<Bound>, String> {
    let spec = read_json(path)?;
    let entries = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end list")?;
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k}"));
            let name: String = field("name")?
                .as_str()
                .ok_or("name is not a string")?
                .into();
            let wall = WALL.iter().find(|(n, _)| *n == name);
            Ok(Bound {
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
                floor: wall.map_or(0.0, |&(_, f)| f),
                wall: wall.is_some(),
                name,
            })
        })
        .collect()
}

/// The record in `doc`; `None` for a traced run. A run whose output
/// checks failed is an error.
fn parse_record(doc: &Json) -> Result<Option<Record>, String> {
    if doc.get("traced").and_then(Json::as_bool) != Some(false) {
        return Ok(None);
    }
    let bad = || "not a benchmark record".to_string();
    let result = doc.get("result").ok_or_else(bad)?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("the run's output checks failed".into());
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(bad)?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Some(Record {
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(bad)?
            .into(),
        seed: doc.get("seed").and_then(Json::as_u64).ok_or_else(bad)?,
        digest: doc
            .get("digest")
            .and_then(Json::as_str)
            .ok_or_else(bad)?
            .into(),
        failed: result
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or_else(bad)?,
        probe_ms: doc
            .get("host")
            .and_then(|h| h.get("probe_ms"))
            .and_then(Json::as_f64)
            .ok_or_else(bad)?,
        metrics,
    }))
}

fn load_set(dir: &Path) -> Result<Vec<Record>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut records = Vec::new();
    for path in paths {
        let record = parse_record(&read_json(&path)?);
        records.extend(record.map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(records)
}

/// Median and quartiles of a set's values, by seed; a single run stands
/// for all three.
fn summary(set: &BTreeMap<u64, f64>) -> [f64; 3] {
    let values: Vec<f64> = set.values().copied().collect();
    quartiles(&values).unwrap_or([values[0]; 3])
}

/// Quartile distance over median.
fn spread(q: [f64; 3]) -> f64 {
    (q[2] - q[0]) / q[1].abs()
}

/// The verdict for one workload × metric pairing.
fn verdict(base: &Side, new: &Side, b: &Bound) -> &'static str {
    if new.failed > base.failed {
        return "worse";
    }
    let (qb, qn) = (summary(&base.values), summary(&new.values));
    let sign = if b.lower_is_better { 1.0 } else { -1.0 };
    let beats = |n: f64, o: f64| sign * (n - o) < 0.0;
    let tolerance = (b.bound * qb[1].abs()).max(b.floor);
    // Positive: the new median is worse, in the metric's unit.
    let worse_by = sign * (qn[1] - qb[1]);
    let widest = (qb[2] - qb[0]).max(qn[2] - qn[0]);
    let beats_all = new
        .values
        .values()
        .all(|&n| base.values.values().all(|&o| beats(n, o)));
    let pairs: Vec<(f64, f64)> = base
        .values
        .iter()
        .filter_map(|(seed, &o)| new.values.get(seed).map(|&n| (n, o)))
        .collect();
    let wins = pairs.iter().filter(|&&(n, o)| beats(n, o)).count();
    let wins_most = if pairs.is_empty() {
        beats_all
    } else {
        wins * 10 >= pairs.len() * 9
    };
    let gained = if widest > tolerance {
        beats_all
    } else if worse_by > tolerance {
        return "worse";
    } else {
        -worse_by > widest.max(b.floor) && wins_most
    };
    let probe_shift = (new.probe_ms - base.probe_ms).abs() / base.probe_ms;
    if gained && b.wall && probe_shift > spread(qb).max(spread(qn)) {
        "unresolved"
    } else if gained {
        "improved"
    } else if widest > tolerance {
        "unresolved"
    } else {
        "unchanged"
    }
}

/// A bound as printed: a share in percent, or the relative tolerance of
/// an exact metric.
fn show_bound(bound: f64) -> String {
    if bound >= 1e-3 {
        format!("{:.0}%", bound * 100.0)
    } else {
        format!("{bound:e}")
    }
}

fn run(spec: &Path, base_dir: &Path, new_dir: &Path) -> Result<bool, String> {
    let bounds = load_spec(spec)?;
    let (base, new) = (load_set(base_dir)?, load_set(new_dir)?);
    let mut workloads: Vec<&str> = base
        .iter()
        .chain(&new)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut any_worse = false;
    println!(
        "{:<13} {:<12} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "bound"
    );
    for w in workloads {
        let rb: Vec<&Record> = base.iter().filter(|r| r.workload == w).collect();
        let rn: Vec<&Record> = new.iter().filter(|r| r.workload == w).collect();
        let failed = |runs: &[&Record]| runs.iter().map(|r| r.failed).sum::<u64>();
        let probe_ms = |runs: &[&Record]| {
            percentile(&runs.iter().map(|r| r.probe_ms).collect::<Vec<_>>(), 50.0)
        };
        let side = |runs: &[&Record], name: &str| Side {
            values: runs
                .iter()
                .filter_map(|r| Some((r.seed, *r.metrics.get(name)?)))
                .collect(),
            failed: failed(runs),
            probe_ms: probe_ms(runs),
        };
        for b in &bounds {
            let (sb, sn) = (side(&rb, &b.name), side(&rn, &b.name));
            if sb.values.is_empty() || sn.values.is_empty() {
                println!("{w:<13} {:<12} missing from one set", b.name);
                continue;
            }
            let (qb, qn) = (summary(&sb.values), summary(&sn.values));
            let v = verdict(&sb, &sn, b);
            any_worse |= v == "worse";
            let fmt = |q: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
            println!(
                "{w:<13} {:<12} {:>36} {:>36} {:>+7.2}% {:>6}  {v}",
                b.name,
                fmt(qb),
                fmt(qn),
                (qn[1] - qb[1]) / qb[1].abs() * 100.0,
                show_bound(b.bound),
            );
        }
        let digests = |runs: &[&Record]| -> BTreeMap<u64, String> {
            runs.iter().map(|r| (r.seed, r.digest.clone())).collect()
        };
        let (db, dn) = (digests(&rb), digests(&rn));
        let shared: Vec<u64> = db.keys().filter(|s| dn.contains_key(s)).copied().collect();
        let same = shared.iter().filter(|s| db[s] == dn[s]).count();
        println!(
            "{w:<13} digests: {same} of {} shared seeds agree; failed ops {} -> {}; \
             median probe {:.3} -> {:.3} ms",
            shared.len(),
            failed(&rb),
            failed(&rn),
            probe_ms(&rb),
            probe_ms(&rn),
        );
    }
    Ok(any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base, new] = args.as_slice() else {
        eprintln!("usage: compare BASE_DIR NEW_DIR");
        return ExitCode::from(2);
    };
    match run(Path::new("BENCHMARK.json"), Path::new(base), Path::new(new)) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_bound(bound: f64) -> Bound {
        Bound {
            name: "op_ms_p50".into(),
            lower_is_better: true,
            bound,
            floor: 1.0,
            wall: true,
        }
    }

    fn side(values: &[f64]) -> Side {
        Side {
            values: values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u64, v))
                .collect(),
            failed: 0,
            probe_ms: 2.5,
        }
    }

    const BASE: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn scaled(k: f64) -> Side {
        side(&BASE.map(|v| v * k))
    }

    #[test]
    fn verdicts() {
        let base = side(&BASE);
        assert_eq!(verdict(&base, &base, &op_bound(0.1)), "unchanged");
        assert_eq!(verdict(&base, &scaled(1.2), &op_bound(0.1)), "worse");
        assert_eq!(verdict(&base, &scaled(0.9), &op_bound(0.1)), "improved");
        let noisy = side(&[50.0, 100.0, 150.0, 200.0, 80.0]);
        assert_eq!(verdict(&base, &noisy, &op_bound(0.1)), "unresolved");
        let higher = Bound {
            lower_is_better: false,
            ..op_bound(0.1)
        };
        assert_eq!(verdict(&base, &scaled(1.2), &higher), "improved");
        // A lower median that loses on two seeds in five is no gain.
        let mixed = side(&[95.0, 95.0, 99.1, 95.0, 99.6]);
        assert_eq!(verdict(&base, &mixed, &op_bound(0.1)), "unchanged");
    }

    #[test]
    fn small_changes_below_the_floor_are_not_judged() {
        let setup = Bound {
            name: "setup_s".into(),
            floor: 0.05,
            ..op_bound(0.1)
        };
        let tiny = side(&[0.001, 0.0011, 0.0009, 0.00105, 0.00095]);
        let doubled = side(&[0.002, 0.0022, 0.0018, 0.0021, 0.0019]);
        assert_eq!(verdict(&tiny, &doubled, &setup), "unchanged");
        assert_eq!(verdict(&doubled, &tiny, &setup), "unchanged");
    }

    #[test]
    fn more_failed_ops_are_worse_and_block_a_gain() {
        let base = side(&BASE);
        let failing = Side {
            failed: 1,
            ..scaled(0.8)
        };
        assert_eq!(verdict(&base, &failing, &op_bound(0.1)), "worse");
        let fewer = Side {
            failed: 0,
            ..scaled(1.0)
        };
        let was_failing = Side {
            failed: 3,
            ..side(&BASE)
        };
        assert_eq!(verdict(&was_failing, &fewer, &op_bound(0.1)), "unchanged");
    }

    #[test]
    fn a_gain_while_the_probe_moved_is_unresolved() {
        let base = side(&BASE);
        let busier = Side {
            probe_ms: 3.0,
            ..scaled(0.9)
        };
        assert_eq!(verdict(&base, &busier, &op_bound(0.1)), "unresolved");
        // A probe shift within the spread does not block the gain.
        let steady = Side {
            probe_ms: 2.51,
            ..scaled(0.9)
        };
        assert_eq!(verdict(&base, &steady, &op_bound(0.1)), "improved");
        // Nor does it block a gain in a metric host speed cannot move.
        let exact = Bound {
            name: "cost_total".into(),
            bound: 1e-9,
            floor: 0.0,
            wall: false,
            ..op_bound(0.1)
        };
        assert_eq!(verdict(&base, &busier, &exact), "improved");
    }

    #[test]
    fn any_difference_in_an_exact_metric_is_a_change() {
        let exact = Bound {
            name: "cost_total".into(),
            bound: 1e-9,
            floor: 0.0,
            wall: false,
            ..op_bound(0.1)
        };
        let same = side(&[5000.0; 5]);
        assert_eq!(verdict(&same, &side(&[5000.0; 5]), &exact), "unchanged");
        assert_eq!(verdict(&same, &side(&[5000.001; 5]), &exact), "worse");
        assert_eq!(verdict(&same, &side(&[4999.999; 5]), &exact), "improved");
    }

    #[test]
    fn records_whose_checks_failed_are_refused() {
        let record = |correct: bool| {
            Json::parse(&format!(
                "{{\"workload\": \"plan-rgg300\", \"seed\": 1, \"traced\": false, \
                 \"host\": {{\"probe_ms\": 2.5}}, \"digest\": \"0x01\", \"result\": \
                 {{\"correct\": {correct}, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                 {{\"op_ms_p50\": {{\"value\": 1.5, \"unit\": \"ms\"}}}}}}}}"
            ))
            .unwrap()
        };
        let ok = parse_record(&record(true)).unwrap().unwrap();
        assert_eq!(ok.metrics["op_ms_p50"], 1.5);
        assert!(parse_record(&record(false)).is_err());
    }
}
