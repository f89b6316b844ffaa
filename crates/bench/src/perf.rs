//! `repro perf [--check]` — the perf-regression gate.
//!
//! [`BASELINES`] is the one list of committed baselines and of how each
//! is measured: a file at the repository root paired with its cell
//! module's `baseline()`. The gate re-measures every entry and diffs
//! fresh against committed field by field; the `baselines` bench
//! target (`cargo bench -p peercache-bench --bench baselines [-- STEM...]`)
//! rewrites the files from the same functions, and `repro <stem>`
//! renders a fresh document as tables.
//!
//! * **wall-time fields** (`*_ms`, `*_wall*`, `*speedup*`) get a
//!   generous ratio band — they vary with the machine; the gate only
//!   catches order-of-magnitude regressions. The band is
//!   [`WALL_BAND`]× in either direction. `budget_ms` is the one `*_ms`
//!   key that is exact: it is a fixed acceptance budget, not a
//!   measurement.
//! * **every other number** is exact — convergence ticks, retry and
//!   fault counts, cost ratios, and structural fields are all
//!   deterministic, so *any* drift is a behavior change, not noise.
//!
//! With `--check` the gate exits nonzero when any field falls outside
//! its band; without it the comparison is printed and always succeeds.

use std::path::{Path, PathBuf};

use peercache_obs::Json;

use crate::{
    chaos_cells, churn_cells, planning_cells, replication_cells, scale_cells, shard_cells,
};

/// Multiplicative band for wall-time fields: fresh must lie in
/// `[committed / band, committed * band]`.
pub const WALL_BAND: f64 = 8.0;

/// Whether a JSON key holds a wall-clock-dependent measurement.
/// `budget_ms` does not: it is the fixed budget a measured `plan_ms`
/// must stay under, so a changed budget is a changed gate.
pub fn is_wall_field(key: &str) -> bool {
    key != "budget_ms" && (key.ends_with("_ms") || key.contains("wall") || key.contains("speedup"))
}

/// One field-level discrepancy found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Discrepancy {
    /// Dotted path of the offending field (e.g. `rows[4].retries`).
    pub path: String,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

/// Recursively diffs `fresh` against `baseline`.
///
/// Object key sets must match exactly (a vanished or new field is a
/// schema change the baseline must be regenerated for); arrays compare
/// element-wise; numbers under a wall-time key use the ratio band,
/// every other leaf compares exactly.
pub fn compare(baseline: &Json, fresh: &Json, band: f64) -> Vec<Discrepancy> {
    let mut out = Vec::new();
    diff("", baseline, fresh, band, false, &mut out);
    out
}

fn push(out: &mut Vec<Discrepancy>, path: &str, detail: String) {
    out.push(Discrepancy {
        path: if path.is_empty() {
            "$".into()
        } else {
            path.into()
        },
        detail,
    });
}

fn diff(
    path: &str,
    baseline: &Json,
    fresh: &Json,
    band: f64,
    wall: bool,
    out: &mut Vec<Discrepancy>,
) {
    match (baseline, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            for (key, bv) in b {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                match f.iter().find(|(k, _)| k == key) {
                    Some((_, fv)) => diff(&sub, bv, fv, band, wall || is_wall_field(key), out),
                    None => push(out, &sub, "missing in fresh output".into()),
                }
            }
            for (key, _) in f {
                if !b.iter().any(|(k, _)| k == key) {
                    let sub = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    push(out, &sub, "not in committed baseline".into());
                }
            }
        }
        (Json::Arr(b), Json::Arr(f)) => {
            if b.len() != f.len() {
                push(
                    out,
                    path,
                    format!("length {} in baseline, {} fresh", b.len(), f.len()),
                );
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                diff(&format!("{path}[{i}]"), bv, fv, band, wall, out);
            }
        }
        (bn, fn_) if bn.as_f64().is_some() && fn_.as_f64().is_some() => {
            // Exact equality is integer-exact when both sides parsed as
            // integers (counts, ticks); float-exact otherwise.
            let exact_eq = match (bn, fn_) {
                (Json::Int(b), Json::Int(f)) => b == f,
                _ => bn.as_f64() == fn_.as_f64(),
            };
            let b = bn.as_f64().unwrap_or(f64::NAN);
            let f = fn_.as_f64().unwrap_or(f64::NAN);
            if wall {
                let lo = b / band;
                let hi = b * band;
                // A zero committed wall time accepts anything small.
                let ok = if b == 0.0 {
                    f.abs() <= band
                } else {
                    f >= lo.min(hi) && f <= lo.max(hi)
                };
                if !ok {
                    push(
                        out,
                        path,
                        format!(
                            "wall-time {f} outside [{:.3}, {:.3}] (committed {b})",
                            lo, hi
                        ),
                    );
                }
            } else if !exact_eq {
                push(out, path, format!("expected {b}, got {f} (exact field)"));
            }
        }
        _ => {
            if baseline != fresh {
                push(out, path, format!("expected {baseline:?}, got {fresh:?}"));
            }
        }
    }
}

/// One gated baseline: its committed file at the repository root, paired
/// with the cell function that re-measures it in the committed format.
pub type Baseline = (&'static str, fn() -> String);

/// The six gated baselines. Adding one is a `baseline()` function in
/// its cell module plus one line here.
pub static BASELINES: [Baseline; 6] = [
    ("BENCH_planning.json", planning_cells::baseline),
    ("BENCH_churn.json", churn_cells::baseline),
    ("BENCH_chaos.json", chaos_cells::baseline),
    ("BENCH_scale.json", scale_cells::baseline),
    ("BENCH_shard.json", shard_cells::baseline),
    ("BENCH_replication.json", replication_cells::baseline),
];

/// The name of a baseline file for the writer and `repro`: the file
/// name without the `BENCH_` prefix and `.json` suffix
/// (`BENCH_chaos.json` → `chaos`).
pub(crate) fn stem(file: &str) -> &str {
    file.trim_start_matches("BENCH_").trim_end_matches(".json")
}

/// The baselines named by `stems`, in the order given; every baseline
/// when `stems` is empty.
///
/// # Errors
///
/// Names the first stem that matches no baseline.
pub fn select(stems: &[String]) -> Result<Vec<&'static Baseline>, String> {
    if stems.is_empty() {
        return Ok(BASELINES.iter().collect());
    }
    stems
        .iter()
        .map(|name| {
            BASELINES.iter().find(|b| stem(b.0) == name).ok_or_else(|| {
                let known: Vec<&str> = BASELINES.iter().map(|b| stem(b.0)).collect();
                format!(
                    "unknown baseline {name:?} (expected one of {})",
                    known.join(", ")
                )
            })
        })
        .collect()
}

/// The repository root, where the committed baselines live.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs the gate against the committed files in `root`, banding wall
/// fields by [`WALL_BAND`]. Returns the discrepancies per baseline, or
/// an error string when a file is missing or unparsable.
pub fn run_gate(root: &Path) -> Result<Vec<(String, Vec<Discrepancy>)>, String> {
    let mut results = Vec::new();
    for (file, fresh) in &BASELINES {
        let path = root.join(file);
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let committed = Json::parse(&committed).map_err(|e| format!("{}: {e}", path.display()))?;
        let fresh = Json::parse(&fresh()).map_err(|e| format!("fresh {file} output: {e}"))?;
        results.push((file.to_string(), compare(&committed, &fresh, WALL_BAND)));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str =
        r#"{"bench":"x","rows":[{"ticks":153,"retries":1369,"wall_ms":10.0,"speedup":2.5}]}"#;

    fn parsed(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        assert!(compare(&parsed(BASE), &parsed(BASE), 4.0).is_empty());
    }

    #[test]
    fn wall_fields_tolerate_machine_noise_but_not_blowups() {
        let fresh = BASE.replace("10.0", "30.0"); // 3x: inside a 4x band
        assert!(compare(&parsed(BASE), &parsed(&fresh), 4.0).is_empty());
        let fresh = BASE.replace("10.0", "45.0"); // 4.5x: outside
        let diffs = compare(&parsed(BASE), &parsed(&fresh), 4.0);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "rows[0].wall_ms");
    }

    /// A perturbed count must trip the gate — counts are exact.
    #[test]
    fn perturbed_counts_fail_exactly() {
        let fresh = BASE.replace("1369", "1370");
        let diffs = compare(&parsed(BASE), &parsed(&fresh), 4.0);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "rows[0].retries");
        assert!(diffs[0].detail.contains("exact"));
    }

    #[test]
    fn speedup_fields_are_banded_not_exact() {
        let fresh = BASE.replace("2.5", "3.0");
        assert!(compare(&parsed(BASE), &parsed(&fresh), 4.0).is_empty());
    }

    #[test]
    fn schema_drift_is_reported_both_ways() {
        let fresh = BASE.replace("\"ticks\":153,", "");
        let diffs = compare(&parsed(BASE), &parsed(&fresh), 4.0);
        assert!(diffs.iter().any(|d| d.path == "rows[0].ticks"));
        let diffs = compare(&parsed(&fresh), &parsed(BASE), 4.0);
        assert!(diffs
            .iter()
            .any(|d| d.detail.contains("not in committed baseline")));
    }

    #[test]
    fn array_length_drift_is_one_finding() {
        let base = r#"{"rows":[1,2,3]}"#;
        let fresh = r#"{"rows":[1,2]}"#;
        let diffs = compare(&parsed(base), &parsed(fresh), 4.0);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].detail.contains("length"));
    }

    #[test]
    fn every_baseline_is_listed_once_and_committed() {
        for (i, (file, _)) in BASELINES.iter().enumerate() {
            assert!(
                BASELINES[..i].iter().all(|o| o.0 != *file),
                "{file} listed twice"
            );
            assert!(repo_root().join(file).is_file(), "{file} not committed");
        }
    }

    #[test]
    fn stems_select_baselines() {
        let all = select(&[]).unwrap();
        assert_eq!(all.len(), BASELINES.len());
        let picked = select(&["shard".into(), "chaos".into()]).unwrap();
        let files: Vec<&str> = picked.iter().map(|b| b.0).collect();
        assert_eq!(files, ["BENCH_shard.json", "BENCH_chaos.json"]);
        let err = select(&["chaos".into(), "bogus".into()]).expect_err("unknown stem rejected");
        assert!(
            err.contains("bogus") && err.contains("replication"),
            "{err}"
        );
    }

    #[test]
    fn wall_band_classification() {
        assert!(is_wall_field("repair_total_ms"));
        assert!(is_wall_field("replan_wall_us"));
        assert!(is_wall_field("repair_over_replan_speedup"));
        assert!(!is_wall_field("retries"));
        assert!(!is_wall_field("cost_ratio_mean"));
        assert!(!is_wall_field("budget_ms"));
    }

    /// A budget is an acceptance threshold, not a timing: halving it
    /// must trip the gate even though the ratio lies inside the band.
    #[test]
    fn a_changed_budget_is_a_discrepancy() {
        let base = r#"{"results":[{"plan_ms":305.2,"budget_ms":10000.0}]}"#;
        let fresh = r#"{"results":[{"plan_ms":305.2,"budget_ms":5000.0}]}"#;
        let diffs = compare(&parsed(base), &parsed(fresh), WALL_BAND);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].path, "results[0].budget_ms");
        assert!(diffs[0].detail.contains("exact"), "{}", diffs[0].detail);
    }
}
