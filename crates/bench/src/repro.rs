//! Entry point for the workspace `repro` binary: argument parsing and
//! dispatch to the figure modules, the baselines, and the run-summary
//! mode.

use std::process::ExitCode;
use std::time::Instant;

use peercache_core::workload::{paper_grid, paper_random};
use peercache_obs as obs;
use peercache_obs::Json;

use crate::figs;
use crate::harness::{planner_walltime_by_size, render_document, run_summary, Table};
use crate::{perf, trace_cmd};

/// Regenerates the tables of one `repro` id.
type Run = Box<dyn Fn() -> Vec<Table>>;

/// Every `repro` id in `repro all` order: the paper's figures, then one
/// stem per [`perf::BASELINES`] entry, whose fresh document is rendered
/// by [`render_document`].
fn registry() -> Vec<(&'static str, Run)> {
    let figures = figs::FIGURES
        .iter()
        .map(|&(id, run)| (id, Box::new(run) as Run));
    let baselines = perf::BASELINES.iter().map(|&(file, measure)| {
        let stem = perf::stem(file);
        let run = move || {
            let doc = Json::parse(&measure()).expect("a baseline renders valid JSON");
            render_document(stem, &doc)
        };
        (stem, Box::new(run) as Run)
    });
    figures.chain(baselines).collect()
}

/// Runs the no-argument mode: a compact summary of every planner on
/// every reference topology (wall time, cost breakdown, messages).
fn summary() -> ExitCode {
    let topologies = [
        ("grid4", paper_grid(4)),
        ("grid6", paper_grid(6)),
        ("random24", paper_random(24, 7)),
    ];
    let mut built = Vec::new();
    for (name, net) in topologies {
        match net {
            Ok(net) => built.push((name, net)),
            Err(e) => {
                eprintln!("cannot build topology {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    run_summary(&built, 3).emit();
    planner_walltime_by_size(&[4, 8, 12, 16, 20], 3).emit();
    obs::emit_metrics();
    ExitCode::SUCCESS
}

/// `repro trace <file.jsonl>`: span-forest analysis of a sink capture.
fn trace_mode(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: repro trace <file.jsonl>");
        return ExitCode::from(2);
    };
    let span = obs::span!("repro.trace", file = path.clone());
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match trace_cmd::analyze(&content) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            drop(span);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro perf [--check]`: re-measures the committed baselines and
/// diffs them field by field. With `--check`, any discrepancy turns
/// into a nonzero exit (the CI regression gate).
fn perf_mode(args: &[String]) -> ExitCode {
    let check = args.iter().any(|a| a == "--check");
    if let Some(bad) = args.iter().find(|a| *a != "--check") {
        eprintln!("unknown perf option: {bad} (only --check is accepted)");
        return ExitCode::from(2);
    }
    let band = perf::WALL_BAND;
    let span = obs::span!("repro.perf", check = check, band = band);
    let results = match perf::run_gate(&perf::repo_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut regressions = 0usize;
    for (file, diffs) in &results {
        if diffs.is_empty() {
            println!("{file}: OK (counts exact, wall times within {band}x)");
        } else {
            regressions += diffs.len();
            println!(
                "{file}: {} discrepanc{}",
                diffs.len(),
                if diffs.len() == 1 { "y" } else { "ies" }
            );
            for d in diffs {
                println!("  {}: {}", d.path, d.detail);
            }
        }
    }
    drop(span);
    if check && regressions > 0 {
        eprintln!("perf gate FAILED: {regressions} field(s) outside tolerance");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `repro` binary: `repro` (run summary), `repro all`,
/// `repro fig1 ... fig9`, `repro <stem>` for a baseline,
/// `repro trace <file.jsonl>`, or `repro perf [--check]`. Returns the
/// process exit code.
pub fn main_with_args(args: &[String]) -> ExitCode {
    let registry = registry();
    let ids: Vec<&str> = registry.iter().map(|r| r.0).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        eprintln!("usage: repro [all | {}]...", ids.join(" | "));
        eprintln!("       repro            (no args: run summary over every planner)");
        eprintln!("       repro trace <file.jsonl>   (span-forest analysis of a sink capture)");
        eprintln!("       repro perf [--check]       (diff fresh bench numbers vs BENCH_*.json)");
        return ExitCode::from(2);
    }
    if args.is_empty() {
        return summary();
    }
    match args.first().map(String::as_str) {
        Some("trace") => return trace_mode(args.get(1..).unwrap_or(&[])),
        Some("perf") => return perf_mode(args.get(1..).unwrap_or(&[])),
        _ => {}
    }
    let mut selected = Vec::new();
    if args.iter().any(|a| a == "all") {
        selected.extend(&registry);
    } else {
        for id in args {
            match registry.iter().find(|r| r.0 == id) {
                Some(r) => selected.push(r),
                None => {
                    eprintln!("unknown id: {id} (expected one of {})", ids.join(", "));
                    return ExitCode::from(2);
                }
            }
        }
    }
    for (id, run) in selected {
        let start = Instant::now();
        let span = obs::span!("repro.figure", id = id.to_string());
        for table in run() {
            table.emit();
        }
        drop(span);
        eprintln!("[{id} done in {:.1}s]\n", start.elapsed().as_secs_f64());
    }
    obs::emit_metrics();
    ExitCode::SUCCESS
}
