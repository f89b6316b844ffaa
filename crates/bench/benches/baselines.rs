//! Rewrites the committed `BENCH_*.json` baselines at the repository
//! root from [`peercache_bench::perf::BASELINES`] — the same functions
//! `repro perf --check` compares against.
//!
//! ```text
//! cargo bench -p peercache-bench --bench baselines              # all six
//! cargo bench -p peercache-bench --bench baselines -- chaos     # by stem
//! ```
//!
//! A stem is the file name without `BENCH_` and `.json`: `planning`,
//! `churn`, `chaos`, `scale`, `shard`, or `replication`. Wall-time
//! fields are measured on the host that runs the writer; every other
//! field must come out identical, or the gate fails.

use std::process::ExitCode;

use peercache_bench::perf;

fn main() -> ExitCode {
    // `cargo bench` appends `--bench`; `cargo test --benches` does not,
    // and must leave the committed files alone.
    let mut stems: Vec<String> = std::env::args().skip(1).collect();
    let under_bench = stems.iter().any(|a| a == "--bench");
    stems.retain(|a| a != "--bench");
    let selected = match perf::select(&stems) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !under_bench {
        eprintln!("not run by `cargo bench`: no baseline written");
        return ExitCode::SUCCESS;
    }
    let root = perf::repo_root();
    for (file, fresh) in selected {
        let path = root.join(file);
        if let Err(e) = std::fs::write(&path, fresh()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
