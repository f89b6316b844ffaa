//! Benchmark harness regenerating every figure of the ICDCS'17
//! evaluation (§V).
//!
//! The workspace's `repro` binary (entry point in [`repro`]) drives one
//! module per figure, then renders the gated baselines of
//! [`perf::BASELINES`] by stem:
//!
//! ```text
//! cargo run --release --bin repro              # run summary
//! cargo run --release --bin repro -- all
//! cargo run --release --bin repro -- fig2 fig6
//! cargo run --release --bin repro -- churn
//! ```
//!
//! Each figure prints the paper's series as a table and writes CSV to
//! `target/repro/`. Absolute values differ from the paper (different
//! Steiner subroutine, calibrated baseline λ, Rust vs Python 2.7); the
//! *shapes* — orderings, ratios, crossovers — are the reproduction
//! target and are recorded against the paper in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_cells;
pub mod churn_cells;
pub mod figs;
pub mod harness;
pub mod perf;
pub mod planning_cells;
pub mod replication_cells;
pub mod repro;
pub mod scale_cells;
pub mod shard_cells;
pub mod trace_cmd;
