//! Demonstrates that the `strict-invariants` runtime oracles actually fire
//! on corrupted state — and stay silent on healthy state.
//!
//! These tests only exist under the feature; the plain test run skips the
//! whole file. `scripts/check.sh` runs the workspace suite once more with
//! `--features strict-invariants`, which both executes this file and arms
//! the oracles inside the determinism and churn suites.

#![cfg(feature = "strict-invariants")]

use std::panic::{catch_unwind, AssertUnwindSafe};

use peercache_core::approx::{dual_ascent, ApproxConfig};
use peercache_core::costs::ContentionMatrix;
use peercache_core::instance::ConflInstance;
use peercache_core::strict;
use peercache_core::workload::paper_grid;
use peercache_core::world::WorldEvent;
use peercache_core::{CacheWorld, ChunkId};
use peercache_graph::NodeId;

fn panic_message(result: std::thread::Result<()>) -> String {
    match result {
        Ok(()) => String::new(),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default(),
    }
}

#[test]
fn dual_oracle_accepts_the_fast_path_result() {
    let net = paper_grid(5).unwrap();
    let cfg = ApproxConfig::default();
    let inst =
        ConflInstance::build_for_chunk(&net, ChunkId::new(0), cfg.weights, cfg.selection).unwrap();
    // dual_ascent itself runs the oracle under this feature; calling the
    // checker directly too makes the contract explicit.
    let (facilities, _) = dual_ascent(&net, &inst, &cfg).unwrap();
    strict::check_dual_solution(&inst, &cfg, &facilities);
}

#[test]
fn dual_oracle_fires_on_a_corrupted_facility_set() {
    let net = paper_grid(5).unwrap();
    let cfg = ApproxConfig::default();
    let inst =
        ConflInstance::build_for_chunk(&net, ChunkId::new(0), cfg.weights, cfg.selection).unwrap();
    let (facilities, _) = dual_ascent(&net, &inst, &cfg).unwrap();
    // Corrupt the solution: claim an extra facility the duals never paid
    // for was opened.
    let extra = inst
        .candidates()
        .into_iter()
        .find(|i| !facilities.contains(i))
        .expect("grid has more candidates than opened facilities");
    let mut corrupted = facilities.clone();
    corrupted.push(extra);
    corrupted.sort_unstable();
    let result = catch_unwind(AssertUnwindSafe(|| {
        strict::check_dual_solution(&inst, &cfg, &corrupted);
    }));
    let msg = panic_message(result);
    assert!(
        msg.contains("strict-invariants"),
        "expected the dual oracle to fire, got: {msg:?}"
    );
}

#[test]
fn matrix_oracle_accepts_a_consistent_snapshot() {
    let net = paper_grid(4).unwrap();
    let cfg = ApproxConfig::default();
    let matrix = ContentionMatrix::compute_with(&net, cfg.selection, cfg.parallelism).unwrap();
    strict::check_matrix_consistency(&matrix, &net, cfg.parallelism);
}

#[test]
fn matrix_oracle_fires_on_a_stale_snapshot() {
    let mut net = paper_grid(4).unwrap();
    let cfg = ApproxConfig::default();
    let matrix = ContentionMatrix::compute_with(&net, cfg.selection, cfg.parallelism).unwrap();
    // Corrupt the carried state: mutate the caching load behind the
    // snapshot's back (a cached chunk raises the holder's contention
    // term), as a buggy incremental update would.
    net.cache(NodeId::new(1), ChunkId::new(0)).unwrap();
    let result = catch_unwind(AssertUnwindSafe(|| {
        strict::check_matrix_consistency(&matrix, &net, cfg.parallelism);
    }));
    let msg = panic_message(result);
    assert!(
        msg.contains("diverged"),
        "expected the matrix oracle to fire on the stale term, got: {msg:?}"
    );
}

#[test]
fn tree_oracle_fires_on_a_disconnected_tree() {
    let mut world = CacheWorld::new(paper_grid(4).unwrap(), ApproxConfig::default());
    let placed = world.insert_chunk().unwrap();
    if placed.caches.is_empty() {
        panic!("test needs a placement with caching nodes");
    }
    let mut corrupted = placed.clone();
    corrupted.tree_edges.clear();
    let result = catch_unwind(AssertUnwindSafe(|| {
        strict::check_tree_connectivity(world.network(), &corrupted);
    }));
    let msg = panic_message(result);
    assert!(
        msg.contains("not connected"),
        "expected the connectivity oracle to fire, got: {msg:?}"
    );
}

#[test]
fn world_events_pass_the_oracles_end_to_end() {
    // A miniature churn run with every oracle armed: arrivals, a
    // departure, a link drop, and a retirement all must keep the carried
    // matrix bitwise-consistent and the trees connected.
    let mut world = CacheWorld::new(paper_grid(4).unwrap(), ApproxConfig::default());
    world.apply(WorldEvent::ChunkArrived).unwrap();
    world.apply(WorldEvent::ChunkArrived).unwrap();
    let holder = world.placement(world.live_chunks()[0]).unwrap().caches[0];
    world.apply(WorldEvent::NodeDeparted(holder)).unwrap();
    world.apply(WorldEvent::ChunkArrived).unwrap();
    let first = world.live_chunks()[0];
    world.apply(WorldEvent::ChunkRetired(first)).unwrap();
    world.validate().unwrap();
}
