//! `CacheWorld` refreshes its contention snapshot when it reads it, not
//! after every event: a link flap that no read sees in between costs no
//! refresh, and the next arrival absorbs it together with the previous
//! commit in one. Counted as `apsp.update` spans.
//!
//! Runs in its own test binary (own process) with a single `#[test]`,
//! because the `PEERCACHE_TRACE` sink latches once per process.

use std::path::Path;

use peercache_core::approx::ApproxConfig;
use peercache_core::workload::paper_grid;
use peercache_core::world::{CacheWorld, WorldEvent};
use peercache_graph::NodeId;
use peercache_obs as obs;

/// `apsp.update` spans written to the trace so far.
fn updates(path: &Path) -> usize {
    obs::flush();
    let content = std::fs::read_to_string(path).expect("trace file exists");
    content
        .lines()
        .filter(|l| l.contains("\"name\":\"apsp.update\""))
        .count()
}

#[test]
fn a_link_flap_between_reads_costs_no_refresh() {
    let path = std::env::temp_dir().join(format!(
        "peercache-world-refresh-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("PEERCACHE_TRACE", &path);
    assert!(obs::enabled(), "file sink should have latched");

    let mut world = CacheWorld::new(paper_grid(6).unwrap(), ApproxConfig::default());
    for _ in 0..2 {
        world.apply(WorldEvent::ChunkArrived).unwrap();
    }
    // A link that no live dissemination tree crosses: dropping it
    // rebuilds no tree, so nothing reads the snapshot.
    let crosses = |u: NodeId, v: NodeId| {
        world.live_chunks().iter().any(|&c| {
            let tree = &world.placement(c).unwrap().tree_edges;
            tree.contains(&(u, v)) || tree.contains(&(v, u))
        })
    };
    let (u, v) = world
        .network()
        .graph()
        .edges()
        .find(|&(u, v)| !crosses(u, v))
        .expect("some link carries no tree");

    let before = updates(&path);
    world.apply(WorldEvent::LinkDown(u, v)).unwrap();
    world.apply(WorldEvent::LinkUp(u, v)).unwrap();
    let after_flap = updates(&path);
    world.apply(WorldEvent::ChunkArrived).unwrap();
    let after_arrival = updates(&path);
    let _ = std::fs::remove_file(&path);
    world.validate().unwrap();

    assert_eq!(after_flap - before, 0, "the flap of {u}-{v} refreshed");
    assert_eq!(
        after_arrival - after_flap,
        1,
        "the arrival must refresh once, absorbing the flap and the last commit"
    );
}
