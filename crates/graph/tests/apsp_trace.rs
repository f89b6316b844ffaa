//! The `apsp.update` span reports its work as exact counts: the rows it
//! touched (`recomputed_sources`) and the nodes whose predecessor was
//! re-solved (`refreshed_nodes`).
//!
//! Runs in its own test binary (own process) with a single `#[test]`,
//! because the `PEERCACHE_TRACE` sink latches once per process.

use peercache_graph::builders;
use peercache_graph::paths::{AllPairsPaths, Parallelism};
use peercache_obs as obs;

#[test]
fn update_span_counts_touched_rows_and_refreshed_nodes() {
    let path =
        std::env::temp_dir().join(format!("peercache-apsp-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("PEERCACHE_TRACE", &path);
    assert!(obs::enabled(), "file sink should have latched");

    // On the path 0-1-2-3-4, raising node 2 touches the four rows it is
    // interior to and re-solves the two nodes beyond it in each.
    let g = builders::path(5);
    let mut costs = vec![1.0; 5];
    let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
    costs[2] = 3.0;
    assert_eq!(ap.update(&g, &costs, Parallelism::Sequential).unwrap(), 4);
    // A decrease re-runs in full every row the node can lie on a
    // hop-shortest path of: the four rows other than its own, 4 nodes
    // each.
    costs[2] = 0.5;
    assert_eq!(ap.update(&g, &costs, Parallelism::Sequential).unwrap(), 4);
    obs::flush();

    let content = std::fs::read_to_string(&path).expect("trace file exists");
    let _ = std::fs::remove_file(&path);
    let updates: Vec<&str> = content
        .lines()
        .filter(|l| l.contains("\"name\":\"apsp.update\""))
        .collect();
    assert_eq!(updates.len(), 2, "{content}");
    for (line, (rows, nodes)) in updates.iter().zip([(4, 8), (4, 16)]) {
        assert!(
            line.contains(&format!("\"recomputed_sources\":{rows}")),
            "{line}"
        );
        assert!(
            line.contains(&format!("\"refreshed_nodes\":{nodes}")),
            "{line}"
        );
    }
}
