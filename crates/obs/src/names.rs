//! The central registry of observability names (lint rule O1).
//!
//! Every span, event, counter, gauge, histogram and time-series name
//! used anywhere in the workspace must appear in [`REGISTERED_NAMES`].
//! `peercache-lint` parses the string literals of this file and flags
//! any `obs::span!`/`obs::counter(...)`-style call site whose name is
//! not a `'static` literal found here — so a typo'd or drifting metric
//! name fails the lint gate instead of silently forking a new series.
//!
//! Keep the list sorted (a unit test enforces it); `is_registered` is a
//! binary search over it.

/// Every observability name in use across the workspace, sorted.
pub const REGISTERED_NAMES: &[&str] = &[
    "apsp.compute",
    "apsp.update",
    "apsp.update_topology",
    "bench.run",
    "bench.walltime_by_size",
    "core.dual_ascent",
    "dist.degraded_clients",
    "dist.deposition",
    "dist.election",
    "dist.election_timeout",
    "dist.engine.payload_miss",
    "dist.latency.badmin",
    "dist.latency.cc",
    "dist.latency.freeze",
    "dist.latency.nadmin",
    "dist.latency.npi",
    "dist.latency.ping",
    "dist.latency.pong",
    "dist.latency.span",
    "dist.latency.tight",
    "dist.msg.badmin",
    "dist.msg.cc",
    "dist.msg.dropped",
    "dist.msg.freeze",
    "dist.msg.nadmin",
    "dist.msg.npi",
    "dist.msg.ping",
    "dist.msg.pong",
    "dist.msg.span",
    "dist.msg.tight",
    "dist.plan",
    "dist.replica.anti_entropy",
    "dist.replica.read_repair",
    "dist.retry",
    "dist.round",
    "dist.sim.converged",
    "dist.swim.confirm",
    "dist.swim.ping",
    "dist.swim.refute",
    "dist.swim.suspect",
    "dist.timeout",
    "online.insert",
    "online.retire",
    "planner.chunk",
    "planner.contention_bytes",
    "planner.region_count",
    "planner.scale",
    "repair.recovery_bytes",
    "repro.figure",
    "repro.perf",
    "repro.trace",
    "shard.queue_depth",
    "sim.in_flight",
    "sim.queue_depth",
    "sim.unsettled_clients",
    "world.components",
    "world.cross_shard_events",
    "world.deferred_demand",
    "world.demand_deferred",
    "world.demand_live",
    "world.join",
    "world.link_down",
    "world.link_up",
    "world.partition_formed",
    "world.partition_healed",
    "world.repair",
    "world.repair_vs_replan",
    "world.replicas",
    "world.shard_count",
    "world.tick",
];

/// Whether `name` appears in the registry.
#[must_use]
pub fn is_registered(name: &str) -> bool {
    REGISTERED_NAMES.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTERED_NAMES.windows(2) {
            assert!(
                pair[0] < pair[1],
                "registry must be sorted and unique: {:?} !< {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn lookup_hits_and_misses() {
        assert!(is_registered("dist.round"));
        assert!(is_registered("world.repair_vs_replan"));
        assert!(!is_registered("dist.rouund"));
        assert!(!is_registered(""));
    }
}
