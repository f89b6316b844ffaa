//! The ISSUE acceptance suite for R-copy replication: a seeded trace
//! with >500 injected faults (message drops, a partition window,
//! simultaneous deaths, a crash-and-restart) over a 9×9 grid world
//! planning at replication degree R = 3, with SWIM membership driving
//! the departures and a versioned replica layer tracking chunk
//! contents. The oracles:
//!
//! 1. **Durability** — no acknowledged write is ever lost while each
//!    death batch kills at most R − 1 = 2 nodes concurrently.
//! 2. **Convergence** — once the partition heals and writes quiesce,
//!    every chunk's live replicas agree on one version.
//! 3. **Recovery bound** — a crashed-and-restarted node refills
//!    exactly the chunks it hosts (recovery traffic is O(chunks
//!    hosted), not O(total chunks)).
//! 4. **Determinism** — the whole trace replays byte-identically
//!    (world state digest, replica digest, membership history, tick
//!    reports) under Sequential, Threads(2), and Auto parallelism.

use std::cell::Cell;
use std::collections::BTreeSet;

use peercache::approx::ApproxConfig;
use peercache::dist::engine::Tick;
use peercache::dist::membership::{Swim, SwimConfig};
use peercache::dist::replica::ReplicaSim;
use peercache::graph::paths::Parallelism;
use peercache::prelude::*;

const SIDE: usize = 9;
const NODES: usize = SIDE * SIDE;
const TICKS: u64 = 175;
const R: usize = 3;

/// Partition window over the far-corner 3×3 block (never the producer).
/// Shorter than the suspect timeout, so the cut must NOT produce any
/// false-positive confirmation: island suspicions are refuted on heal.
const PART_FROM: Tick = 65;
const PART_UNTIL: Tick = 85;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn in_island(node: NodeId) -> bool {
    let (r, c) = (node.index() / SIDE, node.index() % SIDE);
    r >= 6 && c >= 6
}

/// Deterministic ~2% message loss keyed on `(tick, from, to)`.
fn dropped(t: Tick, from: NodeId, to: NodeId) -> bool {
    let mut x = t
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((from.index() as u64) << 32)
        .wrapping_add(to.index() as u64)
        .wrapping_add(0xC4A0_5EED);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x.is_multiple_of(50)
}

/// Everything comparable about one full trace.
#[derive(Debug, PartialEq)]
struct TraceOutcome {
    world_digest: u64,
    replica_digest: u64,
    swim_digest: u64,
    reports: Vec<TickReport>,
    faults: u64,
    confirmed_deaths: Vec<NodeId>,
}

/// Runs the full chaos trace under one parallelism setting, asserting
/// the durability / convergence / recovery oracles along the way.
fn run_trace(par: Parallelism) -> TraceOutcome {
    let net = Network::new(builders::grid(SIDE, SIDE), n(0), 8).expect("grid builds");
    let cfg = ShardConfig {
        approx: ApproxConfig {
            parallelism: par,
            replication: ReplicationPolicy::with_degree(R),
            ..ApproxConfig::default()
        },
        scoped: ScopedConfig::default(),
    };
    let mut world = ShardedWorld::new(net, cfg).expect("sharded world builds");
    let mut replica = ReplicaSim::new(NODES);
    let mut swim = Swim::new(
        (1..NODES).map(n),
        SwimConfig {
            ping_period: 4,
            // Comfortably longer than the 20-tick partition window:
            // a suspicion raised against an island node just before or
            // during the cut still has several probe periods after the
            // heal to be refuted, so the partition must never produce
            // a false-positive confirmation.
            suspect_timeout: 40,
            ping_req_fanout: 2,
            seed: 0x5717,
        },
    );

    // Shared fault state: the transport closure reads it, the script
    // below mutates it. `Cell`/`BTreeSet`-by-reference keeps the
    // closure `Fn` for the replica layer.
    let faults = Cell::new(0u64);
    let mut dead: BTreeSet<NodeId> = BTreeSet::new();
    let produced = |dead: &BTreeSet<NodeId>, t: Tick, from: NodeId, to: NodeId| -> bool {
        if dead.contains(&from) || dead.contains(&to) {
            return false;
        }
        if (PART_FROM..PART_UNTIL).contains(&t) && in_island(from) != in_island(to) {
            faults.set(faults.get() + 1);
            return false;
        }
        if dropped(t, from, to) {
            faults.set(faults.get() + 1);
            return false;
        }
        true
    };

    let mut reports = Vec::new();
    let mut confirmed_deaths = Vec::new();
    let mut crashed: Option<NodeId> = None;

    for t in 0..TICKS {
        // --- scripted fault injection -------------------------------
        // Death batches of at most R - 1 = 2 concurrent victims, aimed
        // at live replica holders so the durability oracle is real.
        let batch_size = match t {
            30 => 1,
            60 => 2,
            100 => 2,
            _ => 0,
        };
        if batch_size > 0 {
            let victims = pick_holders(&world, &dead, batch_size);
            assert_eq!(victims.len(), batch_size, "trace must find victims");
            for &v in &victims {
                dead.insert(v);
                replica.kill(v);
                faults.set(faults.get() + 1);
            }
            assert!(
                replica.lost_acked_writes().is_empty(),
                "acked writes survive a {batch_size}-death batch at tick {t}"
            );
        }
        // Crash-and-restart: a holder loses its store at 140 and comes
        // back at 145, refilled from its nearest live replica — fast
        // enough that SWIM never confirms it dead.
        if t == 140 {
            let v = *pick_holders(&world, &dead, 1)
                .first()
                .expect("holder exists");
            dead.insert(v);
            replica.kill(v);
            faults.set(faults.get() + 1);
            crashed = Some(v);
        }
        if t == 145 {
            let v = crashed.expect("crash happened at 140");
            dead.remove(&v);
            let hosted = world
                .live_chunks()
                .iter()
                .filter(|&&c| replica.hosts(c).contains(&v))
                .count() as u64;
            let before = replica.recovery_bytes;
            let recovered = replica.revive(v, |a, b| produced(&dead, t, a, b), grid_distance);
            assert_eq!(
                replica.recovery_bytes - before,
                recovered,
                "recovery traffic is counted per chunk copied"
            );
            assert!(
                recovered <= hosted,
                "recovery refills at most the chunks the node hosts \
                 ({recovered} > {hosted})"
            );
            assert!(
                recovered as usize <= world.live_chunks().len(),
                "recovery is bounded by hosted chunks, not total chunks"
            );
        }

        // --- SWIM failure detection --------------------------------
        swim.tick(t, &mut |tk, a, b| produced(&dead, tk, a, b));
        let confirmed = swim.take_confirmed();

        // --- world: departures + arrivals --------------------------
        let mut events: Vec<WorldEvent> = confirmed
            .iter()
            .map(|&d| {
                confirmed_deaths.push(d);
                WorldEvent::NodeDeparted(d)
            })
            .collect();
        if t % 6 == 0 && t <= 150 {
            events.push(WorldEvent::ChunkArrived);
        }
        if !events.is_empty() {
            let report = world.tick(&events).expect("tick applies");
            world.validate().expect("world stays consistent");
            reports.push(report);
        }

        // --- replica layer: writes, sync, reads --------------------
        let live = world.live_chunks();
        // Re-replicate any chunk whose world holder set moved (repair
        // placed fresh copies after a death) and ack new arrivals.
        for &c in &live {
            let holders = world
                .chunk(c)
                .map(|sc| sc.caches.clone())
                .unwrap_or_default();
            if !holders.is_empty() && replica.hosts(c) != holders.as_slice() {
                replica.write(c, world.network().producer(), &holders, |a, b| {
                    produced(&dead, t, a, b)
                });
            }
        }
        // Version churn on the oldest chunk until writes quiesce.
        if t % 4 == 0 && t <= 160 {
            if let Some(&c) = live.first() {
                let holders = world
                    .chunk(c)
                    .map(|sc| sc.caches.clone())
                    .unwrap_or_default();
                if !holders.is_empty() {
                    replica.write(c, world.network().producer(), &holders, |a, b| {
                        produced(&dead, t, a, b)
                    });
                }
            }
        }
        replica.anti_entropy_round(|a, b| produced(&dead, t, a, b));
        if t % 7 == 0 {
            if let Some(&c) = live.last() {
                replica.read(c, world.network().producer(), |a, b| {
                    produced(&dead, t, a, b)
                });
            }
        }

        // --- standing oracles --------------------------------------
        assert!(
            replica.lost_acked_writes().is_empty(),
            "durability oracle violated at tick {t}"
        );
    }

    // No live node was ever confirmed dead: every confirmation matches
    // a scripted death (partition + drops only cause refuted suspicions).
    for &d in &confirmed_deaths {
        assert!(
            dead.contains(&d),
            "false-positive confirmation of live node {d:?}"
        );
    }

    // Oracle 2: post-heal, post-quiescence single-version convergence.
    assert!(
        replica.converged(),
        "live replicas must converge to one version after the heal"
    );
    // The planner honored R = 3 for every live chunk.
    for c in world.live_chunks() {
        let copies = world.chunk(c).map_or(0, |sc| sc.caches.len());
        assert!(copies >= R, "chunk {c:?} ended with {copies} < {R} copies");
    }
    // The scripted deaths were all detected by SWIM (5 confirmed: the
    // crash-restart node must NOT be among them).
    assert_eq!(confirmed_deaths.len(), 5, "exactly the scripted deaths");
    if let Some(v) = crashed {
        assert!(
            !confirmed_deaths.contains(&v),
            "fast recovery beat the suspicion timeout"
        );
        assert!(swim.is_live(v));
    }

    TraceOutcome {
        world_digest: world.state_digest(),
        replica_digest: replica.digest(),
        swim_digest: swim.digest(),
        reports,
        faults: faults.get() + 6, // + the six scripted deaths/crashes
        confirmed_deaths,
    }
}

/// Manhattan distance on the grid — the "nearest live replica" metric.
fn grid_distance(a: NodeId, b: NodeId) -> u64 {
    let (ar, ac) = (a.index() / SIDE, a.index() % SIDE);
    let (br, bc) = (b.index() / SIDE, b.index() % SIDE);
    (ar.abs_diff(br) + ac.abs_diff(bc)) as u64
}

/// Picks `k` current replica holders (oldest chunks first, ascending
/// node id) that are alive, not the producer, and not already dead —
/// deterministic victims that actually carry copies.
fn pick_holders(world: &ShardedWorld, dead: &BTreeSet<NodeId>, k: usize) -> Vec<NodeId> {
    let producer = world.network().producer();
    let mut victims = Vec::with_capacity(k);
    for c in world.live_chunks() {
        if let Some(sc) = world.chunk(c) {
            for &h in &sc.caches {
                if h != producer && !dead.contains(&h) && !victims.contains(&h) {
                    victims.push(h);
                    if victims.len() == k {
                        return victims;
                    }
                }
            }
        }
    }
    victims
}

/// The full acceptance run: oracles hold and the trace is fault-dense.
#[test]
fn chaos_trace_holds_durability_convergence_and_recovery_oracles() {
    let outcome = run_trace(Parallelism::Sequential);
    assert!(
        outcome.faults > 500,
        "trace must inject >500 faults, got {}",
        outcome.faults
    );
    assert!(
        !outcome.reports.is_empty(),
        "world must have processed events"
    );
}

/// [`ShardedWorld::state_digest`] at the end of the trace. The R-copy
/// top-up reads the scoped store between `Network::cache` calls and the
/// next store update, so this pins those reads too.
const WORLD_DIGEST: u64 = 0xe4b2_3e31_cdbf_39fc;

/// Oracle 4: the byte-identical replay across thread settings — the
/// PR 8 shard determinism suite extended to the replication stack.
#[test]
fn replicated_chaos_trace_replays_identically_across_parallelism() {
    let baseline = run_trace(Parallelism::Sequential);
    assert_eq!(
        baseline.world_digest, WORLD_DIGEST,
        "world digest {:#018x} moved from the pinned trace",
        baseline.world_digest
    );
    for par in [Parallelism::Threads(2), Parallelism::Auto] {
        let run = run_trace(par);
        assert_eq!(
            run.world_digest, baseline.world_digest,
            "{par:?}: world digest diverged"
        );
        assert_eq!(
            run.replica_digest, baseline.replica_digest,
            "{par:?}: replica digest diverged"
        );
        assert_eq!(
            run.swim_digest, baseline.swim_digest,
            "{par:?}: membership history diverged"
        );
        assert_eq!(run.reports, baseline.reports, "{par:?}: reports diverged");
        assert_eq!(run.faults, baseline.faults, "{par:?}: fault count diverged");
        assert_eq!(run.confirmed_deaths, baseline.confirmed_deaths);
    }
}
