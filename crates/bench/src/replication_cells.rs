//! The replication-matrix cells behind the committed
//! `BENCH_replication.json` (which `repro replication` renders).
//!
//! Each cell runs one seeded chaos trace — the same shape as the
//! `tests/replication_chaos.rs` acceptance suite, shrunk to a 6×6 grid —
//! at one `(replication degree R, fault intensity)` point and measures
//! what the robustness stack actually delivers:
//!
//! * **durability** — the fraction of acknowledged writes that survive
//!   two 2-node death batches (at R = 3 a 2-death batch can never erase
//!   an acked write; at R = 1 every batch costs chunks);
//! * **detection** — SWIM confirmations and the worst death→confirm lag;
//! * **repair traffic** — anti-entropy repairs plus the crash-restart
//!   recovery bound (chunks refilled ≤ chunks hosted);
//! * **replica-load fairness** — the Gini coefficient of per-node copy
//!   counts in the final placement.
//!
//! Everything except `wall_ms` is deterministic: the transport drops
//! messages by a pure hash of `(tick, from, to)`, SWIM draws from its
//! own seeded stream, and the world replays byte-identically (the
//! acceptance suite asserts this across thread counts). The committed
//! numbers live in `BENCH_replication.json`.

use std::collections::BTreeMap;
use std::time::Instant;

use peercache_core::approx::ApproxConfig;
use peercache_core::metrics;
use peercache_core::replication::ReplicationPolicy;
use peercache_core::scoped::ScopedConfig;
use peercache_core::sharded::{ShardConfig, ShardedWorld};
use peercache_core::world::WorldEvent;
use peercache_core::Network;
use peercache_dist::engine::Tick;
use peercache_dist::membership::{Swim, SwimConfig};
use peercache_dist::replica::ReplicaSim;
use peercache_graph::{builders, NodeId};

/// Grid side of every cell (36 nodes, producer at node 0).
pub const SIDE: usize = 6;

/// Per-node storage capacity — roomy enough that the repair planner can
/// always restore the replication floor after the death batches.
pub const NODE_CAP: usize = 6;

/// Trace length in ticks: long enough for the second death batch to be
/// suspected, confirmed, repaired, re-replicated, and re-converged.
pub const TICKS: Tick = 160;

/// ADMIN-rule span threshold (`M`) of every cell: demanding this many
/// relay-tight supporters per facility keeps the ascent's natural
/// opening count *below* the replication axis, so the R floor — not
/// demand — decides the copy count and the durability curve actually
/// varies with R.
pub const SPAN_THRESHOLD: usize = 16;

/// The replication-degree axis of the matrix.
pub const DEGREES: [usize; 3] = [1, 2, 3];

/// The fault-intensity axis: per-message drop probability of the
/// transport (deaths and the crash-restart are scripted in every cell).
pub const INTENSITIES: [f64; 3] = [0.0, 0.05, 0.15];

/// The SWIM detector parameters armed for every cell. The suspicion
/// timeout is long enough that intensity-driven drops are always
/// refuted before they can confirm a live node.
pub fn swim_config() -> SwimConfig {
    SwimConfig {
        ping_period: 4,
        suspect_timeout: 40,
        ping_req_fanout: 2,
        seed: 0x5717,
    }
}

/// One matrix row: what a single replicated chaos trace did.
pub struct Cell {
    /// Replication degree R of the cell.
    pub degree: usize,
    /// Transport drop probability of the cell.
    pub intensity: f64,
    /// Chunks alive at the end of the trace.
    pub chunks: usize,
    /// Replicated writes attempted (re-replication + version churn).
    pub write_attempts: u64,
    /// Writes acknowledged by every target (write-all ack).
    pub write_acks: u64,
    /// Acked ledger entries at risk across the death batches.
    pub at_risk: u64,
    /// Acked writes erased by a death batch (no surviving copy).
    pub lost_writes: u64,
    /// SWIM death confirmations (the scripted deaths; never the
    /// crash-restart node, never a false positive).
    pub confirmed: usize,
    /// Worst death→confirmation lag in ticks.
    pub detect_lag_max: u64,
    /// Anti-entropy repairs applied over the whole trace.
    pub repairs: u64,
    /// Chunks refilled by the crash-restart recovery.
    pub recovery_chunks: u64,
    /// Smallest holder-set size over live chunks at the end.
    pub min_copies: usize,
    /// Gini coefficient of per-node cached-copy counts at the end.
    pub replica_gini: f64,
    /// Faults injected: transport drops + scripted deaths.
    pub faults: u64,
    /// Wall time of the trace (machine-dependent; the gate bands it).
    pub wall_ms: f64,
}

impl Cell {
    /// Acked writes that survived, as a fraction of those at risk
    /// (`1.0` when no ledger entry was ever exposed to a batch).
    pub fn durability(&self) -> f64 {
        if self.at_risk == 0 {
            1.0
        } else {
            1.0 - self.lost_writes as f64 / self.at_risk as f64
        }
    }
}

/// Deterministic per-message drop: a pure hash of `(tick, from, to)`
/// against a permille threshold, so every replay sees identical loss.
fn dropped(t: Tick, from: NodeId, to: NodeId, permille: u64) -> bool {
    let mut x = t
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((from.index() as u64) << 32)
        .wrapping_add(to.index() as u64)
        .wrapping_add(0xC4A0_5EED);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x % 1000 < permille
}

/// Manhattan distance on the cell grid — the nearest-replica metric
/// for crash recovery.
fn grid_distance(a: NodeId, b: NodeId) -> u64 {
    let (ar, ac) = (a.index() / SIDE, a.index() % SIDE);
    let (br, bc) = (b.index() / SIDE, b.index() % SIDE);
    (ar.abs_diff(br) + ac.abs_diff(bc)) as u64
}

/// Picks `k` live replica holders (oldest chunks first, ascending node
/// id) excluding the producer and already-dead nodes. Candidates are
/// probe-departed on a network clone — together with every pending dead
/// node — so a victim whose eventual [`WorldEvent::NodeDeparted`] the
/// partition policy would refuse (it would disconnect the survivors) is
/// never chosen; a refused departure would strand the dead node in the
/// chunk's holder set and block re-replication forever.
fn pick_holders(world: &ShardedWorld, dead: &[NodeId], k: usize) -> Vec<NodeId> {
    let producer = world.network().producer();
    let mut probe = world.network().clone();
    for &d in dead {
        let _ = probe.deactivate_node(d);
    }
    let mut victims = Vec::with_capacity(k);
    for c in world.live_chunks() {
        if let Some(sc) = world.chunk(c) {
            for &h in &sc.caches {
                if h != producer
                    && !dead.contains(&h)
                    && !victims.contains(&h)
                    && probe.deactivate_node(h).is_ok()
                {
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

/// Runs one `(degree, intensity)` cell and panics on any structural
/// oracle violation (false-positive confirmation, recovery overrun,
/// failed convergence, invalid world).
pub fn run_cell(degree: usize, intensity: f64) -> Cell {
    let start = Instant::now();
    let permille = (intensity * 1000.0).round() as u64;
    let nodes = SIDE * SIDE;
    let net =
        Network::new(builders::grid(SIDE, SIDE), NodeId::new(0), NODE_CAP).expect("grid builds");
    let cfg = ShardConfig {
        approx: ApproxConfig {
            span_threshold: SPAN_THRESHOLD,
            replication: ReplicationPolicy::with_degree(degree),
            ..ApproxConfig::default()
        },
        scoped: ScopedConfig::default(),
    };
    let mut world = ShardedWorld::new(net, cfg).expect("sharded world builds");
    let mut replica = ReplicaSim::new(nodes);
    let mut swim = Swim::new((1..nodes).map(NodeId::new), swim_config());

    let mut dead: Vec<NodeId> = Vec::new();
    let mut death_tick: BTreeMap<NodeId, Tick> = BTreeMap::new();
    let mut faults = 0u64;
    let mut write_attempts = 0u64;
    let mut write_acks = 0u64;
    let mut at_risk = 0u64;
    let mut lost_writes = 0u64;
    let mut repairs = 0u64;
    let mut recovery_chunks = 0u64;
    let mut detect_lag_max = 0u64;
    let mut confirmed_total = 0usize;
    let mut crashed: Option<NodeId> = None;

    for t in 0..TICKS {
        // --- scripted faults: two 2-death batches + a crash-restart ---
        let batch = match t {
            30 | 90 => 2,
            _ => 0,
        };
        if batch > 0 {
            for v in pick_holders(&world, &dead, batch) {
                dead.push(v);
                death_tick.insert(v, t);
                replica.kill(v);
                faults += 1;
            }
            at_risk += replica.acked_versions().len() as u64;
            lost_writes += replica.lost_acked_writes().len() as u64;
        }
        if t == 100 {
            if let Some(&v) = pick_holders(&world, &dead, 1).first() {
                dead.push(v);
                death_tick.insert(v, t);
                replica.kill(v);
                faults += 1;
                crashed = Some(v);
            }
        }
        if t == 105 {
            if let Some(v) = crashed {
                dead.retain(|&d| d != v);
                death_tick.remove(&v);
                let hosted = world
                    .live_chunks()
                    .iter()
                    .filter(|&&c| replica.hosts(c).contains(&v))
                    .count() as u64;
                let recovered = replica.revive(
                    v,
                    |a, b| !dead.contains(&a) && !dead.contains(&b),
                    grid_distance,
                );
                assert!(
                    recovered <= hosted,
                    "R={degree} i={intensity}: recovery refills at most hosted chunks"
                );
                recovery_chunks = recovered;
            }
        }

        // The transport every layer shares this tick: dead nodes are
        // silent, everything else drops by the intensity hash.
        let reach = |from: NodeId, to: NodeId| -> bool {
            if dead.contains(&from) || dead.contains(&to) {
                return false;
            }
            !dropped(t, from, to, permille)
        };

        // --- SWIM detection driving world departures ---------------
        let mut drops_this_tick = 0u64;
        swim.tick(t, &mut |tk, a, b| {
            if dead.contains(&a) || dead.contains(&b) {
                return false;
            }
            if dropped(tk, a, b, permille) {
                drops_this_tick += 1;
                return false;
            }
            true
        });
        faults += drops_this_tick;
        let confirmed = swim.take_confirmed();
        for &d in &confirmed {
            let at = death_tick
                .get(&d)
                .copied()
                .unwrap_or_else(|| panic!("false-positive confirmation of {d:?}"));
            let lag = t.saturating_sub(at);
            if lag > detect_lag_max {
                detect_lag_max = lag;
            }
        }
        confirmed_total += confirmed.len();
        let mut events: Vec<WorldEvent> = confirmed
            .into_iter()
            .map(WorldEvent::NodeDeparted)
            .collect();
        if t % 8 == 0 && t <= 80 {
            events.push(WorldEvent::ChunkArrived);
        }
        if !events.is_empty() {
            let report = world.tick(&events).expect("tick applies");
            assert_eq!(
                report.rejected, 0,
                "R={degree} i={intensity} t={t}: no event may be refused"
            );
            world.validate().expect("world stays consistent");
        }

        // --- replica layer: re-replication, churn, sync, reads ------
        let live = world.live_chunks();
        let producer = world.network().producer();
        for &c in &live {
            let holders = world
                .chunk(c)
                .map(|sc| sc.caches.clone())
                .unwrap_or_default();
            if !holders.is_empty() && replica.hosts(c) != holders.as_slice() {
                write_attempts += 1;
                if replica.write(c, producer, &holders, reach).acked {
                    write_acks += 1;
                }
            }
        }
        if t % 4 == 0 && t <= 120 && !live.is_empty() {
            let c = live[(t as usize / 4) % live.len()];
            let holders = world
                .chunk(c)
                .map(|sc| sc.caches.clone())
                .unwrap_or_default();
            if !holders.is_empty() {
                write_attempts += 1;
                if replica.write(c, producer, &holders, reach).acked {
                    write_acks += 1;
                }
            }
        }
        repairs += replica.anti_entropy_round(reach) as u64;
        if t % 9 == 0 {
            if let Some(&c) = live.last() {
                replica.read(c, producer, reach);
            }
        }
    }

    // End-of-trace oracles: the detector found exactly the unrecovered
    // scripted deaths, and the live replicas converged post-quiescence.
    assert_eq!(
        confirmed_total,
        dead.len(),
        "R={degree} i={intensity}: every scripted death confirmed, no extras"
    );
    assert!(
        replica.converged(),
        "R={degree} i={intensity}: live replicas converge after quiescence"
    );

    // Final placement: copy floor and per-node replica-load fairness.
    let live = world.live_chunks();
    let mut min_copies = usize::MAX;
    let mut per_node: BTreeMap<NodeId, usize> = world
        .network()
        .active_nodes()
        .iter()
        .filter(|&&n| n != world.network().producer())
        .map(|&n| (n, 0))
        .collect();
    for &c in &live {
        if let Some(sc) = world.chunk(c) {
            min_copies = min_copies.min(sc.caches.len());
            for h in &sc.caches {
                if let Some(slot) = per_node.get_mut(h) {
                    *slot += 1;
                }
            }
        }
    }
    let loads: Vec<usize> = per_node.values().copied().collect();

    Cell {
        degree,
        intensity,
        chunks: live.len(),
        write_attempts,
        write_acks,
        at_risk,
        lost_writes,
        confirmed: confirmed_total,
        detect_lag_max,
        repairs,
        recovery_chunks,
        min_copies: if live.is_empty() { 0 } else { min_copies },
        replica_gini: metrics::gini(&loads),
        faults,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Runs the full matrix (all degrees, all intensities) in the committed
/// baseline's row order.
pub fn run_matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &degree in &DEGREES {
        for &intensity in &INTENSITIES {
            cells.push(run_cell(degree, intensity));
        }
    }
    cells
}

/// Re-measures `BENCH_replication.json` in its committed format.
pub fn baseline() -> String {
    render_json(&run_matrix())
}

/// Renders the cells in the exact committed `BENCH_replication.json`
/// format.
fn render_json(cells: &[Cell]) -> String {
    let swim = swim_config();
    let mut out = String::from("{\n  \"bench\": \"replication\",\n");
    out.push_str(&format!(
        "  \"grid_side\": {SIDE}, \"node_cap\": {NODE_CAP}, \"ticks\": {TICKS},\n"
    ));
    out.push_str(&format!(
        "  \"swim\": {{ \"ping_period\": {}, \"suspect_timeout\": {}, \"ping_req_fanout\": {} }},\n",
        swim.ping_period, swim.suspect_timeout, swim.ping_req_fanout
    ));
    out.push_str("  \"rows\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"degree\": {}, \"intensity\": {:.2}, \"chunks\": {}, \"write_attempts\": {}, \"write_acks\": {}, \"at_risk\": {}, \"lost_writes\": {}, \"durability\": {:.4}, \"confirmed\": {}, \"detect_lag_max\": {}, \"repairs\": {}, \"recovery_chunks\": {}, \"min_copies\": {}, \"replica_gini\": {:.4}, \"faults\": {}, \"wall_ms\": {:.3} }}{}\n",
            c.degree,
            c.intensity,
            c.chunks,
            c.write_attempts,
            c.write_acks,
            c.at_risk,
            c.lost_writes,
            c.durability(),
            c.confirmed,
            c.detect_lag_max,
            c.repairs,
            c.recovery_chunks,
            c.min_copies,
            c.replica_gini,
            c.faults,
            c.wall_ms,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_replay_identically() {
        let a = run_cell(3, 0.05);
        let b = run_cell(3, 0.05);
        assert_eq!(
            (a.write_acks, a.lost_writes, a.repairs, a.faults),
            (b.write_acks, b.lost_writes, b.repairs, b.faults)
        );
        assert_eq!(a.detect_lag_max, b.detect_lag_max);
        assert_eq!(a.replica_gini.to_bits(), b.replica_gini.to_bits());
    }

    #[test]
    fn triple_replication_loses_nothing_to_two_death_batches() {
        let cell = run_cell(3, 0.0);
        assert_eq!(cell.lost_writes, 0, "R=3 survives 2-death batches");
        assert!(cell.durability() == 1.0);
        assert!(
            cell.min_copies >= 3,
            "the repair planner restores the floor"
        );
    }

    #[test]
    fn render_matches_baseline_shape() {
        let cells = vec![run_cell(1, 0.0)];
        let json = render_json(&cells);
        let parsed = peercache_obs::Json::parse(&json).expect("well-formed");
        assert_eq!(
            parsed.get("bench").and_then(|j| j.as_str()),
            Some("replication")
        );
        assert_eq!(
            parsed.get("rows").and_then(|j| j.as_arr()).map(|r| r.len()),
            Some(1)
        );
    }
}
