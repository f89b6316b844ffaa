//! A 64-bit digest of a churn trace through a [`CacheWorld`], shared by
//! the world determinism suites. Every applied event's outcome and,
//! at the end, the arrival history and every live record are folded
//! bit for bit, so a pinned constant catches any change to what the
//! world records — not only a difference between two runs of the same
//! code. Wall-clock fields are left out. A records-only fold also
//! leaves out each departure's `apsp_rows`, a work count that moves
//! with when the contention snapshot refreshes, not with what the
//! world records.

use peercache::graph::regions::splitmix64;
use peercache::placement::ChunkPlacement;
use peercache::prelude::*;

/// Seed of every digest.
pub const SEED: u64 = 0x5045_4552_4341_4348; // "PEERCACH"

fn mix(h: u64, x: u64) -> u64 {
    splitmix64(h ^ x)
}

fn mix_ids(h: u64, ids: impl IntoIterator<Item = usize>) -> u64 {
    let ids: Vec<usize> = ids.into_iter().collect();
    ids.iter()
        .fold(mix(h, ids.len() as u64), |h, &i| mix(h, i as u64))
}

fn mix_pairs(h: u64, pairs: &[(NodeId, NodeId)]) -> u64 {
    mix_ids(h, pairs.iter().flat_map(|&(a, b)| [a.index(), b.index()]))
}

/// Folds one placement record: caches, assignment, dissemination tree
/// and the bit patterns of its three costs.
fn fold_record(mut h: u64, cp: &ChunkPlacement) -> u64 {
    h = mix(h, cp.chunk.index() as u64);
    h = mix_ids(h, cp.caches.iter().map(|n| n.index()));
    h = mix_pairs(h, &cp.assignment);
    h = mix_pairs(h, &cp.tree_edges);
    for c in [cp.costs.fairness, cp.costs.access, cp.costs.dissemination] {
        h = mix(h, c.to_bits());
    }
    h
}

/// Folds the outcome of one attempted event; a rejection folds a
/// marker, not its message.
pub fn fold_outcome(h: u64, outcome: &Result<EventOutcome, CoreError>) -> u64 {
    fold(h, outcome, true)
}

/// [`fold_outcome`] without a departure's `apsp_rows`: the records
/// alone.
pub fn fold_outcome_records(h: u64, outcome: &Result<EventOutcome, CoreError>) -> u64 {
    fold(h, outcome, false)
}

fn fold(h: u64, outcome: &Result<EventOutcome, CoreError>, with_rows: bool) -> u64 {
    let chunks = |cs: &[ChunkId]| cs.iter().map(|c| c.index()).collect::<Vec<_>>();
    match outcome {
        Err(_) => mix(h, 0xE0),
        Ok(EventOutcome::Placed(cp)) => fold_record(mix(h, 1), cp),
        Ok(EventOutcome::Retired {
            chunk,
            copies_freed,
        }) => mix_ids(mix(h, 2), [chunk.index(), *copies_freed]),
        Ok(EventOutcome::Joined { node, refreshed }) => {
            mix_ids(mix(mix(h, 3), node.index() as u64), chunks(refreshed))
        }
        Ok(EventOutcome::Departed(r)) => {
            let mut h = mix(mix(h, 4), r.node.index() as u64);
            h = mix_ids(h, chunks(&r.lost_chunks));
            h = mix_ids(h, chunks(&r.repaired));
            h = mix_ids(h, chunks(&r.refreshed));
            h = mix_ids(
                h,
                r.new_copies
                    .iter()
                    .flat_map(|&(c, n)| [c.index(), n.index()]),
            );
            if with_rows {
                mix_ids(h, [r.orphaned_clients, r.apsp_rows])
            } else {
                mix_ids(h, [r.orphaned_clients])
            }
        }
        Ok(EventOutcome::LinkAdded { added }) => mix(mix(h, 5), u64::from(*added)),
        Ok(EventOutcome::LinkRemoved { removed, refreshed }) => {
            mix_ids(mix(mix(h, 6), u64::from(*removed)), chunks(refreshed))
        }
    }
}

/// Folds a partition transition: its kind, components and client count.
#[allow(dead_code)] // the churn suite never partitions
pub fn fold_partition_event(h: u64, event: &PartitionEvent) -> u64 {
    let (kind, components, clients) = match event {
        PartitionEvent::Formed {
            components,
            deferred_clients,
        } => (7, components, *deferred_clients),
        PartitionEvent::Healed {
            components,
            restored_clients,
        } => (8, components, *restored_clients),
    };
    let h = mix(mix(h, kind), clients as u64);
    components
        .iter()
        .fold(mix(h, components.len() as u64), |h, comp| {
            mix_ids(h, comp.iter().map(|n| n.index()))
        })
}

/// Folds the world's end state: the arrival history, then every live
/// record in live order.
pub fn fold_world(h: u64, world: &CacheWorld) -> u64 {
    let h = world
        .history()
        .iter()
        .fold(mix(h, world.history().len() as u64), fold_record);
    world
        .live_chunks()
        .iter()
        .fold(mix(h, world.live_chunks().len() as u64), |h, &c| {
            fold_record(h, world.placement(c).expect("live chunk has a record"))
        })
}
