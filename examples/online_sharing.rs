//! Online sharing session: chunks arrive over time, old ones retire.
//!
//! The paper's future-work section calls for online solutions where
//! "some chunks may become out-dated, necessitating cache replacement".
//! This example runs a long sharing session on a 5x5 grid: a new chunk
//! arrives every step, only the 6 most recent chunks stay live, and the
//! fairness feedback keeps the rotating load spread across devices.
//!
//! Run with: `cargo run --example online_sharing`

use peercache::prelude::*;

fn main() -> Result<(), CoreError> {
    const ARRIVALS: usize = 24;
    const RETENTION: usize = 6;

    let network = paper_grid(5)?;
    let mut cache = CacheWorld::new(network, ApproxConfig::default()).with_retention(RETENTION);

    println!("online session: {ARRIVALS} arrivals, retention window {RETENTION} chunks\n");
    println!(
        "{:>6} {:>7} {:>12} {:>8} {:>14}",
        "chunk", "copies", "contention", "gini", "storage used"
    );
    let mut peak_gini: f64 = 0.0;
    for _ in 0..ARRIVALS {
        let placed = cache.insert_chunk()?;
        let (chunk, copies, contention) =
            (placed.chunk, placed.caches.len(), placed.contention_cost());
        let net = cache.network();
        let loads: Vec<usize> = net.clients().map(|n| net.used(n)).collect();
        let used: usize = loads.iter().sum();
        let capacity: usize = net.clients().map(|n| net.capacity(n)).sum();
        let g = metrics::gini(&loads);
        peak_gini = peak_gini.max(g);
        println!(
            "{:>6} {:>7} {:>12.1} {:>8.3} {:>9}/{:<4}",
            chunk.to_string(),
            copies,
            contention,
            g,
            used,
            capacity
        );
    }

    println!(
        "\nlive chunks at the end: {:?}",
        cache
            .live_chunks()
            .iter()
            .map(|c| c.index())
            .collect::<Vec<_>>()
    );
    println!("peak gini over the whole session: {peak_gini:.3}");
    println!("(retirement keeps storage bounded; fairness keeps the rotation even)");
    Ok(())
}
