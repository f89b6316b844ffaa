//! C1 positive fixture: fan-out closures that escape their shard. Linted
//! as if in `crates/core`.

fn emit_progress(done: usize) {
    obs::event!("fixture.progress", done = done);
}

/// Every escape vector at once: an outer `&mut` capture, a direct
/// emission, a resolved call that reaches emission, and calls to a
/// caller-supplied closure — none of them quiet-wrapped.
pub fn leaky_fan_out(items: &[u32], acc: &mut Vec<u64>, task: impl Fn(u32) -> u64 + Sync) {
    let mut slots: Vec<Option<u64>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, item) in slots.iter_mut().zip(items) {
            s.spawn(move || {
                obs::counter("fixture.items").incr();
                emit_progress(1);
                push_result(&mut acc, task(*item));
                *slot = Some(task(*item));
            });
        }
    });
}
