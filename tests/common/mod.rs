//! Trace generator shared by the world determinism suites
//! (`churn_world`, `partition_world`, `shard_world`).

/// Tiny xorshift64 generator so the trace is deterministic without
/// pulling a RNG crate into the integration tests.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}
