//! The sanctioned monotonic clock.
//!
//! Lint rule D2 keeps ambient time sources (`Instant::now`, `SystemTime`)
//! out of the deterministic crates; code there that wants wall-clock
//! measurements (e.g. churn-repair timing in `core::world`) reads a
//! [`MonotonicClock`] instead. It reads real elapsed time from the
//! process-wide telemetry epoch. Lint rule T1 treats its two readers as
//! a sanctioned boundary: their readings feed wall-time report fields
//! only, never a digest or a placement.

use crate::sink::ts_us;

/// A microsecond clock over the process-wide observability epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonotonicClock {
    /// Real elapsed time since the process-wide observability epoch.
    #[default]
    System,
}

impl MonotonicClock {
    /// Current reading in microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        ts_us()
    }

    /// Microseconds elapsed since an earlier reading of this clock.
    #[must_use]
    pub fn elapsed_us(&self, start_us: u64) -> u64 {
        self.now_us().saturating_sub(start_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = MonotonicClock::System;
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
        assert_eq!(c.elapsed_us(u64::MAX), 0); // saturates, never underflows
    }
}
