//! Injectable monotonic clock.
//!
//! Lint rule D2 keeps ambient time sources (`Instant::now`, `SystemTime`)
//! out of the deterministic crates; code there that wants wall-clock
//! measurements (e.g. churn-repair timing in `core::world`) reads a
//! [`MonotonicClock`] instead. The default reads real elapsed time from the
//! process-wide telemetry epoch; tests freeze it for reproducible output.

use crate::sink::ts_us;

/// A microsecond clock that can be swapped for a frozen one in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonotonicClock {
    /// Real elapsed time since the process-wide observability epoch.
    #[default]
    System,
    /// A frozen timestamp: `now_us` always returns this value, so
    /// durations measure as zero (fully deterministic).
    Fixed(u64),
}

impl MonotonicClock {
    /// Current reading in microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        match self {
            MonotonicClock::System => ts_us(),
            MonotonicClock::Fixed(t) => *t,
        }
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
    fn fixed_clock_is_frozen() {
        let c = MonotonicClock::Fixed(41);
        assert_eq!(c.now_us(), 41);
        assert_eq!(c.elapsed_us(41), 0);
        assert_eq!(c.elapsed_us(100), 0); // saturates, never underflows
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = MonotonicClock::System;
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }
}
