//! Fixed-capacity, deterministic time-series recording.
//!
//! A [`TimeSeries`] is a value type owned by the instrumented component
//! (the simulator, the cache world) — not interned in the process-wide
//! metric registry — so cloning a world clones its telemetry and two
//! identical runs record identical series. Timestamps are supplied by
//! the caller (simulation ticks, event indices, or a
//! [`MonotonicClock`](crate::MonotonicClock) reading); the recorder
//! never reads ambient time.
//!
//! Capacity is bounded by **decimation**: the recorder keeps every
//! `stride`-th offered sample, and whenever the buffer fills it drops
//! every other retained point and doubles the stride. The retained set
//! is a pure function of the offered sample sequence, so replays emit
//! byte-identical series.

use crate::sink::{enabled, write_record};

/// Default point capacity of a [`TimeSeries`].
pub const DEFAULT_CAPACITY: usize = 512;

/// A bounded `(timestamp, value)` series with deterministic decimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    name: &'static str,
    cap: usize,
    stride: u64,
    offered: u64,
    points: Vec<(u64, i64)>,
}

impl TimeSeries {
    /// A series named `name` with the default capacity (512 points).
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Self::with_capacity(name, DEFAULT_CAPACITY)
    }

    /// A series with an explicit capacity (clamped to at least 2).
    #[must_use]
    pub fn with_capacity(name: &'static str, cap: usize) -> Self {
        TimeSeries {
            name,
            cap: cap.max(2),
            stride: 1,
            offered: 0,
            points: Vec::new(),
        }
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current decimation stride: one point kept per `stride` offers.
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// How many samples have been offered (kept or decimated).
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The retained points, oldest first.
    #[must_use]
    pub fn points(&self) -> &[(u64, i64)] {
        &self.points
    }

    /// Offers one sample at timestamp `t`.
    pub fn record(&mut self, t: u64, v: i64) {
        if self.offered.is_multiple_of(self.stride) {
            if self.points.len() == self.cap {
                let mut i = 0usize;
                self.points.retain(|_| {
                    i += 1;
                    (i - 1).is_multiple_of(2)
                });
                self.stride *= 2;
            }
            if self.offered.is_multiple_of(self.stride) {
                self.points.push((t, v));
            }
        }
        self.offered += 1;
    }

    /// Writes the series as one `timeseries` JSONL record (no-op when
    /// tracing is off):
    ///
    /// ```json
    /// {"ts_us":9,"kind":"timeseries","name":"sim.queue_depth",
    ///  "stride":2,"offered":130,"points":[[0,4],[2,9]]}
    /// ```
    pub fn emit(&self) {
        if !enabled() {
            return;
        }
        use std::fmt::Write as _;
        let mut extra = String::with_capacity(48 + 16 * self.points.len());
        let _ = write!(
            extra,
            "\"stride\":{},\"offered\":{},\"points\":[",
            self.stride, self.offered
        );
        for (i, (t, v)) in self.points.iter().enumerate() {
            if i > 0 {
                extra.push(',');
            }
            let _ = write!(extra, "[{t},{v}]");
        }
        extra.push(']');
        write_record("timeseries", self.name, &extra, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_within_capacity_verbatim() {
        let mut ts = TimeSeries::with_capacity("sim.queue_depth", 8);
        for t in 0..5u64 {
            ts.record(t, t as i64 * 10);
        }
        assert_eq!(ts.points(), &[(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
        assert_eq!(ts.stride(), 1);
        assert_eq!(ts.offered(), 5);
    }

    #[test]
    fn decimates_deterministically_when_full() {
        let mut a = TimeSeries::with_capacity("sim.queue_depth", 4);
        for t in 0..64u64 {
            a.record(t, t as i64);
        }
        // Capacity 4 over 64 offers → stride grew past 4; the retained
        // timestamps are exactly the multiples of the final stride.
        assert!(a.points().len() <= 4);
        assert!(a.stride() >= 16);
        for (t, v) in a.points() {
            assert_eq!(t % a.stride(), 0);
            assert_eq!(*v, *t as i64);
        }
        // Pure function of the offer sequence: a replay is identical.
        let mut b = TimeSeries::with_capacity("sim.queue_depth", 4);
        for t in 0..64u64 {
            b.record(t, t as i64);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut ts = TimeSeries::with_capacity("sim.in_flight", 16);
        for t in 0..10_000u64 {
            ts.record(t, 1);
            assert!(ts.points().len() <= 16);
        }
        assert_eq!(ts.offered(), 10_000);
    }
}
