//! Process-global typed metrics behind a name-interned registry.
//!
//! Handles are `&'static`; recording is lock-free (relaxed atomics).
//! The registry lock is only taken on first intern of a name and when
//! snapshotting, never on the record path — call sites that care about
//! the intern cost should fetch the handle once and keep it.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log-scale buckets in a [`Histogram`]: values below 64 get
/// one exact bucket each; every power-of-two octave above is split into
/// 8 sub-buckets (HDR-style), bounding the relative quantile error at
/// 12.5% while keeping the struct a flat atomic array.
const HISTOGRAM_BUCKETS: usize = 64 + (64 - 6) * 8;

/// Index of the bucket containing `v`.
fn bucket_index(v: u64) -> usize {
    if v < 64 {
        return v as usize;
    }
    let octave = (63 - v.leading_zeros()) as usize; // 2^octave <= v
    let sub = ((v >> (octave - 3)) & 7) as usize;
    64 + (octave - 6) * 8 + sub
}

/// Largest value mapping to bucket `idx`.
fn bucket_upper(idx: usize) -> u64 {
    if idx < 64 {
        return idx as u64;
    }
    let k = idx - 64;
    let octave = 6 + k / 8;
    let sub = (k % 8) as u128;
    let upper = ((8 + sub + 1) << (octave - 3)) - 1;
    u64::try_from(upper).unwrap_or(u64::MAX)
}

/// A streaming histogram of `u64` samples: count, sum, min, max plus
/// log-scale buckets — exact below 64, 8 sub-buckets per power-of-two
/// octave above (`bucket_index`), tight enough for p50/p95/p99
/// delivery-latency reporting.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, or `None` before any sample.
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest sample, or `None` before any sample.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Mean sample, or `None` before any sample.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// Upper bound of the smallest log-scale bucket containing the
    /// `q`-quantile (`q` in `[0, 1]`), or `None` before any sample.
    /// Exact for values below 64; within 12.5% above.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Some(bucket_upper(i));
            }
        }
        self.max()
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<Vec<(&'static str, Metric)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(&'static str, Metric)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn intern<T: Default>(
    name: &'static str,
    pick: impl Fn(&Metric) -> Option<&'static T>,
    wrap: impl Fn(&'static T) -> Metric,
) -> &'static T {
    let mut reg = registry().lock().expect("metric registry poisoned");
    if let Some((_, metric)) = reg.iter().find(|(n, _)| *n == name) {
        let found = pick(metric);
        // Release the lock before a type clash panics: a panic under
        // the guard would poison the registry for the whole process.
        drop(reg);
        return found
            .unwrap_or_else(|| panic!("metric {name:?} already registered with a different type"));
    }
    let handle: &'static T = Box::leak(Box::default());
    reg.push((name, wrap(handle)));
    handle
}

/// Returns the process-global counter `name`, creating it on first use.
pub fn counter(name: &'static str) -> &'static Counter {
    intern(
        name,
        |m| match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        },
        Metric::Counter,
    )
}

/// Returns the process-global gauge `name`, creating it on first use.
pub fn gauge(name: &'static str) -> &'static Gauge {
    intern(
        name,
        |m| match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        },
        Metric::Gauge,
    )
}

/// Returns the process-global histogram `name`, creating it on first
/// use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    intern(
        name,
        |m| match m {
            Metric::Histogram(h) => Some(h),
            _ => None,
        },
        Metric::Histogram,
    )
}

/// A point-in-time rendering of one metric, ready for the JSONL sink.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Record kind: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// Metric name.
    pub name: String,
    /// Pre-rendered JSON members (without braces), e.g. `"value":3`.
    pub body: String,
}

/// Snapshots every registered metric in registration order.
pub fn snapshot_metrics() -> Vec<MetricSnapshot> {
    let reg = registry().lock().expect("metric registry poisoned");
    reg.iter()
        .map(|(name, metric)| match metric {
            Metric::Counter(c) => MetricSnapshot {
                kind: "counter",
                name: (*name).to_string(),
                body: format!("\"value\":{}", c.get()),
            },
            Metric::Gauge(g) => MetricSnapshot {
                kind: "gauge",
                name: (*name).to_string(),
                body: format!("\"value\":{}", g.get()),
            },
            Metric::Histogram(h) => MetricSnapshot {
                kind: "histogram",
                name: (*name).to_string(),
                body: format!(
                    "\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50_le\":{},\"p95_le\":{},\"p99_le\":{}",
                    h.count(),
                    h.sum(),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                    h.quantile_bound(0.5).unwrap_or(0),
                    h.quantile_bound(0.95).unwrap_or(0),
                    h.quantile_bound(0.99).unwrap_or(0),
                ),
            },
        })
        .collect()
}

/// Resets every registered metric to zero (handles stay valid). Meant
/// for tests and between benchmark repetitions.
pub fn reset_metrics() {
    let reg = registry().lock().expect("metric registry poisoned");
    for (_, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_by_name() {
        let a = counter("test.counter.a");
        let b = counter("test.counter.a");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = gauge("test.gauge");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_tracks_extremes_and_quantiles() {
        let h = histogram("test.histogram");
        assert!(h.min().is_none());
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 21.2).abs() < 1e-9);
        // p50 of [0,1,2,3,100] is 2 — exact, since buckets below 64 are
        // one value wide.
        assert_eq!(h.quantile_bound(0.5), Some(2));
        assert!(h.quantile_bound(1.0).unwrap() >= 100);
    }

    #[test]
    fn log_buckets_bound_relative_error() {
        // Below 64 the bucket is the value itself; above, the upper
        // bound overshoots by at most 1/8 of the value's octave.
        for v in [0u64, 1, 5, 63, 64, 100, 1000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper {upper} < v {v}");
            if v < 64 {
                assert_eq!(upper, v);
            } else {
                assert!(upper - v <= v / 8 + 1, "v {v} upper {upper} too loose");
            }
            if idx > 0 {
                assert!(
                    bucket_upper(idx - 1) < v,
                    "bucket {idx} not minimal for {v}"
                );
            }
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // 100 sits in the [96,104) sub-bucket of the 64..128 octave.
        assert_eq!(bucket_upper(bucket_index(100)), 103);
    }

    #[test]
    fn quantiles_on_latency_like_data() {
        let h = histogram("test.histogram.latency");
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_bound(0.5), Some(50));
        // 95 falls in the sub-bucket [88,96): upper bound 95 — exact here.
        assert_eq!(h.quantile_bound(0.95), Some(95));
        assert_eq!(h.quantile_bound(0.99), Some(103));
    }

    #[test]
    fn snapshot_renders_every_metric() {
        counter("test.snap.count").add(7);
        gauge("test.snap.gauge").set(-4);
        histogram("test.snap.hist").record(16);
        let snaps = snapshot_metrics();
        let find = |n: &str| {
            snaps
                .iter()
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert!(find("test.snap.count").body.contains("\"value\":7"));
        assert!(find("test.snap.gauge").body.contains("\"value\":-4"));
        let h = find("test.snap.hist");
        assert_eq!(h.kind, "histogram");
        assert!(h.body.contains("\"count\":1"));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        counter("test.confused");
        gauge("test.confused");
    }

    #[test]
    fn type_clash_leaves_the_registry_usable() {
        counter("test.clash");
        let clash = std::panic::catch_unwind(|| gauge("test.clash"));
        assert!(clash.is_err(), "a type clash must still panic");
        // The registry is not poisoned: later metrics register and
        // snapshot as usual.
        counter("test.clash.after").incr();
        assert!(snapshot_metrics()
            .iter()
            .any(|s| s.name == "test.clash.after"));
    }

    #[test]
    fn scale_gauges_are_registered_and_hold_extreme_byte_counts() {
        // The scale planner reports state sizes through these gauges;
        // the names must be in the O1 registry and the handles must
        // survive the full i64 range (contention-state byte counts are
        // u64-sized upstream and clamped by the caller).
        for n in [
            "planner.contention_bytes",
            "planner.region_count",
            "planner.scale",
        ] {
            assert!(crate::names::is_registered(n), "{n} missing from registry");
        }
        let g = gauge("planner.contention_bytes");
        g.set(i64::MAX);
        assert_eq!(g.get(), i64::MAX);
        g.set(i64::MIN);
        assert_eq!(g.get(), i64::MIN);
        g.set(0);
        let r = gauge("planner.region_count");
        r.set(0);
        r.add(3);
        r.add(-3);
        assert_eq!(r.get(), 0);
    }
}
