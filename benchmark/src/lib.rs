//! The peercache benchmark: four workloads that time the library's
//! public entry points end to end, plus a traced mode that replays each
//! op through the layers' public functions to show where its time goes.
//!
//! A run times a sequence of units (plans or episodes). The first few,
//! the *reference set*, take their inputs from [`REFERENCE_SEED`]
//! whatever the run's seed: the exact metrics cover them alone, so they
//! read the same on every run of the same code. The *check set* follows,
//! with inputs from the run's seed. Both always run to completion; then
//! fresh seeded units start until the run's time budget is spent. The
//! output digest covers the reference and check sets, so it is a pure
//! function of the seed however fast the host is.
//!
//! Units run in blocks of about eight seconds, and an untraced run takes
//! every block twice: an op's time is the faster of its two runs, a
//! block apart. Host interference comes in bursts of seconds, and it
//! seldom slows both runs of an op. Each time is also scaled by a
//! host-speed probe read between ops (`Meter`). The second pass must
//! reproduce the first's outputs exactly. See `README.md` for the
//! workloads and the layer → metric → workload map.

mod churn;
mod dist;
pub mod metrics;
mod plan;
mod shard;

use std::collections::BTreeMap;
use std::time::Instant;

use peercache_core::placement::{ChunkPlacement, Placement};
use peercache_core::Network;
use peercache_graph::regions::splitmix64;

/// A workload's entry point.
pub type Workload = fn(&Settings) -> Outcome;

/// The workloads, by name.
pub const WORKLOADS: [(&str, Workload); 4] = [
    ("plan-rgg300", plan::run),
    ("churn-grid20", churn::run),
    ("shard-grid50", shard::run),
    ("dist-chaos", dist::run),
];

/// How one run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload seed; every input but the reference set's is derived
    /// from it.
    pub seed: u64,
    /// Wall-time budget: fresh units start until it is spent.
    pub seconds: f64,
    /// Replay each op through the layers and report per-layer metrics.
    pub traced: bool,
    /// Shrink the reference and check sets to a handful of ops.
    pub quick: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Best scaled time of every timed op, milliseconds.
    pub op_ms: Vec<f64>,
    /// Best scaled set-up time of every unit (network, world and
    /// warm-up), seconds.
    pub setup_s: Vec<f64>,
    /// Ops that returned an error.
    pub failed: u64,
    /// Mean total contention cost over the reference set.
    pub cost_total: f64,
    /// Mean load Gini over the reference set.
    pub load_gini: f64,
    /// Digest of the reference and check sets' outputs.
    pub digest: u64,
    /// Failed output checks; empty when every output was correct.
    pub errors: Vec<String>,
    /// Per-layer values, filled by traced runs.
    pub layers: Vec<(&'static str, f64)>,
    /// Median probe reading, milliseconds (NaN in a traced run).
    pub probe_ms: f64,
    /// Units (plans or episodes) run, reference and check sets included.
    pub units: usize,
}

impl Outcome {
    /// Takes over the harness's timings and errors, and turns the exact
    /// metrics' sums over the reference set into means.
    pub(crate) fn add_timings(&mut self, t: Timings) {
        self.op_ms = t.op_ms;
        self.setup_s = t.setup_s;
        self.probe_ms = t.probe_ms;
        self.units = t.units;
        self.errors.extend(t.errors);
        let n = t.reference.max(1) as f64;
        self.cost_total /= n;
        self.load_gini /= n;
    }
}

/// The seed the reference set's inputs come from, in every run.
pub const REFERENCE_SEED: u64 = 0x7065_6572_6361_6368;

/// The input seed of unit `i`: the run seed and the unit index, hashed
/// so that nearby run seeds share no inputs.
pub(crate) fn unit_seed(seed: u64, i: usize) -> u64 {
    splitmix64(splitmix64(seed) ^ i as u64)
}

/// How many units of each fixed kind a workload runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizes {
    /// Reference units, run first.
    pub reference: usize,
    /// Check units, run next.
    pub check: usize,
}

/// One timed set-up or op.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sample {
    /// Start on the run's clock ([`Meter::mark`]), seconds.
    pub at_s: f64,
    /// Wall time, milliseconds.
    pub ms: f64,
}

/// One pass over one unit.
#[derive(Debug, Default)]
pub(crate) struct UnitRun {
    /// The unit's set-up.
    pub setup: Sample,
    /// Every op that succeeded.
    pub ops: Vec<Sample>,
    /// Digest of the unit's outputs.
    pub digest: u64,
}

/// What a unit's outputs feed, beyond the times every unit feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// The exact metrics and the output digest.
    Reference,
    /// The output digest.
    Check,
    /// Nothing more.
    Fill,
}

/// The unit pass a workload is asked to run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pass {
    /// Unit index in the run.
    pub unit: usize,
    /// Seed of the unit's inputs.
    pub seed: u64,
    /// The first pass: it checks outputs, feeds the exact metrics and
    /// the digest and, in a traced run, replays the ops.
    pub first: bool,
    /// What the unit's outputs feed.
    pub role: Role,
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unit {}", self.unit)
    }
}

/// What the harness measured.
#[derive(Debug, Default)]
pub(crate) struct Timings {
    /// Best time of every op over the passes, scaled to the reference
    /// host speed, milliseconds.
    pub op_ms: Vec<f64>,
    /// Best set-up time of every unit over the passes, scaled likewise,
    /// seconds.
    pub setup_s: Vec<f64>,
    /// Median probe reading of the run, milliseconds (NaN when traced).
    pub probe_ms: f64,
    /// Reference units, all of which run.
    pub reference: usize,
    /// Units run.
    pub units: usize,
    /// Units whose second pass did not reproduce the first.
    pub errors: Vec<String>,
}

/// First-pass wall time of one block: an op's second run comes about
/// this long after its first.
const BLOCK_S: f64 = 8.0;

/// The probe's reading on the reference host (a quiet 2-vCPU 2.1 GHz
/// Xeon VM), milliseconds: the host speed reported times are scaled to.
const PROBE_REF_MS: f64 = 2.5;

/// Least time between two probe readings, seconds.
const PROBE_EVERY_S: f64 = 0.25;

/// A time is scaled by the probe readings taken this close to its start,
/// seconds.
const PROBE_WINDOW_S: f64 = 2.0;

/// The run's clock and its host-speed probe.
///
/// Other tenants slow the reference host by 10–80% for seconds to
/// minutes at a time, and they slow cache-heavy code most; an
/// integer-hash loop barely slows. The probe sorts 1 MiB of fixed
/// pseudo-random words, which slows with the workloads. Each time is
/// scaled by [`PROBE_REF_MS`] over the median reading within
/// [`PROBE_WINDOW_S`] of its start. The host's speed moves within a run,
/// so one scale per run tracks it no better than none (see `README.md`).
#[derive(Debug)]
pub(crate) struct Meter {
    start: Instant,
    /// The probe's buffer; `None` in a traced run, which reports no times.
    words: Option<Vec<u64>>,
    /// Every reading, in time order.
    readings: Vec<Sample>,
}

impl Meter {
    fn new(probe: bool) -> Self {
        Meter {
            start: Instant::now(),
            words: probe.then(|| vec![0; 1 << 17]),
            readings: Vec::new(),
        }
    }

    /// Reads the probe when a reading is due, then returns the run's
    /// clock, seconds. Call it right before timing a set-up or an op.
    pub fn mark(&mut self) -> f64 {
        let now = self.start.elapsed().as_secs_f64();
        if let Some(words) = self.words.as_mut() {
            if self
                .readings
                .last()
                .is_none_or(|r| now - r.at_s >= PROBE_EVERY_S)
            {
                // The median of three sorts.
                let sorts: Vec<f64> = (0..3)
                    .map(|_| {
                        timed(|| {
                            for (i, w) in words.iter_mut().enumerate() {
                                *w = splitmix64(i as u64);
                            }
                            words.sort_unstable();
                            std::hint::black_box(words[0])
                        })
                        .1
                    })
                    .collect();
                self.readings.push(Sample {
                    at_s: now,
                    ms: metrics::percentile(&sorts, 50.0),
                });
                return self.start.elapsed().as_secs_f64();
            }
        }
        now
    }

    /// `x`'s time scaled to the reference host speed, milliseconds;
    /// unscaled without a probe.
    fn scaled(&self, x: Sample) -> f64 {
        let r = &self.readings;
        if r.is_empty() {
            return x.ms;
        }
        let lo = r.partition_point(|p| p.at_s < x.at_s - PROBE_WINDOW_S);
        let hi = r.partition_point(|p| p.at_s <= x.at_s + PROBE_WINDOW_S);
        let near: Vec<f64> = if lo < hi {
            r[lo..hi].iter().map(|p| p.ms).collect()
        } else {
            // None in the window: the last reading before `x`.
            vec![r[lo.saturating_sub(1)].ms]
        };
        x.ms * PROBE_REF_MS / metrics::percentile(&near, 50.0)
    }
}

/// Runs the reference set, the check set, then fresh units while the
/// time budget lasts, in blocks. An untraced run takes each block twice
/// and keeps the faster scaled time of every op and set-up (see
/// [`Meter`]). A traced run takes each block once and reports no times.
/// `unit` returns `None` when the unit could not be set up.
pub(crate) fn run_units(
    s: &Settings,
    sizes: Sizes,
    mut unit: impl FnMut(Pass, &mut Meter) -> Option<UnitRun>,
) -> Timings {
    let passes = if s.traced { 1.0 } else { 2.0 };
    let mut meter = Meter::new(!s.traced);
    let mut t = Timings {
        reference: sizes.reference,
        ..Timings::default()
    };
    let fixed = sizes.reference + sizes.check;
    let pass = |i: usize, first: bool| {
        let (role, seed) = if i < sizes.reference {
            (Role::Reference, REFERENCE_SEED)
        } else if i < fixed {
            (Role::Check, s.seed)
        } else {
            (Role::Fill, s.seed)
        };
        Pass {
            unit: i,
            seed: unit_seed(seed, i),
            first,
            role,
        }
    };
    let mut done: Vec<Vec<UnitRun>> = Vec::new();
    let mut first_pass_s = 0.0;
    loop {
        let block_start = Instant::now();
        let mut block = Vec::new();
        loop {
            let block_s = block_start.elapsed().as_secs_f64();
            let per_unit = first_pass_s / t.units.max(1) as f64;
            let fits =
                meter.start.elapsed().as_secs_f64() + (passes - 1.0) * block_s + passes * per_unit
                    <= s.seconds;
            if (!block.is_empty() && block_s >= BLOCK_S) || (t.units >= fixed && !fits) {
                break;
            }
            let i = t.units;
            let (run, ms) = timed(|| unit(pass(i, true), &mut meter));
            first_pass_s += ms / 1e3;
            block.push((i, run));
            t.units += 1;
        }
        if block.is_empty() {
            break;
        }
        for (i, run) in block {
            let Some(first) = run else { continue };
            let mut runs = vec![first];
            if !s.traced {
                match unit(pass(i, false), &mut meter) {
                    Some(again)
                        if again.digest == runs[0].digest
                            && again.ops.len() == runs[0].ops.len() =>
                    {
                        runs.push(again)
                    }
                    _ => t.errors.push(format!(
                        "unit {i}: the second pass did not reproduce the first"
                    )),
                }
            }
            done.push(runs);
        }
    }
    for runs in &done {
        let best = |pick: &dyn Fn(&UnitRun) -> Sample| {
            runs.iter()
                .map(|r| meter.scaled(pick(r)))
                .fold(f64::INFINITY, f64::min)
        };
        t.setup_s.push(best(&|r| r.setup) / 1e3);
        for k in 0..runs[0].ops.len() {
            t.op_ms.push(best(&|r| r.ops[k]));
        }
    }
    let readings: Vec<f64> = meter.readings.iter().map(|r| r.ms).collect();
    t.probe_ms = metrics::percentile(&readings, 50.0);
    t
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the deterministic `f` `n` times in a row and returns its result
/// with the least of its wall times, milliseconds. One run of a
/// sub-millisecond set-up mostly times the cache misses and page faults
/// that whatever ran before it left: two runs of one network's set-up,
/// a block apart, differed by up to 2× on the reference host.
pub(crate) fn fastest_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..n {
        let (again, ms) = timed(&mut f);
        (out, best) = (again, best.min(ms));
    }
    (out, best)
}

/// Successive wall-time laps, milliseconds.
#[derive(Debug)]
pub(crate) struct Lap(Instant);

impl Lap {
    /// Starts the first lap.
    pub fn start() -> Self {
        Lap(Instant::now())
    }

    /// Ends the current lap, returns its length and starts the next.
    pub fn ms(&mut self) -> f64 {
        let now = Instant::now();
        let ms = (now - self.0).as_secs_f64() * 1e3;
        self.0 = now;
        ms
    }
}

/// Seeded picks for event traces.
#[derive(Debug)]
pub(crate) struct Picks(u64);

impl Picks {
    /// A pick stream for one unit.
    pub fn new(seed: u64) -> Self {
        Picks(seed)
    }

    /// A pick in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = splitmix64(self.0);
        (self.0 % n as u64) as usize
    }
}

/// The first item, going round from a seeded start, that `accept`
/// takes. Event traces try their picks on a scratch copy of the network
/// this way, so the model accepts every event the benchmark submits.
pub(crate) fn first_accepted<T: Copy>(
    items: &[T],
    picks: &mut Picks,
    mut accept: impl FnMut(T) -> bool,
) -> Option<T> {
    if items.is_empty() {
        return None;
    }
    let start = picks.below(items.len());
    (0..items.len())
        .map(|k| items[(start + k) % items.len()])
        .find(|&x| accept(x))
}

/// Per-layer sums, named after the layer metric they feed.
#[derive(Debug, Default)]
pub(crate) struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    /// Adds `v` to the sum behind `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    /// Every sum divided by `n`.
    pub fn means(&self, n: usize) -> Vec<(&'static str, f64)> {
        self.0
            .iter()
            .map(|(&k, &v)| (k, v / n.max(1) as f64))
            .collect()
    }
}

/// Folds one value into a digest.
pub(crate) fn mix(h: u64, x: u64) -> u64 {
    splitmix64(h ^ x)
}

/// Folds a chunk placement into a digest, bit for bit: caches,
/// assignment, dissemination tree and the cost breakdown.
pub(crate) fn fold_chunk(mut h: u64, cp: &ChunkPlacement) -> u64 {
    h = mix(h, cp.chunk.index() as u64);
    h = mix(h, cp.caches.len() as u64);
    for n in &cp.caches {
        h = mix(h, n.index() as u64);
    }
    for pairs in [&cp.assignment, &cp.tree_edges] {
        h = mix(h, pairs.len() as u64);
        for &(a, b) in pairs {
            h = mix(mix(h, a.index() as u64), b.index() as u64);
        }
    }
    for c in [cp.costs.fairness, cp.costs.access, cp.costs.dissemination] {
        h = mix(h, c.to_bits());
    }
    h
}

/// Digest of a whole placement.
pub(crate) fn placement_digest(p: &Placement) -> u64 {
    p.chunks().iter().fold(0, fold_chunk)
}

/// Checks a planner's output against the network it planned on: every
/// chunk is placed, every interested client is served by the producer
/// or a copy, recorded caches hold the chunk, tree edges exist, costs
/// are finite, and no node exceeds its capacity.
pub(crate) fn check_placement(net: &Network, p: &Placement, chunks: usize) -> Result<(), String> {
    if p.chunks().len() != chunks {
        return Err(format!("{} of {chunks} chunks placed", p.chunks().len()));
    }
    for cp in p.chunks() {
        let c = cp.chunk;
        let clients: Vec<_> = cp.assignment.iter().map(|&(j, _)| j).collect();
        if clients != net.interested_clients(c) {
            return Err(format!("chunk {c}: assignment misses interested clients"));
        }
        if let Some(&(j, i)) = cp
            .assignment
            .iter()
            .find(|&&(_, i)| i != net.producer() && !cp.caches.contains(&i))
        {
            return Err(format!("chunk {c}: client {j} served by non-holder {i}"));
        }
        if let Some(&i) = cp.caches.iter().find(|&&i| !net.is_cached(i, c)) {
            return Err(format!("chunk {c}: recorded cache {i} does not hold it"));
        }
        if let Some(&(u, v)) = cp
            .tree_edges
            .iter()
            .find(|&&(u, v)| !net.graph().contains_edge(u, v))
        {
            return Err(format!("chunk {c}: tree edge ({u}, {v}) does not exist"));
        }
        if !cp.costs.total().is_finite() {
            return Err(format!("chunk {c}: non-finite cost"));
        }
    }
    match net.graph().nodes().find(|&n| net.used(n) > net.capacity(n)) {
        Some(n) => Err(format!("node {n} exceeds its capacity")),
        None => Ok(()),
    }
}
