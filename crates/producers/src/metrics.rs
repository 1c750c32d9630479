//! Production telemetry: a dependency-free metrics registry.
//!
//! The serving layer (`indrel_core::serve`) needs continuous,
//! exportable counters — requests, memo hits, sheds, retries, degraded
//! shards, per-rule work — that an operator can scrape while traffic
//! flows. This module provides the three cell kinds and the registry
//! that aggregates them:
//!
//! * [`Counter`] — a monotone sum, striped across cache lines so
//!   concurrent workers increment without contending (lock-free:
//!   one relaxed `fetch_add` per bump);
//! * [`Gauge`] — a point-in-time level (in-flight requests, table
//!   entries), a single atomic cell;
//! * [`Log2Histogram`] — an atomic, shareable histogram with
//!   power-of-two buckets (bucket 0 holds the value 0, bucket `b > 0`
//!   holds `[2^(b-1), 2^b)`), plus count/sum/max and
//!   bucket-interpolated [`quantile`](Log2Histogram::quantile)
//!   estimates — the one latency-percentile implementation shared by
//!   the runtime and the serve benchmark. Its frozen form,
//!   [`HistogramSnapshot`], is also the single-owner histogram the
//!   probes and the PBT runner record into.
//!
//! Every metric is registered with a [`Determinism`] class. The repo's
//! standing invariant is that exports are byte-identical across runs
//! and thread counts for the same workload; wall-clock material
//! (latency histograms) can never satisfy that, so it is quarantined:
//! [`MetricsSnapshot::to_json`] renders both sections (schema
//! `indrel.metrics/1`), while
//! [`MetricsSnapshot::deterministic_json`] — the form byte-identity
//! tests compare — omits the wall-clock section entirely.
//! [`MetricsSnapshot::to_prometheus`] renders the conventional text
//! exposition for scraping. A snapshot is the one export format for
//! aggregate telemetry: the search probe renders its counters as one
//! too ([`SearchStats::snapshot`](crate::probe::SearchStats::snapshot)).
//!
//! Registration takes a `Mutex` (cold path, once per metric name);
//! the returned `Arc` handles are what the hot path touches.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::probe::{json_escape, lock};

/// Whether a metric's value is a pure function of the workload (and so
/// participates in byte-identity checks) or depends on wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Determinism {
    /// Same workload ⇒ same value, at any thread count. Compared
    /// byte-for-byte by the determinism test suite.
    Deterministic,
    /// Timing-dependent (latencies, wall milliseconds). Excluded from
    /// [`MetricsSnapshot::deterministic_json`].
    WallClock,
}

impl Determinism {
    fn label(self) -> &'static str {
        match self {
            Determinism::Deterministic => "deterministic",
            Determinism::WallClock => "wall_clock",
        }
    }
}

/// Stripes per [`Counter`]. A small power of two: enough that the
/// serve worker counts we target (≤ 16) rarely collide, small enough
/// that summing on snapshot stays trivial.
const STRIPES: usize = 16;

/// One cache line per stripe so concurrent increments from different
/// workers do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

thread_local! {
    /// Each thread gets a sticky stripe index, assigned round-robin at
    /// first use — cheaper and more evenly spread than hashing thread
    /// ids on every bump.
    static STRIPE: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES
    };
}

/// A lock-free monotone counter, striped across cache lines. Bumps are
/// one relaxed `fetch_add` on the calling thread's stripe;
/// [`value`](Counter::value) sums the stripes (a snapshot-time
/// operation — it need not be atomic across stripes, counters only
/// grow).
#[derive(Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        STRIPE.with(|&i| self.stripes[i].0.fetch_add(n, Ordering::Relaxed));
    }

    /// The current sum over all stripes.
    pub fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.value())
            .finish()
    }
}

/// A point-in-time level: a single atomic cell with set/add/sub. Used
/// for values that go both ways (in-flight requests) or are replaced
/// wholesale at snapshot time (table entries).
#[derive(Debug, Default)]
pub struct Gauge {
    cell: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replaces the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n` (callers keep adds and subs balanced;
    /// the cell is unsigned).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current level.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Bucket count: bit lengths 0..=64 cover every `u64`.
const HIST_BUCKETS: usize = 65;

/// The bucket index for a sample: its bit length.
#[inline]
fn bucket(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive `[lo, hi]` range of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 0)
    } else if b >= 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (b - 1), (1u64 << b) - 1)
    }
}

/// An atomic log₂ histogram, shareable across worker threads without a
/// lock: recording is three relaxed atomic ops (bucket, count+sum) plus
/// a `fetch_max`. Aggregation happens at snapshot time.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Log2Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for export (bucket counts are read
    /// relaxed; concurrent recorders may be mid-update, which skews a
    /// snapshot by at most the in-flight samples).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Bucket-interpolated quantile estimate (`q` in `[0, 1]`); see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// A frozen [`Log2Histogram`]: what snapshots and exports carry. It
/// is also a plain single-owner histogram: [`record`](Self::record)
/// and [`merge`](Self::merge) build one without atomics. Equality and
/// every rendering ignore trailing empty buckets, so a histogram built
/// with `record` equals a [`Log2Histogram::snapshot`] of the same
/// samples.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Records one sample as [`Log2Histogram::record`] does; the sum
    /// wraps on overflow like that method's `fetch_add`.
    pub fn record(&mut self, v: u64) {
        let b = bucket(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one: bucket counts and counts
    /// add, sums add as [`record`](Self::record) does, maxima take the
    /// larger. Merging is associative and commutative, so per-worker
    /// histograms combine into the same aggregate in any merge order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (c, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The buckets up to the last non-empty one.
    fn used_buckets(&self) -> &[u64] {
        let len = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |b| b + 1);
        &self.buckets[..len]
    }

    /// Non-empty buckets as `(lo, hi, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(b, c)| {
                let (lo, hi) = bucket_range(b);
                (lo, hi, *c)
            })
            .collect()
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile with linear interpolation inside the
    /// landing bucket, clamped to the observed max. `q` is a fraction
    /// (`0.5` = median, `0.99` = p99); returns 0 for an empty
    /// histogram. Log₂ buckets bound the relative error by 2×, which
    /// is the resolution the serve benchmark reports at.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < seen + c {
                let (lo, hi) = bucket_range(b);
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Deterministic JSON: totals plus the non-empty buckets.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, hi, c)| format!(r#"{{"lo":{lo},"hi":{hi},"count":{c}}}"#))
            .collect();
        format!(
            r#"{{"count":{},"sum":{},"max":{},"buckets":[{}]}}"#,
            self.count,
            self.sum,
            self.max,
            buckets.join(",")
        )
    }
}

impl PartialEq for HistogramSnapshot {
    fn eq(&self, other: &HistogramSnapshot) -> bool {
        (self.count, self.sum, self.max) == (other.count, other.sum, other.max)
            && self.used_buckets() == other.used_buckets()
    }
}

impl Eq for HistogramSnapshot {}

/// `(empty)`, or the non-empty buckets as `lo-hi:count` (`lo:count`
/// for one-value buckets) followed by `(n=…, mean …, max …)`.
impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return f.write_str("(empty)");
        }
        let parts: Vec<String> = self
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, hi, c)| {
                if lo == hi {
                    format!("{lo}:{c}")
                } else {
                    format!("{lo}-{hi}:{c}")
                }
            })
            .collect();
        write!(
            f,
            "{} (n={}, mean {:.1}, max {})",
            parts.join(" "),
            self.count,
            self.mean(),
            self.max
        )
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, (Arc<Counter>, Determinism)>,
    gauges: BTreeMap<String, (Arc<Gauge>, Determinism)>,
    histograms: BTreeMap<String, (Arc<Log2Histogram>, Determinism)>,
}

/// The metric registry: name → cell, with get-or-register semantics.
/// Clones share state; the hot path never touches the registry — it
/// holds the `Arc<Counter>`/`Arc<Gauge>`/`Arc<Log2Histogram>` handles
/// returned at registration and bumps those directly.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, creating it on first use.
    /// The determinism class of the first registration wins.
    pub fn counter(&self, name: &str, det: Determinism) -> Arc<Counter> {
        lock(&self.inner)
            .counters
            .entry(name.to_string())
            .or_insert_with(|| (Arc::new(Counter::new()), det))
            .0
            .clone()
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str, det: Determinism) -> Arc<Gauge> {
        lock(&self.inner)
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| (Arc::new(Gauge::new()), det))
            .0
            .clone()
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str, det: Determinism) -> Arc<Log2Histogram> {
        lock(&self.inner)
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| (Arc::new(Log2Histogram::new()), det))
            .0
            .clone()
    }

    /// Freezes every registered metric into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock(&self.inner);
        let mut snap = MetricsSnapshot::default();
        for (name, (c, det)) in &inner.counters {
            snap.insert_counter(name, c.value(), *det);
        }
        for (name, (g, det)) in &inner.gauges {
            snap.insert_gauge(name, g.value(), *det);
        }
        for (name, (h, det)) in &inner.histograms {
            snap.insert_histogram(name, h.snapshot(), *det);
        }
        snap
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// A frozen, export-ready view of a registry (plus anything the caller
/// merges in with the `insert_*` methods or [`extend`](Self::extend) —
/// the server folds its table's counters and a `SearchStats` snapshot
/// into its snapshots this way, so one document carries the whole
/// picture).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, (u64, Determinism)>,
    gauges: BTreeMap<String, (u64, Determinism)>,
    histograms: BTreeMap<String, (HistogramSnapshot, Determinism)>,
}

impl MetricsSnapshot {
    /// An empty snapshot, for callers assembling one by hand.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Adds (or replaces) a counter value.
    pub fn insert_counter(&mut self, name: &str, value: u64, det: Determinism) {
        self.counters.insert(name.to_string(), (value, det));
    }

    /// Adds (or replaces) a gauge value.
    pub fn insert_gauge(&mut self, name: &str, value: u64, det: Determinism) {
        self.gauges.insert(name.to_string(), (value, det));
    }

    /// Adds (or replaces) a histogram.
    pub fn insert_histogram(&mut self, name: &str, h: HistogramSnapshot, det: Determinism) {
        self.histograms.insert(name.to_string(), (h, det));
    }

    /// Adds every series of `other`, replacing same-named ones.
    pub fn extend(&mut self, other: MetricsSnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
    }

    /// Reads back a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|(v, _)| *v)
    }

    /// Reads back a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).map(|(v, _)| *v)
    }

    /// Reads back a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name).map(|(h, _)| h)
    }

    fn section_json(&self, det: Determinism) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .filter(|(_, (_, d))| *d == det)
            .map(|(name, (v, _))| format!(r#""{}":{v}"#, json_escape(name)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .filter(|(_, (_, d))| *d == det)
            .map(|(name, (v, _))| format!(r#""{}":{v}"#, json_escape(name)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .filter(|(_, (_, d))| *d == det)
            .map(|(name, (h, _))| format!(r#""{}":{}"#, json_escape(name), h.to_json()))
            .collect();
        format!(
            r#"{{"counters":{{{}}},"gauges":{{{}}},"histograms":{{{}}}}}"#,
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }

    /// The full export: schema `indrel.metrics/1`, every map sorted by
    /// name, deterministic and wall-clock metrics in separate sections.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"schema":"indrel.metrics/1","deterministic":{},"wall_clock":{}}}"#,
            self.section_json(Determinism::Deterministic),
            self.section_json(Determinism::WallClock)
        )
    }

    /// The byte-identity form: schema plus the deterministic section
    /// only. Two runs of the same workload — at any thread count —
    /// must produce identical bytes here; the wall-clock section is
    /// deliberately absent.
    pub fn deterministic_json(&self) -> String {
        format!(
            r#"{{"schema":"indrel.metrics/1","deterministic":{}}}"#,
            self.section_json(Determinism::Deterministic)
        )
    }

    /// Prometheus-style text exposition: `# TYPE` headers, sanitized
    /// names, histograms as cumulative `_bucket{{le="…"}}` series plus
    /// `_sum`/`_count`. Deterministic metrics and wall-clock metrics
    /// render alike here (scrapers do their own timestamping).
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, (v, _)) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, (v, _)) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, (h, _)) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (_, hi, c) in h.nonzero_buckets() {
                cumulative += c;
                out.push_str(&format!("{n}_bucket{{le=\"{hi}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "metrics snapshot: {} counters, {} gauges, {} histograms",
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len()
        )?;
        for (name, (v, det)) in &self.counters {
            writeln!(f, "  {name:<40} {v:>12}  [{}]", det.label())?;
        }
        for (name, (v, det)) in &self.gauges {
            writeln!(f, "  {name:<40} {v:>12}  [{}]", det.label())?;
        }
        for (name, (h, det)) in &self.histograms {
            writeln!(
                f,
                "  {name:<40} n={} mean={:.1} p50={:.1} p99={:.1} max={}  [{}]",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max,
                det.label()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_stripes_sum() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        c.add(0);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn counter_concurrent_increments_all_land() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn gauge_levels() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.value(), 12);
    }

    #[test]
    fn histogram_buckets_match_hist_semantics() {
        let h = Log2Histogram::new();
        for v in [0, 0, 1, 2, 3, 4, 7, 8, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 9);
        assert_eq!(s.sum, 125);
        assert_eq!(s.max, 100);
        assert_eq!(
            s.nonzero_buckets(),
            vec![
                (0, 0, 2),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 2),
                (8, 15, 1),
                (64, 127, 1)
            ]
        );
        assert!(s
            .to_json()
            .starts_with(r#"{"count":9,"sum":125,"max":100,"#));
    }

    #[test]
    fn recorded_histogram_equals_atomic_snapshot() {
        let samples = [0, 0, 1, 2, 3, 4, 7, 8, 100, u64::MAX, u64::MAX];
        let atomic = Log2Histogram::new();
        let mut owned = HistogramSnapshot::default();
        assert_eq!(owned, atomic.snapshot(), "empty equals empty");
        assert_eq!(owned.to_string(), "(empty)");
        for v in samples {
            atomic.record(v);
            owned.record(v);
        }
        // Both sums wrap identically past u64::MAX.
        assert_eq!(owned, atomic.snapshot());
        assert_eq!(owned.to_json(), atomic.snapshot().to_json());
        assert_eq!(owned.to_string(), atomic.snapshot().to_string());
        assert_eq!(owned.count, 11);
        assert_eq!(
            owned.nonzero_buckets().last(),
            Some(&(1 << 63, u64::MAX, 2)),
            "the top bucket's range does not overflow"
        );
        assert_eq!(
            owned.to_string(),
            "0:2 1:1 2-3:2 4-7:2 8-15:1 64-127:1 9223372036854775808-18446744073709551615:2 \
             (n=11, mean 11.2, max 18446744073709551615)"
        );
    }

    #[test]
    fn histogram_merge_is_associative() {
        let hist = |samples: &[u64]| {
            let mut h = HistogramSnapshot::default();
            for &v in samples {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (hist(&[0, 1, 2]), hist(&[3, 100]), hist(&[7]));
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, hist(&[0, 1, 2, 3, 100, 7]));
        assert_eq!(ab_c.count, 6);
        assert_eq!(ab_c.max, 100);
        assert_eq!(ab_c.to_json(), a_bc.to_json());
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let h = Log2Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Log₂ buckets bound the estimate within a factor of two.
        assert!((25_000.0..=100_000.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(p99 <= 100_000.0, "clamped to observed max, got {p99}");
        assert_eq!(h.quantile(1.0), h.quantile(2.0), "q clamps to [0,1]");
    }

    #[test]
    fn registry_get_or_register_shares_cells() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("serve.requests", Determinism::Deterministic);
        let b = reg.counter("serve.requests", Determinism::Deterministic);
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2, "same cell under one name");
        reg.gauge("serve.inflight", Determinism::Deterministic)
            .set(3);
        reg.histogram("serve.latency_ns", Determinism::WallClock)
            .record(150);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(2));
        assert_eq!(snap.gauge("serve.inflight"), Some(3));
        assert_eq!(snap.histogram("serve.latency_ns").unwrap().count, 1);
    }

    #[test]
    fn snapshot_json_separates_determinism_classes() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests", Determinism::Deterministic)
            .add(7);
        reg.counter("serve.memo.hits", Determinism::Deterministic)
            .add(4);
        reg.histogram("serve.latency_ns", Determinism::WallClock)
            .record(99);
        let snap = reg.snapshot();
        let full = snap.to_json();
        assert!(full.starts_with(r#"{"schema":"indrel.metrics/1","deterministic":"#));
        assert!(full.contains(r#""serve.latency_ns":{"count":1"#), "{full}");
        // Sorted keys: memo.hits before requests.
        let hits = full.find("serve.memo.hits").unwrap();
        let reqs = full.find("serve.requests").unwrap();
        assert!(hits < reqs, "sorted key order");
        let det = snap.deterministic_json();
        assert!(!det.contains("wall_clock"), "{det}");
        assert!(!det.contains("latency"), "{det}");
        assert!(det.contains(r#""serve.requests":7"#), "{det}");
        assert_eq!(det, snap.deterministic_json(), "stable bytes");
    }

    #[test]
    fn prometheus_exposition_renders_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests", Determinism::Deterministic)
            .add(5);
        reg.gauge("serve.inflight", Determinism::Deterministic)
            .set(2);
        let h = reg.histogram("serve.latency_ns", Determinism::WallClock);
        h.record(3);
        h.record(12);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 5\n"));
        assert!(text.contains("# TYPE serve_inflight gauge\nserve_inflight 2\n"));
        assert!(text.contains("# TYPE serve_latency_ns histogram\n"));
        assert!(text.contains("serve_latency_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("serve_latency_ns_sum 15\nserve_latency_ns_count 2\n"));
    }

    /// One counter, one gauge and one histogram in each determinism
    /// class: the fixture the golden-byte tests render.
    fn golden_snapshot() -> MetricsSnapshot {
        let (det, wall) = (Determinism::Deterministic, Determinism::WallClock);
        let hist = |samples: &[u64]| {
            let h = Log2Histogram::new();
            for &v in samples {
                h.record(v);
            }
            h.snapshot()
        };
        let mut snap = MetricsSnapshot::new();
        snap.insert_counter("search.events", 42, det);
        snap.insert_counter("bench.wall_ms", 7, wall);
        snap.insert_gauge("memo.entries", 3, det);
        snap.insert_gauge("serve.inflight_peak", 2, wall);
        snap.insert_histogram("search.depth", hist(&[0, 3, 12]), det);
        snap.insert_histogram("serve.latency_ns", hist(&[150, 900]), wall);
        snap
    }

    const GOLDEN_DETERMINISTIC: &str = concat!(
        r#"{"counters":{"search.events":42},"gauges":{"memo.entries":3},"#,
        r#""histograms":{"search.depth":{"count":3,"sum":15,"max":12,"buckets":["#,
        r#"{"lo":0,"hi":0,"count":1},{"lo":2,"hi":3,"count":1},{"lo":8,"hi":15,"count":1}]}}}"#
    );

    const GOLDEN_WALL_CLOCK: &str = concat!(
        r#"{"counters":{"bench.wall_ms":7},"gauges":{"serve.inflight_peak":2},"#,
        r#""histograms":{"serve.latency_ns":{"count":2,"sum":1050,"max":900,"buckets":["#,
        r#"{"lo":128,"hi":255,"count":1},{"lo":512,"hi":1023,"count":1}]}}}"#
    );

    #[test]
    fn golden_to_json() {
        assert_eq!(
            golden_snapshot().to_json(),
            format!(
                r#"{{"schema":"indrel.metrics/1","deterministic":{GOLDEN_DETERMINISTIC},"wall_clock":{GOLDEN_WALL_CLOCK}}}"#
            )
        );
    }

    #[test]
    fn golden_deterministic_json() {
        assert_eq!(
            golden_snapshot().deterministic_json(),
            format!(r#"{{"schema":"indrel.metrics/1","deterministic":{GOLDEN_DETERMINISTIC}}}"#)
        );
    }

    #[test]
    fn golden_to_prometheus() {
        let want = "\
# TYPE bench_wall_ms counter
bench_wall_ms 7
# TYPE search_events counter
search_events 42
# TYPE memo_entries gauge
memo_entries 3
# TYPE serve_inflight_peak gauge
serve_inflight_peak 2
# TYPE search_depth histogram
search_depth_bucket{le=\"0\"} 1
search_depth_bucket{le=\"3\"} 2
search_depth_bucket{le=\"15\"} 3
search_depth_bucket{le=\"+Inf\"} 3
search_depth_sum 15
search_depth_count 3
# TYPE serve_latency_ns histogram
serve_latency_ns_bucket{le=\"255\"} 1
serve_latency_ns_bucket{le=\"1023\"} 2
serve_latency_ns_bucket{le=\"+Inf\"} 2
serve_latency_ns_sum 1050
serve_latency_ns_count 2
";
        assert_eq!(golden_snapshot().to_prometheus(), want);
    }

    #[test]
    fn snapshot_insert_merges_external_totals() {
        let mut snap = MetricsSnapshot::new();
        snap.insert_counter("memo.hits", 11, Determinism::Deterministic);
        snap.insert_gauge("memo.entries", 4, Determinism::Deterministic);
        assert_eq!(snap.counter("memo.hits"), Some(11));
        assert!(snap.deterministic_json().contains(r#""memo.entries":4"#));
    }

    #[test]
    fn cells_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Log2Histogram>();
        assert_send_sync::<MetricsRegistry>();
    }
}
