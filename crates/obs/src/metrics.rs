//! A lock-minimal metrics registry: named counters, gauges and bucketed
//! latency histograms.
//!
//! Registration takes a short mutex hold on a `BTreeMap`; the returned
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles update shared atomics with no lock
//! at all, so hot protocol paths pay one `fetch_add` per event. All keys
//! and snapshot orderings are `BTreeMap`-based, so two runs that count
//! the same events export byte-identical JSON — the property the
//! determinism lint protects everywhere else in the workspace.
//!
//! Histogram values are integer microseconds: bucket bounds, counts and
//! sums are all `u64`, keeping the crate free of floating point. Even
//! the percentile summaries in snapshots ([`HistogramSnapshot::quantile`]
//! and the `p50`/`p95`/`p99` JSON fields) are integer rank arithmetic
//! over the buckets: a quantile is reported as the upper bound of the
//! bucket containing its rank — a deterministic upper estimate, never an
//! interpolation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default histogram bucket upper bounds for latencies, in microseconds
/// (roughly logarithmic from 1 µs to 1 s).
pub const LATENCY_BOUNDS_US: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000,
];

/// A monotone counter handle. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not in any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A gauge handle: a level that can move both ways (inbox depth,
/// recorder buffer occupancy, batch fill). Cloning shares the cell.
///
/// Signed by design — a gauge is a *level*, not a rate, and transient
/// levels (e.g. a backlog delta) can legitimately dip below zero.
/// Unlike counters, a gauge's snapshot delta is the later level itself:
/// subtracting two levels would yield a meaningless slope sample.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A free-standing gauge (not in any registry), starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Move the level up by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Move the level down by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

struct HistogramInner {
    /// Inclusive upper bounds, strictly increasing; an implicit overflow
    /// bucket catches everything above the last bound.
    bounds: Vec<u64>,
    /// One cell per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A bucketed histogram handle. Cloning shares the underlying cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A free-standing histogram over `bounds` (inclusive upper bounds,
    /// strictly increasing).
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={})", self.count())
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of counters, gauges and histograms.
///
/// The mutex guards only (de)registration and snapshotting; updates go
/// through the handles and never touch it.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name`, registering it at zero on first use.
    /// The same name always yields handles on the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.lock();
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        let c = Counter::new();
        inner.counters.insert(name.to_owned(), c.clone());
        c
    }

    /// The gauge named `name`, registering it at zero on first use.
    /// The same name always yields handles on the same cell.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.lock();
        if let Some(g) = inner.gauges.get(name) {
            return g.clone();
        }
        let g = Gauge::new();
        inner.gauges.insert(name.to_owned(), g.clone());
        g
    }

    /// The histogram named `name`, registering it over `bounds` on first
    /// use (later calls reuse the original bounds).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.lock();
        if let Some(h) = inner.histograms.get(name) {
            return h.clone();
        }
        let h = Histogram::new(bounds);
        inner.histograms.insert(name.to_owned(), h.clone());
        h
    }

    /// Current value of the counter named `name` (zero if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .get(name)
            .map(Counter::get)
            .unwrap_or(0)
    }

    /// Zero every counter, gauge and histogram, keeping all handles
    /// valid.
    pub fn reset(&self) {
        let inner = self.lock();
        for c in inner.counters.values() {
            c.reset();
        }
        for g in inner.gauges.values() {
            g.reset();
        }
        for h in inner.histograms.values() {
            h.reset();
        }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.snapshot(), f)
    }
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one more entry than `bounds` (overflow last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The `num/den` quantile (e.g. `quantile(95, 100)` for p95) as the
    /// inclusive upper bound of the bucket holding that rank.
    ///
    /// Integer-only by design: the rank is `ceil(count · num / den)`
    /// (computed in `u128`, so it cannot overflow), and the answer is a
    /// bucket *bound*, not an interpolated value — an upper estimate
    /// with error bounded by the bucket width. Returns `None` when the
    /// histogram is empty or the rank falls in the overflow bucket
    /// (above every finite bound, so no finite estimate exists).
    pub fn quantile(&self, num: u64, den: u64) -> Option<u64> {
        if self.count == 0 || den == 0 {
            return None;
        }
        let num = self.count as u128 * num as u128;
        let den = den as u128;
        let rank = num.div_ceil(den).max(1);
        let mut seen: u128 = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += *b as u128;
            if seen >= rank {
                return self.bounds.get(i).copied();
            }
        }
        None
    }

    fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let same_shape = earlier.bounds == self.bounds;
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let e = if same_shape {
                        earlier.buckets.get(i).copied().unwrap_or(0)
                    } else {
                        0
                    };
                    b.saturating_sub(e)
                })
                .collect(),
            count: self
                .count
                .saturating_sub(if same_shape { earlier.count } else { 0 }),
            sum: self
                .sum
                .saturating_sub(if same_shape { earlier.sum } else { 0 }),
        }
    }
}

/// A deterministic point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The counter named `name` (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge named `name` (zero if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The change from `earlier` to `self`, per metric. Metrics absent
    /// from `earlier` count from zero; a reset in between saturates to
    /// zero instead of underflowing. Gauges are *levels*, so the delta
    /// keeps the later level unchanged rather than subtracting.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        match earlier.histograms.get(k) {
                            Some(e) => h.delta(e),
                            None => h.clone(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Render as a JSON object. Keys appear in `BTreeMap` order, so the
    /// output is deterministic for a given snapshot.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push_str(":{\"bounds\":");
            push_json_u64s(&mut out, &h.bounds);
            out.push_str(",\"buckets\":");
            push_json_u64s(&mut out, &h.buckets);
            out.push_str(",\"count\":");
            out.push_str(&h.count.to_string());
            for (label, num) in [("p50", 50u64), ("p95", 95), ("p99", 99)] {
                if let Some(q) = h.quantile(num, 100) {
                    out.push_str(",\"");
                    out.push_str(label);
                    out.push_str("\":");
                    out.push_str(&q.to_string());
                }
            }
            out.push_str(",\"sum\":");
            out.push_str(&h.sum.to_string());
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Append `s` as a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_u64s(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_the_cell() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter_value("x"), 3);
        assert_eq!(a.get(), 3);
        assert_eq!(r.counter_value("absent"), 0);
    }

    #[test]
    fn histogram_buckets_by_inclusive_bound() {
        let h = Histogram::new(&[10, 100]);
        h.record(5);
        h.record(10);
        h.record(11);
        h.record(1_000); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 1, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 5 + 10 + 11 + 1_000);
    }

    #[test]
    fn snapshot_delta_subtracts_per_metric() {
        let r = Registry::new();
        let c = r.counter("sends.decision");
        let h = r.histogram("lat", &[10]);
        c.add(5);
        h.record(3);
        let before = r.snapshot();
        c.add(2);
        h.record(30);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter("sends.decision"), 2);
        assert_eq!(d.histograms["lat"].count, 1);
        assert_eq!(d.histograms["lat"].buckets, vec![0, 1]);
        assert_eq!(d.histograms["lat"].sum, 30);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("a");
        let h = r.histogram("b", &[1]);
        c.inc();
        h.record(9);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(r.counter_value("a"), 1);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").add(2);
        r.gauge("depth").set(-3);
        r.histogram("lat", &[5, 50]).record(7);
        let j = r.snapshot().to_json();
        assert_eq!(
            j,
            "{\"counters\":{\"a\":2,\"z\":1},\"gauges\":{\"depth\":-3},\
             \"histograms\":{\"lat\":{\"bounds\":[5,50],\
             \"buckets\":[0,1,0],\"count\":1,\"p50\":50,\"p95\":50,\"p99\":50,\"sum\":7}}}"
        );
        // Stable across snapshots.
        assert_eq!(j, r.snapshot().to_json());
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::new(&[10, 100, 1_000]);
        for _ in 0..50 {
            h.record(5); // bucket ≤10
        }
        for _ in 0..45 {
            h.record(50); // bucket ≤100
        }
        for _ in 0..5 {
            h.record(500); // bucket ≤1000
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(50, 100), Some(10)); // rank 50 is the last ≤10
        assert_eq!(s.quantile(95, 100), Some(100)); // rank 95 is the last ≤100
        assert_eq!(s.quantile(99, 100), Some(1_000));
        assert_eq!(s.quantile(100, 100), Some(1_000));
    }

    #[test]
    fn quantiles_of_empty_or_overflowed_histograms_are_absent() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.snapshot().quantile(50, 100), None);
        // Everything above the last bound: no finite estimate, and the
        // JSON omits the percentile keys rather than inventing a bound.
        h.record(11);
        let s = h.snapshot();
        assert_eq!(s.quantile(50, 100), None);
        let r = Registry::new();
        let rh = r.histogram("over", &[10]);
        rh.record(11);
        let j = r.snapshot().to_json();
        assert!(!j.contains("p50"), "{j}");
        // A mixed histogram still reports the quantiles that resolve.
        rh.record(1);
        let s = r.snapshot();
        assert_eq!(s.histograms["over"].quantile(50, 100), Some(10));
        assert_eq!(s.histograms["over"].quantile(99, 100), None);
        let j = s.to_json();
        assert!(j.contains("\"p50\":10"), "{j}");
        assert!(!j.contains("p99"), "{j}");
    }

    #[test]
    fn gauge_handles_share_the_cell_and_move_both_ways() {
        let r = Registry::new();
        let a = r.gauge("inbox.depth");
        let b = r.gauge("inbox.depth");
        a.set(10);
        b.add(5);
        a.sub(20);
        assert_eq!(b.get(), -5);
        assert_eq!(r.snapshot().gauge("inbox.depth"), -5);
        assert_eq!(r.snapshot().gauge("absent"), 0);
    }

    #[test]
    fn gauge_delta_keeps_the_later_level() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(100);
        let before = r.snapshot();
        g.set(40);
        let after = r.snapshot();
        // Levels are not rates: the delta reports where the gauge *is*.
        assert_eq!(after.delta(&before).gauge("depth"), 40);
    }

    #[test]
    fn reset_zeroes_gauges_but_keeps_handles() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(7);
        r.reset();
        assert_eq!(g.get(), 0);
        g.add(3);
        assert_eq!(r.snapshot().gauge("depth"), 3);
    }

    #[test]
    fn json_escapes_odd_names() {
        let r = Registry::new();
        r.counter("we\"ird\\name").inc();
        let j = r.snapshot().to_json();
        assert!(j.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn latency_bounds_are_increasing() {
        assert!(LATENCY_BOUNDS_US.windows(2).all(|w| w[0] < w[1]));
    }
}
