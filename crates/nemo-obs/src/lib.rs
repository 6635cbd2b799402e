//! Lock-free metrics and lightweight tracing for the nemo serving stack.
//!
//! The crate is deliberately dependency-free: it offers three atomic
//! primitives — [`Counter`], [`Gauge`] and [`Histogram`] (fixed
//! exponential buckets, mergeable snapshots) — collected under a
//! cheaply-cloneable [`Registry`], plus [`SpanTimer`] guards that time a
//! span into a histogram. Request-scoped span trees are the [`trace`]
//! module's.
//!
//! # Hot-path cost
//!
//! Recording is a handful of `Relaxed` atomic operations on
//! pre-registered handles; the registry's interior `Mutex` is touched
//! only at registration and snapshot time, never while recording. Taking
//! a [`Snapshot`] is the only operation that walks the registry.
//!
//! # Logical vs physical metrics
//!
//! Every metric carries a [`Class`]:
//!
//! * [`Class::Logical`] — a pure function of the request stream. Logical
//!   metrics must be byte-identical across `NEMO_THREADS` and shard
//!   counts; the determinism suite asserts this on
//!   [`Snapshot::logical_only`] documents.
//! * [`Class::Physical`] — timings, I/O layout, scheduling. These vary
//!   run to run and are excluded from transcripts and determinism
//!   comparisons.
//!
//! # Exposition
//!
//! A [`Snapshot`] renders as a canonical `nemo-metrics/v1` JSON document
//! ([`Snapshot::to_json`], object keys sorted) or as Prometheus-style
//! text ([`Snapshot::to_prometheus`]).

#![warn(missing_docs)]

pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The schema tag every metrics document carries.
pub const SCHEMA: &str = "nemo-metrics/v1";

/// Number of histogram buckets. Bucket `i < HISTOGRAM_BUCKETS - 1` holds
/// values `v` with `v <= 2^i` (bucket 0 additionally holds 0); the last
/// bucket is the `+Inf` overflow.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// Whether a metric is reproducible across thread and shard counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A pure function of the request stream — identical at any
    /// `NEMO_THREADS` and shard count, safe to compare byte-for-byte.
    Logical,
    /// Timing-, layout- or scheduling-dependent — excluded from
    /// determinism comparisons and transcripts.
    Physical,
}

impl Class {
    /// The lowercase name used in JSON documents.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Logical => "logical",
            Class::Physical => "physical",
        }
    }
}

/// A monotonically increasing `u64` counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge. Cloning shares the cell; prefer delta updates
/// ([`Gauge::add`]/[`Gauge::sub`]) when several components share one
/// gauge, and [`Gauge::set`] for sampled values owned by one writer.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket exponential histogram of `u64` samples (typically
/// microseconds). Recording is lock-free; [`Histogram::snapshot`]
/// produces a mergeable [`HistogramSnapshot`].
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

#[derive(Debug)]
struct HistogramCells {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCells {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// The index of the bucket holding `value`.
    fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            let ceil_log2 = 64 - (value - 1).leading_zeros() as usize;
            ceil_log2.min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The inclusive upper bound of bucket `i`, or `None` for the final
    /// `+Inf` bucket.
    pub fn bucket_bound(i: usize) -> Option<u64> {
        if i + 1 < HISTOGRAM_BUCKETS {
            Some(1u64 << i)
        } else {
            None
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Starts timing a span: the returned guard records its wall-clock
    /// duration in microseconds into this histogram on drop.
    pub fn time(&self) -> SpanTimer {
        SpanTimer {
            histogram: self.clone(),
            started: Instant::now(),
        }
    }

    /// A point-in-time copy of the bucket counts. Concurrent recording
    /// may make `count` and the bucket total momentarily disagree by the
    /// records in flight; quiesce before snapshotting when exactness
    /// matters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
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
}

/// A frozen copy of a [`Histogram`]. Snapshots from histograms with the
/// same (fixed) bucket layout merge losslessly and associatively.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, `HISTOGRAM_BUCKETS` entries.
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Folds `other` into `self` bucket by bucket. Merging the snapshots
    /// of two disjoint sample sets equals the snapshot of their union.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; other.buckets.len()];
        }
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram snapshots with different bucket layouts cannot merge"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// One registered metric: its class plus the live handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Class, Counter),
    Gauge(Class, Gauge),
    Histogram(Class, Histogram),
}

#[derive(Debug, Default)]
struct RegistryCells {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// A shareable collection of named metrics. Cloning shares the
/// underlying registry; `Default` creates a fresh empty one.
///
/// Registration is idempotent: asking for an existing name returns a
/// handle to the same cell (the class of the first registration wins).
/// Re-registering a name as a different *kind* panics — that is a
/// programming error, not a runtime condition.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    cells: Arc<RegistryCells>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or retrieves) the counter `name`.
    pub fn counter(&self, name: &str, class: Class) -> Counter {
        let mut metrics = self.cells.metrics.lock().expect("metrics lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(class, Counter::default()))
        {
            Metric::Counter(_, handle) => handle.clone(),
            other => panic!("metric {name} already registered as {}", kind_name(other)),
        }
    }

    /// Registers (or retrieves) the gauge `name`.
    pub fn gauge(&self, name: &str, class: Class) -> Gauge {
        let mut metrics = self.cells.metrics.lock().expect("metrics lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(class, Gauge::default()))
        {
            Metric::Gauge(_, handle) => handle.clone(),
            other => panic!("metric {name} already registered as {}", kind_name(other)),
        }
    }

    /// Registers (or retrieves) the histogram `name`.
    pub fn histogram(&self, name: &str, class: Class) -> Histogram {
        let mut metrics = self.cells.metrics.lock().expect("metrics lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(class, Histogram::default()))
        {
            Metric::Histogram(_, handle) => handle.clone(),
            other => panic!("metric {name} already registered as {}", kind_name(other)),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.cells.metrics.lock().expect("metrics lock");
        Snapshot {
            metrics: metrics
                .iter()
                .map(|(name, metric)| {
                    let snap = match metric {
                        Metric::Counter(class, c) => MetricSnapshot {
                            class: *class,
                            value: Value::Counter(c.get()),
                        },
                        Metric::Gauge(class, g) => MetricSnapshot {
                            class: *class,
                            value: Value::Gauge(g.get()),
                        },
                        Metric::Histogram(class, h) => MetricSnapshot {
                            class: *class,
                            value: Value::Histogram(h.snapshot()),
                        },
                    };
                    (name.clone(), snap)
                })
                .collect(),
        }
    }
}

fn kind_name(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(..) => "counter",
        Metric::Gauge(..) => "gauge",
        Metric::Histogram(..) => "histogram",
    }
}

/// A guard measuring one span; see [`Histogram::time`].
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Histogram,
    started: Instant,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let micros = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.histogram.record(micros);
    }
}

/// The frozen value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// The metric's determinism class.
    pub class: Class,
    /// The frozen value.
    pub value: Value,
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram reading.
    Histogram(HistogramSnapshot),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time copy of a whole [`Registry`], name-sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Metric name → frozen value, in `BTreeMap` (byte) order.
    pub metrics: BTreeMap<String, MetricSnapshot>,
}

impl Snapshot {
    /// Only the [`Class::Logical`] metrics — the subset the determinism
    /// suite compares byte-for-byte across thread and shard counts.
    pub fn logical_only(&self) -> Snapshot {
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .filter(|(_, m)| m.class == Class::Logical)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// The canonical `nemo-metrics/v1` JSON document: object keys sorted,
    /// integers exact, no whitespace. Parseable by any JSON parser.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"class\":\"{}\",\"kind\":\"{}\",\"value\":",
                json_string(name),
                metric.class.as_str(),
                metric.value.kind()
            );
            match &metric.value {
                Value::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::Gauge(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::Histogram(h) => {
                    out.push_str("{\"bounds\":[");
                    for (j, _) in h.buckets.iter().enumerate().take(h.buckets.len() - 1) {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}", Histogram::bucket_bound(j).unwrap_or(0));
                    }
                    out.push_str("],\"buckets\":[");
                    for (j, b) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    let _ = write!(out, "],\"count\":{},\"sum\":{}}}", h.count, h.sum);
                }
            }
            out.push('}');
        }
        let _ = write!(out, "}},\"schema\":\"{SCHEMA}\"}}");
        out
    }

    /// Prometheus-style text exposition: `# TYPE` headers, cumulative
    /// `_bucket{{le="…"}}` series for histograms, one metric per family.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            match &metric.value {
                Value::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                Value::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
                Value::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cumulative += b;
                        match Histogram::bucket_bound(i) {
                            Some(bound) => {
                                let _ =
                                    writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                            }
                            None => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                            }
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
                }
            }
        }
        out
    }
}

/// Escapes `text` as a JSON string literal, quotes included.
pub(crate) fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_across_clones() {
        let registry = Registry::new();
        let c = registry.counter("serve_mutations_applied", Class::Logical);
        let c2 = registry.counter("serve_mutations_applied", Class::Logical);
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);

        let g = registry.gauge("store_segments", Class::Physical);
        let g2 = registry.gauge("store_segments", Class::Physical);
        g.add(3);
        g2.sub(1);
        assert_eq!(g.get(), 2);
        g.set(-7);
        assert_eq!(g2.get(), -7);
    }

    #[test]
    #[should_panic(expected = "already registered as counter")]
    fn re_registering_a_name_as_another_kind_panics() {
        let registry = Registry::new();
        registry.counter("x", Class::Physical);
        registry.gauge("x", Class::Physical);
    }

    #[test]
    fn histogram_buckets_follow_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_bound(0), Some(1));
        assert_eq!(Histogram::bucket_bound(3), Some(8));
        assert_eq!(Histogram::bucket_bound(HISTOGRAM_BUCKETS - 1), None);
        // Every finite bound lands in its own bucket.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let bound = Histogram::bucket_bound(i).unwrap();
            assert_eq!(Histogram::bucket_index(bound), i, "bound {bound}");
        }
    }

    #[test]
    fn histogram_snapshots_capture_count_and_sum() {
        let h = Histogram::default();
        for v in [0, 1, 2, 7, 100, 1 << 30] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1 + 2 + 7 + 100 + (1 << 30));
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn merging_disjoint_snapshots_equals_the_union_snapshot() {
        let left = Histogram::default();
        let right = Histogram::default();
        let union = Histogram::default();
        for v in [3u64, 9, 4096] {
            left.record(v);
            union.record(v);
        }
        for v in [0u64, 5, 77, 1 << 20] {
            right.record(v);
            union.record(v);
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged, union.snapshot());
        // Merging into an empty default snapshot adopts the layout.
        let mut from_empty = HistogramSnapshot::default();
        from_empty.merge(&merged);
        assert_eq!(from_empty, merged);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let registry = Registry::new();
        let counter = registry.counter("c", Class::Physical);
        let histogram = registry.histogram("h", Class::Physical);
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let counter = counter.clone();
                let histogram = histogram.clone();
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        counter.inc();
                        histogram.record(v);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(counter.get(), 4000);
        let snap = histogram.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.sum, 4 * (999 * 1000 / 2));
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn logical_only_filters_by_class() {
        let registry = Registry::new();
        registry.counter("a_logical", Class::Logical).add(2);
        registry.counter("b_physical", Class::Physical).add(9);
        registry.gauge("c_logical", Class::Logical).set(5);
        let logical = registry.snapshot().logical_only();
        assert_eq!(
            logical.metrics.keys().collect::<Vec<_>>(),
            vec!["a_logical", "c_logical"]
        );
    }

    #[test]
    fn json_document_is_canonical_and_versioned() {
        let registry = Registry::new();
        registry.counter("b", Class::Physical).add(3);
        registry.counter("a", Class::Logical).add(1);
        registry.gauge("g", Class::Physical).set(-2);
        let doc = registry.snapshot().to_json();
        assert!(doc.ends_with("\"schema\":\"nemo-metrics/v1\"}"));
        // Name-sorted: "a" serialises before "b" before "g".
        let a = doc.find("\"a\"").unwrap();
        let b = doc.find("\"b\"").unwrap();
        let g = doc.find("\"g\"").unwrap();
        assert!(a < b && b < g);
        assert!(doc.contains("\"a\":{\"class\":\"logical\",\"kind\":\"counter\",\"value\":1}"));
        assert!(doc.contains("\"g\":{\"class\":\"physical\",\"kind\":\"gauge\",\"value\":-2}"));
    }

    #[test]
    fn histogram_json_carries_bounds_buckets_count_sum() {
        let registry = Registry::new();
        let h = registry.histogram("lat", Class::Physical);
        h.record(3);
        let doc = registry.snapshot().to_json();
        assert!(doc.contains("\"kind\":\"histogram\""));
        assert!(doc.contains("\"bounds\":[1,2,4,8"));
        assert!(doc.contains("\"count\":1,\"sum\":3"));
    }

    #[test]
    fn prometheus_exposition_is_cumulative() {
        let registry = Registry::new();
        registry.counter("hits", Class::Logical).add(7);
        let h = registry.histogram("lat", Class::Physical);
        h.record(1);
        h.record(2);
        h.record(1 << 40); // overflow bucket
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE hits counter\nhits 7\n"));
        assert!(text.contains("# TYPE lat histogram\n"));
        assert!(text.contains("lat_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_count 3\n"));
    }

    #[test]
    fn span_timers_record_into_their_histogram() {
        let registry = Registry::new();
        let h = registry.histogram("span_micros", Class::Physical);
        {
            let _span = h.time();
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\n\u{1}"), "\"x\\n\\u0001\"");
    }
}
