//! Metric handles for the storage engine.
//!
//! [`StoreMetrics`] is a bundle of pre-registered [`nemo_obs`] handles:
//! `Default` yields detached cells (recording goes nowhere visible, at
//! the same near-zero cost), [`StoreMetrics::register`] binds the
//! bundle to a shared [`Registry`] under the `store_*` name family. Several
//! stores (e.g. one per shard) may share one registry: counters and
//! histograms aggregate naturally, and the gauges are maintained with
//! delta updates so they sum correctly too.
//!
//! Every metric here is [`Class::Physical`]: byte counts, fsync
//! latencies and file layouts depend on the shard count and thread
//! schedule, so none of them participate in determinism comparisons.

use nemo_obs::{Class, Counter, Gauge, Histogram, Registry};
use std::time::Instant;

/// Hot-path instrumentation of one (or several) [`crate::Store`]s.
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// Records appended.
    pub appends: Counter,
    /// WAL frame bytes written by appends.
    pub bytes_written: Counter,
    /// Successful fsyncs on the record-durability path (seal, per-record,
    /// explicit [`crate::Store::sync`]).
    pub fsyncs: Counter,
    /// Fsyncs on the record-durability path that failed (each one poisons
    /// the write path).
    pub fsync_failures: Counter,
    /// Latency of successful record-durability fsyncs, in microseconds.
    pub fsync_micros: Histogram,
    /// Active segments sealed because they reached the size threshold.
    pub rotations: Counter,
    /// WAL segment files currently on disk.
    pub segments: Gauge,
    /// Snapshot files currently on disk.
    pub snapshots: Gauge,
    /// Framed bytes of the newest snapshot each store installed since it
    /// was opened (0 for a store that has not installed one): what the
    /// proportional byte trigger scales with.
    pub snapshot_bytes: Gauge,
    /// WAL bytes appended since each store's newest snapshot: the byte
    /// trigger's count, so the distance to the next install is readable.
    pub wal_bytes_past_snapshot: Gauge,
    /// Snapshots installed (every snapshot is a full document).
    pub full_snapshots_written: Counter,
    /// Snapshots deleted by [`crate::Store::sweep`].
    pub sweep_pruned_snapshots: Counter,
    /// WAL segments deleted by [`crate::Store::sweep`].
    pub sweep_removed_segments: Counter,
    /// Transitions into the poisoned state (at most one per store).
    pub poison_events: Counter,
}

impl StoreMetrics {
    /// Binds the bundle to `registry` under the `store_*` names.
    pub fn register(registry: &Registry) -> StoreMetrics {
        StoreMetrics {
            appends: registry.counter("store_appends", Class::Physical),
            bytes_written: registry.counter("store_bytes_written", Class::Physical),
            fsyncs: registry.counter("store_fsyncs", Class::Physical),
            fsync_failures: registry.counter("store_fsync_failures", Class::Physical),
            fsync_micros: registry.histogram("store_fsync_micros", Class::Physical),
            rotations: registry.counter("store_rotations", Class::Physical),
            segments: registry.gauge("store_segments", Class::Physical),
            snapshots: registry.gauge("store_snapshots", Class::Physical),
            snapshot_bytes: registry.gauge("store_snapshot_bytes", Class::Physical),
            wal_bytes_past_snapshot: registry
                .gauge("store_wal_bytes_past_snapshot", Class::Physical),
            full_snapshots_written: registry
                .counter("store_full_snapshots_written", Class::Physical),
            sweep_pruned_snapshots: registry
                .counter("store_sweep_pruned_snapshots", Class::Physical),
            sweep_removed_segments: registry
                .counter("store_sweep_removed_segments", Class::Physical),
            poison_events: registry.counter("store_poison_events", Class::Physical),
        }
    }

    /// Records one completed record-durability fsync started at `started`.
    pub(crate) fn fsync_ok(&self, started: Instant) {
        self.fsyncs.inc();
        self.fsync_micros
            .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
}
