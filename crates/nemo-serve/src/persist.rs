//! Persistence knobs and reports shared by every durable server, plus
//! the bounded retry around storage operations. The stores themselves —
//! one per shard under `root/shard-<k>/`, for every shard count — live in
//! [`crate::shard_persist`].

use crate::error::ServeError;
use nemo_obs::trace::Tracer;
use nemo_obs::{Class, Counter, Registry};
use nemo_store::{RealFs, Vfs};
use std::sync::Arc;

pub use nemo_store::FsyncPolicy;

/// Attempts beyond the first that a transient storage fault is retried
/// before the error propagates.
pub const STORAGE_RETRY_BUDGET: u32 = 3;

/// Counters around [`with_storage_retry`], both [`Class::Physical`]
/// (retry counts follow the fault schedule, which follows the op
/// interleaving). `Default` yields detached cells.
#[derive(Debug, Clone, Default)]
pub(crate) struct RetryMetrics {
    /// Retryable storage faults absorbed by a retry (per retried attempt).
    pub absorbed: Counter,
    /// Storage errors that escaped the retry budget (non-retryable, or
    /// the budget ran out) and surfaced to the caller.
    pub surfaced: Counter,
}

impl RetryMetrics {
    /// Binds the counters to `registry` under the `store_*` names.
    pub(crate) fn register(registry: &Registry) -> RetryMetrics {
        RetryMetrics {
            absorbed: registry.counter("store_retries_absorbed", Class::Physical),
            surfaced: registry.counter("store_faults_surfaced", Class::Physical),
        }
    }
}

/// Runs a storage operation, retrying [retryable](ServeError::retryable)
/// failures up to [`STORAGE_RETRY_BUDGET`] times with deterministic
/// exponential backoff (50µs, 100µs, 200µs). Only operations the store
/// rolled back qualify as retryable — a failed fsync never does
/// (fsyncgate: the kernel may have dropped the dirty pages), so this
/// helper can never re-ack lost data. Each absorbed retry and each
/// surfaced error is counted on `retry`.
pub(crate) fn with_storage_retry<T>(
    retry: &RetryMetrics,
    mut op: impl FnMut() -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Err(e) if e.retryable() && attempt < STORAGE_RETRY_BUDGET => {
                retry.absorbed.inc();
                std::thread::sleep(std::time::Duration::from_micros(50u64 << attempt));
                attempt += 1;
            }
            Err(e) => {
                retry.surfaced.inc();
                return Err(e);
            }
            ok => return ok,
        }
    }
}

/// Durability and sizing knobs for one persistence directory.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// When appended records are fsynced; passed to every store as is.
    /// Under [`FsyncPolicy::EveryRecord`] an acknowledged mutation is a
    /// durable one.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub segment_max_bytes: u64,
    /// The floor of each store's byte trigger: snapshot once the WAL
    /// past the newest snapshot reaches this many bytes or half that
    /// snapshot's document, whichever is larger (0 disables the byte
    /// trigger; see [`nemo_store::SNAPSHOT_WAL_DIVISOR`]). Every snapshot
    /// is a full document, so installs cost O(1) rewritten bytes per WAL
    /// byte at any state size, and a recovery replays at most about half
    /// a document of WAL. A recovered store takes the size from the
    /// document it recovered from.
    pub snapshot_every_bytes: u64,
    /// Snapshot once this many epochs passed since the last one
    /// (0, the default, disables): a fixed install point for tests and
    /// drivers that want installs at known epochs.
    pub snapshot_every_epochs: u64,
    /// Snapshots retained on disk.
    pub keep_snapshots: usize,
    /// Filesystem the store runs on: [`nemo_store::RealFs`] in production,
    /// [`nemo_store::FaultFs`] under fault-injection tests.
    pub vfs: Arc<dyn Vfs>,
    /// Metrics registry every store opened with these options records
    /// into (`store_*` counters, gauges and histograms; several stores —
    /// e.g. one per shard — aggregate into the same names). A fresh
    /// private registry by default.
    pub registry: Registry,
    /// Flight recorder a server captures every request's trace tree into;
    /// every store opened with these options tags its spans (WAL log,
    /// fsync) and poison causes onto it. A fresh disabled tracer by
    /// default: enable it ([`Tracer::enable`]), and set its slow-request
    /// log threshold ([`Tracer::set_slow_threshold_micros`]), before
    /// passing it in.
    pub tracer: Tracer,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            fsync: FsyncPolicy::EveryBatch,
            segment_max_bytes: 1 << 20,
            snapshot_every_bytes: 1 << 20,
            snapshot_every_epochs: 0,
            keep_snapshots: 2,
            vfs: Arc::new(RealFs),
            registry: Registry::new(),
            tracer: Tracer::new(),
        }
    }
}

/// What recovering one shard's store found and did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Epoch of the snapshot the state was rebuilt from.
    pub snapshot_epoch: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Bytes truncated off a torn tail record (0 on a clean start).
    pub truncated_bytes: u64,
    /// Newer snapshots that were skipped because their documents failed
    /// validation (recovery fell back past them), with the reason each
    /// one was refused — a version mismatch must stay distinguishable
    /// from disk corruption.
    pub skipped_snapshots: Vec<(u64, String)>,
}
