//! Durable persistence: one `nemo-store` directory per shard, for every
//! shard count.
//!
//! A durable server keeps `shards` independent stores under
//! `root/shard-<k>/`, each holding exactly one partition's slice of the
//! state; a single-shard server is the same layout with one directory.
//! Each store follows one discipline:
//!
//! * **Genesis snapshot** — creating a shard's store installs a snapshot
//!   of its initial partition before any record is logged, so recovery
//!   never depends on re-generating the workload.
//! * **Records carry two epochs.** The store's positional epoch is the
//!   shard's *local* epoch (its partition's own counter, so each store's
//!   contiguity and torn-tail machinery works unchanged), and the
//!   *global* epoch rides along in the payload
//!   ([`crate::codec::encode_shard_record`]) so recovery can rebuild the
//!   cross-shard sequence numbers that make the merged view
//!   byte-identical at any shard count.
//! * **Snapshots are shard documents.** A full `nemo-shard/v1` document
//!   wraps an ordinary inner snapshot (at the *local* epoch) together with
//!   the shard's identity (`shard`/`shards`), the sequence-number bases
//!   fixed at partition time, the per-row sequence vectors, and the
//!   highest global epoch the shard had observed. A `nemo-shard/v2`
//!   *delta* document instead carries just the records logged since the
//!   previous snapshot (each with its global epoch), so mid-stream
//!   installs are O(delta); every [`MAX_DELTA_CHAIN`] installs — or
//!   whenever the backlog is large — a full document anchors a new chain.
//! * **Sweep** — installing deletes nothing. Pruning old snapshots and
//!   deleting covered WAL segments is a separate sweep, which
//!   [`Server::sweep_persistence`](crate::Server::sweep_persistence) runs
//!   at batch boundaries so `append` never waits on filesystem removals.
//! * **Recovery** rebuilds each partition from its newest *valid*
//!   snapshot plus the WAL suffix. A delta is resolved down its chain to
//!   a full base; a damaged link fails that candidate loudly (recorded in
//!   the report) and recovery falls back to the next older snapshot. A
//!   torn tail record is truncated (by the store), and every unrecoverable
//!   condition — CRC mismatch, missing segment, epoch gap, conflicting
//!   replay — fails loudly.
//!
//! Each shard recovers from its own directory with **no cross-shard
//! coordination** — ghost endpoints make every per-shard stream
//! independently applicable — and
//! [`ServerBuilder::recover_or_create`](crate::ServerBuilder::recover_or_create)
//! reassembles the [`ShardedNetwork`] from the recovered partitions,
//! cross-checking that all shards agree on the partition metadata.
//!
//! **Layouts this build refuses.** A root holding store files directly
//! is the single-shard layout written before every store moved under
//! `shard-<k>/` (`nemo-wal/v1` records, `nemo-snapshot/v1,v2` documents).
//! It is refused with [`ServeError::Layout`], as is a root holding stores
//! for only some of the requested shards; both checks read the directory
//! listing only, so a refused root is left exactly as it was. A root
//! written with more shards than requested fails on the shard identity
//! every document carries.

use crate::codec::{self, decode_shard_record, encode_shard_record, SHARD_WAL_MAGIC};
use crate::error::ServeError;
use crate::live::LiveNetwork;
use crate::mutation::{Epoch, WalRecord};
use crate::persist::{with_storage_retry, PersistOptions, RecoveryReport, RetryMetrics};
use crate::shard::{SeqBases, ShardPartition, ShardedNetwork};
use crate::snapshot::{read_snapshot, write_snapshot};
use nemo_bench::pool;
use nemo_store::{Store, StoreConfig, StoreMetrics, SweepOutcome};
use netgraph::json::JsonValue;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Longest run of consecutive delta snapshots before a full one is
/// forced. Bounds both recovery's chain-resolution work and the blast
/// radius of a damaged link (a broken base invalidates every delta above
/// it).
pub const MAX_DELTA_CHAIN: usize = 3;

/// Largest record count a delta document may carry; a bigger backlog
/// falls back to a full snapshot (re-encoding the state is then cheaper
/// than replaying the delta on every recovery).
pub const MAX_DELTA_RECORDS: usize = 4096;

/// Schema tag of the full per-shard snapshot document.
pub const SHARD_SCHEMA: &str = "nemo-shard/v1";

/// Schema tag of the *delta* per-shard snapshot document: base epoch plus
/// the records logged since it, each carrying its global epoch.
pub const SHARD_DELTA_SCHEMA: &str = "nemo-shard/v2";

/// The directory one shard's store lives in, under the server's
/// persistence root.
pub fn shard_dir(root: &Path, shard: u32) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

fn shard_store_config(options: &PersistOptions) -> StoreConfig {
    StoreConfig {
        magic: SHARD_WAL_MAGIC.to_string(),
        fsync: options.fsync,
        segment_max_bytes: options.segment_max_bytes,
        snapshot_every_bytes: options.snapshot_every_bytes,
        snapshot_every_epochs: options.snapshot_every_epochs,
        keep_snapshots: options.keep_snapshots,
    }
}

/// One shard's durable storage handle.
#[derive(Debug)]
pub struct ShardPersistence {
    store: Store,
    shard: u32,
    shards: u32,
    bases: SeqBases,
    /// Highest global epoch this shard has logged or recovered.
    last_global: Epoch,
    /// Records (with their global epochs) logged since the newest
    /// snapshot, kept for the next delta document. Cleared (with
    /// `since_overflow` raised) once it exceeds [`MAX_DELTA_RECORDS`].
    since_snapshot: Vec<(WalRecord, Epoch)>,
    /// True when `since_snapshot` was discarded as too large — the next
    /// snapshot must be full.
    since_overflow: bool,
    /// Consecutive delta snapshots installed since the last full one.
    chain_len: usize,
    /// Retry/surfaced-fault counters shared with the options' registry.
    retry: RetryMetrics,
}

impl ShardPersistence {
    /// Creates the shard's store in an empty (or absent) directory and
    /// installs the genesis shard snapshot. Errors if the directory
    /// already holds store files.
    pub(crate) fn create(
        dir: &Path,
        options: &PersistOptions,
        shard: u32,
        shards: u32,
        bases: SeqBases,
        partition: &ShardPartition,
    ) -> Result<ShardPersistence, ServeError> {
        let retry = RetryMetrics::register(&options.registry);
        let (mut store, _) = with_storage_retry(&retry, || {
            Ok(Store::open_with(
                dir,
                shard_store_config(options),
                options.vfs.clone(),
            )?)
        })?;
        if !store.is_empty() {
            return Err(ServeError::Storage(format!(
                "{} already holds store files; use recover()",
                dir.display()
            )));
        }
        store.attach_metrics(StoreMetrics::register(&options.registry));
        store.attach_tracer(options.tracer.clone());
        let mut persistence = ShardPersistence {
            store,
            shard,
            shards,
            bases,
            last_global: bases.base_epoch,
            since_snapshot: Vec::new(),
            since_overflow: false,
            chain_len: 0,
            retry,
        };
        persistence.force_full_snapshot(partition)?;
        Ok(persistence)
    }

    /// Rebuilds one shard's partition from its directory: newest valid
    /// shard snapshot plus the per-shard WAL suffix (see the module docs
    /// for what is repaired, fallen back from, and refused), with the
    /// shard-identity checks (`shard`, `shards`) on every candidate
    /// document.
    pub(crate) fn recover(
        dir: &Path,
        options: &PersistOptions,
        shard: u32,
        shards: u32,
    ) -> Result<(ShardPartition, ShardPersistence, RecoveryReport), ServeError> {
        let retry = RetryMetrics::register(&options.registry);
        let (mut store, open_report) = with_storage_retry(&retry, || {
            Ok(Store::open_with(
                dir,
                shard_store_config(options),
                options.vfs.clone(),
            )?)
        })?;
        if store.is_empty() {
            return Err(ServeError::Storage(format!(
                "{} holds no store files; use create()",
                dir.display()
            )));
        }
        store.attach_metrics(StoreMetrics::register(&options.registry));
        store.attach_tracer(options.tracer.clone());
        let mut report = RecoveryReport {
            truncated_bytes: open_report.truncated_bytes,
            ..RecoveryReport::default()
        };
        // Newest shard document whose chain (a delta resolves down to a
        // full base) still validates; a damaged link fails the candidate
        // loudly and recovery falls back to the next older one.
        let mut base: Option<(u64, ShardDocument)> = None;
        for &epoch in store.snapshot_epochs().iter().rev() {
            match resolve_shard_chain(&store, epoch, shard, shards) {
                Ok(doc) => {
                    base = Some((epoch, doc));
                    break;
                }
                Err(reason) => report.skipped_snapshots.push((epoch, reason.to_string())),
            }
        }
        let Some((snapshot_epoch, doc)) = base else {
            let reasons: Vec<String> = report
                .skipped_snapshots
                .iter()
                .map(|(epoch, reason)| format!("epoch {epoch}: {reason}"))
                .collect();
            return Err(ServeError::Corrupt(format!(
                "{}: no usable snapshot — every candidate failed validation ({})",
                dir.display(),
                reasons.join("; "),
            )));
        };
        let ShardDocument {
            mut partition,
            bases,
            last_global,
        } = doc;
        report.snapshot_epoch = snapshot_epoch;
        // Replay the per-shard WAL suffix, cross-checking the store's
        // positional (local) epochs against the records' own, and folding
        // the carried global epochs back into the sequence numbers.
        let mut last_global = last_global;
        for (epoch, payload) in store.replay(snapshot_epoch)? {
            let (record, global) = decode_shard_record(&payload)?;
            if record.epoch != epoch {
                return Err(ServeError::Corrupt(format!(
                    "shard WAL record at log position {epoch} carries epoch {}",
                    record.epoch
                )));
            }
            if record.epoch != partition.live.epoch() + 1 {
                return Err(ServeError::Corrupt(format!(
                    "WAL gap: shard state is at epoch {}, next record is epoch {}",
                    partition.live.epoch(),
                    record.epoch
                )));
            }
            partition.apply_record(global, &record.mutation, &bases)?;
            last_global = last_global.max(global);
            report.replayed_records += 1;
        }
        // Completeness: recovering below the newest epoch the store ever
        // held would be silent data loss.
        if let Some(last) = store.last_epoch() {
            if partition.live.epoch() < last {
                return Err(ServeError::Corrupt(format!(
                    "recovery reached epoch {} but the store once held epoch {last}; \
                     the WAL covering the difference is gone (compacted or deleted)",
                    partition.live.epoch()
                )));
            }
        }
        // The chain counter starts saturated: the next snapshot is
        // written in full, anchoring a fresh chain.
        let persistence = ShardPersistence {
            store,
            shard,
            shards,
            bases,
            last_global,
            since_snapshot: Vec::new(),
            since_overflow: true,
            chain_len: MAX_DELTA_CHAIN,
            retry,
        };
        Ok((partition, persistence, report))
    }

    /// Durably logs one applied record: positional epoch is the shard's
    /// local epoch, `global` rides along in the payload.
    pub(crate) fn log(&mut self, record: &WalRecord, global: Epoch) -> Result<(), ServeError> {
        // Logical span: exactly one WAL log per applied mutation, at any
        // shard count.
        let _log_span = self
            .store
            .tracer()
            .span("wal.log", nemo_obs::Class::Logical);
        let payload = encode_shard_record(record, global);
        let retry = self.retry.clone();
        with_storage_retry(&retry, || Ok(self.store.append(record.epoch, &payload)?))?;
        self.last_global = self.last_global.max(global);
        if self.since_snapshot.len() >= MAX_DELTA_RECORDS {
            self.since_snapshot.clear();
            self.since_overflow = true;
        } else if !self.since_overflow {
            self.since_snapshot.push((record.clone(), global));
        }
        Ok(())
    }

    /// Batch-boundary fsync.
    pub(crate) fn sync(&mut self) -> Result<(), ServeError> {
        self.store.sync()?;
        Ok(())
    }

    /// Writes and installs a shard snapshot if the store's thresholds say
    /// one is due; returns whether it did.
    pub(crate) fn maybe_snapshot(
        &mut self,
        partition: &ShardPartition,
    ) -> Result<bool, ServeError> {
        if !self.store.snapshot_due(partition.live.epoch()) {
            return Ok(false);
        }
        self.force_snapshot(partition)?;
        Ok(true)
    }

    /// Unconditionally writes and installs a shard snapshot: a
    /// [`SHARD_DELTA_SCHEMA`] delta document when the backlog since the
    /// newest snapshot is small, contiguous and the chain is short
    /// (O(delta) install), a full document otherwise.
    pub(crate) fn force_snapshot(&mut self, partition: &ShardPartition) -> Result<(), ServeError> {
        let base = self.store.snapshot_metas().last().map(|m| m.epoch);
        let local = partition.live.epoch();
        let delta_eligible = !self.since_overflow
            && self.chain_len < MAX_DELTA_CHAIN
            && base.is_some_and(|b| {
                local > b
                    && self
                        .since_snapshot
                        .first()
                        .is_some_and(|(r, _)| r.epoch == b + 1)
                    && self
                        .since_snapshot
                        .last()
                        .is_some_and(|(r, _)| r.epoch == local)
                    && self.since_snapshot.len() as u64 == local - b
            });
        if delta_eligible {
            let base = base.expect("checked above");
            let document = self.shard_delta_document(local, base);
            let retry = self.retry.clone();
            with_storage_retry(&retry, || {
                Ok(self
                    .store
                    .install_delta_snapshot(local, base, document.as_bytes())?)
            })?;
            self.chain_len += 1;
            self.since_snapshot.clear();
            self.since_overflow = false;
            return Ok(());
        }
        self.force_full_snapshot(partition)
    }

    /// Unconditionally writes and installs a *full* shard snapshot,
    /// anchoring a fresh delta chain.
    pub(crate) fn force_full_snapshot(
        &mut self,
        partition: &ShardPartition,
    ) -> Result<(), ServeError> {
        let document = self.shard_document(partition);
        let retry = self.retry.clone();
        with_storage_retry(&retry, || {
            Ok(self
                .store
                .install_snapshot(partition.live.epoch(), document.as_bytes())?)
        })?;
        self.chain_len = 0;
        self.since_snapshot.clear();
        self.since_overflow = false;
        Ok(())
    }

    /// Executes up to `max_removals` deferred removals (snapshot pruning,
    /// WAL compaction) on this shard's store.
    pub(crate) fn sweep(&mut self, max_removals: usize) -> Result<SweepOutcome, ServeError> {
        let retry = self.retry.clone();
        with_storage_retry(&retry, || Ok(self.store.sweep(max_removals)?))
    }

    fn shard_delta_document(&self, epoch: u64, base: u64) -> String {
        let records = JsonValue::Array(
            self.since_snapshot
                .iter()
                .map(|(record, global)| {
                    codec::obj(vec![
                        ("epoch", JsonValue::Number(record.epoch as f64)),
                        ("global", JsonValue::Number(*global as f64)),
                        ("at_ms", JsonValue::Number(record.at_ms as f64)),
                        ("mutation", codec::mutation_to_json(&record.mutation)),
                    ])
                })
                .collect(),
        );
        codec::obj(vec![
            ("schema", codec::s(SHARD_DELTA_SCHEMA)),
            ("kind", codec::s("delta")),
            ("shard", codec::n(self.shard as i64)),
            ("shards", codec::n(self.shards as i64)),
            ("epoch", JsonValue::Number(epoch as f64)),
            ("delta_base", JsonValue::Number(base as f64)),
            ("last_global", JsonValue::Number(self.last_global as f64)),
            ("records", records),
        ])
        .to_json()
    }

    fn shard_document(&self, partition: &ShardPartition) -> String {
        let seqs =
            |values: &[u64]| JsonValue::Array(values.iter().map(|&v| codec::n(v as i64)).collect());
        codec::obj(vec![
            ("schema", codec::s(SHARD_SCHEMA)),
            ("shard", codec::n(self.shard as i64)),
            ("shards", codec::n(self.shards as i64)),
            ("base_epoch", codec::n(self.bases.base_epoch as i64)),
            ("node_seq_base", codec::n(self.bases.node_seq_base as i64)),
            ("edge_seq_base", codec::n(self.bases.edge_seq_base as i64)),
            ("last_global", codec::n(self.last_global as i64)),
            ("node_seqs", seqs(&partition.node_seqs)),
            ("edge_seqs", seqs(&partition.edge_seqs)),
            (
                "snapshot",
                JsonValue::String(write_snapshot(&partition.live)),
            ),
        ])
        .to_json()
    }

    /// Which shard this store belongs to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Highest global epoch this shard has logged or recovered.
    pub fn last_global(&self) -> Epoch {
        self.last_global
    }

    /// The underlying store (inspection, benchmarks, tests).
    pub fn store(&self) -> &Store {
        &self.store
    }
}

/// What a parsed (or chain-resolved) shard snapshot yields.
struct ShardDocument {
    partition: ShardPartition,
    bases: SeqBases,
    last_global: Epoch,
}

/// A parsed `nemo-shard/v2` delta document, before chain resolution.
struct ShardDelta {
    epoch: u64,
    delta_base: u64,
    last_global: Epoch,
    records: Vec<(WalRecord, Epoch)>,
}

enum ShardDoc {
    // Boxed: a restored partition dwarfs a delta link's header.
    Full(Box<ShardDocument>),
    Delta(ShardDelta),
}

fn get_seqs(root: &BTreeMap<String, JsonValue>, key: &str) -> Result<Vec<u64>, ServeError> {
    let Some(JsonValue::Array(items)) = root.get(key) else {
        return Err(ServeError::Corrupt(format!(
            "shard snapshot field {key:?} is missing or not an array"
        )));
    };
    items
        .iter()
        .map(|item| match item {
            JsonValue::Number(x) if x.fract() == 0.0 && *x >= 0.0 => Ok(*x as u64),
            other => Err(ServeError::Corrupt(format!(
                "shard snapshot {key} entry is {other:?}, want a non-negative integer"
            ))),
        })
        .collect()
}

/// Parses either flavor of shard snapshot document, dispatching on the
/// schema field. A schema version newer than v2 is refused with a
/// message that stays distinguishable from disk corruption.
fn parse_shard_any(
    text: String,
    want_shard: u32,
    want_shards: u32,
) -> Result<ShardDoc, ServeError> {
    let corrupt = |msg: String| ServeError::Corrupt(msg);
    let doc = JsonValue::parse(&text).map_err(|e| corrupt(format!("not JSON: {e}")))?;
    // A full document is mostly its inner snapshot: free the raw text
    // before that is parsed in turn.
    drop(text);
    let JsonValue::Object(root) = doc else {
        return Err(corrupt("shard snapshot root is not an object".to_string()));
    };
    let schema = match root.get("schema") {
        Some(JsonValue::String(s)) => s.clone(),
        other => {
            return Err(corrupt(format!(
                "schema field is {other:?}, want \"{SHARD_SCHEMA}\" or \"{SHARD_DELTA_SCHEMA}\""
            )))
        }
    };
    check_shard_identity(&root, want_shard, want_shards)?;
    if schema == SHARD_SCHEMA {
        return Ok(ShardDoc::Full(Box::new(parse_full_shard_body(root)?)));
    }
    if schema == SHARD_DELTA_SCHEMA {
        return Ok(ShardDoc::Delta(parse_delta_shard_body(&root)?));
    }
    if let Some(version) = schema
        .strip_prefix("nemo-shard/v")
        .and_then(|v| v.parse::<u64>().ok())
    {
        if version > 2 {
            return Err(corrupt(format!(
                "shard snapshot format version {version} is newer than this build supports \
                 (v2); refusing to load"
            )));
        }
    }
    Err(corrupt(format!(
        "schema field is {schema:?}, want \"{SHARD_SCHEMA}\" or \"{SHARD_DELTA_SCHEMA}\""
    )))
}

fn check_shard_identity(
    root: &BTreeMap<String, JsonValue>,
    want_shard: u32,
    want_shards: u32,
) -> Result<(), ServeError> {
    let shard = codec::get_u64(root, "shard")?;
    let shards = codec::get_u64(root, "shards")?;
    if shard != want_shard as u64 || shards != want_shards as u64 {
        return Err(ServeError::Corrupt(format!(
            "snapshot belongs to shard {shard} of {shards}, want shard {want_shard} of \
             {want_shards} — the directory layout and the documents disagree"
        )));
    }
    Ok(())
}

fn parse_delta_shard_body(root: &BTreeMap<String, JsonValue>) -> Result<ShardDelta, ServeError> {
    let corrupt = |msg: String| ServeError::Corrupt(msg);
    match root.get("kind") {
        Some(JsonValue::String(kind)) if kind == "delta" => {}
        other => {
            return Err(corrupt(format!(
                "shard delta kind field is {other:?}, want \"delta\""
            )))
        }
    }
    let epoch = codec::get_u64(root, "epoch")?;
    let delta_base = codec::get_u64(root, "delta_base")?;
    if delta_base >= epoch {
        return Err(corrupt(format!(
            "shard delta at epoch {epoch} claims base {delta_base} (bases must be older)"
        )));
    }
    let last_global = codec::get_u64(root, "last_global")?;
    let Some(JsonValue::Array(items)) = root.get("records") else {
        return Err(corrupt(
            "shard delta field \"records\" is missing or not an array".to_string(),
        ));
    };
    if items.len() as u64 != epoch - delta_base {
        return Err(corrupt(format!(
            "shard delta covering ({delta_base}, {epoch}] carries {} records, want {}",
            items.len(),
            epoch - delta_base
        )));
    }
    let mut records = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let JsonValue::Object(m) = item else {
            return Err(corrupt(format!("shard delta record {i} is not an object")));
        };
        let record_epoch = codec::get_u64(m, "epoch")?;
        if record_epoch != delta_base + 1 + i as u64 {
            return Err(corrupt(format!(
                "shard delta record {i} carries epoch {record_epoch}, want {} \
                 (records must be contiguous from the base)",
                delta_base + 1 + i as u64
            )));
        }
        let global = codec::get_u64(m, "global")?;
        let at_ms = codec::get_u64(m, "at_ms")?;
        let Some(JsonValue::Object(mutation)) = m.get("mutation") else {
            return Err(corrupt(format!(
                "shard delta record {i} mutation is missing or not an object"
            )));
        };
        records.push((
            WalRecord {
                epoch: record_epoch,
                at_ms,
                mutation: codec::mutation_from_json(mutation)?,
            },
            global,
        ));
    }
    Ok(ShardDelta {
        epoch,
        delta_base,
        last_global,
        records,
    })
}

fn parse_full_shard_body(
    mut root: BTreeMap<String, JsonValue>,
) -> Result<ShardDocument, ServeError> {
    let corrupt = |msg: String| ServeError::Corrupt(msg);
    let bases = SeqBases {
        base_epoch: codec::get_u64(&root, "base_epoch")?,
        node_seq_base: codec::get_u64(&root, "node_seq_base")?,
        edge_seq_base: codec::get_u64(&root, "edge_seq_base")?,
    };
    let last_global = codec::get_u64(&root, "last_global")?;
    let node_seqs = get_seqs(&root, "node_seqs")?;
    let edge_seqs = get_seqs(&root, "edge_seqs")?;
    // Moved out, not copied, and the rest of the document freed before
    // the inner snapshot is parsed.
    let inner = match root.remove("snapshot") {
        Some(JsonValue::String(inner)) => inner,
        other => {
            return Err(corrupt(format!(
                "shard snapshot field \"snapshot\" is {other:?}, want a string"
            )))
        }
    };
    drop(root);
    let live = read_snapshot(&inner)?;
    if node_seqs.len() != live.nodes().n_rows() || edge_seqs.len() != live.edges().n_rows() {
        return Err(corrupt(format!(
            "sequence vectors ({} nodes, {} edges) do not match the frames ({} nodes, {} edges)",
            node_seqs.len(),
            edge_seqs.len(),
            live.nodes().n_rows(),
            live.edges().n_rows()
        )));
    }
    Ok(ShardDocument {
        partition: ShardPartition {
            live,
            node_seqs,
            edge_seqs,
        },
        bases,
        last_global,
    })
}

/// Resolves the shard snapshot at `epoch` into a restored partition,
/// following a delta chain down to its full base. Any damaged link —
/// unreadable file, failed validation, a replay that does not reach the
/// link's epoch — fails the whole chain with the failing link named in
/// the error, so the caller can fall back past it loudly.
fn resolve_shard_chain(
    store: &Store,
    epoch: u64,
    shard: u32,
    shards: u32,
) -> Result<ShardDocument, ServeError> {
    let bytes = store.read_snapshot(epoch)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| ServeError::Corrupt("shard snapshot document is not UTF-8".to_string()))?;
    match parse_shard_any(text, shard, shards)? {
        ShardDoc::Full(doc) => {
            if doc.partition.live.epoch() != epoch {
                return Err(ServeError::Corrupt(format!(
                    "shard snapshot file for epoch {epoch} carries state at epoch {}",
                    doc.partition.live.epoch()
                )));
            }
            Ok(*doc)
        }
        ShardDoc::Delta(delta) => {
            if delta.epoch != epoch {
                return Err(ServeError::Corrupt(format!(
                    "shard snapshot file for epoch {epoch} carries a delta at epoch {}",
                    delta.epoch
                )));
            }
            let mut doc =
                resolve_shard_chain(store, delta.delta_base, shard, shards).map_err(|e| {
                    ServeError::Corrupt(format!(
                        "delta shard snapshot at epoch {epoch}: base {}: {e}",
                        delta.delta_base
                    ))
                })?;
            for (record, global) in &delta.records {
                if record.epoch != doc.partition.live.epoch() + 1 {
                    return Err(ServeError::Corrupt(format!(
                        "delta shard snapshot at epoch {epoch}: shard state is at epoch {}, \
                         next record is epoch {}",
                        doc.partition.live.epoch(),
                        record.epoch
                    )));
                }
                doc.partition
                    .apply_record(*global, &record.mutation, &doc.bases)
                    .map_err(|e| {
                        ServeError::Corrupt(format!("delta shard snapshot at epoch {epoch}: {e}"))
                    })?;
                doc.last_global = doc.last_global.max(*global);
            }
            if doc.partition.live.epoch() != epoch {
                return Err(ServeError::Corrupt(format!(
                    "delta shard snapshot at epoch {epoch} resolved to state at epoch {}",
                    doc.partition.live.epoch()
                )));
            }
            // The document records the shard's last observed global epoch
            // at install time; the resolved chain must compute the same
            // value or a record was altered.
            if doc.last_global != delta.last_global {
                return Err(ServeError::Corrupt(format!(
                    "delta shard snapshot at epoch {epoch} carries last_global {}, but the \
                     resolved chain computes {}",
                    delta.last_global, doc.last_global
                )));
            }
            Ok(doc)
        }
    }
}

/// Whether `dir` holds WAL segments or snapshot files (a missing
/// directory holds none). Reads the listing only — a probe through
/// `Store::open` would repair torn tails and drop the truncation out of
/// the recovery report — and ignores a crashed install's `.tmp` files,
/// which the store's own open removes.
fn holds_store_files(dir: &Path) -> Result<bool, ServeError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => {
            return Err(ServeError::Storage(format!(
                "probing {}: {e}",
                dir.display()
            )))
        }
    };
    for entry in entries {
        let entry =
            entry.map_err(|e| ServeError::Storage(format!("probing {}: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if nemo_store::segment::parse_segment_name(name).is_some()
            || nemo_store::parse_snapshot_name(name).is_some()
            || nemo_store::parse_delta_snapshot_name(name).is_some()
        {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Checks the layout under `root` before anything is opened: `Ok(false)`
/// when no shard holds a store yet, `Ok(true)` when every one of the
/// `shards` directories does. A root holding store files directly (the
/// pre-`shard-<k>/` single-shard layout) or stores for only some shards is
/// refused with [`ServeError::Layout`], touching nothing.
fn probe_layout(root: &Path, shards: u32) -> Result<bool, ServeError> {
    if holds_store_files(root)? {
        return Err(ServeError::Layout(format!(
            "{} holds store files directly: the single-shard layout written before every \
             store moved under shard-<k>/ (nemo-wal/v1 records, nemo-snapshot/v1,v2 \
             documents). This build does not read it; recover it with the build that \
             wrote it, or start a fresh root",
            root.display()
        )));
    }
    let mut occupied = Vec::with_capacity(shards as usize);
    for k in 0..shards {
        if holds_store_files(&shard_dir(root, k))? {
            occupied.push(k);
        }
    }
    if occupied.is_empty() || occupied.len() == shards as usize {
        return Ok(!occupied.is_empty());
    }
    Err(ServeError::Layout(format!(
        "{} holds stores for shards {occupied:?} of the {shards} requested: written with a \
         different shard count, or a create that crashed midway",
        root.display()
    )))
}

/// Creates every shard's store under `root` for a freshly partitioned
/// network, installing each genesis snapshot. An occupied shard directory
/// or a refused layout (see [`probe_layout`]) is an error.
pub(crate) fn create_sharded(
    root: &Path,
    options: &PersistOptions,
    net: &ShardedNetwork,
) -> Result<Vec<ShardPersistence>, ServeError> {
    probe_layout(root, net.shards())?;
    (0..net.shards())
        .map(|k| {
            ShardPersistence::create(
                &shard_dir(root, k),
                options,
                k,
                net.shards(),
                net.bases(),
                net.partition(k),
            )
            .map_err(|e| e.with_shard(k, None))
        })
        .collect()
}

/// Opens (or creates) the whole layout under `root`: either every shard
/// directory is recovered — in parallel over `threads` workers, each
/// shard independently — or, when no shard holds a store yet, the network
/// is built fresh from `init()`, partitioned, and every shard's genesis
/// snapshot installed. Layouts [`probe_layout`] refuses fail before
/// anything is opened.
pub(crate) fn recover_or_create_sharded(
    root: &Path,
    options: &PersistOptions,
    shards: u32,
    threads: usize,
    init: impl FnOnce() -> LiveNetwork,
) -> Result<(ShardedNetwork, Vec<ShardPersistence>, Vec<RecoveryReport>), ServeError> {
    assert!(shards > 0, "a sharded layout needs at least one shard");
    if !probe_layout(root, shards)? {
        let net = ShardedNetwork::from_live(&init(), shards)?;
        let persists = create_sharded(root, options, &net)?;
        let reports = vec![RecoveryReport::default(); shards as usize];
        return Ok((net, persists, reports));
    }
    let pool_metrics = pool::PoolMetrics::register(&options.registry);
    let results = pool::run_indexed_observed(shards as usize, threads, Some(&pool_metrics), |k| {
        ShardPersistence::recover(&shard_dir(root, k as u32), options, k as u32, shards)
    });
    let mut partitions = Vec::with_capacity(shards as usize);
    let mut persists = Vec::with_capacity(shards as usize);
    let mut reports = Vec::with_capacity(shards as usize);
    for (k, result) in results.into_iter().enumerate() {
        let (partition, persistence, report) = result.map_err(|e| e.with_shard(k as u32, None))?;
        partitions.push(partition);
        persists.push(persistence);
        reports.push(report);
    }
    // Every shard must agree on the partition-time metadata; a mix means
    // the directories come from different partitionings.
    let bases = persists[0].bases;
    for persistence in &persists[1..] {
        if persistence.bases != bases {
            return Err(ServeError::Corrupt(format!(
                "shard {}: partition metadata disagrees with shard 0 \
                 (the shard directories come from different partitionings)",
                persistence.shard
            )));
        }
    }
    let next_global = persists
        .iter()
        .map(|p| p.last_global)
        .max()
        .expect("shards > 0")
        .max(bases.base_epoch);
    let net = ShardedNetwork::from_recovered(partitions, bases, next_global);
    Ok((net, persists, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::FsyncPolicy;
    use crate::snapshot::write_snapshot;
    use trafficgen::{evolve, generate, StreamConfig, TrafficConfig};

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nemo-shard-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_options() -> PersistOptions {
        PersistOptions {
            fsync: FsyncPolicy::Never,
            segment_max_bytes: 512,
            snapshot_every_bytes: 0,
            snapshot_every_epochs: 0,
            ..PersistOptions::default()
        }
    }

    fn evolved_live(events: usize) -> LiveNetwork {
        let w = generate(&TrafficConfig {
            nodes: 16,
            edges: 22,
            prefixes: 2,
            seed: 8,
        });
        let mut live = LiveNetwork::from_workload(&w);
        for event in &evolve(&w, &StreamConfig { events, seed: 4 }) {
            live.apply_event(event).unwrap();
        }
        live
    }

    #[test]
    fn sharded_log_then_recover_merges_identically() {
        let root = temp_root("roundtrip");
        let shards = 3u32;
        let mut reference = evolved_live(0);
        let (mut net, mut persists, _) =
            recover_or_create_sharded(&root, &test_options(), shards, 2, || reference.clone())
                .unwrap();
        let w = generate(&TrafficConfig {
            nodes: 16,
            edges: 22,
            prefixes: 2,
            seed: 8,
        });
        for event in &evolve(
            &w,
            &StreamConfig {
                events: 50,
                seed: 12,
            },
        ) {
            let mutation = crate::mutation::Mutation::from_event(&event.event);
            let expected = reference.apply(&mutation);
            match net.apply(&mutation) {
                Ok(global) => {
                    assert_eq!(Ok(global), expected);
                    let k = net.route(&mutation);
                    let record = WalRecord {
                        epoch: net.local_epoch(k),
                        at_ms: event.at_ms,
                        mutation,
                    };
                    persists[k as usize].log(&record, global).unwrap();
                }
                Err(e) => assert_eq!(Err(e), expected),
            }
        }
        for p in &mut persists {
            p.sync().unwrap();
        }
        drop(persists);
        drop(net);

        let (recovered, persists, reports) =
            recover_or_create_sharded(&root, &test_options(), shards, 2, || unreachable!())
                .unwrap();
        assert_eq!(recovered.global_epoch(), reference.epoch());
        assert_eq!(
            write_snapshot(&recovered.merged()),
            write_snapshot(&reference)
        );
        assert!(reports.iter().all(|r| r.truncated_bytes == 0));
        // Each shard remembers the global epoch of *its* last record; the
        // final mutation landed on exactly one of them.
        assert!(persists
            .iter()
            .all(|p| p.last_global() <= reference.epoch()));
        assert_eq!(
            persists.iter().map(|p| p.last_global()).max(),
            Some(reference.epoch())
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recovery_refuses_a_different_shard_count() {
        let root = temp_root("count");
        let live = evolved_live(10);
        recover_or_create_sharded(&root, &test_options(), 4, 1, || live.clone()).unwrap();
        let err =
            recover_or_create_sharded(&root, &test_options(), 2, 1, || unreachable!()).unwrap_err();
        assert!(
            matches!(&err, ServeError::Corrupt(msg) if msg.contains("want shard 0 of 2")),
            "got {err}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn per_shard_snapshots_compact_and_still_recover() {
        let root = temp_root("compact");
        let shards = 2u32;
        let w = generate(&TrafficConfig {
            nodes: 16,
            edges: 22,
            prefixes: 2,
            seed: 8,
        });
        let mut reference = LiveNetwork::from_workload(&w);
        let (mut net, mut persists, _) =
            recover_or_create_sharded(&root, &test_options(), shards, 1, || reference.clone())
                .unwrap();
        let events = evolve(
            &w,
            &StreamConfig {
                events: 40,
                seed: 21,
            },
        );
        for (i, event) in events.iter().enumerate() {
            let mutation = crate::mutation::Mutation::from_event(&event.event);
            if reference.apply(&mutation).is_err() {
                assert!(net.apply(&mutation).is_err());
                continue;
            }
            let global = net
                .apply(&mutation)
                .unwrap_or_else(|_| unreachable!("reference accepted the mutation"));
            let k = net.route(&mutation);
            let record = WalRecord {
                epoch: net.local_epoch(k),
                at_ms: event.at_ms,
                mutation,
            };
            persists[k as usize].log(&record, global).unwrap();
            if i == 19 {
                for k in 0..shards {
                    persists[k as usize]
                        .force_snapshot(net.partition(k))
                        .unwrap();
                }
            }
        }
        drop(persists);
        let (recovered, _, reports) =
            recover_or_create_sharded(&root, &test_options(), shards, 1, || unreachable!())
                .unwrap();
        assert!(reports.iter().any(|r| r.snapshot_epoch > 0));
        assert_eq!(
            write_snapshot(&recovered.merged()),
            write_snapshot(&reference)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Drives `events` through a fresh sharded layout, force-snapshotting
    /// every shard (whose local epoch advanced) at each stream index in
    /// `snapshot_at`. Returns the unsharded reference state and the
    /// per-shard persistence handles.
    fn drive_sharded(
        root: &Path,
        shards: u32,
        events: usize,
        snapshot_at: &[usize],
    ) -> (LiveNetwork, Vec<ShardPersistence>) {
        let w = generate(&TrafficConfig {
            nodes: 16,
            edges: 22,
            prefixes: 2,
            seed: 8,
        });
        let mut reference = LiveNetwork::from_workload(&w);
        let (mut net, mut persists, _) =
            recover_or_create_sharded(root, &test_options(), shards, 1, || reference.clone())
                .unwrap();
        for (i, event) in evolve(&w, &StreamConfig { events, seed: 21 })
            .iter()
            .enumerate()
        {
            let mutation = crate::mutation::Mutation::from_event(&event.event);
            if reference.apply(&mutation).is_err() {
                assert!(net.apply(&mutation).is_err());
                continue;
            }
            let global = net
                .apply(&mutation)
                .unwrap_or_else(|_| unreachable!("reference accepted the mutation"));
            let k = net.route(&mutation);
            let record = WalRecord {
                epoch: net.local_epoch(k),
                at_ms: event.at_ms,
                mutation,
            };
            persists[k as usize].log(&record, global).unwrap();
            if snapshot_at.contains(&i) {
                for k in 0..shards {
                    let newest = persists[k as usize]
                        .store()
                        .snapshot_metas()
                        .last()
                        .map(|m| m.epoch)
                        .unwrap();
                    if net.local_epoch(k) > newest {
                        persists[k as usize]
                            .force_snapshot(net.partition(k))
                            .unwrap();
                    }
                }
            }
        }
        for p in &mut persists {
            p.sync().unwrap();
        }
        (reference, persists)
    }

    #[test]
    fn shard_delta_chains_recover_and_merge_identically() {
        let root = temp_root("delta");
        let shards = 2u32;
        let (reference, persists) = drive_sharded(&root, shards, 40, &[9, 19, 29]);
        // The mid-stream snapshots took the O(delta) path on every shard
        // that had logged records since its previous snapshot.
        assert!(
            persists
                .iter()
                .any(|p| p.store().snapshot_metas().iter().any(|m| m.base.is_some())),
            "at least one shard must have installed a delta snapshot"
        );
        drop(persists);
        let (recovered, _, reports) =
            recover_or_create_sharded(&root, &test_options(), shards, 1, || unreachable!())
                .unwrap();
        assert!(reports.iter().all(|r| r.skipped_snapshots.is_empty()));
        assert!(reports.iter().any(|r| r.snapshot_epoch > 0));
        assert_eq!(recovered.global_epoch(), reference.epoch());
        assert_eq!(
            write_snapshot(&recovered.merged()),
            write_snapshot(&reference)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_damaged_shard_delta_link_falls_back_loudly() {
        let root = temp_root("delta-damage");
        let shards = 2u32;
        let (reference, persists) = drive_sharded(&root, shards, 40, &[9, 19, 29]);
        // Pick a shard with at least two chained deltas and damage the
        // *middle* link, so the tip's failure must name its broken base.
        let victim = persists
            .iter()
            .find(|p| {
                let metas = p.store().snapshot_metas();
                metas.len() >= 3 && metas[1].base.is_some() && metas[2].base.is_some()
            })
            .expect("some shard chained at least two deltas");
        let shard = victim.shard();
        let metas = victim.store().snapshot_metas().to_vec();
        let damaged = metas[1];
        let path = shard_dir(&root, shard).join(nemo_store::delta_snapshot_file_name(
            damaged.epoch,
            damaged.base.unwrap(),
        ));
        drop(persists);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let (recovered, _, reports) =
            recover_or_create_sharded(&root, &test_options(), shards, 1, || unreachable!())
                .unwrap();
        let report = &reports[shard as usize];
        // Every snapshot above the damaged link was skipped — each with
        // the failing base named — and the survivor is the one below it.
        assert!(!report.skipped_snapshots.is_empty(), "{report:?}");
        assert!(
            report
                .skipped_snapshots
                .iter()
                .any(|(_, reason)| reason.contains(&format!("base {}", damaged.epoch))),
            "{:?}",
            report.skipped_snapshots
        );
        assert!(report.snapshot_epoch < damaged.epoch, "{report:?}");
        assert_eq!(
            write_snapshot(&recovered.merged()),
            write_snapshot(&reference)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn newer_or_malformed_shard_schemas_are_refused_with_clear_reasons() {
        fn parse_err(text: &str) -> ServeError {
            match parse_shard_any(text.to_string(), 0, 1) {
                Err(e) => e,
                Ok(_) => panic!("document must be refused: {text}"),
            }
        }
        let future = r#"{"schema":"nemo-shard/v3","shard":0,"shards":1}"#;
        let err = parse_err(future);
        assert!(
            err.to_string().contains("newer than this build supports"),
            "{err}"
        );
        let wrong_kind = r#"{"schema":"nemo-shard/v2","kind":"full","shard":0,"shards":1}"#;
        let err = parse_err(wrong_kind);
        assert!(err.to_string().contains("want \"delta\""), "{err}");
        let inverted = r#"{"schema":"nemo-shard/v2","kind":"delta","shard":0,"shards":1,"epoch":4,"delta_base":7,"last_global":9,"records":[]}"#;
        let err = parse_err(inverted);
        assert!(err.to_string().contains("bases must be older"), "{err}");
        let short = r#"{"schema":"nemo-shard/v2","kind":"delta","shard":0,"shards":1,"epoch":4,"delta_base":2,"last_global":9,"records":[]}"#;
        let err = parse_err(short);
        assert!(
            err.to_string().contains("carries 0 records, want 2"),
            "{err}"
        );
    }

    #[test]
    fn a_full_snapshot_is_forced_once_the_chain_is_long_enough() {
        let root = temp_root("chain-cap");
        // One shard: every stream event advances it, so each snapshot
        // point installs exactly one snapshot.
        let (_, persists) = drive_sharded(&root, 1, 40, &[7, 15, 23, 31, 39]);
        let metas = persists[0].store().snapshot_metas();
        // Genesis full, then MAX_DELTA_CHAIN deltas, then a full anchor,
        // then the chain restarts.
        assert_eq!(metas[0], nemo_store::SnapshotMeta::full(0));
        for meta in &metas[1..=MAX_DELTA_CHAIN] {
            assert!(meta.base.is_some(), "{metas:?}");
        }
        assert_eq!(metas[MAX_DELTA_CHAIN + 1].base, None, "{metas:?}");
        assert!(metas[MAX_DELTA_CHAIN + 2].base.is_some(), "{metas:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn sweep_prunes_aged_out_chains_and_recovery_still_works() {
        let root = temp_root("sweep");
        // Deltas at 8/16/24 chain to genesis; the chain cap forces a full
        // at 32 and the delta at 40 builds on it — so with keep=2 the
        // retained roots are {32, 40} and the whole old chain ages out.
        let (reference, mut persists) = drive_sharded(&root, 1, 40, &[7, 15, 23, 31, 39]);
        let pending = persists[0].store().sweep_plan().removals();
        assert!(pending > 0, "aged-out snapshots must be deletable");
        let outcome = persists[0].sweep(usize::MAX).unwrap();
        assert_eq!(outcome.remaining, 0);
        assert!(outcome.pruned_snapshots > 0);
        drop(persists);
        let (recovered, _, reports) =
            recover_or_create_sharded(&root, &test_options(), 1, 1, || unreachable!()).unwrap();
        assert!(reports[0].skipped_snapshots.is_empty(), "{reports:?}");
        assert_eq!(reports[0].snapshot_epoch, 40);
        assert_eq!(
            write_snapshot(&recovered.merged()),
            write_snapshot(&reference)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn create_refuses_an_occupied_directory_and_recover_an_empty_one() {
        let root = temp_root("occupied");
        let net = ShardedNetwork::from_live(&evolved_live(0), 1).unwrap();
        let _stores = create_sharded(&root, &test_options(), &net).unwrap();
        assert!(matches!(
            create_sharded(&root, &test_options(), &net),
            Err(ServeError::Storage(_))
        ));
        let empty = temp_root("empty");
        assert!(matches!(
            ShardPersistence::recover(&shard_dir(&empty, 0), &test_options(), 0, 1),
            Err(ServeError::Storage(_))
        ));
        // recover_or_create handles both.
        let (state, _, reports) =
            recover_or_create_sharded(&empty, &test_options(), 1, 1, || evolved_live(0)).unwrap();
        assert_eq!(
            write_snapshot(&state.merged()),
            write_snapshot(&evolved_live(0))
        );
        assert_eq!(reports, vec![RecoveryReport::default()]);
        std::fs::remove_dir_all(&root).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    /// Every file under `root` with its bytes, for "left untouched" checks.
    fn tree(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = BTreeMap::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    files.insert(path.clone(), Vec::new());
                    stack.push(path);
                } else {
                    files.insert(path.clone(), std::fs::read(&path).unwrap());
                }
            }
        }
        files
    }

    #[test]
    fn mismatched_or_old_layouts_fail_without_touching_the_root() {
        let live = evolved_live(10);
        for (written, reopened) in [(1u32, 4u32), (4, 1)] {
            let root = temp_root(&format!("layout-{written}-{reopened}"));
            recover_or_create_sharded(&root, &test_options(), written, 1, || live.clone()).unwrap();
            let before = tree(&root);
            let err = recover_or_create_sharded(&root, &test_options(), reopened, 1, || {
                unreachable!("an occupied root is never re-created")
            })
            .unwrap_err();
            // Too few shard stores is a layout refusal; too many fails on
            // the shard identity every document carries.
            let refused = match &err {
                ServeError::Layout(msg) => written < reopened && msg.contains("[0]"),
                ServeError::Corrupt(msg) => {
                    written > reopened && msg.contains(&format!("want shard 0 of {reopened}"))
                }
                _ => false,
            };
            assert!(refused, "{written} -> {reopened}: {err}");
            assert_eq!(
                tree(&root),
                before,
                "{written} -> {reopened} touched the root"
            );
            // The acked data is still there for the right shard count.
            let (net, _, _) =
                recover_or_create_sharded(&root, &test_options(), written, 1, || unreachable!())
                    .unwrap();
            assert_eq!(net.global_epoch(), 10);
            assert_eq!(write_snapshot(&net.merged()), write_snapshot(&live));
            std::fs::remove_dir_all(&root).unwrap();
        }
        // Store files directly under the root: the single-shard layout
        // from before every store moved under shard-<k>/.
        let root = temp_root("layout-old");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join(nemo_store::snapshot_file_name(0)), "{}").unwrap();
        let before = tree(&root);
        for shards in [1, 4] {
            let err = recover_or_create_sharded(&root, &test_options(), shards, 1, || {
                unreachable!("an old-layout root is never re-created")
            })
            .unwrap_err();
            assert!(
                matches!(&err, ServeError::Layout(msg) if msg.contains("nemo-wal/v1")),
                "{err}"
            );
            let net = ShardedNetwork::from_live(&live, shards).unwrap();
            assert!(matches!(
                create_sharded(&root, &test_options(), &net),
                Err(ServeError::Layout(_))
            ));
        }
        assert_eq!(tree(&root), before, "the old layout was touched");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
