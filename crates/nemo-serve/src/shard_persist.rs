//! Durable persistence: one `nemo-store` directory per shard, for every
//! shard count.
//!
//! A durable server keeps `shards` independent stores under
//! `root/shard-<k>/`, each holding exactly one partition's slice of the
//! state; a single-shard server is the same layout with one directory.
//! Every document is cut from the served state at install ([`crate::shard`]).
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
//! * **Snapshots are shard documents.** Every snapshot is a full
//!   `nemo-shard/v3` document: an ordinary inner snapshot (at the *local*
//!   epoch) together with the shard's identity (`shard`/`shards`), the
//!   sequence-number bases fixed at partition time, the per-row sequence
//!   vectors, and the highest global epoch the shard had observed. The
//!   inner snapshot is nested as an object, byte for byte the text
//!   `crate::snapshot::write_snapshot` gives the partition, so one
//!   `netgraph::json::JsonWriter` writes the whole document in one pass
//!   (only the snapshot's CSV tables sit inside string literals) and
//!   recovery parses it once. `nemo-shard/v1` documents, which held the
//!   same snapshot as a string literal, are still read: a store written
//!   by an older build recovers, and its next install writes v3. The
//!   WAL alone carries the records between two snapshots. A shard's
//!   store installs once the WAL past its newest snapshot reaches half
//!   that document, or [`PersistOptions::snapshot_every_bytes`] if that is
//!   larger, so a recovery replays at most about that much WAL; a
//!   recovered store takes the size from the document it recovered from.
//!   [`PersistOptions::snapshot_every_epochs`] adds a fixed install point.
//! * **Sweep** — installing deletes nothing. Pruning old snapshots and
//!   deleting covered WAL segments is a separate sweep, which
//!   [`Server::sweep_persistence`](crate::Server::sweep_persistence) runs
//!   at batch boundaries so `append` never waits on filesystem removals.
//! * **Recovery** rebuilds each partition from its newest *valid*
//!   snapshot plus the WAL suffix. A damaged document fails that
//!   candidate loudly (recorded in the report) and recovery falls back to
//!   the next older retained snapshot, whose WAL suffix retention keeps. A
//!   torn tail record is truncated (by the store), and every unrecoverable
//!   condition — CRC mismatch, missing segment, epoch gap, conflicting
//!   replay — fails loudly.
//!
//! Each shard recovers from its own directory with **no cross-shard
//! coordination** — ghost endpoints make every per-shard stream
//! independently applicable — and
//! [`ServerBuilder::recover_or_create`](crate::ServerBuilder::recover_or_create)
//! hands the recovered partitions, which must agree on the partition
//! metadata, to the [`ShardedNetwork`] to merge at the first read.
//!
//! **Layouts this build refuses.** A root holding store files directly
//! is the single-shard layout written before every store moved under
//! `shard-<k>/` (`nemo-wal/v1` records, `nemo-snapshot/v1,v2` documents).
//! It is refused with [`ServeError::Layout`], as is a shard directory
//! holding a delta snapshot (`snap-<e>-from-<b>.snap`, a `nemo-shard/v2`
//! document older builds wrote between full snapshots) and a root holding
//! stores for only some of the requested shards. These checks read the
//! directory listing only, so a refused root is left exactly as it was. A
//! root written with more shards than requested fails on the shard
//! identity every document carries.

use crate::codec::{self, decode_shard_record, encode_shard_record, SHARD_WAL_MAGIC};
use crate::error::ServeError;
use crate::live::LiveNetwork;
use crate::mutation::{Epoch, WalRecord};
use crate::persist::{with_storage_retry, PersistOptions, RecoveryReport, RetryMetrics};
use crate::shard::{SeqBases, ShardedNetwork};
use crate::snapshot::{
    parse_snapshot, snapshot_parts, snapshot_size_hint, write_snapshot_into, SnapshotParts,
};
use nemo_bench::pool;
use nemo_obs::Class;
use nemo_store::record::{Framed, FRAME_HEADER_BYTES};
use nemo_store::{Store, StoreConfig, StoreMetrics, SweepOutcome};
use netgraph::json::{JsonValue, JsonWriter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Schema tag of the per-shard snapshot document.
pub const SHARD_SCHEMA: &str = "nemo-shard/v3";

/// The schema older builds wrote: the same fields, with the snapshot held
/// as a string literal instead of an object. Read, never written.
const SHARD_SCHEMA_V1: &str = "nemo-shard/v1";

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
        partition: &LiveNetwork,
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
    ) -> Result<(LiveNetwork, ShardPersistence, RecoveryReport), ServeError> {
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
        // Newest shard document that still validates; a damaged one fails
        // the candidate loudly and recovery falls back to the next older.
        let mut base: Option<(u64, ShardDocument)> = None;
        for epoch in store.snapshot_epochs().to_vec().into_iter().rev() {
            match read_shard_snapshot(&mut store, epoch, shard, shards) {
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
        store.replay(snapshot_epoch, |epoch, payload| {
            let (record, global) = decode_shard_record(payload)?;
            if record.epoch != epoch {
                return Err(ServeError::Corrupt(format!(
                    "shard WAL record at log position {epoch} carries epoch {}",
                    record.epoch
                )));
            }
            if record.epoch != partition.epoch() + 1 {
                return Err(ServeError::Corrupt(format!(
                    "WAL gap: shard state is at epoch {}, next record is epoch {}",
                    partition.epoch(),
                    record.epoch
                )));
            }
            // The record was validated globally when it was logged, so one
            // that does not apply is damage, not a rejected request.
            bases
                .apply(&mut partition, global, &record.mutation)
                .map_err(|e| match e {
                    ServeError::Conflict(why) | ServeError::Corrupt(why) => {
                        ServeError::Corrupt(format!(
                            "shard WAL record at log position {epoch} does not apply to the \
                             recovered state: {why}"
                        ))
                    }
                    other => other,
                })?;
            last_global = last_global.max(global);
            report.replayed_records += 1;
            Ok::<_, ServeError>(())
        })?;
        // Completeness: recovering below the newest epoch the store ever
        // held would be silent data loss.
        if let Some(last) = store.last_epoch() {
            if partition.epoch() < last {
                return Err(ServeError::Corrupt(format!(
                    "recovery reached epoch {} but the store once held epoch {last}; \
                     the WAL covering the difference is gone (compacted or deleted)",
                    partition.epoch()
                )));
            }
        }
        partition.settle();
        let persistence = ShardPersistence {
            store,
            shard,
            shards,
            bases,
            last_global,
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
        Ok(())
    }

    /// Batch-boundary fsync.
    pub(crate) fn sync(&mut self) -> Result<(), ServeError> {
        self.store.sync()?;
        Ok(())
    }

    /// Writes and installs a snapshot of this shard's partition of `net`
    /// if the store's thresholds say one is due; returns whether it did.
    pub(crate) fn maybe_snapshot(&mut self, net: &mut ShardedNetwork) -> Result<bool, ServeError> {
        if !self.store.snapshot_due(net.local_epoch(self.shard)) {
            return Ok(false);
        }
        self.force_full_snapshot(&net.partition(self.shard))?;
        Ok(true)
    }

    /// Unconditionally writes and installs a full shard snapshot, under a
    /// Physical `store.snapshot` span covering both the document encoding
    /// (its `snapshot.encode` child) and the install (the store's
    /// `store.write` and `store.fsync` children).
    pub(crate) fn force_full_snapshot(
        &mut self,
        partition: &LiveNetwork,
    ) -> Result<(), ServeError> {
        let _snapshot_span = self.store.tracer().span("store.snapshot", Class::Physical);
        let document = {
            let _encode_span = self.store.tracer().span("snapshot.encode", Class::Physical);
            self.shard_document(partition)
        };
        let retry = self.retry.clone();
        with_storage_retry(&retry, || {
            Ok(self.store.install_snapshot(partition.epoch(), &document)?)
        })
    }

    /// Executes up to `max_removals` deferred removals (snapshot pruning,
    /// WAL compaction) on this shard's store.
    pub(crate) fn sweep(&mut self, max_removals: usize) -> Result<SweepOutcome, ServeError> {
        let retry = self.retry.clone();
        with_storage_retry(&retry, || Ok(self.store.sweep(max_removals)?))
    }

    /// The full `nemo-shard/v3` document of `partition`, written into one
    /// writer sized up front, behind the bytes its store frame's header
    /// takes, and framed in place. The inner snapshot is written in place,
    /// as an object.
    fn shard_document(&self, partition: &LiveNetwork) -> Framed {
        // Each sequence number takes at most ~8 bytes.
        let capacity = 8 * (partition.node_seqs().len() + partition.edge_seqs().len())
            + snapshot_size_hint(partition);
        let mut out = JsonWriter::reserving(FRAME_HEADER_BYTES, capacity);
        self.write_shard_document(partition, &mut out);
        Framed::seal(out.finish().into_bytes())
    }

    /// Writes the document's fields with their keys in sorted order, as a
    /// `JsonValue` object writes them.
    fn write_shard_document(&self, partition: &LiveNetwork, out: &mut JsonWriter) {
        fn field(out: &mut JsonWriter, key: &str, value: u64) {
            out.string(key);
            out.text(":");
            out.uint(value);
            out.text(",");
        }
        fn seqs(out: &mut JsonWriter, key: &str, values: &[u64]) {
            out.string(key);
            out.text(":[");
            for (i, &value) in values.iter().enumerate() {
                if i > 0 {
                    out.text(",");
                }
                out.uint(value);
            }
            out.text("],");
        }
        out.text("{");
        field(out, "base_epoch", self.bases.base_epoch);
        field(out, "edge_seq_base", self.bases.edge_seq_base);
        seqs(out, "edge_seqs", partition.edge_seqs());
        field(out, "last_global", self.last_global);
        field(out, "node_seq_base", self.bases.node_seq_base);
        seqs(out, "node_seqs", partition.node_seqs());
        out.text("\"schema\":");
        out.string(SHARD_SCHEMA);
        out.text(",");
        field(out, "shard", self.shard.into());
        field(out, "shards", self.shards.into());
        out.text("\"snapshot\":");
        write_snapshot_into(partition, out);
        out.text("}");
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

/// What a parsed shard snapshot yields.
struct ShardDocument {
    partition: LiveNetwork,
    bases: SeqBases,
    last_global: Epoch,
}

/// Reads a sequence vector, which must ascend strictly: the merge orders
/// rows by these numbers, and they are the partition's row keys (the edge
/// ones binary-searched).
fn get_seqs(root: &BTreeMap<String, JsonValue>, key: &str) -> Result<Vec<u64>, ServeError> {
    let Some(JsonValue::Array(items)) = root.get(key) else {
        return Err(ServeError::Corrupt(format!(
            "shard snapshot field {key:?} is missing or not an array"
        )));
    };
    let mut seqs: Vec<u64> = Vec::with_capacity(items.len());
    for item in items {
        let Some(seq) = codec::non_negative(item) else {
            return Err(ServeError::Corrupt(format!(
                "shard snapshot {key} entry is {item:?}, want a non-negative integer"
            )));
        };
        if let Some(&last) = seqs.last() {
            if seq <= last {
                return Err(ServeError::Corrupt(format!(
                    "shard snapshot {key} is not strictly ascending: entry {} is {seq} after {last}",
                    seqs.len()
                )));
            }
        }
        seqs.push(seq);
    }
    Ok(seqs)
}

/// Parses a `nemo-shard/v3` (or `v1`) document and checks it belongs to
/// shard `want_shard` of `want_shards`. A schema version newer than this
/// build's is refused with a message that stays distinguishable from
/// disk corruption.
fn parse_shard(
    text: String,
    want_shard: u32,
    want_shards: u32,
) -> Result<ShardDocument, ServeError> {
    let corrupt = |msg: String| ServeError::Corrupt(msg);
    let doc = JsonValue::parse(&text).map_err(|e| corrupt(format!("not JSON: {e}")))?;
    // The parsed tree holds everything the text does: free the text.
    drop(text);
    let JsonValue::Object(mut root) = doc else {
        return Err(corrupt("shard snapshot root is not an object".to_string()));
    };
    let schema = match root.get("schema") {
        Some(JsonValue::String(s)) => s.clone(),
        other => {
            return Err(corrupt(format!(
                "schema field is {other:?}, want \"{SHARD_SCHEMA}\""
            )))
        }
    };
    check_shard_identity(&root, want_shard, want_shards)?;
    if schema != SHARD_SCHEMA && schema != SHARD_SCHEMA_V1 {
        // v2 is the delta schema of older builds, written only under
        // delta file names, which `probe_layout` refuses.
        let newer = schema
            .strip_prefix("nemo-shard/v")
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&version| version > 3);
        return Err(corrupt(match newer {
            Some(version) => format!(
                "shard snapshot format version {version} is newer than this build supports \
                 (v3); refusing to load"
            ),
            None => format!("schema field is {schema:?}, want \"{SHARD_SCHEMA}\""),
        }));
    }
    let bases = SeqBases {
        base_epoch: codec::get_u64(&root, "base_epoch")?,
        node_seq_base: codec::get_u64(&root, "node_seq_base")?,
        edge_seq_base: codec::get_u64(&root, "edge_seq_base")?,
    };
    let last_global = codec::get_u64(&root, "last_global")?;
    let node_seqs = get_seqs(&root, "node_seqs")?;
    let edge_seqs = get_seqs(&root, "edge_seqs")?;
    // Moved out, not copied, and the rest of the document freed before
    // the snapshot is decoded.
    let snapshot = match (schema == SHARD_SCHEMA, root.remove("snapshot")) {
        (true, Some(JsonValue::Object(snapshot))) => snapshot,
        // The one v1 arm: the same snapshot, held as a string literal.
        (false, Some(JsonValue::String(text))) => parse_snapshot(&text)?,
        (v3, _) => {
            return Err(corrupt(format!(
                "shard snapshot field \"snapshot\" is not {} as {schema} has it",
                if v3 { "an object" } else { "a string" }
            )))
        }
    };
    drop(root);
    let SnapshotParts {
        graph,
        nodes,
        edges,
        epoch,
    } = snapshot_parts(snapshot)?;
    if node_seqs.len() != nodes.n_rows() || edge_seqs.len() != edges.n_rows() {
        return Err(corrupt(format!(
            "sequence vectors ({} nodes, {} edges) do not match the frames ({} nodes, {} edges)",
            node_seqs.len(),
            edge_seqs.len(),
            nodes.n_rows(),
            edges.n_rows()
        )));
    }
    Ok(ShardDocument {
        partition: LiveNetwork::from_keyed_parts(graph, nodes, edges, epoch, node_seqs, edge_seqs),
        bases,
        last_global,
    })
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

/// Reads the shard snapshot at `epoch` into a restored partition, the
/// store taking its size for its install trigger. Any failure — an
/// unreadable file, a failed validation, a document holding another
/// epoch — is returned whole, so the caller can fall back past it loudly.
fn read_shard_snapshot(
    store: &mut Store,
    epoch: u64,
    shard: u32,
    shards: u32,
) -> Result<ShardDocument, ServeError> {
    let bytes = store.recover_snapshot(epoch)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| ServeError::Corrupt("shard snapshot document is not UTF-8".to_string()))?;
    let doc = parse_shard(text, shard, shards)?;
    if doc.partition.epoch() != epoch {
        return Err(ServeError::Corrupt(format!(
            "shard snapshot file for epoch {epoch} carries state at epoch {}",
            doc.partition.epoch()
        )));
    }
    Ok(doc)
}

/// Whether `dir` holds WAL segments or snapshot files (a missing
/// directory holds none); a delta snapshot file from an older build is
/// refused with [`ServeError::Layout`]. Reads the listing only — a probe through
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
    let mut found = false;
    for entry in entries {
        let entry =
            entry.map_err(|e| ServeError::Storage(format!("probing {}: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("snap-") && name.contains("-from-") && name.ends_with(".snap") {
            return Err(ServeError::Layout(format!(
                "{} is a delta snapshot written by an older build (a nemo-shard/v2 document \
                 between full snapshots). This build does not read it; recover the root with \
                 the build that wrote it, or start a fresh root",
                dir.join(name).display()
            )));
        }
        found |= nemo_store::segment::parse_segment_name(name).is_some()
            || nemo_store::parse_snapshot_name(name).is_some();
    }
    Ok(found)
}

/// Checks the layout under `root` before anything is opened: `Ok(false)`
/// when no shard holds a store yet, `Ok(true)` when every one of the
/// `shards` directories does. A root holding store files directly (the
/// pre-`shard-<k>/` single-shard layout), a delta snapshot file, or stores
/// for only some shards is refused with [`ServeError::Layout`], touching
/// nothing.
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

/// Creates every shard's store under `root` for a fresh network,
/// installing each genesis document, one cut at a time. An occupied shard
/// directory or a refused layout (see [`probe_layout`]) is an error.
pub(crate) fn create_sharded(
    root: &Path,
    options: &PersistOptions,
    net: &mut ShardedNetwork,
) -> Result<Vec<ShardPersistence>, ServeError> {
    probe_layout(root, net.shards())?;
    let (shards, bases) = (net.shards(), net.bases());
    (0..shards)
        .map(|k| {
            let dir = shard_dir(root, k);
            ShardPersistence::create(&dir, options, k, shards, bases, &net.partition(k))
                .map_err(|e| e.with_shard(k, None))
        })
        .collect()
}

/// Opens (or creates) the whole layout under `root`: either every shard
/// directory is recovered — in parallel over `threads` workers, each
/// shard independently — or, when no shard holds a store yet, the network
/// is built fresh from `init()` and every shard's genesis document
/// installed. Layouts [`probe_layout`] refuses fail before
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
        let mut net = ShardedNetwork::from_live(&init(), shards)?;
        let persists = create_sharded(root, options, &mut net)?;
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
    let net = ShardedNetwork::from_partitions(partitions, bases, next_global);
    Ok((net, persists, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::{adversarial_string, adversarial_value};
    use crate::mutation::Mutation;
    use crate::persist::FsyncPolicy;
    use crate::shard::tests::without_orphans;
    use crate::snapshot::{read_snapshot, write_snapshot};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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

    /// `live` without edge attributes named `source` or `target`: a link
    /// object holds its endpoints under those names, and they win.
    fn without_link_fields(live: &LiveNetwork) -> LiveNetwork {
        let mut graph = live.graph().clone();
        let links: Vec<(String, String)> = graph
            .edges()
            .map(|(u, v, _)| (u.to_string(), v.to_string()))
            .collect();
        for (u, v) in &links {
            let attrs = graph.edge_attrs_mut(u, v).unwrap();
            attrs.remove("source");
            attrs.remove("target");
        }
        LiveNetwork::from_parts(
            graph,
            live.nodes().clone(),
            live.edges().clone(),
            live.epoch(),
        )
    }

    /// The text of the snapshot a `nemo-shard/v3` document nests: the value
    /// of its last key, `snapshot`, up to the document's closing brace.
    fn nested_snapshot(document: &str) -> &str {
        let (_, snapshot) = document
            .split_once("\"snapshot\":")
            .expect("a snapshot field");
        snapshot
            .strip_suffix('}')
            .expect("the document's closing brace")
    }

    /// `document` re-escaped as the `nemo-shard/v1` document of the same
    /// state: its snapshot held as a string literal, the schema set back.
    fn as_v1(document: &str) -> String {
        let (head, _) = document.split_once("\"snapshot\":").unwrap();
        let snapshot = JsonValue::String(nested_snapshot(document).to_string());
        format!(
            "{}\"snapshot\":{}}}",
            head.replace(SHARD_SCHEMA, SHARD_SCHEMA_V1),
            snapshot.to_json()
        )
    }

    /// The `nemo-shard/v1` document an older build wrote for shard `shard`
    /// of `net`, built as a `JsonValue` tree: [`write_snapshot`] of the
    /// partition, embedded as a string.
    fn v1_document(net: &mut ShardedNetwork, shard: u32, last_global: Epoch) -> String {
        let int = |value: u64| JsonValue::from(value as i64);
        let seqs = |values: &[u64]| JsonValue::Array(values.iter().map(|&v| int(v)).collect());
        let (bases, shards) = (net.bases(), net.shards());
        let partition = net.partition(shard);
        let fields = [
            ("base_epoch", int(bases.base_epoch)),
            ("edge_seq_base", int(bases.edge_seq_base)),
            ("edge_seqs", seqs(partition.edge_seqs())),
            ("last_global", int(last_global)),
            ("node_seq_base", int(bases.node_seq_base)),
            ("node_seqs", seqs(partition.node_seqs())),
            ("schema", JsonValue::String(SHARD_SCHEMA_V1.to_string())),
            ("shard", int(shard.into())),
            ("shards", int(shards.into())),
            ("snapshot", JsonValue::String(write_snapshot(&partition))),
        ];
        JsonValue::Object(fields.map(|(k, v)| (k.to_string(), v)).into()).to_json()
    }

    proptest! {
        /// The snapshot a shard document nests, cut back out of the
        /// document's text, reads back as the partition it was written
        /// from, and writes again to the same text. The states carry attributes
        /// with every escape and value type, and edge attributes named
        /// like a link's endpoint fields.
        #[test]
        fn embedded_snapshots_read_back_as_the_partition(seed in 0u64..u64::MAX, shards in 1u32..4) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = generate(&TrafficConfig {
                nodes: 12,
                edges: 16,
                prefixes: 2,
                seed: rng.gen_range(0..1000),
            });
            let mut live = LiveNetwork::from_workload(&w);
            let events = rng.gen_range(0..40);
            for event in &evolve(&w, &StreamConfig { events, seed }) {
                live.apply_event(event).unwrap();
            }
            for _ in 0..rng.gen_range(0..10) {
                let id = w.endpoints[rng.gen_range(0..w.endpoints.len())].to_string_dotted();
                // Frame columns hold scalars: a list has no CSV form that
                // reads back as a list.
                let (key, depth) = match rng.gen_range(0..5) {
                    0 => ("prefix16".to_string(), 0),
                    1 => ("source".to_string(), 2),
                    2 => ("target".to_string(), 2),
                    _ => (adversarial_string(&mut rng), 2),
                };
                let value = adversarial_value(&mut rng, depth);
                let _ = live.apply(&Mutation::SetNodeAttr { id, key, value });
            }
            let mut graph = live.graph().clone();
            let links: Vec<(String, String)> = graph
                .edges()
                .map(|(u, v, _)| (u.to_string(), v.to_string()))
                .collect();
            for (u, v) in links.iter().step_by(2) {
                for name in ["source", "target"] {
                    let value = adversarial_value(&mut rng, 1);
                    graph.set_edge_attr(u, v, name, value).unwrap();
                }
            }
            let state =
                LiveNetwork::from_parts(graph, live.nodes().clone(), live.edges().clone(), live.epoch());
            let root = temp_root("embedded-snapshots");
            let (mut net, persists, _) =
                recover_or_create_sharded(&root, &test_options(), shards, 1, || state.clone()).unwrap();
            for k in 0..shards {
                let bytes = persists[k as usize]
                    .store()
                    .read_snapshot(net.local_epoch(k))
                    .unwrap();
                let text = String::from_utf8(bytes).unwrap();
                let Ok(JsonValue::Object(document)) = JsonValue::parse(&text) else {
                    return Err(format!("shard {k}: the document is not a JSON object"));
                };
                let Some(JsonValue::Object(_)) = document.get("snapshot") else {
                    return Err(format!("shard {k}: no snapshot object"));
                };
                let inner = nested_snapshot(&text);
                let restored = read_snapshot(inner).unwrap();
                prop_assert!(
                    restored == without_link_fields(&net.partition(k)),
                    "shard {k} of {shards} read back differently"
                );
                prop_assert_eq!(write_snapshot(&restored), inner);
            }
            drop(persists);
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    proptest! {
        /// Tombstones change no byte. A partition that leaves each removed
        /// row dead and settles at random points (with `settle_odds` 0,
        /// only at the end) matches one that compacts every removal at
        /// once, as `remove_row` did: at every settle the two hold the same
        /// frames, `edge_row` answers, snapshot bytes and shard document,
        /// and in between every live pair's row in the deferred frame holds
        /// the eager row. A standalone network on the deferred path (the
        /// served state's) matches [`LiveNetwork::apply`] the same way.
        #[test]
        fn deferred_removals_match_eager_ones(seed in 0u64..u64::MAX, settle_odds in 0u32..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = generate(&TrafficConfig {
                nodes: 12,
                edges: 24,
                prefixes: 2,
                seed: rng.gen_range(0..1000),
            });
            let initial = LiveNetwork::from_workload(&w);
            let root = temp_root("deferred-removals");
            let (mut net, persists, _) =
                recover_or_create_sharded(&root, &test_options(), 1, 1, || initial.clone()).unwrap();
            let bases = net.bases();
            // [partition, standalone], each eager and deferred.
            let mut eager = [net.partition(0).into_owned(), initial.clone()];
            let mut deferred = eager.clone();
            let mut global = bases.base_epoch;
            for event in &evolve(&w, &StreamConfig { events: 80, seed }) {
                let mut mutations = vec![Mutation::from_event(&event.event)];
                // Remove-heavy: a random live edge is dropped as well now
                // and then (later events naming it then conflict, skipped).
                let rows = eager[1].edges().n_rows();
                if rows > 0 && rng.gen_bool(0.4) {
                    let row = rng.gen_range(0..rows);
                    let at = |column| eager[1].edges().value(row, column).unwrap().to_string();
                    mutations.push(Mutation::RemoveEdge {
                        source: at("source"),
                        target: at("target"),
                    });
                }
                for mutation in mutations {
                    if eager[1].apply(&mutation).is_err() {
                        continue;
                    }
                    global += 1;
                    deferred[1].apply_checked(&mutation);
                    bases.apply(&mut eager[0], global, &mutation).unwrap();
                    eager[0].settle();
                    bases.apply(&mut deferred[0], global, &mutation).unwrap();
                }
                if settle_odds > 0 && rng.gen_range(0..settle_odds) == 0 {
                    deferred.iter_mut().for_each(LiveNetwork::settle);
                }
                for (eager, deferred) in eager.iter().zip(&deferred) {
                    prop_assert!(eager.is_settled());
                    for row in 0..eager.edges().n_rows() {
                        let at = |column| eager.edges().value(row, column).unwrap().to_string();
                        let (source, target) = (at("source"), at("target"));
                        prop_assert_eq!(eager.edge_row(&source, &target), Some(row));
                        let found = deferred.edge_row(&source, &target);
                        match deferred.is_settled() {
                            true => prop_assert_eq!(found, Some(row)),
                            false => prop_assert_eq!(
                                deferred.unsettled_edges().row(found.unwrap()).unwrap(),
                                eager.edges().row(row).unwrap()
                            ),
                        }
                    }
                }
                for (eager, deferred) in eager.iter().zip(&deferred).filter(|(_, d)| d.is_settled()) {
                    prop_assert!(deferred == eager);
                    prop_assert_eq!(write_snapshot(deferred), write_snapshot(eager));
                }
                if deferred[0].is_settled() {
                    prop_assert_eq!(deferred[0].edge_seqs(), eager[0].edge_seqs());
                    prop_assert_eq!(
                        persists[0].shard_document(&deferred[0]),
                        persists[0].shard_document(&eager[0])
                    );
                }
            }
            deferred.iter_mut().for_each(LiveNetwork::settle);
            for (eager, deferred) in eager.iter().zip(&deferred) {
                prop_assert!(deferred == eager);
                prop_assert_eq!(write_snapshot(deferred), write_snapshot(eager));
            }
            prop_assert_eq!(
                persists[0].shard_document(&deferred[0]),
                persists[0].shard_document(&eager[0])
            );
            drop(persists);
            std::fs::remove_dir_all(&root).unwrap();
        }
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
    fn a_logged_record_that_conflicts_in_replay_is_corruption() {
        let root = temp_root("conflicting-replay");
        let (mut net, persists, _) =
            recover_or_create_sharded(&root, &test_options(), 2, 1, || evolved_live(0)).unwrap();
        drop(persists);
        // An `AddNode` for a node shard 1 already holds, appended at the
        // shard's next local epoch: the store accepts the record, replay
        // cannot apply it.
        let id = net.partition(1).nodes().value(0, "id").unwrap().to_string();
        let record = WalRecord {
            epoch: net.local_epoch(1) + 1,
            at_ms: 0,
            mutation: crate::mutation::Mutation::AddNode {
                id: id.clone(),
                prefix16: "0.0".into(),
                prefix24: "0.0.0".into(),
            },
        };
        let options = test_options();
        let mut store = Store::open_with(
            &shard_dir(&root, 1),
            shard_store_config(&options),
            options.vfs.clone(),
        )
        .unwrap()
        .0;
        let payload = encode_shard_record(&record, net.global_epoch() + 1);
        store.append(record.epoch, &payload).unwrap();
        store.sync().unwrap();
        drop(store);
        let err = recover_or_create_sharded(&root, &options, 2, 1, || unreachable!()).unwrap_err();
        let position = format!("shard 1: shard WAL record at log position {}", record.epoch);
        assert!(
            matches!(&err, ServeError::Corrupt(msg)
                if msg.starts_with(&position) && msg.ends_with(&format!("node {id} already exists"))),
            "{err}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_logged_record_at_the_partition_epoch_is_corruption() {
        let root = temp_root("partition-epoch-replay");
        let (mut net, persists, _) =
            recover_or_create_sharded(&root, &test_options(), 2, 1, || evolved_live(0)).unwrap();
        drop(persists);
        // A mutation shard 1 can apply, carrying the partition-time global
        // epoch: no applied record can hold it.
        let record = WalRecord {
            epoch: net.local_epoch(1) + 1,
            at_ms: 0,
            mutation: crate::mutation::Mutation::SetNodeAttr {
                id: net.partition(1).nodes().value(0, "id").unwrap().to_string(),
                key: "label".into(),
                value: "x".into(),
            },
        };
        let options = test_options();
        let mut store = Store::open_with(
            &shard_dir(&root, 1),
            shard_store_config(&options),
            options.vfs.clone(),
        )
        .unwrap()
        .0;
        store
            .append(
                record.epoch,
                &encode_shard_record(&record, net.bases().base_epoch),
            )
            .unwrap();
        store.sync().unwrap();
        drop(store);
        let err = recover_or_create_sharded(&root, &options, 2, 1, || unreachable!()).unwrap_err();
        let position = format!("shard 1: shard WAL record at log position {}", record.epoch);
        assert!(
            matches!(&err, ServeError::Corrupt(msg)
                if msg.starts_with(&position)
                    && msg.ends_with("global epoch 0 does not exceed the partition-time epoch 0")),
            "{err}"
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
                        .force_full_snapshot(&net.partition(k))
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
                    let newest = *persists[k as usize]
                        .store()
                        .snapshot_epochs()
                        .last()
                        .unwrap();
                    if net.local_epoch(k) > newest {
                        persists[k as usize]
                            .force_full_snapshot(&net.partition(k))
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
    fn a_damaged_newest_snapshot_falls_back_loudly() {
        let root = temp_root("snapshot-damage");
        let shards = 2u32;
        let (reference, mut persists) = drive_sharded(&root, shards, 40, &[9, 19, 29]);
        // Sweep down to what retention keeps: the two newest snapshots and
        // the WAL from the older one.
        for p in &mut persists {
            p.sweep(usize::MAX).unwrap();
        }
        let victim = persists
            .iter()
            .find(|p| p.store().snapshot_epochs().len() == 2)
            .expect("some shard retains two snapshots");
        let shard = victim.shard();
        let (older, newest) = match victim.store().snapshot_epochs() {
            &[older, newest] => (older, newest),
            other => unreachable!("{other:?}"),
        };
        let tip = victim.store().last_epoch().unwrap();
        let path = shard_dir(&root, shard).join(nemo_store::snapshot_file_name(newest));
        drop(persists);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let (recovered, _, reports) =
            recover_or_create_sharded(&root, &test_options(), shards, 1, || unreachable!())
                .unwrap();
        let report = &reports[shard as usize];
        // The damaged snapshot is skipped with its reason, and the older
        // one plus the WAL reaches the same state.
        assert_eq!(report.skipped_snapshots.len(), 1, "{report:?}");
        let (skipped, reason) = &report.skipped_snapshots[0];
        assert_eq!(*skipped, newest);
        assert!(reason.contains("checksum"), "{reason}");
        assert_eq!(report.snapshot_epoch, older, "{report:?}");
        assert_eq!(report.replayed_records, tip - older, "{report:?}");
        assert_eq!(
            write_snapshot(&recovered.merged()),
            write_snapshot(&reference)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn newer_or_malformed_shard_schemas_are_refused_with_clear_reasons() {
        fn parse_err(text: &str) -> ServeError {
            match parse_shard(text.to_string(), 0, 1) {
                Err(e) => e,
                Ok(_) => panic!("document must be refused: {text}"),
            }
        }
        let future = r#"{"schema":"nemo-shard/v4","shard":0,"shards":1}"#;
        let err = parse_err(future);
        assert!(
            err.to_string()
                .contains("version 4 is newer than this build supports (v3)"),
            "{err}"
        );
        // The delta schema older builds wrote is not read.
        let retired = r#"{"schema":"nemo-shard/v2","kind":"delta","shard":0,"shards":1}"#;
        let err = parse_err(retired);
        assert!(err.to_string().contains("want \"nemo-shard/v3\""), "{err}");
        let untagged = r#"{"shard":0,"shards":1}"#;
        let err = parse_err(untagged);
        assert!(err.to_string().contains("schema field is None"), "{err}");
        // A snapshot of the JSON type the other schema holds it as.
        for (schema, snapshot, want) in [
            ("nemo-shard/v3", r#""{}""#, "an object"),
            ("nemo-shard/v1", "{}", "a string"),
        ] {
            let document = format!(
                r#"{{"base_epoch":0,"edge_seq_base":0,"edge_seqs":[],"last_global":0,"node_seq_base":0,"node_seqs":[],"schema":"{schema}","shard":0,"shards":1,"snapshot":{snapshot}}}"#
            );
            let err = parse_err(&document);
            assert!(
                err.to_string()
                    .contains(&format!("is not {want} as {schema} has it")),
                "{err}"
            );
        }
    }

    #[test]
    fn v1_stores_recover_and_upgrade_in_place() {
        let w = generate(&TrafficConfig {
            nodes: 16,
            edges: 22,
            prefixes: 2,
            seed: 8,
        });
        let events = evolve(
            &w,
            &StreamConfig {
                events: 60,
                seed: 21,
            },
        );
        let options = test_options();
        for shards in 1u32..=3 {
            let root = temp_root(&format!("upgrade-{shards}"));
            let mut reference = LiveNetwork::from_workload(&w);
            let mut net = ShardedNetwork::from_live(&reference, shards).unwrap();
            // The store an older build wrote: v1 genesis documents, 40
            // events logged, and a v1 snapshot of every shard after 20.
            let mut stores: Vec<Store> = (0..shards)
                .map(|k| {
                    let dir = shard_dir(&root, k);
                    let config = shard_store_config(&options);
                    Store::open_with(&dir, config, options.vfs.clone())
                        .unwrap()
                        .0
                })
                .collect();
            let mut last_global = vec![net.bases().base_epoch; shards as usize];
            for k in 0..shards {
                let genesis = v1_document(&mut net, k, last_global[k as usize]);
                stores[k as usize]
                    .install_snapshot(0, &Framed::copy(genesis.as_bytes()))
                    .unwrap();
            }
            for (i, event) in events[..40].iter().enumerate() {
                let mutation = Mutation::from_event(&event.event);
                if reference.apply(&mutation).is_err() {
                    continue;
                }
                let global = net.apply(&mutation).unwrap();
                let k = net.route(&mutation);
                let record = WalRecord {
                    epoch: net.local_epoch(k),
                    at_ms: event.at_ms,
                    mutation,
                };
                let payload = encode_shard_record(&record, global);
                stores[k as usize].append(record.epoch, &payload).unwrap();
                last_global[k as usize] = global;
                if i == 19 {
                    for k in 0..shards {
                        let epoch = net.local_epoch(k);
                        let document = v1_document(&mut net, k, last_global[k as usize]);
                        if epoch > 0 {
                            stores[k as usize]
                                .install_snapshot(epoch, &Framed::copy(document.as_bytes()))
                                .unwrap();
                        }
                    }
                }
            }
            for store in &mut stores {
                store.sync().unwrap();
            }
            drop(stores);
            // It recovers to the same partitions, less the ghosts no live
            // edge names, which a cut of the served state leaves out.
            let (mut recovered, mut persists, reports) =
                recover_or_create_sharded(&root, &options, shards, 1, || unreachable!()).unwrap();
            assert!(reports.iter().any(|r| r.snapshot_epoch > 0), "{reports:?}");
            assert!(reports.iter().all(|r| r.skipped_snapshots.is_empty()));
            for k in 0..shards {
                let got = without_orphans(&recovered.partition(k));
                let want = net.partition(k);
                assert_eq!(
                    write_snapshot(&got),
                    write_snapshot(&want),
                    "{k} of {shards}"
                );
                assert_eq!(got.node_seqs(), want.node_seqs(), "{k} of {shards}");
                assert_eq!(got.edge_seqs(), want.edge_seqs(), "{k} of {shards}");
            }
            // The rest logged by this build, then a later install: v3.
            for event in &events[40..] {
                let mutation = Mutation::from_event(&event.event);
                if reference.apply(&mutation).is_err() {
                    continue;
                }
                let global = recovered.apply(&mutation).unwrap();
                let k = recovered.route(&mutation);
                let record = WalRecord {
                    epoch: recovered.local_epoch(k),
                    at_ms: event.at_ms,
                    mutation,
                };
                persists[k as usize].log(&record, global).unwrap();
            }
            let mut upgraded = Vec::new();
            for (k, persistence) in persists.iter_mut().enumerate() {
                let epoch = recovered.local_epoch(k as u32);
                if persistence.store().snapshot_epochs().last() < Some(&epoch) {
                    persistence
                        .force_full_snapshot(&recovered.partition(k as u32))
                        .unwrap();
                    upgraded.push((k as u32, epoch));
                }
                persistence.sync().unwrap();
            }
            let &(victim, newest) = upgraded.first().expect("some shard advanced");
            let text = persists[victim as usize].store().read_snapshot(newest);
            let Ok(JsonValue::Object(document)) =
                JsonValue::parse(std::str::from_utf8(&text.unwrap()).unwrap())
            else {
                panic!("a shard document is a JSON object");
            };
            assert_eq!(
                document.get("schema"),
                Some(&JsonValue::String(SHARD_SCHEMA.to_string()))
            );
            assert!(matches!(
                document.get("snapshot"),
                Some(JsonValue::Object(_))
            ));
            let older = persists[victim as usize].store().snapshot_epochs();
            let older = older[older.len() - 2];
            drop(persists);
            // A damaged v3 document falls back to the retained v1 one.
            let path = shard_dir(&root, victim).join(nemo_store::snapshot_file_name(newest));
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
            let (recovered, _, reports) =
                recover_or_create_sharded(&root, &options, shards, 1, || unreachable!()).unwrap();
            let report = &reports[victim as usize];
            assert_eq!(report.skipped_snapshots.len(), 1, "{report:?}");
            assert_eq!(report.skipped_snapshots[0].0, newest, "{report:?}");
            assert_eq!(report.snapshot_epoch, older, "{report:?}");
            assert_eq!(
                write_snapshot(&recovered.merged()),
                write_snapshot(&reference),
                "{shards} shards"
            );
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn shard_documents_with_unordered_sequences_are_refused() {
        let root = temp_root("unordered");
        let live = evolved_live(30);
        let (_, persists, _) =
            recover_or_create_sharded(&root, &test_options(), 2, 1, || live.clone()).unwrap();
        let genesis = persists[0].store().read_snapshot(0).unwrap();
        let genesis = String::from_utf8(genesis).unwrap();
        assert!(parse_shard(genesis.clone(), 0, 2).is_ok());
        // Hand edits: two entries swapped, and one repeated.
        let edits: [fn(&mut Vec<JsonValue>); 2] =
            [|seqs| seqs.swap(0, 1), |seqs| seqs[1] = seqs[0].clone()];
        for field in ["edge_seqs", "node_seqs"] {
            for edit in edits {
                let Ok(JsonValue::Object(mut doc)) = JsonValue::parse(&genesis) else {
                    panic!("a shard document is a JSON object");
                };
                let Some(JsonValue::Array(seqs)) = doc.get_mut(field) else {
                    panic!("{field} is an array");
                };
                assert!(seqs.len() >= 2, "the shard needs two {field} entries");
                edit(seqs);
                match parse_shard(JsonValue::Object(doc).to_json(), 0, 2) {
                    Err(ServeError::Corrupt(msg)) => {
                        assert!(msg.contains(field), "{msg}");
                        assert!(msg.contains("not strictly ascending"), "{msg}");
                    }
                    Err(other) => panic!("{field}: want a corrupt-document error, got {other}"),
                    Ok(_) => panic!("{field}: an unordered document must be refused"),
                }
            }
        }
        drop(persists);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn sweep_prunes_aged_out_chains_and_recovery_still_works() {
        let root = temp_root("sweep");
        // One shard: every stream event advances it, so each snapshot
        // point installs exactly one snapshot. With keep=2 the retained
        // snapshots are {32, 40}; genesis and 8/16/24 age out, and so do
        // the WAL segments wholly at or below 32.
        let (reference, mut persists) = drive_sharded(&root, 1, 40, &[7, 15, 23, 31, 39]);
        assert_eq!(
            persists[0].store().snapshot_epochs(),
            &[0, 8, 16, 24, 32, 40]
        );
        let plan = persists[0].store().sweep_plan();
        assert_eq!(plan.prune_snapshots, vec![0, 8, 16, 24]);
        assert_eq!(plan.covered_epoch, Some(32));
        let outcome = persists[0].sweep(usize::MAX).unwrap();
        assert_eq!(outcome.remaining, 0);
        assert_eq!(outcome.pruned_snapshots, 4);
        assert!(outcome.removed_segments > 0, "{outcome:?}");
        assert_eq!(persists[0].store().snapshot_epochs(), &[32, 40]);
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
        let mut net = ShardedNetwork::from_live(&evolved_live(0), 1).unwrap();
        let _stores = create_sharded(&root, &test_options(), &mut net).unwrap();
        assert!(matches!(
            create_sharded(&root, &test_options(), &mut net),
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
            let mut net = ShardedNetwork::from_live(&live, shards).unwrap();
            assert!(matches!(
                create_sharded(&root, &test_options(), &mut net),
                Err(ServeError::Layout(_))
            ));
        }
        assert_eq!(tree(&root), before, "the old layout was touched");
        std::fs::remove_dir_all(&root).unwrap();
        // A delta snapshot an older build wrote between full snapshots,
        // beside a crashed install's `.tmp` that opening shard 0's store
        // would delete: refused by name before any store is opened.
        let root = temp_root("layout-delta");
        recover_or_create_sharded(&root, &test_options(), 2, 1, || live.clone()).unwrap();
        let delta = "snap-00000000000000000004-from-00000000000000000000.snap";
        std::fs::write(shard_dir(&root, 1).join(delta), "{}").unwrap();
        let tmp = format!("{}.tmp", nemo_store::snapshot_file_name(9));
        std::fs::write(shard_dir(&root, 0).join(tmp), "half").unwrap();
        let before = tree(&root);
        let err = recover_or_create_sharded(&root, &test_options(), 2, 1, || {
            unreachable!("an occupied root is never re-created")
        })
        .unwrap_err();
        assert!(
            matches!(&err, ServeError::Layout(msg)
                if msg.contains(delta) && msg.contains("delta snapshot written by an older build")),
            "{err}"
        );
        assert_eq!(tree(&root), before, "the delta-holding root was touched");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The mutations of the codec identity test: an `evolve` stream, then
    /// attributes carrying every escape and value type the codecs handle
    /// (quotes, commas, newlines, control and non-ASCII text, floats, a
    /// null, lists, an integer past 2^53), in the frames' columns as well
    /// as graph-only keys.
    fn codec_identity_mutations(w: &trafficgen::TrafficWorkload) -> Vec<crate::mutation::Mutation> {
        use crate::mutation::Mutation;
        use netgraph::AttrValue;
        let mut mutations: Vec<Mutation> = evolve(
            w,
            &StreamConfig {
                events: 300,
                seed: 5,
            },
        )
        .iter()
        .map(|event| Mutation::from_event(&event.event))
        .collect();
        let values = [
            (
                "prefix16",
                AttrValue::from("quote \" comma , newline \n tab \t é€ 日本 \u{1}"),
            ),
            ("prefix24", AttrValue::Float(2.5)),
            ("prefix24", AttrValue::Null),
            (
                "prefix16",
                AttrValue::List(vec![
                    AttrValue::Int(1),
                    AttrValue::from("x\"y"),
                    AttrValue::Float(0.5),
                    AttrValue::Null,
                ]),
            ),
            ("prefix24", AttrValue::Float(3.0)),
            ("label", AttrValue::from("app:\"db\"\r\n")),
            ("weight", AttrValue::Float(1e20)),
            ("big", AttrValue::Int(i64::MAX)),
            ("flag", AttrValue::Bool(true)),
            (
                "tags",
                AttrValue::List(vec![AttrValue::from("é"), AttrValue::Float(-0.0)]),
            ),
        ];
        for (i, (key, value)) in values.into_iter().enumerate() {
            mutations.push(Mutation::SetNodeAttr {
                id: w.endpoints[(7 * i) % w.endpoints.len()].to_string_dotted(),
                key: key.to_string(),
                value,
            });
        }
        mutations
    }

    /// `(length, CRC-32)` of a document.
    fn digest(bytes: &[u8]) -> (usize, u32) {
        (bytes.len(), nemo_store::crc32::crc32(bytes))
    }

    #[test]
    fn codec_bytes_match_pinned_digests() {
        use nemo_core::apps::ApplicationWrapper;
        let w = generate(&TrafficConfig {
            nodes: 40,
            edges: 120,
            prefixes: 3,
            seed: 17,
        });
        let initial = LiveNetwork::from_workload(&w);
        let mut reference = initial.clone();
        for mutation in codec_identity_mutations(&w) {
            let _ = reference.apply(&mutation);
        }
        let (mut documents, mut parent_documents) = (Vec::new(), Vec::new());
        for shards in [1u32, 3] {
            let root = temp_root(&format!("codec-identity-{shards}"));
            let (mut net, mut persists, _) =
                recover_or_create_sharded(&root, &test_options(), shards, 1, || initial.clone())
                    .unwrap();
            // The partitions builds before cut documents held in memory:
            // each shard's genesis partition, its own records applied.
            let bases = net.bases();
            let mut held: Vec<LiveNetwork> =
                (0..shards).map(|k| net.partition(k).into_owned()).collect();
            for (i, mutation) in codec_identity_mutations(&w).into_iter().enumerate() {
                let Ok(global) = net.apply(&mutation) else {
                    continue;
                };
                let k = net.route(&mutation);
                bases
                    .apply(&mut held[k as usize], global, &mutation)
                    .unwrap();
                let record = WalRecord {
                    epoch: net.local_epoch(k),
                    at_ms: i as u64,
                    mutation,
                };
                persists[k as usize].log(&record, global).unwrap();
            }
            let mut written = Vec::new();
            for k in 0..shards {
                persists[k as usize]
                    .force_full_snapshot(&net.partition(k))
                    .unwrap();
                let epoch = net.local_epoch(k);
                let bytes = persists[k as usize].store().read_snapshot(epoch).unwrap();
                let document = String::from_utf8(bytes).unwrap();
                // Re-escaped, it is the v1 document an older build wrote.
                let last_global = persists[k as usize].last_global();
                assert_eq!(as_v1(&document), v1_document(&mut net, k, last_global));
                // What those builds wrote: the held partition's document.
                // Both parse to one partition once its ghosts that no live
                // edge names are dropped.
                held[k as usize].settle();
                let parent = persists[k as usize].shard_document(&held[k as usize]);
                let parent = String::from_utf8(parent.payload().to_vec()).unwrap();
                let cut = parse_shard(document.clone(), k, shards).unwrap().partition;
                let old = parse_shard(parent.clone(), k, shards).unwrap().partition;
                assert_eq!(
                    write_snapshot(&cut),
                    write_snapshot(&without_orphans(&old)),
                    "shard {k} of {shards}"
                );
                assert_eq!(cut.node_seqs(), old.node_seqs());
                assert_eq!(cut.edge_seqs(), old.edge_seqs());
                written.push((epoch, parent.clone()));
                documents.push(document);
                parent_documents.push(parent);
            }
            assert_eq!(
                write_snapshot(&net.merged()),
                write_snapshot(&reference),
                "shards={shards}"
            );
            // The decoders read every document back to the same state...
            drop(persists);
            let (recovered, _, _) =
                recover_or_create_sharded(&root, &test_options(), shards, 1, || unreachable!())
                    .unwrap();
            assert_eq!(
                write_snapshot(&recovered.merged()),
                write_snapshot(&reference),
                "shards={shards}"
            );
            // ...and a store whose newest documents an older build wrote
            // recovers to the same served state.
            drop(recovered);
            for (k, (epoch, parent)) in written.iter().enumerate() {
                let path = shard_dir(&root, k as u32).join(nemo_store::snapshot_file_name(*epoch));
                std::fs::write(&path, Framed::copy(parent.as_bytes()).bytes()).unwrap();
            }
            let (mut recovered, _, reports) =
                recover_or_create_sharded(&root, &test_options(), shards, 1, || unreachable!())
                    .unwrap();
            assert!(reports.iter().all(|r| r.skipped_snapshots.is_empty()));
            assert_eq!(
                write_snapshot(recovered.view()),
                write_snapshot(&reference),
                "shards={shards}"
            );
            std::fs::remove_dir_all(&root).unwrap();
        }
        let snapshot = write_snapshot(&reference);
        let restored = crate::snapshot::read_snapshot(&snapshot).unwrap();
        assert_eq!(write_snapshot(&restored), snapshot);
        let raw = reference.raw_json();
        let digests = |documents: &[String], v1: bool, old_literal: bool, typed_floats: bool| {
            // The graph encoder used to write the `big` attribute,
            // `Int(i64::MAX)`, through f64 as 9223372036854776000 (read back
            // as a float); it now writes it exactly.
            let text = |doc: &str| match old_literal {
                true => doc.replace("9223372036854775807", "9223372036854776000"),
                false => doc.to_string(),
            };
            // A snapshot's graph wrote the integral floats `Float(3.0)` and
            // `Float(-0.0)` as the JSON numbers `3` and `0` (read back as
            // integers) until it gave them the CSV writer's `.0`. The raw
            // graph, the prompt's JSON, still writes JSON numbers.
            let floats = |doc: &str| match typed_floats {
                true => doc.to_string(),
                false => doc
                    .replace("\"prefix24\":3.0", "\"prefix24\":3")
                    .replace("\"tags\":[\"é\",-0.0]", "\"tags\":[\"é\",0]"),
            };
            // Shard documents were `nemo-shard/v1`, their snapshot held as
            // a string literal, until they nested it as an object.
            let document = |doc: &String| match v1 {
                true => as_v1(&floats(doc)),
                false => floats(doc),
            };
            (
                digest(text(&floats(&snapshot)).as_bytes()),
                digest(text(&raw).as_bytes()),
                documents
                    .iter()
                    .map(|doc| digest(text(&document(doc)).as_bytes()))
                    .collect::<Vec<_>>(),
            )
        };
        // Computed by the tree-building encoders these writers replaced.
        // As v1 documents with the old literal put back, the documents hash
        // to exactly those digests, so no other byte moved.
        let before_exact_ints = (
            (40900, 1060199794),
            (26579, 19693951),
            vec![
                (49985, 867782737),
                (15716, 3057864168),
                (15295, 2306062431),
                (21946, 2381505205),
            ],
        );
        assert_eq!(
            digests(&parent_documents, true, true, false),
            before_exact_ints
        );
        // The v1 bytes written before shard documents nested their
        // snapshot: the snapshot, the raw graph and the two shard
        // documents that hold the `big` node differ in that literal.
        let v1 = (
            (40900, 1538155888),
            (26579, 2331508755),
            vec![
                (49985, 2738120251),
                (15716, 879508346),
                (15295, 2306062431),
                (21946, 2381505205),
            ],
        );
        assert_eq!(digests(&parent_documents, true, false, false), v1);
        // The v3 bytes before the graph typed its floats. Only the shard
        // documents moved: each nests its snapshot unescaped, under the v3
        // tag.
        let pinned = (
            (40900, 1538155888),
            (26579, 2331508755),
            vec![
                (42125, 3072692799),
                (13263, 2181919436),
                (12872, 1231311907),
                (18478, 813271069),
            ],
        );
        assert_eq!(digests(&parent_documents, false, false, false), pinned);
        // The bytes written before documents were cut from the served
        // state: the snapshot and the two shard documents that hold those
        // floats gained their `.0`s; the raw graph is unchanged.
        let typed = (
            (40905, 3337761502),
            (26579, 2331508755),
            vec![
                (42130, 1808811995),
                (13263, 2181919436),
                (12877, 2240191531),
                (18478, 813271069),
            ],
        );
        assert_eq!(digests(&parent_documents, false, false, true), typed);
        // The bytes written now. A cut holds only the ghosts live edges
        // name: the two 3-shard documents that held an orphan ghost lost
        // it, and nothing else moved (checked above, document by
        // document).
        let cut = (
            typed.0,
            typed.1,
            vec![
                (42130, 1808811995),
                (13187, 4049036113),
                (12877, 2240191531),
                (18401, 2622366964),
            ],
        );
        assert_eq!(digests(&documents, false, false, true), cut);
    }
}
