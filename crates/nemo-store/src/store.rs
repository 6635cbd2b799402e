//! The store: a directory of WAL segments and snapshot files.
//!
//! The directory listing is the manifest. WAL segments are named by the
//! epoch of their first record, snapshots by the epoch of the state they
//! capture, so ordering and coverage questions are answered by file names
//! alone; file *contents* are additionally checksummed frame by frame.
//!
//! Recovery discipline, enforced in [`Store::open`]:
//!
//! * leftover `.tmp` files (a crash mid-snapshot-write) are deleted;
//! * every frame of every segment is checksum-verified;
//! * a torn tail — the file ends mid-frame — is tolerated on the **newest**
//!   segment only, and is physically truncated so appends continue from a
//!   clean boundary; a tear anywhere else, or any CRC mismatch on a
//!   complete frame, is corruption and fails loudly;
//! * segment first-epochs must chain contiguously (a deleted middle
//!   segment is unrecoverable and fails loudly);
//! * a half-executed sweep needs no repair at all: [`Store::sweep`]
//!   prunes snapshots, then deletes covered segments, each oldest-first,
//!   with the manifest updated only after each removal succeeds, so any
//!   surviving file set is one a clean store could have produced — the
//!   next open just recomputes the remaining [`SweepPlan`] from the
//!   directory listing.

use crate::error::StoreError;
use crate::metrics::StoreMetrics;
use crate::record::{encode_frame, Framed, FRAME_HEADER_BYTES};
use crate::segment::{scan_segment_with, segment_file_name, SegmentScan};
use crate::sweep::{SweepOutcome, SweepPlan};
use crate::vfs::{RealFs, Vfs, VfsFile};
use nemo_obs::trace::Tracer;
use nemo_obs::Class;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// When appended records reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: no acknowledged record is ever
    /// lost, at one disk round-trip per mutation.
    EveryRecord,
    /// No automatic `fsync`; the caller invokes [`Store::sync`] at batch
    /// boundaries, amortizing the round-trip over the batch.
    EveryBatch,
    /// Never `fsync` (tests and benchmarks): durability degrades to
    /// whatever the OS page cache survives.
    Never,
}

impl FsyncPolicy {
    /// True when metadata operations (segment creation, snapshot install,
    /// directory renames) must reach the platter — every policy except
    /// [`FsyncPolicy::Never`].
    pub fn durable_metadata(&self) -> bool {
        !matches!(self, FsyncPolicy::Never)
    }
}

/// File extension of snapshot documents.
pub const SNAPSHOT_EXT: &str = "snap";

/// File name of the snapshot capturing state at `epoch`.
pub fn snapshot_file_name(epoch: u64) -> String {
    format!("snap-{epoch:020}.{SNAPSHOT_EXT}")
}

/// Parses a snapshot file name back to its epoch.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?;
    let digits = rest.strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The byte trigger's proportional part: a snapshot is due once the WAL
/// past the newest snapshot reaches `1/SNAPSHOT_WAL_DIVISOR` of that
/// snapshot's framed size (see [`StoreConfig::snapshot_every_bytes`]). At
/// 2 an install rewrites the state once per half a document of WAL, and
/// a recovery replays at most about half a document.
pub const SNAPSHOT_WAL_DIVISOR: u64 = 2;

/// Sizing and durability knobs of one store. The crate sets no defaults:
/// the caller (the serving layer's `PersistOptions`) writes every field.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Magic string written into (and required from) every segment header;
    /// the payload format version tag (e.g. `nemo-wal/v1`).
    pub magic: String,
    /// Automatic fsync behavior on append.
    pub fsync: FsyncPolicy,
    /// Seal the active segment and open a new one once it holds at least
    /// this many bytes.
    pub segment_max_bytes: u64,
    /// The floor of the byte trigger: report a snapshot as due once the
    /// WAL bytes appended since the newest snapshot reach this many, or
    /// `1/`[`SNAPSHOT_WAL_DIVISOR`] of that snapshot's framed size,
    /// whichever is larger (0 disables the byte trigger). The proportional
    /// part rewrites each byte of state a bounded number of times per WAL
    /// byte, however large the state grows.
    pub snapshot_every_bytes: u64,
    /// Report a snapshot as due once this many epochs passed since the
    /// newest snapshot (0 disables the epoch trigger): a deterministic
    /// install point for tests.
    pub snapshot_every_epochs: u64,
    /// How many snapshots to retain (at least 1). Older ones are deleted
    /// by [`Store::sweep`], not on install.
    pub keep_snapshots: usize,
}

/// A fully validated, no-longer-written segment.
#[derive(Debug)]
struct Sealed {
    path: PathBuf,
    first_epoch: u64,
    records: u64,
    bytes: u64,
}

/// The newest segment, open for append.
#[derive(Debug)]
struct Active {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    first_epoch: u64,
    records: u64,
    bytes: u64,
}

impl Active {
    fn last_epoch(&self) -> Option<u64> {
        self.records.checked_sub(1).map(|i| self.first_epoch + i)
    }
}

/// What [`Store::open`] found and repaired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpenReport {
    /// Bytes cut off the newest segment's torn tail (0 on a clean open).
    pub truncated_bytes: u64,
    /// Newest segment deleted whole because its header frame never landed.
    pub removed_torn_segment: bool,
    /// Leftover `.tmp` files deleted.
    pub removed_tmp_files: usize,
    /// Segments present after repair.
    pub segments: usize,
    /// Snapshot files present.
    pub snapshots: usize,
    /// Deletable files left behind by an interrupted sweep (or a crash
    /// between snapshot install and sweep): the removals the recomputed
    /// [`SweepPlan`] calls for. 0 on a fully swept store.
    pub pending_sweep_removals: usize,
}

/// A directory of checksummed WAL segments plus snapshot files.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    /// Every filesystem operation goes through this seam; [`RealFs`] by
    /// default, a fault injector under test.
    vfs: Arc<dyn Vfs>,
    sealed: Vec<Sealed>,
    active: Option<Active>,
    /// Epochs of the snapshots on disk, ascending.
    snapshots: Vec<u64>,
    /// Epoch of the last record or snapshot, whichever is newest; `None`
    /// for an empty store.
    last_epoch: Option<u64>,
    /// Epoch through which records are *known durable*: set on open (the
    /// platter holds whatever survived), advanced by successful fsyncs.
    /// Meaningful under durable policies; under [`FsyncPolicy::Never`] it
    /// tracks explicit [`Store::sync`] calls only.
    durable_epoch: Option<u64>,
    /// Set once the write path is permanently wounded (a failed fsync
    /// over appended records, an unrollbackable write). All mutating
    /// operations are rejected with a clone of this error; reads stay up.
    poisoned: Option<StoreError>,
    /// WAL bytes appended since the newest snapshot was installed — the
    /// byte trigger of [`Store::snapshot_due`]. On reopen this is
    /// approximated from segments holding records past the newest
    /// snapshot (whole-segment granularity, conservative).
    bytes_past_snapshot: u64,
    /// Framed size of the newest snapshot this handle installed, or of the
    /// one recovery read ([`Store::recover_snapshot`]), which scales the
    /// byte trigger.
    snapshot_bytes: u64,
    /// Hot-path instrumentation; detached (recording goes nowhere) until
    /// [`Store::attach_metrics`] binds it to a shared registry.
    metrics: StoreMetrics,
    /// Request-scoped tracing; disabled (spans are no-ops) until
    /// [`Store::attach_tracer`] binds it to a shared flight recorder.
    tracer: Tracer,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, validating every
    /// frame and repairing a crash tail — see the module docs for the
    /// recovery discipline. Uses the production filesystem ([`RealFs`]);
    /// [`Store::open_with`] takes an explicit [`Vfs`].
    pub fn open(dir: &Path, config: StoreConfig) -> Result<(Store, OpenReport), StoreError> {
        Store::open_with(dir, config, Arc::new(RealFs))
    }

    /// [`Store::open`] with every filesystem operation routed through
    /// `vfs` — the production seam for deterministic fault injection.
    pub fn open_with(
        dir: &Path,
        config: StoreConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(Store, OpenReport), StoreError> {
        if config.keep_snapshots == 0 {
            return Err(StoreError::InvalidArgument(
                "keep_snapshots must be at least 1".to_string(),
            ));
        }
        vfs.create_dir_all(dir)
            .map_err(|e| StoreError::io_at("create", dir, e))?;
        let mut report = OpenReport::default();
        let mut segment_paths: Vec<PathBuf> = Vec::new();
        let mut snapshots: Vec<u64> = Vec::new();
        let entries = vfs
            .read_dir(dir)
            .map_err(|e| StoreError::io_at("list", dir, e))?;
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                vfs.remove_file(&path)
                    .map_err(|e| StoreError::io_at("remove", &path, e))?;
                report.removed_tmp_files += 1;
            } else if crate::segment::parse_segment_name(name).is_some() {
                segment_paths.push(path);
            } else if let Some(epoch) = parse_snapshot_name(name) {
                snapshots.push(epoch);
            }
        }
        segment_paths.sort();
        snapshots.sort_unstable();

        // Scan and validate every segment; repair the newest one's tail.
        let mut scans: Vec<SegmentScan> = Vec::with_capacity(segment_paths.len());
        for path in &segment_paths {
            scans.push(scan_segment_with(vfs.as_ref(), path, &config.magic)?);
        }
        for (i, scan) in scans.iter().enumerate() {
            let is_last = i + 1 == scans.len();
            if !is_last && (scan.torn_at.is_some() || scan.first_epoch.is_none()) {
                return Err(StoreError::Corrupt(format!(
                    "{}: torn frame in a non-final segment (a later segment exists, \
                     so this cannot be a crash tail)",
                    scan.path.display()
                )));
            }
            if i > 0 {
                let prev = &scans[i - 1];
                let expected = prev.first_epoch.expect("non-final segments have headers")
                    + prev.record_count();
                let got = scan.first_epoch.unwrap_or(expected);
                if got != expected {
                    return Err(StoreError::Corrupt(format!(
                        "epoch gap between segments: {} starts at epoch {}, expected {} \
                         (a WAL segment is missing)",
                        scan.path.display(),
                        got,
                        expected
                    )));
                }
            }
        }
        if let Some(last) = scans.last_mut() {
            if last.first_epoch.is_none() {
                // The crash hit before the header frame landed: the file
                // holds nothing; remove it entirely.
                vfs.remove_file(&last.path)
                    .map_err(|e| StoreError::io_at("remove", &last.path, e))?;
                report.truncated_bytes += last.file_len;
                report.removed_torn_segment = true;
                scans.pop();
            } else if let Some(torn_at) = last.torn_at {
                let file = vfs
                    .open_write(&last.path)
                    .map_err(|e| StoreError::io_at("open", &last.path, e))?;
                file.set_len(torn_at)
                    .map_err(|e| StoreError::io_at("truncate", &last.path, e))?;
                file.sync_data()
                    .map_err(|e| StoreError::io_at("fsync", &last.path, e))?;
                report.truncated_bytes += last.file_len - torn_at;
                last.file_len = torn_at;
                last.torn_at = None;
            }
        }

        // All but the newest segment are sealed; the newest reopens for
        // append.
        let mut sealed: Vec<Sealed> = Vec::new();
        let mut active: Option<Active> = None;
        let scan_count = scans.len();
        for (i, scan) in scans.into_iter().enumerate() {
            let first_epoch = scan.first_epoch.expect("headerless segment was removed");
            let records = scan.record_count();
            if i + 1 == scan_count {
                let file = vfs
                    .open_append(&scan.path)
                    .map_err(|e| StoreError::io_at("open", &scan.path, e))?;
                active = Some(Active {
                    file,
                    path: scan.path,
                    first_epoch,
                    records,
                    bytes: scan.file_len,
                });
            } else {
                sealed.push(Sealed {
                    path: scan.path,
                    first_epoch,
                    records,
                    bytes: scan.file_len,
                });
            }
        }

        let wal_last = active.as_ref().and_then(Active::last_epoch).or_else(|| {
            sealed
                .last()
                .and_then(|s| s.records.checked_sub(1).map(|i| s.first_epoch + i))
        });
        let snap_last = snapshots.last().copied();
        let last_epoch = match (wal_last, snap_last) {
            (Some(w), Some(s)) => Some(w.max(s)),
            (w, s) => w.or(s),
        };
        report.segments = sealed.len() + usize::from(active.is_some());
        report.snapshots = snapshots.len();
        // Bytes-since-snapshot approximation: segments whose records reach
        // past the newest snapshot still count toward the next byte
        // trigger.
        let newest_snapshot = snap_last;
        let segment_counts = |first: u64, records: u64, bytes: u64| -> u64 {
            let last = records.checked_sub(1).map(|i| first + i);
            match (last, newest_snapshot) {
                (Some(last), Some(snap)) if last <= snap => 0,
                (None, _) => 0,
                _ => bytes,
            }
        };
        let bytes_past_snapshot = sealed
            .iter()
            .map(|s| segment_counts(s.first_epoch, s.records, s.bytes))
            .sum::<u64>()
            + active
                .as_ref()
                .map_or(0, |a| segment_counts(a.first_epoch, a.records, a.bytes));
        let store = Store {
            dir: dir.to_path_buf(),
            config,
            vfs,
            sealed,
            active,
            snapshots,
            last_epoch,
            // Whatever survived on the platter to be scanned is durable.
            durable_epoch: last_epoch,
            poisoned: None,
            bytes_past_snapshot,
            snapshot_bytes: 0,
            metrics: StoreMetrics::default(),
            tracer: Tracer::default(),
        };
        // A crash mid-sweep needs no repair — the surviving files are a
        // valid store — but report the leftover work so the caller knows
        // a sweep is pending.
        report.pending_sweep_removals = store.sweep_plan().removals();
        Ok((store, report))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration the store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Binds the store's instrumentation to `metrics` (typically
    /// [`StoreMetrics::register`]ed on a shared registry) and folds the
    /// store's current state into the gauges. The gauges are maintained
    /// with delta updates — and given back on drop — so several stores
    /// sharing one registry sum correctly. Call at most once per store.
    pub fn attach_metrics(&mut self, metrics: StoreMetrics) {
        self.metrics = metrics;
        self.add_gauges(1);
    }

    /// Adds this store's share of every gauge to the bound metrics, times
    /// `sign` (1 on attach, -1 on drop).
    fn add_gauges(&self, sign: i64) {
        let segments = self.sealed.len() + usize::from(self.active.is_some());
        self.metrics.segments.add(sign * segments as i64);
        self.metrics
            .snapshots
            .add(sign * self.snapshots.len() as i64);
        self.metrics
            .snapshot_bytes
            .add(sign * self.snapshot_bytes as i64);
        self.metrics
            .wal_bytes_past_snapshot
            .add(sign * self.bytes_past_snapshot as i64);
    }

    /// The store's instrumentation handles (detached unless
    /// [`Store::attach_metrics`] was called).
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Binds the store's fsync spans and poison error tags to `tracer`
    /// (typically the serving layer's per-server flight recorder).
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The store's tracer (disabled unless [`Store::attach_tracer`] was
    /// called); the caller hooks its own store-level spans onto it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// True when the store holds no segments and no snapshots.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.active.is_none() && self.snapshots.is_empty()
    }

    /// Epoch of the last record or snapshot, whichever is newest.
    pub fn last_epoch(&self) -> Option<u64> {
        self.last_epoch
    }

    /// Epoch through which records are known durable (see the field docs:
    /// advanced by successful fsyncs, best-effort under
    /// [`FsyncPolicy::Never`]).
    pub fn durable_epoch(&self) -> Option<u64> {
        self.durable_epoch
    }

    /// Why the write path is permanently wounded, if it is. A poisoned
    /// store rejects every mutation with a clone of this error; reads
    /// ([`Store::replay`], [`Store::read_snapshot`]) stay available, and
    /// reopening the directory recovers whatever the platter holds.
    pub fn poisoned(&self) -> Option<&StoreError> {
        self.poisoned.as_ref()
    }

    /// Permanently wounds the write path (idempotent: the first cause
    /// wins), counting the event in `store_poison_events` and tagging the
    /// owning trace. A cause that is already [`StoreError::Poisoned`] is
    /// kept verbatim; any other is wrapped with the durable epoch.
    fn mark_poisoned(&mut self, cause: StoreError) {
        if self.poisoned.is_none() {
            self.metrics.poison_events.inc();
            self.poisoned = Some(match cause {
                already @ StoreError::Poisoned(_) => already,
                other => StoreError::Poisoned(format!(
                    "write path disabled after an unrecoverable I/O failure \
                     (records past durable epoch {:?} have unknown durability): {other}",
                    self.durable_epoch
                )),
            });
            // Attribute the wound to the request that hit it: the cause
            // lands on the innermost open span of the owning trace.
            if let Some(poison) = &self.poisoned {
                self.tracer.tag_error(&poison.to_string());
            }
        }
    }

    /// Advances the durable epoch to `epoch` (never backwards) after an
    /// fsync that covers it: a segment seal or a snapshot install.
    fn note_synced(&mut self, epoch: u64) {
        if self.durable_epoch.map_or(true, |d| epoch > d) {
            self.durable_epoch = Some(epoch);
        }
    }

    fn check_poisoned(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    /// Snapshot epochs on disk, ascending.
    pub fn snapshot_epochs(&self) -> &[u64] {
        &self.snapshots
    }

    /// Paths of all WAL segments, oldest first (the active segment last).
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = self.sealed.iter().map(|s| s.path.clone()).collect();
        paths.extend(self.active.as_ref().map(|a| a.path.clone()));
        paths
    }

    /// Total bytes across all WAL segment files.
    pub fn wal_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>()
            + self.active.as_ref().map_or(0, |a| a.bytes)
    }

    /// Appends one record. `epoch` must continue the store's epoch sequence
    /// contiguously (`last_epoch + 1`); the first append of an empty store
    /// sets the sequence's origin.
    pub fn append(&mut self, epoch: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.check_poisoned()?;
        if payload.is_empty() {
            // An empty frame is 8 zero bytes — what the decoder classifies
            // as a zero-filled crash tail. Writing one would make the next
            // open silently truncate it (and everything after it).
            return Err(StoreError::InvalidArgument(
                "record payloads must be non-empty".to_string(),
            ));
        }
        if let Some(last) = self.last_epoch {
            if epoch != last + 1 {
                return Err(StoreError::InvalidArgument(format!(
                    "append epoch {epoch} does not continue the log (last epoch is {last})"
                )));
            }
        }
        // Rotate when the active segment is full (or absent).
        let needs_new = match &self.active {
            None => true,
            Some(active) => active.bytes >= self.config.segment_max_bytes,
        };
        if needs_new {
            if let Some(active) = self.active.take() {
                self.metrics.rotations.inc();
                // Seal durably: `sync` only ever covers the *active* file,
                // so under EveryBatch an unsynced outgoing segment would
                // never be covered by a later batch fsync.
                if self.config.fsync.durable_metadata() {
                    let started = Instant::now();
                    let _fsync_span = self.tracer.span("store.fsync", Class::Physical);
                    if let Err(e) = active.file.sync_data() {
                        let err = StoreError::io_at("fsync", &active.path, e);
                        // The records exist on disk regardless of the
                        // fsync's fate: keep the manifest agreeing with
                        // the directory, then wound the write path —
                        // retrying an fsync over possibly-dropped dirty
                        // pages would fake durability (fsyncgate).
                        self.sealed.push(Sealed {
                            path: active.path,
                            first_epoch: active.first_epoch,
                            records: active.records,
                            bytes: active.bytes,
                        });
                        self.metrics.fsync_failures.inc();
                        self.mark_poisoned(err.clone());
                        return Err(err);
                    }
                    self.metrics.fsync_ok(started);
                }
                // The seal fsync covered every record in the outgoing
                // segment.
                if let Some(sealed_last) = active.last_epoch() {
                    if self.config.fsync.durable_metadata() {
                        self.note_synced(sealed_last);
                    }
                }
                self.sealed.push(Sealed {
                    path: active.path,
                    first_epoch: active.first_epoch,
                    records: active.records,
                    bytes: active.bytes,
                });
            }
            self.active = Some(self.create_segment(epoch)?);
            self.metrics.segments.add(1);
        }
        let frame = encode_frame(payload);
        let active = self.active.as_mut().expect("just ensured");
        if let Err(e) = active.file.write_all(&frame) {
            let err = StoreError::io_at("append", &active.path, e);
            // The write may have landed partially (ENOSPC mid-buffer, a
            // short write). Truncate back to the last clean frame
            // boundary; append-mode handles then resume at the new EOF,
            // so a retried append starts from exactly the pre-write
            // state. If even the truncation fails the tail's contents are
            // unknowable — poison the write path.
            if let Err(trunc) = active.file.set_len(active.bytes) {
                let poison = StoreError::Poisoned(format!(
                    "append to {} failed ({err}) and truncating the partial tail back \
                     to {} bytes failed too ({trunc}) — the segment tail is unknowable",
                    active.path.display(),
                    active.bytes,
                ));
                self.mark_poisoned(poison.clone());
                return Err(poison);
            }
            return Err(err);
        }
        active.records += 1;
        active.bytes += frame.len() as u64;
        self.bytes_past_snapshot += frame.len() as u64;
        self.metrics.wal_bytes_past_snapshot.add(frame.len() as i64);
        self.metrics.appends.inc();
        self.metrics.bytes_written.add(frame.len() as u64);
        // Count the record *before* the policy fsync: it is physically in
        // the file, so memory and disk agree whether or not the fsync
        // below succeeds. The ack (an `Ok` return) is still withheld
        // until durability is established.
        self.last_epoch = Some(epoch);
        if self.config.fsync == FsyncPolicy::EveryRecord {
            let started = Instant::now();
            let _fsync_span = self.tracer.span("store.fsync", Class::Physical);
            if let Err(e) = active.file.sync_data() {
                let err = StoreError::io_at("fsync", &active.path, e);
                self.metrics.fsync_failures.inc();
                self.mark_poisoned(err.clone());
                return Err(err);
            }
            self.metrics.fsync_ok(started);
            self.durable_epoch = Some(epoch);
        }
        Ok(())
    }

    /// Forces the active segment to disk (the batch-boundary fsync under
    /// [`FsyncPolicy::EveryBatch`]; a no-op when nothing is open). Syncs
    /// regardless of policy — the policy only governs *automatic* syncs.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.check_poisoned()?;
        if let Some(active) = &self.active {
            let started = Instant::now();
            let _fsync_span = self.tracer.span("store.fsync", Class::Physical);
            if let Err(e) = active.file.sync_data() {
                let err = StoreError::io_at("fsync", &active.path, e);
                self.metrics.fsync_failures.inc();
                self.mark_poisoned(err.clone());
                return Err(err);
            }
            self.metrics.fsync_ok(started);
        }
        self.durable_epoch = self.last_epoch;
        Ok(())
    }

    /// Creates a fresh segment whose first record will carry `first_epoch`.
    ///
    /// Error safety: any failure after the file exists rolls the creation
    /// back (best-effort removal), so a retried append re-creates the
    /// segment instead of colliding with a half-written orphan. Because
    /// the rollback erases the file, a failed header fsync here does
    /// *not* poison the store: no appended record's durability rides on
    /// pages the kernel may have dropped.
    fn create_segment(&self, first_epoch: u64) -> Result<Active, StoreError> {
        let path = self.dir.join(segment_file_name(first_epoch));
        let mut file = self
            .vfs
            .create_new(&path)
            .map_err(|e| StoreError::io_at("create", &path, e))?;
        let header = crate::segment::header_frame(&self.config.magic, first_epoch);
        let staged: Result<(), StoreError> = (|| {
            file.write_all(&header)
                .map_err(|e| StoreError::io_at("write header", &path, e))?;
            if self.config.fsync.durable_metadata() {
                file.sync_data()
                    .map_err(|e| StoreError::io_at("fsync", &path, e))?;
                self.sync_dir()?;
            }
            Ok(())
        })();
        if let Err(err) = staged {
            drop(file);
            let _ = self.vfs.remove_file(&path);
            return Err(err);
        }
        Ok(Active {
            file,
            path,
            first_epoch,
            records: 0,
            bytes: header.len() as u64,
        })
    }

    fn sync_dir(&self) -> Result<(), StoreError> {
        self.vfs
            .sync_dir(&self.dir)
            .map_err(|e| StoreError::io_at("fsync dir", &self.dir, e))
    }

    /// Validates a snapshot install before anything is written.
    fn check_snapshot_install(&self, epoch: u64, document: &[u8]) -> Result<(), StoreError> {
        if document.is_empty() {
            return Err(StoreError::InvalidArgument(
                "snapshot documents must be non-empty".to_string(),
            ));
        }
        if let Some(&newest) = self.snapshots.last() {
            if epoch <= newest {
                return Err(StoreError::InvalidArgument(format!(
                    "snapshot epoch {epoch} is not newer than the existing snapshot at {newest}"
                )));
            }
        }
        if let Some(last) = self.last_epoch {
            if epoch > last {
                return Err(StoreError::InvalidArgument(format!(
                    "snapshot epoch {epoch} is ahead of the log (last epoch is {last})"
                )));
            }
        }
        Ok(())
    }

    /// Writes a framed snapshot document to `file_name` atomically: temp
    /// file, one `write_all` of the frame, fsynced (per policy), renamed
    /// into place.
    ///
    /// Error safety: every failure rolls the filesystem back to "no such
    /// snapshot" (best-effort removal of the temp file *and* the final
    /// name — a torn rename can report failure after the entry already
    /// moved). The manifest never records a snapshot this function
    /// errored on, so disk must not keep one either: a leftover file
    /// would reappear on reopen as a snapshot the caller was told had
    /// failed. No poisoning — the rollback erases the only pages a failed
    /// fsync here could have covered, and no appended record depends on
    /// them.
    fn write_snapshot_file(&self, epoch: u64, document: &Framed) -> Result<(), StoreError> {
        let file_name = snapshot_file_name(epoch);
        let final_path = self.dir.join(&file_name);
        let tmp_path = self.dir.join(format!("{file_name}.tmp"));
        let staged: Result<(), StoreError> = (|| {
            let mut file = self
                .vfs
                .create_truncate(&tmp_path)
                .map_err(|e| StoreError::io_at("create", &tmp_path, e))?;
            {
                let _write_span = self.tracer.span("store.write", Class::Physical);
                file.write_all(document.bytes())
                    .map_err(|e| StoreError::io_at("write", &tmp_path, e))?;
            }
            if self.config.fsync.durable_metadata() {
                let _fsync_span = self.tracer.span("store.fsync", Class::Physical);
                file.sync_data()
                    .map_err(|e| StoreError::io_at("fsync", &tmp_path, e))?;
            }
            Ok(())
        })();
        if let Err(err) = staged {
            let _ = self.vfs.remove_file(&tmp_path);
            return Err(err);
        }
        if let Err(e) = self.vfs.rename(&tmp_path, &final_path) {
            let err = StoreError::io_at("rename", &final_path, e);
            let _ = self.vfs.remove_file(&final_path);
            let _ = self.vfs.remove_file(&tmp_path);
            return Err(err);
        }
        if self.config.fsync.durable_metadata() {
            let _fsync_span = self.tracer.span("store.fsync", Class::Physical);
            if let Err(err) = self.sync_dir() {
                let _ = self.vfs.remove_file(&final_path);
                return Err(err);
            }
        }
        Ok(())
    }

    /// Atomically installs a full snapshot of the state at `epoch`. The
    /// manifest is updated only after the file is durably in place, and
    /// nothing is deleted here: pruning and compaction are recorded as a
    /// [`SweepPlan`] (recomputable at any time, so a crash loses nothing)
    /// and executed off the write path by [`Store::sweep`].
    ///
    /// The document comes framed ([`Framed`]), so a producer that reserved
    /// the header ahead of it hands over a document the store writes as
    /// is, never copying it into a second buffer.
    pub fn install_snapshot(&mut self, epoch: u64, document: &Framed) -> Result<(), StoreError> {
        self.check_poisoned()?;
        self.check_snapshot_install(epoch, document.payload())?;
        self.write_snapshot_file(epoch, document)?;
        self.snapshots.push(epoch);
        self.metrics.snapshots.add(1);
        self.metrics.full_snapshots_written.inc();
        self.last_epoch = Some(self.last_epoch.map_or(epoch, |l| l.max(epoch)));
        if self.config.fsync.durable_metadata() {
            // The fsynced, renamed document durably captures `epoch`.
            self.note_synced(epoch);
        }
        self.metrics
            .wal_bytes_past_snapshot
            .sub(self.bytes_past_snapshot as i64);
        self.bytes_past_snapshot = 0;
        self.set_snapshot_bytes(document.bytes().len() as u64);
        Ok(())
    }

    /// Records `size` as the newest document's framed size, gauge included.
    fn set_snapshot_bytes(&mut self, size: u64) {
        self.metrics
            .snapshot_bytes
            .add(size as i64 - self.snapshot_bytes as i64);
        self.snapshot_bytes = size;
    }

    /// Computes what a sweep would delete, purely from the in-memory
    /// manifest: snapshots older than the newest `keep_snapshots`, then
    /// WAL segments wholly covered by the oldest *retained* snapshot.
    /// Every retained snapshot keeps a replayable WAL suffix, so recovery
    /// can fall back past a damaged newer document; with
    /// `keep_snapshots == 1`, coverage reaches the newest snapshot.
    pub fn sweep_plan(&self) -> SweepPlan {
        let keep_from = self
            .snapshots
            .len()
            .saturating_sub(self.config.keep_snapshots);
        let prune_snapshots = self.snapshots[..keep_from].to_vec();
        let covered = self.snapshots.get(keep_from).copied();
        let mut remove_segments: Vec<PathBuf> = Vec::new();
        if let Some(covered) = covered {
            for segment in &self.sealed {
                // A sealed segment covering [first, first+records-1]; a
                // header-only segment (records 0) is covered once the
                // epoch it was created for is.
                let last = segment.first_epoch + segment.records.saturating_sub(1);
                if last <= covered {
                    remove_segments.push(segment.path.clone());
                }
            }
            if let Some(active) = &self.active {
                if active
                    .last_epoch()
                    .unwrap_or(active.first_epoch.saturating_sub(1))
                    <= covered
                {
                    remove_segments.push(active.path.clone());
                }
            }
        }
        SweepPlan {
            prune_snapshots,
            remove_segments,
            covered_epoch: covered,
        }
    }

    /// Removes `path`, treating "already gone" as success: a crash after
    /// the removal but before the manifest caught up (or a half-executed
    /// sweep resumed after reopen) must not fail the resumed sweep.
    fn remove_swept_file(&self, path: &Path) -> Result<(), StoreError> {
        match self.vfs.remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io_at("remove", path, e)),
        }
    }

    /// Executes up to `max_removals` steps of the current [`SweepPlan`]:
    /// prunes unretained snapshots, then deletes WAL segments wholly
    /// covered by the oldest retained snapshot, each oldest first. Call with
    /// `usize::MAX` to sweep everything at once, or with a small budget
    /// from batch boundaries / idle ticks to keep removals off the write
    /// path.
    ///
    /// Error safety: each filesystem removal happens *before* the
    /// matching manifest entry is dropped, so an error (or a kill) at any
    /// point leaves memory and disk in agreement and the next call — or
    /// the next open — resumes from the remaining plan. The ordering
    /// guarantees any prefix of a sweep leaves every retained snapshot
    /// plus an unbroken WAL suffix from the oldest retained snapshot to
    /// the tip.
    pub fn sweep(&mut self, max_removals: usize) -> Result<SweepOutcome, StoreError> {
        self.check_poisoned()?;
        let mut outcome = SweepOutcome::default();
        let mut budget = max_removals;
        let plan = self.sweep_plan();
        // Pruned snapshots are a prefix of the manifest.
        for &epoch in plan.prune_snapshots.iter().take(budget) {
            self.remove_swept_file(&self.dir.join(snapshot_file_name(epoch)))?;
            self.snapshots.remove(0);
            outcome.pruned_snapshots += 1;
            budget -= 1;
        }
        if outcome.pruned_snapshots == plan.prune_snapshots.len() {
            // Segments are sorted by first epoch, so covered segments form
            // a prefix of `sealed` (possibly followed by a covered active
            // segment once every sealed one is gone).
            let mut segments_left = plan.remove_segments.len();
            while budget > 0 && segments_left > 0 {
                if let Some(path) = self.sealed.first().map(|s| s.path.clone()) {
                    self.remove_swept_file(&path)?;
                    self.sealed.remove(0);
                } else {
                    let path = self
                        .active
                        .as_ref()
                        .expect("plan names the active segment")
                        .path
                        .clone();
                    self.remove_swept_file(&path)?;
                    self.active = None;
                }
                outcome.removed_segments += 1;
                segments_left -= 1;
                budget -= 1;
            }
        }
        self.metrics
            .sweep_pruned_snapshots
            .add(outcome.pruned_snapshots as u64);
        self.metrics.snapshots.sub(outcome.pruned_snapshots as i64);
        self.metrics
            .sweep_removed_segments
            .add(outcome.removed_segments as u64);
        self.metrics.segments.sub(outcome.removed_segments as i64);
        if outcome.removed() > 0 && self.config.fsync.durable_metadata() {
            self.sync_dir()?;
        }
        outcome.remaining = self.sweep_plan().removals();
        Ok(outcome)
    }

    /// Whether the configured thresholds call for a snapshot at
    /// `current_epoch`: enough WAL bytes (the larger of
    /// [`StoreConfig::snapshot_every_bytes`] and a
    /// `1/`[`SNAPSHOT_WAL_DIVISOR`] share of the newest installed document)
    /// or enough epochs accumulated past the newest snapshot.
    pub fn snapshot_due(&self, current_epoch: u64) -> bool {
        let newest = self.snapshots.last().copied();
        let byte_due = self.config.snapshot_every_bytes > 0
            && self.bytes_past_snapshot
                >= self
                    .config
                    .snapshot_every_bytes
                    .max(self.snapshot_bytes / SNAPSHOT_WAL_DIVISOR);
        let epoch_due = self.config.snapshot_every_epochs > 0
            && newest.map_or(true, |n| {
                current_epoch.saturating_sub(n) >= self.config.snapshot_every_epochs
            });
        byte_due || epoch_due
    }

    /// Reads and checksum-verifies the snapshot document at `epoch`.
    pub fn read_snapshot(&self, epoch: u64) -> Result<Vec<u8>, StoreError> {
        let path = self.dir.join(snapshot_file_name(epoch));
        let bytes = self
            .vfs
            .read(&path)
            .map_err(|e| StoreError::io_at("read", &path, e))?;
        let context = path.display().to_string();
        let scan = crate::record::scan_frames(&bytes, &context)?;
        if scan.torn_at.is_some() || scan.frames.len() != 1 {
            return Err(StoreError::Corrupt(format!(
                "{context}: expected exactly one complete frame"
            )));
        }
        Ok(scan.frames.into_iter().next().expect("one frame").payload)
    }

    /// [`Store::read_snapshot`] for recovery: the document's framed size
    /// then scales the byte trigger of [`Store::snapshot_due`], as an
    /// install of it would have. A reopened store learns the size from the
    /// read recovery makes anyway, with no filesystem operation of its
    /// own; of several reads, the last (the document recovery kept) wins.
    pub fn recover_snapshot(&mut self, epoch: u64) -> Result<Vec<u8>, StoreError> {
        let payload = self.read_snapshot(epoch)?;
        self.set_snapshot_bytes((FRAME_HEADER_BYTES + payload.len()) as u64);
        Ok(payload)
    }

    /// Replays the WAL: hands every `(epoch, payload)` with epoch strictly
    /// above `from_epoch` to `each`, in order, and stops at the first error
    /// either side raises. Segments wholly at or below `from_epoch` are
    /// skipped without reading, and the rest are read one at a time, so a
    /// replay holds one segment in memory however long the suffix is.
    pub fn replay<E: From<StoreError>>(
        &self,
        from_epoch: u64,
        mut each: impl FnMut(u64, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let ranges = self
            .sealed
            .iter()
            .map(|s| (&s.path, s.first_epoch, s.records))
            .chain(
                self.active
                    .as_ref()
                    .map(|a| (&a.path, a.first_epoch, a.records)),
            );
        for (path, first_epoch, records) in ranges {
            if records > 0 && first_epoch + records - 1 <= from_epoch {
                continue;
            }
            let scan = scan_segment_with(self.vfs.as_ref(), path, &self.config.magic)?;
            if scan.torn_at.is_some() {
                return Err(StoreError::Corrupt(format!(
                    "{}: segment changed since open (unexpected torn frame)",
                    path.display()
                ))
                .into());
            }
            for (epoch, frame) in (first_epoch..).zip(&scan.frames) {
                if epoch > from_epoch {
                    each(epoch, &frame.payload)?;
                }
            }
        }
        Ok(())
    }
}

impl Drop for Store {
    /// Best-effort flush so a clean shutdown never depends on the caller
    /// remembering a final [`Store::sync`], plus giving this store's
    /// share of every (possibly shared) gauge back.
    fn drop(&mut self) {
        let _ = self.sync();
        self.add_gauges(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nemo-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_config() -> StoreConfig {
        StoreConfig {
            magic: "test-wal/v1".to_string(),
            fsync: FsyncPolicy::Never,
            segment_max_bytes: 64, // tiny: a few records per segment
            snapshot_every_bytes: 0,
            snapshot_every_epochs: 0,
            keep_snapshots: 2,
        }
    }

    fn payload(epoch: u64) -> Vec<u8> {
        format!("record-{epoch}").into_bytes()
    }

    /// Collects a replay: the `(epoch, payload)` pairs past `from_epoch`.
    fn replayed(store: &Store, from_epoch: u64) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        store
            .replay(from_epoch, |epoch, payload| {
                out.push((epoch, payload.to_vec()));
                Ok::<_, StoreError>(())
            })
            .unwrap();
        out
    }

    #[test]
    fn append_rotate_reopen_replay() {
        let dir = temp_dir("rotate");
        let (mut store, report) = Store::open(&dir, test_config()).unwrap();
        assert!(store.is_empty());
        assert_eq!(report, OpenReport::default());
        for epoch in 1..=20 {
            store.append(epoch, &payload(epoch)).unwrap();
        }
        assert!(store.segment_paths().len() > 1, "tiny segments must rotate");
        assert_eq!(store.last_epoch(), Some(20));
        drop(store);

        let (store, report) = Store::open(&dir, test_config()).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(store.last_epoch(), Some(20));
        let all = replayed(&store, 0);
        assert_eq!(all.len(), 20);
        for (i, (epoch, bytes)) in all.iter().enumerate() {
            assert_eq!(*epoch, i as u64 + 1);
            assert_eq!(*bytes, payload(*epoch));
        }
        // Suffix replay skips early segments.
        let suffix = replayed(&store, 15);
        assert_eq!(suffix.len(), 5);
        assert_eq!(suffix[0].0, 16);
        // The first error the caller returns stops the replay there.
        let mut seen = 0;
        let stopped = store.replay(0, |epoch, _| {
            seen += 1;
            match epoch {
                3 => Err(StoreError::Corrupt("stop".to_string())),
                _ => Ok(()),
            }
        });
        assert!(matches!(stopped, Err(StoreError::Corrupt(_))));
        assert_eq!(seen, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_contiguous_appends_are_rejected() {
        let dir = temp_dir("contig");
        let (mut store, _) = Store::open(&dir, test_config()).unwrap();
        store.append(1, b"one").unwrap();
        assert!(matches!(
            store.append(3, b"three"),
            Err(StoreError::InvalidArgument(_))
        ));
        // Empty payloads are rejected: their frames are byte-identical to
        // a zero-filled crash tail.
        assert!(matches!(
            store.append(2, b""),
            Err(StoreError::InvalidArgument(_))
        ));
        // A snapshot also anchors the sequence.
        store
            .install_snapshot(5, &Framed::copy(b"state at five"))
            .unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = temp_dir("torn");
        let (mut store, _) = Store::open(&dir, test_config()).unwrap();
        for epoch in 1..=3 {
            store.append(epoch, &payload(epoch)).unwrap();
        }
        let last = store.segment_paths().pop().unwrap();
        drop(store);
        // Cut the newest segment mid-record.
        let bytes = std::fs::read(&last).unwrap();
        std::fs::write(&last, &bytes[..bytes.len() - 3]).unwrap();

        let (store, report) = Store::open(&dir, test_config()).unwrap();
        assert_eq!(report.truncated_bytes, {
            let tail_frame = encode_frame(&payload(3));
            tail_frame.len() as u64 - 3
        });
        let all = replayed(&store, 0);
        assert_eq!(all.last().map(|(e, _)| *e), Some(2), "torn record dropped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_fails_loudly() {
        let dir = temp_dir("flip");
        let (mut store, _) = Store::open(&dir, test_config()).unwrap();
        for epoch in 1..=3 {
            store.append(epoch, &payload(epoch)).unwrap();
        }
        let first = store.segment_paths().remove(0);
        drop(store);
        let mut bytes = std::fs::read(&first).unwrap();
        let mid = bytes.len() - 2; // payload byte of the last record
        bytes[mid] ^= 0x40;
        std::fs::write(&first, &bytes).unwrap();
        match Store::open(&dir, test_config()) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("checksum")),
            other => panic!("expected loud corruption failure, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deleted_middle_segment_fails_loudly() {
        let dir = temp_dir("gap");
        let (mut store, _) = Store::open(&dir, test_config()).unwrap();
        for epoch in 1..=20 {
            store.append(epoch, &payload(epoch)).unwrap();
        }
        let paths = store.segment_paths();
        assert!(paths.len() >= 3, "need at least three segments");
        drop(store);
        std::fs::remove_file(&paths[1]).unwrap();
        match Store::open(&dir, test_config()) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("gap"), "{msg}"),
            other => panic!("expected loud gap failure, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_in_non_final_segment_fails_loudly() {
        let dir = temp_dir("midtear");
        let (mut store, _) = Store::open(&dir, test_config()).unwrap();
        for epoch in 1..=20 {
            store.append(epoch, &payload(epoch)).unwrap();
        }
        let paths = store.segment_paths();
        drop(store);
        let bytes = std::fs::read(&paths[0]).unwrap();
        std::fs::write(&paths[0], &bytes[..bytes.len() - 2]).unwrap();
        match Store::open(&dir, test_config()) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("non-final"), "{msg}"),
            other => panic!("expected loud failure, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_install_prune_and_compact() {
        let dir = temp_dir("snap");
        let (mut store, _) = Store::open(&dir, test_config()).unwrap();
        store
            .install_snapshot(0, &Framed::copy(b"genesis"))
            .unwrap();
        for epoch in 1..=20 {
            store.append(epoch, &payload(epoch)).unwrap();
        }
        let before = store.segment_paths().len();
        assert!(before >= 3);
        store
            .install_snapshot(12, &Framed::copy(b"state at twelve"))
            .unwrap();
        assert!(store.sweep(usize::MAX).unwrap().removed() == 0);
        // Both snapshots are retained, and the WAL is compacted only to
        // the *oldest* retained one (epoch 0): nothing deletable yet, so a
        // fallback past snap-12 can still replay from genesis.
        assert_eq!(store.snapshot_epochs(), &[0, 12]);
        assert_eq!(store.segment_paths().len(), before);
        assert_eq!(replayed(&store, 0).len(), 20);
        // The third snapshot prunes epoch 0 and compacts to epoch 12:
        // segments wholly at or below 12 are gone, the suffix stays.
        store.append(21, &payload(21)).unwrap();
        store
            .install_snapshot(21, &Framed::copy(b"state at twenty-one"))
            .unwrap();
        // Installing deletes nothing — removals happen in the sweep.
        assert_eq!(store.snapshot_epochs(), &[0, 12, 21]);
        assert!(store.segment_paths().len() >= before);
        let outcome = store.sweep(usize::MAX).unwrap();
        assert_eq!(outcome.pruned_snapshots, 1);
        assert!(outcome.removed_segments > 0);
        assert_eq!(outcome.remaining, 0);
        assert_eq!(store.snapshot_epochs(), &[12, 21]);
        let after = store.segment_paths().len();
        assert!(after < before, "compaction must delete covered segments");
        let suffix = replayed(&store, 12);
        assert_eq!(suffix.first().map(|(e, _)| *e), Some(13));
        assert_eq!(suffix.last().map(|(e, _)| *e), Some(21));
        assert_eq!(store.read_snapshot(21).unwrap(), b"state at twenty-one");
        assert!(store.read_snapshot(0).is_err(), "pruned snapshot is gone");
        // Nothing newer than epoch 21 remains; appends continue at 22.
        assert_eq!(replayed(&store, 21), vec![]);
        store.append(22, &payload(22)).unwrap();
        drop(store);
        let (store, report) = Store::open(&dir, test_config()).unwrap();
        assert_eq!(report.pending_sweep_removals, 0);
        assert_eq!(store.last_epoch(), Some(22));
        assert_eq!(replayed(&store, 21).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Appends records from `epoch + 1` until the store reports a snapshot
    /// as due; returns the last epoch and the WAL bytes past the newest
    /// snapshot before and after that last append.
    fn append_until_due(store: &mut Store, mut epoch: u64) -> (u64, u64, u64) {
        let mut before = 0;
        while !store.snapshot_due(epoch) {
            before = store.metrics().wal_bytes_past_snapshot.get() as u64;
            epoch += 1;
            store.append(epoch, &payload(epoch)).unwrap();
        }
        let after = store.metrics().wal_bytes_past_snapshot.get() as u64;
        (epoch, before, after)
    }

    #[test]
    fn snapshot_due_thresholds() {
        let dir = temp_dir("due");
        let mut config = test_config();
        config.snapshot_every_epochs = 5;
        let (mut store, _) = Store::open(&dir, config).unwrap();
        // No snapshot at all: due immediately (the genesis snapshot).
        assert!(store.snapshot_due(0));
        store
            .install_snapshot(0, &Framed::copy(b"genesis"))
            .unwrap();
        for epoch in 1..=4 {
            store.append(epoch, &payload(epoch)).unwrap();
            assert!(!store.snapshot_due(epoch));
        }
        store.append(5, &payload(5)).unwrap();
        assert!(store.snapshot_due(5));
        std::fs::remove_dir_all(&dir).unwrap();

        // The byte trigger counts bytes appended *since the newest
        // snapshot*; installing a snapshot resets it even while older
        // (not yet compacted) segments remain on disk.
        let dir = temp_dir("due-bytes");
        let mut config = test_config();
        config.snapshot_every_bytes = 200;
        let (mut store, _) = Store::open(&dir, config).unwrap();
        store
            .install_snapshot(0, &Framed::copy(b"genesis"))
            .unwrap();
        let mut epoch = 0;
        while !store.snapshot_due(epoch) {
            epoch += 1;
            store.append(epoch, &payload(epoch)).unwrap();
        }
        store
            .install_snapshot(epoch, &Framed::copy(b"threshold snapshot"))
            .unwrap();
        assert!(
            !store.snapshot_due(epoch),
            "a fresh snapshot must clear the byte trigger (wal bytes: {})",
            store.wal_bytes()
        );
        std::fs::remove_dir_all(&dir).unwrap();

        // The byte trigger is the larger of the floor and half the newest
        // document; each install resets the count and sets the size.
        let dir = temp_dir("due-proportional");
        let mut config = test_config();
        config.snapshot_every_bytes = 100;
        let registry = nemo_obs::Registry::new();
        let (mut store, _) = Store::open(&dir, config.clone()).unwrap();
        store.attach_metrics(StoreMetrics::register(&registry));
        let gauges = store.metrics().clone();
        // A 28-byte framed document: half of it is below the floor, so
        // the floor decides.
        let small = Framed::copy(&[b's'; 20]);
        store.install_snapshot(0, &small).unwrap();
        assert_eq!(gauges.snapshot_bytes.get(), 28);
        let (epoch, before, after) = append_until_due(&mut store, 0);
        assert!(before < 100 && after >= 100, "{before} -> {after}");
        // A 1,008-byte document: the trigger moves to half of it, and the
        // install reset the byte count.
        let big = Framed::copy(&[b'b'; 1000]);
        store.install_snapshot(epoch, &big).unwrap();
        assert_eq!(gauges.snapshot_bytes.get(), 1008);
        assert_eq!(gauges.wal_bytes_past_snapshot.get(), 0);
        assert!(!store.snapshot_due(epoch));
        let (epoch, before, after) = append_until_due(&mut store, epoch);
        assert!(before < 504 && after >= 504, "{before} -> {after}");
        // A smaller document brings the trigger back down to the floor.
        store.install_snapshot(epoch, &small).unwrap();
        assert_eq!(gauges.snapshot_bytes.get(), 28);
        let (epoch, before, after) = append_until_due(&mut store, epoch);
        assert!(before < 100 && after >= 100, "{before} -> {after}");
        // A zero floor disables the byte trigger whatever the document.
        let mut off = config.clone();
        off.snapshot_every_bytes = 0;
        let dir_off = temp_dir("due-proportional-off");
        let (mut quiet, _) = Store::open(&dir_off, off).unwrap();
        quiet.install_snapshot(0, &big).unwrap();
        for e in 1..=200 {
            quiet.append(e, &payload(e)).unwrap();
            assert!(!quiet.snapshot_due(e));
        }
        drop(quiet);
        std::fs::remove_dir_all(&dir_off).unwrap();

        // Reopening alone knows no document's size; the read recovery
        // makes teaches it. A WAL past the floor but below half the big
        // document is not due before the restart, due after a reopen that
        // reads nothing, and not due once recovery has read the document.
        store.install_snapshot(epoch, &big).unwrap();
        let mut epoch = epoch;
        while gauges.wal_bytes_past_snapshot.get() < 200 {
            epoch += 1;
            store.append(epoch, &payload(epoch)).unwrap();
        }
        assert!(!store.snapshot_due(epoch));
        drop(store);
        assert_eq!(
            gauges.snapshot_bytes.get(),
            0,
            "a dropped store gives its share back"
        );
        assert_eq!(gauges.wal_bytes_past_snapshot.get(), 0);
        let (mut store, _) = Store::open(&dir, config).unwrap();
        store.attach_metrics(StoreMetrics::register(&registry));
        // Reopen counts whole segments past the snapshot, which with
        // these 64-byte segments stays below half the big document: only
        // the unknown size makes the store due.
        assert_eq!(gauges.snapshot_bytes.get(), 0);
        let past = gauges.wal_bytes_past_snapshot.get();
        assert!((200..504).contains(&past), "{past}");
        assert!(store.snapshot_due(epoch));
        let newest = *store.snapshot_epochs().last().unwrap();
        assert_eq!(store.recover_snapshot(newest).unwrap(), vec![b'b'; 1000]);
        assert_eq!(gauges.snapshot_bytes.get(), 1008);
        assert!(!store.snapshot_due(epoch));
        let (epoch, before, after) = append_until_due(&mut store, epoch);
        assert!(before < 504 && after >= 504, "{before} -> {after}");
        store.install_snapshot(epoch, &big).unwrap();
        assert_eq!(gauges.snapshot_bytes.get(), 1008);
        let (_, before, after) = append_until_due(&mut store, epoch);
        assert!(before < 504 && after >= 504, "{before} -> {after}");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_files_are_cleaned_up() {
        let dir = temp_dir("tmp");
        let (mut store, _) = Store::open(&dir, test_config()).unwrap();
        store.append(1, b"one").unwrap();
        drop(store);
        std::fs::write(dir.join("snap-00000000000000000009.snap.tmp"), b"half").unwrap();
        let (store, report) = Store::open(&dir, test_config()).unwrap();
        assert_eq!(report.removed_tmp_files, 1);
        assert_eq!(store.snapshot_epochs(), &[] as &[u64]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Replaces `path` with an empty directory of the same name, so
    /// `remove_file` fails (EISDIR) even when the test runs as root —
    /// read-only directory permissions would not stop root.
    fn obstruct(path: &Path) {
        std::fs::remove_file(path).unwrap();
        std::fs::create_dir(path).unwrap();
    }

    /// A store with pending sweep work: snapshots at 0, 12 and 21 over
    /// epochs 1..=21, where the sweep must prune snapshot 0 and remove
    /// the segments covered by snapshot 12.
    fn store_with_pending_sweep(tag: &str) -> (PathBuf, Store) {
        let dir = temp_dir(tag);
        let (mut store, _) = Store::open(&dir, test_config()).unwrap();
        store
            .install_snapshot(0, &Framed::copy(b"genesis"))
            .unwrap();
        for epoch in 1..=21 {
            store.append(epoch, &payload(epoch)).unwrap();
        }
        store
            .install_snapshot(12, &Framed::copy(b"state at twelve"))
            .unwrap();
        store
            .install_snapshot(21, &Framed::copy(b"state at twenty-one"))
            .unwrap();
        let plan = store.sweep_plan();
        assert_eq!(plan.prune_snapshots, vec![0]);
        assert!(
            plan.remove_segments.len() >= 2,
            "need several covered segments"
        );
        assert_eq!(plan.covered_epoch, Some(12));
        (dir, store)
    }

    #[test]
    fn failed_compaction_keeps_the_manifest_consistent() {
        let (dir, mut store) = store_with_pending_sweep("sweep-fault");
        // Obstruct the *second* covered segment so the failure strikes
        // mid-loop, after the first removal already succeeded.
        let blocked = store.sweep_plan().remove_segments[1].clone();
        obstruct(&blocked);
        let err = store.sweep(usize::MAX).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
        // The prune and the first segment removal committed; the blocked
        // segment stays in the manifest — nothing was silently dropped.
        assert_eq!(store.snapshot_epochs(), &[12, 21]);
        assert!(store.segment_paths().contains(&blocked));
        // The store stays usable: appends and covered replay still work.
        store.append(22, &payload(22)).unwrap();
        let suffix = replayed(&store, 12);
        assert_eq!(suffix.first().map(|(e, _)| *e), Some(13));
        assert_eq!(suffix.last().map(|(e, _)| *e), Some(22));
        // Clearing the obstruction leaves the file gone; the next sweep
        // treats it as already removed and completes.
        std::fs::remove_dir(&blocked).unwrap();
        let outcome = store.sweep(usize::MAX).unwrap();
        assert_eq!(outcome.remaining, 0);
        assert!(!store.segment_paths().contains(&blocked));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_deleted_segment_does_not_fail_the_sweep() {
        let (dir, mut store) = store_with_pending_sweep("sweep-predel");
        let gone = store.sweep_plan().remove_segments[0].clone();
        std::fs::remove_file(&gone).unwrap();
        let outcome = store.sweep(usize::MAX).unwrap();
        assert_eq!(outcome.remaining, 0);
        assert!(!store.segment_paths().contains(&gone));
        store.append(22, &payload(22)).unwrap();
        assert_eq!(replayed(&store, 12).len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_snapshot_prune_leaves_memory_matching_disk() {
        let (dir, mut store) = store_with_pending_sweep("prune-fault");
        let snap0 = dir.join(snapshot_file_name(0));
        obstruct(&snap0);
        store.sweep(usize::MAX).unwrap_err();
        // The prune failed before anything else ran: the manifest still
        // lists all three snapshots, matching the directory.
        assert_eq!(store.snapshot_epochs(), &[0, 12, 21]);
        // A subsequent install still succeeds on the consistent store...
        store.append(22, &payload(22)).unwrap();
        store
            .install_snapshot(22, &Framed::copy(b"state at twenty-two"))
            .unwrap();
        assert_eq!(store.snapshot_epochs(), &[0, 12, 21, 22]);
        // ...and once the obstruction clears, sweep and reopen recover.
        std::fs::remove_dir(&snap0).unwrap();
        let outcome = store.sweep(usize::MAX).unwrap();
        assert_eq!(outcome.remaining, 0);
        assert_eq!(store.snapshot_epochs(), &[21, 22]);
        drop(store);
        let (store, report) = Store::open(&dir, test_config()).unwrap();
        assert_eq!(report.pending_sweep_removals, 0);
        assert_eq!(store.snapshot_epochs(), &[21, 22]);
        assert_eq!(store.read_snapshot(21).unwrap(), b"state at twenty-one");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_at_any_sweep_step_leaves_a_recoverable_store() {
        // Execute the sweep one removal at a time; after each step the
        // on-disk file set is exactly what a kill at that point leaves.
        // Reopen a copy and prove the store recovers and the retained
        // snapshots plus WAL suffix survive.
        let (dir, mut store) = store_with_pending_sweep("sweep-kill");
        let total = store.sweep_plan().removals();
        assert!(total >= 3);
        for step in 0..=total {
            // Snapshot the directory as a reopen target.
            let copy = temp_dir(&format!("sweep-kill-copy-{step}"));
            std::fs::create_dir_all(&copy).unwrap();
            for entry in std::fs::read_dir(&dir).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
            }
            let (reopened, report) = Store::open(&copy, test_config()).unwrap();
            assert_eq!(report.pending_sweep_removals, total - step, "step {step}");
            // Retained snapshots are intact and the WAL replays from the
            // oldest retained snapshot to the tip.
            assert!(
                reopened.snapshot_epochs().ends_with(&[12, 21]),
                "step {step}"
            );
            assert_eq!(reopened.read_snapshot(12).unwrap(), b"state at twelve");
            assert_eq!(reopened.read_snapshot(21).unwrap(), b"state at twenty-one");
            let suffix = replayed(&reopened, 12);
            assert_eq!(suffix.first().map(|(e, _)| *e), Some(13), "step {step}");
            assert_eq!(suffix.last().map(|(e, _)| *e), Some(21), "step {step}");
            drop(reopened);
            std::fs::remove_dir_all(&copy).unwrap();
            if step < total {
                let outcome = store.sweep(1).unwrap();
                assert_eq!(outcome.removed(), 1);
                assert_eq!(outcome.remaining, total - step - 1);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_name_parsers_distinguish_full_and_delta() {
        assert_eq!(snapshot_file_name(42), "snap-00000000000000000042.snap");
        assert_eq!(parse_snapshot_name(&snapshot_file_name(42)), Some(42));
        // Delta snapshot names written by older builds never parse as
        // snapshots, and neither does a name with short digits.
        assert_eq!(
            parse_snapshot_name("snap-00000000000000000042-from-00000000000000000007.snap"),
            None
        );
        assert_eq!(parse_snapshot_name("snap-42.snap"), None);
    }

    use crate::vfs::{FaultFs, FaultKind};

    fn open_faulty(
        dir: &Path,
        config: StoreConfig,
        kind: FaultKind,
        fault_at: u64,
    ) -> (Store, FaultFs) {
        let fault = FaultFs::new(kind, fault_at);
        let (store, _) = Store::open_with(dir, config, Arc::new(fault.clone())).unwrap();
        (store, fault)
    }

    #[test]
    fn short_write_on_append_is_repaired_and_retryable() {
        let dir = temp_dir("fault-shortwrite");
        // Op order: create_dir(0), read_dir(1), create_new(2), header
        // write(3), frame write(4) — arm the tear on the frame write.
        let (mut store, fault) = open_faulty(&dir, test_config(), FaultKind::ShortWrite, 4);
        let err = store.append(1, &payload(1)).unwrap_err();
        assert!(
            matches!(&err, StoreError::Io { op, .. } if op == "append"),
            "{err:?}"
        );
        assert!(err.retryable());
        assert!(fault.injection().is_some());
        assert!(store.poisoned().is_none(), "repaired tear must not poison");
        assert_eq!(store.last_epoch(), None, "failed append is not counted");
        // The torn half-frame was truncated away: the retry lands on a
        // clean boundary and replay sees exactly the retried record.
        store.append(1, &payload(1)).unwrap();
        store.append(2, &payload(2)).unwrap();
        assert_eq!(replayed(&store, 0).len(), 2);
        drop(store);
        let (store, report) = Store::open(&dir, test_config()).unwrap();
        assert_eq!(report.truncated_bytes, 0, "no crash tail left behind");
        assert_eq!(replayed(&store, 0).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A filesystem whose segment files take their header frame, then
    /// fail every later write *and* the truncation that would roll the
    /// failed write back. `FaultFs` never fails a truncation, so this
    /// path needs its own seam.
    #[derive(Debug)]
    struct UnrepairableTailFs;

    #[derive(Debug)]
    struct UnrepairableTail {
        inner: Box<dyn VfsFile>,
        writes: u32,
    }

    impl VfsFile for UnrepairableTail {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.writes += 1;
            if self.writes > 1 {
                return Err(std::io::Error::other("injected write failure"));
            }
            self.inner.write_all(buf)
        }
        fn sync_data(&self) -> std::io::Result<()> {
            self.inner.sync_data()
        }
        fn set_len(&self, _len: u64) -> std::io::Result<()> {
            Err(std::io::Error::other("injected truncate failure"))
        }
    }

    impl Vfs for UnrepairableTailFs {
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealFs.create_dir_all(path)
        }
        fn read_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
            RealFs.read_dir(path)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            RealFs.read(path)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealFs.remove_file(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealFs.rename(from, to)
        }
        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            RealFs.open_append(path)
        }
        fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            let inner = RealFs.create_new(path)?;
            Ok(Box::new(UnrepairableTail { inner, writes: 0 }))
        }
        fn create_truncate(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            RealFs.create_truncate(path)
        }
        fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            RealFs.open_write(path)
        }
        fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
            RealFs.sync_dir(path)
        }
    }

    #[test]
    fn unrepairable_append_tail_is_a_counted_traced_poison() {
        let dir = temp_dir("unrepairable-tail");
        let (mut store, _) =
            Store::open_with(&dir, test_config(), Arc::new(UnrepairableTailFs)).unwrap();
        let tracer = Tracer::new();
        tracer.enable(4);
        store.attach_tracer(tracer.clone());
        {
            let _trace = tracer.begin("request.mutate");
            let err = store.append(1, &payload(1)).unwrap_err();
            let StoreError::Poisoned(msg) = &err else {
                panic!("expected a typed poison, got {err:?}");
            };
            assert!(msg.contains("the segment tail is unknowable"), "{msg}");
            assert_eq!(store.poisoned(), Some(&err));
        }
        assert_eq!(store.metrics().poison_events.get(), 1);
        let traces = tracer.traces(0);
        assert_eq!(traces.len(), 1);
        let root = &traces[0].spans[0];
        assert_eq!(root.name, "request.mutate");
        assert_eq!(
            root.error.as_deref(),
            Some(store.poisoned().unwrap().to_string().as_str())
        );
        // Later mutations are refused without counting a second event.
        assert!(matches!(
            store.append(1, &payload(1)),
            Err(StoreError::Poisoned(_))
        ));
        assert_eq!(store.metrics().poison_events.get(), 1);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_record_fsync_poisons_but_reopen_recovers() {
        let dir = temp_dir("fault-fsyncgate");
        let mut config = test_config();
        config.fsync = FsyncPolicy::EveryRecord;
        // Op order: create_dir(0), read_dir(1), create_new(2), header
        // write(3), header fsync(4), dir fsync(5), frame write(6), record
        // fsync(7). Arm at 6: the frame write is not fsync-class, so the
        // fault lands on the record fsync at 7.
        let (mut store, _fault) = open_faulty(&dir, config.clone(), FaultKind::FailedFsync, 6);
        let err = store.append(1, &payload(1)).unwrap_err();
        assert!(
            matches!(&err, StoreError::Io { op, .. } if op == "fsync"),
            "{err:?}"
        );
        assert!(!err.retryable(), "fsync failures must never be retried");
        // Fsyncgate: the store is permanently poisoned; reads stay up.
        assert!(matches!(store.poisoned(), Some(StoreError::Poisoned(_))));
        assert!(matches!(
            store.append(2, &payload(2)),
            Err(StoreError::Poisoned(_))
        ));
        assert!(matches!(store.sync(), Err(StoreError::Poisoned(_))));
        assert!(matches!(
            store.install_snapshot(1, &Framed::copy(b"doc")),
            Err(StoreError::Poisoned(_))
        ));
        assert!(matches!(
            store.sweep(usize::MAX),
            Err(StoreError::Poisoned(_))
        ));
        assert_eq!(replayed(&store, 0).len(), 1, "reads still answer");
        assert_eq!(
            store.durable_epoch(),
            None,
            "nothing was ever acked durable"
        );
        drop(store);
        // Reopen through the real fs: the unacked record survived in the
        // page cache here, which is a state a clean store could produce
        // (append succeeded, crash before ack).
        let (store, _) = Store::open(&dir, config).unwrap();
        assert!(store.poisoned().is_none());
        assert_eq!(replayed(&store, 0).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_seal_fsync_keeps_manifest_matching_disk() {
        let dir = temp_dir("fault-seal");
        let mut config = test_config();
        config.fsync = FsyncPolicy::EveryBatch; // durable metadata: seals fsync
                                                // Appends 1..=3 fill the 64-byte segment; append 4 rotates and the
                                                // seal fsync is the first fsync-class op after the frame writes:
                                                // create_dir(0), read_dir(1), create_new(2), header(3), header
                                                // fsync(4), dir fsync(5), frames(6,7,8), seal fsync(9).
        let (mut store, _fault) = open_faulty(&dir, config.clone(), FaultKind::FailedFsync, 8);
        for epoch in 1..=3 {
            store.append(epoch, &payload(epoch)).unwrap();
        }
        let err = store.append(4, &payload(4)).unwrap_err();
        assert!(
            matches!(&err, StoreError::Io { op, .. } if op == "fsync"),
            "{err:?}"
        );
        assert!(store.poisoned().is_some());
        // The outgoing segment's records are on disk; the manifest must
        // still list them (sealed), not drop them.
        assert_eq!(store.segment_paths().len(), 1);
        assert_eq!(replayed(&store, 0).len(), 3);
        assert_eq!(
            store.last_epoch(),
            Some(3),
            "the rotating append never landed"
        );
        drop(store);
        let (store, _) = Store::open(&dir, config).unwrap();
        assert_eq!(replayed(&store, 0).len(), 3);
        assert_eq!(store.last_epoch(), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_segment_creation_rolls_back_the_orphan() {
        let dir = temp_dir("fault-create");
        // ENOSPC on the header write (op 3): the half-created segment must
        // be rolled back so the retry's create_new does not collide.
        let (mut store, _fault) = open_faulty(&dir, test_config(), FaultKind::Enospc, 3);
        let err = store.append(1, &payload(1)).unwrap_err();
        assert!(
            matches!(&err, StoreError::Io { op, .. } if op == "write header"),
            "{err:?}"
        );
        assert!(err.retryable());
        assert!(store.poisoned().is_none());
        assert!(
            !dir.join(segment_file_name(1)).exists(),
            "orphaned segment file must be rolled back"
        );
        store.append(1, &payload(1)).unwrap();
        assert_eq!(replayed(&store, 0).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_snapshot_rename_rolls_back_and_retries() {
        let dir = temp_dir("fault-rename");
        // Ops: create_dir(0), read_dir(1), append ops (2..=4), then
        // install: create tmp(5), write(6), rename(7) — the first
        // rename-class op, wherever it falls.
        let (mut store, fault) = open_faulty(&dir, test_config(), FaultKind::FailedRename, 0);
        store.append(1, &payload(1)).unwrap();
        let err = store
            .install_snapshot(1, &Framed::copy(b"state at one"))
            .unwrap_err();
        assert!(
            matches!(&err, StoreError::Io { op, .. } if op == "rename"),
            "{err:?}"
        );
        assert!(err.retryable());
        assert!(fault.injection().unwrap().contains("rename"));
        // Manifest never got ahead of the directory, and no tmp leaked.
        assert_eq!(store.snapshot_epochs(), &[] as &[u64]);
        assert!(!dir.join(snapshot_file_name(1)).exists());
        assert!(!dir.join(format!("{}.tmp", snapshot_file_name(1))).exists());
        // The retry succeeds and reopen agrees.
        store
            .install_snapshot(1, &Framed::copy(b"state at one"))
            .unwrap();
        assert_eq!(store.read_snapshot(1).unwrap(), b"state at one");
        drop(store);
        let (store, report) = Store::open(&dir, test_config()).unwrap();
        assert_eq!(report.snapshots, 1);
        assert_eq!(store.read_snapshot(1).unwrap(), b"state at one");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_snapshot_rename_cannot_create_a_duplicate_epoch() {
        let dir = temp_dir("fault-torn-rename");
        // A torn rename *lands in the directory* but reports failure. If
        // the store left the file there, the directory would hold a
        // snapshot at epoch 1 that the manifest — and the caller, told the
        // install failed — never accepted. The rollback must remove the
        // landed file so the retry is the only document for the epoch.
        let (mut store, fault) = open_faulty(&dir, test_config(), FaultKind::TornRename, 5);
        store
            .install_snapshot(0, &Framed::copy(b"genesis"))
            .unwrap(); // rename op 4: passes
        store.append(1, &payload(1)).unwrap();
        let err = store
            .install_snapshot(1, &Framed::copy(b"first try"))
            .unwrap_err();
        assert!(
            matches!(&err, StoreError::Io { op, .. } if op == "rename"),
            "{err:?}"
        );
        assert!(fault.injection().unwrap().contains("torn-rename"));
        assert_eq!(store.snapshot_epochs(), &[0]);
        assert!(
            !dir.join(snapshot_file_name(1)).exists(),
            "torn-rename landed file must be rolled back"
        );
        store
            .install_snapshot(1, &Framed::copy(b"retried"))
            .unwrap();
        assert_eq!(store.read_snapshot(1).unwrap(), b"retried");
        drop(store);
        let (store, report) = Store::open(&dir, test_config()).unwrap();
        assert_eq!(report.snapshots, 2);
        assert_eq!(store.snapshot_epochs(), &[0, 1]);
        assert_eq!(store.read_snapshot(1).unwrap(), b"retried");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_epoch_tracks_fsync_coverage() {
        let dir = temp_dir("durable-epoch");
        let mut config = test_config();
        config.fsync = FsyncPolicy::EveryBatch;
        assert!(config.fsync.durable_metadata());
        assert!(!FsyncPolicy::Never.durable_metadata());
        let (mut store, _) = Store::open(&dir, config.clone()).unwrap();
        assert_eq!(store.durable_epoch(), None);
        store.append(1, &payload(1)).unwrap();
        store.append(2, &payload(2)).unwrap();
        assert_eq!(
            store.durable_epoch(),
            None,
            "no fsync covered the batch yet"
        );
        store.sync().unwrap();
        assert_eq!(store.durable_epoch(), Some(2));
        store.append(3, &payload(3)).unwrap();
        assert_eq!(store.durable_epoch(), Some(2));
        // A durable snapshot install advances coverage to its epoch.
        store
            .install_snapshot(3, &Framed::copy(b"state at three"))
            .unwrap();
        assert_eq!(store.durable_epoch(), Some(3));
        drop(store);
        // On reopen everything scanned off the platter counts as durable.
        let (store, _) = Store::open(&dir, config).unwrap();
        assert_eq!(store.durable_epoch(), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_read_is_loud_but_scoped() {
        let dir = temp_dir("snapflip");
        let (mut store, _) = Store::open(&dir, test_config()).unwrap();
        store
            .install_snapshot(0, &Framed::copy(b"genesis document"))
            .unwrap();
        let path = dir.join(snapshot_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Opening still works (snapshot contents are read lazily)...
        let (store, _) = Store::open(&dir, test_config()).unwrap();
        // ...but reading the snapshot reports the damage.
        assert!(matches!(
            store.read_snapshot(0),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
