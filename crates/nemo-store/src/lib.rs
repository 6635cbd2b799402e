//! # nemo-store
//!
//! The durable storage engine under the serving layer: an append-only,
//! segmented write-ahead log of length-prefixed CRC32-checksummed records,
//! epoch-tagged snapshot files, and the retention/compaction/recovery
//! discipline that ties the two together. The crate is deliberately
//! *payload-agnostic* — records and snapshots are opaque byte strings, the
//! caller (`nemo-serve`) owns the codec — so the storage rules stay small
//! enough to reason about and property-test exhaustively:
//!
//! * **Records** ([`record`]) — every frame on disk is
//!   `[len: u32 LE][crc32(payload): u32 LE][payload]`. A frame that ends
//!   past the end of its file is *torn* (a crash cut it); a complete frame
//!   whose CRC does not match is *corrupt* (the disk or an editor did it).
//!   The two are never conflated.
//! * **Segments** ([`segment`]) — WAL files named by the epoch of their
//!   first record (`wal-<epoch20>.seg`), each starting with a magic header
//!   frame. A segment is sealed when it reaches the configured size and a
//!   new one is opened.
//! * **Snapshots** — opaque documents framed like records in
//!   `snap-<epoch20>.snap`, written to a temp file and atomically renamed.
//!   Every snapshot is self-contained; the WAL alone carries the records
//!   between two of them.
//! * **The store** ([`Store`]) — opens a directory, validates every frame,
//!   truncates a torn tail on the *newest* segment only (any other tear or
//!   any CRC mismatch fails loudly), appends with a configurable
//!   [`FsyncPolicy`], and reports a snapshot as due once the WAL past
//!   the newest one reaches a byte floor or half that document
//!   ([`SNAPSHOT_WAL_DIVISOR`]), or an optional epoch count.
//!   A store has a single appender: every mutating call takes
//!   `&mut self`, so under [`FsyncPolicy::EveryRecord`] a record is on
//!   the platter before its `append` returns.
//! * **The sweep** ([`sweep`], [`Store::sweep`]) — pruning of unretained
//!   snapshots and deletion of WAL segments wholly covered by the oldest
//!   retained snapshot, deferred off the write path: installs only write,
//!   the caller executes the (recomputable) [`SweepPlan`] incrementally at
//!   batch boundaries or idle ticks. Every removal hits the filesystem
//!   before the in-memory manifest, so an error or a kill at any point
//!   leaves a consistent store that resumes where it stopped.
//! * **The filesystem seam** ([`vfs`]) — every filesystem call the engine
//!   makes goes through a [`Vfs`]: [`RealFs`] in production, [`FaultFs`]
//!   under test to deterministically inject the k-th-operation fault
//!   (ENOSPC, EIO, short write, failed fsync, failed/torn rename) and
//!   prove *error-anywhere* safety the way the crash tests prove
//!   kill-anywhere safety. A failed fsync over appended records poisons
//!   the store permanently ([`StoreError::Poisoned`]) — never retried on
//!   possibly-dropped dirty pages — while rolled-back write faults stay
//!   retryable ([`StoreError::retryable`]).
//!
//! ```
//! use nemo_store::record::Framed;
//! use nemo_store::{FsyncPolicy, Store, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("nemo-store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = StoreConfig {
//!     magic: "nemo-wal/v1".to_string(),
//!     fsync: FsyncPolicy::Never,
//!     segment_max_bytes: 1 << 20,
//!     snapshot_every_bytes: 0,
//!     snapshot_every_epochs: 0,
//!     keep_snapshots: 2,
//! };
//! let (mut store, report) = Store::open(&dir, config.clone()).unwrap();
//! assert_eq!(report.truncated_bytes, 0);
//! store.install_snapshot(0, &Framed::copy(b"genesis state")).unwrap();
//! store.append(1, b"first mutation").unwrap();
//! store.append(2, b"second mutation").unwrap();
//! store.sync().unwrap();
//!
//! // A reopened store sees the same log.
//! let (store, _) = Store::open(&dir, config).unwrap();
//! let mut suffix = Vec::new();
//! store
//!     .replay(0, |epoch, payload| {
//!         suffix.push((epoch, payload.to_vec()));
//!         Ok::<_, nemo_store::StoreError>(())
//!     })
//!     .unwrap();
//! assert_eq!(suffix.len(), 2);
//! assert_eq!(suffix[1], (2, b"second mutation".to_vec()));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

pub mod crc32;
mod error;
pub mod metrics;
pub mod record;
pub mod segment;
mod store;
pub mod sweep;
pub mod vfs;

pub use error::StoreError;
pub use metrics::StoreMetrics;
pub use store::{
    parse_snapshot_name, snapshot_file_name, FsyncPolicy, OpenReport, Store, StoreConfig,
    SNAPSHOT_WAL_DIVISOR,
};
pub use sweep::{SweepOutcome, SweepPlan};
pub use vfs::{FaultFs, FaultKind, RealFs, Vfs, VfsFile};
