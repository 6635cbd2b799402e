//! The virtual filesystem seam under the store.
//!
//! Every filesystem operation the storage engine performs goes through a
//! [`Vfs`] — directory listing, segment creation, appends, fsyncs,
//! renames, removals. Two implementations exist:
//!
//! * [`RealFs`] — `std::fs`, the default. A store opened through
//!   [`crate::Store::open`] behaves exactly as before the seam existed.
//! * [`FaultFs`] — a deterministic fault injector: it counts every
//!   operation and injects one scripted fault ([`FaultKind`]) at the
//!   first *applicable* operation whose index reaches `fault_at`. Tests
//!   sweep `fault_at` across a workload's whole operation space the same
//!   way the crash tests sweep truncation offsets, proving error-anywhere
//!   safety instead of just kill-anywhere safety.
//!
//! The seam is operation-shaped, not byte-shaped: a fault lands on a
//! whole `write_all`/`sync_data`/`rename`, which is the granularity real
//! disks fail at (ENOSPC on a write, EIO on an fsync, a rename that
//! reached the directory but whose acknowledgment was lost).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An open file handle behind the [`Vfs`] seam.
///
/// Only the operations the store actually performs are exposed: appends
/// (`write_all`), data fsync and truncation (crash-tail and short-write
/// repair).
pub trait VfsFile: Send + fmt::Debug {
    /// Writes the whole buffer (at end-of-file for append-opened handles).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes written data to the platter (`fdatasync`).
    fn sync_data(&self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
}

/// The filesystem operations the store performs, behind one seam.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// `std::fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists a directory's entry paths, **sorted by name** so downstream
    /// operation order (and therefore fault-injection op indices) is
    /// deterministic across platforms.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Opens an existing file for append.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates a brand-new file (failing if it exists), opened for append.
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates-or-truncates a file for writing (snapshot temp files).
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for write without truncating (tail repair).
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Fsyncs a directory, making renames/creates/removals in it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

/// The production filesystem: a thin veneer over `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

#[derive(Debug)]
struct RealFile(File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl Vfs for RealFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(path)? {
            entries.push(entry?.path());
        }
        entries.sort();
        Ok(entries)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        // Append mode even for fresh files: every write lands at EOF, so
        // truncating a partial tail (`set_len`) repositions the next
        // write at the clean boundary instead of leaving a hole.
        let file = OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().write(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
}

/// The fault taxonomy [`FaultFs`] can inject — one per script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A write fails with "no space left on device"; nothing is written.
    Enospc,
    /// A read, write, open, create, removal or listing fails with an I/O
    /// error; nothing is transferred.
    Eio,
    /// A write transfers only the first half of the buffer, then fails —
    /// the torn-tail case a dying disk (or a crash mid-`write`) produces.
    ShortWrite,
    /// An fsync (file or directory) fails. Per fsyncgate semantics the
    /// dirty pages' fate is unknown, so the store never retries it:
    /// fsync failure on a file holding appended records poisons the
    /// store permanently.
    FailedFsync,
    /// A rename fails; the source file stays where it was.
    FailedRename,
    /// A *torn* rename: the entry moves in the directory, but the
    /// operation still reports failure (the acknowledgment was lost —
    /// e.g. the failure surfaced in the journal commit). The caller must
    /// tolerate the destination existing despite the error.
    TornRename,
}

impl FaultKind {
    /// Every kind, for exhaustive sweeps.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Enospc,
        FaultKind::Eio,
        FaultKind::ShortWrite,
        FaultKind::FailedFsync,
        FaultKind::FailedRename,
        FaultKind::TornRename,
    ];

    /// A stable name (CLI flags, test labels).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
            FaultKind::ShortWrite => "short-write",
            FaultKind::FailedFsync => "fsync",
            FaultKind::FailedRename => "rename",
            FaultKind::TornRename => "torn-rename",
        }
    }

    /// Parses [`FaultKind::name`] back.
    pub fn parse(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    fn applies_to(&self, op: FaultOp) -> bool {
        match self {
            FaultKind::Enospc => matches!(op, FaultOp::Write | FaultOp::Create),
            FaultKind::Eio => matches!(
                op,
                FaultOp::Read
                    | FaultOp::Write
                    | FaultOp::Open
                    | FaultOp::Create
                    | FaultOp::Remove
                    | FaultOp::List
            ),
            FaultKind::ShortWrite => matches!(op, FaultOp::Write),
            FaultKind::FailedFsync => matches!(op, FaultOp::Fsync),
            FaultKind::FailedRename | FaultKind::TornRename => matches!(op, FaultOp::Rename),
        }
    }

    fn error(&self) -> io::Error {
        io::Error::other(format!("injected fault: {}", self.name()))
    }
}

/// The operation classes a fault can land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultOp {
    Read,
    Write,
    Fsync,
    Rename,
    Remove,
    Open,
    Create,
    List,
}

#[derive(Debug)]
struct FaultCore {
    kind: FaultKind,
    fault_at: u64,
    ops: AtomicU64,
    /// Where the (single-shot) fault fired, once it has.
    injected: Mutex<Option<String>>,
}

impl FaultCore {
    /// Counts one operation; returns the injected error when the armed
    /// fault fires here: the first operation of an applicable class whose
    /// global index reached `fault_at`.
    fn tick(&self, op: FaultOp, path: &Path) -> Option<io::Error> {
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        if index < self.fault_at || !self.kind.applies_to(op) {
            return None;
        }
        let mut injected = self.injected.lock().unwrap_or_else(|e| e.into_inner());
        if injected.is_some() {
            return None; // single-shot: one fault per script
        }
        *injected = Some(format!(
            "{} at op {index} ({op:?} {})",
            self.kind.name(),
            path.display()
        ));
        Some(self.kind.error())
    }
}

/// A deterministic single-fault injector over [`RealFs`].
///
/// Counts every [`Vfs`]/[`VfsFile`] operation; the scripted [`FaultKind`]
/// fires at the first applicable operation whose index reaches
/// `fault_at`, exactly once. With `fault_at` past the workload's
/// operation count nothing fires and [`FaultFs::ops`] reports the total —
/// the calibration run an exhaustive sweep starts from.
#[derive(Debug, Clone)]
pub struct FaultFs {
    inner: RealFs,
    core: Arc<FaultCore>,
}

impl FaultFs {
    /// A fault injector arming `kind` at operation index `fault_at`.
    pub fn new(kind: FaultKind, fault_at: u64) -> FaultFs {
        FaultFs {
            inner: RealFs,
            core: Arc::new(FaultCore {
                kind,
                fault_at,
                ops: AtomicU64::new(0),
                injected: Mutex::new(None),
            }),
        }
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.core.ops.load(Ordering::SeqCst)
    }

    /// Where the fault fired, if it has (kind, op index, operation, path).
    pub fn injection(&self) -> Option<String> {
        self.core
            .injected
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

#[derive(Debug)]
struct FaultFile {
    core: Arc<FaultCore>,
    inner: Box<dyn VfsFile>,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some(err) = self.core.tick(FaultOp::Write, &self.path) {
            if self.core.kind == FaultKind::ShortWrite {
                // Tear the write for real: half the buffer lands, then
                // the failure surfaces — the on-disk state a crash
                // mid-write leaves behind.
                self.inner.write_all(&buf[..buf.len() / 2])?;
            }
            return Err(err);
        }
        self.inner.write_all(buf)
    }
    fn sync_data(&self) -> io::Result<()> {
        if let Some(err) = self.core.tick(FaultOp::Fsync, &self.path) {
            return Err(err);
        }
        self.inner.sync_data()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        // Truncation is the *repair* path (crash tails, short writes);
        // it is not a faultable class, but it still counts as an op.
        self.core.tick(FaultOp::Read, &self.path);
        self.inner.set_len(len)
    }
}

impl FaultFs {
    fn wrap(
        &self,
        path: &Path,
        inner: io::Result<Box<dyn VfsFile>>,
    ) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile {
            core: Arc::clone(&self.core),
            inner: inner?,
            path: path.to_path_buf(),
        }))
    }
}

impl Vfs for FaultFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if let Some(err) = self.core.tick(FaultOp::List, path) {
            return Err(err);
        }
        self.inner.create_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        if let Some(err) = self.core.tick(FaultOp::List, path) {
            return Err(err);
        }
        self.inner.read_dir(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let Some(err) = self.core.tick(FaultOp::Read, path) {
            return Err(err);
        }
        self.inner.read(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if let Some(err) = self.core.tick(FaultOp::Remove, path) {
            return Err(err);
        }
        self.inner.remove_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(err) = self.core.tick(FaultOp::Rename, to) {
            if self.core.kind == FaultKind::TornRename {
                // The rename reaches the directory; only the
                // acknowledgment is lost.
                self.inner.rename(from, to)?;
            }
            return Err(err);
        }
        self.inner.rename(from, to)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if let Some(err) = self.core.tick(FaultOp::Open, path) {
            return Err(err);
        }
        self.wrap(path, self.inner.open_append(path))
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if let Some(err) = self.core.tick(FaultOp::Create, path) {
            return Err(err);
        }
        self.wrap(path, self.inner.create_new(path))
    }
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if let Some(err) = self.core.tick(FaultOp::Create, path) {
            return Err(err);
        }
        self.wrap(path, self.inner.create_truncate(path))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if let Some(err) = self.core.tick(FaultOp::Open, path) {
            return Err(err);
        }
        self.wrap(path, self.inner.open_write(path))
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if let Some(err) = self.core.tick(FaultOp::Fsync, path) {
            return Err(err);
        }
        self.inner.sync_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nemo-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fault_kind_names_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("bogus"), None);
    }

    #[test]
    fn fault_fires_once_at_the_first_applicable_op() {
        let dir = temp_dir("once");
        let fs = FaultFs::new(FaultKind::Eio, 2);
        let path = dir.join("a.bin");
        // Ops 0 and 1 pass; op 2 is the first at or past the arm point.
        fs.read_dir(&dir).unwrap();
        let mut f = fs.create_truncate(&path).unwrap();
        assert!(f.write_all(b"boom").is_err(), "op 2 must inject");
        assert!(fs.injection().unwrap().contains("eio"));
        // Single-shot: later ops succeed again.
        f.write_all(b"fine").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"fine");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_tears_the_buffer_and_torn_rename_lands() {
        let dir = temp_dir("tear");
        let fs = FaultFs::new(FaultKind::ShortWrite, 0);
        let path = dir.join("t.bin");
        // Creation is not a Write class op for ShortWrite; the write is.
        let mut f = fs.create_truncate(&path).unwrap();
        assert!(f.write_all(b"12345678").is_err());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"1234", "half landed");

        let fs = FaultFs::new(FaultKind::TornRename, 0);
        let from = dir.join("from.bin");
        let to = dir.join("to.bin");
        std::fs::write(&from, b"x").unwrap();
        assert!(fs.rename(&from, &to).is_err());
        assert!(to.exists(), "torn rename reached the directory");
        assert!(!from.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unarmed_fault_counts_ops_for_calibration() {
        let dir = temp_dir("calibrate");
        let fs = FaultFs::new(FaultKind::Enospc, u64::MAX);
        fs.read_dir(&dir).unwrap();
        let mut f = fs.create_truncate(&dir.join("c.bin")).unwrap();
        f.write_all(b"data").unwrap();
        f.sync_data().unwrap();
        assert_eq!(fs.ops(), 4);
        assert_eq!(fs.injection(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
