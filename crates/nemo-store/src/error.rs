//! The storage engine's error type.

use std::fmt;
use std::path::Path;

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed. The operation verb
    /// (`"append"`, `"fsync"`, `"rename"`, …) and the path it concerned
    /// are kept structured so callers can classify the failure
    /// ([`StoreError::retryable`]); the original `io::Error` is rendered
    /// to a string so the type stays `Clone + Eq` for tests.
    Io {
        /// What the store was doing: `"create"`, `"append"`, `"fsync"`,
        /// `"fsync dir"`, `"rename"`, `"remove"`, `"read"`, `"list"`,
        /// `"open"`, `"truncate"`, `"write header"`, `"write"`.
        op: String,
        /// The file or directory the operation targeted.
        path: String,
        /// The rendered `io::Error`.
        detail: String,
    },
    /// On-disk bytes are damaged in a way a crash cannot explain: a CRC
    /// mismatch on a complete frame, a bad segment header, an epoch gap
    /// between segments, a tear anywhere but the newest segment's tail.
    /// Recovery refuses to continue past this.
    Corrupt(String),
    /// The caller broke an append-side invariant (non-contiguous epoch,
    /// snapshot older than an existing one).
    InvalidArgument(String),
    /// The store's write path is permanently wounded: an fsync covering
    /// already-appended records failed (fsyncgate — the kernel may have
    /// dropped the dirty pages, so retrying the fsync would falsely
    /// report durability), or a failed write could not be rolled back to
    /// a clean frame boundary. Every subsequent mutation is rejected with
    /// this error; reads and recovery-by-reopen remain available.
    Poisoned(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, detail } => {
                write!(f, "storage I/O error: {op} {path}: {detail}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::InvalidArgument(msg) => write!(f, "invalid store operation: {msg}"),
            StoreError::Poisoned(msg) => write!(f, "store poisoned: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Wraps an `io::Error` with the operation verb and path it concerned.
    pub fn io_at(op: &str, path: &Path, err: std::io::Error) -> StoreError {
        StoreError::Io {
            op: op.to_string(),
            path: path.display().to_string(),
            detail: err.to_string(),
        }
    }

    /// Whether retrying the *same* operation can legitimately succeed.
    ///
    /// Plain I/O failures (a write that hit ENOSPC, a rename or removal
    /// that got EIO) left the store in a rolled-back state, so the caller
    /// may retry within a budget. Fsync failures are **never** retryable:
    /// after a failed fsync the kernel may have discarded the dirty pages
    /// while leaving the file descriptor clean, so a retried fsync that
    /// "succeeds" proves nothing (fsyncgate). Corruption, invariant
    /// violations and poisoning are states, not transients.
    pub fn retryable(&self) -> bool {
        match self {
            StoreError::Io { op, .. } => !op.starts_with("fsync"),
            StoreError::Corrupt(_) | StoreError::InvalidArgument(_) | StoreError::Poisoned(_) => {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_keep_operation_and_path_context() {
        let err = StoreError::io_at(
            "fsync",
            Path::new("wal-00000000000000000001.seg"),
            std::io::Error::other("injected fault: fsync"),
        );
        assert_eq!(
            err.to_string(),
            "storage I/O error: fsync wal-00000000000000000001.seg: injected fault: fsync"
        );
        match &err {
            StoreError::Io { op, path, .. } => {
                assert_eq!(op, "fsync");
                assert_eq!(path, "wal-00000000000000000001.seg");
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn retryability_follows_the_fsyncgate_rule() {
        let write = StoreError::io_at("append", Path::new("w.seg"), std::io::Error::other("x"));
        let fsync = StoreError::io_at("fsync", Path::new("w.seg"), std::io::Error::other("x"));
        let dir_fsync = StoreError::io_at("fsync dir", Path::new("d"), std::io::Error::other("x"));
        assert!(write.retryable());
        assert!(!fsync.retryable(), "fsync failures must never be retried");
        assert!(!dir_fsync.retryable());
        assert!(!StoreError::Poisoned("x".into()).retryable());
        assert!(!StoreError::Corrupt("x".into()).retryable());
        assert!(!StoreError::InvalidArgument("x".into()).retryable());
    }
}
