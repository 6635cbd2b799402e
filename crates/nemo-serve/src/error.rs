//! The serving layer's error type.

use std::fmt;

/// Why a mutation could not be applied or a snapshot could not be read.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The mutation is not applicable to the current state (duplicate node,
    /// missing endpoint, unknown edge). The state is left untouched and no
    /// epoch is consumed.
    Conflict(String),
    /// A snapshot document failed to parse or failed validation, or a WAL
    /// segment does not continue the snapshot it is replayed onto.
    Corrupt(String),
    /// A serving-layer storage precondition failed (e.g. creating a store
    /// in an occupied directory, recovering an empty one). Failures of the
    /// store *itself* carry their context in [`ServeError::Store`].
    Storage(String),
    /// The persistence root holds a layout this build will not open: store
    /// files directly under the root (the single-shard layout written
    /// before every store moved under `shard-<k>/`), or stores for only
    /// some of the requested shards. Nothing was created or modified.
    Layout(String),
    /// The durable store under the serving layer failed, keeping the
    /// failure's context: which shard's store it was (`None` before the
    /// failure was attributed to a shard) and the global epoch being
    /// logged or synced when it surfaced (`None` outside the apply path).
    Store {
        /// Index of the failing shard, once attributed.
        shard: Option<u32>,
        /// Global epoch in flight when the failure surfaced.
        epoch: Option<u64>,
        /// The underlying storage error, unchanged.
        source: nemo_store::StoreError,
    },
    /// The server is in degraded read-only mode: a shard's write path is
    /// poisoned (an unrecoverable storage fault — see
    /// [`nemo_store::StoreError::Poisoned`]), so mutations are rejected
    /// while queries keep answering at the last durable epoch.
    Degraded {
        /// Index of the poisoned shard, once attributed.
        shard: Option<u32>,
        /// Global epoch through which state is known durable; queries keep
        /// answering at this epoch.
        last_durable_epoch: u64,
        /// The poisoning cause — the rendering of the first
        /// [`nemo_store::StoreError`] that poisoned the write path, so an
        /// operator can tell a failed fsync from ENOSPC without shell
        /// access to the store directory. Empty when the cause was not
        /// recorded (e.g. a store poisoned before this field existed).
        cause: String,
    },
}

impl ServeError {
    /// Stamps shard and epoch context onto a storage failure. [`Store`]
    /// variants gain the context (without overwriting context already
    /// present); [`Corrupt`] keeps its variant — recovery tests match on
    /// it — but the shard is recorded in the message. Other variants pass
    /// through untouched.
    ///
    /// [`Store`]: ServeError::Store
    /// [`Corrupt`]: ServeError::Corrupt
    pub fn with_shard(self, shard: u32, epoch: Option<u64>) -> ServeError {
        match self {
            ServeError::Store {
                shard: old_shard,
                epoch: old_epoch,
                source,
            } => ServeError::Store {
                shard: old_shard.or(Some(shard)),
                epoch: old_epoch.or(epoch),
                source,
            },
            ServeError::Corrupt(msg) => ServeError::Corrupt(format!("shard {shard}: {msg}")),
            ServeError::Degraded {
                shard: old_shard,
                last_durable_epoch,
                cause,
            } => ServeError::Degraded {
                shard: old_shard.or(Some(shard)),
                last_durable_epoch,
                cause,
            },
            other => other,
        }
    }

    /// Whether retrying the same operation can legitimately succeed —
    /// the serving-layer view of [`nemo_store::StoreError::retryable`].
    /// Only transient storage I/O qualifies; conflicts, corruption,
    /// poisoning and degraded mode are states, not transients.
    pub fn retryable(&self) -> bool {
        match self {
            ServeError::Store { source, .. } => source.retryable(),
            _ => false,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Conflict(msg) => write!(f, "mutation conflict: {msg}"),
            ServeError::Corrupt(msg) => write!(f, "corrupt snapshot or WAL: {msg}"),
            ServeError::Storage(msg) => write!(f, "storage failure: {msg}"),
            ServeError::Layout(msg) => write!(f, "refusing the persistence layout: {msg}"),
            ServeError::Store {
                shard,
                epoch,
                source,
            } => {
                write!(f, "storage failure")?;
                if let Some(shard) = shard {
                    write!(f, " at shard {shard}")?;
                }
                if let Some(epoch) = epoch {
                    write!(f, " (epoch {epoch})")?;
                }
                write!(f, ": {source}")
            }
            ServeError::Degraded {
                shard,
                last_durable_epoch,
                cause,
            } => {
                write!(f, "degraded read-only mode")?;
                if let Some(shard) = shard {
                    write!(f, " (shard {shard} write path poisoned)")?;
                } else {
                    write!(f, " (write path poisoned)")?;
                }
                write!(
                    f,
                    ": mutations rejected, queries served at last durable epoch \
                     {last_durable_epoch}"
                )?;
                if !cause.is_empty() {
                    write!(f, "; cause: {cause}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<nemo_store::StoreError> for ServeError {
    fn from(err: nemo_store::StoreError) -> Self {
        match err {
            // Store-level corruption is serving-level corruption: recovery
            // treats both as "this log/snapshot cannot be trusted".
            nemo_store::StoreError::Corrupt(msg) => ServeError::Corrupt(msg),
            source => ServeError::Store {
                shard: None,
                epoch: None,
                source,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_store::StoreError;

    #[test]
    fn store_errors_keep_shard_and_epoch_context() {
        let source = StoreError::Io {
            op: "fsync".to_string(),
            path: "wal-0001.seg".to_string(),
            detail: "disk gone".to_string(),
        };
        let err = ServeError::from(source.clone()).with_shard(2, Some(17));
        assert_eq!(
            err,
            ServeError::Store {
                shard: Some(2),
                epoch: Some(17),
                source: source.clone(),
            }
        );
        assert_eq!(
            err.to_string(),
            "storage failure at shard 2 (epoch 17): storage I/O error: fsync wal-0001.seg: disk gone"
        );
        // Context already present is not overwritten by a later wrap.
        let rewrapped = err.with_shard(9, Some(99));
        assert_eq!(
            rewrapped,
            ServeError::Store {
                shard: Some(2),
                epoch: Some(17),
                source,
            }
        );
    }

    #[test]
    fn degraded_reports_shard_and_durable_epoch() {
        let err = ServeError::Degraded {
            shard: None,
            last_durable_epoch: 41,
            cause: String::new(),
        }
        .with_shard(3, Some(99));
        assert_eq!(
            err,
            ServeError::Degraded {
                shard: Some(3),
                last_durable_epoch: 41,
                cause: String::new(),
            }
        );
        assert_eq!(
            err.to_string(),
            "degraded read-only mode (shard 3 write path poisoned): mutations rejected, \
             queries served at last durable epoch 41"
        );
        let with_cause = ServeError::Degraded {
            shard: None,
            last_durable_epoch: 7,
            cause: "storage I/O error: fsync wal-0001.seg: disk gone".to_string(),
        };
        assert_eq!(
            with_cause.to_string(),
            "degraded read-only mode (write path poisoned): mutations rejected, queries \
             served at last durable epoch 7; cause: storage I/O error: fsync \
             wal-0001.seg: disk gone"
        );
        assert!(!err.retryable());
        // Plain I/O wrapped as Store stays retryable through the wrapper;
        // fsync-class does not.
        let io = ServeError::from(StoreError::io_at(
            "append",
            std::path::Path::new("w.seg"),
            std::io::Error::other("x"),
        ));
        assert!(io.retryable());
        let fsync = ServeError::from(StoreError::io_at(
            "fsync",
            std::path::Path::new("w.seg"),
            std::io::Error::other("x"),
        ));
        assert!(!fsync.retryable());
    }

    #[test]
    fn corrupt_keeps_its_variant_for_recovery_matching() {
        let err =
            ServeError::from(StoreError::Corrupt("bad frame".to_string())).with_shard(1, None);
        assert!(matches!(err, ServeError::Corrupt(msg) if msg == "shard 1: bad frame"));
    }
}
