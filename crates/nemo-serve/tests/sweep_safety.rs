//! Sweep safety, randomized: under arbitrary interleavings of appends,
//! snapshot installs, budget-limited sweeps, and crash-reopens,
//! [`Store::sweep`] never deletes a snapshot or WAL segment that replay
//! from the oldest retained snapshot still needs. After every step the
//! store must satisfy: every retained snapshot document is readable, and
//! replaying from the oldest retained snapshot epoch reproduces exactly
//! the appended records above it, all the way to the tip.
//!
//! The proptest lives in nemo-serve (nemo-store carries no dev-deps) but
//! drives a raw [`Store`] directly — the serving layer is not involved.

use nemo_store::record::Framed;
use nemo_store::{FsyncPolicy, Store, StoreConfig, StoreError};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nemo-sweep-safety-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> StoreConfig {
    StoreConfig {
        magic: "nemo-wal/v1".to_string(),
        fsync: FsyncPolicy::Never, // tests: speed over platters
        segment_max_bytes: 96,     // tiny segments: sweeps have many targets
        snapshot_every_bytes: 0,
        snapshot_every_epochs: 0,
        keep_snapshots: 2,
    }
}

/// Simulates a kill: clones whatever is on disk into a fresh directory,
/// file by file, without closing the original store (its buffers were
/// flushed by an explicit `sync`, matching a kill right after a batch
/// boundary — the torn-write cases are nemo-store's own kill-step tests).
fn clone_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create incarnation dir");
    for entry in std::fs::read_dir(from).expect("read store dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
        }
    }
}

/// Everything the store must still be able to prove after any step.
fn check_invariants(store: &Store, appended: &[(u64, Vec<u8>)], context: &str) {
    let epochs = store.snapshot_epochs();
    // Every retained snapshot document must still be readable.
    for &epoch in epochs {
        let doc = store
            .read_snapshot(epoch)
            .unwrap_or_else(|e| panic!("{context}: snapshot {epoch} unreadable: {e}"));
        assert!(!doc.is_empty(), "{context}: snapshot {epoch} is empty");
    }
    // Replay from the oldest retained snapshot must reach the tip with
    // exactly the records appended above it — no swept-away segment may
    // leave a hole.
    let from = epochs.first().copied().unwrap_or(0);
    let mut replayed: Vec<(u64, Vec<u8>)> = Vec::new();
    store
        .replay(from, |epoch, payload| {
            replayed.push((epoch, payload.to_vec()));
            Ok::<_, StoreError>(())
        })
        .unwrap_or_else(|e| panic!("{context}: replay from {from} failed: {e}"));
    let expected: Vec<(u64, Vec<u8>)> = appended
        .iter()
        .filter(|(epoch, _)| *epoch > from)
        .cloned()
        .collect();
    assert_eq!(
        replayed, expected,
        "{context}: replay from {from} diverges from the appended record log"
    );
    assert_eq!(
        store.last_epoch(),
        appended.last().map(|(e, _)| *e),
        "{context}: tip epoch diverges"
    );
}

proptest! {
    /// Random install/append/sweep/crash interleavings: sweep never
    /// deletes a segment or snapshot that replay from the oldest retained
    /// snapshot still needs.
    #[test]
    fn sweep_never_strands_recovery(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec((0u8..=9, 0u8..=255), 4..48),
    ) {
        let root = temp_root(&format!("{seed}"));
        let mut incarnation = 0usize;
        let dir = root.join(format!("inc{incarnation}"));
        let (mut store, _) = Store::open(&dir, config()).expect("open fresh store");

        let mut appended: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut next_epoch = 1u64;

        for (step, (op, arg)) in ops.iter().copied().enumerate() {
            let context = format!("seed {seed}, step {step} (op {op}, arg {arg})");
            match op {
                // Append: the most common op, so chains of WAL build up
                // between snapshots and sweeps have segments to cover.
                0..=4 => {
                    let payload = format!("record {next_epoch} arg {arg}").into_bytes();
                    store.append(next_epoch, &payload).expect("append");
                    appended.push((next_epoch, payload));
                    next_epoch += 1;
                }
                // Install a snapshot at the tip.
                5 | 6 => {
                    let Some(tip) = store.last_epoch() else { continue };
                    if store.snapshot_epochs().last().is_some_and(|&n| n >= tip) {
                        continue; // nothing appended since the last install
                    }
                    let doc = format!("state at {tip} arg {arg}").into_bytes();
                    store.install_snapshot(tip, &Framed::copy(&doc)).expect("install snapshot");
                }
                // Sweep with a small random budget — most sweeps stop
                // mid-plan, exactly the partial state that must stay safe.
                7 | 8 => {
                    let budget = 1 + (arg as usize % 3);
                    store.sweep(budget).expect("sweep");
                }
                // Crash: clone the on-disk state into a fresh directory
                // and reopen there; a half-executed sweep plan must be
                // recomputable from what survived.
                _ => {
                    store.sync().expect("sync before kill");
                    incarnation += 1;
                    let next_dir = root.join(format!("inc{incarnation}"));
                    clone_dir(store.dir(), &next_dir);
                    let (reopened, _report) =
                        Store::open(&next_dir, config()).expect("reopen after kill");
                    store = reopened;
                }
            }
            check_invariants(&store, &appended, &context);
        }

        // A final unbounded sweep must drain the plan completely and leave
        // the same invariants standing.
        store.sweep(usize::MAX).expect("final sweep");
        prop_assert_eq!(store.sweep_plan().removals(), 0);
        check_invariants(&store, &appended, &format!("seed {seed}, final sweep"));

        let _ = std::fs::remove_dir_all(&root);
    }
}
