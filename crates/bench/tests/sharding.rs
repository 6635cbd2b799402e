//! The sharded durability driver, end to end: transcripts are invariant
//! under the shard count and the worker count, and per-shard crash/resume
//! — including jagged cuts where the shards die at different local epochs
//! — reconstructs the uninterrupted transcript byte for byte.

use bench::driver::{run_sharded, DurabilityConfig};
use nemo_serve::{FsyncPolicy, PersistOptions};
use std::path::PathBuf;
use trafficgen::TrafficConfig;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nemo-sharding-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny(seed: u64) -> DurabilityConfig {
    DurabilityConfig {
        traffic: TrafficConfig {
            nodes: 14,
            edges: 18,
            prefixes: 2,
            seed: 7,
        },
        clients: 3,
        events: 20,
        queries: 2,
        seed,
        options: PersistOptions {
            fsync: FsyncPolicy::Never, // tests: speed over platters
            segment_max_bytes: 2048,
            snapshot_every_bytes: 0,
            snapshot_every_epochs: 8,
            keep_snapshots: 2,
            ..PersistOptions::default()
        },
    }
}

#[test]
fn sharded_transcripts_are_invariant_under_shards_and_threads() {
    let config = tiny(31);
    let dir_one = temp_dir("inv-1");
    let (one, crashed) = run_sharded(&config, &dir_one, 1, 1, None).unwrap();
    assert!(!crashed);
    assert!(one.last().unwrap().starts_with("final epoch="));
    for (shards, threads) in [(2u32, 1usize), (4, 1), (4, 2)] {
        let dir = temp_dir(&format!("inv-{shards}-{threads}"));
        let (lines, crashed) = run_sharded(&config, &dir, shards, threads, None).unwrap();
        assert!(!crashed);
        assert_eq!(lines, one, "shards={shards} threads={threads}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&dir_one).unwrap();
}

#[test]
fn sharded_crash_then_resume_matches_uninterrupted() {
    let config = tiny(32);
    let full_dir = temp_dir("crash-full");
    let (uninterrupted, crashed) = run_sharded(&config, &full_dir, 3, 2, None).unwrap();
    assert!(!crashed);

    let crash_dir = temp_dir("crash-cut");
    let (partial, crashed) = run_sharded(&config, &crash_dir, 3, 2, Some(7)).unwrap();
    assert!(crashed);
    assert!(partial.len() < uninterrupted.len());
    // Resume on the same stores: the jagged per-shard recovery plus the
    // deterministic re-walk reconstructs the full transcript exactly.
    let (resumed, crashed) = run_sharded(&config, &crash_dir, 3, 2, None).unwrap();
    assert!(!crashed);
    assert_eq!(resumed, uninterrupted);

    // Resuming a completed run is a no-op that regenerates the same
    // transcript from disk state alone.
    let (again, _) = run_sharded(&config, &full_dir, 3, 1, None).unwrap();
    assert_eq!(again, uninterrupted);
    for dir in [full_dir, crash_dir] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn torn_tails_on_individual_shards_recover_and_resume() {
    // Complete a sharded run, then tear the tail off every shard's newest
    // WAL segment at a different byte count — the jaggedest possible cut.
    // Recovery must truncate each torn record independently and the resume
    // must still reproduce the uninterrupted transcript.
    let config = tiny(33);
    let dir = temp_dir("torn");
    let (uninterrupted, _) = run_sharded(&config, &dir, 3, 1, None).unwrap();
    for (k, tear) in [(0u32, 1u64), (1, 3), (2, 7)] {
        let shard_dir = dir.join(format!("shard-{k}"));
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&shard_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
            })
            .collect();
        segments.sort();
        let newest = segments.last().expect("every shard has a segment");
        let len = std::fs::metadata(newest).unwrap().len();
        if len > tear {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(newest)
                .unwrap();
            file.set_len(len - tear).unwrap();
        }
    }
    let (resumed, crashed) = run_sharded(&config, &dir, 3, 2, None).unwrap();
    assert!(!crashed);
    assert_eq!(resumed, uninterrupted);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn group_commit_runs_match_every_record_runs() {
    // The commit policy changes *when* bytes hit the platter, never what
    // the serving layer computes: transcripts under GroupCommit equal the
    // EveryRecord transcripts, and the stores recover identically.
    let strict = tiny(34);
    let grouped = DurabilityConfig {
        options: PersistOptions {
            fsync: FsyncPolicy::GroupCommit {
                max_batch: 8,
                max_wait_micros: 200,
            },
            ..strict.options.clone()
        },
        ..strict.clone()
    };
    let strict_dir = temp_dir("gc-strict");
    let grouped_dir = temp_dir("gc-grouped");
    let (a, _) = run_sharded(&strict, &strict_dir, 2, 1, None).unwrap();
    let (b, _) = run_sharded(&grouped, &grouped_dir, 2, 1, None).unwrap();
    assert_eq!(a, b);
    // Re-open the group-commit stores: recovery sees the same state.
    let (recovered, crashed) = run_sharded(&grouped, &grouped_dir, 2, 1, None).unwrap();
    assert!(!crashed);
    assert_eq!(recovered, a);
    for dir in [strict_dir, grouped_dir] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
