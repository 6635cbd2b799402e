//! Crash-recovery properties of the durable store, end to end through a
//! single-shard server (whose store lives under `root/shard-0/`):
//!
//! * **Crash anywhere**: truncating the on-disk WAL at *every byte offset*
//!   and recovering yields state byte-identical (snapshot bytes, and
//!   SQL/pandas/NetworkX probe answers on sampled offsets) to replaying
//!   the surviving epoch prefix in memory — a torn tail record is
//!   truncated, never misread.
//! * **Corruption is loud**: a single-bit flip in any record's checksum or
//!   payload region, a deleted middle segment, or a missing genesis
//!   snapshot all fail recovery with a corruption error — never a silently
//!   wrong state.

use nemo_core::sandbox::execute_code;
use nemo_core::{Backend, ScriptedLlm};
use nemo_serve::codec::SHARD_WAL_MAGIC;
use nemo_serve::persist::{FsyncPolicy, PersistOptions, RecoveryReport};
use nemo_serve::shard_persist::shard_dir;
use nemo_serve::snapshot::write_snapshot;
use nemo_serve::{LiveNetwork, Request, Response, ServeError, Server, ServerBuilder};
use nemo_store::segment::scan_segment;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use trafficgen::{evolve, generate, StreamConfig, TrafficConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nemo-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options() -> PersistOptions {
    PersistOptions {
        fsync: FsyncPolicy::Never,
        // Tiny segments: the byte sweep crosses several rotation
        // boundaries, headers included.
        segment_max_bytes: 400,
        snapshot_every_bytes: 0,
        snapshot_every_epochs: 0,
        ..PersistOptions::default()
    }
}

/// Recovers the single-shard server persisted under `root`; creating a
/// fresh store instead would be a test failure.
fn recover(root: &Path) -> Result<(Server<ScriptedLlm>, RecoveryReport), ServeError> {
    let (server, mut reports) = ServerBuilder::new()
        .options(options())
        .persist_at(root)
        .recover_or_create(Vec::new(), || panic!("{} holds no store", root.display()))?;
    Ok((server, reports.remove(0)))
}

/// Backend probes rendered over the current state (same shape as the PR 4
/// replay property tests).
fn probe_answers(live: &LiveNetwork) -> Vec<String> {
    let sql = execute_code(
        Backend::Sql,
        "SELECT COUNT(*) AS n FROM edges; SELECT SUM(bytes) AS s FROM edges;",
        &live.state(Backend::Sql),
    )
    .expect("SQL probe runs");
    let pandas = execute_code(
        Backend::Pandas,
        "result = edges.sum(\"bytes\")",
        &live.state(Backend::Pandas),
    )
    .expect("pandas probe runs");
    let networkx = execute_code(
        Backend::NetworkX,
        "result = G.number_of_nodes() * 100000 + G.number_of_edges()",
        &live.state(Backend::NetworkX),
    )
    .expect("networkx probe runs");
    vec![
        sql.value.render(),
        pandas.value.render(),
        networkx.value.render(),
    ]
}

/// One persisted run: every stream event applied + logged, no mid-stream
/// snapshots (the full WAL survives for the sweep). Returns the in-memory
/// snapshot bytes at every epoch prefix plus the store's on-disk layout.
struct PersistedRun {
    /// The persistence root; the store itself is `shard-0/` below it.
    dir: PathBuf,
    /// `expected[k]` = snapshot bytes after the first `k` events.
    expected: Vec<String>,
    /// Live networks at sampled epochs for probe comparison.
    states: Vec<LiveNetwork>,
    /// Segment files in epoch order: `(path, bytes, record ends)` where
    /// record ends are `(global_end_offset, epoch)`.
    segments: Vec<(PathBuf, Vec<u8>)>,
    /// `(global byte offset where the record ends, epoch)` per record.
    record_ends: Vec<(u64, u64)>,
    total_bytes: u64,
}

fn persisted_run(tag: &str, traffic: &TrafficConfig, events: usize, seed: u64) -> PersistedRun {
    let dir = temp_dir(tag);
    let workload = generate(traffic);
    let mut live = LiveNetwork::from_workload(&workload);
    let mut server = ServerBuilder::new()
        .options(options())
        .persist_at(&dir)
        .build::<ScriptedLlm>(live.clone(), Vec::new())
        .unwrap();
    let mut expected = vec![write_snapshot(&live)];
    let mut states = vec![live.clone()];
    for event in evolve(&workload, &StreamConfig { events, seed }) {
        let response = server.handle(&Request::from(&event)).unwrap();
        assert!(matches!(response, Response::Mutated { .. }), "{response:?}");
        live.apply_event(&event).unwrap();
        expected.push(write_snapshot(&live));
        states.push(live.clone());
    }
    let segment_paths = server.shard_persistence()[0].store().segment_paths();
    drop(server);

    let mut segments = Vec::new();
    let mut record_ends = Vec::new();
    let mut base = 0u64;
    for path in segment_paths {
        let scan = scan_segment(&path, SHARD_WAL_MAGIC).unwrap();
        let first_epoch = scan.first_epoch.unwrap();
        for (i, frame) in scan.frames.iter().enumerate() {
            record_ends.push((
                base + (frame.offset + frame.len) as u64,
                first_epoch + i as u64,
            ));
        }
        let bytes = std::fs::read(&path).unwrap();
        base += bytes.len() as u64;
        segments.push((path, bytes));
    }
    PersistedRun {
        dir,
        expected,
        states,
        segments,
        record_ends,
        total_bytes: base,
    }
}

impl PersistedRun {
    /// Epochs surviving a crash at global WAL offset `cut`: records whose
    /// frames end at or before the cut.
    fn surviving_epoch(&self, cut: u64) -> u64 {
        self.record_ends
            .iter()
            .take_while(|(end, _)| *end <= cut)
            .map(|(_, epoch)| *epoch)
            .last()
            .unwrap_or(0)
    }

    /// Materializes the post-crash root: the genesis snapshot plus the
    /// WAL bytes strictly below `cut`, in `shard-0/`.
    fn crash_dir(&self, cut: u64, scratch: &Path) -> PathBuf {
        let _ = std::fs::remove_dir_all(scratch);
        let store = shard_dir(scratch, 0);
        std::fs::create_dir_all(&store).unwrap();
        std::fs::copy(
            shard_dir(&self.dir, 0).join(nemo_store::snapshot_file_name(0)),
            store.join(nemo_store::snapshot_file_name(0)),
        )
        .unwrap();
        let mut remaining = cut;
        for (path, bytes) in &self.segments {
            if remaining == 0 {
                break;
            }
            let keep = (bytes.len() as u64).min(remaining) as usize;
            std::fs::write(store.join(path.file_name().unwrap()), &bytes[..keep]).unwrap();
            remaining -= keep as u64;
        }
        scratch.to_path_buf()
    }
}

#[test]
fn recovery_from_a_crash_at_every_byte_offset_matches_the_epoch_prefix() {
    let traffic = TrafficConfig {
        nodes: 8,
        edges: 10,
        prefixes: 2,
        seed: 4,
    };
    let run = persisted_run("sweep", &traffic, 12, 31);
    assert!(
        run.segments.len() >= 2,
        "sweep must cross a segment boundary"
    );
    let scratch = temp_dir("sweep-scratch");
    let mut prev_epoch = u64::MAX;
    for cut in 0..=run.total_bytes {
        let crash = run.crash_dir(cut, &scratch);
        let (mut server, report) =
            recover(&crash).unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let recovered = server.merged_view();
        let epoch = run.surviving_epoch(cut);
        assert_eq!(recovered.epoch(), epoch, "cut at byte {cut}");
        assert_eq!(
            write_snapshot(recovered),
            run.expected[epoch as usize],
            "state diverged from the in-memory epoch prefix at cut {cut}"
        );
        assert_eq!(report.snapshot_epoch, 0);
        assert_eq!(report.replayed_records, epoch);
        // Probe answers across all three backends, once per distinct
        // surviving epoch (they are a function of the state, which the
        // snapshot bytes already pin byte-for-byte).
        if epoch != prev_epoch {
            prev_epoch = epoch;
            assert_eq!(
                probe_answers(recovered),
                probe_answers(&run.states[epoch as usize]),
                "probe answers diverged at cut {cut}"
            );
        }
    }
    std::fs::remove_dir_all(&run.dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

proptest! {
    /// The same crash property over random streams and random cuts.
    #[test]
    fn recovery_matches_epoch_prefix_on_random_streams(
        seed in 0u64..500,
        events in 1usize..30,
        cut_frac in 0u64..10_000,
    ) {
        let traffic = TrafficConfig { nodes: 10, edges: 12, prefixes: 2, seed: 6 };
        let run = persisted_run("prop", &traffic, events, seed);
        let cut = (run.total_bytes * cut_frac) / 10_000;
        let scratch = temp_dir("prop-scratch");
        let crash = run.crash_dir(cut, &scratch);
        let (mut server, _) =
            recover(&crash).map_err(|e| format!("recovery failed at cut {cut}: {e}"))?;
        let recovered = server.merged_view();
        let epoch = run.surviving_epoch(cut);
        prop_assert_eq!(recovered.epoch(), epoch);
        prop_assert_eq!(&write_snapshot(recovered), &run.expected[epoch as usize]);
        std::fs::remove_dir_all(&run.dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    /// A single-bit flip in any complete record's checksum or payload
    /// region fails recovery loudly — corruption is never misread as a
    /// crash tail, and never yields a wrong state.
    #[test]
    fn single_bit_flips_fail_recovery_loudly(
        seed in 0u64..500,
        pick in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let traffic = TrafficConfig { nodes: 10, edges: 12, prefixes: 2, seed: 6 };
        let run = persisted_run("flip", &traffic, 14, seed);
        // Choose a byte inside some frame's CRC or payload (offset >= 4
        // within the frame, i.e. skipping only the 4-byte length field,
        // whose large-growth flips are indistinguishable from a tear —
        // see nemo_store::record).
        let mut flippable: Vec<(usize, u64)> = Vec::new(); // (segment, global byte)
        let mut base = 0u64;
        for (i, (path, bytes)) in run.segments.iter().enumerate() {
            let scan = scan_segment(path, SHARD_WAL_MAGIC).unwrap();
            for frame in &scan.frames {
                for b in frame.offset + 4..frame.offset + frame.len {
                    flippable.push((i, b as u64));
                }
            }
            base += bytes.len() as u64;
        }
        let _ = base;
        let (segment, offset) = flippable[pick % flippable.len()];
        let scratch = temp_dir("flip-scratch");
        let crash = run.crash_dir(run.total_bytes, &scratch);
        let (path, bytes) = &run.segments[segment];
        let mut bytes = bytes.clone();
        bytes[offset as usize] ^= 1 << bit;
        std::fs::write(shard_dir(&crash, 0).join(path.file_name().unwrap()), &bytes).unwrap();
        match recover(&crash) {
            Err(ServeError::Corrupt(_)) => {}
            Err(other) => return Err(format!("wrong error kind: {other}")),
            Ok((server, _)) => {
                return Err(format!(
                    "recovery silently succeeded at epoch {} despite a flipped bit",
                    server.network().global_epoch()
                ));
            }
        }
        std::fs::remove_dir_all(&run.dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}

#[test]
fn deleted_middle_segment_fails_recovery_loudly() {
    let traffic = TrafficConfig {
        nodes: 10,
        edges: 12,
        prefixes: 2,
        seed: 6,
    };
    let run = persisted_run("gap", &traffic, 25, 9);
    assert!(run.segments.len() >= 3, "need a middle segment to delete");
    std::fs::remove_file(&run.segments[1].0).unwrap();
    match recover(&run.dir) {
        Err(ServeError::Corrupt(msg)) => assert!(msg.contains("gap"), "{msg}"),
        Err(other) => panic!("expected a loud gap failure, got {other:?}"),
        Ok(_) => panic!("recovery succeeded over a deleted middle segment"),
    }
    std::fs::remove_dir_all(&run.dir).unwrap();
}

#[test]
fn missing_every_snapshot_fails_recovery_loudly() {
    let traffic = TrafficConfig {
        nodes: 10,
        edges: 12,
        prefixes: 2,
        seed: 6,
    };
    let run = persisted_run("nosnap", &traffic, 8, 3);
    std::fs::remove_file(shard_dir(&run.dir, 0).join(nemo_store::snapshot_file_name(0))).unwrap();
    match recover(&run.dir) {
        Err(ServeError::Corrupt(msg)) => assert!(msg.contains("no usable snapshot"), "{msg}"),
        Err(other) => panic!("expected a loud failure, got {other:?}"),
        Ok(_) => panic!("recovery succeeded without any snapshot"),
    }
    std::fs::remove_dir_all(&run.dir).unwrap();
}
