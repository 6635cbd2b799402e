//! Deterministic fault injection, end to end: a scripted single-shot
//! filesystem fault (`nemo_store::FaultFs`) is swept across **every**
//! operation index of a fixed workload driven through a durable
//! single-shard server, for every
//! [`FaultKind`] — the fault-space twin of `crash_recovery.rs`'s
//! truncation-offset sweep. At every (kind, op index) point one of three
//! things must happen, and nothing else:
//!
//! * **Absorbed** — the fault was retryable (the store rolled the
//!   operation back) and the serving layer's bounded retry made the run
//!   complete with a final state identical to the fault-free canonical
//!   run. All kinds except a failed fsync land here.
//! * **Surfaced** — the run stopped with a *typed* error carrying the
//!   failing operation and path; never a panic, never a silently wrong
//!   state. If the fault poisoned the store (a failed fsync over appended
//!   records — fsyncgate: the kernel may have dropped the dirty pages, so
//!   retrying would re-ack lost data), the server must turn read-only and
//!   reject the next mutation.
//! * **Not fired** — the index lies past the workload's last applicable
//!   operation; the run completes canonically.
//!
//! After a surfaced fault, reopening the directory with the real
//! filesystem must recover to an exact canonical epoch prefix that
//! contains **every acked record** (at most one unacked in-flight record
//! may additionally survive), with every retained snapshot readable.

use nemo_core::ScriptedLlm;
use nemo_serve::persist::{FsyncPolicy, PersistOptions};
use nemo_serve::{LiveNetwork, Request, Response, ServeError, Server, ServerBuilder};
use nemo_store::{FaultFs, FaultKind, RealFs, Vfs};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trafficgen::{evolve, generate, Ipv4, NetEvent, StreamConfig, TimedEvent, TrafficConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nemo-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(vfs: Arc<dyn Vfs>, snapshot_every: u64) -> PersistOptions {
    PersistOptions {
        // Every append carries its own commit fsync — the strictest
        // policy, and the one that makes "acked" mean "durable".
        fsync: FsyncPolicy::EveryRecord,
        // Tiny segments: the sweep crosses several rotation boundaries.
        segment_max_bytes: 256,
        snapshot_every_bytes: 0,
        snapshot_every_epochs: snapshot_every,
        keep_snapshots: 2,
        vfs,
        ..PersistOptions::default()
    }
}

fn workload() -> trafficgen::TrafficWorkload {
    generate(&TrafficConfig {
        nodes: 10,
        edges: 12,
        prefixes: 2,
        seed: 8,
    })
}

fn stream_len() -> usize {
    if std::env::var("NEMO_SMALL").is_ok() {
        10
    } else {
        18
    }
}

fn stream(events: usize) -> Vec<TimedEvent> {
    evolve(&workload(), &StreamConfig { events, seed: 11 })
}

/// Every how many epochs the workload installs a snapshot (through the
/// server's own threshold) and then runs a budgeted sweep — every quarter
/// of the stream, so installs, pruning and compaction all sit inside the
/// swept op space.
fn snapshot_every(events: usize) -> u64 {
    (events as u64 / 4).max(1)
}

/// What one workload run under a given filesystem did.
struct Run {
    /// Highest epoch whose mutation (or genesis install) returned `Ok` —
    /// `None` when even the build failed.
    acked: Option<u64>,
    error: Option<ServeError>,
    /// The store reported itself poisoned when the error surfaced.
    poisoned: bool,
    /// The server turned read-only and rejected a further mutation
    /// (vacuously true when the store was not poisoned).
    post_poison_rejected: bool,
}

/// Drives the fixed workload through one fresh single-shard durable
/// server: build (genesis snapshot), then apply every stream event with a
/// snapshot and a budgeted sweep every `every` epochs, then a final sync.
/// Stops at the first error.
fn run_workload(dir: &Path, vfs: Arc<dyn Vfs>, events: &[TimedEvent], every: u64) -> Run {
    let built = ServerBuilder::new()
        .options(options(vfs, every))
        .persist_at(dir)
        .build::<ScriptedLlm>(LiveNetwork::from_workload(&workload()), Vec::new());
    let mut server = match built {
        Ok(server) => server,
        Err(e) => {
            return Run {
                acked: None,
                error: Some(e),
                poisoned: false,
                post_poison_rejected: true,
            }
        }
    };
    let mut acked = 0u64;
    let fail = |server: &mut Server<ScriptedLlm>, acked: u64, e: ServeError| {
        let poisoned = server.shard_persistence()[0].store().poisoned().is_some();
        // A mutation no stream produces: only the read-only mode rejects it.
        let probe = TimedEvent {
            at_ms: 0,
            event: NetEvent::NewEndpoint {
                endpoint: Ipv4::new(198, 51, 100, 1),
            },
        };
        Run {
            acked: Some(acked),
            error: Some(e),
            poisoned,
            post_poison_rejected: !poisoned
                || matches!(
                    server.handle(&Request::from(&probe)),
                    Ok(Response::Degraded { .. })
                ),
        }
    };
    for event in events {
        match server.handle(&Request::from(event)) {
            Ok(Response::Mutated { epoch, .. }) => acked = epoch,
            Ok(other) => panic!("a conflict-free stream answered {other:?}"),
            Err(e) => return fail(&mut server, acked, e),
        }
        if acked % every == 0 {
            if let Err(e) = server.sweep_persistence(8) {
                return fail(&mut server, acked, e);
            }
        }
    }
    if let Err(e) = server.handle(&Request::Sync) {
        return fail(&mut server, acked, e);
    }
    Run {
        acked: Some(acked),
        error: None,
        poisoned: server.shard_persistence()[0].store().poisoned().is_some(),
        post_poison_rejected: true,
    }
}

/// The fault-free run: canonical per-epoch states (`states[e]` = the live
/// state after epoch `e`) for prefix comparison.
fn canonical_states(events: &[TimedEvent]) -> Vec<LiveNetwork> {
    let mut live = LiveNetwork::from_workload(&workload());
    let mut states = vec![live.clone()];
    for event in events {
        live.apply_event(event)
            .expect("in-memory apply is faultless");
        states.push(live.clone());
    }
    states
}

/// Reopens a post-fault directory with the real filesystem and checks the
/// recovery contract: it succeeds, lands on an exact canonical prefix, and
/// that prefix contains every acked record (plus at most one in-flight).
fn verify_reopen(dir: &Path, states: &[LiveNetwork], acked: Option<u64>, context: &str) {
    let (mut server, reports) = ServerBuilder::new()
        .options(options(Arc::new(RealFs), 0))
        .persist_at(dir)
        .recover_or_create::<ScriptedLlm>(Vec::new(), || LiveNetwork::from_workload(&workload()))
        .unwrap_or_else(|e| panic!("{context}: reopen after fault failed: {e}"));
    let report = &reports[0];
    let recovered = server.merged_view();
    assert!(
        report.skipped_snapshots.is_empty(),
        "{context}: reopen skipped snapshots: {:?}",
        report.skipped_snapshots
    );
    let epoch = recovered.epoch();
    let floor = acked.unwrap_or(0);
    assert!(
        epoch >= floor,
        "{context}: acked epoch {floor} lost — recovery reached only {epoch}"
    );
    assert!(
        epoch <= floor + 1,
        "{context}: recovery reached {epoch}, more than one record past acked {floor}"
    );
    assert!(
        (epoch as usize) < states.len(),
        "{context}: recovered epoch {epoch} is past the workload"
    );
    assert!(
        *recovered == states[epoch as usize],
        "{context}: recovered state diverged from the canonical epoch-{epoch} prefix"
    );
}

/// The exhaustive sweep for one fault kind: every op index from 0 to the
/// calibrated op count (the fault armed past every op doubles as the
/// "never fires" case).
fn sweep_kind(kind: FaultKind) {
    let events = stream(stream_len());
    let every = snapshot_every(events.len());
    let states = canonical_states(&events);
    let tip = events.len() as u64;

    // Calibration: a disarmed injector counts the workload's op space.
    let calibrate_dir = temp_dir(&format!("calibrate-{}", kind.name()));
    let calibrate = Arc::new(FaultFs::new(kind, u64::MAX));
    let run = run_workload(&calibrate_dir, calibrate.clone(), &events, every);
    assert!(run.error.is_none(), "disarmed run failed: {:?}", run.error);
    assert_eq!(run.acked, Some(tip));
    let op_count = calibrate.ops();
    assert!(op_count > 0, "calibration observed no filesystem ops");
    std::fs::remove_dir_all(&calibrate_dir).unwrap();

    let mut absorbed = 0u64;
    let mut surfaced = 0u64;
    for k in 0..=op_count {
        let context = format!("kind {} at op {k}", kind.name());
        let dir = temp_dir(&format!("{}-{k}", kind.name()));
        let fault = Arc::new(FaultFs::new(kind, k));
        let run = run_workload(&dir, fault.clone(), &events, every);
        match &run.error {
            None => {
                // Absorbed or never fired: the run must be canonically
                // complete either way.
                assert_eq!(
                    run.acked,
                    Some(tip),
                    "{context}: short run without an error"
                );
                assert!(!run.poisoned, "{context}: clean run left a poisoned store");
                if fault.injection().is_some() {
                    absorbed += 1;
                }
            }
            Some(e) => {
                surfaced += 1;
                let fired = fault
                    .injection()
                    .unwrap_or_else(|| panic!("{context}: error without an injected fault: {e}"));
                // Typed, with op + path context from the injector's op —
                // never a panic (a panic would abort this test), never
                // retryable (those were absorbed within budget).
                assert!(
                    matches!(e, ServeError::Store { .. }),
                    "{context}: fault surfaced as {e:?} (injected: {fired})"
                );
                assert!(
                    !e.retryable(),
                    "{context}: a retryable error escaped the retry budget"
                );
                assert!(
                    run.post_poison_rejected,
                    "{context}: poisoned store accepted another append"
                );
                verify_reopen(&dir, &states, run.acked, &context);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // Every kind has at least one index where its fault actually fires;
    // only the fsync kind may surface (everything else is rolled back by
    // the store and absorbed by the serving layer's retry budget).
    assert!(
        absorbed + surfaced > 0,
        "fault for {} never fired",
        kind.name()
    );
    if kind != FaultKind::FailedFsync {
        assert_eq!(
            surfaced,
            0,
            "{}: a rolled-back fault kind surfaced instead of being retried",
            kind.name()
        );
    } else {
        assert!(surfaced > 0, "a failed fsync never surfaced");
    }
}

#[test]
fn enospc_swept_across_every_op_is_absorbed() {
    sweep_kind(FaultKind::Enospc);
}

#[test]
fn eio_swept_across_every_op_is_absorbed() {
    sweep_kind(FaultKind::Eio);
}

#[test]
fn short_write_swept_across_every_op_is_absorbed() {
    sweep_kind(FaultKind::ShortWrite);
}

#[test]
fn failed_fsync_swept_across_every_op_surfaces_or_degrades_never_loses_acked_data() {
    sweep_kind(FaultKind::FailedFsync);
}

#[test]
fn failed_rename_swept_across_every_op_is_absorbed() {
    sweep_kind(FaultKind::FailedRename);
}

#[test]
fn torn_rename_swept_across_every_op_is_absorbed() {
    sweep_kind(FaultKind::TornRename);
}

/// The op counter is a deterministic function of the workload: two
/// disarmed runs observe identical op counts, so a calibrated `fault_at`
/// targets the same operation on every execution.
#[test]
fn op_space_is_deterministic_across_runs() {
    let events = stream(6);
    let every = snapshot_every(events.len());
    let mut counts = Vec::new();
    for round in 0..2 {
        let dir = temp_dir(&format!("determinism-{round}"));
        let fault = Arc::new(FaultFs::new(FaultKind::Eio, u64::MAX));
        let run = run_workload(&dir, fault.clone(), &events, every);
        assert!(run.error.is_none());
        counts.push(fault.ops());
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(
        counts[0], counts[1],
        "op space drifted between identical runs"
    );
}
