//! Randomized fault scripts: the property-based twin of
//! `fault_injection.rs`'s exhaustive sweep (and of `sweep_safety.rs`'s
//! random op interleavings). A random workload shape (stream length,
//! snapshot points, sweep budgets) driven through a durable single-shard
//! server meets a random single-shot fault (kind × op index), and the
//! durability contract must hold on every combination:
//!
//! * a completed run ends in the canonical tip state, and reopening it
//!   recovers that exact state;
//! * a surfaced error is typed, non-retryable (retryable ones are
//!   absorbed within the serving layer's bounded retry), and never a
//!   panic; a poisoned store turns the server read-only;
//! * reopening after any fault recovers an exact canonical epoch prefix
//!   that contains every acked record (at most one unacked in-flight
//!   record may additionally survive), with every retained snapshot
//!   readable.

use nemo_core::ScriptedLlm;
use nemo_serve::persist::{FsyncPolicy, PersistOptions};
use nemo_serve::{LiveNetwork, Request, Response, ServeError, ServerBuilder};
use nemo_store::{FaultFs, FaultKind, RealFs, Vfs};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use trafficgen::{evolve, generate, Ipv4, NetEvent, StreamConfig, TimedEvent, TrafficConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nemo-fault-script-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(vfs: Arc<dyn Vfs>, snapshot_every: u64) -> PersistOptions {
    PersistOptions {
        fsync: FsyncPolicy::EveryRecord,
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

proptest! {
    #[test]
    fn random_fault_scripts_never_lose_acked_data(
        seed in 0u64..100_000,
        events in 4usize..20,
        // Snapshot after roughly every `gap` events; `sweep_budget`
        // bounds each compaction step like the server's batch boundary.
        snapshot_gap in 2usize..8,
        sweep_budget in 1usize..12,
        fault_at in 0u64..220,
        kind_pick in 0usize..FaultKind::ALL.len(),
    ) {
        let kind = FaultKind::ALL[kind_pick];
        let w = workload();
        let stream = evolve(&w, &StreamConfig { events, seed });

        // Canonical in-memory states per epoch, for prefix comparison.
        let mut canon = LiveNetwork::from_workload(&w);
        let mut states = vec![canon.clone()];
        for event in &stream {
            canon.apply_event(event).expect("in-memory apply is faultless");
            states.push(canon.clone());
        }

        let dir = temp_dir(&format!("{}-{seed}-{fault_at}", kind.name()));
        let fault = Arc::new(FaultFs::new(kind, fault_at));
        let mut acked = None;
        let mut error = None;
        match ServerBuilder::new()
            .options(options(fault.clone(), snapshot_gap as u64))
            .persist_at(&dir)
            .build::<ScriptedLlm>(LiveNetwork::from_workload(&w), Vec::new())
        {
            Err(e) => error = Some(e),
            Ok(mut server) => {
                acked = Some(0u64);
                for (i, event) in stream.iter().enumerate() {
                    match server.handle(&Request::from(event)) {
                        Ok(Response::Mutated { epoch, .. }) => acked = Some(epoch),
                        Ok(other) => panic!("a conflict-free stream answered {other:?}"),
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                    if (i + 1) % snapshot_gap == 0 {
                        if let Err(e) = server.sweep_persistence(sweep_budget) {
                            error = Some(e);
                            break;
                        }
                    }
                }
                if error.is_none() {
                    if let Err(e) = server.handle(&Request::Sync) {
                        error = Some(e);
                    }
                }
                if error.is_some() && server.shard_persistence()[0].store().poisoned().is_some() {
                    // A poisoned write path must reject further mutations.
                    let probe = TimedEvent {
                        at_ms: 0,
                        event: NetEvent::NewEndpoint { endpoint: Ipv4::new(198, 51, 100, 1) },
                    };
                    prop_assert!(
                        matches!(
                            server.handle(&Request::from(&probe)),
                            Ok(Response::Degraded { .. })
                        ),
                        "poisoned store accepted a mutation"
                    );
                }
            }
        }

        if let Some(e) = &error {
            prop_assert!(
                fault.injection().is_some(),
                "error without an injected fault: {e}"
            );
            prop_assert!(
                matches!(e, ServeError::Store { .. }),
                "fault surfaced untyped: {e:?}"
            );
            prop_assert!(!e.retryable(), "a retryable error escaped the retry budget");
        } else if fault.injection().is_none() {
            // The fault never fired: plain completed run.
            prop_assert_eq!(acked, Some(events as u64));
        }

        // Reopen with the real filesystem: always recovers, to an exact
        // canonical prefix containing everything acked.
        let (mut server, reports) = ServerBuilder::new()
            .options(options(Arc::new(RealFs), 0))
            .persist_at(&dir)
            .recover_or_create::<ScriptedLlm>(Vec::new(), || LiveNetwork::from_workload(&w))
            .map_err(|e| format!("reopen after {} fault failed: {e}", kind.name()))?;
        let report = &reports[0];
        let recovered = server.merged_view();
        prop_assert!(
            report.skipped_snapshots.is_empty(),
            "reopen skipped snapshots: {:?}",
            report.skipped_snapshots
        );
        let epoch = recovered.epoch();
        let floor = acked.unwrap_or(0);
        prop_assert!(epoch >= floor, "acked epoch {floor} lost, recovery reached {epoch}");
        prop_assert!(epoch <= floor + 1, "recovery reached {epoch}, acked only {floor}");
        prop_assert!(
            *recovered == states[epoch as usize],
            "recovered state diverged from the canonical epoch-{epoch} prefix"
        );
        if error.is_none() {
            prop_assert_eq!(epoch, events as u64);
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
