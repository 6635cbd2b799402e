//! Versioned snapshots and WAL replay.
//!
//! A snapshot is a single JSON document carrying the schema tag
//! [`SNAPSHOT_SCHEMA`], the epoch, the property graph in node-link form
//! (reusing `netgraph::json`) and the two frames as lossless CSV (reusing
//! `dataframe::csv`). Because every encoder involved is canonical — graph
//! JSON iterates nodes and edges in sorted order, CSV preserves row order
//! and value types exactly — two equal states serialize to byte-identical
//! documents, which is how the replay property tests phrase their proof:
//! `write_snapshot(snapshot(e) + WAL[e..]) == write_snapshot(direct
//! build)`.

use crate::error::ServeError;
use crate::live::LiveNetwork;
use crate::mutation::WalRecord;
use dataframe::csv::{from_csv, to_csv};
use netgraph::json::{graph_from_json, graph_to_json, JsonValue};
use std::collections::BTreeMap;

/// Schema tag written into (and required from) every snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "nemo-snapshot/v1";

/// The newest format version this build reads. Documents tagged with a
/// higher `nemo-snapshot/v<N>` are refused with a clear upgrade message
/// instead of a parse error deeper in.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Serializes a live network into a versioned snapshot document.
pub fn write_snapshot(live: &LiveNetwork) -> String {
    let mut root = BTreeMap::new();
    root.insert(
        "schema".to_string(),
        JsonValue::String(SNAPSHOT_SCHEMA.to_string()),
    );
    root.insert("epoch".to_string(), JsonValue::Number(live.epoch() as f64));
    // Stable provenance header: the epoch the writer observed when the
    // document was produced. Always equal to "epoch"; kept as its own
    // field so readers can rely on it unconditionally.
    root.insert(
        "created_epoch".to_string(),
        JsonValue::Number(live.epoch() as f64),
    );
    root.insert("graph".to_string(), graph_to_json(live.graph()));
    root.insert(
        "nodes_csv".to_string(),
        JsonValue::String(to_csv(live.nodes())),
    );
    root.insert(
        "edges_csv".to_string(),
        JsonValue::String(to_csv(live.edges())),
    );
    JsonValue::Object(root).to_json()
}

/// The version gate: a schema naming a version newer than this build
/// reads gets a clear refusal instead of a parse error deeper in — the
/// operator learns to upgrade, not to suspect disk corruption.
fn refuse_newer(schema: &str) -> Result<(), ServeError> {
    if let Some(version) = schema
        .strip_prefix("nemo-snapshot/v")
        .and_then(|v| v.parse::<u64>().ok())
    {
        if version > SNAPSHOT_VERSION {
            return Err(ServeError::Corrupt(format!(
                "snapshot format version {version} is newer than this build \
                 supports (v{SNAPSHOT_VERSION}); refusing to load"
            )));
        }
    }
    Ok(())
}

/// Restores a live network from a snapshot document. The restored WAL is
/// empty — the snapshot is the log's compacted prefix — and the epoch
/// counter continues from the snapshot's epoch.
pub fn read_snapshot(text: &str) -> Result<LiveNetwork, ServeError> {
    let corrupt = |msg: String| ServeError::Corrupt(msg);
    let root = match JsonValue::parse(text).map_err(|e| corrupt(format!("not JSON: {e}")))? {
        JsonValue::Object(map) => map,
        _ => return Err(corrupt("snapshot root is not an object".to_string())),
    };
    match root.get("schema") {
        Some(JsonValue::String(s)) if s == SNAPSHOT_SCHEMA => {}
        Some(JsonValue::String(s)) => {
            refuse_newer(s)?;
            return Err(corrupt(format!(
                "schema field is {s:?}, want \"{SNAPSHOT_SCHEMA}\""
            )));
        }
        other => {
            return Err(corrupt(format!(
                "schema field is {other:?}, want \"{SNAPSHOT_SCHEMA}\""
            )))
        }
    }
    let epoch = match root.get("epoch") {
        Some(JsonValue::Number(n)) if n.fract() == 0.0 && *n >= 0.0 => *n as u64,
        other => return Err(corrupt(format!("epoch field is {other:?}"))),
    };
    // The provenance header is optional (documents written before it
    // existed stay readable), but when present it must agree with the
    // state epoch — a mismatch means a corrupted or hand-edited file.
    match root.get("created_epoch") {
        None => {}
        Some(JsonValue::Number(n)) if n.fract() == 0.0 && *n as u64 == epoch => {}
        Some(other) => {
            return Err(corrupt(format!(
                "created_epoch field is {other:?}, want {epoch}"
            )))
        }
    }
    let graph = match root.get("graph") {
        Some(value) => graph_from_json(value).map_err(|e| corrupt(format!("graph: {e}")))?,
        None => return Err(corrupt("missing 'graph'".to_string())),
    };
    let csv_frame = |key: &str| match root.get(key) {
        Some(JsonValue::String(text)) => from_csv(text).map_err(|e| corrupt(format!("{key}: {e}"))),
        _ => Err(corrupt(format!("missing string '{key}'"))),
    };
    let nodes = csv_frame("nodes_csv")?;
    let edges = csv_frame("edges_csv")?;
    Ok(LiveNetwork::from_parts(graph, nodes, edges, epoch))
}

/// Restores a snapshot and replays a WAL segment on top of it.
///
/// Records at or below the snapshot's epoch are skipped (the snapshot
/// already contains them); the remainder must continue the epoch sequence
/// contiguously, and every mutation must apply cleanly — a conflict in a
/// WAL that the live network accepted means the snapshot does not match
/// the log, so both cases surface as [`ServeError`].
pub fn replay(snapshot: &str, wal: &[WalRecord]) -> Result<LiveNetwork, ServeError> {
    let mut live = read_snapshot(snapshot)?;
    for record in wal {
        if record.epoch <= live.epoch() {
            continue;
        }
        if record.epoch != live.epoch() + 1 {
            return Err(ServeError::Corrupt(format!(
                "WAL gap: state is at epoch {}, next record is epoch {}",
                live.epoch(),
                record.epoch
            )));
        }
        let applied = live.apply(record.at_ms, record.mutation.clone())?;
        debug_assert_eq!(applied, record.epoch);
    }
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trafficgen::{evolve, generate, StreamConfig, TrafficConfig};

    fn evolved(events: usize) -> LiveNetwork {
        let w = generate(&TrafficConfig {
            nodes: 12,
            edges: 16,
            prefixes: 2,
            seed: 6,
        });
        let mut live = LiveNetwork::from_workload(&w);
        for event in evolve(&w, &StreamConfig { events, seed: 2 }) {
            live.apply_event(&event).unwrap();
        }
        live
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical() {
        let live = evolved(40);
        let text = write_snapshot(&live);
        let restored = read_snapshot(&text).unwrap();
        assert_eq!(restored, live);
        assert_eq!(write_snapshot(&restored), text);
        assert_eq!(restored.epoch(), 40);
        assert!(restored.wal().is_empty());
    }

    #[test]
    fn replay_from_mid_snapshot_reconstructs_the_tip() {
        let w = generate(&TrafficConfig {
            nodes: 12,
            edges: 16,
            prefixes: 2,
            seed: 6,
        });
        let mut live = LiveNetwork::from_workload(&w);
        let events = evolve(
            &w,
            &StreamConfig {
                events: 50,
                seed: 2,
            },
        );
        let mut mid = None;
        for (i, event) in events.iter().enumerate() {
            if i == 20 {
                mid = Some(write_snapshot(&live));
            }
            live.apply_event(event).unwrap();
        }
        let replayed = replay(&mid.unwrap(), live.wal()).unwrap();
        assert_eq!(replayed, live);
        assert_eq!(write_snapshot(&replayed), write_snapshot(&live));
    }

    #[test]
    fn snapshot_carries_a_stable_created_epoch_header() {
        let live = evolved(7);
        let text = write_snapshot(&live);
        assert!(text.contains("\"created_epoch\":7"));
        // Tampering with the provenance header is rejected.
        let tampered = text.replace("\"created_epoch\":7", "\"created_epoch\":9");
        assert!(matches!(
            read_snapshot(&tampered),
            Err(ServeError::Corrupt(_))
        ));
        // A pre-header v1 document (the field absent entirely) stays
        // readable: the field was added without a version bump.
        let legacy = text.replace("\"created_epoch\":7,", "");
        assert!(legacy != text && read_snapshot(&legacy).is_ok());
    }

    #[test]
    fn future_format_versions_are_refused_with_a_clear_error() {
        let live = evolved(3);
        let future = write_snapshot(&live).replace("nemo-snapshot/v1", "nemo-snapshot/v3");
        match read_snapshot(&future) {
            Err(ServeError::Corrupt(msg)) => {
                assert!(msg.contains("version 3"), "{msg}");
                assert!(msg.contains("refusing to load"), "{msg}");
            }
            other => panic!("expected a clear refusal, got {other:?}"),
        }
        // A non-versioned unknown schema still gets the generic error.
        let alien = write_snapshot(&live).replace("nemo-snapshot/v1", "other-format");
        assert!(matches!(read_snapshot(&alien), Err(ServeError::Corrupt(_))));
    }

    #[test]
    fn corrupt_documents_and_wal_gaps_are_rejected() {
        assert!(read_snapshot("not json").is_err());
        assert!(read_snapshot("{}").is_err());
        assert!(read_snapshot(r#"{"schema":"nemo-snapshot/v9"}"#).is_err());
        let live = evolved(10);
        let snapshot = write_snapshot(&live);
        // A WAL whose epochs do not continue the snapshot is a gap.
        let mut gapped = live.wal()[..0].to_vec();
        gapped.push(WalRecord {
            epoch: 99,
            ..live.wal()[9].clone()
        });
        let err = replay(&snapshot, &gapped);
        // Snapshot is at epoch 10; record 99 does not continue it.
        assert!(matches!(err, Err(ServeError::Corrupt(_))));
    }
}
