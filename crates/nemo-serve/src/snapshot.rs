//! Versioned snapshots.
//!
//! A snapshot is a single JSON document carrying the schema tag
//! [`SNAPSHOT_SCHEMA`], the epoch, the property graph in node-link form
//! (`netgraph::json`) and the two frames as lossless CSV
//! (`dataframe::csv`). Because every encoder involved is canonical — graph
//! JSON iterates nodes and edges in sorted order, CSV preserves row order
//! and value types exactly — two equal states serialize to byte-identical
//! documents, which is how the recovery property tests phrase their proof:
//! `write_snapshot(recovered from snapshot(e) + WAL[e..]) ==
//! write_snapshot(direct build)`.
//!
//! **Writing** streams: [`write_snapshot`] writes the document's fields
//! straight into one pre-sized `netgraph::json::JsonWriter`, keys in the
//! sorted order a `JsonValue` object writes them in. The graph is written
//! in place and each CSV table inside a string literal, escaped as it is
//! written, so no table, string or JSON tree is built on the way. A shard
//! document nests the same document, byte for byte, as an object.
//!
//! **Reading** parses the document once and then consumes the parsed
//! tree: the graph is built by draining its node-link tree, and each CSV
//! string is freed as soon as its frame is built.

use crate::codec::non_negative;
use crate::error::ServeError;
use crate::live::LiveNetwork;
use crate::mutation::Epoch;
use dataframe::csv::{from_csv, write_csv};
use dataframe::DataFrame;
use netgraph::json::{graph_from_json, write_graph_json, JsonValue, JsonWriter};
use netgraph::Graph;
use std::collections::BTreeMap;

/// Schema tag written into (and required from) every snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "nemo-snapshot/v1";

/// The newest format version this build reads. Documents tagged with a
/// higher `nemo-snapshot/v<N>` are refused with a clear upgrade message
/// instead of a parse error deeper in.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Serializes a live network into a versioned snapshot document.
pub fn write_snapshot(live: &LiveNetwork) -> String {
    let mut out = JsonWriter::with_capacity(snapshot_size_hint(live));
    write_snapshot_into(live, &mut out);
    out.finish()
}

/// A capacity for [`write_snapshot`]'s output, so the document is written
/// without reallocating: a little above the ~105 bytes per node and ~150
/// per edge a generated traffic network takes.
pub(crate) fn snapshot_size_hint(live: &LiveNetwork) -> usize {
    1024 + 112 * live.nodes().n_rows() + 160 * live.edges().n_rows()
}

/// Writes the snapshot document of `live` at the writer's depth.
pub(crate) fn write_snapshot_into(live: &LiveNetwork, out: &mut JsonWriter) {
    // Stable provenance header: the epoch the writer observed when the
    // document was produced. Always equal to "epoch"; kept as its own
    // field so readers can rely on it unconditionally.
    out.text("{\"created_epoch\":");
    out.uint(live.epoch());
    out.text(",\"edges_csv\":");
    out.begin_string();
    write_csv(live.edges(), out);
    out.end_string();
    out.text(",\"epoch\":");
    out.uint(live.epoch());
    out.text(",\"graph\":");
    write_graph_json(live.graph(), true, out);
    out.text(",\"nodes_csv\":");
    out.begin_string();
    write_csv(live.nodes(), out);
    out.end_string();
    out.text(",\"schema\":");
    out.string(SNAPSHOT_SCHEMA);
    out.text("}");
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
    let parts = snapshot_parts(parse_snapshot(text)?)?;
    Ok(LiveNetwork::from_parts(
        parts.graph,
        parts.nodes,
        parts.edges,
        parts.epoch,
    ))
}

/// What a snapshot document restores, before any row index is built.
pub(crate) struct SnapshotParts {
    pub(crate) graph: Graph,
    pub(crate) nodes: DataFrame,
    pub(crate) edges: DataFrame,
    pub(crate) epoch: Epoch,
}

/// Parses a snapshot document's text into its root object. The caller may
/// free the text before decoding the root with [`snapshot_parts`].
pub(crate) fn parse_snapshot(text: &str) -> Result<BTreeMap<String, JsonValue>, ServeError> {
    match JsonValue::parse(text) {
        Ok(JsonValue::Object(map)) => Ok(map),
        Ok(_) => Err(ServeError::Corrupt(
            "snapshot root is not an object".to_string(),
        )),
        Err(e) => Err(ServeError::Corrupt(format!("not JSON: {e}"))),
    }
}

/// Validates and decodes a parsed snapshot document, consuming it.
pub(crate) fn snapshot_parts(
    mut root: BTreeMap<String, JsonValue>,
) -> Result<SnapshotParts, ServeError> {
    let corrupt = |msg: String| ServeError::Corrupt(msg);
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
    let Some(epoch) = root.get("epoch").and_then(non_negative) else {
        return Err(corrupt(format!("epoch field is {:?}", root.get("epoch"))));
    };
    // The provenance header is optional (documents written before it
    // existed stay readable), but when present it must agree with the
    // state epoch — a mismatch means a corrupted or hand-edited file.
    match root.get("created_epoch") {
        None => {}
        Some(value) if non_negative(value) == Some(epoch) => {}
        Some(other) => {
            return Err(corrupt(format!(
                "created_epoch field is {other:?}, want {epoch}"
            )))
        }
    }
    let graph = match root.remove("graph") {
        Some(value) => graph_from_json(value).map_err(|e| corrupt(format!("graph: {e}")))?,
        None => return Err(corrupt("missing 'graph'".to_string())),
    };
    let mut csv_frame = |key: &str| match root.remove(key) {
        Some(JsonValue::String(text)) => {
            from_csv(&text).map_err(|e| corrupt(format!("{key}: {e}")))
        }
        _ => Err(corrupt(format!("missing string '{key}'"))),
    };
    let nodes = csv_frame("nodes_csv")?;
    let edges = csv_frame("edges_csv")?;
    Ok(SnapshotParts {
        graph,
        nodes,
        edges,
        epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::Mutation;
    use netgraph::AttrValue;
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
    }

    #[test]
    fn integer_attributes_keep_their_exact_value_and_type() {
        let mut live = evolved(0);
        let (source, target) = {
            let (u, v, _) = live.graph().edges().next().expect("an edge");
            (u.to_string(), v.to_string())
        };
        for big in [(1i64 << 53) + 1, i64::MAX, i64::MIN] {
            live.apply(&Mutation::SetFlow {
                source: source.clone(),
                target: target.clone(),
                bytes: big,
                connections: -big.saturating_add(1),
                packets: 7,
            })
            .unwrap();
            let restored = read_snapshot(&write_snapshot(&live)).unwrap();
            // Matched on the variant and the exact integer: `==` on
            // attribute values compares numbers through f64.
            let attrs = restored.graph().edge_attrs(&source, &target).unwrap();
            assert!(
                matches!(attrs.get("bytes"), Some(AttrValue::Int(i)) if *i == big),
                "{big}: graph holds {:?}",
                attrs.get("bytes")
            );
            assert!(
                matches!(attrs.get("connections"), Some(AttrValue::Int(i)) if *i == -big.saturating_add(1)),
                "{big}: graph holds {:?}",
                attrs.get("connections")
            );
            let row = (0..restored.edges().n_rows())
                .find(|&r| {
                    restored.edges().value(r, "source").unwrap().as_str() == Some(&source)
                        && restored.edges().value(r, "target").unwrap().as_str() == Some(&target)
                })
                .expect("the edge's row");
            assert!(
                matches!(restored.edges().value(row, "bytes"), Ok(AttrValue::Int(i)) if *i == big),
                "{big}: frame holds {:?}",
                restored.edges().value(row, "bytes")
            );
        }
    }

    #[test]
    fn large_integral_float_attributes_stay_floats() {
        let mut live = evolved(0);
        let node = live.graph().nodes().next().expect("a node").0.to_string();
        for f in [1e17, -(2f64.powi(60)), 5.0, -0.0] {
            live.apply(&Mutation::SetNodeAttr {
                id: node.clone(),
                key: "weight".into(),
                value: AttrValue::Float(f),
            })
            .unwrap();
            let restored = read_snapshot(&write_snapshot(&live)).unwrap();
            let attrs = restored.graph().node_attrs(&node).unwrap();
            assert!(
                matches!(attrs.get("weight"), Some(AttrValue::Float(g)) if g.to_bits() == f.to_bits()),
                "{f}: graph holds {:?}",
                attrs.get("weight")
            );
        }
    }

    #[test]
    fn large_integral_floats_in_frame_columns_stay_floats() {
        let mut live = evolved(0);
        let node = live.graph().nodes().next().expect("a node").0.to_string();
        for f in [1e17, -(2f64.powi(60)), 2.5e15, 1e15, -0.0, 3.0] {
            live.apply(&Mutation::SetNodeAttr {
                id: node.clone(),
                key: "prefix16".into(),
                value: AttrValue::Float(f),
            })
            .unwrap();
            let text = write_snapshot(&live);
            let restored = read_snapshot(&text).unwrap();
            let nodes = restored.nodes();
            let row = (0..nodes.n_rows())
                .find(|&r| nodes.value(r, "id").unwrap().as_str() == Some(&node))
                .expect("the node's row");
            // Matched on the variant and the exact value: `==` on
            // attribute values compares numbers through f64.
            assert!(
                matches!(nodes.value(row, "prefix16"), Ok(AttrValue::Float(g)) if g.to_bits() == f.to_bits()),
                "{f}: frame holds {:?}",
                nodes.value(row, "prefix16")
            );
            assert_eq!(write_snapshot(&restored), text);
        }
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
    fn corrupt_documents_are_rejected() {
        assert!(read_snapshot("not json").is_err());
        assert!(read_snapshot("{}").is_err());
        assert!(read_snapshot(r#"{"schema":"nemo-snapshot/v9"}"#).is_err());
    }
}
