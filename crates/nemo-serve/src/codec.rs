//! The `nemo-shard-wal/v1` record codec: [`WalRecord`] ⇄ bytes.
//!
//! A WAL record's on-disk payload is a small JSON document carrying the
//! shard-local epoch, the global epoch, the stream timestamp and the
//! serialized [`Mutation`]. The format version lives in the segment
//! header magic ([`SHARD_WAL_MAGIC`], written and verified by
//! `nemo-store`), so every record in a segment shares one version and a
//! future codec can coexist file by file.
//!
//! The encoding is **lossless**, which the snapshot substrate is not
//! required to be: [`netgraph::AttrValue`]s are tagged with their type
//! (`{"t":"float","v":5.0}` stays a float instead of collapsing to the
//! integer 5 as untagged JSON would), so a decoded record replays exactly
//! the mutation that was logged. Integers are carried in JSON numbers and
//! therefore exact up to 2^53 — far beyond any flow counter the generators
//! produce.

use crate::error::ServeError;
use crate::mutation::{Mutation, WalRecord};
use netgraph::json::JsonValue;
use netgraph::AttrValue;
use std::collections::BTreeMap;

/// Segment-header magic naming this codec; `nemo-store` writes it into
/// every WAL segment and refuses segments carrying anything else.
pub const SHARD_WAL_MAGIC: &str = "nemo-shard-wal/v1";

pub(crate) fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

pub(crate) fn s(text: &str) -> JsonValue {
    JsonValue::String(text.to_string())
}

pub(crate) fn n(value: i64) -> JsonValue {
    JsonValue::Number(value as f64)
}

/// Type-tagged [`AttrValue`] encoding (lossless, unlike
/// [`JsonValue::from_attr`] which merges integral floats into ints on the
/// way back).
fn value_to_json(value: &AttrValue) -> JsonValue {
    match value {
        AttrValue::Null => obj(vec![("t", s("null"))]),
        AttrValue::Bool(b) => obj(vec![("t", s("bool")), ("v", JsonValue::Bool(*b))]),
        AttrValue::Int(i) => obj(vec![("t", s("int")), ("v", n(*i))]),
        AttrValue::Float(f) => obj(vec![("t", s("float")), ("v", JsonValue::Number(*f))]),
        AttrValue::Str(text) => obj(vec![("t", s("str")), ("v", s(text))]),
        AttrValue::List(items) => obj(vec![
            ("t", s("list")),
            (
                "v",
                JsonValue::Array(items.iter().map(value_to_json).collect()),
            ),
        ]),
    }
}

fn value_from_json(value: &JsonValue) -> Result<AttrValue, ServeError> {
    let bad = |msg: &str| Err(ServeError::Corrupt(format!("WAL value: {msg}")));
    let JsonValue::Object(map) = value else {
        return bad("not an object");
    };
    let Some(JsonValue::String(tag)) = map.get("t") else {
        return bad("missing type tag");
    };
    let v = map.get("v");
    match (tag.as_str(), v) {
        ("null", _) => Ok(AttrValue::Null),
        ("bool", Some(JsonValue::Bool(b))) => Ok(AttrValue::Bool(*b)),
        ("int", Some(JsonValue::Number(x))) if x.fract() == 0.0 => Ok(AttrValue::Int(*x as i64)),
        ("float", Some(JsonValue::Number(x))) => Ok(AttrValue::Float(*x)),
        ("str", Some(JsonValue::String(text))) => Ok(AttrValue::Str(text.as_str().into())),
        ("list", Some(JsonValue::Array(items))) => Ok(AttrValue::List(
            items
                .iter()
                .map(value_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        )),
        _ => bad(&format!("malformed value of type {tag:?}")),
    }
}

/// The canonical JSON form of one [`Mutation`] (shared by the WAL codec
/// and the typed request/response protocol).
pub(crate) fn mutation_to_json(mutation: &Mutation) -> JsonValue {
    match mutation {
        Mutation::AddNode {
            id,
            prefix16,
            prefix24,
        } => obj(vec![
            ("op", s("add_node")),
            ("id", s(id)),
            ("prefix16", s(prefix16)),
            ("prefix24", s(prefix24)),
        ]),
        Mutation::AddEdge {
            source,
            target,
            bytes,
            connections,
            packets,
        } => obj(vec![
            ("op", s("add_edge")),
            ("source", s(source)),
            ("target", s(target)),
            ("bytes", n(*bytes)),
            ("connections", n(*connections)),
            ("packets", n(*packets)),
        ]),
        Mutation::SetFlow {
            source,
            target,
            bytes,
            connections,
            packets,
        } => obj(vec![
            ("op", s("set_flow")),
            ("source", s(source)),
            ("target", s(target)),
            ("bytes", n(*bytes)),
            ("connections", n(*connections)),
            ("packets", n(*packets)),
        ]),
        Mutation::SetNodeAttr { id, key, value } => obj(vec![
            ("op", s("set_node_attr")),
            ("id", s(id)),
            ("key", s(key)),
            ("value", value_to_json(value)),
        ]),
        Mutation::RemoveEdge { source, target } => obj(vec![
            ("op", s("remove_edge")),
            ("source", s(source)),
            ("target", s(target)),
        ]),
    }
}

/// Encodes one WAL record: the record's `epoch` field is the
/// shard's local epoch (what the store's positional check verifies), and
/// the global epoch rides along in a `global` root field so recovery can
/// rebuild the cross-shard sequence numbers.
pub fn encode_shard_record(record: &WalRecord, global: u64) -> Vec<u8> {
    obj(vec![
        ("epoch", JsonValue::Number(record.epoch as f64)),
        ("global", JsonValue::Number(global as f64)),
        ("at_ms", JsonValue::Number(record.at_ms as f64)),
        ("mutation", mutation_to_json(&record.mutation)),
    ])
    .to_json()
    .into_bytes()
}

pub(crate) fn get_str(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<String, ServeError> {
    match map.get(key) {
        Some(JsonValue::String(text)) => Ok(text.clone()),
        other => Err(ServeError::Corrupt(format!(
            "WAL record field {key:?} is {other:?}, want a string"
        ))),
    }
}

pub(crate) fn get_u64(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<u64, ServeError> {
    match map.get(key) {
        Some(JsonValue::Number(x)) if x.fract() == 0.0 && *x >= 0.0 => Ok(*x as u64),
        other => Err(ServeError::Corrupt(format!(
            "WAL record field {key:?} is {other:?}, want a non-negative integer"
        ))),
    }
}

fn get_i64(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<i64, ServeError> {
    match map.get(key) {
        Some(JsonValue::Number(x)) if x.fract() == 0.0 => Ok(*x as i64),
        other => Err(ServeError::Corrupt(format!(
            "WAL record field {key:?} is {other:?}, want an integer"
        ))),
    }
}

/// Decodes the canonical JSON form of one [`Mutation`].
pub(crate) fn mutation_from_json(m: &BTreeMap<String, JsonValue>) -> Result<Mutation, ServeError> {
    let mutation = match get_str(m, "op")?.as_str() {
        "add_node" => Mutation::AddNode {
            id: get_str(m, "id")?,
            prefix16: get_str(m, "prefix16")?,
            prefix24: get_str(m, "prefix24")?,
        },
        "add_edge" => Mutation::AddEdge {
            source: get_str(m, "source")?,
            target: get_str(m, "target")?,
            bytes: get_i64(m, "bytes")?,
            connections: get_i64(m, "connections")?,
            packets: get_i64(m, "packets")?,
        },
        "set_flow" => Mutation::SetFlow {
            source: get_str(m, "source")?,
            target: get_str(m, "target")?,
            bytes: get_i64(m, "bytes")?,
            connections: get_i64(m, "connections")?,
            packets: get_i64(m, "packets")?,
        },
        "set_node_attr" => Mutation::SetNodeAttr {
            id: get_str(m, "id")?,
            key: get_str(m, "key")?,
            value: value_from_json(m.get("value").ok_or_else(|| {
                ServeError::Corrupt("set_node_attr record missing 'value'".to_string())
            })?)?,
        },
        "remove_edge" => Mutation::RemoveEdge {
            source: get_str(m, "source")?,
            target: get_str(m, "target")?,
        },
        other => {
            return Err(ServeError::Corrupt(format!(
                "unknown WAL mutation op {other:?} (a newer writer?)"
            )))
        }
    };
    Ok(mutation)
}

/// Decodes one on-disk payload: the record (local epoch) plus the global
/// epoch it carried.
pub fn decode_shard_record(payload: &[u8]) -> Result<(WalRecord, u64), ServeError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ServeError::Corrupt("WAL record is not UTF-8".to_string()))?;
    let doc = JsonValue::parse(text)
        .map_err(|e| ServeError::Corrupt(format!("WAL record is not JSON: {e}")))?;
    let JsonValue::Object(root) = &doc else {
        return Err(ServeError::Corrupt(
            "WAL record root is not an object".to_string(),
        ));
    };
    let epoch = get_u64(root, "epoch")?;
    let at_ms = get_u64(root, "at_ms")?;
    let global = get_u64(root, "global")?;
    let JsonValue::Object(m) = root
        .get("mutation")
        .ok_or_else(|| ServeError::Corrupt("WAL record missing 'mutation'".to_string()))?
    else {
        return Err(ServeError::Corrupt(
            "WAL record 'mutation' is not an object".to_string(),
        ));
    };
    let mutation = mutation_from_json(m)?;
    Ok((
        WalRecord {
            epoch,
            at_ms,
            mutation,
        },
        global,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(record: WalRecord) {
        let bytes = encode_shard_record(&record, record.epoch + 3);
        let (back, global) = decode_shard_record(&bytes).unwrap();
        assert_eq!(back, record);
        // Re-encoding is byte-stable (canonical object ordering).
        assert_eq!(encode_shard_record(&back, global), bytes);
    }

    #[test]
    fn every_mutation_variant_round_trips() {
        let mutations = vec![
            Mutation::AddNode {
                id: "10.0.0.1".into(),
                prefix16: "10.0".into(),
                prefix24: "10.0.0".into(),
            },
            Mutation::AddEdge {
                source: "10.0.0.1".into(),
                target: "10.0.0.2".into(),
                bytes: 123_456,
                connections: 7,
                packets: 999,
            },
            Mutation::SetFlow {
                source: "10.0.0.1".into(),
                target: "10.0.0.2".into(),
                bytes: 0,
                connections: -1,
                packets: i64::from(u32::MAX),
            },
            Mutation::RemoveEdge {
                source: "10.0.0.1".into(),
                target: "10.0.0.2".into(),
            },
        ];
        for (i, mutation) in mutations.into_iter().enumerate() {
            round_trip(WalRecord {
                epoch: i as u64 + 1,
                at_ms: 17 * i as u64,
                mutation,
            });
        }
    }

    #[test]
    fn attr_values_round_trip_losslessly() {
        let values = vec![
            AttrValue::Null,
            AttrValue::Bool(true),
            AttrValue::Int(5),
            // The case untagged JSON gets wrong: a float with an integral
            // value must come back as a float.
            AttrValue::Float(5.0),
            AttrValue::Float(2.25),
            AttrValue::Str("app:web \"quoted\"\nline".into()),
            AttrValue::List(vec![
                AttrValue::Int(1),
                AttrValue::Str("x".into()),
                AttrValue::List(vec![AttrValue::Null]),
            ]),
        ];
        for value in values {
            let record = WalRecord {
                epoch: 9,
                at_ms: 4,
                mutation: Mutation::SetNodeAttr {
                    id: "10.0.0.1".into(),
                    key: "weight".into(),
                    value: value.clone(),
                },
            };
            let (back, _) = decode_shard_record(&encode_shard_record(&record, 9)).unwrap();
            let Mutation::SetNodeAttr { value: decoded, .. } = back.mutation else {
                panic!("wrong variant");
            };
            // Exact variant match, not just the numeric-loose PartialEq.
            assert_eq!(
                std::mem::discriminant(&decoded),
                std::mem::discriminant(&value)
            );
            assert_eq!(decoded, value);
        }
    }

    #[test]
    fn shard_records_carry_the_global_epoch() {
        let record = WalRecord {
            epoch: 3,
            at_ms: 250,
            mutation: Mutation::RemoveEdge {
                source: "10.0.0.1".into(),
                target: "10.0.0.2".into(),
            },
        };
        let bytes = encode_shard_record(&record, 11);
        let (back, global) = decode_shard_record(&bytes).unwrap();
        assert_eq!(back, record);
        assert_eq!(global, 11);
        assert_eq!(encode_shard_record(&back, global), bytes);
        // The global field is required.
        let without_global = br#"{"at_ms":250,"epoch":3,"mutation":{"op":"remove_edge","source":"10.0.0.1","target":"10.0.0.2"}}"#;
        assert!(matches!(
            decode_shard_record(without_global),
            Err(ServeError::Corrupt(_))
        ));
    }

    #[test]
    fn malformed_payloads_are_corrupt_errors() {
        for bad in [
            b"\xff\xfe".as_slice(),
            b"not json",
            b"{}",
            br#"{"epoch":1,"global":1,"at_ms":0,"mutation":{"op":"warp_core_breach"}}"#,
            br#"{"epoch":1.5,"global":1,"at_ms":0,"mutation":{"op":"remove_edge","source":"a","target":"b"}}"#,
            br#"{"epoch":1,"global":1,"at_ms":0,"mutation":{"op":"add_node","id":"a"}}"#,
        ] {
            assert!(
                matches!(decode_shard_record(bad), Err(ServeError::Corrupt(_))),
                "payload {:?} must be rejected",
                String::from_utf8_lossy(bad)
            );
        }
    }
}
