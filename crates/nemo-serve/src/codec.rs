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
//! the mutation that was logged. Integers are written digit for digit and
//! read back as exact `i64`s over their whole range; an integral float past
//! 2^53 carries a trailing `.0` so it never reads back as an integer. A
//! non-finite float has no JSON spelling, so `Mutation::check` refuses it
//! before it is ever logged.
//!
//! Records are written straight into a `netgraph::json::JsonWriter`, keys
//! in sorted order, with no `JsonValue` tree in between.

use crate::error::ServeError;
use crate::mutation::{Mutation, WalRecord};
use netgraph::json::{JsonValue, JsonWriter};
use netgraph::AttrValue;
use std::collections::BTreeMap;

/// Segment-header magic naming this codec; `nemo-store` writes it into
/// every WAL segment and refuses segments carrying anything else.
pub const SHARD_WAL_MAGIC: &str = "nemo-shard-wal/v1";

/// Writes the type-tagged [`AttrValue`] encoding (lossless, unlike the
/// untagged numbers of the node-link graph encoding, which
/// [`netgraph::json::graph_from_json`] reads back as ints when they are
/// integral): `{"t":<type>,"v":<value>}`, with no `v` for a null.
fn write_value(value: &AttrValue, out: &mut JsonWriter) {
    match value {
        AttrValue::Null => out.text("{\"t\":\"null\""),
        AttrValue::Bool(b) => {
            out.text("{\"t\":\"bool\",\"v\":");
            out.text(if *b { "true" } else { "false" });
        }
        AttrValue::Int(i) => {
            out.text("{\"t\":\"int\",\"v\":");
            out.int(*i);
        }
        AttrValue::Float(f) => {
            out.text("{\"t\":\"float\",\"v\":");
            // A JSON number writes -0.0 as `0`; the tag keeps its sign.
            if *f == 0.0 && f.is_sign_negative() {
                out.text("-0.0");
            } else {
                out.number(*f);
            }
        }
        AttrValue::Str(text) => {
            out.text("{\"t\":\"str\",\"v\":");
            out.string(text);
        }
        AttrValue::List(items) => {
            out.text("{\"t\":\"list\",\"v\":[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.text(",");
                }
                write_value(item, out);
            }
            out.text("]");
        }
    }
    out.text("}");
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
    let value = match (tag.as_str(), v) {
        ("null", _) => Some(AttrValue::Null),
        ("bool", Some(JsonValue::Bool(b))) => Some(AttrValue::Bool(*b)),
        ("int", Some(v)) => integer(v).map(AttrValue::Int),
        ("float", Some(JsonValue::Number(x) | JsonValue::IntegralFloat(x))) => {
            Some(AttrValue::Float(*x))
        }
        // Builds before integral floats beyond 2^53 gained a trailing `.0`
        // logged them as bare digits, which now parse as an exact `Int`;
        // those digits are the float's shortest form, so this is exact.
        ("float", Some(JsonValue::Int(i))) => Some(AttrValue::Float(*i as f64)),
        ("str", Some(JsonValue::String(text))) => Some(AttrValue::Str(text.as_str().into())),
        ("list", Some(JsonValue::Array(items))) => Some(AttrValue::List(
            items
                .iter()
                .map(value_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        )),
        _ => None,
    };
    value.map_or_else(|| bad(&format!("malformed value of type {tag:?}")), Ok)
}

/// Writes one string field, `"key":"text"`.
fn str_field(out: &mut JsonWriter, key: &str, text: &str) {
    out.string(key);
    out.text(":");
    out.string(text);
}

/// Writes the canonical JSON form of one [`Mutation`], the `mutation`
/// field of a WAL record: an object with its keys in sorted order.
fn write_mutation(mutation: &Mutation, out: &mut JsonWriter) {
    match mutation {
        Mutation::AddNode {
            id,
            prefix16,
            prefix24,
        } => {
            out.text("{");
            str_field(out, "id", id);
            out.text(",\"op\":\"add_node\",");
            str_field(out, "prefix16", prefix16);
            out.text(",");
            str_field(out, "prefix24", prefix24);
        }
        Mutation::AddEdge {
            source,
            target,
            bytes,
            connections,
            packets,
        }
        | Mutation::SetFlow {
            source,
            target,
            bytes,
            connections,
            packets,
        } => {
            let op = match mutation {
                Mutation::AddEdge { .. } => "add_edge",
                _ => "set_flow",
            };
            out.text("{\"bytes\":");
            out.int(*bytes);
            out.text(",\"connections\":");
            out.int(*connections);
            out.text(",\"op\":");
            out.string(op);
            out.text(",\"packets\":");
            out.int(*packets);
            out.text(",");
            str_field(out, "source", source);
            out.text(",");
            str_field(out, "target", target);
        }
        Mutation::SetNodeAttr { id, key, value } => {
            out.text("{");
            str_field(out, "id", id);
            out.text(",");
            str_field(out, "key", key);
            out.text(",\"op\":\"set_node_attr\",\"value\":");
            write_value(value, out);
        }
        Mutation::RemoveEdge { source, target } => {
            out.text("{\"op\":\"remove_edge\",");
            str_field(out, "source", source);
            out.text(",");
            str_field(out, "target", target);
        }
    }
    out.text("}");
}

/// Encodes one WAL record: the record's `epoch` field is the
/// shard's local epoch (what the store's positional check verifies), and
/// the global epoch rides along in a `global` root field so recovery can
/// rebuild the cross-shard sequence numbers. The fields are written
/// straight into one buffer, keys in sorted order.
pub fn encode_shard_record(record: &WalRecord, global: u64) -> Vec<u8> {
    // Room for a typical record (about 155 bytes) without regrowing.
    let mut out = JsonWriter::with_capacity(192);
    out.text("{\"at_ms\":");
    out.uint(record.at_ms);
    out.text(",\"epoch\":");
    out.uint(record.epoch);
    out.text(",\"global\":");
    out.uint(global);
    out.text(",\"mutation\":");
    write_mutation(&record.mutation, &mut out);
    out.text("}");
    out.finish().into_bytes()
}

fn get_str(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<String, ServeError> {
    match map.get(key) {
        Some(JsonValue::String(text)) => Ok(text.clone()),
        other => Err(ServeError::Corrupt(format!(
            "WAL record field {key:?} is {other:?}, want a string"
        ))),
    }
}

/// The one reader of a non-negative integer field (epochs, sequence
/// numbers, timestamps): an exact `Int` at or above zero, or an integral
/// `Number` or `IntegralFloat` (`1e3`) up to 2^53. A `Number` beyond that is a literal past `i64`
/// that f64 has rounded, so it is refused rather than read as a neighbour.
pub(crate) fn non_negative(value: &JsonValue) -> Option<u64> {
    match *value {
        JsonValue::Int(i) => u64::try_from(i).ok(),
        JsonValue::Number(x) | JsonValue::IntegralFloat(x)
            if x.fract() == 0.0 && (0.0..=(1u64 << 53) as f64).contains(&x) =>
        {
            Some(x as u64)
        }
        _ => None,
    }
}

/// The one reader of a signed integer field (flow counters, `Int`
/// attribute values): an exact `Int`, or an integral `Number` or
/// `IntegralFloat` within ±2^53. A `Number` beyond that is a literal past `i64`, or one f64 has
/// rounded, so it is refused rather than saturated to `i64::MIN`/`MAX`.
fn integer(value: &JsonValue) -> Option<i64> {
    match *value {
        JsonValue::Int(i) => Some(i),
        JsonValue::Number(x) | JsonValue::IntegralFloat(x)
            if x.fract() == 0.0 && x.abs() <= (1u64 << 53) as f64 =>
        {
            Some(x as i64)
        }
        _ => None,
    }
}

pub(crate) fn get_u64(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<u64, ServeError> {
    let value = map.get(key);
    value.and_then(non_negative).ok_or_else(|| {
        ServeError::Corrupt(format!(
            "WAL record field {key:?} is {value:?}, want a non-negative integer"
        ))
    })
}

fn get_i64(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<i64, ServeError> {
    let value = map.get(key);
    value.and_then(integer).ok_or_else(|| {
        ServeError::Corrupt(format!(
            "WAL record field {key:?} is {value:?}, want an integer"
        ))
    })
}

/// Decodes the canonical JSON form of one [`Mutation`].
fn mutation_from_json(m: &BTreeMap<String, JsonValue>) -> Result<Mutation, ServeError> {
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
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Integers at the edges of their encodings.
    const INTS: [i64; 6] = [0, -1, 7, i64::MIN, i64::MAX, (1 << 53) + 1];

    /// Text built from the pieces every escape path has to get right.
    pub(crate) fn adversarial_string(rng: &mut StdRng) -> String {
        const PIECES: [&str; 16] = [
            "",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{1}",
            "\u{1f}",
            "é€日本",
            "15.76",
            "a,b",
            "\"\"",
            "\\\"",
            "x",
            "{\"k\":1}",
            "null",
        ];
        (0..rng.gen_range(0..4))
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect()
    }

    /// An attribute value of any type, nested up to `depth` lists deep,
    /// with the integers and floats at the edges of their encodings.
    pub(crate) fn adversarial_value(rng: &mut StdRng, depth: u32) -> AttrValue {
        const FLOATS: [f64; 9] = [
            -0.0,
            2.5,
            1e17,
            -1.152921504606847e18,
            1e20,
            0.1,
            5.0,
            2.5e15,
            -3e-9,
        ];
        match rng.gen_range(0..if depth > 0 { 6 } else { 5 }) {
            0 => AttrValue::Null,
            1 => AttrValue::Bool(rng.gen_bool(0.5)),
            2 => AttrValue::Int(INTS[rng.gen_range(0..INTS.len())]),
            3 => AttrValue::Float(FLOATS[rng.gen_range(0..FLOATS.len())]),
            4 => AttrValue::Str(adversarial_string(rng).into()),
            _ => AttrValue::List(
                (0..rng.gen_range(0..4))
                    .map(|_| adversarial_value(rng, depth - 1))
                    .collect(),
            ),
        }
    }

    /// A value in `0..=i64::MAX`, every magnitude equally likely: below and
    /// beyond 2^53, where the parser's integers change variant.
    fn any_u63(rng: &mut StdRng) -> u64 {
        rng.gen_range(0..=i64::MAX as u64) >> rng.gen_range(0..63)
    }

    fn adversarial_mutation(rng: &mut StdRng) -> Mutation {
        let mut int = || INTS[rng.gen_range(0..INTS.len())];
        let (bytes, connections, packets) = (int(), int(), int());
        let source = adversarial_string(rng);
        let target = adversarial_string(rng);
        match rng.gen_range(0..5) {
            0 => Mutation::AddNode {
                id: source,
                prefix16: target,
                prefix24: adversarial_string(rng),
            },
            1 => Mutation::AddEdge {
                source,
                target,
                bytes,
                connections,
                packets,
            },
            2 => Mutation::SetFlow {
                source,
                target,
                bytes,
                connections,
                packets,
            },
            3 => Mutation::SetNodeAttr {
                id: source,
                key: target,
                value: adversarial_value(rng, 3),
            },
            _ => Mutation::RemoveEdge { source, target },
        }
    }

    proptest! {
        /// Every record decodes to exactly the record encoded (variants
        /// and float bits included, which `==` on values does not check),
        /// and encodes again to the same bytes.
        #[test]
        fn random_records_round_trip_exactly(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..16 {
                let record = WalRecord {
                    epoch: any_u63(&mut rng),
                    at_ms: any_u63(&mut rng),
                    mutation: adversarial_mutation(&mut rng),
                };
                let global = any_u63(&mut rng);
                let bytes = encode_shard_record(&record, global);
                let decoded = decode_shard_record(&bytes);
                prop_assert!(decoded.is_ok(), "{:?}", String::from_utf8_lossy(&bytes));
                let (back, back_global) = decoded.unwrap();
                prop_assert_eq!(format!("{back:?}"), format!("{record:?}"));
                prop_assert_eq!(back_global, global);
                prop_assert_eq!(encode_shard_record(&back, back_global), bytes);
            }
        }
    }

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
            // Integral floats beyond 2^53, where bare digits would parse as
            // an exact integer.
            AttrValue::Float(1e17),
            AttrValue::Float(-(2f64.powi(60))),
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
    fn large_integral_floats_logged_as_bare_digits_decode_as_floats() {
        for f in [1e17, -(2f64.powi(60))] {
            let record = WalRecord {
                epoch: 3,
                at_ms: 1,
                mutation: Mutation::SetNodeAttr {
                    id: "10.0.0.1".into(),
                    key: "weight".into(),
                    value: AttrValue::Float(f),
                },
            };
            // The form older builds logged: the float's digits without `.0`.
            let text = String::from_utf8(encode_shard_record(&record, 3)).unwrap();
            let old = text.replace(&format!("{f}.0"), &format!("{f}"));
            assert_ne!(old, text);
            let (back, _) = decode_shard_record(old.as_bytes()).unwrap();
            assert!(
                matches!(back.mutation, Mutation::SetNodeAttr { value: AttrValue::Float(g), .. } if g == f),
                "{old}"
            );
        }
    }

    #[test]
    fn integers_beyond_f64_precision_round_trip_exactly() {
        for big in [(1i64 << 53) + 1, i64::MAX, i64::MIN] {
            let record = WalRecord {
                epoch: 2,
                at_ms: 1,
                mutation: Mutation::SetFlow {
                    source: "10.0.0.1".into(),
                    target: "10.0.0.2".into(),
                    bytes: big,
                    connections: big - big.signum(),
                    packets: 3,
                },
            };
            let (back, _) = decode_shard_record(&encode_shard_record(&record, 2)).unwrap();
            assert_eq!(back, record, "{big}");
            let value = AttrValue::Int(big);
            let mut out = JsonWriter::new();
            write_value(&value, &mut out);
            let tagged = out.finish();
            let parsed = netgraph::json::JsonValue::parse(&tagged).unwrap();
            assert!(
                matches!(value_from_json(&parsed), Ok(AttrValue::Int(i)) if i == big),
                "{big}: {tagged}"
            );
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
            // Below zero, and past i64 where the literal reads back rounded.
            br#"{"epoch":1,"global":1,"at_ms":-1,"mutation":{"op":"remove_edge","source":"a","target":"b"}}"#,
            br#"{"epoch":1,"global":1,"at_ms":9223372036854775809,"mutation":{"op":"remove_edge","source":"a","target":"b"}}"#,
        ] {
            assert!(
                matches!(decode_shard_record(bad), Err(ServeError::Corrupt(_))),
                "payload {:?} must be rejected",
                String::from_utf8_lossy(bad)
            );
        }
    }

    /// A flow counter or an `Int` value whose literal is past the exact
    /// range (beyond `i64`, or a float beyond ±2^53) is refused instead of
    /// saturating to `i64::MIN`/`MAX`; integers in range, exact or
    /// written as integral floats, still decode to themselves.
    #[test]
    fn integers_past_the_exact_range_are_corrupt_not_saturated() {
        let flow = |bytes: &str| {
            format!(
                r#"{{"at_ms":0,"epoch":1,"global":1,"mutation":{{"bytes":{bytes},"connections":1,"op":"set_flow","packets":1,"source":"a","target":"b"}}}}"#
            )
        };
        let attr = |value: &str| {
            format!(
                r#"{{"at_ms":0,"epoch":1,"global":1,"mutation":{{"id":"a","key":"k","op":"set_node_attr","value":{{"t":"int","v":{value}}}}}}}"#
            )
        };
        for literal in ["1e19", "9223372036854775808", "-1e300", "1e16", "-9.1e15"] {
            for payload in [flow(literal), attr(literal)] {
                assert!(
                    matches!(
                        decode_shard_record(payload.as_bytes()),
                        Err(ServeError::Corrupt(_))
                    ),
                    "{payload} must be rejected"
                );
            }
        }
        let exact = [0, -1, 1 << 53, -(1 << 53), i64::MAX, i64::MIN];
        let spelled = [
            ("1e3", 1000),
            ("-4.0e1", -40),
            ("9007199254740992.0", 1 << 53),
        ];
        let cases = exact
            .iter()
            .map(|&i| (i.to_string(), i))
            .chain(spelled.map(|(text, i)| (text.to_string(), i)));
        for (literal, want) in cases {
            let (record, _) = decode_shard_record(flow(&literal).as_bytes()).unwrap();
            assert!(
                matches!(record.mutation, Mutation::SetFlow { bytes, .. } if bytes == want),
                "{literal}"
            );
            let (record, _) = decode_shard_record(attr(&literal).as_bytes()).unwrap();
            assert!(
                matches!(&record.mutation, Mutation::SetNodeAttr { value: AttrValue::Int(i), .. } if *i == want),
                "{literal}"
            );
        }
    }
}
