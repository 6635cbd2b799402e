//! The typed client/server protocol: every unit of serving work is a
//! [`Request`], every outcome a [`Response`].
//!
//! [`Server::handle`](crate::Server::handle) is the single entry point the
//! drivers and transcripts route through; the legacy `(String,
//! Option<Reply>)` shape of [`Server::process`](crate::Server::process) is
//! now a thin rendering of a [`Response`]
//! ([`Response::transcript_line`] reproduces the exact historical line
//! formats byte for byte).
//!
//! Both types serialize to single-line JSON documents with the same
//! hand-rolled canonical encoder the WAL codec uses, and the round trip is
//! **lossless** — every field, including the `f64` latency sample, decodes
//! back to the exact value that was encoded (the property test in this
//! module's tests pins it). That makes the protocol suitable as a wire or
//! replay format, not just an in-process enum.

use crate::cache::{CacheOutcome, CacheStats};
use crate::codec::{self, get_str, get_u64, mutation_from_json, mutation_to_json};
use crate::error::ServeError;
use crate::mutation::{Epoch, Mutation};
use crate::server::{Reply, ServeEvent};
use nemo_core::Backend;
use netgraph::json::JsonValue;
use std::collections::BTreeMap;

/// One unit of serving work, typed.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply one timestamped mutation.
    Mutate {
        /// Stream timestamp in milliseconds.
        at_ms: u64,
        /// The mutation to apply.
        mutation: Mutation,
    },
    /// Answer one natural-language query for one client.
    Query {
        /// The asking client's id.
        client: usize,
        /// The query text.
        query: String,
    },
    /// Fsync all attached persistence (a batch boundary).
    Sync,
    /// Report the server's epoch vector and cache counters.
    Stats,
    /// Dump the newest `last_n` completed traces from the server's
    /// flight recorder (`0` = all retained).
    Trace {
        /// How many of the newest completed traces to return.
        last_n: u64,
    },
}

/// What handling a [`Request`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The mutation applied and was assigned this global epoch.
    Mutated {
        /// The global epoch the mutation consumed.
        epoch: Epoch,
        /// The request's stream timestamp.
        at_ms: u64,
        /// [`Mutation::describe`] of the applied mutation.
        description: String,
    },
    /// The mutation conflicted with the current state; nothing moved and
    /// no epoch was consumed.
    Rejected {
        /// The (unchanged) global epoch.
        epoch: Epoch,
        /// The request's stream timestamp.
        at_ms: u64,
        /// The conflict, rendered (`mutation conflict: ...`).
        reason: String,
    },
    /// The query was answered.
    Answered(Reply),
    /// The mutation was refused because the server is in degraded
    /// read-only mode: a store's write path is poisoned
    /// ([`nemo_store::StoreError::Poisoned`]), so no epoch was consumed
    /// and no further mutations will be accepted, while queries keep
    /// answering from the in-memory state.
    Degraded {
        /// The (unchanged) global epoch.
        epoch: Epoch,
        /// The request's stream timestamp.
        at_ms: u64,
        /// Index of the poisoned shard, once attributed.
        shard: Option<u32>,
        /// Global epoch through which state is known durable.
        last_durable_epoch: u64,
        /// The poisoning cause — the first [`nemo_store::StoreError`] that
        /// poisoned the write path, rendered, so an operator can tell a
        /// failed fsync from ENOSPC. Empty when unrecorded. Deliberately
        /// absent from the transcript line: causes embed filesystem paths,
        /// which would make transcripts machine-dependent.
        cause: String,
    },
    /// Persistence was fsynced.
    Synced,
    /// The server's current statistics.
    Stats(StatsReport),
    /// The flight recorder's contents.
    Trace {
        /// The versioned `nemo-trace/v1` document
        /// ([`nemo_obs::trace::Tracer::to_doc`] parsed back into a
        /// [`JsonValue`]): drop counters, slow-log counters, and the
        /// requested trace trees.
        doc: JsonValue,
    },
}

/// A server's observable counters: the sharding layout, the cross-shard
/// epoch vector, the aggregated cache statistics, and the full
/// `nemo-metrics/v1` document from the server's metrics registry.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Number of shards.
    pub shards: u32,
    /// The global epoch (highest applied anywhere).
    pub global_epoch: Epoch,
    /// Mutations applied per shard since partition time — sums to
    /// `global_epoch - base_epoch` in normal operation.
    pub epochs: Vec<Epoch>,
    /// Cache counters summed over every cache shard.
    pub cache: CacheStats,
    /// The versioned `nemo-metrics/v1` document
    /// ([`nemo_obs::Snapshot::to_json`] parsed back into a [`JsonValue`]):
    /// every registered counter, gauge and histogram with its
    /// logical/physical class. [`JsonValue::Null`] when the server has no
    /// registry attached (or the report predates one).
    pub metrics: JsonValue,
}

impl Request {
    /// The typed form of a legacy [`ServeEvent`].
    pub fn from_event(event: &ServeEvent) -> Request {
        match event {
            ServeEvent::Mutate(timed) => Request::Mutate {
                at_ms: timed.at_ms,
                mutation: Mutation::from_event(&timed.event),
            },
            ServeEvent::Query { client, query } => Request::Query {
                client: *client,
                query: query.clone(),
            },
        }
    }

    /// Serializes the request as a single-line JSON document.
    pub fn to_json(&self) -> String {
        match self {
            Request::Mutate { at_ms, mutation } => codec::obj(vec![
                ("type", codec::s("mutate")),
                ("at_ms", codec::n(*at_ms as i64)),
                ("mutation", mutation_to_json(mutation)),
            ]),
            Request::Query { client, query } => codec::obj(vec![
                ("type", codec::s("query")),
                ("client", codec::n(*client as i64)),
                ("query", codec::s(query)),
            ]),
            Request::Sync => codec::obj(vec![("type", codec::s("sync"))]),
            Request::Stats => codec::obj(vec![("type", codec::s("stats"))]),
            Request::Trace { last_n } => codec::obj(vec![
                ("type", codec::s("trace")),
                ("last_n", codec::n(*last_n as i64)),
            ]),
        }
        .to_json()
    }

    /// Parses a request document; malformed input is a
    /// [`ServeError::Corrupt`].
    pub fn from_json(text: &str) -> Result<Request, ServeError> {
        let root = parse_root(text, "request")?;
        match get_str(&root, "type")?.as_str() {
            "mutate" => Ok(Request::Mutate {
                at_ms: get_u64(&root, "at_ms")?,
                mutation: mutation_from_json(get_obj(&root, "mutation")?)?,
            }),
            "query" => Ok(Request::Query {
                client: get_u64(&root, "client")? as usize,
                query: get_str(&root, "query")?,
            }),
            "sync" => Ok(Request::Sync),
            "stats" => Ok(Request::Stats),
            "trace" => Ok(Request::Trace {
                last_n: get_u64(&root, "last_n")?,
            }),
            other => Err(ServeError::Corrupt(format!(
                "unknown request type {other:?}"
            ))),
        }
    }
}

impl Response {
    /// Serializes the response as a single-line JSON document.
    pub fn to_json(&self) -> String {
        match self {
            Response::Mutated {
                epoch,
                at_ms,
                description,
            } => codec::obj(vec![
                ("type", codec::s("mutated")),
                ("epoch", codec::n(*epoch as i64)),
                ("at_ms", codec::n(*at_ms as i64)),
                ("description", codec::s(description)),
            ]),
            Response::Rejected {
                epoch,
                at_ms,
                reason,
            } => codec::obj(vec![
                ("type", codec::s("rejected")),
                ("epoch", codec::n(*epoch as i64)),
                ("at_ms", codec::n(*at_ms as i64)),
                ("reason", codec::s(reason)),
            ]),
            Response::Answered(reply) => codec::obj(vec![
                ("type", codec::s("answered")),
                (
                    "reply",
                    codec::obj(vec![
                        ("client", codec::n(reply.client as i64)),
                        ("backend", codec::s(reply.backend.name())),
                        ("query", codec::s(&reply.query)),
                        ("epoch", codec::n(reply.epoch as i64)),
                        ("cache", codec::s(reply.cache.tag())),
                        ("answer", codec::s(&reply.answer)),
                        ("latency_ms", JsonValue::Number(reply.latency_ms)),
                    ]),
                ),
            ]),
            Response::Degraded {
                epoch,
                at_ms,
                shard,
                last_durable_epoch,
                cause,
            } => codec::obj(vec![
                ("type", codec::s("degraded")),
                ("epoch", codec::n(*epoch as i64)),
                ("at_ms", codec::n(*at_ms as i64)),
                (
                    "shard",
                    match shard {
                        Some(k) => codec::n(*k as i64),
                        None => JsonValue::Null,
                    },
                ),
                ("last_durable_epoch", codec::n(*last_durable_epoch as i64)),
                ("cause", codec::s(cause)),
            ]),
            Response::Synced => codec::obj(vec![("type", codec::s("synced"))]),
            Response::Stats(stats) => codec::obj(vec![
                ("type", codec::s("stats")),
                ("shards", codec::n(stats.shards as i64)),
                ("global_epoch", codec::n(stats.global_epoch as i64)),
                (
                    "epochs",
                    JsonValue::Array(stats.epochs.iter().map(|&e| codec::n(e as i64)).collect()),
                ),
                (
                    "cache",
                    codec::obj(vec![
                        ("answer_hits", codec::n(stats.cache.answer_hits as i64)),
                        ("program_hits", codec::n(stats.cache.program_hits as i64)),
                        ("misses", codec::n(stats.cache.misses as i64)),
                        ("invalidated", codec::n(stats.cache.invalidated as i64)),
                        ("evictions", codec::n(stats.cache.evictions as i64)),
                    ]),
                ),
                ("metrics", stats.metrics.clone()),
            ]),
            Response::Trace { doc } => {
                codec::obj(vec![("type", codec::s("trace")), ("doc", doc.clone())])
            }
        }
        .to_json()
    }

    /// Parses a response document; malformed input is a
    /// [`ServeError::Corrupt`].
    pub fn from_json(text: &str) -> Result<Response, ServeError> {
        let root = parse_root(text, "response")?;
        match get_str(&root, "type")?.as_str() {
            "mutated" => Ok(Response::Mutated {
                epoch: get_u64(&root, "epoch")?,
                at_ms: get_u64(&root, "at_ms")?,
                description: get_str(&root, "description")?,
            }),
            "rejected" => Ok(Response::Rejected {
                epoch: get_u64(&root, "epoch")?,
                at_ms: get_u64(&root, "at_ms")?,
                reason: get_str(&root, "reason")?,
            }),
            "answered" => {
                let reply = get_obj(&root, "reply")?;
                Ok(Response::Answered(Reply {
                    client: get_u64(reply, "client")? as usize,
                    backend: parse_backend(&get_str(reply, "backend")?)?,
                    query: get_str(reply, "query")?,
                    epoch: get_u64(reply, "epoch")?,
                    cache: parse_cache_tag(&get_str(reply, "cache")?)?,
                    answer: get_str(reply, "answer")?,
                    latency_ms: get_f64(reply, "latency_ms")?,
                }))
            }
            "degraded" => Ok(Response::Degraded {
                epoch: get_u64(&root, "epoch")?,
                at_ms: get_u64(&root, "at_ms")?,
                shard: match root.get("shard") {
                    Some(JsonValue::Null) => None,
                    _ => Some(get_u64(&root, "shard")? as u32),
                },
                last_durable_epoch: get_u64(&root, "last_durable_epoch")?,
                // Absent in pre-cause documents: decode as unrecorded.
                cause: match root.get("cause") {
                    Some(_) => get_str(&root, "cause")?,
                    None => String::new(),
                },
            }),
            "synced" => Ok(Response::Synced),
            "stats" => Ok(Response::Stats(StatsReport {
                shards: get_u64(&root, "shards")? as u32,
                global_epoch: get_u64(&root, "global_epoch")?,
                epochs: get_epochs(&root)?,
                cache: {
                    let cache = get_obj(&root, "cache")?;
                    CacheStats {
                        answer_hits: get_u64(cache, "answer_hits")?,
                        program_hits: get_u64(cache, "program_hits")?,
                        misses: get_u64(cache, "misses")?,
                        invalidated: get_u64(cache, "invalidated")?,
                        // Absent in pre-eviction-counter documents.
                        evictions: match cache.get("evictions") {
                            Some(_) => get_u64(cache, "evictions")?,
                            None => 0,
                        },
                    }
                },
                metrics: root.get("metrics").cloned().unwrap_or(JsonValue::Null),
            })),
            "trace" => Ok(Response::Trace {
                doc: root.get("doc").cloned().unwrap_or(JsonValue::Null),
            }),
            other => Err(ServeError::Corrupt(format!(
                "unknown response type {other:?}"
            ))),
        }
    }

    /// Renders the response's deterministic transcript line — byte for
    /// byte the format [`Server::process`](crate::Server::process) has
    /// always printed. [`Response::Synced`], [`Response::Stats`] and
    /// [`Response::Trace`] have no transcript representation and return
    /// `None`.
    pub fn transcript_line(&self) -> Option<String> {
        match self {
            Response::Mutated {
                epoch,
                at_ms,
                description,
            } => Some(format!("[e{epoch}] t={at_ms}ms mutate {description}")),
            Response::Rejected {
                epoch,
                at_ms,
                reason,
            } => Some(format!("[e{epoch}] t={at_ms}ms mutate rejected: {reason}")),
            Response::Answered(reply) => Some(format!(
                "[e{}] client={} {} {} {:?} => {}",
                reply.epoch,
                reply.client,
                reply.backend,
                reply.cache.tag(),
                reply.query,
                one_line(&reply.answer),
            )),
            Response::Degraded {
                epoch,
                at_ms,
                shard,
                last_durable_epoch,
                // The cause never reaches the transcript: it renders
                // filesystem paths, which differ run to run.
                cause: _,
            } => {
                let at = match shard {
                    Some(k) => format!("shard {k} "),
                    None => String::new(),
                };
                Some(format!(
                    "[e{epoch}] t={at_ms}ms mutate degraded: {at}write path poisoned, \
                     read-only at durable epoch {last_durable_epoch}"
                ))
            }
            Response::Synced | Response::Stats(_) | Response::Trace { .. } => None,
        }
    }
}

/// Collapses an answer to a single whitespace-normalized line.
pub(crate) fn one_line(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn parse_root(text: &str, what: &str) -> Result<BTreeMap<String, JsonValue>, ServeError> {
    let doc = JsonValue::parse(text)
        .map_err(|e| ServeError::Corrupt(format!("{what} is not JSON: {e}")))?;
    match doc {
        JsonValue::Object(map) => Ok(map),
        _ => Err(ServeError::Corrupt(format!("{what} root is not an object"))),
    }
}

fn get_obj<'a>(
    map: &'a BTreeMap<String, JsonValue>,
    key: &str,
) -> Result<&'a BTreeMap<String, JsonValue>, ServeError> {
    match map.get(key) {
        Some(JsonValue::Object(inner)) => Ok(inner),
        other => Err(ServeError::Corrupt(format!(
            "protocol field {key:?} is {other:?}, want an object"
        ))),
    }
}

fn get_f64(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<f64, ServeError> {
    match map.get(key) {
        Some(JsonValue::Number(x)) => Ok(*x),
        other => Err(ServeError::Corrupt(format!(
            "protocol field {key:?} is {other:?}, want a number"
        ))),
    }
}

fn get_epochs(map: &BTreeMap<String, JsonValue>) -> Result<Vec<Epoch>, ServeError> {
    let Some(JsonValue::Array(items)) = map.get("epochs") else {
        return Err(ServeError::Corrupt(
            "protocol field \"epochs\" is missing or not an array".to_string(),
        ));
    };
    items
        .iter()
        .map(|item| match item {
            JsonValue::Number(x) if x.fract() == 0.0 && *x >= 0.0 => Ok(*x as u64),
            other => Err(ServeError::Corrupt(format!(
                "epochs entry is {other:?}, want a non-negative integer"
            ))),
        })
        .collect()
}

fn parse_backend(name: &str) -> Result<Backend, ServeError> {
    Backend::ALL
        .iter()
        .copied()
        .find(|b| b.name() == name)
        .ok_or_else(|| ServeError::Corrupt(format!("unknown backend {name:?}")))
}

fn parse_cache_tag(tag: &str) -> Result<CacheOutcome, ServeError> {
    [
        CacheOutcome::AnswerHit,
        CacheOutcome::ProgramHit,
        CacheOutcome::Miss,
    ]
    .into_iter()
    .find(|outcome| outcome.tag() == tag)
    .ok_or_else(|| ServeError::Corrupt(format!("unknown cache outcome {tag:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::AttrValue;

    fn requests() -> Vec<Request> {
        vec![
            Request::Mutate {
                at_ms: 125,
                mutation: Mutation::AddEdge {
                    source: "10.0.0.1".into(),
                    target: "10.0.0.2".into(),
                    bytes: 4096,
                    connections: 3,
                    packets: 77,
                },
            },
            Request::Mutate {
                at_ms: 0,
                mutation: Mutation::SetNodeAttr {
                    id: "10.0.0.1".into(),
                    key: "weight".into(),
                    // The lossless case untagged JSON gets wrong.
                    value: AttrValue::Float(5.0),
                },
            },
            Request::Query {
                client: 3,
                query: "How many \"edges\" are there?\nreally".into(),
            },
            Request::Sync,
            Request::Stats,
            Request::Trace { last_n: 16 },
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Mutated {
                epoch: 41,
                at_ms: 125,
                description: "add edge 10.0.0.1->10.0.0.2".into(),
            },
            Response::Rejected {
                epoch: 41,
                at_ms: 126,
                reason: "mutation conflict: edge 10.0.0.1->10.0.0.2 already exists".into(),
            },
            Response::Answered(Reply {
                client: 3,
                backend: Backend::NetworkX,
                query: "How many edges are there?".into(),
                epoch: 41,
                cache: CacheOutcome::ProgramHit,
                answer: "14".into(),
                // Deliberately not representable in fewer bits: the round
                // trip must carry the exact f64.
                latency_ms: 0.123456789012345,
            }),
            Response::Degraded {
                epoch: 41,
                at_ms: 127,
                shard: Some(2),
                last_durable_epoch: 39,
                cause: "storage I/O error: fsync wal-0000000000000028.seg: disk gone".into(),
            },
            Response::Degraded {
                epoch: 41,
                at_ms: 128,
                shard: None,
                last_durable_epoch: 41,
                cause: String::new(),
            },
            Response::Synced,
            Response::Stats(StatsReport {
                shards: 4,
                global_epoch: 41,
                epochs: vec![12, 9, 11, 9],
                cache: CacheStats {
                    answer_hits: 5,
                    program_hits: 7,
                    misses: 11,
                    invalidated: 2,
                    evictions: 1,
                },
                metrics: JsonValue::parse(
                    r#"{"metrics":{"serve_queries_answered":{"class":"logical","kind":"counter","value":23}},"schema":"nemo-metrics/v1"}"#,
                )
                .unwrap(),
            }),
            Response::Trace {
                doc: JsonValue::parse(
                    r#"{"dropped":0,"schema":"nemo-trace/v1","slow_dropped":0,"slow_retained":0,"slow_total":0,"traces":[{"base_micros":12,"spans":[{"class":"logical","duration_micros":80,"name":"request.mutate","parent_id":null,"span_id":1,"start_micros":0}],"trace_id":1}]}"#,
                )
                .unwrap(),
            },
        ]
    }

    #[test]
    fn requests_round_trip_losslessly() {
        for request in requests() {
            let encoded = request.to_json();
            let back = Request::from_json(&encoded).unwrap();
            assert_eq!(back, request);
            // Canonical: re-encoding is byte-stable.
            assert_eq!(back.to_json(), encoded);
            assert!(!encoded.contains('\n'), "single-line documents");
        }
    }

    #[test]
    fn responses_round_trip_losslessly() {
        for response in responses() {
            let encoded = response.to_json();
            let back = Response::from_json(&encoded).unwrap();
            assert_eq!(back, response);
            assert_eq!(back.to_json(), encoded);
        }
    }

    #[test]
    fn legacy_documents_without_new_fields_still_decode() {
        // Documents written before `cause`, `evictions` and `metrics`
        // existed must keep decoding (replay logs outlive releases).
        let degraded =
            r#"{"at_ms":127,"epoch":41,"last_durable_epoch":39,"shard":2,"type":"degraded"}"#;
        match Response::from_json(degraded).unwrap() {
            Response::Degraded { cause, .. } => assert_eq!(cause, ""),
            other => panic!("expected degraded, got {other:?}"),
        }
        let stats = r#"{"cache":{"answer_hits":1,"invalidated":0,"misses":2,"program_hits":3},"epochs":[4],"global_epoch":4,"shards":1,"type":"stats"}"#;
        match Response::from_json(stats).unwrap() {
            Response::Stats(report) => {
                assert_eq!(report.cache.evictions, 0);
                assert_eq!(report.metrics, JsonValue::Null);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_corrupt_errors() {
        for bad in [
            "not json",
            "[]",
            r#"{"type":"warp"}"#,
            r#"{"type":"query","client":"three","query":"q"}"#,
            r#"{"type":"mutate","at_ms":1}"#,
        ] {
            assert!(
                matches!(Request::from_json(bad), Err(ServeError::Corrupt(_))),
                "request {bad:?} must be rejected"
            );
            assert!(
                matches!(Response::from_json(bad), Err(ServeError::Corrupt(_))),
                "response {bad:?} must be rejected"
            );
        }
        assert!(matches!(
            Response::from_json(r#"{"type":"answered","reply":{"client":0,"backend":"cobol","query":"q","epoch":1,"cache":"hit","answer":"a","latency_ms":1}}"#),
            Err(ServeError::Corrupt(msg)) if msg.contains("unknown backend")
        ));
    }

    #[test]
    fn transcript_lines_match_the_historical_formats() {
        let lines: Vec<Option<String>> =
            responses().iter().map(Response::transcript_line).collect();
        assert_eq!(
            lines[0].as_deref(),
            Some("[e41] t=125ms mutate add edge 10.0.0.1->10.0.0.2")
        );
        assert_eq!(
            lines[1].as_deref(),
            Some(
                "[e41] t=126ms mutate rejected: mutation conflict: \
                 edge 10.0.0.1->10.0.0.2 already exists"
            )
        );
        assert_eq!(
            lines[2].as_deref(),
            Some("[e41] client=3 networkx code \"How many edges are there?\" => 14")
        );
        assert_eq!(
            lines[3].as_deref(),
            Some(
                "[e41] t=127ms mutate degraded: shard 2 write path poisoned, \
                 read-only at durable epoch 39"
            )
        );
        assert_eq!(
            lines[4].as_deref(),
            Some(
                "[e41] t=128ms mutate degraded: write path poisoned, \
                 read-only at durable epoch 41"
            )
        );
        assert_eq!(lines[5], None);
        assert_eq!(lines[6], None);
        assert_eq!(lines[7], None, "trace responses have no transcript line");
    }
}
