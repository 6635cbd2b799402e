//! The typed client/server protocol: every unit of serving work is a
//! [`Request`], every outcome a [`Response`].
//!
//! [`Server::handle`](crate::Server::handle) is the single entry point
//! every driver, test and benchmark routes through. A stream event becomes
//! a request with `Request::from(&timed_event)`, and
//! [`Response::transcript_line`] renders the deterministic transcript line
//! (the exact historical line formats, byte for byte).

use crate::cache::CacheStats;
use crate::mutation::{Epoch, Mutation};
use crate::server::Reply;
use netgraph::json::JsonValue;
use trafficgen::stream::TimedEvent;

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

impl From<&TimedEvent> for Request {
    /// The mutation request for one timestamped stream event.
    fn from(timed: &TimedEvent) -> Request {
        Request::Mutate {
            at_ms: timed.at_ms,
            mutation: Mutation::from_event(&timed.event),
        }
    }
}

impl Response {
    /// Renders the response's deterministic transcript line — byte for
    /// byte the historical line formats. [`Response::Synced`], [`Response::Stats`] and
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheOutcome;
    use nemo_core::Backend;

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
