//! A whole-server oracle: seeded request streams sent through
//! [`Server::handle`] at shards {1, 2, 4}, in memory and persisted, checked
//! against an unsharded [`LiveNetwork`] and uncached [`execute_code`].
//!
//! Each stream mixes `evolve` mutations, the seven conflict kinds of the
//! write path, bursts of removals with no read between them (each burst's
//! edges then added back), queries on all three code-generating backends
//! and — when persisted — sync-then-crash-and-recover points. Every
//! mutation must get the reference's epoch or its exact conflict error,
//! every answer must equal the golden program run fresh over the
//! reference, and the served state must be snapshot-byte-equal to the
//! reference at intervals and after each recovery.
//!
//! Each persisted run also meets two scripted store faults
//! (`nemo_store::FaultFs`), each at a seeded operation index: a transient
//! one before the first crash, which the store rolls back and the server
//! retries, so the reference sees nothing of it; and, from the recovery
//! at the last crash on, a failed fsync, which fails the request it lands
//! in loudly. In a record's fsync it poisons the store: the mutation
//! stays out, every later one is answered `Degraded`, and queries keep
//! answering the reference state. In an install's fsync the mutation is
//! already logged and applied, and the store goes on. Every recovery
//! before the last runs on a fault-free filesystem, so each
//! crash-and-recover cycle of the stream is checked in full.

use nemo_core::llm::LlmResponse;
use nemo_core::prompt::QUERY_MARKER;
use nemo_core::sandbox::execute_code;
use nemo_core::{Backend, Llm};
use nemo_serve::snapshot::write_snapshot;
use nemo_serve::{
    CacheOutcome, FsyncPolicy, LiveNetwork, Mutation, PersistOptions, Request, Response,
    ServeError, Server, ServerBuilder, Session,
};
use nemo_store::{FaultFs, FaultKind, RealFs, Vfs};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use trafficgen::{evolve, generate, StreamConfig, TrafficConfig, TrafficWorkload};

fn workload() -> TrafficWorkload {
    generate(&TrafficConfig {
        nodes: 16,
        edges: 22,
        prefixes: 2,
        seed: 5,
    })
}

/// A model that answers every traffic query with its golden program for
/// one backend, so the oracle knows exactly which program produced each
/// answer.
struct GoldenLlm {
    backend: Backend,
    programs: HashMap<String, String>,
}

impl GoldenLlm {
    fn new(backend: Backend) -> Self {
        GoldenLlm {
            backend,
            programs: golden_programs(backend),
        }
    }
}

/// Every traffic query's golden program for `backend`.
fn golden_programs(backend: Backend) -> HashMap<String, String> {
    nemo_bench::traffic_queries()
        .into_iter()
        .map(|spec| (spec.text.to_string(), spec.programs()[&backend].clone()))
        .collect()
}

impl Llm for GoldenLlm {
    fn name(&self) -> &str {
        "golden"
    }

    fn complete(&mut self, prompt: &str) -> LlmResponse {
        let start = prompt
            .find(QUERY_MARKER)
            .expect("codegen prompts name the query")
            + QUERY_MARKER.len();
        let query = prompt[start..].trim_start().lines().next().unwrap_or("");
        let program = &self.programs[query];
        let fence = match self.backend {
            Backend::Sql => "sql",
            _ => "graphscript",
        };
        LlmResponse {
            text: format!("```{fence}\n{program}\n```"),
        }
    }
}

const CLIENTS: [(usize, Backend); 3] = [
    (0, Backend::NetworkX),
    (1, Backend::Pandas),
    (2, Backend::Sql),
];

fn sessions() -> Vec<Session<GoldenLlm>> {
    CLIENTS
        .iter()
        .map(|&(client, backend)| Session {
            client,
            backend,
            llm: GoldenLlm::new(backend),
        })
        .collect()
}

/// One step of a request stream.
#[derive(Debug, Clone)]
enum Step {
    /// A mutation from the `evolve` stream: applies.
    Mutate(Mutation),
    /// One of the seven conflict kinds, built against the state it meets.
    Conflict(usize),
    /// Removes this many edges of the state it meets, then adds them back
    /// with their flows: the removals share one compaction on the server,
    /// and the re-added rows are appended after the dead ones.
    Churn(usize),
    /// A traffic query from one client.
    Query(usize, usize),
    /// Sync, crash (drop the server) and recover; in memory, a no-op.
    Crash,
}

/// A small deterministic generator (xorshift64).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// The seeded request stream: every `evolve` mutation in order, with
/// conflicts, queries and crash points interleaved.
fn steps(w: &TrafficWorkload, seed: u64, queries: usize) -> Vec<Step> {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut out = Vec::new();
    let mut kinds = (0..7).cycle();
    for event in evolve(w, &StreamConfig { events: 90, seed }) {
        out.push(Step::Mutate(Mutation::from_event(&event.event)));
        match rng.below(10) {
            0 | 1 => out.push(Step::Conflict(kinds.next().expect("cycles"))),
            2..=4 => {
                // Asked twice at one epoch now and then: an answer hit.
                let query = Step::Query(rng.below(CLIENTS.len()), rng.below(queries));
                if rng.below(2) == 0 {
                    out.push(query.clone());
                }
                out.push(query);
            }
            5 if rng.below(3) == 0 => out.push(Step::Crash),
            6 => out.push(Step::Churn(2 + out.len() % 3)),
            _ => {}
        }
    }
    out
}

/// Conflict kind `kind` against `state`: the seven rules of the write
/// path, each naming what `state` holds or lacks.
fn conflict(state: &LiveNetwork, kind: usize, pick: usize) -> Mutation {
    let node = |row: usize| {
        let rows = state.nodes().n_rows();
        state.nodes().value(row % rows, "id").unwrap().to_string()
    };
    let edges = state.edges().n_rows();
    let at = |column| {
        state
            .edges()
            .value(pick % edges, column)
            .unwrap()
            .to_string()
    };
    let (source, target) = (at("source"), at("target"));
    let unknown = "250.250.250.250".to_string();
    match kind {
        0 => Mutation::AddNode {
            id: node(pick),
            prefix16: "0.0".into(),
            prefix24: "0.0.0".into(),
        },
        1 => Mutation::AddEdge {
            source: node(pick),
            target: unknown,
            bytes: 1,
            connections: 1,
            packets: 1,
        },
        2 => Mutation::AddEdge {
            source,
            target,
            bytes: 1,
            connections: 1,
            packets: 1,
        },
        3 => Mutation::RemoveEdge {
            source: unknown,
            target: node(pick),
        },
        4 => Mutation::SetFlow {
            source: node(pick),
            target: unknown,
            bytes: 1,
            connections: 1,
            packets: 1,
        },
        5 => Mutation::SetNodeAttr {
            id: unknown,
            key: "label".into(),
            value: "x".into(),
        },
        _ => Mutation::SetNodeAttr {
            id: node(pick),
            key: "id".into(),
            value: "x".into(),
        },
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nemo-oracle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A server of `shards` shards, persisted under `root` on `vfs`, or in
/// memory. Every record is fsynced, so a failed fsync lands in the
/// mutation whose record it was to make durable.
fn builder(shards: u32, root: Option<&PathBuf>, vfs: Arc<dyn Vfs>) -> ServerBuilder {
    let builder = ServerBuilder::new().shards(shards);
    match root {
        Some(root) => builder
            .options(PersistOptions {
                fsync: FsyncPolicy::EveryRecord,
                segment_max_bytes: 2048,
                snapshot_every_epochs: 13,
                vfs,
                ..PersistOptions::default()
            })
            .persist_at(root),
        None => builder,
    }
}

/// The faults a persisted run meets (see the module docs).
struct Faults {
    /// Rolled back and retried; armed from the build to the first crash.
    transient: Arc<FaultFs>,
    /// A failed fsync; armed from the recovery at the last crash on.
    poisoning: Arc<FaultFs>,
    /// Whether the failed fsync has failed a request.
    failed: bool,
    /// Whether it poisoned a store, degrading the server.
    degraded: bool,
}

impl Faults {
    fn seeded(seed: u64) -> Faults {
        let mut rng = Rng(seed.wrapping_mul(0xd1b5_4a32_d192_ed03) | 1);
        let transient = [
            FaultKind::Enospc,
            FaultKind::Eio,
            FaultKind::ShortWrite,
            FaultKind::FailedRename,
            FaultKind::TornRename,
        ][rng.below(5)];
        Faults {
            transient: Arc::new(FaultFs::new(transient, rng.below(40) as u64)),
            poisoning: Arc::new(FaultFs::new(FaultKind::FailedFsync, rng.below(40) as u64)),
            failed: false,
            degraded: false,
        }
    }
}

fn assert_served_state(server: &mut Server<GoldenLlm>, reference: &LiveNetwork, context: &str) {
    assert_eq!(
        server.network().global_epoch(),
        reference.epoch(),
        "{context}"
    );
    assert!(
        write_snapshot(server.merged_view()) == write_snapshot(reference),
        "{context}: the served state diverged from the unsharded reference"
    );
}

/// Checks a failed mutation request: only the failed fsync may fail one,
/// and only once. Its mutation is in doubt, and where the fault landed
/// decides it: in the record's fsync, the mutation stays out and the
/// store is poisoned, so the server degrades; in the fsync of the install
/// after it, the mutation is logged and applied, and the store rolls the
/// install back unpoisoned.
fn failed(
    server: &mut Server<GoldenLlm>,
    reference: &mut LiveNetwork,
    faults: &mut Faults,
    (mutation, conflicts): (&Mutation, bool),
    error: ServeError,
    context: &str,
) {
    assert!(!faults.failed, "{context}: a second failure: {error}");
    assert!(
        faults.poisoning.injection().is_some(),
        "{context}: a failure without the failed fsync: {error}"
    );
    assert!(
        matches!(error, ServeError::Store { .. }),
        "{context}: {error:?}"
    );
    faults.failed = true;
    faults.degraded = server
        .shard_persistence()
        .iter()
        .any(|store| store.store().poisoned().is_some());
    if faults.degraded {
        assert_eq!(
            server.network().global_epoch(),
            reference.epoch(),
            "{context}: a mutation whose record failed moved the epoch"
        );
    } else {
        assert!(!conflicts, "{context}: a conflict reached the store");
        let want = reference.apply(mutation).expect("the mutation applies");
        assert_eq!(server.network().global_epoch(), want, "{context}");
    }
}

/// Sends one mutation and checks the response against the reference:
/// the same epoch, or the same conflict error with the epoch unchanged.
/// Once a store is poisoned, every mutation is `Degraded` and leaves the
/// reference alone.
fn mutate(
    server: &mut Server<GoldenLlm>,
    reference: &mut LiveNetwork,
    faults: &mut Faults,
    mutation: Mutation,
    conflicts: bool,
    context: &str,
) {
    let request = Request::Mutate {
        at_ms: 0,
        mutation: mutation.clone(),
    };
    let response = match server.handle(&request) {
        Ok(Response::Degraded { .. }) => {
            assert!(
                faults.degraded,
                "{context}: degraded with no poisoned store"
            );
            return;
        }
        Ok(response) => response,
        Err(error) => {
            let request = (&mutation, conflicts);
            return failed(server, reference, faults, request, error, context);
        }
    };
    assert!(!faults.degraded, "{context}: {response:?} while degraded");
    let expected = reference.apply(&mutation);
    assert_eq!(expected.is_err(), conflicts, "{context}: {expected:?}");
    match (response, expected) {
        (Response::Mutated { epoch, .. }, Ok(want)) => assert_eq!(epoch, want, "{context}"),
        (Response::Rejected { epoch, reason, .. }, Err(want)) => {
            assert_eq!(epoch, reference.epoch(), "{context}");
            assert_eq!(reason, want.to_string(), "{context}");
        }
        (got, want) => panic!("{context}: got {got:?}, want {want:?}"),
    }
}

/// Runs one seeded stream at `shards`, persisted under `root` or in
/// memory, checking every response against the unsharded oracle.
/// Returns each `(client, cache outcome)` pair its queries reached, and
/// whether the failed fsync degraded the server.
fn run(seed: u64, shards: u32, root: Option<PathBuf>) -> (Vec<(usize, CacheOutcome)>, bool) {
    let w = workload();
    // Every sixth query, so the stream repeats them: program hits.
    let queries: Vec<String> = nemo_bench::traffic_queries()
        .iter()
        .step_by(6)
        .map(|spec| spec.text.to_string())
        .collect();
    let golden: Vec<HashMap<String, String>> = CLIENTS
        .iter()
        .map(|&(_, backend)| golden_programs(backend))
        .collect();
    let mut reference = LiveNetwork::from_workload(&w);
    let mut faults = Faults::seeded(seed ^ u64::from(shards));
    let steps = steps(&w, seed, queries.len());
    // Every crash point recovers; the last one arms the failed fsync,
    // which needs a mutation after it to fail.
    let crash_points: Vec<usize> = (0..steps.len())
        .filter(|&i| matches!(steps[i], Step::Crash))
        .collect();
    assert!(
        !matches!(steps.last(), Some(Step::Crash)),
        "seed {seed}: the stream ends in a crash"
    );
    let mut server = builder(shards, root.as_ref(), faults.transient.clone())
        .build(reference.clone(), sessions())
        .expect("fresh build");
    let mut conflicts = [0usize; 7];
    let mut outcomes = Vec::new();
    let mut recoveries = 0;
    let mut churns = 0;
    for (i, step) in steps.into_iter().enumerate() {
        let context = format!(
            "seed {seed}, shards {shards}, persisted {}, step {i} {step:?}",
            root.is_some()
        );
        match step {
            Step::Mutate(mutation) => mutate(
                &mut server,
                &mut reference,
                &mut faults,
                mutation,
                false,
                &context,
            ),
            Step::Conflict(kind) => {
                conflicts[kind] += 1;
                let mutation = conflict(&reference, kind, i);
                mutate(
                    &mut server,
                    &mut reference,
                    &mut faults,
                    mutation,
                    true,
                    &context,
                );
            }
            Step::Churn(k) => {
                let rows = reference.edges().n_rows();
                let (removals, additions): (Vec<Mutation>, Vec<Mutation>) = (0..k.min(rows))
                    .map(|j| {
                        let row = (i * 7919 + j) % rows;
                        let at = |column| reference.edges().value(row, column).unwrap();
                        let int = |column| at(column).as_i64().unwrap();
                        let (source, target) = (at("source").to_string(), at("target").to_string());
                        let removal = Mutation::RemoveEdge {
                            source: source.clone(),
                            target: target.clone(),
                        };
                        let addition = Mutation::AddEdge {
                            source,
                            target,
                            bytes: int("bytes"),
                            connections: int("connections"),
                            packets: int("packets"),
                        };
                        (removal, addition)
                    })
                    .unzip();
                churns += 1;
                for mutation in removals.into_iter().chain(additions) {
                    mutate(
                        &mut server,
                        &mut reference,
                        &mut faults,
                        mutation,
                        false,
                        &context,
                    );
                }
            }
            Step::Query(c, q) => {
                let (client, backend) = CLIENTS[c];
                let query = &queries[q];
                let request = Request::Query {
                    client,
                    query: query.clone(),
                };
                let Response::Answered(reply) = server.handle(&request).expect("queries answer")
                else {
                    panic!("{context}: a query got a non-answer");
                };
                let want = match execute_code(backend, &golden[c][query], &reference.state(backend))
                {
                    Ok(outcome) => outcome.value.render(),
                    Err(e) => format!("error: {e}"),
                };
                assert_eq!(reply.epoch, reference.epoch(), "{context}");
                assert_eq!(reply.answer, want, "{context}");
                if !outcomes.contains(&(c, reply.cache)) {
                    outcomes.push((c, reply.cache));
                }
            }
            Step::Crash => {
                if let Some(root) = &root {
                    server.handle(&Request::Sync).expect("sync");
                    drop(server);
                    if recoveries == 0 {
                        assert!(
                            faults.transient.injection().is_some(),
                            "{context}: the transient fault never fired"
                        );
                    }
                    let vfs: Arc<dyn Vfs> = if crash_points.last() == Some(&i) {
                        faults.poisoning.clone()
                    } else {
                        Arc::new(RealFs)
                    };
                    server = builder(shards, Some(root), vfs)
                        .recover_or_create(sessions(), || unreachable!("the stores exist"))
                        .expect("recovery")
                        .0;
                    assert_served_state(&mut server, &reference, &format!("{context}: recovered"));
                    recoveries += 1;
                }
            }
        }
        if i % 16 == 0 {
            assert_served_state(&mut server, &reference, &context);
        }
    }
    assert_served_state(&mut server, &reference, "end of stream");
    assert!(
        conflicts.iter().all(|&n| n > 0),
        "seed {seed} must exercise every conflict kind: {conflicts:?}"
    );
    if root.is_some() {
        assert!(!crash_points.is_empty(), "seed {seed} never crashed");
        assert_eq!(
            recoveries,
            crash_points.len(),
            "seed {seed}, shards {shards}: every crash point must recover"
        );
    }
    assert!(churns > 0, "seed {seed} never removed edges in a burst");
    assert!(
        root.is_none() || faults.failed,
        "seed {seed}, shards {shards}: the failed fsync never failed a request"
    );
    drop(server);
    if let Some(root) = root {
        std::fs::remove_dir_all(root).unwrap();
    }
    (outcomes, faults.degraded)
}

#[test]
fn sharded_servers_answer_like_an_unsharded_network() {
    let mut outcomes = Vec::new();
    for shards in [1u32, 2, 4] {
        let mut degraded = false;
        for seed in [1u64, 2] {
            outcomes.extend(run(seed, shards, None).0);
            let root = temp_root(&format!("{seed}-{shards}"));
            let (reached, degrades) = run(seed, shards, Some(root));
            outcomes.extend(reached);
            degraded |= degrades;
        }
        // The degraded-mode checks run at every shard count.
        assert!(degraded, "shards {shards}: no persisted run degraded");
    }
    for (client, _) in CLIENTS {
        for cache in [
            CacheOutcome::Miss,
            CacheOutcome::ProgramHit,
            CacheOutcome::AnswerHit,
        ] {
            assert!(
                outcomes.contains(&(client, cache)),
                "no {cache:?} for client {client}"
            );
        }
    }
}
