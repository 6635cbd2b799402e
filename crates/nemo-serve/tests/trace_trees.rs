//! Request-scoped trace trees, end to end.
//!
//! Three properties the flight recorder must hold under real serving
//! traffic, not just unit fixtures:
//!
//! * **Well-formedness** — every captured trace is a tree: exactly one
//!   root span, every `parent_id` resolves within the same trace, and a
//!   child's `[start, start+duration]` window nests inside its parent's
//!   (the tracer measures both ends on one trace-relative clock, so this
//!   is exact, not approximate). Checked by proptest over random
//!   workloads and shard counts, plus the `nemo-trace/v1` and Chrome
//!   `traceEvents` document validators.
//! * **Determinism** — the *logical skeleton* (span names, parent/child
//!   structure, per-request span counts, causal order; no ids, no
//!   timing) is a pure function of the request stream: byte-identical
//!   across shard counts, and multiset-identical across worker-pool
//!   thread counts when concurrent clients share one recorder.
//! * **Fault attribution** — a surfaced `FailedFsync` fault appears
//!   *inside* the owning request's trace as an error-tagged `store.fsync`
//!   span carrying the poison cause.

use nemo_bench::pool;
use nemo_core::{Backend, ScriptedLlm};
use nemo_obs::trace::Tracer;
use nemo_serve::{
    validate_chrome_doc, validate_trace_doc, FsyncPolicy, LiveNetwork, PersistOptions, Request,
    Response, ServerBuilder, Session,
};
use nemo_store::{FaultFs, FaultKind, Vfs};
use netgraph::json::JsonValue;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use trafficgen::{evolve, generate, NetEvent, StreamConfig, TimedEvent, TrafficConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nemo-trace-trees-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scripted_session() -> Session<ScriptedLlm> {
    Session {
        client: 0,
        backend: Backend::NetworkX,
        llm: ScriptedLlm::new(
            "scripted",
            vec!["```graphscript\nresult = G.number_of_edges()\n```".to_string(); 8],
        ),
    }
}

/// Drives a fixed typed request mix — a mutation stream, a deliberate
/// conflict, repeated queries (miss, then hits), a sync, a stats and a
/// trace request — through a persisted `shards`-way server recording into
/// `tracer`. Returns the `Request::Trace` response document.
fn drive(shards: u32, tracer: &Tracer, tag: &str, seed: u64, events: usize) -> JsonValue {
    let dir = temp_dir(tag);
    let options = PersistOptions {
        fsync: FsyncPolicy::Never,
        tracer: tracer.clone(),
        ..PersistOptions::default()
    };
    let traffic = TrafficConfig {
        nodes: 12,
        edges: 16,
        prefixes: 2,
        seed,
    };
    let workload = generate(&traffic);
    let mut server = ServerBuilder::new()
        .shards(shards)
        .options(options)
        .persist_at(&dir)
        .build(
            LiveNetwork::from_workload(&workload),
            vec![scripted_session()],
        )
        .expect("persisted build");
    for timed in evolve(
        &workload,
        &StreamConfig {
            events,
            seed: seed + 1,
        },
    ) {
        server
            .handle(&Request::from(&timed))
            .expect("conflict-free stream applies");
    }
    // A duplicate endpoint conflicts at every shard count: the rejected
    // request must still produce a complete (shard-invariant) trace.
    let dup = TimedEvent {
        at_ms: 99,
        event: NetEvent::NewEndpoint {
            endpoint: trafficgen::Ipv4::new(203, 0, 0, 200),
        },
    };
    for _ in 0..2 {
        server
            .handle(&Request::from(&dup))
            .expect("a conflict renders as a rejected response, not an error");
    }
    for _ in 0..2 {
        server
            .handle(&Request::Query {
                client: 0,
                query: "How many edges are there?".to_string(),
            })
            .expect("query");
    }
    server.handle(&Request::Sync).expect("sync");
    server.handle(&Request::Stats).expect("stats");
    let response = server
        .handle(&Request::Trace { last_n: 0 })
        .expect("trace request");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    match response {
        Response::Trace { doc } => doc,
        other => panic!("trace request answered with {other:?}"),
    }
}

/// Every captured trace is a well-formed tree with exact interval
/// nesting.
fn assert_well_formed(tracer: &Tracer) {
    let traces = tracer.traces(0);
    assert!(!traces.is_empty(), "the drive captured traces");
    for trace in &traces {
        let roots = trace.spans.iter().filter(|s| s.parent_id.is_none()).count();
        assert_eq!(roots, 1, "trace {} has one root", trace.trace_id);
        for span in &trace.spans {
            let Some(parent_id) = span.parent_id else {
                continue;
            };
            let parent = trace
                .spans
                .iter()
                .find(|s| s.span_id == parent_id)
                .unwrap_or_else(|| {
                    panic!(
                        "trace {}: span {} parents missing span {parent_id}",
                        trace.trace_id, span.span_id
                    )
                });
            assert!(
                parent.start_micros <= span.start_micros,
                "child starts within its parent"
            );
            assert!(
                span.start_micros + span.duration_micros
                    <= parent.start_micros + parent.duration_micros,
                "child ends within its parent"
            );
        }
    }
}

proptest! {
    /// Random workloads at random shard counts: every trace the recorder
    /// captures is a well-formed tree, and both export documents
    /// validate.
    #[test]
    fn captured_traces_are_well_formed_trees(
        seed in 0u64..1000,
        events in 1usize..10,
        shard_pick in 0usize..3,
    ) {
        let shards = [1u32, 2, 4][shard_pick];
        let tracer = Tracer::new();
        tracer.enable(1024);
        let doc = drive(
            shards,
            &tracer,
            &format!("prop-{seed}-{events}-{shards}"),
            seed,
            events,
        );
        assert_well_formed(&tracer);
        validate_trace_doc(&doc).expect("served trace document validates");
        let full = JsonValue::parse(&tracer.to_doc(0)).expect("trace doc parses");
        validate_trace_doc(&full).expect("recorder document validates");
        let chrome = JsonValue::parse(&tracer.to_chrome(0)).expect("chrome doc parses");
        validate_chrome_doc(&chrome).expect("chrome export validates");
    }
}

#[test]
fn logical_skeletons_are_shard_invariant() {
    let skeletons_at = |shards: u32| {
        let tracer = Tracer::new();
        tracer.enable(1024);
        drive(shards, &tracer, &format!("shard{shards}"), 9, 10);
        assert_eq!(tracer.dropped(), 0, "the ring held the whole drive");
        tracer.logical_skeletons(0)
    };
    let baseline = skeletons_at(1);
    assert!(baseline.contains("request.mutate"));
    assert!(baseline.contains("mutate.route"));
    assert!(baseline.contains("wal.log"), "persisted writes log spans");
    assert!(baseline.contains("query.cache"));
    assert!(baseline.contains("request.sync"));
    assert!(baseline.contains("request.trace"));
    assert!(
        !baseline.contains("store.fsync"),
        "physical spans stay out of the skeleton"
    );
    for shards in [2u32, 4] {
        assert_eq!(
            skeletons_at(shards),
            baseline,
            "logical skeletons diverged at {shards} shards"
        );
    }
}

#[test]
fn logical_skeletons_are_thread_invariant() {
    // Three concurrent in-memory clients share one recorder, fanned out
    // over the deterministic worker pool. The *order* traces retire in is
    // scheduling-dependent, but the multiset of per-request skeletons is
    // not.
    let skeleton_multiset = |threads: usize| {
        let tracer = Tracer::new();
        tracer.enable(4096);
        let shared = tracer.clone();
        pool::run_indexed(3, threads, move |client| {
            let options = PersistOptions {
                tracer: shared.clone(),
                ..PersistOptions::default()
            };
            let traffic = TrafficConfig {
                nodes: 12,
                edges: 16,
                prefixes: 2,
                seed: 20 + client as u64,
            };
            let workload = generate(&traffic);
            let mut server = ServerBuilder::new()
                .options(options)
                .build(
                    LiveNetwork::from_workload(&workload),
                    vec![scripted_session()],
                )
                .expect("in-memory build");
            for timed in evolve(
                &workload,
                &StreamConfig {
                    events: 8,
                    seed: 30 + client as u64,
                },
            ) {
                server
                    .handle(&Request::from(&timed))
                    .expect("stream applies");
            }
            server
                .handle(&Request::Query {
                    client: 0,
                    query: "How many edges are there?".to_string(),
                })
                .expect("query");
        });
        assert_eq!(tracer.dropped(), 0, "the ring held every client");
        let mut skeletons: Vec<String> = tracer
            .traces(0)
            .iter()
            .map(|t| t.logical_skeleton())
            .collect();
        skeletons.sort();
        skeletons
    };
    let single = skeleton_multiset(1);
    assert!(!single.is_empty());
    assert_eq!(
        skeleton_multiset(4),
        single,
        "skeleton multiset diverged across thread counts"
    );
}

#[test]
fn a_failed_fsync_is_error_tagged_inside_the_owning_request_trace() {
    let traffic = TrafficConfig {
        nodes: 10,
        edges: 12,
        prefixes: 2,
        seed: 8,
    };
    let stream = |workload| {
        evolve(
            &workload,
            &StreamConfig {
                events: 12,
                seed: 11,
            },
        )
    };
    // Calibration run: count the workload's total vfs operations so the
    // fault can be scripted mid-stream, past store creation.
    let calibrate = Arc::new(FaultFs::new(FaultKind::FailedFsync, u64::MAX));
    {
        let workload = generate(&traffic);
        let dir = temp_dir("fault-calibrate");
        let mut server = ServerBuilder::new()
            .options(PersistOptions {
                fsync: FsyncPolicy::EveryRecord,
                snapshot_every_bytes: 0,
                snapshot_every_epochs: 0,
                vfs: calibrate.clone() as Arc<dyn Vfs>,
                ..PersistOptions::default()
            })
            .persist_at(&dir)
            .build::<ScriptedLlm>(LiveNetwork::from_workload(&workload), Vec::new())
            .expect("persisted build");
        for timed in stream(workload) {
            server
                .handle(&Request::from(&timed))
                .expect("fault-free stream applies");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    // Faulted run: with EveryRecord commits, the first fsync past the
    // midpoint sits under some mutation's append — fsyncgate poisons the
    // store and the failure must land inside that request's trace.
    let tracer = Tracer::new();
    tracer.enable(256);
    let workload = generate(&traffic);
    let dir = temp_dir("fault-trace");
    let mut server = ServerBuilder::new()
        .options(PersistOptions {
            fsync: FsyncPolicy::EveryRecord,
            snapshot_every_bytes: 0,
            snapshot_every_epochs: 0,
            vfs: Arc::new(FaultFs::new(FaultKind::FailedFsync, calibrate.ops() / 2)),
            tracer: tracer.clone(),
            ..PersistOptions::default()
        })
        .persist_at(&dir)
        .build::<ScriptedLlm>(LiveNetwork::from_workload(&workload), Vec::new())
        .expect("persisted build");
    let mut surfaced = false;
    for timed in stream(workload) {
        if server.handle(&Request::from(&timed)).is_err() {
            surfaced = true;
            break;
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert!(surfaced, "the scripted fsync fault surfaces as an error");
    let traces = tracer.traces(0);
    let tagged: Vec<_> = traces
        .iter()
        .flat_map(|t| t.spans.iter().map(move |s| (t, s)))
        .filter(|(_, s)| s.error.is_some())
        .collect();
    assert!(
        !tagged.is_empty(),
        "the poison cause was tagged onto a span"
    );
    // The store tags the failing fsync span itself; the serving layer
    // additionally tags the request's innermost still-open span when it
    // flips to degraded. The precise attribution is the fsync one.
    let (trace, span) = *tagged
        .iter()
        .find(|(_, s)| s.name == "store.fsync")
        .expect("the tag lands on the failing fsync span itself");
    assert!(
        span.error.as_deref().unwrap_or_default().contains("fsync"),
        "the tag carries the poison cause: {:?}",
        span.error
    );
    assert_eq!(
        trace.spans[0].name, "request.mutate",
        "the error-tagged span sits inside the owning request's trace"
    );
    assert!(
        span.parent_id.is_some(),
        "the fsync span is a descendant, not the root"
    );
}
