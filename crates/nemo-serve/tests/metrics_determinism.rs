//! Logical metrics are pure functions of the request stream: the
//! `nemo-metrics/v1` logical subset must be byte-identical across shard
//! counts, which is what licenses asserting on it while physical metrics
//! (timings, cache layout, fsyncs) float freely. The worker-count half of
//! the invariant runs the multi-client drivers, so it lives with them in
//! the `bench` crate.

use nemo_core::{Backend, ScriptedLlm};
use nemo_obs::Registry;
use nemo_serve::{LiveNetwork, PersistOptions, Request, ServerBuilder, Session};
use trafficgen::{evolve, generate, NetEvent, StreamConfig, TimedEvent, TrafficConfig};

/// Drives one fixed request stream — mutations, a deliberate conflict,
/// queries, a stats request — through a `shards`-way server recording
/// into a fresh registry, and returns the logical subset of the final
/// metrics document.
fn logical_doc_at(shards: u32) -> String {
    let registry = Registry::new();
    let options = PersistOptions {
        registry: registry.clone(),
        ..PersistOptions::default()
    };
    let traffic = TrafficConfig {
        nodes: 12,
        edges: 16,
        prefixes: 2,
        seed: 9,
    };
    let workload = generate(&traffic);
    let mut server = ServerBuilder::new()
        .shards(shards)
        .options(options)
        .build(
            LiveNetwork::from_workload(&workload),
            vec![Session {
                client: 0,
                backend: Backend::NetworkX,
                llm: ScriptedLlm::new(
                    "scripted",
                    vec!["```graphscript\nresult = G.number_of_edges()\n```".to_string(); 4],
                ),
            }],
        )
        .expect("in-memory build");
    for timed in evolve(
        &workload,
        &StreamConfig {
            events: 10,
            seed: 5,
        },
    ) {
        server
            .handle(&Request::from(&timed))
            .expect("conflict-free stream applies");
    }
    // A duplicate endpoint is a conflict at every shard count: it lands in
    // serve_mutations_rejected without consuming an epoch.
    let dup = TimedEvent {
        at_ms: 99,
        event: NetEvent::NewEndpoint {
            endpoint: trafficgen::Ipv4::new(203, 0, 0, 200),
        },
    };
    server
        .handle(&Request::from(&dup))
        .expect("first apply succeeds");
    server
        .handle(&Request::from(&dup))
        .expect("a conflict renders as a rejected response, not an error");
    for _ in 0..2 {
        server
            .handle(&Request::Query {
                client: 0,
                query: "How many edges are there?".to_string(),
            })
            .expect("query");
    }
    // Stats samples the gauges (global epoch is logical) and embeds the
    // full document; we return only the logical subset.
    server.handle(&Request::Stats).expect("stats");
    registry.snapshot().logical_only().to_json()
}

#[test]
fn logical_metrics_are_shard_invariant() {
    let baseline = logical_doc_at(1);
    assert!(baseline.contains("serve_mutations_applied"));
    assert!(baseline.contains("serve_mutations_rejected"));
    for shards in [2u32, 4] {
        assert_eq!(
            logical_doc_at(shards),
            baseline,
            "logical metrics diverged at {shards} shards"
        );
    }
}
