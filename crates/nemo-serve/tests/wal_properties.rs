//! WAL semantics, randomized: replay-from-snapshot must equal the directly
//! built state (byte-identical snapshot, equal graph/frames, identical
//! SQL / pandas / NetworkX answers), and a cached-program answer must equal
//! a fresh execution of the same program at every epoch.

use nemo_core::llm::profiles;
use nemo_core::sandbox::execute_code;
use nemo_core::{Backend, SimulatedLlm};
use nemo_serve::driver::serving_knowledge;
use nemo_serve::snapshot::{replay, write_snapshot};
use nemo_serve::{
    CacheOutcome, LiveNetwork, Mutation, Reply, Request, Response, ServerBuilder, Session,
    WalRecord,
};
use proptest::prelude::*;
use trafficgen::{evolve, generate, StreamConfig, TimedEvent, TrafficConfig};

fn base_workload() -> trafficgen::TrafficWorkload {
    generate(&TrafficConfig {
        nodes: 14,
        edges: 18,
        prefixes: 2,
        seed: 3,
    })
}

/// Applies `event` and returns the record a durable log holds for it; the
/// returned epochs must continue the state's epoch contiguously.
fn apply_logged(live: &mut LiveNetwork, event: &TimedEvent) -> WalRecord {
    let before = live.epoch();
    let epoch = live.apply_event(event).unwrap();
    assert_eq!(epoch, before + 1, "applied epochs are contiguous");
    WalRecord {
        epoch,
        at_ms: event.at_ms,
        mutation: Mutation::from_event(&event.event),
    }
}

/// Renders probe answers over all three backends: edge count and byte
/// totals through SQL, the byte total through the dataframe API, and node
/// and edge counts through the graph API.
fn probe_answers(live: &LiveNetwork) -> Vec<String> {
    let sql = execute_code(
        Backend::Sql,
        "SELECT COUNT(*) AS n FROM edges; SELECT SUM(bytes) AS s FROM edges;",
        &live.state(Backend::Sql),
    )
    .expect("SQL probe runs");
    let pandas = execute_code(
        Backend::Pandas,
        "result = edges.sum(\"bytes\")",
        &live.state(Backend::Pandas),
    )
    .expect("pandas probe runs");
    let networkx = execute_code(
        Backend::NetworkX,
        "result = G.number_of_nodes() * 100000 + G.number_of_edges()",
        &live.state(Backend::NetworkX),
    )
    .expect("networkx probe runs");
    vec![
        sql.value.render(),
        pandas.value.render(),
        networkx.value.render(),
    ]
}

proptest! {
    /// `snapshot(at e) + replay(WAL[e..])` reconstructs the direct build:
    /// equal state, byte-identical snapshot bytes, identical answers on
    /// every backend.
    #[test]
    fn replay_from_snapshot_equals_direct_build(
        seed in 0u64..400,
        events in 1usize..50,
        split in 0usize..64,
    ) {
        let workload = base_workload();
        let stream = evolve(&workload, &StreamConfig { events, seed });
        let split = split % (stream.len() + 1);
        let mut live = LiveNetwork::from_workload(&workload);
        let mut mid = None;
        let mut wal = Vec::new();
        for (i, event) in stream.iter().enumerate() {
            if i == split {
                mid = Some(write_snapshot(&live));
            }
            wal.push(apply_logged(&mut live, event));
        }
        let mid = mid.unwrap_or_else(|| write_snapshot(&live));
        let replayed = replay(&mid, &wal).unwrap();
        prop_assert!(replayed == live, "replayed state diverged at seed {}", seed);
        prop_assert_eq!(write_snapshot(&replayed), write_snapshot(&live));
        prop_assert_eq!(probe_answers(&replayed), probe_answers(&live));
    }

    /// Serving equivalence at every epoch: an answer-cache hit repeats the
    /// computed answer exactly, and after mutations a program-cache hit
    /// equals a fresh execution of the cached program over the new state.
    #[test]
    fn cached_answers_equal_fresh_runs_at_every_epoch(seed in 0u64..200) {
        let workload = generate(&TrafficConfig {
            nodes: 16,
            edges: 20,
            prefixes: 2,
            seed: 7,
        });
        let client = (seed % 3) as usize;
        let backend = Backend::CODEGEN[client % Backend::CODEGEN.len()];
        let llm = SimulatedLlm::new(profiles::gpt4(), serving_knowledge(), seed ^ client as u64);
        let mut server = ServerBuilder::new()
            .build(
                LiveNetwork::from_workload(&workload),
                vec![Session { client, backend, llm }],
            )
            .expect("in-memory build");
        let ask = |server: &mut nemo_serve::Server<SimulatedLlm>, query: &String| -> Reply {
            let request = Request::Query { client, query: query.clone() };
            match server.handle(&request).expect("queries never fail") {
                Response::Answered(reply) => reply,
                other => panic!("a query answered with {other:?}"),
            }
        };
        let queries: Vec<String> = nemo_bench::traffic_queries()
            .into_iter()
            .take(4)
            .map(|spec| spec.text.to_string())
            .collect();
        let stream = evolve(&workload, &StreamConfig { events: 9, seed });

        for batch in stream.chunks(3) {
            for query in &queries {
                let first = ask(&mut server, query);
                if first.answer.starts_with("error:") {
                    // Failed programs are not cached; nothing to compare.
                    continue;
                }
                // Same epoch, same query: answer-cache hit, same answer.
                let again = ask(&mut server, query);
                prop_assert_eq!(again.cache, CacheOutcome::AnswerHit);
                prop_assert_eq!(&again.answer, &first.answer);
                // The cached program re-executed fresh gives the same
                // rendered answer the server returned.
                let program = server
                    .cached_program(query, backend)
                    .expect("successful answers cache their program")
                    .to_string();
                let fresh = execute_code(backend, &program, &server.merged_view().state(backend))
                    .expect("cached program re-executes");
                prop_assert_eq!(fresh.value.render(), first.answer);
            }
            // Advance the epoch; cached answers must now be recomputed
            // (program hits), never served stale.
            for event in batch {
                let response = server.handle(&Request::from(event)).unwrap();
                prop_assert!(matches!(response, Response::Mutated { .. }), "{:?}", response);
            }
        }
    }
}

#[test]
fn snapshot_at_tip_replays_to_itself() {
    let workload = base_workload();
    let mut live = LiveNetwork::from_workload(&workload);
    let wal: Vec<WalRecord> = evolve(
        &workload,
        &StreamConfig {
            events: 25,
            seed: 1,
        },
    )
    .iter()
    .map(|event| apply_logged(&mut live, event))
    .collect();
    let tip = write_snapshot(&live);
    let replayed = replay(&tip, &wal).unwrap();
    assert!(replayed == live);
    assert_eq!(write_snapshot(&replayed), tip);
}
