//! WAL semantics, randomized: recovery from a durable snapshot plus the
//! WAL after it must equal the directly built state (byte-identical
//! snapshot, equal graph/frames, identical SQL / pandas / NetworkX
//! answers), and a cached-program answer must equal a fresh execution of
//! the same program at every epoch.

use nemo_core::llm::profiles;
use nemo_core::sandbox::execute_code;
use nemo_core::{Backend, ScriptedLlm, SimulatedLlm};
use nemo_serve::driver::serving_knowledge;
use nemo_serve::snapshot::write_snapshot;
use nemo_serve::{
    CacheOutcome, FsyncPolicy, LiveNetwork, PersistOptions, Reply, Request, Response,
    ServerBuilder, Session,
};
use proptest::prelude::*;
use trafficgen::{evolve, generate, StreamConfig, TrafficConfig};

fn base_workload() -> trafficgen::TrafficWorkload {
    generate(&TrafficConfig {
        nodes: 14,
        edges: 18,
        prefixes: 2,
        seed: 3,
    })
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
    /// A durable server's snapshot at epoch `split` plus the WAL after it
    /// recovers the direct build: equal state, byte-identical snapshot
    /// bytes, identical answers on every backend.
    #[test]
    fn replay_from_snapshot_equals_direct_build(
        seed in 0u64..400,
        events in 1usize..50,
        split in 0usize..64,
    ) {
        let workload = base_workload();
        let stream = evolve(&workload, &StreamConfig { events, seed });
        let split = split % (stream.len() + 1);
        let root = std::env::temp_dir().join(format!(
            "nemo-wal-properties-{}-{seed}-{events}-{split}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        // Installs a snapshot every `every` epochs (never at 0) beside the
        // genesis one.
        let durable = |every: usize| {
            ServerBuilder::new()
                .options(PersistOptions {
                    fsync: FsyncPolicy::Never,
                    snapshot_every_epochs: every as u64,
                    snapshot_every_bytes: 0,
                    ..PersistOptions::default()
                })
                .persist_at(&root)
        };
        let mut live = LiveNetwork::from_workload(&workload);
        let mut server = durable(split)
            .build::<ScriptedLlm>(live.clone(), Vec::new())
            .unwrap();
        for (i, event) in stream.iter().enumerate() {
            if i == split {
                // The snapshot at `split` is installed; log the rest only.
                drop(server);
                server = durable(0)
                    .recover_or_create::<ScriptedLlm>(Vec::new(), || unreachable!())
                    .unwrap()
                    .0;
            }
            let response = server.handle(&Request::from(event)).unwrap();
            prop_assert!(matches!(response, Response::Mutated { .. }), "{:?}", response);
            live.apply_event(event).unwrap();
        }
        drop(server);
        let (mut server, reports) = durable(0)
            .recover_or_create::<ScriptedLlm>(Vec::new(), || unreachable!())
            .unwrap();
        prop_assert_eq!(reports[0].snapshot_epoch, split as u64);
        prop_assert_eq!(reports[0].replayed_records, (stream.len() - split) as u64);
        let recovered = server.merged_view();
        prop_assert!(*recovered == live, "recovered state diverged at seed {}", seed);
        prop_assert_eq!(write_snapshot(recovered), write_snapshot(&live));
        prop_assert_eq!(probe_answers(recovered), probe_answers(&live));
        drop(server);
        std::fs::remove_dir_all(&root).unwrap();
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
