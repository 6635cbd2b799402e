//! The three workloads and the inputs each one generates from its seed.
//!
//! The server only ever sees the generated requests: a `trafficgen`
//! initial state, an `evolve` mutation stream, and queries over the 24
//! traffic queries × 3 backends in a seeded order.

use nemo_core::llm::hash_parts;
use nemo_core::Backend;
use nemo_serve::{Mutation, Request};
use trafficgen::{evolve, generate, StreamConfig, TrafficConfig, TrafficWorkload};

/// The query-side backends, one client session each: client `c` asks
/// through `BACKENDS[c]`.
pub const BACKENDS: [Backend; 3] = [Backend::Sql, Backend::Pandas, Backend::NetworkX];

/// One workload's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Initial endpoints.
    pub nodes: usize,
    /// Initial flows.
    pub edges: usize,
    /// `/16` prefixes the endpoints spread over.
    pub prefixes: usize,
    /// Hash partitions of the live state.
    pub shards: u32,
    /// Stores on disk with `PersistOptions::default()` (`EveryBatch`
    /// fsync): one plain store for a single shard, one per shard
    /// otherwise. In memory only when false.
    pub durable: bool,
    /// Programs per cache shard; 0 is unbounded.
    pub cache_capacity: usize,
    /// Mutations per round.
    pub mutations_per_round: usize,
    /// Queries per round, asked after the round's mutations.
    pub queries_per_round: usize,
    /// Worker threads for the crash-recovery step.
    pub recovery_threads: usize,
    /// Mutations generated up front; a run that uses them all ends early.
    pub stream_events: usize,
}

/// Deferred store removals executed at each batch boundary, as
/// `Server::run_schedule` does.
pub const SWEEP_BUDGET: usize = 64;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "read_path",
            nodes: 2_000,
            edges: 8_000,
            prefixes: 16,
            shards: 1,
            durable: false,
            cache_capacity: 0,
            mutations_per_round: 4,
            queries_per_round: 12,
            recovery_threads: 1,
            stream_events: 40_000,
        },
        Spec {
            name: "durable_ingest",
            nodes: 10_000,
            edges: 40_000,
            prefixes: 16,
            shards: 1,
            durable: true,
            cache_capacity: 0,
            mutations_per_round: 256,
            queries_per_round: 0,
            recovery_threads: 1,
            stream_events: 300_000,
        },
        Spec {
            name: "sharded_mixed",
            nodes: 2_000,
            edges: 8_000,
            prefixes: 16,
            shards: 4,
            durable: true,
            cache_capacity: 8,
            mutations_per_round: 16,
            queries_per_round: 6,
            recovery_threads: 2,
            stream_events: 100_000,
        },
    ]
}

/// The named workload.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|spec| spec.name == name)
}

impl Spec {
    /// The same workload at toy size, for the self-test.
    pub fn toy(&self) -> Spec {
        Spec {
            nodes: 60,
            edges: 160,
            prefixes: 4,
            stream_events: 2_000,
            ..self.clone()
        }
    }

    /// The same workload on a single shard (the replay reference).
    pub fn one_shard(&self) -> Spec {
        Spec {
            shards: 1,
            recovery_threads: 1,
            ..self.clone()
        }
    }
}

/// Everything a run feeds the server, derived from the seed.
pub struct Inputs {
    /// The seed the inputs derive from.
    pub seed: u64,
    /// The initial state's configuration.
    traffic: TrafficConfig,
    /// The mutation stream, already in request form.
    pub mutations: Vec<Request>,
    /// The 24 traffic query texts.
    pub queries: Vec<&'static str>,
    /// Every `(client, query)` pair, in a seeded order.
    order: Vec<(usize, &'static str)>,
}

impl Inputs {
    /// Generates a workload's inputs from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let traffic = TrafficConfig {
            nodes: spec.nodes,
            edges: spec.edges,
            prefixes: spec.prefixes,
            seed,
        };
        let stream = evolve(
            &generate(&traffic),
            &StreamConfig {
                events: spec.stream_events,
                seed: seed ^ 0x00be_4c4d,
            },
        );
        let mutations = stream
            .iter()
            .map(|timed| Request::Mutate {
                at_ms: timed.at_ms,
                mutation: Mutation::from_event(&timed.event),
            })
            .collect();
        let queries: Vec<&'static str> = nemo_bench::traffic_queries()
            .into_iter()
            .map(|spec| spec.text)
            .collect();
        let mut order: Vec<(usize, &'static str)> = (0..BACKENDS.len())
            .flat_map(|client| queries.iter().map(move |&query| (client, query)))
            .collect();
        order.sort_by_cached_key(|(client, query)| {
            hash_parts(&[
                "perfbench-order",
                &seed.to_string(),
                &client.to_string(),
                query,
            ])
        });
        Inputs {
            seed,
            traffic,
            mutations,
            queries,
            order,
        }
    }

    /// The initial workload (generated again on every call: building the
    /// state is part of set-up).
    pub fn initial(&self) -> TrafficWorkload {
        generate(&self.traffic)
    }

    /// The queries of `round`, as `(client, query text)`: the next
    /// `count - 1` pairs of a seeded order over all 72 `(query, backend)`
    /// pairs, taken cyclically, then one of them asked again (an operator
    /// re-asking, answered from the answer cache). Every pair is asked
    /// equally often, so the request mix does not drift with the seed.
    pub fn round_queries(&self, round: usize, count: usize) -> Vec<(usize, &'static str)> {
        if count == 0 {
            return Vec::new();
        }
        let fresh = (count - 1).max(1);
        let mut out: Vec<_> = (0..fresh)
            .map(|j| self.order[(round * fresh + j) % self.order.len()])
            .collect();
        if count > 1 {
            out.push(out[self.pick("perfbench-repeat", round) % fresh]);
        }
        out
    }

    /// Which query of `round` the correctness check samples.
    pub fn sampled(&self, round: usize, count: usize) -> usize {
        self.pick("perfbench-sample", round) % count.max(1)
    }

    fn pick(&self, tag: &str, round: usize) -> usize {
        hash_parts(&[tag, &self.seed.to_string(), &round.to_string()]) as usize
    }
}

/// The kind index of a mutation, in [`MUTATION_KINDS`] order.
pub fn kind_of(mutation: &Mutation) -> usize {
    match mutation {
        Mutation::AddNode { .. } => 0,
        Mutation::AddEdge { .. } => 1,
        Mutation::SetFlow { .. } => 2,
        Mutation::SetNodeAttr { .. } => 3,
        Mutation::RemoveEdge { .. } => 4,
    }
}

/// Mutation kinds as they appear in per-layer metric names.
pub const MUTATION_KINDS: [&str; 5] = [
    "add_node",
    "add_edge",
    "set_flow",
    "set_node_attr",
    "remove_edge",
];
