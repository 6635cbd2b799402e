//! The serving drivers behind `serve_bench`, `durability_bench`,
//! `shard_bench` and `obs_bench`: deterministic multi-client request
//! streams, sent to servers as typed [`Request`]s through
//! [`Server::handle`]. Besides `handle`, a driver touches a server only
//! through the jagged-resume [`Server::apply_recorded`], the
//! deferred-removal [`Server::sweep_persistence`] and read accessors.
//!
//! Every client's run is a pure function of `(config, client)`: no
//! wall-clock, no cross-client state. Clients fan out over the
//! `nemo_bench::pool` worker pool (`NEMO_THREADS`), and the combined
//! transcript, reassembled in client order, is bit-for-bit identical at
//! any thread count.
//!
//! Two families share the sessions, the seeded query picks and the line
//! formats:
//!
//! * **Load** — [`drive`] gives each client its own in-memory server
//!   (rounds of a shared mutation batch, then that client's queries);
//!   [`drive_sharded`] puts every client on one shared `shards`-way
//!   server, whose transcript is identical at any shard count.
//! * **Durability** — [`run`] gives each client a durable single-shard
//!   server under `base_dir/c<client>/` and its own stream; [`run_sharded`]
//!   runs one durable `shards`-way server. With `crash_after: Some(k)` a
//!   run stops abruptly (no final fsync, no queries); the next run on the
//!   same directories recovers, **regenerates the transcript prefix for
//!   the recovered epochs** from the deterministic stream, and continues.
//!   Because the prefix is regenerated while the *state* comes from disk,
//!   the resumed transcript (including the final state CRC) matches an
//!   uninterrupted run byte for byte only if recovery reproduced the exact
//!   pre-crash state. [`run_fault`] and [`run_sweep_crash`] are the
//!   injected-fault and killed-mid-sweep variants of the same proof.

use nemo_bench::{pool, traffic_queries, QuerySpec};
use nemo_core::llm::{hash_parts, profiles, SimulatedLlm};
use nemo_core::{Backend, Llm};
use nemo_serve::driver::serving_knowledge;
use nemo_serve::shard::route_mutation;
use nemo_serve::snapshot::write_snapshot;
use nemo_serve::{
    FsyncPolicy, LiveNetwork, Mutation, PersistOptions, Request, Response, ServeError, Server,
    ServerBuilder, Session, Tracer,
};
use nemo_store::{FaultFs, FaultKind};
use std::path::Path;
use std::sync::Arc;
use trafficgen::{evolve, generate, StreamConfig, TimedEvent, TrafficConfig, TrafficWorkload};

/// A driver configuration with a full-size and a smoke-size preset.
pub trait Preset: Sized {
    /// The full-size configuration.
    fn full() -> Self;

    /// A seconds-scale smoke configuration.
    fn small() -> Self;

    /// [`Preset::small`] when `NEMO_SMALL` is set, else [`Preset::full`].
    fn from_env() -> Self {
        if std::env::var("NEMO_SMALL").is_ok() {
            Self::small()
        } else {
            Self::full()
        }
    }
}

/// Client `client`'s session: its backend and model seed derive from the
/// client id and the run's seed alone.
pub fn session(client: usize, seed: u64) -> Session<SimulatedLlm> {
    Session {
        client,
        backend: Backend::CODEGEN[client % Backend::CODEGEN.len()],
        llm: SimulatedLlm::new(profiles::gpt4(), serving_knowledge(), seed ^ client as u64),
    }
}

/// One [`session`] per client id in `0..clients`.
pub fn sessions(clients: usize, seed: u64) -> Vec<Session<SimulatedLlm>> {
    (0..clients).map(|client| session(client, seed)).collect()
}

/// The query `client` asks at position `at` of a `tag`-ged schedule: a
/// seeded hash picks it from the traffic suite.
fn pick_query(queries: &[QuerySpec], tag: &str, seed: u64, client: usize, at: &[usize]) -> Request {
    let mut parts = vec![tag.to_string(), seed.to_string(), client.to_string()];
    parts.extend(at.iter().map(usize::to_string));
    let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
    let pick = hash_parts(&parts) as usize % queries.len();
    Request::Query {
        client,
        query: queries[pick].text.to_string(),
    }
}

/// Sends one mutate or query request and renders its transcript line. A
/// mutation that does not apply is an error: every driver stream is
/// conflict-free, so a rejection means the run went wrong.
fn send<L: Llm>(server: &mut Server<L>, request: &Request) -> Result<String, ServeError> {
    match server.handle(request)? {
        Response::Rejected { reason, .. } => Err(ServeError::Conflict(
            reason.trim_start_matches("mutation conflict: ").to_string(),
        )),
        Response::Degraded {
            shard,
            last_durable_epoch,
            cause,
            ..
        } => Err(ServeError::Degraded {
            shard,
            last_durable_epoch,
            cause,
        }),
        response => Ok(response
            .transcript_line()
            .expect("mutate and query responses render a line")),
    }
}

/// The line `handle` rendered when it first applied `timed` at `epoch`,
/// regenerated for a record a store already holds, so a recovered prefix
/// splices seamlessly into a live transcript.
fn recorded_line(epoch: u64, timed: &TimedEvent) -> String {
    Response::Mutated {
        epoch,
        at_ms: timed.at_ms,
        description: Mutation::from_event(&timed.event).describe(),
    }
    .transcript_line()
    .expect("mutations render a line")
}

/// Prefixes every line with its client's `c<client>| ` tag.
fn tagged(client: usize, lines: Vec<String>) -> impl Iterator<Item = String> {
    lines
        .into_iter()
        .map(move |line| format!("c{client}| {line}"))
}

/// Sizing of one load-driver run.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// The initial workload every client's server starts from.
    pub traffic: TrafficConfig,
    /// Number of simulated clients.
    pub clients: usize,
    /// Rounds per client: each round applies a mutation batch, then issues
    /// queries.
    pub rounds: usize,
    /// Queries issued per round per client.
    pub queries_per_round: usize,
    /// Mutations applied per round (the same shared stream for every
    /// client, so all clients see the same evolving network).
    pub mutations_per_round: usize,
    /// Seed for the mutation stream, the query schedule and the models.
    pub seed: u64,
}

impl Preset for DriveConfig {
    fn full() -> Self {
        DriveConfig {
            traffic: TrafficConfig::default(),
            clients: 6,
            rounds: 8,
            queries_per_round: 6,
            mutations_per_round: 4,
            seed: 2023,
        }
    }

    fn small() -> Self {
        DriveConfig {
            traffic: TrafficConfig {
                nodes: 40,
                edges: 40,
                prefixes: 4,
                seed: 7,
            },
            clients: 4,
            rounds: 3,
            queries_per_round: 3,
            mutations_per_round: 3,
            seed: 2023,
        }
    }
}

/// The mutation stream every client of a load-driver run shares.
fn load_stream(config: &DriveConfig, workload: &TrafficWorkload) -> Vec<TimedEvent> {
    evolve(
        workload,
        &StreamConfig {
            events: config.rounds * config.mutations_per_round,
            seed: config.seed,
        },
    )
}

/// One client's load schedule: `rounds` batches of the shared stream,
/// each followed by that client's queries.
fn schedule(config: &DriveConfig, client: usize, stream: &[TimedEvent]) -> Vec<Request> {
    let queries = traffic_queries();
    let mut requests = Vec::new();
    for round in 0..config.rounds {
        let batch = &stream[round * config.mutations_per_round..][..config.mutations_per_round];
        requests.extend(batch.iter().map(Request::from));
        requests.extend(
            (0..config.queries_per_round)
                .map(|k| pick_query(&queries, "serve-query", config.seed, client, &[round, k])),
        );
    }
    requests
}

/// Runs one load client on its own in-memory server.
fn serve_client(
    config: &DriveConfig,
    client: usize,
    workload: &TrafficWorkload,
    stream: &[TimedEvent],
) -> Result<Vec<String>, ServeError> {
    let mut server = ServerBuilder::new().build(
        LiveNetwork::from_workload(workload),
        vec![session(client, config.seed)],
    )?;
    schedule(config, client, stream)
        .iter()
        .map(|request| send(&mut server, request))
        .collect()
}

/// Drives every client, each on its own server, over `threads` pool
/// workers and returns the combined transcript in client order —
/// bit-identical at any thread count. The workload and the shared mutation
/// stream are generated once and borrowed by every worker.
pub fn drive(config: &DriveConfig, threads: usize) -> Result<Vec<String>, ServeError> {
    let workload = generate(&config.traffic);
    let stream = load_stream(config, &workload);
    let mut lines = Vec::new();
    let runs = pool::run_indexed(config.clients, threads, |client| {
        serve_client(config, client, &workload, &stream)
    });
    for (client, run) in runs.into_iter().enumerate() {
        lines.extend(tagged(client, run?));
    }
    Ok(lines)
}

/// Drives every client against **one shared `shards`-way server**. Per
/// round, the shared mutation batch is applied once, then each client's
/// queries are issued round-robin (`for k { for client }`). Mutation lines
/// appear untagged; query lines carry the asking client's tag. The
/// transcript is byte-identical at any shard count: epochs in the lines
/// are global, answers come from the merged view, and each
/// `(query, backend)` pair walks the same cache history whichever cache
/// shard holds it.
pub fn drive_sharded(config: &DriveConfig, shards: u32) -> Result<Vec<String>, ServeError> {
    let workload = generate(&config.traffic);
    let stream = load_stream(config, &workload);
    let mut server = ServerBuilder::new().shards(shards).build(
        LiveNetwork::from_workload(&workload),
        sessions(config.clients, config.seed),
    )?;
    let queries = traffic_queries();
    let mut lines = Vec::new();
    for round in 0..config.rounds {
        let batch = &stream[round * config.mutations_per_round..][..config.mutations_per_round];
        for timed in batch {
            lines.push(send(&mut server, &Request::from(timed))?);
        }
        for k in 0..config.queries_per_round {
            for client in 0..config.clients {
                let request = pick_query(&queries, "serve-query", config.seed, client, &[round, k]);
                lines.push(format!("c{client}| {}", send(&mut server, &request)?));
            }
        }
    }
    Ok(lines)
}

/// Sizing of one durability run.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The initial workload every client's network starts from.
    pub traffic: TrafficConfig,
    /// Number of clients (one store directory + one stream each in
    /// [`run`]; sessions on the one server in [`run_sharded`]).
    pub clients: usize,
    /// Mutation events per stream.
    pub events: usize,
    /// Queries answered per client after the stream completes.
    pub queries: usize,
    /// Seed for streams, query picks and models.
    pub seed: u64,
    /// Persistence settings shared by every store.
    pub options: PersistOptions,
}

impl DurabilityConfig {
    /// Store sizing that exercises rotation, snapshots and compaction at
    /// smoke scale, with per-record fsync (the crash-safety posture).
    fn driver_options() -> PersistOptions {
        PersistOptions {
            fsync: FsyncPolicy::EveryRecord,
            segment_max_bytes: 2048,
            snapshot_every_bytes: 0,
            snapshot_every_epochs: 8,
            keep_snapshots: 2,
            ..PersistOptions::default()
        }
    }
}

impl Preset for DurabilityConfig {
    fn full() -> Self {
        DurabilityConfig {
            traffic: TrafficConfig::default(),
            clients: 4,
            events: 60,
            queries: 4,
            seed: 2033,
            options: Self::driver_options(),
        }
    }

    fn small() -> Self {
        DurabilityConfig {
            traffic: TrafficConfig {
                nodes: 30,
                edges: 30,
                prefixes: 3,
                seed: 7,
            },
            clients: 3,
            events: 24,
            queries: 3,
            seed: 2033,
            options: Self::driver_options(),
        }
    }
}

/// A durability stream: `seed` picks it, over the configured workload.
fn durable_stream(config: &DurabilityConfig, seed: u64) -> Vec<TimedEvent> {
    evolve(
        &generate(&config.traffic),
        &StreamConfig {
            events: config.events,
            seed,
        },
    )
}

/// One [`run`] client's own stream.
fn client_stream(config: &DurabilityConfig, client: usize) -> Vec<TimedEvent> {
    durable_stream(
        config,
        config.seed ^ (client as u64).wrapping_mul(0x9e37_79b9),
    )
}

/// Refuses stores that are further along than the stream they resume.
fn check_resumable(recovered: u64, stream: &[TimedEvent]) -> Result<(), ServeError> {
    if recovered as usize > stream.len() {
        return Err(ServeError::Corrupt(format!(
            "stores are at epoch {recovered} but the stream has only {} events \
             (directory reused across configs?)",
            stream.len()
        )));
    }
    Ok(())
}

/// Fsyncs, pays off every deferred removal (snapshot pruning, WAL
/// compaction) accrued over the stream, and renders the final-state
/// digest. The digest is computed over the *merged* view, so it is
/// invariant under the shard count.
fn finish<L: Llm>(server: &mut Server<L>) -> Result<String, ServeError> {
    server.handle(&Request::Sync)?;
    server.sweep_persistence(usize::MAX)?;
    Ok(format!(
        "final epoch={} state-crc={:08x}",
        server.network().global_epoch(),
        nemo_store::crc32::crc32(write_snapshot(server.merged_view()).as_bytes())
    ))
}

/// Client `client`'s durable single-shard server under `base_dir`,
/// recovered from its store or created fresh.
fn durable_server(
    config: &DurabilityConfig,
    base_dir: &Path,
    client: usize,
) -> Result<Server<SimulatedLlm>, ServeError> {
    let (server, _reports) = ServerBuilder::new()
        .options(config.options.clone())
        .persist_at(base_dir.join(format!("c{client}")))
        .recover_or_create(vec![session(client, config.seed)], || {
            LiveNetwork::from_workload(&generate(&config.traffic))
        })?;
    Ok(server)
}

/// The outcome of one durability client's run.
struct ClientRun {
    lines: Vec<String>,
    crashed: bool,
}

fn durable_client(
    config: &DurabilityConfig,
    base_dir: &Path,
    client: usize,
    crash_after: Option<u64>,
) -> Result<ClientRun, ServeError> {
    let mut server = durable_server(config, base_dir, client)?;
    let stream = client_stream(config, client);
    let recovered = server.network().global_epoch();
    check_resumable(recovered, &stream)?;
    let mut lines: Vec<String> = (1..)
        .zip(&stream[..recovered as usize])
        .map(|(epoch, timed)| recorded_line(epoch, timed))
        .collect();
    // The crash cut varies per client so recovery is exercised at
    // different offsets.
    let cut = crash_after.map(|k| k + client as u64);
    for timed in &stream[recovered as usize..] {
        lines.push(send(&mut server, &Request::from(timed))?);
        if cut.is_some_and(|k| server.network().global_epoch() >= k) {
            // Abrupt stop: no batch fsync, no queries, no digest.
            return Ok(ClientRun {
                lines,
                crashed: true,
            });
        }
    }
    let digest = finish(&mut server)?;
    let queries = traffic_queries();
    for k in 0..config.queries {
        let request = pick_query(&queries, "durability-query", config.seed, client, &[k]);
        lines.push(send(&mut server, &request)?);
    }
    lines.push(digest);
    Ok(ClientRun {
        lines,
        crashed: false,
    })
}

/// Runs every client over `threads` pool workers against stores under
/// `base_dir` (one `c<i>` subdirectory each; existing stores are
/// recovered and resumed). Returns the combined transcript in client order
/// plus whether any client crashed: with `crash_after: Some(k)`, client
/// `c` stops abruptly after `k + c` applied epochs. Each client records
/// into its own fork of the configured tracer, absorbed back in client
/// order, so trace ids follow the transcript's order at any thread count.
pub fn run(
    config: &DurabilityConfig,
    base_dir: &Path,
    threads: usize,
    crash_after: Option<u64>,
) -> Result<(Vec<String>, bool), ServeError> {
    let pool_metrics = pool::PoolMetrics::register(&config.options.registry);
    let tracers: Vec<Tracer> = (0..config.clients)
        .map(|_| config.options.tracer.fork())
        .collect();
    let runs = pool::run_indexed_observed(config.clients, threads, Some(&pool_metrics), |client| {
        let mut config = config.clone();
        config.options.tracer = tracers[client].clone();
        durable_client(&config, base_dir, client, crash_after)
    });
    for tracer in &tracers {
        config.options.tracer.absorb(tracer);
    }
    let mut lines = Vec::new();
    let mut crashed = false;
    for (client, run) in runs.into_iter().enumerate() {
        let run = run?;
        crashed |= run.crashed;
        lines.extend(tagged(client, run.lines));
    }
    Ok((lines, crashed))
}

/// [`run`] with a deterministic fault injected into **client 0's**
/// filesystem: every other client runs on the real filesystem, client 0
/// runs on a [`FaultFs`] that fails its `fault_at`-th applicable
/// filesystem operation with `kind`.
///
/// Three outcomes, mirroring the error-anywhere contract:
///
/// * the fault was *absorbed* — a rolled-back write fault the
///   persistence layer's budgeted retry recovered — and the combined
///   transcript is byte-identical to an unfaulted run (`faulted` is
///   `false`);
/// * the fault *surfaced* as a typed storage error from client 0
///   (`faulted` is `true`; the error is rendered into the transcript and
///   client 0's run stops there, mimicking a process that aborts on an
///   unrecoverable disk). A subsequent [`run`] over the same directories
///   recovers client 0 from its durable prefix and must reproduce the
///   uninterrupted transcript byte for byte;
/// * any *other* client fails: that is a real bug and the error
///   propagates.
pub fn run_fault(
    config: &DurabilityConfig,
    base_dir: &Path,
    threads: usize,
    fault_at: u64,
    kind: FaultKind,
) -> Result<(Vec<String>, bool), ServeError> {
    let mut faulty = config.clone();
    faulty.options.vfs = Arc::new(FaultFs::new(kind, fault_at));
    let pool_metrics = pool::PoolMetrics::register(&config.options.registry);
    let runs = pool::run_indexed_observed(config.clients, threads, Some(&pool_metrics), |client| {
        let cfg = if client == 0 { &faulty } else { config };
        durable_client(cfg, base_dir, client, None)
    });
    let mut lines = Vec::new();
    let mut faulted = false;
    for (client, run) in runs.into_iter().enumerate() {
        match run {
            Ok(run) => lines.extend(tagged(client, run.lines)),
            Err(e) if client == 0 => {
                faulted = true;
                lines.push(format!("c0| fault: {e}"));
            }
            Err(e) => return Err(e),
        }
    }
    Ok((lines, faulted))
}

/// Applies every client's full stream, fsyncs, then executes only
/// `budget` removals of each store's deferred sweep plan before stopping
/// abruptly — no queries, no digest — mimicking a kill *mid-sweep*. The
/// plan is never persisted, so the next open simply recomputes what
/// remains; a subsequent [`run`] over the same directories must recover
/// and reproduce the uninterrupted transcript byte for byte.
pub fn run_sweep_crash(
    config: &DurabilityConfig,
    base_dir: &Path,
    threads: usize,
    budget: usize,
) -> Result<(), ServeError> {
    let pool_metrics = pool::PoolMetrics::register(&config.options.registry);
    let runs = pool::run_indexed_observed(
        config.clients,
        threads,
        Some(&pool_metrics),
        |client| -> Result<(), ServeError> {
            let mut server = durable_server(config, base_dir, client)?;
            let recovered = server.network().global_epoch() as usize;
            for timed in client_stream(config, client).iter().skip(recovered) {
                send(&mut server, &Request::from(timed))?;
            }
            server.handle(&Request::Sync)?;
            // A partial sweep, then an abrupt stop: whatever the budget
            // removed stays removed, the rest is left for the next open.
            server.sweep_persistence(budget)
        },
    );
    runs.into_iter().collect()
}

/// The sharded crash/resume driver: **one** server over `shards` hash
/// partitions, each with its own store under `base_dir/shard-<k>/`, fed
/// by one shared mutation stream with a multi-client query round at the
/// end. The streams `evolve` produces are conflict-free, so global epochs
/// track stream position exactly (`g = i + 1`).
///
/// Resume works shard by shard: recovery rebuilds each partition from its
/// own snapshot + WAL suffix (the shards may have crashed at *different*
/// local epochs), then this driver walks the deterministic stream and —
/// per record — either regenerates the transcript line (the owner shard
/// already holds it durably) or re-applies it through
/// [`Server::apply_recorded`] to close the gap. The resumed transcript,
/// including the merged-state CRC digest, is byte-identical to an
/// uninterrupted run at any shard count and any thread count.
///
/// With `crash_after: Some(k)` the run stops abruptly once the global
/// epoch reaches `k` — no final fsync, no queries — and reports the
/// crash.
pub fn run_sharded(
    config: &DurabilityConfig,
    base_dir: &Path,
    shards: u32,
    threads: usize,
    crash_after: Option<u64>,
) -> Result<(Vec<String>, bool), ServeError> {
    let traffic = config.traffic.clone();
    let (mut server, _reports) = ServerBuilder::new()
        .shards(shards)
        .options(config.options.clone())
        .persist_at(base_dir)
        .recovery_threads(threads)
        .recover_or_create(sessions(config.clients, config.seed), || {
            LiveNetwork::from_workload(&generate(&traffic))
        })?;
    let stream = durable_stream(config, config.seed);
    check_resumable(server.network().global_epoch(), &stream)?;
    // How many records each shard already holds durably. Recovery may be
    // jagged — shard k durable through its cut, shard j further along —
    // so the walk below decides per record whether to regenerate or
    // re-apply.
    let recovered = server.network().epoch_vector();
    let mut pos = vec![0u64; shards as usize];
    let mut lines = Vec::with_capacity(stream.len());
    for (global, timed) in (1..).zip(&stream) {
        let k = route_mutation(&Mutation::from_event(&timed.event), shards) as usize;
        pos[k] += 1;
        if pos[k] > recovered[k] {
            server.apply_recorded(global, timed)?;
        }
        lines.push(recorded_line(global, timed));
        if crash_after.is_some_and(|cut| global >= cut) {
            // Abrupt stop: no batch fsync, no queries, no digest.
            return Ok((lines, true));
        }
    }
    let digest = finish(&mut server)?;
    // Query round: clients interleave on the shared server, so answers
    // exercise the merged read path and the per-shard caches.
    let queries = traffic_queries();
    for k in 0..config.queries {
        for client in 0..config.clients {
            let request = pick_query(&queries, "durability-query", config.seed, client, &[k]);
            lines.push(format!("c{client}| {}", send(&mut server, &request)?));
        }
    }
    lines.push(digest);
    Ok((lines, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_serve::CacheOutcome;
    use std::path::PathBuf;

    fn tiny_load() -> DriveConfig {
        DriveConfig {
            traffic: TrafficConfig {
                nodes: 16,
                edges: 20,
                prefixes: 2,
                seed: 7,
            },
            clients: 3,
            rounds: 2,
            queries_per_round: 2,
            mutations_per_round: 2,
            seed: 11,
        }
    }

    fn tiny_durable() -> DurabilityConfig {
        DurabilityConfig {
            traffic: TrafficConfig {
                nodes: 14,
                edges: 18,
                prefixes: 2,
                seed: 7,
            },
            clients: 3,
            events: 18,
            queries: 2,
            seed: 11,
            options: PersistOptions {
                fsync: FsyncPolicy::Never, // tests: speed over platters
                ..DurabilityConfig::driver_options()
            },
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nemo-durability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn client_schedule(config: &DriveConfig, client: usize) -> Vec<Request> {
        let workload = generate(&config.traffic);
        schedule(config, client, &load_stream(config, &workload))
    }

    #[test]
    fn durable_traces_follow_client_order_at_any_thread_count() {
        let traced = |threads: usize| {
            let mut config = tiny_durable();
            config.options.tracer = Tracer::new();
            config.options.tracer.enable(4096);
            let dir = temp_dir(&format!("traces-t{threads}"));
            run(&config, &dir, threads, None).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            let tracer = &config.options.tracer;
            let ids: Vec<u64> = tracer.traces(0).iter().map(|t| t.trace_id).collect();
            (tracer.logical_skeletons(0), ids)
        };
        let (skeletons, ids) = traced(1);
        assert!(skeletons.contains("request.query"));
        assert_eq!(ids, (1..=ids.len() as u64).collect::<Vec<_>>());
        assert_eq!(traced(3), (skeletons, ids));
    }

    #[test]
    fn transcripts_are_identical_across_thread_counts() {
        let config = tiny_load();
        let one = drive(&config, 1).unwrap();
        for threads in [2, 4] {
            assert_eq!(drive(&config, threads).unwrap(), one, "threads={threads}");
        }
        assert!(!one.is_empty());
    }

    #[test]
    fn schedules_interleave_mutations_and_queries() {
        let config = tiny_load();
        let schedule = client_schedule(&config, 0);
        assert_eq!(
            schedule.len(),
            config.rounds * (config.mutations_per_round + config.queries_per_round)
        );
        assert!(matches!(schedule[0], Request::Mutate { .. }));
        assert!(matches!(
            schedule[config.mutations_per_round],
            Request::Query { .. }
        ));
        // Different clients ask different query sequences...
        let other = client_schedule(&config, 1);
        assert_ne!(schedule, other);
        // ...but share the same mutation stream.
        let mutations = |s: &[Request]| -> Vec<Request> {
            s.iter()
                .filter(|r| matches!(r, Request::Mutate { .. }))
                .cloned()
                .collect()
        };
        assert_eq!(mutations(&schedule), mutations(&other));
    }

    #[test]
    fn shared_server_transcripts_are_shard_count_invariant() {
        let config = tiny_load();
        let one = drive_sharded(&config, 1).unwrap();
        assert!(!one.is_empty());
        // Mutation lines are untagged, query lines carry client tags.
        assert!(one.iter().any(|l| l.starts_with("[e")));
        assert!(one.iter().any(|l| l.starts_with("c0| ")));
        for shards in [2u32, 4] {
            assert_eq!(
                drive_sharded(&config, shards).unwrap(),
                one,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn repeated_queries_warm_the_cache() {
        // With enough draws from the 24-query pool the schedule repeats
        // queries; repeats must be served from the cache hierarchy.
        let config = DriveConfig {
            rounds: 8,
            queries_per_round: 8,
            ..tiny_load()
        };
        let texts: Vec<String> = client_schedule(&config, 0)
            .into_iter()
            .filter_map(|r| match r {
                Request::Query { query, .. } => Some(query),
                _ => None,
            })
            .collect();
        let distinct: std::collections::HashSet<&String> = texts.iter().collect();
        assert!(
            distinct.len() < texts.len(),
            "deterministic schedule has no repeated queries; enlarge the config"
        );
        let workload = generate(&config.traffic);
        let lines = serve_client(&config, 0, &workload, &load_stream(&config, &workload)).unwrap();
        let answered: Vec<&String> = lines.iter().filter(|l| l.contains(" client=0 ")).collect();
        assert_eq!(answered.len(), texts.len());
        let warm = [CacheOutcome::AnswerHit, CacheOutcome::ProgramHit];
        assert!(answered
            .iter()
            .any(|l| warm.iter().any(|c| l.contains(&format!(" {} \"", c.tag())))));
    }

    #[test]
    fn crash_then_resume_matches_uninterrupted_at_any_thread_count() {
        let config = tiny_durable();
        let full_dir = temp_dir("full");
        let (uninterrupted, crashed) = run(&config, &full_dir, 1, None).unwrap();
        assert!(!crashed);
        assert!(uninterrupted.iter().any(|l| l.contains("state-crc=")));

        // Crash at staggered offsets, then resume on the same stores.
        let crash_dir = temp_dir("crash");
        let (partial, crashed) = run(&config, &crash_dir, 2, Some(5)).unwrap();
        assert!(crashed);
        assert!(partial.len() < uninterrupted.len());
        let (resumed, crashed) = run(&config, &crash_dir, 2, None).unwrap();
        assert!(!crashed);
        assert_eq!(resumed, uninterrupted, "resumed transcript must match");

        // Thread-count invariance of the uninterrupted run.
        let t4_dir = temp_dir("t4");
        let (with_threads, _) = run(&config, &t4_dir, 4, None).unwrap();
        assert_eq!(with_threads, uninterrupted);

        // Resuming a *completed* run is a no-op that reproduces the same
        // transcript again (everything regenerates from the recovered
        // state).
        let (again, _) = run(&config, &full_dir, 1, None).unwrap();
        assert_eq!(again, uninterrupted);
        for dir in [full_dir, crash_dir, t4_dir] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_kill_mid_sweep_resumes_to_the_uninterrupted_transcript() {
        let config = tiny_durable();
        let full_dir = temp_dir("sweep-full");
        let (uninterrupted, _) = run(&config, &full_dir, 1, None).unwrap();
        // Stop after 1 removal, then after 2 more: two staggered kills
        // inside the same sweep, on the same stores.
        let sweep_dir = temp_dir("sweep-crash");
        run_sweep_crash(&config, &sweep_dir, 2, 1).unwrap();
        run_sweep_crash(&config, &sweep_dir, 2, 2).unwrap();
        let (resumed, crashed) = run(&config, &sweep_dir, 2, None).unwrap();
        assert!(!crashed);
        assert_eq!(resumed, uninterrupted);
        // The full run swept everything; nothing deletable remains.
        for client in 0..config.clients {
            let server = durable_server(&config, &sweep_dir, client).unwrap();
            let store = server.shard_persistence()[0].store();
            assert_eq!(store.sweep_plan().removals(), 0, "client {client}");
        }
        for dir in [full_dir, sweep_dir] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
