//! The durability driver: deterministic multi-client mutation streams over
//! persistent stores, with crash/resume transcripts.
//!
//! Each client owns one single-shard durable server (its own persistence
//! root) and one deterministic stream (a pure function of
//! `(config, client)`), applies the stream through the server, then
//! answers a query round and prints a state digest. The
//! combined transcript is reassembled in client order over
//! `nemo_bench::pool`, so it is bit-identical at any `NEMO_THREADS`.
//!
//! The crash/resume story is the point:
//!
//! * [`run`] with `crash_after: Some(k)` stops client `c` abruptly after
//!   `k + c` applied epochs — no final fsync, no queries, mimicking a kill
//!   at a different point per client — and reports that it crashed (the
//!   driver binary then exits non-zero).
//! * [`run`] on the *same directories* afterwards recovers every client
//!   from its snapshot + WAL suffix, **regenerates the transcript prefix
//!   for the recovered epochs**, and continues the stream to completion.
//!
//! Because the prefix is regenerated from the deterministic stream while
//! the *state* comes from disk, the resumed transcript (including the
//! final per-client state CRC) matches an uninterrupted run byte for byte
//! only if recovery reproduced the exact pre-crash state — which is what
//! the CI `recovery-smoke` job asserts with `cmp`.

use crate::driver::serving_knowledge;
use crate::error::ServeError;
use crate::live::LiveNetwork;
use crate::mutation::Mutation;
use crate::persist::{FsyncPolicy, PersistOptions};
use crate::server::{ServeEvent, Server, ServerBuilder, Session};
use crate::shard::route_mutation;
use crate::snapshot::write_snapshot;
use nemo_bench::{pool, traffic_queries};
use nemo_core::llm::{hash_parts, profiles, SimulatedLlm};
use nemo_core::Backend;
use nemo_store::{FaultFs, FaultKind};
use std::path::Path;
use std::sync::Arc;
use trafficgen::{evolve, generate, StreamConfig, TimedEvent, TrafficConfig};

/// Sizing of one durability run.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The initial workload every client's network starts from.
    pub traffic: TrafficConfig,
    /// Number of clients (one store directory + one stream each).
    pub clients: usize,
    /// Mutation events per client.
    pub events: usize,
    /// Queries answered after the stream completes.
    pub queries: usize,
    /// Seed for streams and query picks.
    pub seed: u64,
    /// Persistence knobs shared by every client.
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

    /// The full-size configuration.
    pub fn full() -> Self {
        DurabilityConfig {
            traffic: TrafficConfig::default(),
            clients: 4,
            events: 60,
            queries: 4,
            seed: 2033,
            options: Self::driver_options(),
        }
    }

    /// A seconds-scale smoke configuration for CI.
    pub fn small() -> Self {
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

    /// Picks [`DurabilityConfig::small`] when `NEMO_SMALL` is set, else
    /// [`DurabilityConfig::full`].
    pub fn from_env() -> Self {
        if std::env::var("NEMO_SMALL").is_ok() {
            DurabilityConfig::small()
        } else {
            DurabilityConfig::full()
        }
    }
}

/// One client's deterministic mutation stream.
pub fn client_stream(config: &DurabilityConfig, client: usize) -> Vec<TimedEvent> {
    let workload = generate(&config.traffic);
    evolve(
        &workload,
        &StreamConfig {
            events: config.events,
            seed: config.seed ^ (client as u64).wrapping_mul(0x9e37_79b9),
        },
    )
}

/// The transcript line of one applied mutation — identical to the line
/// [`crate::Server::process`] prints for a successful `Mutate` event, so a
/// prefix regenerated from the stream splices seamlessly.
fn mutate_line(epoch: u64, timed: &TimedEvent) -> String {
    format!(
        "[e{epoch}] t={}ms mutate {}",
        timed.at_ms,
        Mutation::from_event(&timed.event).describe()
    )
}

/// The outcome of one client's run.
struct ClientRun {
    lines: Vec<String>,
    crashed: bool,
}

/// Client `client`'s durable single-shard server under `base_dir`,
/// recovered from its store or created fresh.
fn client_server(
    config: &DurabilityConfig,
    base_dir: &Path,
    client: usize,
) -> Result<Server<SimulatedLlm>, ServeError> {
    let session = Session {
        client,
        backend: Backend::CODEGEN[client % Backend::CODEGEN.len()],
        llm: SimulatedLlm::new(
            profiles::gpt4(),
            serving_knowledge(),
            config.seed ^ client as u64,
        ),
    };
    let (server, _reports) = ServerBuilder::new()
        .options(config.options.clone())
        .persist_at(base_dir.join(format!("c{client}")))
        .recover_or_create(vec![session], || {
            LiveNetwork::from_workload(&generate(&config.traffic))
        })?;
    Ok(server)
}

fn run_client(
    config: &DurabilityConfig,
    base_dir: &Path,
    client: usize,
    crash_after: Option<u64>,
) -> Result<ClientRun, ServeError> {
    let mut server = client_server(config, base_dir, client)?;
    let stream = client_stream(config, client);
    let recovered = server.network().global_epoch() as usize;
    if recovered > stream.len() {
        return Err(ServeError::Corrupt(format!(
            "store for client {client} is at epoch {recovered} but the stream has only {} \
             events (directory reused across configs?)",
            stream.len()
        )));
    }
    // Regenerate the transcript prefix for epochs recovered from disk.
    let mut lines: Vec<String> = stream[..recovered]
        .iter()
        .enumerate()
        .map(|(i, timed)| mutate_line(i as u64 + 1, timed))
        .collect();
    // Continue the stream live. The crash cut varies per client so
    // recovery is exercised at different offsets.
    let cut = crash_after.map(|k| k + client as u64);
    for (i, timed) in stream.iter().enumerate().skip(recovered) {
        let epoch = server.apply_mutation(timed)?;
        debug_assert_eq!(epoch, i as u64 + 1);
        lines.push(mutate_line(epoch, timed));
        if cut.is_some_and(|k| epoch >= k) {
            // Abrupt stop: no batch fsync, no queries, no digest.
            return Ok(ClientRun {
                lines,
                crashed: true,
            });
        }
    }
    server.sync_persistence()?;
    // Pay off the deferred removals (snapshot pruning, WAL compaction)
    // accrued over the stream, off the apply path.
    server.sweep_persistence(usize::MAX)?;

    // Query round over the final state. The digest pins the state itself;
    // the query answers pin what the pipeline computes over it.
    let digest = format!(
        "final epoch={} state-crc={:08x}",
        server.network().global_epoch(),
        nemo_store::crc32::crc32(write_snapshot(server.merged_view()).as_bytes())
    );
    let queries = traffic_queries();
    for k in 0..config.queries {
        let pick = hash_parts(&[
            "durability-query",
            &config.seed.to_string(),
            &client.to_string(),
            &k.to_string(),
        ]) as usize
            % queries.len();
        let (line, _) = server.process(&ServeEvent::Query {
            client,
            query: queries[pick].text.to_string(),
        })?;
        lines.push(line);
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
/// plus whether any client crashed (only with `crash_after`).
pub fn run(
    config: &DurabilityConfig,
    base_dir: &Path,
    threads: usize,
    crash_after: Option<u64>,
) -> Result<(Vec<String>, bool), ServeError> {
    let pool_metrics = pool::PoolMetrics::register(&config.options.registry);
    let runs = pool::run_indexed_observed(config.clients, threads, Some(&pool_metrics), |client| {
        run_client(config, base_dir, client, crash_after)
    });
    let mut lines = Vec::new();
    let mut crashed = false;
    for (client, run) in runs.into_iter().enumerate() {
        let run = run?;
        crashed |= run.crashed;
        lines.extend(
            run.lines
                .into_iter()
                .map(|line| format!("c{client}| {line}")),
        );
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
///   uninterrupted transcript byte for byte — the fault-injection twin
///   of the crash/resume proof;
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
        run_client(cfg, base_dir, client, None)
    });
    let mut lines = Vec::new();
    let mut faulted = false;
    for (client, run) in runs.into_iter().enumerate() {
        match run {
            Ok(run) => lines.extend(
                run.lines
                    .into_iter()
                    .map(|line| format!("c{client}| {line}")),
            ),
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
/// and reproduce the uninterrupted transcript byte for byte (what the CI
/// `recovery-smoke` job asserts with `cmp`).
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
            let mut server = client_server(config, base_dir, client)?;
            let recovered = server.network().global_epoch() as usize;
            for timed in client_stream(config, client).iter().skip(recovered) {
                server.apply_mutation(timed)?;
            }
            server.sync_persistence()?;
            // A partial sweep, then an abrupt stop: whatever the budget
            // removed stays removed, the rest is left for the next open.
            server.sweep_persistence(budget)
        },
    );
    runs.into_iter().collect()
}

/// One shared deterministic mutation stream for the sharded runner; the
/// streams `evolve` produces are conflict-free, so global epochs track
/// stream position exactly (`g = i + 1`).
pub fn shared_stream(config: &DurabilityConfig) -> Vec<TimedEvent> {
    let workload = generate(&config.traffic);
    evolve(
        &workload,
        &StreamConfig {
            events: config.events,
            seed: config.seed,
        },
    )
}

/// The sharded crash/resume driver: **one** server over `shards` hash
/// partitions, each with its own store under `base_dir/shard-<k>/`, fed
/// by one shared mutation stream with a multi-client query round at the
/// end.
///
/// Resume works shard-by-shard: recovery rebuilds each partition from its
/// own snapshot + WAL suffix (the shards may have crashed at *different*
/// local epochs), then this driver walks the deterministic stream and —
/// per record — either regenerates the transcript line (the owner shard
/// already holds it durably) or re-applies it through
/// [`crate::Server::apply_recorded`] to close the gap. The resumed
/// transcript, including the merged-state CRC digest, is byte-identical
/// to an uninterrupted run at any shard count and any thread count.
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
    let queries = traffic_queries();
    let sessions = (0..config.clients)
        .map(|client| Session {
            client,
            backend: Backend::CODEGEN[client % Backend::CODEGEN.len()],
            llm: SimulatedLlm::new(
                profiles::gpt4(),
                serving_knowledge(),
                config.seed ^ client as u64,
            ),
        })
        .collect();
    let traffic = config.traffic.clone();
    let (mut server, _reports) = ServerBuilder::new()
        .shards(shards)
        .options(config.options.clone())
        .persist_at(base_dir)
        .recovery_threads(threads)
        .recover_or_create(sessions, || LiveNetwork::from_workload(&generate(&traffic)))?;
    let stream = shared_stream(config);
    if server.network().global_epoch() as usize > stream.len() {
        return Err(ServeError::Corrupt(format!(
            "stores are at global epoch {} but the stream has only {} events \
             (directory reused across configs?)",
            server.network().global_epoch(),
            stream.len()
        )));
    }
    // How many records each shard already holds durably. Recovery may be
    // jagged — shard k durable through its cut, shard j further along —
    // so the walk below decides per record whether to regenerate or
    // re-apply.
    let recovered = server.network().epoch_vector();
    let mut pos = vec![0u64; shards.max(1) as usize];
    let mut lines = Vec::with_capacity(stream.len());
    for (i, timed) in stream.iter().enumerate() {
        let global = i as u64 + 1;
        let k = route_mutation(&Mutation::from_event(&timed.event), shards) as usize;
        pos[k] += 1;
        if pos[k] > recovered[k] {
            server.apply_recorded(global, timed)?;
        }
        lines.push(mutate_line(global, timed));
        if crash_after.is_some_and(|cut| global >= cut) {
            // Abrupt stop: no batch fsync, no queries, no digest.
            return Ok((lines, true));
        }
    }
    server.sync_persistence()?;
    server.sweep_persistence(usize::MAX)?;

    // The digest is computed over the *merged* view, so it is invariant
    // under the shard count — the same bytes `write_snapshot` would
    // produce for an unsharded network at this epoch.
    let digest = format!(
        "final epoch={} state-crc={:08x}",
        server.network().global_epoch(),
        nemo_store::crc32::crc32(write_snapshot(server.merged_view()).as_bytes())
    );
    // Query round: clients interleave on the shared server, so answers
    // exercise the merged read path and the per-shard caches.
    for k in 0..config.queries {
        for client in 0..config.clients {
            let pick = hash_parts(&[
                "durability-query",
                &config.seed.to_string(),
                &client.to_string(),
                &k.to_string(),
            ]) as usize
                % queries.len();
            let (line, _) = server.process(&ServeEvent::Query {
                client,
                query: queries[pick].text.to_string(),
            })?;
            lines.push(format!("c{client}| {line}"));
        }
    }
    lines.push(digest);
    Ok((lines, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nemo-durability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny() -> DurabilityConfig {
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

    #[test]
    fn crash_then_resume_matches_uninterrupted_at_any_thread_count() {
        let config = tiny();
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
        let config = tiny();
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
            let server = client_server(&config, &sweep_dir, client).unwrap();
            let store = server.shard_persistence()[0].store();
            assert_eq!(store.sweep_plan().removals(), 0, "client {client}");
        }
        for dir in [full_dir, sweep_dir] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
