//! The serving loop: mutation batches interleaved with client queries,
//! over a sharded live state.
//!
//! A [`Server`] owns a [`ShardedNetwork`] (N hash partitions of the live
//! state), one [`ProgramCache`] per shard (queries hash to a cache shard
//! by text), a set of client [`Session`]s, and — when the
//! [`ServerBuilder`] configured a persistence root — one store per shard
//! under `root/shard-<k>/`, a single-shard server included.
//!
//! Work arrives as typed [`Request`]s and leaves as typed [`Response`]s
//! through [`Server::handle`], the one way to do work on a server; the
//! other public methods are read accessors, plus the jagged-resume
//! [`Server::apply_recorded`] and the deferred-removal
//! [`Server::sweep_persistence`]. Processing is sequential and
//! deterministic: the transcript of a request stream is a pure function
//! of `(initial state, requests, model seeds)` — and, because reads are
//! answered from the **merged view** (byte-identical to an unsharded
//! network at the same global epoch), it is also independent of the shard
//! count.

use crate::cache::{CacheOutcome, CacheStats, Lookup, ProgramCache};
use crate::error::ServeError;
use crate::live::LiveNetwork;
use crate::metrics::ServeMetrics;
use crate::mutation::{Epoch, Mutation, WalRecord};
use crate::persist::{PersistOptions, RecoveryReport};
use crate::protocol::{Request, Response, StatsReport};
use crate::shard::{shard_of, ShardedNetwork};
use crate::shard_persist::{self, ShardPersistence};
use nemo_core::llm::extract_code;
use nemo_core::prompt::codegen_prompt;
use nemo_core::sandbox::execute_code;
use nemo_core::{Backend, Llm, NetworkManager};
use nemo_obs::trace::Tracer;
use nemo_obs::{Class, Registry};
use netgraph::json::JsonValue;
use std::path::PathBuf;
use trafficgen::stream::TimedEvent;

/// One client session: a stable id, the backend this client queries
/// through, and its persistent model handle.
pub struct Session<L: Llm> {
    /// The client id requests address this session by (need not be the
    /// session's position in the server's list).
    pub client: usize,
    /// The code-generation backend this client uses.
    pub backend: Backend,
    /// The client's model session, reused across requests.
    pub llm: L,
}

/// The record of one answered query.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The asking client.
    pub client: usize,
    /// The backend used.
    pub backend: Backend,
    /// The query text.
    pub query: String,
    /// The (global) epoch the answer reflects.
    pub epoch: Epoch,
    /// How the cache satisfied the request.
    pub cache: CacheOutcome,
    /// The rendered answer (or a rendered error).
    pub answer: String,
}

/// Builds [`Server`]s: sharding, durability, cache sizing and recovery in
/// one place.
///
/// ```
/// use nemo_serve::{ServerBuilder, LiveNetwork};
/// use trafficgen::{generate, TrafficConfig};
///
/// let live = LiveNetwork::from_workload(&generate(&TrafficConfig {
///     nodes: 8, edges: 10, prefixes: 2, seed: 1,
/// }));
/// let server = ServerBuilder::new()
///     .shards(4)
///     .cache_capacity(256)
///     .build::<nemo_core::ScriptedLlm>(live, Vec::new())
///     .unwrap();
/// assert_eq!(server.network().shards(), 4);
/// ```
#[derive(Debug)]
pub struct ServerBuilder {
    shards: u32,
    options: PersistOptions,
    cache_capacity: usize,
    root: Option<PathBuf>,
    recovery_threads: usize,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder::new()
    }
}

impl ServerBuilder {
    /// A single-shard, in-memory server with unbounded caches.
    pub fn new() -> Self {
        ServerBuilder {
            shards: 1,
            options: PersistOptions::default(),
            cache_capacity: 0,
            root: None,
            recovery_threads: 1,
        }
    }

    /// Number of hash partitions of the live state (default 1).
    pub fn shards(mut self, shards: u32) -> Self {
        assert!(shards > 0, "a server needs at least one shard");
        self.shards = shards;
        self
    }

    /// Every persistence setting: fsync/commit policy, segment size,
    /// snapshot thresholds, retention, the filesystem, and the metrics
    /// registry and flight recorder the server and its stores record
    /// into (see [`PersistOptions`]).
    pub fn options(mut self, options: PersistOptions) -> Self {
        self.options = options;
        self
    }

    /// Maximum cached programs per cache shard; 0 (the default) is
    /// unbounded. Full caches evict the oldest-inserted program first —
    /// deterministically, so transcripts stay reproducible.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Persist under this root directory: one store per shard in
    /// `shard-<k>/` subdirectories, whatever the shard count.
    pub fn persist_at(mut self, root: impl Into<PathBuf>) -> Self {
        self.root = Some(root.into());
        self
    }

    /// Worker threads for parallel per-shard recovery in
    /// [`ServerBuilder::recover_or_create`] (default 1).
    pub fn recovery_threads(mut self, threads: usize) -> Self {
        self.recovery_threads = threads.max(1);
        self
    }

    fn server<L: Llm>(
        &self,
        net: ShardedNetwork,
        stores: Vec<ShardPersistence>,
        sessions: Vec<Session<L>>,
    ) -> Server<L> {
        Server {
            caches: (0..self.shards)
                .map(|_| ProgramCache::with_capacity(self.cache_capacity))
                .collect(),
            net,
            sessions,
            stores,
            merged: None,
            degraded: None,
            degraded_cause: None,
            registry: self.options.registry.clone(),
            tracer: self.options.tracer.clone(),
            metrics: ServeMetrics::register(&self.options.registry, self.shards),
        }
    }

    /// Builds a server over a **fresh** initial state. With a persistence
    /// root, the stores are created — an occupied directory is refused
    /// (recover it with [`ServerBuilder::recover_or_create`] instead of
    /// silently shadowing it), and so is a layout this build does not
    /// open ([`ServeError::Layout`]).
    pub fn build<L: Llm>(
        self,
        live: LiveNetwork,
        sessions: Vec<Session<L>>,
    ) -> Result<Server<L>, ServeError> {
        let net = ShardedNetwork::from_live(&live, self.shards)?;
        let stores = match &self.root {
            Some(root) => shard_persist::create_sharded(root, &self.options, &net)?,
            None => Vec::new(),
        };
        Ok(self.server(net, stores, sessions))
    }

    /// Recovers the server's state from the persistence root — every
    /// shard independently, in parallel over
    /// [`ServerBuilder::recovery_threads`] — or creates it fresh from
    /// `init()` when no shard holds a store yet. Returns one
    /// [`RecoveryReport`] per shard. A root written with a different
    /// shard count, or in the single-shard layout that predates
    /// `shard-<k>/`, is refused without being touched.
    pub fn recover_or_create<L: Llm>(
        self,
        sessions: Vec<Session<L>>,
        init: impl FnOnce() -> LiveNetwork,
    ) -> Result<(Server<L>, Vec<RecoveryReport>), ServeError> {
        let Some(root) = &self.root else {
            return Err(ServeError::Storage(
                "recover_or_create needs a persistence root (persist_at)".to_string(),
            ));
        };
        let (net, stores, reports) = shard_persist::recover_or_create_sharded(
            root,
            &self.options,
            self.shards,
            self.recovery_threads,
            init,
        )?;
        Ok((self.server(net, stores, sessions), reports))
    }
}

/// The serving loop.
pub struct Server<L: Llm> {
    net: ShardedNetwork,
    /// One cache per shard; a query hashes to its cache shard by text.
    caches: Vec<ProgramCache>,
    sessions: Vec<Session<L>>,
    /// One store per shard (`root/shard-<k>/`); empty when in memory.
    stores: Vec<ShardPersistence>,
    /// Memoized merged view and the global epoch it reflects (multi-shard
    /// servers only; a single shard serves its partition directly).
    merged: Option<(Epoch, LiveNetwork)>,
    /// Set once a store's write path is poisoned: `(poisoned shard, epoch
    /// through which that store is known durable)`. The server is then in
    /// **degraded read-only mode** — mutations come back as
    /// [`ServeError::Degraded`] / [`Response::Degraded`] while queries
    /// keep answering from the in-memory state. The epoch is the poisoned
    /// shard's local one (the global epoch on a single shard).
    degraded: Option<(Option<u32>, u64)>,
    /// The rendering of the first [`nemo_store::StoreError`] that poisoned
    /// the write path, captured when `degraded` was set — so degraded
    /// responses can tell an operator *why* (fsyncgate vs ENOSPC) without
    /// shell access to the store directory.
    degraded_cause: Option<String>,
    /// The metrics registry every subsystem under this server records
    /// into — the one carried by [`PersistOptions::registry`].
    registry: Registry,
    /// The flight recorder request traces are captured into — the one
    /// carried by [`PersistOptions::tracer`], shared with every attached
    /// store. Disabled (all no-ops) unless the builder installed an
    /// enabled tracer.
    tracer: Tracer,
    /// The serving layer's own metric handles.
    metrics: ServeMetrics,
}

impl<L: Llm> Server<L> {
    /// The per-shard durable storage handles; empty for an in-memory
    /// server.
    pub fn shard_persistence(&self) -> &[ShardPersistence] {
        &self.stores
    }

    /// The flight recorder this server records request traces into — the
    /// one carried by [`PersistOptions::tracer`]. Snapshot it with
    /// [`Tracer::to_doc`] / [`Tracer::to_chrome`], or ask the server
    /// itself via [`Request::Trace`].
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Enters degraded read-only mode if the store behind `err` is
    /// actually poisoned — the ground truth is the store's own poison
    /// flag, not the error's shape (rolled-back faults surface errors
    /// without poisoning anything). Returns `err` unchanged either way.
    fn note_storage_failure(&mut self, err: ServeError) -> ServeError {
        if self.degraded.is_none() {
            let mut cause = None;
            self.degraded = self.stores.iter().enumerate().find_map(|(k, s)| {
                s.store().poisoned().map(|poison| {
                    cause = Some(poison.to_string());
                    (Some(k as u32), s.store().durable_epoch().unwrap_or(0))
                })
            });
            if self.degraded.is_some() {
                self.degraded_cause = cause;
                self.metrics.degraded_transitions.inc();
                // Fallback error tag: the store usually tagged the exact
                // fsync span already (first tag wins), but a poisoning
                // failure surfaced without one still marks the request.
                if let Some(cause) = &self.degraded_cause {
                    self.tracer.tag_error(cause);
                }
            }
        }
        err
    }

    /// The [`ServeError::Degraded`] rejection for the current degraded
    /// state; callers check `self.degraded` first.
    fn degraded_error(&self) -> ServeError {
        let (shard, last_durable_epoch) = self.degraded.expect("caller checked degraded state");
        ServeError::Degraded {
            shard,
            last_durable_epoch,
            cause: self.degraded_cause.clone().unwrap_or_default(),
        }
    }

    /// Fsyncs every attached store (a batch boundary). In degraded mode
    /// this is a no-op `Ok`: nothing new was logged, and failing would
    /// abort schedules that queries can still serve.
    pub(crate) fn sync_persistence(&mut self) -> Result<(), ServeError> {
        if self.degraded.is_some() {
            return Ok(());
        }
        // One physical span for the whole batch-boundary flush, whatever
        // the shard count — the skeleton must not reveal the layout.
        let _flush_span = self.tracer.span("sync.flush", Class::Physical);
        let result = self
            .stores
            .iter_mut()
            .enumerate()
            .try_for_each(|(k, store)| store.sync().map_err(|e| e.with_shard(k as u32, None)));
        result.map_err(|e| self.note_storage_failure(e))
    }

    /// Executes up to `max_removals` deferred store removals (snapshot
    /// pruning, WAL compaction) across every attached store. Installing a
    /// snapshot defers all deletions; the serving loop pays for them
    /// here — at batch boundaries — so `append` never waits on the
    /// filesystem.
    pub fn sweep_persistence(&mut self, max_removals: usize) -> Result<(), ServeError> {
        if self.degraded.is_some() {
            return Ok(());
        }
        // As with sync.flush: one span over every shard's sweep.
        let _sweep_span = self.tracer.span("sweep.flush", Class::Physical);
        let result = self
            .stores
            .iter_mut()
            .enumerate()
            .try_for_each(|(k, store)| {
                store
                    .sweep(max_removals)
                    .map(|_| ())
                    .map_err(|e| e.with_shard(k as u32, None))
            });
        result.map_err(|e| self.note_storage_failure(e))
    }

    /// The sharded live state (routing, epoch vector, global epoch).
    pub fn network(&self) -> &ShardedNetwork {
        &self.net
    }

    /// The merged view of the live state at the current global epoch —
    /// byte-identical to what an unsharded network would hold. Memoized
    /// per epoch; a single-shard server returns its partition directly.
    pub fn merged_view(&mut self) -> &LiveNetwork {
        let epoch = self.net.global_epoch();
        self.ensure_merged(epoch);
        self.current_view()
    }

    /// Cache counters summed over every cache shard.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for cache in &self.caches {
            let stats = cache.stats();
            total.answer_hits += stats.answer_hits;
            total.program_hits += stats.program_hits;
            total.misses += stats.misses;
            total.invalidated += stats.invalidated;
            total.evictions += stats.evictions;
        }
        total
    }

    /// The server's observable counters (shards, epoch vector, caches),
    /// plus the full `nemo-metrics/v1` document from the registry. Gauges
    /// that mirror derived state — global epoch, per-shard epochs and
    /// durability lag, cache counters — are sampled here, so the document
    /// is current as of the call.
    pub(crate) fn stats(&self) -> StatsReport {
        let cache = self.cache_stats();
        let epochs = self.net.epoch_vector();
        self.metrics
            .global_epoch
            .set(self.net.global_epoch() as i64);
        self.metrics.sample_cache(cache);
        self.metrics
            .slow_requests
            .set(self.tracer.slow_total() as i64);
        for (k, gauge) in self.metrics.shard_epochs.iter().enumerate() {
            gauge.set(epochs.get(k).copied().unwrap_or(0) as i64);
        }
        for (k, gauge) in self.metrics.shard_lags.iter().enumerate() {
            let local = epochs.get(k).copied().unwrap_or(0);
            // No store: nothing to lag behind.
            let durable = self
                .stores
                .get(k)
                .map_or(local, |s| s.store().durable_epoch().unwrap_or(0));
            gauge.set(local.saturating_sub(durable) as i64);
        }
        let metrics = JsonValue::parse(&self.registry.snapshot().to_json())
            .expect("registry snapshots serialize to valid JSON");
        StatsReport {
            shards: self.net.shards(),
            global_epoch: self.net.global_epoch(),
            epochs,
            cache,
            metrics,
        }
    }

    /// The cached program for a query on a backend, if any.
    pub fn cached_program(&self, query: &str, backend: Backend) -> Option<&str> {
        let ci = shard_of(query, self.net.shards()) as usize;
        self.caches[ci].program(query, backend)
    }

    /// Applies one mutation; with persistence attached, the record is
    /// durably logged (and a snapshot taken when due) before the epoch is
    /// acknowledged. Returns the **global** epoch. Maintains the logical
    /// apply/reject counters — every serving-path mutation funnels through
    /// here. The recovery re-apply path ([`Server::apply_recorded`])
    /// deliberately bypasses the counters: a recovered mutation was
    /// already counted by the run that first applied it.
    pub(crate) fn apply_mutation(
        &mut self,
        at_ms: u64,
        mutation: Mutation,
    ) -> Result<Epoch, ServeError> {
        let result = self.apply_mutation_uncounted(at_ms, mutation);
        match &result {
            Ok(_) => self.metrics.mutations_applied.inc(),
            Err(ServeError::Conflict(_)) => self.metrics.mutations_rejected.inc(),
            Err(_) => {}
        }
        result
    }

    fn apply_mutation_uncounted(
        &mut self,
        at_ms: u64,
        mutation: Mutation,
    ) -> Result<Epoch, ServeError> {
        if self.degraded.is_some() {
            return Err(self.degraded_error());
        }
        // Logical span, emitted once per mutation before any validation:
        // the trace skeleton is shard-invariant even when the mutation
        // conflicts.
        let _route_span = self.tracer.span("mutate.route", Class::Logical);
        self.net.check_global(&mutation)?;
        let global = self.net.global_epoch() + 1;
        self.log_apply_snapshot(global, at_ms, mutation)?;
        Ok(global)
    }

    /// Applies a mutation that already carries its **global** epoch — the
    /// resume path after a jagged per-shard recovery, where the caller
    /// walks the deterministic stream and re-applies exactly the events
    /// some shard has not yet durably logged.
    pub fn apply_recorded(&mut self, global: Epoch, event: &TimedEvent) -> Result<(), ServeError> {
        if self.degraded.is_some() {
            return Err(self.degraded_error());
        }
        self.log_apply_snapshot(global, event.at_ms, Mutation::from_event(&event.event))
    }

    /// The write path every mutation shares: log the record to its owner
    /// shard's store *first* (WAL order: memory never runs ahead of the
    /// log), apply it to the owner partition at `global`, then install a
    /// snapshot when one is due. A storage failure that poisons the store
    /// flips the server into degraded mode.
    fn log_apply_snapshot(
        &mut self,
        global: Epoch,
        at_ms: u64,
        mutation: Mutation,
    ) -> Result<(), ServeError> {
        let k = self.net.route(&mutation);
        let record = WalRecord {
            epoch: self.net.local_epoch(k) + 1,
            at_ms,
            mutation,
        };
        if let Some(store) = self.stores.get_mut(k as usize) {
            if let Err(e) = store.log(&record, global) {
                return Err(self.note_storage_failure(e.with_shard(k, Some(global))));
            }
        }
        {
            let _apply_span = self.tracer.span("mutate.apply", Class::Physical);
            self.net.apply_at(global, &record.mutation)?;
        }
        if let Some(store) = self.stores.get_mut(k as usize) {
            if let Err(e) = store.maybe_snapshot(self.net.partition(k)) {
                return Err(self.note_storage_failure(e.with_shard(k, Some(global))));
            }
        }
        Ok(())
    }

    fn ensure_merged(&mut self, epoch: Epoch) {
        if self.net.shards() == 1 {
            return;
        }
        if !matches!(&self.merged, Some((e, _)) if *e == epoch) {
            self.merged = Some((epoch, self.net.merged()));
        }
    }

    fn current_view(&self) -> &LiveNetwork {
        served_view(&self.net, &self.merged)
    }

    /// Answers one query for one client through the cache hierarchy.
    ///
    /// Misses run the full pipeline (prompt → LLM → sandbox) via
    /// [`NetworkManager::serve_prompt`] over the merged view; program hits
    /// re-execute the cached code against the current merged state; answer
    /// hits return the cached outcome untouched. Failures never enter the
    /// *program* cache — only a negatively cached error reply scoped to
    /// the current global epoch — so the same request at the same state
    /// repeats the error cheaply, and the first request after a mutation
    /// retries the model for real.
    pub(crate) fn handle_query(&mut self, client: usize, query: &str) -> Reply {
        // Every reply counts — including the error reply for an unknown
        // client, which is just as much a function of the request stream.
        let _timer = self.registry.span("query", &self.metrics.query_micros);
        let reply = self.handle_query_uncounted(client, query);
        self.metrics.queries_answered.inc();
        reply
    }

    fn handle_query_uncounted(&mut self, client: usize, query: &str) -> Reply {
        let epoch = self.net.global_epoch();
        // An unknown client gets an error reply, not a panic: one bad
        // request must not take down the serving loop.
        let Some(si) = self.sessions.iter().position(|s| s.client == client) else {
            return Reply {
                client,
                backend: Backend::Strawman,
                query: query.to_string(),
                epoch,
                cache: CacheOutcome::Miss,
                answer: format!("error: no session for client {client}"),
            };
        };
        let backend = self.sessions[si].backend;
        let ci = shard_of(query, self.net.shards()) as usize;
        // Logical span: the probe's outcome is a pure function of the
        // request stream, so it belongs to the deterministic skeleton.
        let lookup = {
            let _cache_span = self.tracer.span("query.cache", Class::Logical);
            self.caches[ci].lookup(query, backend, epoch)
        };
        let (cache, answer) = match lookup {
            Lookup::Answer(_outcome, rendered) => (CacheOutcome::AnswerHit, rendered.to_string()),
            Lookup::Program(program) => {
                self.ensure_merged(epoch);
                let _execute_span = self.tracer.span("query.execute", Class::Physical);
                let state = self.current_view().state(backend);
                match execute_code(backend, &program, &state) {
                    Ok(outcome) => {
                        let answer = self.caches[ci].insert_answer(query, backend, epoch, outcome);
                        (CacheOutcome::ProgramHit, answer.to_string())
                    }
                    Err(e) => {
                        // The stored program no longer runs against the
                        // current state: evict it so the next request
                        // after invalidation consults the model again.
                        self.caches[ci].evict_program(query, backend);
                        let answer = format!("error: {e}");
                        self.caches[ci].insert_error(query, backend, epoch, &answer);
                        (CacheOutcome::ProgramHit, answer)
                    }
                }
            }
            Lookup::Miss => {
                self.ensure_merged(epoch);
                let _compile_span = self.tracer.span("query.compile", Class::Physical);
                // Field-level split: the view (net/merged) is borrowed
                // immutably while the session's model is borrowed mutably.
                let Server {
                    net,
                    merged,
                    sessions,
                    caches,
                    ..
                } = self;
                let live = served_view(net, merged);
                let prompt = codegen_prompt(live, backend, query);
                let state = live.state(backend);
                let mut manager = NetworkManager::new(live, &mut sessions[si].llm);
                let (response, result) = manager.serve_prompt(&prompt, &state);
                match result {
                    Ok(outcome) => {
                        if let Some(code) = extract_code(&response.text) {
                            caches[ci].insert_program(query, backend, code);
                        }
                        let answer = caches[ci].insert_answer(query, backend, epoch, outcome);
                        (CacheOutcome::Miss, answer.to_string())
                    }
                    Err(reason) => {
                        let answer = format!("error: {reason}");
                        caches[ci].insert_error(query, backend, epoch, &answer);
                        (CacheOutcome::Miss, answer)
                    }
                }
            }
        };
        Reply {
            client,
            backend,
            query: query.to_string(),
            epoch,
            cache,
            answer,
        }
    }

    /// Handles one typed request.
    ///
    /// A mutation *conflict* is part of normal operation and comes back as
    /// [`Response::Rejected`] — but a storage or corruption error from the
    /// durable log is not: rendering it as "rejected" would make a dying
    /// disk indistinguishable from a benign duplicate, so those propagate
    /// as errors instead. The *first* poisoning failure therefore
    /// surfaces loudly as an error (and flips the server into degraded
    /// read-only mode); every mutation after that comes back as
    /// [`Response::Degraded`] while queries keep answering.
    pub fn handle(&mut self, request: &Request) -> Result<Response, ServeError> {
        // Mint the request's trace root; every span below (routing, cache,
        // WAL, fsync, group commit) hangs off it. A no-op when the tracer
        // is disabled.
        let _trace = self.tracer.begin(match request {
            Request::Mutate { .. } => "request.mutate",
            Request::Query { .. } => "request.query",
            Request::Sync => "request.sync",
            Request::Stats => "request.stats",
            Request::Trace { .. } => "request.trace",
        });
        match request {
            Request::Mutate { at_ms, mutation } => {
                self.metrics.requests_mutate.inc();
                let _timer = self.registry.span("mutate", &self.metrics.mutate_micros);
                match self.apply_mutation(*at_ms, mutation.clone()) {
                    Ok(epoch) => Ok(Response::Mutated {
                        epoch,
                        at_ms: *at_ms,
                        description: mutation.describe(),
                    }),
                    Err(e @ ServeError::Conflict(_)) => Ok(Response::Rejected {
                        epoch: self.net.global_epoch(),
                        at_ms: *at_ms,
                        reason: e.to_string(),
                    }),
                    // A degraded server stays up: the rejection is part of
                    // normal (read-only) operation, rendered as a typed
                    // response so schedules keep running and queries keep
                    // answering.
                    Err(ServeError::Degraded {
                        shard,
                        last_durable_epoch,
                        cause,
                    }) => Ok(Response::Degraded {
                        epoch: self.net.global_epoch(),
                        at_ms: *at_ms,
                        shard,
                        last_durable_epoch,
                        cause,
                    }),
                    Err(storage_or_corrupt) => Err(storage_or_corrupt),
                }
            }
            Request::Query { client, query } => {
                self.metrics.requests_query.inc();
                Ok(Response::Answered(self.handle_query(*client, query)))
            }
            Request::Sync => {
                self.metrics.requests_sync.inc();
                let _timer = self.registry.span("sync", &self.metrics.sync_micros);
                self.sync_persistence()?;
                Ok(Response::Synced)
            }
            Request::Stats => {
                self.metrics.requests_stats.inc();
                Ok(Response::Stats(self.stats()))
            }
            Request::Trace { last_n } => {
                self.metrics.requests_trace.inc();
                // Snapshotted while this request's own trace is still
                // open, so the answer never includes itself.
                let doc = JsonValue::parse(&self.tracer.to_doc(*last_n as usize))
                    .expect("trace documents serialize to valid JSON");
                Ok(Response::Trace { doc })
            }
        }
    }
}

/// The view queries are answered from: partition 0 itself on a single
/// shard — a borrow, never a copy, so the read path copies no state — and
/// the merged view [`Server::ensure_merged`] memoized otherwise. Takes the
/// fields rather than the server so a caller can hold the view while
/// borrowing a session mutably.
fn served_view<'a>(
    net: &'a ShardedNetwork,
    merged: &'a Option<(Epoch, LiveNetwork)>,
) -> &'a LiveNetwork {
    if net.shards() == 1 {
        &net.partition(0).live
    } else {
        &merged.as_ref().expect("ensure_merged refreshed the view").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_core::ScriptedLlm;
    use trafficgen::{generate, NetEvent, TrafficConfig};

    fn live() -> LiveNetwork {
        LiveNetwork::from_workload(&generate(&TrafficConfig {
            nodes: 10,
            edges: 14,
            prefixes: 2,
            seed: 9,
        }))
    }

    fn scripted(replies: usize) -> ScriptedLlm {
        // The same correct program every time it is actually consulted.
        ScriptedLlm::new(
            "scripted",
            vec!["```graphscript\nresult = G.number_of_edges()\n```".to_string(); replies],
        )
    }

    /// The crate-private apply path, fed one stream event.
    fn apply<L: Llm>(server: &mut Server<L>, event: &TimedEvent) -> Result<Epoch, ServeError> {
        server.apply_mutation(event.at_ms, Mutation::from_event(&event.event))
    }

    fn server_with(shards: u32, llm: ScriptedLlm) -> Server<ScriptedLlm> {
        ServerBuilder::new()
            .shards(shards)
            .build(
                live(),
                vec![Session {
                    client: 0,
                    backend: Backend::NetworkX,
                    llm,
                }],
            )
            .expect("in-memory build")
    }

    #[test]
    fn cache_hierarchy_hit_path() {
        // The same behavioural contract at every shard count.
        for shards in [1u32, 4] {
            let mut server = server_with(shards, scripted(8));
            let q = "How many edges are there?";
            let first = server.handle_query(0, q);
            assert_eq!(first.cache, CacheOutcome::Miss);
            assert_eq!(first.answer, "14");
            let second = server.handle_query(0, q);
            assert_eq!(second.cache, CacheOutcome::AnswerHit);
            assert_eq!(second.answer, first.answer);
            assert!(server
                .cached_program(q, Backend::NetworkX)
                .unwrap()
                .contains("number_of_edges"));

            // A mutation bumps the global epoch: next request re-executes
            // the cached program over the *new* merged state without
            // touching the model.
            let flow = trafficgen::Flow {
                source: trafficgen::Ipv4::new(203, 0, 0, 1),
                target: trafficgen::Ipv4::new(203, 0, 0, 2),
                bytes: 10,
                connections: 1,
                packets: 1,
            };
            for endpoint in [flow.source, flow.target] {
                apply(
                    &mut server,
                    &TimedEvent {
                        at_ms: 1,
                        event: NetEvent::NewEndpoint { endpoint },
                    },
                )
                .unwrap();
            }
            apply(
                &mut server,
                &TimedEvent {
                    at_ms: 2,
                    event: NetEvent::NewFlow { flow },
                },
            )
            .unwrap();
            let third = server.handle_query(0, q);
            assert_eq!(third.cache, CacheOutcome::ProgramHit, "shards={shards}");
            assert_eq!(third.answer, "15");
            let stats = server.cache_stats();
            assert_eq!(stats.misses, 1);
            assert_eq!(stats.answer_hits, 1);
            assert_eq!(stats.program_hits, 1);
            assert_eq!(stats.invalidated, 1);
            // The model was consulted exactly once.
            let session_llm = &server.sessions[0].llm;
            assert_eq!(session_llm.prompts_seen.len(), 1);
        }
    }

    #[test]
    fn no_request_leaves_the_live_substrates_shared() {
        let program = |lang: &str, code: &str| format!("```{lang}\n{code}\n```");
        let session = |client, backend, replies: Vec<String>| Session {
            client,
            backend,
            llm: ScriptedLlm::new("scripted", replies),
        };
        let mut server = ServerBuilder::new()
            .build(
                live(),
                vec![
                    session(
                        0,
                        Backend::NetworkX,
                        vec![
                            program("graphscript", "result = G.number_of_edges()"),
                            program("graphscript", "result = G.frobnicate()"),
                        ],
                    ),
                    // A program that writes its frames gets private copies.
                    session(
                        1,
                        Backend::Pandas,
                        vec![program(
                            "graphscript",
                            "edges.delete_rows(\"bytes\", \"<\", 0)\nresult = edges.n_rows()",
                        )],
                    ),
                    session(
                        2,
                        Backend::Sql,
                        vec![program("sql", "SELECT COUNT(*) AS n FROM edges;")],
                    ),
                ],
            )
            .expect("in-memory build");
        // Every substrate is held by the live network alone, so a mutation
        // writes in place: the addresses survive it.
        let unshared = |server: &Server<ScriptedLlm>, context: &str| {
            let handles = server.net.partition(0).live.substrate_handles();
            for (count, _) in handles {
                assert_eq!(count, 1, "{context}: a substrate is still shared");
            }
            handles
        };
        let mutate = |server: &mut Server<ScriptedLlm>, octet: u8| {
            let before = unshared(server, "before a mutation");
            apply(
                server,
                &TimedEvent {
                    at_ms: u64::from(octet),
                    event: NetEvent::NewEndpoint {
                        endpoint: trafficgen::Ipv4::new(203, 0, 0, octet),
                    },
                },
            )
            .unwrap();
            assert_eq!(unshared(server, "after a mutation"), before);
        };
        let q = "How many edges are there?";
        let expect = |server: &mut Server<ScriptedLlm>, client, query, cache| {
            let reply = server.handle_query(client, query);
            assert_eq!(reply.cache, cache, "client {client}: {}", reply.answer);
            unshared(server, &format!("client {client} {cache:?}"));
            reply
        };
        for client in 0..3 {
            let first = expect(&mut server, client, q, CacheOutcome::Miss);
            assert!(first.answer.contains("14"), "{}", first.answer);
            expect(&mut server, client, q, CacheOutcome::AnswerHit);
        }
        let error = expect(&mut server, 0, "How many nodes?", CacheOutcome::Miss);
        assert!(error.answer.starts_with("error:"));
        mutate(&mut server, 1);
        for client in 0..3 {
            let rerun = expect(&mut server, client, q, CacheOutcome::ProgramHit);
            assert!(rerun.answer.contains("14"), "{}", rerun.answer);
        }
        mutate(&mut server, 2);
    }

    #[test]
    fn unknown_clients_get_an_error_reply_not_a_panic() {
        let mut server = server_with(1, scripted(1));
        let reply = server.handle_query(7, "How many edges are there?");
        assert!(reply.answer.contains("no session for client 7"));
        assert_eq!(reply.client, 7);
        // The serving loop is still alive.
        assert_eq!(
            server.handle_query(0, "How many edges are there?").answer,
            "14"
        );
    }

    #[test]
    fn transcript_lines_are_deterministic_and_shard_invariant() {
        let q = "How many edges are there?".to_string();
        let request = Request::Query {
            client: 0,
            query: q,
        };
        let run = |shards: u32| {
            let mut server = server_with(shards, scripted(4));
            (0..2)
                .map(|_| {
                    let response = server.handle(&request).expect("no persistence");
                    response.transcript_line().expect("queries render a line")
                })
                .collect::<Vec<_>>()
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a, b);
        assert!(a[0].contains("miss"));
        assert!(a[1].contains("hit"));
        // The same transcript at any shard count.
        for shards in [2, 4] {
            assert_eq!(run(shards), a, "shards={shards}");
        }
    }

    #[test]
    fn programs_that_stop_running_are_evicted_and_retried() {
        // The model first writes a program tied to a specific edge; once a
        // mutation removes that edge the cached program starts failing, is
        // evicted, and the next post-mutation request goes back to the
        // model instead of replaying the failure forever.
        let workload = generate(&TrafficConfig {
            nodes: 10,
            edges: 14,
            prefixes: 2,
            seed: 9,
        });
        let flow = workload.flows[0].clone();
        let (s, t) = (
            flow.source.to_string_dotted(),
            flow.target.to_string_dotted(),
        );
        let fragile =
            format!("```graphscript\nresult = G.get_edge_attr(\"{s}\", \"{t}\", \"bytes\")\n```");
        let mut server = ServerBuilder::new()
            .shards(3)
            .build(
                LiveNetwork::from_workload(&workload),
                vec![Session {
                    client: 0,
                    backend: Backend::NetworkX,
                    llm: ScriptedLlm::new(
                        "adaptive",
                        vec![
                            fragile,
                            "```graphscript\nresult = G.number_of_edges()\n```".to_string(),
                        ],
                    ),
                }],
            )
            .expect("in-memory build");
        let q = "How many bytes on the first flow?";
        assert_eq!(server.handle_query(0, q).cache, CacheOutcome::Miss);
        apply(
            &mut server,
            &TimedEvent {
                at_ms: 1,
                event: NetEvent::DropFlow {
                    source: flow.source,
                    target: flow.target,
                },
            },
        )
        .unwrap();
        // Cached program now fails against the mutated state: reported as
        // an error, program evicted.
        let broken = server.handle_query(0, q);
        assert_eq!(broken.cache, CacheOutcome::ProgramHit);
        assert!(broken.answer.starts_with("error:"));
        assert!(server.cached_program(q, Backend::NetworkX).is_none());
        // After the next mutation the request is a true miss: the model is
        // consulted again and the new program succeeds.
        apply(
            &mut server,
            &TimedEvent {
                at_ms: 2,
                event: NetEvent::NewEndpoint {
                    endpoint: trafficgen::Ipv4::new(203, 0, 0, 7),
                },
            },
        )
        .unwrap();
        let healed = server.handle_query(0, q);
        assert_eq!(healed.cache, CacheOutcome::Miss);
        assert_eq!(healed.answer, "13");
    }

    #[test]
    fn failures_are_negatively_cached_and_retried_after_mutations() {
        let mut server = ServerBuilder::new()
            .build(
                live(),
                vec![Session {
                    client: 0,
                    backend: Backend::NetworkX,
                    llm: ScriptedLlm::new(
                        "flaky",
                        vec![
                            "```graphscript\nresult = G.frobnicate()\n```".to_string(),
                            "```graphscript\nresult = G.number_of_nodes()\n```".to_string(),
                        ],
                    ),
                }],
            )
            .expect("in-memory build");
        let q = "How many nodes are there?";
        let bad = server.handle_query(0, q);
        assert_eq!(bad.cache, CacheOutcome::Miss);
        assert!(bad.answer.starts_with("error:"));
        // Same state, same request: the error itself is the cached answer;
        // the model is not consulted again.
        let repeat = server.handle_query(0, q);
        assert_eq!(repeat.cache, CacheOutcome::AnswerHit);
        assert_eq!(repeat.answer, bad.answer);
        // A mutation invalidates the negative entry; with no program
        // cached, the retry consults the model for real and succeeds.
        apply(
            &mut server,
            &TimedEvent {
                at_ms: 1,
                event: NetEvent::NewEndpoint {
                    endpoint: trafficgen::Ipv4::new(203, 0, 0, 9),
                },
            },
        )
        .unwrap();
        let good = server.handle_query(0, q);
        assert_eq!(good.cache, CacheOutcome::Miss);
        assert_eq!(good.answer, "11");
        assert!(server.cached_program(q, Backend::NetworkX).is_some());
    }

    #[test]
    fn a_poisoned_write_path_degrades_to_read_only_serving() {
        use nemo_store::{FaultFs, FaultKind, Vfs};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("nemo-server-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let event = |at_ms: u64, i: u8| TimedEvent {
            at_ms,
            event: NetEvent::NewEndpoint {
                endpoint: trafficgen::Ipv4::new(203, 0, 0, i),
            },
        };
        let options = || PersistOptions {
            fsync: crate::FsyncPolicy::EveryRecord,
            ..PersistOptions::default()
        };
        let build = |vfs: Arc<dyn Vfs>, root: &std::path::Path| {
            ServerBuilder::new()
                .options(PersistOptions { vfs, ..options() })
                .persist_at(root)
                .build(
                    live(),
                    vec![Session {
                        client: 0,
                        backend: Backend::NetworkX,
                        llm: scripted(4),
                    }],
                )
                .expect("fresh build")
        };
        // Calibrate: count the filesystem ops through create + the first
        // applied record, with a fault that can never fire.
        let calibrate = FaultFs::new(FaultKind::FailedFsync, u64::MAX);
        let mut server = build(Arc::new(calibrate.clone()), &dir);
        apply(&mut server, &event(1, 1)).unwrap();
        let cut = calibrate.ops();
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();

        // Same run with the first fsync past the cut failing: that is the
        // commit fsync of the SECOND record, so record 1 is durable and
        // record 2 must be refused — fsyncgate, never retried.
        let fault = FaultFs::new(FaultKind::FailedFsync, cut);
        let mut server = build(Arc::new(fault.clone()), &dir);
        apply(&mut server, &event(1, 1)).unwrap();
        let err = apply(&mut server, &event(2, 2)).unwrap_err();
        assert!(
            matches!(&err, ServeError::Store { .. }),
            "first failure is loud and typed: {err:?}"
        );
        assert!(!err.retryable());
        assert!(fault.injection().is_some(), "the fault fired: {fault:?}");
        assert_eq!(
            server.degraded,
            Some((Some(0), 1)),
            "poisoned store => degraded at the last durable epoch"
        );
        // Mutations now come back as typed degraded responses (no error,
        // no epoch consumed)...
        let response = server.handle(&Request::from(&event(3, 3))).unwrap();
        match response {
            Response::Degraded {
                epoch,
                at_ms,
                shard,
                last_durable_epoch,
                cause,
            } => {
                assert_eq!(
                    (epoch, at_ms, shard, last_durable_epoch),
                    (1, 3, Some(0), 1)
                );
                // The cause names the poisoning operation (here the failed
                // commit fsync), so fsyncgate is distinguishable from
                // ENOSPC at the protocol surface.
                assert!(cause.contains("fsync"), "cause names the op: {cause:?}");
            }
            other => panic!("expected a degraded response, got {other:?}"),
        }
        // ...boundaries are no-ops instead of aborts...
        server.sync_persistence().unwrap();
        server.sweep_persistence(usize::MAX).unwrap();
        // ...and queries keep answering from the in-memory state (which
        // includes applied epoch 1, but not the refused record 2).
        let reply = server.handle_query(0, "How many edges are there?");
        assert_eq!(reply.answer, "14");
        assert_eq!(reply.epoch, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_servers_started_past_epoch_zero_recover_at_every_shard_count() {
        // The network handed to the builder already sits at epoch 40: a
        // single partition keeps that epoch as its local one, and its
        // store logs from 41 on.
        let workload = generate(&TrafficConfig {
            nodes: 10,
            edges: 14,
            prefixes: 2,
            seed: 9,
        });
        let events = trafficgen::evolve(
            &workload,
            &trafficgen::StreamConfig {
                events: 60,
                seed: 3,
            },
        );
        let mut reference = LiveNetwork::from_workload(&workload);
        for event in &events[..40] {
            reference.apply_event(event).unwrap();
        }
        let start = reference.clone();
        for event in &events[40..] {
            reference.apply_event(event).unwrap();
        }
        for shards in [1u32, 3] {
            let root = std::env::temp_dir().join(format!(
                "nemo-server-past-zero-{shards}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let builder = || {
                ServerBuilder::new()
                    .shards(shards)
                    .options(PersistOptions {
                        snapshot_every_epochs: 7,
                        ..PersistOptions::default()
                    })
                    .persist_at(&root)
            };
            let mut server = builder()
                .build::<ScriptedLlm>(start.clone(), Vec::new())
                .unwrap();
            for event in &events[40..] {
                apply(&mut server, event).unwrap();
            }
            server.sync_persistence().unwrap();
            drop(server);
            let (mut recovered, _) = builder()
                .recover_or_create::<ScriptedLlm>(Vec::new(), || unreachable!())
                .unwrap();
            assert_eq!(recovered.network().global_epoch(), 60, "shards={shards}");
            assert!(*recovered.merged_view() == reference, "shards={shards}");
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn typed_sync_and_stats_requests_work() {
        let mut server = server_with(2, scripted(2));
        assert_eq!(server.handle(&Request::Sync).unwrap(), Response::Synced);
        let Response::Stats(stats) = server.handle(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.epochs, vec![0, 0]);
        assert_eq!(stats.global_epoch, server.network().global_epoch());
        // The embedded metrics document is a schema-valid nemo-metrics/v1
        // doc covering every family, even for an in-memory server.
        crate::metrics::validate_metrics_doc(&stats.metrics).expect("stats doc validates");
    }

    #[test]
    fn logical_metrics_track_the_request_stream() {
        let mut server = server_with(2, scripted(4));
        let q = "How many edges are there?";
        server.handle_query(0, q);
        server.handle_query(0, q);
        apply(
            &mut server,
            &TimedEvent {
                at_ms: 1,
                event: NetEvent::NewEndpoint {
                    endpoint: trafficgen::Ipv4::new(203, 0, 0, 1),
                },
            },
        )
        .unwrap();
        // A duplicate endpoint is a conflict: rejected, no epoch consumed.
        let err = apply(
            &mut server,
            &TimedEvent {
                at_ms: 2,
                event: NetEvent::NewEndpoint {
                    endpoint: trafficgen::Ipv4::new(203, 0, 0, 1),
                },
            },
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Conflict(_)));
        let stats = server.stats();
        let JsonValue::Object(root) = &stats.metrics else {
            panic!("metrics doc is an object");
        };
        let Some(JsonValue::Object(metrics)) = root.get("metrics") else {
            panic!("doc has a metrics object");
        };
        for (name, want) in [
            ("serve_requests_query", 0.0), // direct handle_query calls are not typed requests
            ("serve_queries_answered", 2.0),
            ("serve_mutations_applied", 1.0),
            ("serve_mutations_rejected", 1.0),
            ("serve_global_epoch", 1.0),
        ] {
            let Some(JsonValue::Object(entry)) = metrics.get(name) else {
                panic!("{name} missing from the doc");
            };
            assert_eq!(
                entry.get("class"),
                Some(&JsonValue::String("logical".to_string())),
                "{name} is logical"
            );
            assert_eq!(
                entry.get("value"),
                Some(&JsonValue::Number(want)),
                "{name} tracks the stream"
            );
        }
    }
}
