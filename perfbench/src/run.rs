//! One client thread driving typed requests through `Server::handle` in a
//! closed loop: set-up, the timed request stream, per-round correctness
//! checks, and crash recovery.
//!
//! Only `Server::handle` calls and the batch-boundary sweep count as busy
//! time. The checks, the per-layer probes and the bookkeeping between
//! requests run outside it.

use crate::llm::{CountingLlm, LlmTally, Meter};
use crate::workload::{kind_of, Inputs, Spec, BACKENDS, SWEEP_BUDGET};
use nemo_core::llm::{profiles, CodeKnowledge, SimulatedLlm};
use nemo_core::sandbox::execute_code;
use nemo_serve::driver::serving_knowledge;
use nemo_serve::snapshot::write_snapshot;
use nemo_serve::{
    CacheOutcome, LiveNetwork, PersistOptions, Reply, Request, Response, ServeError, Server,
    ServerBuilder, Session, Tracer,
};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The model every session runs: the paper's simulated GPT-4, counted.
pub type Model = CountingLlm<SimulatedLlm>;

/// The simulated model's seed: which programs it gets wrong is a property
/// of the model, fixed across workload seeds.
const MODEL_SEED: u64 = 2023;

/// The server under test.
pub type Srv = Server<Model>;

/// When the timed stream stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After the round in which busy time reaches this long.
    Busy(Duration),
    /// After exactly this many rounds (the self-test).
    Rounds(usize),
}

/// Operations attempted and failed, with the first few failures spelled
/// out.
#[derive(Debug, Default)]
pub struct Checks {
    /// Requests sent plus correctness checks made.
    pub attempted: u64,
    /// Requests that errored or were refused, and checks that mismatched.
    pub failed: u64,
    /// The first failures, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    pub(crate) fn pass(&mut self) {
        self.attempted += 1;
    }

    pub(crate) fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }
}

/// FNV-1a over transcript lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn line(&mut self, text: &str) {
        for byte in text.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What the end of a round hands the per-layer probe.
pub struct RoundEnd<'a> {
    /// The round's query replies, in order.
    pub replies: &'a [Reply],
    /// Flight-recorder traces the round started (one per request, one
    /// per sweep).
    pub traces: usize,
    /// Busy time so far.
    pub busy: Duration,
}

/// Everything the timed stream measured.
#[derive(Debug, Default)]
pub struct Stream {
    /// Rounds completed.
    pub rounds: usize,
    /// Requests completed (mutations, syncs and queries).
    pub requests: u64,
    /// Time spent inside `Server::handle` and the batch-boundary sweeps.
    pub busy: Duration,
    /// True when the run used up the generated mutations before its limit.
    pub exhausted: bool,
    /// Latency of every mutate request, in nanoseconds.
    pub mutate_nanos: Vec<u64>,
    /// The same, split by mutation kind (`workload::MUTATION_KINDS`).
    pub mutate_kind_nanos: [Vec<u64>; 5],
    /// Latency of every query request.
    pub query_nanos: Vec<u64>,
    /// Latency of the queries answered from the answer cache.
    pub answer_hit_nanos: Vec<u64>,
    /// Latency of every sync request.
    pub sync_nanos: Vec<u64>,
    /// Duration of every batch-boundary sweep.
    pub sweep_nanos: Vec<u64>,
    /// Merged-view rebuilds the queries forced: on a multi-shard server,
    /// the first non-answer-hit query after each mutation batch.
    pub merges: u64,
    /// The LLM calls made during the stream.
    pub llm: LlmTally,
    /// Digest of every transcript line (`Response::transcript_line`).
    pub transcript: Digest,
    /// Digest of the same lines without the cache tag: equal across shard
    /// counts and cache bounds.
    pub answers: Digest,
}

impl Stream {
    /// Sends one request, counting it and its latency (in nanoseconds)
    /// as busy time.
    fn send(&mut self, server: &mut Srv, request: &Request) -> (Result<Response, ServeError>, u64) {
        let start = Instant::now();
        let response = server.handle(request);
        let took = start.elapsed();
        self.busy += took;
        self.requests += 1;
        (response, nanos(took))
    }
}

/// What crash recovery measured.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Wall time of each `recover_or_create`.
    pub seconds: Vec<f64>,
    /// WAL records replayed, summed over shards (first recovery).
    pub replayed_records: u64,
    /// Newest snapshot epoch recovered from, over shards (first recovery).
    pub snapshot_epoch: u64,
}

/// Builds, drives and recovers servers for one workload.
pub struct Harness<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    root: PathBuf,
    meter: Meter,
    tracer: Tracer,
    knowledge: Arc<CodeKnowledge>,
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

impl<'a> Harness<'a> {
    /// A harness keeping its stores under `root`. A `tracer` that is
    /// enabled makes this the traced run.
    pub fn new(spec: &'a Spec, inputs: &'a Inputs, root: PathBuf, tracer: Tracer) -> Self {
        Harness {
            spec,
            inputs,
            root,
            meter: Meter::default(),
            tracer,
            knowledge: Arc::new(serving_knowledge()),
        }
    }

    fn sessions(&self) -> Vec<Session<Model>> {
        BACKENDS
            .iter()
            .enumerate()
            .map(|(client, &backend)| Session {
                client,
                backend,
                llm: CountingLlm::new(
                    SimulatedLlm::new(
                        profiles::gpt4(),
                        Arc::clone(&self.knowledge),
                        MODEL_SEED ^ client as u64,
                    ),
                    self.meter.clone(),
                ),
            })
            .collect()
    }

    fn builder(&self) -> ServerBuilder {
        let builder = ServerBuilder::new()
            .shards(self.spec.shards)
            .options(PersistOptions {
                tracer: self.tracer.clone(),
                ..PersistOptions::default()
            })
            .cache_capacity(self.spec.cache_capacity)
            .recovery_threads(self.spec.recovery_threads);
        if self.spec.durable {
            builder.persist_at(&self.root)
        } else {
            builder
        }
    }

    /// Removes this harness's stores.
    pub fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }

    /// Set-up: generate the initial state, build the server (creating the
    /// stores and their genesis snapshots), and ask every `(query,
    /// backend)` pair once so the program cache is as warm as its bound
    /// allows. Returns the server and the set-up time.
    pub fn setup(&self, checks: &mut Checks) -> Result<(Srv, Duration), String> {
        self.clear();
        let start = Instant::now();
        let live = LiveNetwork::from_workload(&self.inputs.initial());
        let mut server = self
            .builder()
            .build(live, self.sessions())
            .map_err(|e| format!("building the server: {e}"))?;
        if self.spec.queries_per_round > 0 {
            for client in 0..BACKENDS.len() {
                for query in &self.inputs.queries {
                    let request = Request::Query {
                        client,
                        query: query.to_string(),
                    };
                    match server.handle(&request) {
                        Ok(Response::Answered(_)) => checks.pass(),
                        other => checks.fail(format!("warm query {query:?}: {other:?}")),
                    }
                }
            }
        }
        let elapsed = start.elapsed();
        // The warm pass's model calls belong to set-up, not to the stream.
        self.meter.take();
        Ok((server, elapsed))
    }

    /// Runs rounds of mutations (then a sync and a sweep on durable
    /// workloads) and queries until `limit`, checking one sampled reply per
    /// round. `probe` runs after each round, outside the busy time.
    pub fn run_stream(
        &self,
        server: &mut Srv,
        limit: Limit,
        checks: &mut Checks,
        mut probe: impl FnMut(&mut Srv, &RoundEnd),
    ) -> Stream {
        let spec = self.spec;
        let mut out = Stream::default();
        let mut next = 0;
        let mut replies = Vec::with_capacity(spec.queries_per_round);
        loop {
            match limit {
                Limit::Busy(budget) if out.busy >= budget => break,
                Limit::Rounds(rounds) if out.rounds >= rounds => break,
                _ => {}
            }
            let batch = next..next + spec.mutations_per_round;
            let Some(mutations) = self.inputs.mutations.get(batch) else {
                out.exhausted = true;
                break;
            };
            let sent_before = out.requests;
            for (i, request) in mutations.iter().enumerate() {
                let (response, took) = out.send(server, request);
                out.mutate_nanos.push(took);
                if let Request::Mutate { mutation, .. } = request {
                    out.mutate_kind_nanos[kind_of(mutation)].push(took);
                }
                match response {
                    Ok(response @ Response::Mutated { .. }) => {
                        let line = response.transcript_line().unwrap_or_default();
                        out.transcript.line(&line);
                        out.answers.line(&line);
                        checks.pass();
                    }
                    other => checks.fail(format!("mutation {}: {other:?}", next + i)),
                }
            }
            next += spec.mutations_per_round;
            if spec.durable {
                let (response, took) = out.send(server, &Request::Sync);
                out.sync_nanos.push(took);
                match response {
                    Ok(Response::Synced) => checks.pass(),
                    other => checks.fail(format!("sync after round {}: {other:?}", out.rounds)),
                }
                let start = Instant::now();
                let swept = {
                    // A trace root of the benchmark's own, so the server's
                    // existing `sweep.flush` span is recorded somewhere.
                    let _trace = server.tracer().begin("bench.sweep");
                    server.sweep_persistence(SWEEP_BUDGET)
                };
                let took = start.elapsed();
                out.busy += took;
                out.sweep_nanos.push(nanos(took));
                if let Err(e) = swept {
                    checks.fail(format!("sweep after round {}: {e}", out.rounds));
                }
            }
            replies.clear();
            let sampled = self.inputs.sampled(out.rounds, spec.queries_per_round);
            let mut merged = false;
            let queries = self
                .inputs
                .round_queries(out.rounds, spec.queries_per_round);
            for (k, (client, query)) in queries.into_iter().enumerate() {
                let request = Request::Query {
                    client,
                    query: query.to_string(),
                };
                let (response, took) = out.send(server, &request);
                out.query_nanos.push(took);
                let reply = match response {
                    Ok(Response::Answered(reply)) => reply,
                    other => {
                        checks.fail(format!("query {query:?}: {other:?}"));
                        continue;
                    }
                };
                checks.pass();
                let line = Response::Answered(reply.clone())
                    .transcript_line()
                    .unwrap_or_default();
                out.transcript.line(&line);
                out.answers.line(&format!(
                    "[e{}] client={} {} {:?} => {}",
                    reply.epoch, reply.client, reply.backend, reply.query, reply.answer
                ));
                if reply.cache == CacheOutcome::AnswerHit {
                    out.answer_hit_nanos.push(took);
                } else if spec.shards > 1 && !merged {
                    out.merges += 1;
                    merged = true;
                }
                if k == sampled {
                    check_reply(server, &reply, &replies, checks);
                }
                replies.push(reply);
            }
            out.rounds += 1;
            // One trace per request, plus the sweep's.
            let traces = (out.requests - sent_before) as usize + usize::from(spec.durable);
            probe(
                server,
                &RoundEnd {
                    replies: &replies,
                    traces,
                    busy: out.busy,
                },
            );
        }
        out.llm = self.meter.take();
        out
    }

    /// Drops the server without a final sync, then recovers its root
    /// `times` times, each time checking that recovery reached the acked
    /// global epoch and the exact pre-crash state.
    pub fn crash_and_recover(
        &self,
        mut server: Srv,
        times: usize,
        checks: &mut Checks,
    ) -> Recovery {
        let acked = server.network().global_epoch();
        let before = write_snapshot(server.merged_view());
        drop(server);
        let mut out = Recovery::default();
        for attempt in 0..times {
            let created = Cell::new(false);
            let start = Instant::now();
            let result = self.builder().recover_or_create(self.sessions(), || {
                created.set(true);
                LiveNetwork::from_workload(&self.inputs.initial())
            });
            out.seconds.push(start.elapsed().as_secs_f64());
            let (mut recovered, reports) = match result {
                Ok(found) => found,
                Err(e) => {
                    checks.fail(format!("recovery {attempt}: {e}"));
                    continue;
                }
            };
            if attempt == 0 {
                out.replayed_records = reports.iter().map(|r| r.replayed_records).sum();
                out.snapshot_epoch = reports.iter().map(|r| r.snapshot_epoch).max().unwrap_or(0);
            }
            let epoch = recovered.network().global_epoch();
            if created.get() {
                checks.fail(format!("recovery {attempt} found no store"));
            } else if epoch != acked {
                checks.fail(format!(
                    "recovery {attempt} reached epoch {epoch}, acked {acked}"
                ));
            } else if write_snapshot(recovered.merged_view()) != before {
                checks.fail(format!(
                    "recovery {attempt} state differs from the pre-crash state"
                ));
            } else {
                checks.pass();
            }
        }
        out
    }
}

/// Checks one reply against the sandbox run directly: its answer must
/// equal `execute_code` of the program the server cached for it, run
/// against the merged view at the same epoch. With no program cached the
/// answer must be an error reply, or an answer hit equal to the reply that
/// computed it earlier in the round (its program since evicted).
fn check_reply(server: &mut Srv, reply: &Reply, earlier: &[Reply], checks: &mut Checks) {
    let epoch = server.network().global_epoch();
    if reply.epoch != epoch {
        checks.fail(format!(
            "reply to {:?} at epoch {}, server at {epoch}",
            reply.query, reply.epoch
        ));
        return;
    }
    let program = server
        .cached_program(&reply.query, reply.backend)
        .map(str::to_string);
    let expected = match program {
        Some(program) => {
            let state = server.merged_view().state(reply.backend);
            match execute_code(reply.backend, &program, &state) {
                Ok(outcome) => outcome.value.render(),
                Err(e) => format!("error: {e}"),
            }
        }
        None if reply.answer.starts_with("error:") => reply.answer.clone(),
        None => match earlier
            .iter()
            .find(|r| r.backend == reply.backend && r.query == reply.query)
        {
            Some(first) if reply.cache == CacheOutcome::AnswerHit => first.answer.clone(),
            _ => {
                checks.fail(format!(
                    "{} reply to {:?} has no cached program",
                    reply.backend, reply.query
                ));
                return;
            }
        },
    };
    if expected == reply.answer {
        checks.pass();
    } else {
        checks.fail(format!(
            "{} reply to {:?} is {:?}, the sandbox says {:?}",
            reply.backend, reply.query, reply.answer, expected
        ));
    }
}
