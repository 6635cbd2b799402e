//! The traced run: per-layer numbers, measured from outside.
//!
//! The run drives the workload twice from fresh set-ups for the same
//! length: once with the tracer off and once with it on, which gives the
//! tracing overhead. During the traced half, after every round and outside
//! the busy time, it
//!
//! * reads the round's trace trees back from the server's flight recorder
//!   and sums each existing span's self time (duration minus children);
//! * every `stride` of busy time, times calls into the layers' public
//!   functions on the current state: `LiveNetwork::state`, the sandbox's
//!   `execute_code` (a no-op program and the cached one),
//!   `codegen_prompt`, and `ShardedNetwork::merged`.
//!
//! Counters come from `Server::cache_stats`, the `Request::Stats` metrics
//! document, the counting model wrapper and the recovery reports.

use crate::report::{median, percentile, Report};
use crate::run::{Checks, Harness, Limit, RoundEnd, Srv, Stream};
use crate::workload::{Inputs, Spec, BACKENDS, MUTATION_KINDS};
use nemo_core::prompt::codegen_prompt;
use nemo_core::sandbox::execute_code;
use nemo_core::Backend;
use nemo_obs::trace::Trace;
use nemo_serve::{Request, Response, Tracer};
use netgraph::json::JsonValue;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The spans the server already records, whose self time is reported.
pub const SPANS: [&str; 9] = [
    "mutate.route",
    "mutate.apply",
    "wal.log",
    "store.fsync",
    "query.cache",
    "query.compile",
    "query.execute",
    "sync.flush",
    "sweep.flush",
];

/// Completed traces the flight recorder keeps: more than any round
/// starts, so every round's traces are read before they are evicted.
const TRACE_CAPACITY: usize = 1024;

/// Outside-in samples per traced half, spread evenly over its busy time.
const PROBES: u32 = 16;

/// Registry counters read from the `Request::Stats` document.
const STORE_COUNTERS: [&str; 4] = [
    "store_bytes_written",
    "store_fsyncs",
    "store_full_snapshots_written",
    "store_delta_snapshots_written",
];

/// A program that reads nothing: executing it costs the sandbox's
/// copy-in and copy-out alone.
fn noop(backend: Backend) -> &'static str {
    match backend {
        Backend::Sql => "SELECT 1;",
        _ => "result = 0",
    }
}

struct Probe {
    stride: Duration,
    next: Duration,
    shards: u32,
    fallback_query: &'static str,
    samples: BTreeMap<String, Vec<f64>>,
    /// Span name → (self micros, occurrences).
    spans: BTreeMap<&'static str, (u64, u64)>,
}

impl Probe {
    fn time(&mut self, name: String, start: Instant) {
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples.entry(name).or_default().push(ms);
    }

    fn absorb(&mut self, trace: &Trace) {
        let mut children: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &trace.spans {
            if let Some(parent) = span.parent_id {
                *children.entry(parent).or_default() += span.duration_micros;
            }
        }
        for span in &trace.spans {
            if let Some(&name) = SPANS.iter().find(|&&name| name == span.name) {
                let own = children.get(&span.span_id).copied().unwrap_or(0);
                let entry = self.spans.entry(name).or_default();
                entry.0 += span.duration_micros.saturating_sub(own);
                entry.1 += 1;
            }
        }
    }

    fn round(&mut self, server: &mut Srv, end: &RoundEnd) {
        for trace in server.tracer().traces(end.traces) {
            self.absorb(&trace);
        }
        if end.busy < self.next {
            return;
        }
        self.next = end.busy + self.stride;
        for backend in BACKENDS {
            let query = end
                .replies
                .iter()
                .rev()
                .find(|reply| reply.backend == backend)
                .map_or(self.fallback_query.to_string(), |reply| reply.query.clone());
            let program = server.cached_program(&query, backend).map(str::to_string);
            let view = server.merged_view();
            let start = Instant::now();
            let state = black_box(view.state(backend));
            self.time(format!("live.state_ms.{backend}"), start);
            let start = Instant::now();
            drop(black_box(execute_code(backend, noop(backend), &state)));
            self.time(format!("sandbox.floor_ms.{backend}"), start);
            if let Some(program) = program {
                let start = Instant::now();
                drop(black_box(execute_code(backend, &program, &state)));
                self.time(format!("sandbox.execute_ms.{backend}"), start);
            }
            let start = Instant::now();
            drop(black_box(codegen_prompt(view, backend, &query)));
            self.time("prompt.build_ms".to_string(), start);
        }
        if self.shards > 1 {
            let start = Instant::now();
            drop(black_box(server.network().merged()));
            self.time("shard.merge_ms".to_string(), start);
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| median(s))
    }
}

/// Reads the store counters from the server's own `Request::Stats`
/// metrics document (0 for a counter the server does not register).
fn store_counters(server: &mut Srv, checks: &mut Checks) -> BTreeMap<&'static str, f64> {
    let doc = match server.handle(&Request::Stats) {
        Ok(Response::Stats(report)) => report.metrics,
        other => {
            checks.fail(format!("stats request: {other:?}"));
            JsonValue::Null
        }
    };
    let metrics = match &doc {
        JsonValue::Object(root) => match root.get("metrics") {
            Some(JsonValue::Object(metrics)) => Some(metrics),
            _ => None,
        },
        _ => None,
    };
    STORE_COUNTERS
        .iter()
        .map(|&name| {
            let value = metrics
                .and_then(|m| m.get(name))
                .and_then(|entry| match entry {
                    JsonValue::Object(entry) => entry.get("value"),
                    _ => None,
                })
                .and_then(|value| match value {
                    JsonValue::Number(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or(0.0);
            (name, value)
        })
        .collect()
}

fn rps(stream: &Stream) -> f64 {
    stream.requests as f64 / stream.busy.as_secs_f64()
}

/// Runs the traced invocation: `limit` applies to each half. Writes the
/// flight recorder's contents to `<out_dir>/<workload>-seed<seed>.trace.json`.
pub fn per_layer(spec: &Spec, seed: u64, limit: Limit, out_dir: &Path) -> Result<Report, String> {
    let inputs = Inputs::generate(spec, seed);
    let root = out_dir.join(format!("{}-{}", spec.name, std::process::id()));
    let mut report = Report::default();
    let mut checks = Checks::default();

    let plain = Harness::new(spec, &inputs, root.clone(), Tracer::new());
    let (mut server, _) = plain.setup(&mut checks)?;
    let untraced = plain.run_stream(&mut server, limit, &mut checks, |_, _| {});
    drop(server);
    plain.clear();

    let tracer = Tracer::new();
    tracer.enable(TRACE_CAPACITY);
    let harness = Harness::new(spec, &inputs, root, tracer.clone());
    let (mut server, _) = harness.setup(&mut checks)?;
    let cache_before = server.cache_stats();
    let store_before = store_counters(&mut server, &mut checks);
    let stride = match limit {
        Limit::Busy(budget) => budget / PROBES,
        Limit::Rounds(_) => Duration::ZERO,
    };
    let mut probe = Probe {
        stride,
        next: Duration::ZERO,
        shards: spec.shards,
        fallback_query: inputs.queries[0],
        samples: BTreeMap::new(),
        spans: BTreeMap::new(),
    };
    let stream = harness.run_stream(&mut server, limit, &mut checks, |server, end| {
        probe.round(server, end)
    });
    let cache_after = server.cache_stats();
    let store_after = store_counters(&mut server, &mut checks);
    let dump = out_dir.join(format!("{}-seed{seed}.trace.json", spec.name));
    std::fs::write(&dump, tracer.to_doc(0))
        .map_err(|e| format!("writing {}: {e}", dump.display()))?;
    let recovery = if spec.durable {
        harness.crash_and_recover(server, 1, &mut checks)
    } else {
        drop(server);
        Default::default()
    };
    harness.clear();

    for backend in BACKENDS {
        for layer in ["live.state_ms", "sandbox.floor_ms", "sandbox.execute_ms"] {
            let name = format!("{layer}.{backend}");
            report.metric(&name, "ms", probe.median(&name));
        }
    }
    report.metric("shard.merge_ms", "ms", probe.median("shard.merge_ms"));
    report.metric("shard.merges", "count", stream.merges as f64);

    let answer_hits = cache_after.answer_hits - cache_before.answer_hits;
    let program_hits = cache_after.program_hits - cache_before.program_hits;
    let misses = cache_after.misses - cache_before.misses;
    let lookups = (answer_hits + program_hits + misses).max(1) as f64;
    report.metric(
        "cache.answer_hit_share",
        "ratio",
        answer_hits as f64 / lookups,
    );
    report.metric(
        "cache.program_hit_share",
        "ratio",
        program_hits as f64 / lookups,
    );
    report.metric("cache.miss_share", "ratio", misses as f64 / lookups);
    report.metric(
        "cache.evictions",
        "count",
        (cache_after.evictions - cache_before.evictions) as f64,
    );
    report.metric(
        "cache.hit_us",
        "us",
        percentile(&stream.answer_hit_nanos, 50.0) / 1e3,
    );

    let llm = &stream.llm;
    report.metric("llm.calls", "count", llm.calls as f64);
    report.metric("llm.prompt_tokens", "count", llm.prompt_tokens as f64);
    report.metric(
        "llm.completion_tokens",
        "count",
        llm.completion_tokens as f64,
    );
    report.metric(
        "llm.complete_ms",
        "ms",
        percentile(&llm.complete_nanos, 50.0) / 1e6,
    );
    report.metric("prompt.build_ms", "ms", probe.median("prompt.build_ms"));

    for (kind, samples) in MUTATION_KINDS.iter().zip(&stream.mutate_kind_nanos) {
        report.metric(
            format!("mutate.{kind}_us"),
            "us",
            percentile(samples, 50.0) / 1e3,
        );
    }

    let mutations = stream.mutate_nanos.len().max(1) as f64;
    let delta = |name: &str| store_after[name] - store_before[name];
    report.metric(
        "store.bytes_per_mutation",
        "B",
        delta("store_bytes_written") / mutations,
    );
    report.metric(
        "store.fsyncs_per_1k_mutations",
        "count",
        delta("store_fsyncs") * 1e3 / mutations,
    );
    report.metric(
        "store.snapshots_full",
        "count",
        delta("store_full_snapshots_written"),
    );
    report.metric(
        "store.snapshots_delta",
        "count",
        delta("store_delta_snapshots_written"),
    );
    report.metric(
        "store.sync_p50_ms",
        "ms",
        percentile(&stream.sync_nanos, 50.0) / 1e6,
    );
    report.metric(
        "store.sync_p99_ms",
        "ms",
        percentile(&stream.sync_nanos, 99.0) / 1e6,
    );
    report.metric(
        "store.sweep_ms",
        "ms",
        percentile(&stream.sweep_nanos, 50.0) / 1e6,
    );

    report.metric(
        "recover.replayed_records",
        "count",
        recovery.replayed_records as f64,
    );
    report.metric(
        "recover.snapshot_epoch",
        "count",
        recovery.snapshot_epoch as f64,
    );

    for name in SPANS {
        let (micros, count) = probe.spans.get(name).copied().unwrap_or((0, 0));
        report.metric(
            format!("span.self_ms.{name}"),
            "ms",
            micros as f64 / 1e3 / count.max(1) as f64,
        );
    }
    report.metric(
        "obs.traced_over_untraced",
        "ratio",
        rps(&stream) / rps(&untraced),
    );

    // The workload-specific end-to-end figures, from the traced half.
    let queries = stream.query_nanos.len();
    report.metric(
        "query_p50_ms",
        "ms",
        percentile(&stream.query_nanos, 50.0) / 1e6,
    );
    report.metric(
        "query_p95_ms",
        "ms",
        percentile(&stream.query_nanos, 95.0) / 1e6,
    );
    report.metric("recover_s", "s", median(&recovery.seconds));
    report.metric(
        "llm_usd_per_1k_queries",
        "USD",
        llm.usd * 1e3 / queries.max(1) as f64,
    );

    report.notes.push(format!(
        "workload {} seed {seed}: traced half {} rounds, {} requests, {:.3} s busy; untraced half {} rounds, {} requests",
        spec.name,
        stream.rounds,
        stream.requests,
        stream.busy.as_secs_f64(),
        untraced.rounds,
        untraced.requests
    ));
    report.notes.push(format!(
        "traced half: transcript digest {:016x}, answer digest {:016x}",
        stream.transcript.0, stream.answers.0
    ));
    report
        .notes
        .push(format!("flight recorder written to {}", dump.display()));
    report.checks = checks;
    Ok(report)
}
