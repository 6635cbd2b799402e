//! The serving layer's metric bundle and the `nemo-metrics/v1` document
//! validator.
//!
//! Every metric is classified **logical** or **physical** at registration:
//!
//! * *Logical* metrics are pure functions of the request stream — request
//!   type counts, mutations applied/rejected, queries answered, the global
//!   epoch. They are byte-identical across `NEMO_THREADS` and shard
//!   counts, and the determinism suite asserts exactly that.
//! * *Physical* metrics describe how this particular run executed —
//!   timings, fsync counts, cache hit rates (bounded-cache eviction
//!   depends on the shard layout), per-shard epochs, retries absorbed.
//!   They are excluded from transcripts and from logical snapshots.

use nemo_obs::{Class, Counter, Gauge, Histogram, Registry};
use netgraph::json::JsonValue;

/// The serving layer's own metric families, registered once per server.
///
/// Store (`store_*`) and worker-pool (`pool_*`) families are registered
/// by their owning crates against the same [`Registry`];
/// [`ServeMetrics::register`] pre-registers all of them so a `Stats`
/// document covers every family (at zero) even for a server that never
/// touched disk.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Typed `Mutate` requests handled (logical).
    pub requests_mutate: Counter,
    /// Typed `Query` requests handled (logical).
    pub requests_query: Counter,
    /// Typed `Sync` requests handled (logical).
    pub requests_sync: Counter,
    /// Typed `Stats` requests handled (logical).
    pub requests_stats: Counter,
    /// Typed `Trace` requests handled (logical).
    pub requests_trace: Counter,
    /// Requests whose root span crossed the slow-request threshold,
    /// sampled from the tracer at each `stats()` call (physical: wall
    /// clock decides).
    pub slow_requests: Gauge,
    /// Mutations applied — epoch consumed (logical).
    pub mutations_applied: Counter,
    /// Mutations rejected as conflicts — no epoch consumed (logical).
    pub mutations_rejected: Counter,
    /// Query replies produced, including cached and error replies
    /// (logical).
    pub queries_answered: Counter,
    /// The current global epoch, sampled at each `stats()` call (logical).
    pub global_epoch: Gauge,
    /// Healthy→degraded transitions of the write path (physical: fault
    /// timing depends on the run).
    pub degraded_transitions: Counter,
    /// Wall-clock microseconds per mutation request (physical).
    pub mutate_micros: Histogram,
    /// Wall-clock microseconds per query request (physical).
    pub query_micros: Histogram,
    /// Wall-clock microseconds per sync request (physical).
    pub sync_micros: Histogram,
    /// Answer-cache hits, sampled from [`crate::cache::CacheStats`]
    /// (physical: per-shard caches make totals layout-dependent once
    /// capacity bounds bite).
    pub cache_answer_hits: Gauge,
    /// Program-cache hits (physical).
    pub cache_program_hits: Gauge,
    /// Full cache misses (physical).
    pub cache_misses: Gauge,
    /// Stale answers invalidated by epoch bumps (physical).
    pub cache_invalidated: Gauge,
    /// Programs evicted — FIFO displacement plus explicit drops
    /// (physical).
    pub cache_evictions: Gauge,
    /// Per-shard local epoch gauges, indexed by shard (physical).
    pub shard_epochs: Vec<Gauge>,
    /// Per-shard durability lag gauges — local epoch minus the shard
    /// store's durable epoch (physical).
    pub shard_lags: Vec<Gauge>,
}

impl ServeMetrics {
    /// Binds the serving-layer families in `registry` and pre-registers
    /// the store, retry and pool families so every `Stats` document
    /// carries all five prefixes. Idempotent: re-registering returns
    /// handles onto the same underlying metrics.
    pub fn register(registry: &Registry, shards: u32) -> ServeMetrics {
        // Pre-register the families owned by other crates.
        let _ = nemo_store::StoreMetrics::register(registry);
        let _ = nemo_bench::pool::PoolMetrics::register(registry);
        let _ = crate::persist::RetryMetrics::register(registry);
        let shard_epochs = (0..shards)
            .map(|k| registry.gauge(&format!("shard{k}_epoch"), Class::Physical))
            .collect();
        let shard_lags = (0..shards)
            .map(|k| registry.gauge(&format!("shard{k}_lag"), Class::Physical))
            .collect();
        ServeMetrics {
            requests_mutate: registry.counter("serve_requests_mutate", Class::Logical),
            requests_query: registry.counter("serve_requests_query", Class::Logical),
            requests_sync: registry.counter("serve_requests_sync", Class::Logical),
            requests_stats: registry.counter("serve_requests_stats", Class::Logical),
            requests_trace: registry.counter("serve_requests_trace", Class::Logical),
            slow_requests: registry.gauge("serve_slow_requests", Class::Physical),
            mutations_applied: registry.counter("serve_mutations_applied", Class::Logical),
            mutations_rejected: registry.counter("serve_mutations_rejected", Class::Logical),
            queries_answered: registry.counter("serve_queries_answered", Class::Logical),
            global_epoch: registry.gauge("serve_global_epoch", Class::Logical),
            degraded_transitions: registry.counter("serve_degraded_transitions", Class::Physical),
            mutate_micros: registry.histogram("serve_mutate_micros", Class::Physical),
            query_micros: registry.histogram("serve_query_micros", Class::Physical),
            sync_micros: registry.histogram("serve_sync_micros", Class::Physical),
            cache_answer_hits: registry.gauge("cache_answer_hits", Class::Physical),
            cache_program_hits: registry.gauge("cache_program_hits", Class::Physical),
            cache_misses: registry.gauge("cache_misses", Class::Physical),
            cache_invalidated: registry.gauge("cache_invalidated", Class::Physical),
            cache_evictions: registry.gauge("cache_evictions", Class::Physical),
            shard_epochs,
            shard_lags,
        }
    }

    /// Copies a sampled [`CacheStats`](crate::cache::CacheStats) into the
    /// cache gauges.
    pub fn sample_cache(&self, stats: crate::cache::CacheStats) {
        self.cache_answer_hits.set(stats.answer_hits as i64);
        self.cache_program_hits.set(stats.program_hits as i64);
        self.cache_misses.set(stats.misses as i64);
        self.cache_invalidated.set(stats.invalidated as i64);
        self.cache_evictions.set(stats.evictions as i64);
    }
}

/// The metric-name prefixes a full `Stats` document must cover: one per
/// subsystem the paper's serving pipeline touches.
pub const METRIC_FAMILIES: [&str; 5] = ["serve_", "cache_", "shard", "store_", "pool_"];

/// Validates a parsed `nemo-metrics/v1` document: schema tag, per-metric
/// shape (class, kind, value type) and family coverage. Returns the first
/// violation as a human-readable message.
pub fn validate_metrics_doc(doc: &JsonValue) -> Result<(), String> {
    let root = match doc {
        JsonValue::Object(map) => map,
        other => return Err(format!("metrics document is not an object: {other:?}")),
    };
    match root.get("schema") {
        Some(JsonValue::String(s)) if s == nemo_obs::SCHEMA => {}
        Some(other) => {
            return Err(format!(
                "schema tag is {other:?}, want {}",
                nemo_obs::SCHEMA
            ))
        }
        None => return Err("missing schema tag".to_string()),
    }
    let metrics = match root.get("metrics") {
        Some(JsonValue::Object(map)) => map,
        Some(other) => return Err(format!("\"metrics\" is not an object: {other:?}")),
        None => return Err("missing \"metrics\" object".to_string()),
    };
    for (name, entry) in metrics {
        let fields = match entry {
            JsonValue::Object(map) => map,
            other => return Err(format!("{name}: entry is not an object: {other:?}")),
        };
        match fields.get("class") {
            Some(JsonValue::String(c)) if c == "logical" || c == "physical" => {}
            other => return Err(format!("{name}: bad class {other:?}")),
        }
        let kind = match fields.get("kind") {
            Some(JsonValue::String(k)) if k == "counter" || k == "gauge" || k == "histogram" => {
                k.clone()
            }
            other => return Err(format!("{name}: bad kind {other:?}")),
        };
        match (kind.as_str(), fields.get("value")) {
            ("counter", Some(JsonValue::Number(_))) => {}
            ("gauge", Some(JsonValue::Number(_))) => {}
            ("histogram", Some(JsonValue::Object(h))) => {
                for want in ["bounds", "buckets", "count", "sum"] {
                    if !h.contains_key(want) {
                        return Err(format!("{name}: histogram missing \"{want}\""));
                    }
                }
            }
            (_, other) => {
                return Err(format!(
                    "{name}: value does not match kind {kind}: {other:?}"
                ))
            }
        }
    }
    for family in METRIC_FAMILIES {
        if !metrics.keys().any(|name| name.starts_with(family)) {
            return Err(format!("no metric with family prefix \"{family}\""));
        }
    }
    Ok(())
}

/// Validates a parsed `nemo-trace/v1` document: schema tag, drop
/// counters, and per-trace shape — every span's fields, exactly one root
/// per trace, and every `parent_id` resolving to a span in the same
/// trace. Returns the first violation as a human-readable message.
pub fn validate_trace_doc(doc: &JsonValue) -> Result<(), String> {
    let root = match doc {
        JsonValue::Object(map) => map,
        other => return Err(format!("trace document is not an object: {other:?}")),
    };
    match root.get("schema") {
        Some(JsonValue::String(s)) if s == nemo_obs::trace::TRACE_SCHEMA => {}
        Some(other) => {
            return Err(format!(
                "schema tag is {other:?}, want {}",
                nemo_obs::trace::TRACE_SCHEMA
            ))
        }
        None => return Err("missing schema tag".to_string()),
    }
    for counter in ["dropped", "slow_dropped", "slow_retained", "slow_total"] {
        match root.get(counter) {
            Some(JsonValue::Number(_)) => {}
            other => return Err(format!("\"{counter}\" is not a number: {other:?}")),
        }
    }
    let traces = match root.get("traces") {
        Some(JsonValue::Array(items)) => items,
        Some(other) => return Err(format!("\"traces\" is not an array: {other:?}")),
        None => return Err("missing \"traces\" array".to_string()),
    };
    for (i, trace) in traces.iter().enumerate() {
        let trace = match trace {
            JsonValue::Object(map) => map,
            other => return Err(format!("trace[{i}] is not an object: {other:?}")),
        };
        for field in ["trace_id", "base_micros"] {
            match trace.get(field) {
                Some(JsonValue::Number(_)) => {}
                other => return Err(format!("trace[{i}].{field} is not a number: {other:?}")),
            }
        }
        let spans = match trace.get("spans") {
            Some(JsonValue::Array(items)) if !items.is_empty() => items,
            Some(JsonValue::Array(_)) => return Err(format!("trace[{i}] has no spans")),
            other => return Err(format!("trace[{i}].spans is not an array: {other:?}")),
        };
        let mut ids = Vec::new();
        let mut roots = 0usize;
        for (j, span) in spans.iter().enumerate() {
            let span = match span {
                JsonValue::Object(map) => map,
                other => return Err(format!("trace[{i}].spans[{j}] is not an object: {other:?}")),
            };
            let at = |field: &str| format!("trace[{i}].spans[{j}].{field}");
            for field in ["span_id", "start_micros", "duration_micros"] {
                match span.get(field) {
                    Some(JsonValue::Number(_)) => {}
                    other => return Err(format!("{} is not a number: {other:?}", at(field))),
                }
            }
            match span.get("name") {
                Some(JsonValue::String(_)) => {}
                other => return Err(format!("{} is not a string: {other:?}", at("name"))),
            }
            match span.get("class") {
                Some(JsonValue::String(c)) if c == "logical" || c == "physical" => {}
                other => return Err(format!("{} is bad: {other:?}", at("class"))),
            }
            if let Some(JsonValue::Number(id)) = span.get("span_id") {
                ids.push(*id as i64);
            }
            match span.get("parent_id") {
                Some(JsonValue::Null) => roots += 1,
                Some(JsonValue::Number(_)) => {}
                other => {
                    return Err(format!(
                        "{} is neither null nor a number: {other:?}",
                        at("parent_id")
                    ))
                }
            }
        }
        if roots != 1 {
            return Err(format!("trace[{i}] has {roots} roots, want exactly 1"));
        }
        for (j, span) in spans.iter().enumerate() {
            if let JsonValue::Object(span) = span {
                if let Some(JsonValue::Number(parent)) = span.get("parent_id") {
                    if !ids.contains(&(*parent as i64)) {
                        return Err(format!(
                            "trace[{i}].spans[{j}] parents missing span {parent}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Validates a parsed Chrome trace-event export (the object
/// `chrome://tracing` / Perfetto loads): a `traceEvents` array of
/// complete (`"ph":"X"`) events, each with name, category, pid/tid,
/// timestamp, duration and a `trace_id` arg. Returns the first violation.
pub fn validate_chrome_doc(doc: &JsonValue) -> Result<(), String> {
    let root = match doc {
        JsonValue::Object(map) => map,
        other => return Err(format!("chrome document is not an object: {other:?}")),
    };
    let events = match root.get("traceEvents") {
        Some(JsonValue::Array(items)) => items,
        Some(other) => return Err(format!("\"traceEvents\" is not an array: {other:?}")),
        None => return Err("missing \"traceEvents\" array".to_string()),
    };
    for (i, event) in events.iter().enumerate() {
        let event = match event {
            JsonValue::Object(map) => map,
            other => return Err(format!("traceEvents[{i}] is not an object: {other:?}")),
        };
        match event.get("ph") {
            Some(JsonValue::String(ph)) if ph == "X" => {}
            other => return Err(format!("traceEvents[{i}].ph is not \"X\": {other:?}")),
        }
        match event.get("name") {
            Some(JsonValue::String(_)) => {}
            other => return Err(format!("traceEvents[{i}].name is not a string: {other:?}")),
        }
        match event.get("cat") {
            Some(JsonValue::String(c)) if c == "logical" || c == "physical" => {}
            other => return Err(format!("traceEvents[{i}].cat is bad: {other:?}")),
        }
        for field in ["pid", "tid", "ts", "dur"] {
            match event.get(field) {
                Some(JsonValue::Number(_)) => {}
                other => {
                    return Err(format!(
                        "traceEvents[{i}].{field} is not a number: {other:?}"
                    ))
                }
            }
        }
        match event.get("args") {
            Some(JsonValue::Object(args)) => match args.get("trace_id") {
                Some(JsonValue::Number(_)) => {}
                other => {
                    return Err(format!(
                        "traceEvents[{i}].args.trace_id is not a number: {other:?}"
                    ))
                }
            },
            other => return Err(format!("traceEvents[{i}].args is not an object: {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_families_produce_a_valid_document() {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry, 2);
        metrics.requests_query.inc();
        metrics.query_micros.record(120);
        metrics.shard_epochs[1].set(7);
        let doc = JsonValue::parse(&registry.snapshot().to_json()).expect("snapshot parses");
        validate_metrics_doc(&doc).expect("full registry validates");
    }

    #[test]
    fn registration_is_idempotent() {
        let registry = Registry::new();
        let a = ServeMetrics::register(&registry, 1);
        let b = ServeMetrics::register(&registry, 1);
        a.queries_answered.add(3);
        b.queries_answered.inc();
        assert_eq!(a.queries_answered.get(), 4, "same underlying counter");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let missing_schema = JsonValue::parse(r#"{"metrics":{}}"#).unwrap();
        assert!(validate_metrics_doc(&missing_schema)
            .unwrap_err()
            .contains("schema"));
        let bad_class = JsonValue::parse(
            r#"{"metrics":{"serve_x":{"class":"spiritual","kind":"counter","value":1}},"schema":"nemo-metrics/v1"}"#,
        )
        .unwrap();
        assert!(validate_metrics_doc(&bad_class)
            .unwrap_err()
            .contains("bad class"));
        let sparse = JsonValue::parse(
            r#"{"metrics":{"serve_x":{"class":"logical","kind":"counter","value":1}},"schema":"nemo-metrics/v1"}"#,
        )
        .unwrap();
        assert!(validate_metrics_doc(&sparse)
            .unwrap_err()
            .contains("family prefix"));
    }

    #[test]
    fn trace_documents_from_a_live_tracer_validate() {
        let tracer = nemo_obs::trace::Tracer::new();
        tracer.enable(16);
        {
            let _root = tracer.begin("request.mutate");
            let _route = tracer.span("mutate.route", Class::Logical);
            let _wal = tracer.span("wal.log", Class::Logical);
        }
        let doc = JsonValue::parse(&tracer.to_doc(0)).expect("trace doc parses");
        validate_trace_doc(&doc).expect("live trace doc validates");
        let chrome = JsonValue::parse(&tracer.to_chrome(0)).expect("chrome doc parses");
        validate_chrome_doc(&chrome).expect("live chrome doc validates");
    }

    #[test]
    fn trace_validator_rejects_malformed_documents() {
        let missing_schema = JsonValue::parse(r#"{"traces":[]}"#).unwrap();
        assert!(validate_trace_doc(&missing_schema)
            .unwrap_err()
            .contains("schema"));
        let orphan = JsonValue::parse(
            r#"{"dropped":0,"schema":"nemo-trace/v1","slow_dropped":0,"slow_retained":0,"slow_total":0,"traces":[{"base_micros":0,"spans":[{"class":"logical","duration_micros":1,"name":"request.mutate","parent_id":null,"span_id":1,"start_micros":0},{"class":"logical","duration_micros":1,"name":"wal.log","parent_id":9,"span_id":2,"start_micros":0}],"trace_id":1}]}"#,
        )
        .unwrap();
        assert!(validate_trace_doc(&orphan)
            .unwrap_err()
            .contains("missing span 9"));
        let two_roots = JsonValue::parse(
            r#"{"dropped":0,"schema":"nemo-trace/v1","slow_dropped":0,"slow_retained":0,"slow_total":0,"traces":[{"base_micros":0,"spans":[{"class":"logical","duration_micros":1,"name":"a","parent_id":null,"span_id":1,"start_micros":0},{"class":"logical","duration_micros":1,"name":"b","parent_id":null,"span_id":2,"start_micros":0}],"trace_id":1}]}"#,
        )
        .unwrap();
        assert!(validate_trace_doc(&two_roots)
            .unwrap_err()
            .contains("roots"));
    }

    #[test]
    fn chrome_validator_rejects_malformed_documents() {
        let missing = JsonValue::parse(r#"{"events":[]}"#).unwrap();
        assert!(validate_chrome_doc(&missing)
            .unwrap_err()
            .contains("traceEvents"));
        let bad_phase = JsonValue::parse(
            r#"{"traceEvents":[{"args":{"trace_id":1},"cat":"logical","dur":1,"name":"x","ph":"B","pid":1,"tid":1,"ts":0}]}"#,
        )
        .unwrap();
        assert!(validate_chrome_doc(&bad_phase).unwrap_err().contains("ph"));
    }

    #[test]
    fn cache_sampling_copies_every_counter() {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry, 1);
        metrics.sample_cache(crate::cache::CacheStats {
            answer_hits: 1,
            program_hits: 2,
            misses: 3,
            invalidated: 4,
            evictions: 5,
        });
        assert_eq!(metrics.cache_answer_hits.get(), 1);
        assert_eq!(metrics.cache_program_hits.get(), 2);
        assert_eq!(metrics.cache_misses.get(), 3);
        assert_eq!(metrics.cache_invalidated.get(), 4);
        assert_eq!(metrics.cache_evictions.get(), 5);
    }
}
