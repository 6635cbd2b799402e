//! Metrics and trace smoke driver: proves the `nemo-metrics/v1` document
//! is schema-valid and its logical subset is invariant across worker-thread
//! and shard counts.
//!
//! Usage:
//!
//! ```text
//! obs_bench --shards <n> --logical <file> [--doc <file>]
//!     [--traces <file>] [--chrome <file>] [--skeleton <file>]
//! ```
//!
//! It drives a pool-fanned multi-client durability run and
//! a typed-request sharded drive into **one shared registry**, fetches
//! [`Request::Stats`], schema-validates the embedded document, and
//! writes the logical subset to `--logical` — CI byte-compares that
//! file across its `NEMO_THREADS` x shards matrix. The typed drive also
//! records into a flight recorder; `--traces` / `--chrome` /
//! `--skeleton` dump the schema-validated `nemo-trace/v1` document, the
//! Chrome `traceEvents` export, and the logical trace skeletons (the
//! matrix-compared byte-identical axis).

use nemo_bench::pool;
use nemo_core::llm::profiles;
use nemo_core::{Backend, SimulatedLlm};
use nemo_obs::trace::Tracer;
use nemo_obs::Registry;
use nemo_serve::driver::{self, DriveConfig};
use nemo_serve::durability::{self, DurabilityConfig};
use nemo_serve::{
    validate_chrome_doc, validate_trace_doc, LiveNetwork, PersistOptions, Request, Response,
    ServerBuilder, Session,
};
use netgraph::json::JsonValue;
use std::path::PathBuf;
use std::process::ExitCode;
use trafficgen::{evolve, generate, NetEvent, StreamConfig, TimedEvent};

fn usage() -> ExitCode {
    eprintln!(
        "usage: obs_bench --shards <n> --logical <file> [--doc <file>]\n\
         \u{20}          [--traces <file>] [--chrome <file>] [--skeleton <file>]"
    );
    ExitCode::FAILURE
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nemo-obs-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The CI smoke drive: a pool-fanned multi-client durability run (the
/// `NEMO_THREADS`-sensitive axis) and a typed-request drive against a
/// `shards`-way server (the shard-sensitive axis), both recording into
/// one shared registry. Fetches [`Request::Stats`], schema-validates the
/// embedded document, and writes the full document (`--doc`) and the
/// logical subset (`--logical`) — only the latter is matrix-compared.
fn run_smoke(
    shards: u32,
    logical_path: &str,
    doc_path: Option<&str>,
    traces_path: Option<&str>,
    chrome_path: Option<&str>,
    skeleton_path: Option<&str>,
) -> ExitCode {
    let registry = Registry::new();
    let threads = pool::thread_count();
    eprintln!("[obs] smoke: {shards} shard(s), {threads} worker thread(s)");

    let mut config = DurabilityConfig::from_env();
    config.options.registry = registry.clone();
    let dir = scratch_dir(&format!("smoke-{shards}"));
    match durability::run(&config, &dir, threads, None) {
        Ok((_, false)) => {}
        Ok((_, true)) => {
            eprintln!("obs_bench: durability drive crashed without being asked to");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("obs_bench: durability drive failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let drive = DriveConfig::from_env();
    let workload = generate(&drive.traffic);
    let sessions: Vec<Session<SimulatedLlm>> = Backend::CODEGEN
        .iter()
        .enumerate()
        .map(|(i, &backend)| Session {
            client: i,
            backend,
            llm: SimulatedLlm::new(
                profiles::gpt4(),
                driver::serving_knowledge(),
                drive.seed ^ i as u64,
            ),
        })
        .collect();
    // The typed drive is sequential, so the flight recorder's retire
    // order — and with it the logical-skeleton dump — is a pure function
    // of the request stream: the byte-compared axis of the CI matrix.
    // Persisted (fsync never) so WAL spans land inside the traces.
    let tracer = Tracer::new();
    tracer.enable(1024);
    let typed_dir = scratch_dir(&format!("smoke-typed-{shards}"));
    let mut server = match ServerBuilder::new()
        .shards(shards)
        .options(PersistOptions {
            fsync: nemo_serve::FsyncPolicy::Never,
            registry: registry.clone(),
            tracer: tracer.clone(),
            ..PersistOptions::default()
        })
        .persist_at(&typed_dir)
        .build(LiveNetwork::from_workload(&workload), sessions)
    {
        Ok(server) => server,
        Err(e) => {
            eprintln!("obs_bench: smoke build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stream = evolve(
        &workload,
        &StreamConfig {
            events: 8,
            seed: drive.seed,
        },
    );
    for timed in &stream {
        if let Err(e) = server.handle(&Request::from_event(&nemo_serve::ServeEvent::Mutate(
            timed.clone(),
        ))) {
            eprintln!("obs_bench: smoke mutation failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    // A duplicate endpoint is a deterministic conflict at every shard
    // count: it exercises serve_mutations_rejected without an epoch.
    let dup = TimedEvent {
        at_ms: 99,
        event: NetEvent::NewEndpoint {
            endpoint: trafficgen::Ipv4::new(203, 0, 0, 200),
        },
    };
    for _ in 0..2 {
        if let Err(e) = server.handle(&Request::from_event(&nemo_serve::ServeEvent::Mutate(
            dup.clone(),
        ))) {
            eprintln!("obs_bench: smoke conflict drive failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (i, query) in nemo_bench::traffic_queries().iter().take(4).enumerate() {
        if let Err(e) = server.handle(&Request::Query {
            client: i % Backend::CODEGEN.len(),
            query: query.text.to_string(),
        }) {
            eprintln!("obs_bench: smoke query failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let stats = match server.handle(&Request::Stats) {
        Ok(Response::Stats(stats)) => stats,
        Ok(other) => {
            eprintln!("obs_bench: stats request answered with {other:?}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("obs_bench: stats request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = nemo_serve::validate_metrics_doc(&stats.metrics) {
        eprintln!("obs_bench: stats document failed schema validation: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "stats: {} shard(s), global epoch {}, schema-valid metrics document",
        stats.shards, stats.global_epoch
    );

    if let Some(path) = doc_path {
        if let Err(e) = std::fs::write(path, stats.metrics.to_string() + "\n") {
            eprintln!("obs_bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    let logical = registry.snapshot().logical_only().to_json() + "\n";
    if !logical.contains("serve_queries_answered") || !logical.contains("serve_mutations_applied") {
        eprintln!("obs_bench: logical subset is missing serving counters");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(logical_path, logical) {
        eprintln!("obs_bench: cannot write {logical_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {logical_path}");

    // Trace view of the same drive: the server answers its own trace
    // request, and the document must be schema-valid with a deterministic
    // logical skeleton.
    let trace_doc = match server.handle(&Request::Trace { last_n: 0 }) {
        Ok(Response::Trace { doc }) => doc,
        Ok(other) => {
            eprintln!("obs_bench: trace request answered with {other:?}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("obs_bench: trace request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_trace_doc(&trace_doc) {
        eprintln!("obs_bench: trace document failed schema validation: {e}");
        return ExitCode::FAILURE;
    }
    let chrome = match JsonValue::parse(&tracer.to_chrome(0)) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("obs_bench: chrome export does not parse: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_chrome_doc(&chrome) {
        eprintln!("obs_bench: chrome export failed schema validation: {e}");
        return ExitCode::FAILURE;
    }
    if tracer.dropped() > 0 {
        eprintln!("obs_bench: flight recorder dropped traces during the smoke drive");
        return ExitCode::FAILURE;
    }
    println!(
        "traces: {} captured, schema-valid nemo-trace/v1 + chrome traceEvents",
        tracer.traces(0).len()
    );
    if let Some(path) = traces_path {
        if let Err(e) = std::fs::write(path, trace_doc.to_string() + "\n") {
            eprintln!("obs_bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = chrome_path {
        if let Err(e) = std::fs::write(path, chrome.to_string() + "\n") {
            eprintln!("obs_bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = skeleton_path {
        let skeletons = tracer.logical_skeletons(0);
        if !skeletons.contains("request.mutate") || !skeletons.contains("wal.log") {
            eprintln!("obs_bench: trace skeletons are missing expected logical spans");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, skeletons) {
            eprintln!("obs_bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&typed_dir);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shards: Option<u32> = None;
    let mut logical: Option<String> = None;
    let mut doc: Option<String> = None;
    let mut traces: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut skeleton: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if i + 1 >= args.len() {
            return usage();
        }
        match args[i].as_str() {
            "--shards" => match args[i + 1].parse() {
                Ok(n) if n > 0 => shards = Some(n),
                _ => return usage(),
            },
            "--logical" => logical = Some(args[i + 1].clone()),
            "--doc" => doc = Some(args[i + 1].clone()),
            "--traces" => traces = Some(args[i + 1].clone()),
            "--chrome" => chrome = Some(args[i + 1].clone()),
            "--skeleton" => skeleton = Some(args[i + 1].clone()),
            _ => return usage(),
        }
        i += 2;
    }
    match (shards, logical) {
        (Some(shards), Some(logical)) => run_smoke(
            shards,
            &logical,
            doc.as_deref(),
            traces.as_deref(),
            chrome.as_deref(),
            skeleton.as_deref(),
        ),
        _ => usage(),
    }
}
