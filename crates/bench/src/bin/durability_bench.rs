//! Durability benchmark + crash/recovery driver for the persistent
//! serving layer (durable single-shard servers over `nemo-store`).
//!
//! Usage:
//!
//! ```text
//! durability_bench [--pr pr5] [--out BENCH_pr5.json]
//! durability_bench --sweep [--pr pr7] [--out BENCH_pr7.json]
//! durability_bench --dir <store> --transcript <file>     # run (or resume) and write transcript
//! durability_bench --dir <store> --crash-at <k>          # run and crash mid-stream (exit 3)
//! durability_bench --dir <store> --crash-sweep <budget>  # run, kill mid-sweep (exit 3)
//! durability_bench --dir <store> --fault-at <k> [--fault-kind <name>]
//!                                                        # client 0 runs on a FaultFs armed at
//!                                                        # op k; exit 3 when the fault surfaces
//! ```
//!
//! The default mode records, into the `nemo-perf-report/v1` schema:
//!
//! * `durable_apply_ms` — per-mutation apply latency, in-memory only
//!   (`before`) vs through a durable server with `fsync: Never`
//!   (`after`): the logging overhead.
//! * `durable_apply_fsync_{never,batch,record}_mps` — sustained
//!   mutation-apply throughput under each fsync policy.
//! * `durable_recovery_ms` / `durable_recovery_mps` — wall time to rebuild
//!   the state from snapshot + WAL suffix, and records replayed per
//!   second.
//!
//! The `--sweep` mode records, into the same schema:
//!
//! * `append_stall_p99_ms` — 99th-percentile per-mutation apply latency
//!   when compaction runs inline on the write path (`before`: an
//!   unbounded sweep after every snapshot install) vs the shipping write
//!   path (`after`: budgeted sweep at batch boundaries). Both install
//!   snapshots through the server's own threshold, delta or full as the
//!   chain dictates.
//! * `snapshot_install_ms` — wall time of the apply that installs a
//!   snapshot of an append-heavy state: `before` full (O(state)), `after`
//!   delta (O(records since the last snapshot)).
//!
//! The transcript modes drive `nemo_serve::durability`: the *same*
//! `--transcript` command transparently resumes after a `--crash-at` run
//! (recovery is implicit), and CI `cmp`s the resumed transcript against an
//! uninterrupted one at `NEMO_THREADS=1` and `4`. `--crash-sweep` applies
//! the stream, syncs, then dies partway through a budgeted sweep — the
//! next `--transcript` run must resume to the uninterrupted transcript.
//!
//! `--fault-at` is the fault-injection variant of `--crash-at`: client 0
//! runs its whole stream on a `nemo_store::FaultFs` with a single-shot
//! fault (`--fault-kind`, default `fsync`) armed at operation index `k`.
//! A retryable fault is absorbed by the serving layer's bounded retry
//! (exit 0, transcript identical to an unfaulted run); a surfaced fault
//! exits 3 with the typed error on stderr and the stores left on disk —
//! the next `--transcript` run must resume to the canonical transcript,
//! which is the acked-implies-durable proof CI's `fault-smoke` job `cmp`s.

use nemo_bench::perf::{self, Measurement};
use nemo_bench::pool;
use nemo_core::ScriptedLlm;
use nemo_serve::durability::{self, DurabilityConfig};
use nemo_serve::persist::{FsyncPolicy, PersistOptions};
use nemo_serve::{LiveNetwork, Server, ServerBuilder};
use nemo_store::FaultKind;
use netgraph::json::JsonValue;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trafficgen::{evolve, generate, StreamConfig, TimedEvent, TrafficConfig, TrafficWorkload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: durability_bench [--pr <tag>] [--out <file>]\n\
         \u{20}      durability_bench --sweep [--pr <tag>] [--out <file>]\n\
         \u{20}      durability_bench --dir <store> --transcript <file>\n\
         \u{20}      durability_bench --dir <store> --crash-at <epoch>\n\
         \u{20}      durability_bench --dir <store> --crash-sweep <budget>\n\
         \u{20}      durability_bench --dir <store> --fault-at <op> [--fault-kind <name>]"
    );
    ExitCode::FAILURE
}

struct BenchSizes {
    events: usize,
    recovery_rounds: usize,
}

impl BenchSizes {
    fn from_env() -> Self {
        if std::env::var("NEMO_SMALL").is_ok() {
            BenchSizes {
                events: 150,
                recovery_rounds: 3,
            }
        } else {
            BenchSizes {
                events: 1500,
                recovery_rounds: 5,
            }
        }
    }
}

fn bench_options(fsync: FsyncPolicy) -> PersistOptions {
    PersistOptions {
        fsync,
        segment_max_bytes: 64 << 10,
        snapshot_every_bytes: 256 << 10,
        snapshot_every_epochs: 1024,
        keep_snapshots: 2,
        ..PersistOptions::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nemo-durability-bench-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable single-shard server with no sessions: only its write path
/// and its store are measured.
type Srv = Server<ScriptedLlm>;

/// A fresh durable server over `workload` under `dir`.
fn fresh_server(dir: &Path, options: PersistOptions, workload: &TrafficWorkload) -> Srv {
    ServerBuilder::new()
        .options(options)
        .persist_at(dir)
        .build(LiveNetwork::from_workload(workload), Vec::new())
        .expect("fresh bench store")
}

/// Applies the whole stream through the server, one latency sample per
/// mutation. `sync_every` marks batch boundaries (0 = never).
fn timed_apply(stream: &[TimedEvent], server: &mut Srv, sync_every: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(stream.len());
    for (i, event) in stream.iter().enumerate() {
        let start = Instant::now();
        server
            .apply_mutation(event)
            .expect("stream events apply cleanly");
        if sync_every > 0 && (i + 1) % sync_every == 0 {
            server.sync_persistence().expect("batch fsync");
        }
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples
}

fn mps(samples: &[f64]) -> f64 {
    let total_ms: f64 = samples.iter().sum();
    if total_ms <= 0.0 {
        0.0
    } else {
        samples.len() as f64 * 1e3 / total_ms
    }
}

/// Patches the auto-filled `ms` unit on throughput entries.
fn set_unit(report: &mut JsonValue, name: &str, unit: &str) {
    if let JsonValue::Object(root) = report {
        if let Some(JsonValue::Array(entries)) = root.get_mut("entries") {
            for entry in entries {
                if let JsonValue::Object(obj) = entry {
                    if obj.get("name") == Some(&JsonValue::String(name.to_string())) {
                        obj.insert("unit".to_string(), JsonValue::String(unit.to_string()));
                    }
                }
            }
        }
    }
}

fn run_transcript(dir: &Path, path: &str, crash_at: Option<u64>) -> ExitCode {
    let mut config = DurabilityConfig::from_env();
    // A fresh registry per run: the final snapshot is dumped next to the
    // transcript so CI artifacts carry the metrics alongside the lines.
    // Likewise a fresh flight recorder: the query round runs through the
    // typed request path, so its trace trees ride along as
    // `<transcript>.traces.json`.
    let registry = nemo_obs::Registry::new();
    config.options.registry = registry.clone();
    let tracer = nemo_obs::trace::Tracer::new();
    tracer.enable(1024);
    config.options.tracer = tracer.clone();
    let threads = pool::thread_count();
    eprintln!(
        "[durability] {} clients x {} events on {} worker thread(s){}",
        config.clients,
        config.events,
        threads,
        crash_at.map_or(String::new(), |k| format!(", crashing near epoch {k}")),
    );
    match durability::run(&config, dir, threads, crash_at) {
        Ok((lines, crashed)) => {
            if crashed {
                eprintln!("[durability] crashed mid-stream as requested (stores left on disk)");
                return ExitCode::from(3);
            }
            if let Some(k) = crash_at {
                eprintln!(
                    "durability_bench: --crash-at {k} never triggered \
                     (the stream has only {} events per client)",
                    config.events
                );
                return ExitCode::FAILURE;
            }
            let text = lines.join("\n") + "\n";
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("durability_bench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path} ({} transcript lines)", lines.len());
            let metrics_path = format!("{path}.metrics.json");
            if let Err(e) = std::fs::write(&metrics_path, registry.snapshot().to_json() + "\n") {
                eprintln!("durability_bench: cannot write {metrics_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {metrics_path}");
            let traces = tracer.to_doc(0);
            match netgraph::json::JsonValue::parse(&traces) {
                Ok(doc) => {
                    if let Err(e) = nemo_serve::validate_trace_doc(&doc) {
                        eprintln!("durability_bench: trace document invalid: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) => {
                    eprintln!("durability_bench: trace document does not parse: {e:?}");
                    return ExitCode::FAILURE;
                }
            }
            let traces_path = format!("{path}.traces.json");
            if let Err(e) = std::fs::write(&traces_path, traces + "\n") {
                eprintln!("durability_bench: cannot write {traces_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {traces_path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("durability_bench: driver failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_report(pr: &str, out: &str) -> ExitCode {
    let sizes = BenchSizes::from_env();
    let workload = generate(&TrafficConfig::default());
    let stream = evolve(
        &workload,
        &StreamConfig {
            events: sizes.events,
            seed: 2033,
        },
    );

    // Baseline: in-memory apply, no persistence.
    eprintln!(
        "[durability] baseline: {} in-memory applies...",
        stream.len()
    );
    let mut live = LiveNetwork::from_workload(&workload);
    let mut baseline = Vec::with_capacity(stream.len());
    for event in &stream {
        let start = Instant::now();
        live.apply_event(event)
            .expect("stream events apply cleanly");
        baseline.push(start.elapsed().as_secs_f64() * 1e3);
    }

    // Durably logged, one run per fsync policy.
    let mut policy_samples: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut recovery_dir = None;
    for (tag, policy, sync_every) in [
        ("never", FsyncPolicy::Never, 0usize),
        ("batch", FsyncPolicy::EveryBatch, 16),
        ("record", FsyncPolicy::EveryRecord, 0),
    ] {
        eprintln!(
            "[durability] fsync={tag}: {} logged applies...",
            stream.len()
        );
        let dir = scratch_dir(tag);
        let mut server = fresh_server(&dir, bench_options(policy), &workload);
        let samples = timed_apply(&stream, &mut server, sync_every);
        server.sync_persistence().expect("final fsync");
        drop(server);
        if tag == "never" {
            recovery_dir = Some(dir);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
        policy_samples.push((tag, samples));
    }

    // Recovery: rebuild the state from the fsync-never store.
    let recovery_dir = recovery_dir.expect("never-policy run kept its store");
    eprintln!(
        "[durability] recovery x {} rounds...",
        sizes.recovery_rounds
    );
    let mut recovery_samples = Vec::with_capacity(sizes.recovery_rounds);
    let mut replayed = 0u64;
    for _ in 0..sizes.recovery_rounds {
        let start = Instant::now();
        let (mut recovered, reports) = ServerBuilder::new()
            .options(bench_options(FsyncPolicy::Never))
            .persist_at(&recovery_dir)
            .recover_or_create::<ScriptedLlm>(Vec::new(), || {
                panic!("the fsync-never bench store is missing")
            })
            .expect("bench store recovers");
        recovery_samples.push(start.elapsed().as_secs_f64() * 1e3);
        replayed = reports[0].replayed_records;
        assert_eq!(recovered.network().global_epoch(), stream.len() as u64);
        assert!(*recovered.merged_view() == live, "recovered state diverged");
    }
    let _ = std::fs::remove_dir_all(&recovery_dir);
    let recovery_median = perf::median(&recovery_samples);
    let recovery_mps = if recovery_median > 0.0 {
        replayed as f64 * 1e3 / recovery_median
    } else {
        0.0
    };

    println!(
        "apply baseline (in-memory): {:>9.1} mutations/s",
        mps(&baseline)
    );
    for (tag, samples) in &policy_samples {
        println!(
            "apply fsync={tag:<7}            {:>9.1} mutations/s",
            mps(samples)
        );
    }
    println!(
        "recovery: {:.2} ms median ({} records replayed, {:.0} records/s)",
        recovery_median, replayed, recovery_mps
    );

    let before = [Measurement {
        name: "durable_apply_ms".to_string(),
        samples: baseline,
    }];
    let mut after = vec![Measurement {
        name: "durable_apply_ms".to_string(),
        samples: policy_samples
            .iter()
            .find(|(tag, _)| *tag == "never")
            .expect("never policy ran")
            .1
            .clone(),
    }];
    for (tag, samples) in &policy_samples {
        after.push(Measurement {
            name: format!("durable_apply_fsync_{tag}_mps"),
            samples: vec![mps(samples)],
        });
    }
    after.push(Measurement {
        name: "durable_recovery_ms".to_string(),
        samples: recovery_samples,
    });
    after.push(Measurement {
        name: "durable_recovery_mps".to_string(),
        samples: vec![recovery_mps],
    });

    let existing = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok());
    let report = perf::merge_report(existing.as_ref(), pr, "before", &before);
    let mut report = perf::merge_report(Some(&report), pr, "after", &after);
    for (tag, _) in &policy_samples {
        set_unit(
            &mut report,
            &format!("durable_apply_fsync_{tag}_mps"),
            "mps",
        );
    }
    set_unit(&mut report, "durable_recovery_mps", "mps");
    let problems = perf::validate_report(&report);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("durability_bench: generated report invalid: {p}");
        }
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(out, report.to_json() + "\n") {
        eprintln!("durability_bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}

struct SweepSizes {
    /// Events in the append-stall stream.
    stall_events: usize,
    /// Snapshot every this many events in the stall stream.
    snapshot_every: usize,
    /// Nodes in the append-heavy install-timing state.
    install_nodes: usize,
    /// Timed install rounds (each round: one delta, one full).
    install_rounds: usize,
}

impl SweepSizes {
    fn from_env() -> Self {
        if std::env::var("NEMO_SMALL").is_ok() {
            SweepSizes {
                stall_events: 400,
                snapshot_every: 32,
                install_nodes: 10_000,
                install_rounds: 3,
            }
        } else {
            SweepSizes {
                stall_events: 2000,
                snapshot_every: 32,
                install_nodes: 100_000,
                install_rounds: 5,
            }
        }
    }
}

/// Applies the stream through a server that installs a snapshot every
/// `snapshot_every` epochs, one latency sample per mutation. `inline`
/// reproduces the pre-sweep write path's compaction: an unbounded sweep
/// right after every install, inside the timed apply. Deferred is the
/// shipping path: a budgeted sweep at every 16-event batch boundary
/// (still timed — it *is* on the write path, just bounded).
fn timed_apply_with_snapshots(
    stream: &[TimedEvent],
    server: &mut Srv,
    snapshot_every: usize,
    inline: bool,
) -> Vec<f64> {
    const SWEEP_BUDGET: usize = 64;
    let mut samples = Vec::with_capacity(stream.len());
    for (i, event) in stream.iter().enumerate() {
        let start = Instant::now();
        server
            .apply_mutation(event)
            .expect("stream events apply cleanly");
        if inline && (i + 1) % snapshot_every == 0 {
            server.sweep_persistence(usize::MAX).expect("inline sweep");
        }
        if !inline && (i + 1) % 16 == 0 {
            server
                .sweep_persistence(SWEEP_BUDGET)
                .expect("budgeted sweep");
        }
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples
}

/// Tight segments so every snapshot point has a real pile of WAL files
/// to compact — the regime where an inline sweep visibly stalls appends.
fn sweep_bench_options(snapshot_every: usize) -> PersistOptions {
    PersistOptions {
        fsync: FsyncPolicy::Never,
        segment_max_bytes: 512,
        snapshot_every_bytes: 0,
        snapshot_every_epochs: snapshot_every as u64,
        keep_snapshots: 2,
        ..PersistOptions::default()
    }
}

fn run_sweep_report(pr: &str, out: &str) -> ExitCode {
    let sizes = SweepSizes::from_env();
    // A state large enough that a full snapshot costs real serialization
    // work — that is the O(state) term an inline snapshot+sweep puts on
    // the write path at every snapshot point, and the one the deferred
    // path only pays when a delta chain caps out.
    let workload = generate(&TrafficConfig {
        nodes: 2000,
        edges: 3000,
        prefixes: 4,
        seed: 2033,
    });
    let stream = evolve(
        &workload,
        &StreamConfig {
            events: sizes.stall_events,
            seed: 7107,
        },
    );

    // Append stall: inline snapshot+compaction vs the deferred write path.
    let mut stall = Vec::new();
    for (tag, inline) in [("inline", true), ("deferred", false)] {
        eprintln!(
            "[sweep] append stall, {tag}: {} applies, snapshot every {}...",
            stream.len(),
            sizes.snapshot_every
        );
        let dir = scratch_dir(&format!("sweep-{tag}"));
        let mut server = fresh_server(&dir, sweep_bench_options(sizes.snapshot_every), &workload);
        let samples =
            timed_apply_with_snapshots(&stream, &mut server, sizes.snapshot_every, inline);
        if !inline {
            assert!(
                server.shard_persistence()[0]
                    .store()
                    .snapshot_metas()
                    .iter()
                    .any(|m| m.base.is_some()),
                "deferred run installed no delta snapshots"
            );
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        let p99 = perf::percentile(&samples, 99.0);
        println!("append stall p99, {tag:<8}: {p99:>9.4} ms");
        stall.push((tag, p99));
    }

    // Install cost: full snapshot of an append-heavy state vs a delta
    // carrying only the records since the last snapshot. The server
    // installs one every `per_round` epochs; the delta chain makes every
    // fourth install full, so each round of four yields three delta
    // samples and one full one.
    eprintln!(
        "[sweep] install timing: {}-node state, {} rounds...",
        sizes.install_nodes, sizes.install_rounds
    );
    let big = generate(&TrafficConfig {
        nodes: sizes.install_nodes,
        edges: sizes.install_nodes + sizes.install_nodes / 2,
        prefixes: 4,
        seed: 9,
    });
    let per_round = 256usize;
    let big_stream = evolve(
        &big,
        &StreamConfig {
            events: sizes.install_rounds * per_round * 4,
            seed: 7108,
        },
    );
    let dir = scratch_dir("sweep-install");
    let mut server = fresh_server(
        &dir,
        PersistOptions {
            segment_max_bytes: 64 << 10,
            ..sweep_bench_options(per_round)
        },
        &big,
    );
    let mut delta_ms = Vec::with_capacity(sizes.install_rounds * 3);
    let mut full_ms = Vec::with_capacity(sizes.install_rounds);
    for (i, event) in big_stream.iter().enumerate() {
        let start = Instant::now();
        server
            .apply_mutation(event)
            .expect("stream events apply cleanly");
        let took = start.elapsed().as_secs_f64() * 1e3;
        if (i + 1) % per_round == 0 {
            let newest = server.shard_persistence()[0]
                .store()
                .snapshot_metas()
                .last();
            let newest = newest.expect("the genesis snapshot at least");
            assert_eq!(
                newest.epoch,
                i as u64 + 1,
                "the timed apply installed no snapshot"
            );
            if newest.base.is_some() {
                delta_ms.push(took);
            } else {
                full_ms.push(took);
            }
        }
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "snapshot install: delta {:>9.3} ms median ({per_round} records), \
         full {:>9.3} ms median ({} nodes)",
        perf::median(&delta_ms),
        perf::median(&full_ms),
        sizes.install_nodes
    );

    let inline_p99 = stall
        .iter()
        .find(|(tag, _)| *tag == "inline")
        .expect("inline ran")
        .1;
    let deferred_p99 = stall
        .iter()
        .find(|(tag, _)| *tag == "deferred")
        .expect("deferred ran")
        .1;
    println!(
        "append stall p99 ratio (inline / deferred): {:.2}x",
        inline_p99 / deferred_p99.max(f64::EPSILON)
    );

    let before = [
        Measurement {
            name: "append_stall_p99_ms".to_string(),
            samples: vec![inline_p99],
        },
        Measurement {
            name: "snapshot_install_ms".to_string(),
            samples: full_ms,
        },
    ];
    let after = [
        Measurement {
            name: "append_stall_p99_ms".to_string(),
            samples: vec![deferred_p99],
        },
        Measurement {
            name: "snapshot_install_ms".to_string(),
            samples: delta_ms,
        },
    ];

    let existing = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok());
    let report = perf::merge_report(existing.as_ref(), pr, "before", &before);
    let report = perf::merge_report(Some(&report), pr, "after", &after);
    let problems = perf::validate_report(&report);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("durability_bench: generated report invalid: {p}");
        }
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(out, report.to_json() + "\n") {
        eprintln!("durability_bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}

/// Runs the durability workload with client 0 on a [`FaultFs`] armed at
/// `fault_at`. Exit 0 = the fault was absorbed (or never fired) and the
/// transcript is canonical; exit 3 = the fault surfaced loudly and the
/// stores were left on disk for the resume proof.
///
/// [`FaultFs`]: nemo_store::FaultFs
fn run_fault_mode(dir: &Path, fault_at: u64, kind: FaultKind) -> ExitCode {
    let config = DurabilityConfig::from_env();
    let threads = pool::thread_count();
    eprintln!(
        "[durability] {} clients x {} events on {} worker thread(s), \
         {} fault armed at op {fault_at} for client 0",
        config.clients,
        config.events,
        threads,
        kind.name(),
    );
    match durability::run_fault(&config, dir, threads, fault_at, kind) {
        Ok((lines, true)) => {
            for line in lines.iter().filter(|l| l.contains("fault:")) {
                eprintln!("[durability] {line}");
            }
            eprintln!("[durability] fault surfaced as a typed error (stores left on disk)");
            ExitCode::from(3)
        }
        Ok((lines, false)) => {
            eprintln!(
                "[durability] fault at op {fault_at} absorbed or never fired; \
                 run completed ({} transcript lines)",
                lines.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("durability_bench: fault driver failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_crash_sweep(dir: &Path, budget: usize) -> ExitCode {
    let config = DurabilityConfig::from_env();
    let threads = pool::thread_count();
    eprintln!(
        "[durability] {} clients x {} events on {} worker thread(s), \
         dying after {budget} sweep removal(s)",
        config.clients, config.events, threads,
    );
    match durability::run_sweep_crash(&config, dir, threads, budget) {
        Ok(()) => {
            eprintln!("[durability] killed mid-sweep as requested (stores left on disk)");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("durability_bench: crash-sweep driver failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pr = "pr5".to_string();
    let mut out: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut transcript: Option<String> = None;
    let mut crash_at: Option<u64> = None;
    let mut crash_sweep: Option<usize> = None;
    let mut fault_at: Option<u64> = None;
    let mut fault_kind = "fsync".to_string();
    let mut sweep = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--pr" | "--out" | "--dir" | "--transcript" | "--crash-at" | "--crash-sweep"
            | "--fault-at" | "--fault-kind"
                if i + 1 >= args.len() =>
            {
                return usage()
            }
            "--pr" => {
                pr = args[i + 1].clone();
                i += 2;
            }
            "--out" => {
                out = Some(args[i + 1].clone());
                i += 2;
            }
            "--dir" => {
                dir = Some(args[i + 1].clone());
                i += 2;
            }
            "--transcript" => {
                transcript = Some(args[i + 1].clone());
                i += 2;
            }
            "--crash-at" => {
                match args[i + 1].parse() {
                    Ok(k) => crash_at = Some(k),
                    Err(_) => return usage(),
                }
                i += 2;
            }
            "--crash-sweep" => {
                match args[i + 1].parse() {
                    Ok(n) => crash_sweep = Some(n),
                    Err(_) => return usage(),
                }
                i += 2;
            }
            "--fault-at" => {
                match args[i + 1].parse() {
                    Ok(k) => fault_at = Some(k),
                    Err(_) => return usage(),
                }
                i += 2;
            }
            "--fault-kind" => {
                fault_kind = args[i + 1].clone();
                i += 2;
            }
            "--sweep" => {
                sweep = true;
                i += 1;
            }
            _ => return usage(),
        }
    }
    if let Some(k) = fault_at {
        let (Some(dir), None, None, None, false) =
            (&dir, &transcript, crash_at, crash_sweep, sweep)
        else {
            return usage();
        };
        let Some(kind) = FaultKind::parse(&fault_kind) else {
            eprintln!(
                "durability_bench: unknown --fault-kind {fault_kind} (expected one of: {})",
                FaultKind::ALL.map(|k| k.name()).join(", ")
            );
            return usage();
        };
        return run_fault_mode(Path::new(dir), k, kind);
    }
    match (dir, transcript, crash_at, crash_sweep, sweep) {
        (Some(dir), Some(path), None, None, false) => run_transcript(Path::new(&dir), &path, None),
        (Some(dir), None, Some(k), None, false) => run_transcript(Path::new(&dir), "", Some(k)),
        (Some(dir), None, None, Some(budget), false) => run_crash_sweep(Path::new(&dir), budget),
        (None, None, None, None, true) => {
            let out = out.unwrap_or_else(|| format!("BENCH_{pr}.json"));
            run_sweep_report(&pr, &out)
        }
        (None, None, None, None, false) => {
            let out = out.unwrap_or_else(|| format!("BENCH_{pr}.json"));
            run_report(&pr, &out)
        }
        _ => usage(),
    }
}
