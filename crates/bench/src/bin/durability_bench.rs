//! Crash/recovery driver for the persistent serving layer (durable
//! single-shard servers over `nemo-store`).
//!
//! Usage:
//!
//! ```text
//! durability_bench --dir <store> --transcript <file>     # run (or resume) and write transcript
//! durability_bench --dir <store> --crash-at <k>          # run and crash mid-stream (exit 3)
//! durability_bench --dir <store> --crash-sweep <budget>  # run, kill mid-sweep (exit 3)
//! durability_bench --dir <store> --fault-at <k> [--fault-kind <name>]
//!                                                        # client 0 runs on a FaultFs armed at
//!                                                        # op k; exit 3 when the fault surfaces
//! ```
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

use nemo_bench::pool;
use nemo_obs::trace::Tracer;
use nemo_obs::Registry;
use nemo_serve::durability::{self, DurabilityConfig};
use nemo_store::FaultKind;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: durability_bench --dir <store> --transcript <file>\n\
         \u{20}      durability_bench --dir <store> --crash-at <epoch>\n\
         \u{20}      durability_bench --dir <store> --crash-sweep <budget>\n\
         \u{20}      durability_bench --dir <store> --fault-at <op> [--fault-kind <name>]"
    );
    ExitCode::FAILURE
}

fn run_transcript(dir: &Path, path: &str, crash_at: Option<u64>) -> ExitCode {
    let mut config = DurabilityConfig::from_env();
    // A fresh registry per run: the final snapshot is dumped next to the
    // transcript so CI artifacts carry the metrics alongside the lines.
    // Likewise a fresh flight recorder: the query round runs through the
    // typed request path, so its trace trees ride along as
    // `<transcript>.traces.json`.
    let registry = Registry::new();
    config.options.registry = registry.clone();
    let tracer = Tracer::new();
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
            bench::write_transcript("durability_bench", path, &lines, &registry, &tracer)
        }
        Err(e) => {
            eprintln!("durability_bench: driver failed: {e}");
            ExitCode::FAILURE
        }
    }
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
    let mut dir: Option<String> = None;
    let mut transcript: Option<String> = None;
    let mut crash_at: Option<u64> = None;
    let mut crash_sweep: Option<usize> = None;
    let mut fault_at: Option<u64> = None;
    let mut fault_kind = "fsync".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" | "--transcript" | "--crash-at" | "--crash-sweep" | "--fault-at"
            | "--fault-kind"
                if i + 1 >= args.len() =>
            {
                return usage()
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
            _ => return usage(),
        }
    }
    let Some(dir) = dir else {
        return usage();
    };
    let dir = Path::new(&dir);
    if let Some(k) = fault_at {
        let (None, None, None) = (&transcript, crash_at, crash_sweep) else {
            return usage();
        };
        let Some(kind) = FaultKind::parse(&fault_kind) else {
            eprintln!(
                "durability_bench: unknown --fault-kind {fault_kind} (expected one of: {})",
                FaultKind::ALL.map(|k| k.name()).join(", ")
            );
            return usage();
        };
        return run_fault_mode(dir, k, kind);
    }
    match (transcript, crash_at, crash_sweep) {
        (Some(path), None, None) => run_transcript(dir, &path, None),
        (None, Some(k), None) => run_transcript(dir, "", Some(k)),
        (None, None, Some(budget)) => run_crash_sweep(dir, budget),
        _ => usage(),
    }
}
