//! Sharded-serving crash driver: the shard-count-invariant crash/resume
//! transcripts.
//!
//! Usage:
//!
//! ```text
//! shard_bench --dir <root> --shards <n> --transcript <file>   # run (or resume), write transcript
//! shard_bench --dir <root> --shards <n> --crash-at <epoch>    # run and crash mid-stream (exit 3)
//! ```
//!
//! The shard smoke test (`tests/smoke.rs`) runs both: transcripts must be
//! byte-identical across worker and shard counts, and a run killed
//! mid-stream must resume to the uninterrupted transcript.

use bench::driver::{self, DurabilityConfig, Preset};
use nemo_bench::pool;
use nemo_obs::trace::Tracer;
use nemo_obs::Registry;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: shard_bench --dir <root> --shards <n> --transcript <file>\n\
         \u{20}      shard_bench --dir <root> --shards <n> --crash-at <epoch>"
    );
    ExitCode::FAILURE
}

fn run_transcript(dir: &Path, shards: u32, path: &str, crash_at: Option<u64>) -> ExitCode {
    let mut config = DurabilityConfig::from_env();
    // A fresh registry per run: the final snapshot is dumped next to the
    // transcript so the metrics ride along with the lines.
    // Likewise a fresh flight recorder for the typed request path; its
    // trace trees ride along as `<transcript>.traces.json`.
    let registry = Registry::new();
    config.options.registry = registry.clone();
    let tracer = Tracer::new();
    tracer.enable(1024);
    config.options.tracer = tracer.clone();
    let threads = pool::thread_count();
    eprintln!(
        "[shard] {} events over {shards} shard(s), {} worker thread(s){}",
        config.events,
        threads,
        crash_at.map_or(String::new(), |k| format!(", crashing near epoch {k}")),
    );
    match driver::run_sharded(&config, dir, shards, threads, crash_at) {
        Ok((lines, crashed)) => {
            if crashed {
                eprintln!("[shard] crashed mid-stream as requested (stores left on disk)");
                return ExitCode::from(3);
            }
            if let Some(k) = crash_at {
                eprintln!(
                    "shard_bench: --crash-at {k} never triggered \
                     (the stream has only {} events)",
                    config.events
                );
                return ExitCode::FAILURE;
            }
            bench::write_transcript("shard_bench", path, &lines, &registry, &tracer)
        }
        Err(e) => {
            eprintln!("shard_bench: driver failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<String> = None;
    let mut shards: Option<u32> = None;
    let mut transcript: Option<String> = None;
    let mut crash_at: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        if i + 1 >= args.len() {
            return usage();
        }
        match args[i].as_str() {
            "--dir" => dir = Some(args[i + 1].clone()),
            "--shards" => match args[i + 1].parse() {
                Ok(n) if n > 0 => shards = Some(n),
                _ => return usage(),
            },
            "--transcript" => transcript = Some(args[i + 1].clone()),
            "--crash-at" => match args[i + 1].parse() {
                Ok(k) => crash_at = Some(k),
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }
    match (dir, shards, transcript, crash_at) {
        (Some(dir), Some(shards), Some(path), None) => {
            run_transcript(Path::new(&dir), shards, &path, None)
        }
        (Some(dir), Some(shards), None, Some(k)) => {
            run_transcript(Path::new(&dir), shards, "", Some(k))
        }
        _ => usage(),
    }
}
