//! Sharded-serving crash driver: the shard-count-invariant crash/resume
//! transcripts and the group-commit kill proof.
//!
//! Usage:
//!
//! ```text
//! shard_bench --dir <root> --shards <n> --transcript <file>   # run (or resume), write transcript
//! shard_bench --dir <root> --shards <n> --crash-at <epoch>    # run and crash mid-stream (exit 3)
//! shard_bench --group-crash --dir <store> --after <n>         # concurrent group-commit appends,
//!                                                             # hard-exit(3) after n acks; prints acked=<n>
//! shard_bench --group-verify --dir <store> --acked <n>        # reopen; every acked epoch must be on disk
//! ```
//!
//! The `--group-crash` / `--group-verify` pair is the durability proof CI
//! runs: a process that is killed the instant `append` returns must find
//! every acknowledged epoch in the store afterwards.

use nemo_bench::pool;
use nemo_obs::trace::Tracer;
use nemo_obs::Registry;
use nemo_serve::durability::{self, DurabilityConfig};
use nemo_store::{FsyncPolicy, GroupCommitter, Store, StoreConfig};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

fn usage() -> ExitCode {
    eprintln!(
        "usage: shard_bench --dir <root> --shards <n> --transcript <file>\n\
         \u{20}      shard_bench --dir <root> --shards <n> --crash-at <epoch>\n\
         \u{20}      shard_bench --group-crash --dir <store> --after <n>\n\
         \u{20}      shard_bench --group-verify --dir <store> --acked <n>"
    );
    ExitCode::FAILURE
}

/// The group-commit store both `--group-crash` and `--group-verify` open.
fn group_store_config() -> StoreConfig {
    StoreConfig {
        magic: "nemo-shard-bench/v1".to_string(),
        fsync: FsyncPolicy::GroupCommit {
            max_batch: 32,
            max_wait_micros: 200,
        },
        segment_max_bytes: 256 << 10,
        snapshot_every_bytes: 0,
        snapshot_every_epochs: 0,
        keep_snapshots: 1,
    }
}

/// A WAL-record-sized payload, distinct per epoch.
fn payload(epoch: u64) -> Vec<u8> {
    format!(
        "{{\"schema\":\"nemo-shard-bench/v1\",\"epoch\":{epoch},\"mutation\":\
         \"set-flow 10.0.0.1->10.0.0.2 bytes={}\"}}",
        epoch * 131
    )
    .into_bytes()
}

fn run_transcript(dir: &Path, shards: u32, path: &str, crash_at: Option<u64>) -> ExitCode {
    let mut config = DurabilityConfig::from_env();
    // A fresh registry per run: the final snapshot is dumped next to the
    // transcript so CI artifacts carry the metrics alongside the lines.
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
    match durability::run_sharded(&config, dir, shards, threads, crash_at) {
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

/// Appends concurrently under group commit and hard-exits the process the
/// moment `--after` acks have been observed — no Drop, no final fsync.
/// Prints `acked=<n>` (the count every surviving byte must cover) first.
fn run_group_crash(dir: &Path, after: u64) -> ExitCode {
    let (store, _) = Store::open(dir, group_store_config()).expect("fresh crash store");
    let committer = GroupCommitter::new(store).expect("group-commit policy");
    let acked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let n = acked.load(Ordering::SeqCst);
                if n >= after {
                    return;
                }
                let epoch = committer.append(&payload(n + 1)).expect("acked append");
                let total = acked.fetch_add(1, Ordering::SeqCst) + 1;
                if total == after {
                    // Every append that returned was acked durable; kill
                    // the process without unwinding to prove it.
                    println!("acked={}", committer.last_synced().max(epoch));
                    std::process::exit(3);
                }
            });
        }
    });
    eprintln!("shard_bench: crash threshold never reached");
    ExitCode::FAILURE
}

/// Reopens a store left behind by `--group-crash` and checks that every
/// acknowledged epoch survived.
fn run_group_verify(dir: &Path, acked: u64) -> ExitCode {
    let (store, report) = Store::open(dir, group_store_config()).expect("crashed store reopens");
    let last = store.last_epoch().unwrap_or(0);
    if last < acked {
        eprintln!(
            "shard_bench: store holds epochs through {last} but {acked} were acked \
             (truncated {} bytes)",
            report.truncated_bytes
        );
        return ExitCode::FAILURE;
    }
    println!(
        "verified: {last} epochs on disk >= {acked} acked (truncated {} torn bytes)",
        report.truncated_bytes
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<String> = None;
    let mut shards: Option<u32> = None;
    let mut transcript: Option<String> = None;
    let mut crash_at: Option<u64> = None;
    let mut group_crash = false;
    let mut group_verify = false;
    let mut after: Option<u64> = None;
    let mut acked: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        let needs_value = matches!(
            args[i].as_str(),
            "--dir" | "--shards" | "--transcript" | "--crash-at" | "--after" | "--acked"
        );
        if needs_value && i + 1 >= args.len() {
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
            "--after" => match args[i + 1].parse() {
                Ok(k) => after = Some(k),
                Err(_) => return usage(),
            },
            "--acked" => match args[i + 1].parse() {
                Ok(k) => acked = Some(k),
                Err(_) => return usage(),
            },
            "--group-crash" => {
                group_crash = true;
                i += 1;
                continue;
            }
            "--group-verify" => {
                group_verify = true;
                i += 1;
                continue;
            }
            _ => return usage(),
        }
        i += 2;
    }
    match (group_crash, group_verify, dir, shards) {
        (true, false, Some(dir), None) => match after {
            Some(after) => run_group_crash(Path::new(&dir), after),
            None => usage(),
        },
        (false, true, Some(dir), None) => match acked {
            Some(acked) => run_group_verify(Path::new(&dir), acked),
            None => usage(),
        },
        (false, false, Some(dir), Some(shards)) => match (transcript, crash_at) {
            (Some(path), None) => run_transcript(Path::new(&dir), shards, &path, None),
            (None, Some(k)) => run_transcript(Path::new(&dir), shards, "", Some(k)),
            _ => usage(),
        },
        _ => usage(),
    }
}
