//! Serving-layer load driver: writes the deterministic multi-client
//! transcript.
//!
//! Usage:
//!
//! ```text
//! serve_bench --transcript <file>     # deterministic load-driver transcript
//! ```
//!
//! Runs the multi-client load driver (`bench::driver::drive`) on the
//! current `NEMO_THREADS` setting and writes the transcript; the smoke
//! tests `cmp` a 1-thread run against a 4-thread run. `NEMO_SMALL=1`
//! switches to seconds-scale smoke sizes.

use bench::driver::{self, DriveConfig, Preset};
use nemo_bench::pool;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: serve_bench --transcript <file>");
    ExitCode::FAILURE
}

fn run_transcript(path: &str) -> ExitCode {
    let config = DriveConfig::from_env();
    let threads = pool::thread_count();
    eprintln!(
        "[serve] driving {} clients x {} rounds on {} worker thread(s)",
        config.clients, config.rounds, threads
    );
    let lines = match driver::drive(&config, threads) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("serve_bench: driver failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = lines.join("\n") + "\n";
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("serve_bench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path} ({} transcript lines)", lines.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, path] if flag == "--transcript" => run_transcript(path),
        _ => usage(),
    }
}
