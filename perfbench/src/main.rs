//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` of busy time and prints a table, then
//! the one-line JSON result. `--trace 0` reports the end-to-end metrics
//! with the tracer off; `--trace 1` is the separate traced run reporting
//! the per-layer metrics, and writes the flight recorder to
//! `perfbench/out/`.

use perfbench::layers::per_layer;
use perfbench::run::Limit;
use perfbench::{end_to_end, workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::by_name(&args.workload) else {
        let names: Vec<_> = workload::all().iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; choose one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: creating {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let result = if args.trace {
        // Each half of the traced run gets half the time.
        let half = Limit::Busy(Duration::from_secs_f64(args.seconds / 2.0));
        per_layer(&spec, args.seed, half, &out_dir)
    } else {
        let whole = Limit::Busy(Duration::from_secs_f64(args.seconds));
        end_to_end(&spec, args.seed, whole, &out_dir)
    };
    match result {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
