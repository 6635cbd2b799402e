//! Shared plumbing for the table/figure regeneration binaries and the
//! serving drivers.
//!
//! Each regeneration binary (`table2` … `table6`, `figure4a`, `figure4b`)
//! regenerates one table or figure from the paper's evaluation section.
//! They all run the same full benchmark, so the shared pieces live here,
//! next to the transcript writer the persistent drivers share. The
//! drivers themselves are [`driver`].

#![warn(missing_docs)]

pub mod driver;

use nemo_bench::{runner, BenchmarkSuite, SuiteConfig};
use nemo_core::ResultsLogger;
use nemo_obs::trace::Tracer;
use nemo_obs::Registry;
use netgraph::json::JsonValue;
use std::process::ExitCode;

/// Builds the benchmark suite used by every regeneration binary.
///
/// Setting the environment variable `NEMO_SMALL=1` switches to the reduced
/// MALT preset, which is useful when iterating locally. Suite construction
/// and every benchmark stage fan out over `NEMO_THREADS` worker threads
/// (default: available parallelism); results are identical at any thread
/// count.
pub fn build_suite() -> BenchmarkSuite {
    if std::env::var("NEMO_SMALL").is_ok() {
        BenchmarkSuite::build(&SuiteConfig::small())
    } else {
        BenchmarkSuite::build_default()
    }
}

/// Runs the full accuracy benchmark (all four model profiles) with the
/// published seed, parallel over `NEMO_THREADS` workers. The log is
/// bit-for-bit identical at any thread count, so the knob is purely a
/// wall-clock lever.
pub fn run_full(suite: &BenchmarkSuite) -> ResultsLogger {
    eprintln!(
        "[bench] running on {} worker thread(s) (override with {}=N)",
        nemo_bench::pool::thread_count(),
        nemo_bench::pool::THREADS_ENV,
    );
    runner::run_accuracy_benchmark(suite, runner::DEFAULT_SEED)
}

/// Writes a driver's transcript and its two sibling documents: the
/// registry snapshot as `<path>.metrics.json` and the schema-validated
/// flight recorder as `<path>.traces.json`, so every transcript carries
/// the metrics and traces of the run that produced it.
/// `tool` prefixes the error messages.
pub fn write_transcript(
    tool: &str,
    path: &str,
    lines: &[String],
    registry: &Registry,
    tracer: &Tracer,
) -> ExitCode {
    let traces = tracer.to_doc(0);
    match JsonValue::parse(&traces) {
        Ok(doc) => {
            if let Err(e) = nemo_serve::validate_trace_doc(&doc) {
                eprintln!("{tool}: trace document invalid: {e}");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("{tool}: trace document does not parse: {e:?}");
            return ExitCode::FAILURE;
        }
    }
    let files = [
        (path.to_string(), lines.join("\n") + "\n"),
        (
            format!("{path}.metrics.json"),
            registry.snapshot().to_json() + "\n",
        ),
        (format!("{path}.traces.json"), traces + "\n"),
    ];
    for (file, text) in files {
        if let Err(e) = std::fs::write(&file, text) {
            eprintln!("{tool}: cannot write {file}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {file}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_builds_through_the_helper() {
        std::env::set_var("NEMO_SMALL", "1");
        let suite = build_suite();
        assert_eq!(suite.queries.len(), 33);
        std::env::remove_var("NEMO_SMALL");
    }
}
