//! # perfbench
//!
//! The standing serving benchmark. One client thread drives whole typed
//! `Request`s through `Server::handle` in a closed loop, over three
//! workloads generated from a seed (see [`workload`]). An untraced run
//! ([`end_to_end`]) reports what an operator sees; a separate traced run
//! ([`layers::per_layer`]) reports each layer's share, measured from
//! outside the program. Both check the server's outputs as they go.

pub mod layers;
pub mod llm;
pub mod report;
pub mod run;
pub mod workload;

use report::{median, peak_rss_mb, percentile, Report};
use run::{Checks, Harness, Limit, Recovery};
use std::path::Path;
use workload::{Inputs, Spec};

/// Set-ups per untraced run before the stream (the last one serves it)
/// and after it (thrown away); `setup_s` is the median of all of them.
/// Spreading them over the run averages out the machine's drifts in speed.
pub const SETUPS_BEFORE: usize = 3;

/// See [`SETUPS_BEFORE`].
pub const SETUPS_AFTER: usize = 2;

/// Crash recoveries per untraced run of a durable workload; `recover_s`
/// is their median.
pub const RECOVERIES: usize = 3;

/// Runs one workload untraced and reports its end-to-end metrics.
pub fn end_to_end(spec: &Spec, seed: u64, limit: Limit, out_dir: &Path) -> Result<Report, String> {
    let inputs = Inputs::generate(spec, seed);
    let root = out_dir.join(format!("{}-{}", spec.name, std::process::id()));
    let harness = Harness::new(spec, &inputs, root, nemo_serve::Tracer::new());
    let mut checks = Checks::default();
    let mut setups = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut server = None;
    for _ in 0..SETUPS_BEFORE {
        drop(server.take());
        let (built, took) = harness.setup(&mut checks)?;
        setups.push(took.as_secs_f64());
        server = Some(built);
    }
    let mut server = server.expect("at least one set-up ran");
    let stream = harness.run_stream(&mut server, limit, &mut checks, |_, _| {});
    let recovery = if spec.durable {
        harness.crash_and_recover(server, RECOVERIES, &mut checks)
    } else {
        drop(server);
        Recovery::default()
    };
    for _ in 0..SETUPS_AFTER {
        let (_, took) = harness.setup(&mut checks)?;
        setups.push(took.as_secs_f64());
    }
    harness.clear();

    let mut report = Report::default();
    report.metric("setup_s", "s", median(&setups));
    report.metric(
        "throughput_rps",
        "1/s",
        stream.requests as f64 / stream.busy.as_secs_f64(),
    );
    report.metric(
        "mutate_p50_us",
        "us",
        percentile(&stream.mutate_nanos, 50.0) / 1e3,
    );
    report.metric("peak_rss_mb", "MB", peak_rss_mb());

    // Table-only figures: not every workload has the samples for them
    // (read_path sends too few removals for a steady mutation tail).
    report.extra(
        "mutate_p95_us",
        "us",
        percentile(&stream.mutate_nanos, 95.0) / 1e3,
    );

    let queries = stream.query_nanos.len();
    if queries > 0 {
        report.extra(
            "query_p50_ms",
            "ms",
            percentile(&stream.query_nanos, 50.0) / 1e6,
        );
        report.extra(
            "query_p95_ms",
            "ms",
            percentile(&stream.query_nanos, 95.0) / 1e6,
        );
        report.extra(
            "llm_usd_per_1k_queries",
            "USD",
            stream.llm.usd * 1e3 / queries as f64,
        );
    }
    if spec.durable {
        report.extra("recover_s", "s", median(&recovery.seconds));
    }
    report.notes.push(format!(
        "workload {} seed {seed}: {} rounds, {} requests ({} mutations, {} queries), {:.3} s busy{}",
        spec.name,
        stream.rounds,
        stream.requests,
        stream.mutate_nanos.len(),
        queries,
        stream.busy.as_secs_f64(),
        if stream.exhausted {
            ", generated stream used up"
        } else {
            ""
        }
    ));
    report.notes.push(format!(
        "transcript digest {:016x}, answer digest {:016x}",
        stream.transcript.0, stream.answers.0
    ));
    report.digests = Some((stream.transcript, stream.answers));
    report.checks = checks;
    Ok(report)
}
