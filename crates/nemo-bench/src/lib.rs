//! # nemo-bench
//!
//! NeMoEval — the benchmark of *"Enhancing Network Management Using Code
//! Generated by Large Language Models"* (HotNets 2023), reproduced end to
//! end:
//!
//! * the two applications' query suites with golden programs per backend
//!   ([`traffic_queries`], [`malt_queries`]; 24 + 9 queries, three
//!   complexity levels, including the examples of the paper's Table 1),
//! * suite assembly — workload generation, golden-answer execution and the
//!   simulated-LLM knowledge base ([`BenchmarkSuite`]),
//! * benchmark execution for the accuracy matrix, error breakdown, pass@k /
//!   self-debug case study and cost analysis ([`runner`]) — parallel over
//!   matrix cells via the in-tree work-queue thread pool ([`pool`],
//!   `NEMO_THREADS`), with bit-for-bit identical results at any thread
//!   count,
//! * the cross-backend conformance harness ([`conformance`]): each traffic
//!   query's three golden programs executed on the SQL, dataframe and
//!   property-graph substrates as mutual oracles,
//! * plain-text regeneration of every table and figure in the paper's
//!   evaluation section ([`report`]).
//!
//! ```no_run
//! use nemo_bench::{BenchmarkSuite, runner, report};
//!
//! let suite = BenchmarkSuite::build_default();
//! let logger = runner::run_accuracy_benchmark(&suite, runner::DEFAULT_SEED);
//! println!("{}", report::format_table2(&suite, &logger));
//! ```

#![warn(missing_docs)]

pub mod conformance;
mod malt_queries;
pub mod pool;
pub mod report;
pub mod runner;
mod spec;
mod suite;
mod traffic_queries;

pub use malt_queries::malt_queries;
pub use spec::QuerySpec;
pub use suite::{golden_of, state_kind, BenchmarkSuite, PreparedQuery, SuiteConfig};
pub use traffic_queries::traffic_queries;
