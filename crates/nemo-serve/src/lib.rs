//! # nemo-serve
//!
//! The deterministic live-state serving layer: where the paper's pipeline
//! answers one query over a frozen snapshot, this crate keeps a network
//! *changing* under a stream of mutations and serves natural-language
//! queries against the current state — the ROADMAP's "heavy traffic over a
//! network that keeps changing" direction.
//!
//! Four pieces:
//!
//! * **Write path** — [`LiveNetwork`] wraps the property-graph and tabular
//!   substrates behind an event-sourced API: every [`Mutation`] is applied
//!   to all backends in lockstep and advances a monotonically increasing
//!   epoch. A persistent server logs each one as a [`WalRecord`] first.
//!   [`trafficgen::evolve`] generates the deterministic timestamped
//!   mutation streams that feed it.
//! * **Snapshot + replay** — [`snapshot::write_snapshot`] serializes a live
//!   network to a versioned document (node-link graph JSON + lossless frame
//!   CSV) and [`snapshot::replay`] proves `snapshot(e) + WAL[e..]`
//!   reconstructs byte-identical state and identical query answers.
//! * **Read path** — a [`Server`] answers typed [`Request`]s through
//!   [`Server::handle`], interleaving mutations with queries from N
//!   simulated client [`Session`]s. Queries reuse `nemo-core`'s prompt →
//!   LLM → sandbox pipeline behind a [`ProgramCache`] keyed by
//!   `(query, backend)`: answers are invalidated by epoch, compiled
//!   programs survive mutations, and a warm cache skips the LLM and the
//!   compiler entirely.
//! * **Durability** — a server given a persistence root keeps one
//!   `nemo-store` segmented, checksummed on-disk WAL plus snapshot files
//!   per shard under `root/shard-<k>/` — a single-shard server is the same
//!   layout with N = 1 ([`shard_persist`]; [`codec`] defines the record
//!   payload). Mutations are durably logged before they apply, snapshots
//!   compact the log on thresholds, and
//!   [`ServerBuilder::recover_or_create`] rebuilds the exact state after a
//!   crash — torn tails truncated, corruption and unknown layouts refused
//!   loudly.
//!
//! The load and crash/resume drivers that exercise all of this live in
//! the `bench` crate and reach a server only through its public methods.
//!
//! ```
//! use nemo_serve::{LiveNetwork, Mutation};
//! use trafficgen::{generate, TrafficConfig};
//!
//! let workload = generate(&TrafficConfig { nodes: 8, edges: 10, prefixes: 2, seed: 1 });
//! let mut live = LiveNetwork::from_workload(&workload);
//! let epoch = live
//!     .apply(&Mutation::SetNodeAttr {
//!         id: workload.endpoints[0].to_string_dotted(),
//!         key: "label".to_string(),
//!         value: "app:web".into(),
//!     })
//!     .unwrap();
//! assert_eq!(epoch, 1);
//! assert_eq!(live.epoch(), 1);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod driver;
mod error;
mod live;
pub mod metrics;
mod mutation;
pub mod persist;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod shard_persist;
pub mod snapshot;

pub use cache::{CacheOutcome, CacheStats, ProgramCache};
pub use error::ServeError;
pub use live::LiveNetwork;
pub use metrics::{validate_chrome_doc, validate_metrics_doc, validate_trace_doc, ServeMetrics};
pub use mutation::{Epoch, Mutation, WalRecord};
pub use nemo_obs::trace::Tracer;
pub use persist::{FsyncPolicy, PersistOptions, RecoveryReport};
pub use protocol::{Request, Response, StatsReport};
pub use server::{Reply, Server, ServerBuilder, Session};
pub use shard::{shard_of, ShardedNetwork};
pub use shard_persist::ShardPersistence;
