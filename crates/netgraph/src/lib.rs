//! # netgraph
//!
//! A NetworkX-style property-graph library: the execution substrate for the
//! "NetworkX approach" of the NeMoEval reproduction. The crate provides
//!
//! * [`Graph`] — a directed or undirected simple graph with arbitrary
//!   attribute maps on the graph, nodes and edges,
//! * [`algo`] — traversal, shortest paths, connected components, degree and
//!   weight statistics, clustering/grouping, and coloring,
//! * [`json`] — a small, dependency-free JSON value type plus a node-link
//!   graph encoding (the format the strawman baseline pastes into prompts),
//! * deterministic graph generators for tests and benches ([`path_graph`],
//!   [`star_graph`], [`cycle_graph`], [`complete_graph`], [`binary_tree`]).
//!
//! ```
//! use netgraph::{Graph, attrs};
//! use netgraph::algo::degree::node_weight_totals;
//!
//! let mut g = Graph::directed();
//! g.add_edge("10.0.1.1", "10.0.2.7", attrs([("bytes", 1500i64)]));
//! g.add_edge("10.0.2.7", "10.0.3.3", attrs([("bytes", 800i64)]));
//! let totals = node_weight_totals(&g, "bytes").unwrap();
//! assert_eq!(totals["10.0.2.7"], 2300.0);
//! ```

#![warn(missing_docs)]

pub mod algo;
mod attr;
mod error;
mod generators;
mod graph;
pub mod intern;
pub mod json;
mod value;

pub use attr::{attrs, AttrMap, AttrMapExt};
pub use error::{GraphError, Result};
pub use generators::{binary_tree, complete_graph, cycle_graph, path_graph, star_graph};
pub use graph::{graphs_approx_eq, Graph, NodeId};
pub use intern::{Interner, Symbol};
pub use value::AttrValue;
