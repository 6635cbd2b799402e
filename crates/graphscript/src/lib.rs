//! # graphscript
//!
//! GraphScript is the small, dynamically-typed scripting language that plays
//! the role of "Python" in this reproduction of the NeMoEval system: the
//! simulated LLM emits GraphScript programs, the execution sandbox runs them
//! against the network state, and the benchmark's error classifier relies on
//! the interpreter's error taxonomy to reproduce the paper's Table 5.
//!
//! The language is a pragmatic Python lookalike — newline-terminated
//! statements, brace-delimited blocks, `for`/`while`/`if`/`fn`, lists,
//! dictionaries, and reference semantics for containers — with two built-in
//! object types bound to the substrates:
//!
//! * graphs ([`netgraph::Graph`]) with a NetworkX-flavoured method surface
//!   (`G.nodes()`, `G.add_edge(u, v, attrs)`, `G.remove_node(n)`, ...), and
//! * dataframes ([`dataframe::DataFrame`]) with a pandas-flavoured method
//!   surface (`df.filter(...)`, `df.groupby_agg(...)`, `df.sort_values(...)`).
//!
//! A module-level standard library covers the general helpers (`len`, `sum`,
//! `sorted`, `range`, `print`) and the graph-analysis helpers the golden
//! programs use (`shortest_path`, `connected_components`,
//! `node_weight_totals`, `kmeans_groups`, `ip_prefix`, ...).
//!
//! ```
//! use graphscript::{Interpreter, Value};
//! use netgraph::{Graph, attrs};
//!
//! let mut g = Graph::directed();
//! g.add_edge("10.0.1.1", "10.0.2.7", attrs([("bytes", 1500i64)]));
//! g.add_edge("10.0.2.7", "10.0.3.3", attrs([("bytes", 800i64)]));
//!
//! let mut interp = Interpreter::new();
//! interp.set_global("G", Value::graph(g));
//! let outcome = interp.run(r#"
//! totals = node_weight_totals(G, "bytes")
//! result = top_k(totals, 1)
//! "#).unwrap();
//! assert!(outcome.value.to_string().contains("10.0.2.7"));
//! ```

#![warn(missing_docs)]

pub mod ast;
mod bindings;
mod dict;
mod env;
mod error;
mod interp;
mod lexer;
mod parser;
mod stdlib;
mod token;
mod value;

pub use dict::Dict;
pub use error::{Result, ScriptError};
pub use interp::{Interpreter, RunOutcome, DEFAULT_STEP_LIMIT};
pub use lexer::tokenize;
pub use parser::parse_program;
pub use value::{FunctionDef, Value};
