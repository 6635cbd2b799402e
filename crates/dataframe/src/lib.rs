//! # dataframe
//!
//! A pandas-style columnar dataframe: the execution substrate for the
//! "pandas approach" of the NeMoEval reproduction. The paper represents a
//! network as two frames — a *node frame* (one row per node, columns =
//! attributes) and an *edge frame* (one row per edge with `source`/`target`
//! columns plus attributes) — and the LLM-generated programs filter, sort,
//! group and join those frames.
//!
//! The crate provides
//!
//! * [`Column`] — a single named sequence of dynamically-typed values,
//! * [`DataFrame`] — an ordered collection of equal-length columns with
//!   row/column accessors, filtering, sorting, group-by, joins and
//!   aggregation,
//! * [`ops`] — the comparison operators ([`ops::CmpOp`]), aggregation
//!   functions ([`ops::AggFunc`]), group-by and join implementations,
//! * [`key`] — [`key::ValueKey`], the hashable equality that key
//!   operations here and in the SQL engine partition by,
//! * [`csv`] — a dependency-free CSV reader/writer for frames.
//!
//! Values are [`netgraph::AttrValue`]s so data moves between the graph,
//! dataframe and SQL substrates without conversion loss.
//!
//! ```
//! use dataframe::{DataFrame, Column};
//! use dataframe::ops::CmpOp;
//!
//! let mut df = DataFrame::new();
//! df.add_column("node", Column::from_values(["a", "b", "c"])).unwrap();
//! df.add_column("bytes", Column::from_values([100i64, 2500, 40])).unwrap();
//! let heavy = df.filter_by("bytes", CmpOp::Gt, 50i64.into()).unwrap();
//! assert_eq!(heavy.n_rows(), 2);
//! ```

#![warn(missing_docs)]

mod column;
pub mod csv;
mod error;
mod frame;
pub mod key;
pub mod ops;

pub use column::{remove_sorted, Column, DType};
pub use error::{FrameError, Result};
pub use frame::DataFrame;
pub use netgraph::AttrValue;
