//! Network state snapshots and execution outcomes.
//!
//! The execution sandbox runs a program against a *state* (the network in
//! the representation of the chosen backend) and produces an *outcome* (the
//! program's result value plus the possibly-mutated state). The results
//! evaluator compares the outcome of the LLM-generated program against the
//! outcome of the golden program — both the value and the final state must
//! match, which is how the paper's "graphs are not identical" failures are
//! detected.

use dataframe::DataFrame;
use graphscript::Value;
use netgraph::{graphs_approx_eq, Graph};
use sqlengine::Database;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The network in one backend's representation.
///
/// Every substrate sits behind an `Arc` (the SQL [`Database`] shares its
/// tables the same way), so cloning a state copies no network data. Its
/// owners write copy-on-write: a write makes the writer's copy private
/// first whenever another owner shares it.
#[derive(Debug, Clone)]
pub enum NetworkState {
    /// A property graph (NetworkX approach and strawman baseline).
    Graph(Arc<Graph>),
    /// Node and edge dataframes (pandas approach).
    Frames {
        /// The node frame.
        nodes: Arc<DataFrame>,
        /// The edge frame.
        edges: Arc<DataFrame>,
    },
    /// Node and edge SQL tables (SQL approach).
    Database(Database),
}

impl NetworkState {
    /// True when both states use the same representation and are
    /// approximately equal (numeric tolerance, row-order insensitive for
    /// tables). Substrates that are one shared allocation compare equal
    /// without a scan.
    pub fn approx_eq(&self, other: &NetworkState) -> bool {
        fn frames_eq(a: &Arc<DataFrame>, b: &Arc<DataFrame>) -> bool {
            Arc::ptr_eq(a, b) || a.approx_eq_unordered(b)
        }
        match (self, other) {
            (NetworkState::Graph(a), NetworkState::Graph(b)) => {
                Arc::ptr_eq(a, b) || graphs_approx_eq(a, b)
            }
            (
                NetworkState::Frames {
                    nodes: an,
                    edges: ae,
                },
                NetworkState::Frames {
                    nodes: bn,
                    edges: be,
                },
            ) => frames_eq(an, bn) && frames_eq(ae, be),
            (NetworkState::Database(a), NetworkState::Database(b)) => a.approx_eq(b),
            _ => false,
        }
    }

    /// A one-line description used in logs.
    pub fn describe(&self) -> String {
        match self {
            NetworkState::Graph(g) => format!(
                "graph({} nodes, {} edges)",
                g.number_of_nodes(),
                g.number_of_edges()
            ),
            NetworkState::Frames { nodes, edges } => {
                format!(
                    "frames({} node rows, {} edge rows)",
                    nodes.n_rows(),
                    edges.n_rows()
                )
            }
            NetworkState::Database(db) => format!("database({} tables)", db.table_names().len()),
        }
    }
}

/// A self-contained snapshot of a GraphScript runtime value.
///
/// `graphscript::Value` uses `Rc<RefCell<...>>` reference semantics inside
/// the interpreter, which makes anything holding one `!Send`. The sandbox
/// detaches results into this deep-copied tree at its boundary so outcomes
/// (and everything built from them — golden answers, the benchmark suite)
/// can be shared across worker threads. Graphs and frames are copied too,
/// although in the interpreter they may share the caller's substrate
/// `Arc`: a value kept past the request (a cached answer) must not pin the
/// live state, or its next write would have to copy it.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptValue {
    /// `null` / `None`
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(String),
    /// List snapshot.
    List(Vec<ScriptValue>),
    /// Dictionary snapshot (string keys, deterministically ordered).
    Dict(BTreeMap<String, ScriptValue>),
    /// A property graph returned as the program's result (boxed: the
    /// interned graph core is a wide struct, and snapshots are cloned
    /// throughout the benchmark matrix).
    Graph(Box<Graph>),
    /// A dataframe returned as the program's result.
    Frame(DataFrame),
}

impl ScriptValue {
    /// Numeric view, mirroring `graphscript::Value::as_f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ScriptValue::Int(i) => Some(*i as f64),
            ScriptValue::Float(f) => Some(*f),
            ScriptValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Deep equality with numeric coercion and float tolerance, mirroring
    /// `graphscript::Value::approx_eq` so detaching values at the sandbox
    /// boundary does not change any evaluator verdict.
    pub fn approx_eq(&self, other: &ScriptValue) -> bool {
        match (self, other) {
            (ScriptValue::Null, ScriptValue::Null) => true,
            (ScriptValue::Str(a), ScriptValue::Str(b)) => a == b,
            (ScriptValue::Bool(a), ScriptValue::Bool(b)) => a == b,
            (ScriptValue::List(a), ScriptValue::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.approx_eq(y))
            }
            (ScriptValue::Dict(a), ScriptValue::Dict(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .all(|(k, v)| b.get(k).map(|o| v.approx_eq(o)).unwrap_or(false))
            }
            (ScriptValue::Graph(a), ScriptValue::Graph(b)) => graphs_approx_eq(a, b),
            (ScriptValue::Frame(a), ScriptValue::Frame(b)) => a.approx_eq(b),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => {
                    let diff = (a - b).abs();
                    diff <= 1e-9 || diff <= 1e-9 * a.abs().max(b.abs())
                }
                _ => false,
            },
        }
    }
}

impl From<&Value> for ScriptValue {
    /// Deep snapshot of an interpreter value. Function values cannot
    /// meaningfully outlive the interpreter; they snapshot to their display
    /// form.
    fn from(value: &Value) -> Self {
        match value {
            Value::Null => ScriptValue::Null,
            Value::Bool(b) => ScriptValue::Bool(*b),
            Value::Int(i) => ScriptValue::Int(*i),
            Value::Float(f) => ScriptValue::Float(*f),
            Value::Str(s) => ScriptValue::Str(s.to_string()),
            Value::List(items) => {
                ScriptValue::List(items.borrow().iter().map(ScriptValue::from).collect())
            }
            Value::Dict(map) => ScriptValue::Dict(
                map.borrow()
                    .entries()
                    .iter()
                    .map(|(k, v)| (k.to_string(), ScriptValue::from(v)))
                    .collect(),
            ),
            Value::Graph(g) => ScriptValue::Graph(Box::new(Graph::clone(&g.borrow()))),
            Value::Frame(df) => ScriptValue::Frame(DataFrame::clone(&df.borrow())),
            Value::Function(_) => ScriptValue::Str(value.to_string()),
        }
    }
}

impl fmt::Display for ScriptValue {
    /// Mirrors `graphscript::Value`'s display formats exactly, so rendered
    /// answers (and the strawman's golden direct answers derived from them)
    /// are unchanged by the snapshot.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptValue::Null => write!(f, "null"),
            ScriptValue::Bool(b) => write!(f, "{b}"),
            ScriptValue::Int(i) => write!(f, "{i}"),
            ScriptValue::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            ScriptValue::Str(s) => write!(f, "{s}"),
            ScriptValue::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            ScriptValue::Dict(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            ScriptValue::Graph(g) => {
                write!(
                    f,
                    "<graph {} nodes, {} edges>",
                    g.number_of_nodes(),
                    g.number_of_edges()
                )
            }
            ScriptValue::Frame(df) => {
                write!(f, "<dataframe {} rows x {} cols>", df.n_rows(), df.n_cols())
            }
        }
    }
}

/// The value a program produced.
#[derive(Debug, Clone)]
pub enum OutputValue {
    /// The program produced no explicit value.
    None,
    /// A detached GraphScript value (NetworkX / pandas backends).
    Script(ScriptValue),
    /// A result table (SQL backend `SELECT`s).
    Table(DataFrame),
    /// Free text (the strawman baseline's direct answer).
    Text(String),
}

impl OutputValue {
    /// Approximate equality between two output values of the same shape.
    /// Text answers are compared after whitespace normalization.
    pub fn approx_eq(&self, other: &OutputValue) -> bool {
        match (self, other) {
            (OutputValue::None, OutputValue::None) => true,
            (OutputValue::Script(a), OutputValue::Script(b)) => a.approx_eq(b),
            (OutputValue::Table(a), OutputValue::Table(b)) => a.approx_eq_unordered(b),
            (OutputValue::Text(a), OutputValue::Text(b)) => normalize_text(a) == normalize_text(b),
            // A script value can match a text answer when their normalized
            // renderings agree (used when comparing the strawman's direct
            // answer against a golden program's value).
            (OutputValue::Script(a), OutputValue::Text(b))
            | (OutputValue::Text(b), OutputValue::Script(a)) => {
                normalize_text(&a.to_string()) == normalize_text(b)
            }
            _ => false,
        }
    }

    /// Renders the value for logs and the UX display.
    pub fn render(&self) -> String {
        match self {
            OutputValue::None => "(no value)".to_string(),
            OutputValue::Script(v) => v.to_string(),
            OutputValue::Table(df) => df.to_string(),
            OutputValue::Text(t) => t.clone(),
        }
    }
}

/// Whitespace- and case-insensitive canonical form used when comparing
/// free-text answers (and by the simulated LLM's query matching).
pub(crate) fn normalize_text(text: &str) -> String {
    text.split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .to_lowercase()
}

/// The result of executing one program in the sandbox.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The value the program produced.
    pub value: OutputValue,
    /// The network state after execution (programs may mutate it). A
    /// substrate the program did not write is the input's own `Arc`.
    pub state: NetworkState,
    /// Anything the program printed.
    pub printed: Vec<String>,
}

impl Outcome {
    /// True when both the value and the final state match.
    pub fn matches(&self, other: &Outcome) -> bool {
        self.value.approx_eq(&other.value) && self.state.approx_eq(&other.state)
    }
}

// Outcomes are shared across benchmark worker threads (golden answers live
// in the suite); this fails to compile if a non-Send/Sync type sneaks back
// into the state tree.
const _: fn() = || {
    fn assert_sync_send<T: Send + Sync>() {}
    assert_sync_send::<Outcome>();
    assert_sync_send::<NetworkState>();
    assert_sync_send::<ScriptValue>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::Column;
    use netgraph::attrs;

    fn graph_state() -> NetworkState {
        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("bytes", 10i64)]));
        NetworkState::Graph(g.into())
    }

    #[test]
    fn state_comparison_same_and_cross_representation() {
        let a = graph_state();
        let b = graph_state();
        assert!(a.approx_eq(&b));
        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("bytes", 99i64)]));
        assert!(!a.approx_eq(&NetworkState::Graph(g.into())));
        let frames = NetworkState::Frames {
            nodes: DataFrame::new().into(),
            edges: DataFrame::new().into(),
        };
        assert!(!a.approx_eq(&frames));
        assert!(a.describe().contains("graph"));
        assert!(frames.describe().contains("frames"));
    }

    #[test]
    fn frames_comparison_is_row_order_insensitive() {
        let df =
            DataFrame::from_columns(vec![("x".to_string(), Column::from_values([1i64, 2, 3]))])
                .unwrap();
        let shuffled = df.take(&[2, 0, 1]).unwrap();
        let a = NetworkState::Frames {
            nodes: df.clone().into(),
            edges: df.clone().into(),
        };
        let b = NetworkState::Frames {
            nodes: shuffled.clone().into(),
            edges: shuffled.into(),
        };
        assert!(a.approx_eq(&b));
    }

    #[test]
    fn output_value_comparisons() {
        assert!(OutputValue::Script(ScriptValue::Int(5))
            .approx_eq(&OutputValue::Script(ScriptValue::Float(5.0))));
        assert!(OutputValue::Text("  Hello   World ".into())
            .approx_eq(&OutputValue::Text("hello world".into())));
        assert!(OutputValue::Script(ScriptValue::Int(5)).approx_eq(&OutputValue::Text("5".into())));
        assert!(!OutputValue::Script(ScriptValue::Int(5)).approx_eq(&OutputValue::None));
        assert!(OutputValue::None.approx_eq(&OutputValue::None));
        let t =
            DataFrame::from_columns(vec![("n".to_string(), Column::from_values([1i64]))]).unwrap();
        assert!(OutputValue::Table(t.clone()).approx_eq(&OutputValue::Table(t)));
    }

    #[test]
    fn script_value_snapshot_preserves_rendering_and_equality() {
        // A nested interpreter value snapshots into an equivalent detached
        // tree: same display form, approx-equal element-wise.
        let mut dict = std::collections::BTreeMap::new();
        dict.insert("a".to_string(), Value::Int(1));
        dict.insert("b".to_string(), Value::Float(2.0));
        let live = Value::list(vec![
            Value::dict(dict),
            Value::Str("x".into()),
            Value::Null,
            Value::Bool(true),
        ]);
        let snap = ScriptValue::from(&live);
        assert_eq!(snap.to_string(), live.to_string());
        let again = ScriptValue::from(&live);
        assert!(snap.approx_eq(&again));

        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("bytes", 10i64)]));
        let graph_snap = ScriptValue::from(&Value::graph(g.clone()));
        assert!(graph_snap.approx_eq(&ScriptValue::Graph(Box::new(g))));
        assert!(graph_snap.to_string().contains("<graph"));
        assert!(!graph_snap.approx_eq(&ScriptValue::Int(1)));
    }

    #[test]
    fn outcome_matching_requires_value_and_state() {
        let base = Outcome {
            value: OutputValue::Script(ScriptValue::Int(1)),
            state: graph_state(),
            printed: vec![],
        };
        let same = Outcome {
            value: OutputValue::Script(ScriptValue::Float(1.0)),
            state: graph_state(),
            printed: vec!["ignored".into()],
        };
        assert!(base.matches(&same));
        let wrong_value = Outcome {
            value: OutputValue::Script(ScriptValue::Int(2)),
            state: graph_state(),
            printed: vec![],
        };
        assert!(!base.matches(&wrong_value));
    }
}
