//! The execution sandbox (component 5 of the paper's Figure 2).
//!
//! LLM-generated code never touches the live network. A program runs
//! against the state it is handed, with an interpreter step budget as a
//! runaway-loop guard, and the caller decides afterwards whether to sync
//! the mutated state back. The state is shared copy-on-write, not copied:
//! the program's `G` / `nodes` / `edges` globals (and the SQL tables) start
//! as the caller's own `Arc`s, and the first write through one of them
//! copies that substrate privately. A read-only program therefore copies
//! nothing, and [`Outcome::state`] hands back the caller's `Arc`s; a
//! mutating program leaves the caller's state exactly as it was. Each
//! backend uses its own engine: GraphScript over a graph (NetworkX
//! approach), GraphScript over dataframes (pandas approach), the SQL engine
//! (SQL approach). The strawman baseline has nothing to execute — the reply
//! *is* the answer.

use crate::backend::Backend;
use crate::llm::{extract_code, LlmResponse};
use crate::state::{NetworkState, Outcome, OutputValue, ScriptValue};
use graphscript::{Interpreter, ScriptError, Value};
use sqlengine::{QueryResult, SqlError};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Why the sandbox could not produce an outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum SandboxError {
    /// The LLM reply contained no code block to execute.
    NoCode,
    /// The reply's code targeted a different representation than the state
    /// provided (an internal wiring error, not an LLM failure).
    StateMismatch {
        /// The backend requested.
        backend: Backend,
        /// A description of the state that was provided.
        state: String,
    },
    /// The GraphScript program failed to parse or run.
    Script(ScriptError),
    /// The SQL script failed to parse or run.
    Sql(SqlError),
}

impl fmt::Display for SandboxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SandboxError::NoCode => write!(f, "the reply contained no code block"),
            SandboxError::StateMismatch { backend, state } => {
                write!(f, "backend {backend} cannot execute against {state}")
            }
            SandboxError::Script(e) => write!(f, "{e}"),
            SandboxError::Sql(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SandboxError {}

/// Interpreter step budget applied to GraphScript programs (runaway-loop
/// guard; generous for benchmark-sized networks).
pub const SANDBOX_STEP_LIMIT: u64 = 20_000_000;

/// Executes an LLM reply against `state` (shared copy-on-write).
///
/// For code-generation backends the first fenced code block is extracted
/// and executed; for the strawman the reply text is the outcome value and
/// the state is returned untouched.
pub fn execute_response(
    backend: Backend,
    response: &LlmResponse,
    state: &NetworkState,
) -> Result<Outcome, SandboxError> {
    match backend {
        Backend::Strawman => Ok(Outcome {
            value: OutputValue::Text(response.text.clone()),
            state: state.clone(),
            printed: Vec::new(),
        }),
        _ => {
            let code = extract_code(&response.text).ok_or(SandboxError::NoCode)?;
            execute_code(backend, &code, state)
        }
    }
}

/// Executes a program (GraphScript or SQL, depending on the backend) against
/// `state`, shared copy-on-write: `state` itself is never modified.
pub fn execute_code(
    backend: Backend,
    code: &str,
    state: &NetworkState,
) -> Result<Outcome, SandboxError> {
    match backend {
        Backend::NetworkX | Backend::Strawman => {
            let NetworkState::Graph(graph) = state else {
                return Err(mismatch(backend, state));
            };
            // After the run each cell holds the input's own `Arc` unless
            // the program wrote through it.
            let graph = Rc::new(RefCell::new(Arc::clone(graph)));
            let mut interp = Interpreter::new().with_step_limit(SANDBOX_STEP_LIMIT);
            interp.set_global("G", Value::Graph(Rc::clone(&graph)));
            let run = interp.run(code).map_err(SandboxError::Script)?;
            let graph = Arc::clone(&graph.borrow());
            Ok(Outcome {
                value: OutputValue::Script(ScriptValue::from(&run.value)),
                state: NetworkState::Graph(graph),
                printed: run.output,
            })
        }
        Backend::Pandas => {
            let NetworkState::Frames { nodes, edges } = state else {
                return Err(mismatch(backend, state));
            };
            let nodes = Rc::new(RefCell::new(Arc::clone(nodes)));
            let edges = Rc::new(RefCell::new(Arc::clone(edges)));
            let mut interp = Interpreter::new().with_step_limit(SANDBOX_STEP_LIMIT);
            interp.set_global("nodes", Value::Frame(Rc::clone(&nodes)));
            interp.set_global("edges", Value::Frame(Rc::clone(&edges)));
            let run = interp.run(code).map_err(SandboxError::Script)?;
            let (nodes, edges) = (Arc::clone(&nodes.borrow()), Arc::clone(&edges.borrow()));
            Ok(Outcome {
                value: OutputValue::Script(ScriptValue::from(&run.value)),
                state: NetworkState::Frames { nodes, edges },
                printed: run.output,
            })
        }
        Backend::Sql => {
            let NetworkState::Database(db) = state else {
                return Err(mismatch(backend, state));
            };
            let mut db = db.clone();
            let results = db.execute_script(code).map_err(SandboxError::Sql)?;
            let last_rows = results.into_iter().rev().find_map(|r| match r {
                QueryResult::Rows(df) => Some(df),
                QueryResult::Affected(_) => None,
            });
            Ok(Outcome {
                value: match last_rows {
                    Some(df) => OutputValue::Table(df),
                    None => OutputValue::None,
                },
                state: NetworkState::Database(db),
                printed: Vec::new(),
            })
        }
    }
}

fn mismatch(backend: Backend, state: &NetworkState) -> SandboxError {
    SandboxError::StateMismatch {
        backend,
        state: state.describe(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::{Column, DataFrame};
    use netgraph::{attrs, Graph};
    use sqlengine::Database;

    fn graph_state() -> NetworkState {
        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("bytes", 10i64)]));
        g.add_edge("b", "c", attrs([("bytes", 20i64)]));
        NetworkState::Graph(g.into())
    }

    fn frame_state() -> NetworkState {
        NetworkState::Frames {
            nodes: DataFrame::from_columns(vec![(
                "id".to_string(),
                Column::from_values(["a", "b", "c"]),
            )])
            .unwrap()
            .into(),
            edges: DataFrame::from_columns(vec![
                ("source".to_string(), Column::from_values(["a", "b"])),
                ("target".to_string(), Column::from_values(["b", "c"])),
                ("bytes".to_string(), Column::from_values([10i64, 20])),
            ])
            .unwrap()
            .into(),
        }
    }

    fn db_state() -> NetworkState {
        let mut db = Database::new();
        if let NetworkState::Frames { nodes, edges } = frame_state() {
            db.create_table("nodes", nodes);
            db.create_table("edges", edges);
        }
        NetworkState::Database(db)
    }

    #[test]
    fn networkx_execution_mutates_a_copy() {
        let state = graph_state();
        let outcome = execute_code(
            Backend::NetworkX,
            "G.set_node_attr(\"a\", \"color\", \"red\")\nresult = G.number_of_edges()",
            &state,
        )
        .unwrap();
        assert!(outcome
            .value
            .approx_eq(&OutputValue::Script(ScriptValue::Int(2))));
        // The program wrote to its own copy: the input state is untouched.
        if let NetworkState::Graph(g) = &state {
            assert!(g.get_node_attr_opt("a", "color").is_none());
        }
        if let NetworkState::Graph(g) = &outcome.state {
            assert!(g.get_node_attr_opt("a", "color").is_some());
        }
    }

    #[test]
    fn pandas_execution_returns_final_frames() {
        let outcome = execute_code(
            Backend::Pandas,
            "edges.delete_rows(\"bytes\", \"<\", 15)\nresult = edges.n_rows()",
            &frame_state(),
        )
        .unwrap();
        assert!(outcome
            .value
            .approx_eq(&OutputValue::Script(ScriptValue::Int(1))));
        if let NetworkState::Frames { edges, .. } = &outcome.state {
            assert_eq!(edges.n_rows(), 1);
        }
    }

    #[test]
    fn sql_execution_returns_last_select_and_mutated_db() {
        let outcome = execute_code(
            Backend::Sql,
            "UPDATE edges SET bytes = bytes * 2; SELECT SUM(bytes) AS total FROM edges;",
            &db_state(),
        )
        .unwrap();
        match &outcome.value {
            OutputValue::Table(df) => {
                assert_eq!(df.value(0, "total").unwrap().as_f64(), Some(60.0))
            }
            other => panic!("unexpected value {other:?}"),
        }
        if let NetworkState::Database(db) = &outcome.state {
            let mut db = db.clone();
            let total = db
                .execute("SELECT SUM(bytes) AS t FROM edges")
                .unwrap()
                .rows()
                .unwrap()
                .value(0, "t")
                .unwrap()
                .as_f64();
            assert_eq!(total, Some(60.0));
        }
    }

    /// True when every substrate of `a` is the same allocation as in `b`.
    fn shares_substrates(a: &NetworkState, b: &NetworkState) -> bool {
        match (a, b) {
            (NetworkState::Graph(a), NetworkState::Graph(b)) => Arc::ptr_eq(a, b),
            (
                NetworkState::Frames {
                    nodes: an,
                    edges: ae,
                },
                NetworkState::Frames {
                    nodes: bn,
                    edges: be,
                },
            ) => Arc::ptr_eq(an, bn) && Arc::ptr_eq(ae, be),
            (NetworkState::Database(a), NetworkState::Database(b)) => {
                // A shared table derefs to the one allocation both hold.
                a.table_names() == b.table_names()
                    && a.table_names()
                        .iter()
                        .all(|name| std::ptr::eq(a.table(name).unwrap(), b.table(name).unwrap()))
            }
            _ => false,
        }
    }

    #[test]
    fn read_only_programs_hand_back_the_input_state() {
        for (backend, state, program) in [
            (
                Backend::NetworkX,
                graph_state(),
                "H = G\nresult = [G.number_of_edges(), H.nodes(), G.copy().number_of_nodes()]",
            ),
            (
                Backend::Pandas,
                frame_state(),
                "e = edges.copy()\nresult = e.filter(\"bytes\", \">\", 15).n_rows() + nodes.n_rows()",
            ),
            (
                Backend::Sql,
                db_state(),
                "SELECT COUNT(*) AS n FROM edges; UPDATE edges SET bytes = 0 WHERE bytes > 99;",
            ),
        ] {
            let outcome = execute_code(backend, program, &state).unwrap();
            assert!(
                shares_substrates(&outcome.state, &state),
                "{backend}: a read-only program copied the state"
            );
            assert!(outcome.state.approx_eq(&state));
        }
    }

    #[test]
    fn mutating_programs_leave_the_input_byte_identical() {
        for (backend, state, program) in [
            (
                Backend::NetworkX,
                graph_state(),
                "G.set_node_attr(\"a\", \"color\", \"red\")",
            ),
            // Assignment aliases one value: the write through `H` is the
            // program's write to `G`, and still never reaches the input.
            (
                Backend::NetworkX,
                graph_state(),
                "H = G\nH.remove_edge(\"a\", \"b\")\nresult = G.number_of_edges()",
            ),
            (
                Backend::Pandas,
                frame_state(),
                "edges.delete_rows(\"bytes\", \"<\", 15)",
            ),
            (
                Backend::Sql,
                db_state(),
                "UPDATE edges SET bytes = bytes * 2;",
            ),
        ] {
            let before = format!("{state:?}");
            let outcome = execute_code(backend, program, &state).unwrap();
            assert_eq!(format!("{state:?}"), before, "{backend}: {program}");
            assert!(!outcome.state.approx_eq(&state), "{backend}: {program}");
        }
        let aliased = execute_code(
            Backend::NetworkX,
            "H = G\nH.remove_edge(\"a\", \"b\")\nresult = G.number_of_edges()",
            &graph_state(),
        )
        .unwrap();
        assert!(aliased
            .value
            .approx_eq(&OutputValue::Script(ScriptValue::Int(1))));
    }

    #[test]
    fn strawman_reply_is_the_outcome() {
        let response = LlmResponse {
            text: "The total is 30 bytes.".to_string(),
        };
        let outcome = execute_response(Backend::Strawman, &response, &graph_state()).unwrap();
        assert!(outcome
            .value
            .approx_eq(&OutputValue::Text("the total is 30 bytes.".to_string())));
    }

    #[test]
    fn code_extraction_and_error_propagation() {
        let response = LlmResponse {
            text: "Sure!\n```graphscript\nresult = G.number_of_nodes()\n```".to_string(),
        };
        let outcome = execute_response(Backend::NetworkX, &response, &graph_state()).unwrap();
        assert!(outcome
            .value
            .approx_eq(&OutputValue::Script(ScriptValue::Int(3))));

        let no_code = LlmResponse {
            text: "I cannot help with that.".to_string(),
        };
        assert_eq!(
            execute_response(Backend::NetworkX, &no_code, &graph_state()).unwrap_err(),
            SandboxError::NoCode
        );

        let err =
            execute_code(Backend::NetworkX, "result = G.frobnicate()", &graph_state()).unwrap_err();
        assert!(matches!(err, SandboxError::Script(_)));
        let err = execute_code(Backend::Sql, "SELEC 1", &db_state()).unwrap_err();
        assert!(matches!(err, SandboxError::Sql(_)));
    }

    #[test]
    fn state_mismatch_is_reported() {
        let err = execute_code(Backend::Sql, "SELECT 1", &graph_state()).unwrap_err();
        assert!(matches!(err, SandboxError::StateMismatch { .. }));
        assert!(err.to_string().contains("sql"));
    }

    #[test]
    fn runaway_loops_are_stopped() {
        let err =
            execute_code(Backend::NetworkX, "while true { x = 1 }", &graph_state()).unwrap_err();
        assert!(matches!(
            err,
            SandboxError::Script(ScriptError::StepLimit(_))
        ));
    }
}
