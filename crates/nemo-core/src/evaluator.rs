//! The results evaluator and error classifier (the benchmark's "Results
//! Evaluator" in Figure 3, plus the analysis behind Table 5).
//!
//! A candidate outcome passes when both its result value and its final
//! network state match the golden answer's. Failures are classified into
//! the paper's seven error types ([`FaultKind`]): execution errors map by
//! their error kind, successful executions with wrong results map to "wrong
//! calculation logic" or "graphs are not identical".

use crate::llm::FaultKind;
use crate::sandbox::SandboxError;
use crate::state::Outcome;
use graphscript::ScriptError;
use sqlengine::SqlError;
use std::fmt;

/// The evaluator's judgement of one candidate program.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The candidate's value and final state both match the golden answer.
    Pass,
    /// The candidate failed; `category` is the Table-5 error type and
    /// `detail` a human-readable explanation (shown to the operator and fed
    /// back to the LLM by self-debug).
    Fail {
        /// Which of the seven error types this failure is.
        category: FaultKind,
        /// Explanation (error message or mismatch description).
        detail: String,
    },
}

impl Verdict {
    /// True for [`Verdict::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// The failure category, if any.
    pub fn category(&self) -> Option<FaultKind> {
        match self {
            Verdict::Pass => None,
            Verdict::Fail { category, .. } => Some(*category),
        }
    }

    /// The failure detail, if any.
    pub fn detail(&self) -> Option<&str> {
        match self {
            Verdict::Pass => None,
            Verdict::Fail { detail, .. } => Some(detail),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass => write!(f, "PASS"),
            Verdict::Fail { category, detail } => {
                write!(f, "FAIL [{}]: {detail}", category.label())
            }
        }
    }
}

/// Compares a candidate execution against the golden outcome.
pub fn evaluate(candidate: &Result<Outcome, SandboxError>, golden: &Outcome) -> Verdict {
    match candidate {
        Err(error) => Verdict::Fail {
            category: classify_error(error),
            detail: error.to_string(),
        },
        Ok(outcome) => {
            if !outcome.value.approx_eq(&golden.value) {
                return Verdict::Fail {
                    category: FaultKind::WrongCalculation,
                    detail: format!(
                        "result mismatch: expected `{}`, got `{}`",
                        truncate(&golden.value.render()),
                        truncate(&outcome.value.render())
                    ),
                };
            }
            if !outcome.state.approx_eq(&golden.state) {
                return Verdict::Fail {
                    category: FaultKind::WrongManipulation,
                    detail: format!(
                        "network state mismatch: expected {}, got {}",
                        golden.state.describe(),
                        outcome.state.describe()
                    ),
                };
            }
            Verdict::Pass
        }
    }
}

/// Maps a sandbox error onto the paper's error taxonomy.
pub fn classify_error(error: &SandboxError) -> FaultKind {
    match error {
        // A reply with no code block at all is treated as a malformed
        // (unparseable) program.
        SandboxError::NoCode => FaultKind::Syntax,
        SandboxError::StateMismatch { .. } => FaultKind::OperationError,
        SandboxError::Script(e) => classify_script_error(e),
        SandboxError::Sql(e) => classify_sql_error(e),
    }
}

fn classify_script_error(error: &ScriptError) -> FaultKind {
    if error.is_syntax() {
        FaultKind::Syntax
    } else if error.is_missing_attribute() {
        FaultKind::ImaginaryAttribute
    } else if error.is_unknown_callable() {
        FaultKind::ImaginaryFunction
    } else if error.is_argument_error() {
        FaultKind::ArgumentError
    } else {
        FaultKind::OperationError
    }
}

fn classify_sql_error(error: &SqlError) -> FaultKind {
    match error {
        SqlError::Lex { .. } | SqlError::Parse { .. } => FaultKind::Syntax,
        SqlError::UnknownColumn(_) | SqlError::UnknownTable(_) => FaultKind::ImaginaryAttribute,
        SqlError::UnknownFunction(_) => FaultKind::ImaginaryFunction,
        SqlError::Arity { .. } => FaultKind::ArgumentError,
        SqlError::Type(_) | SqlError::Execution(_) => FaultKind::OperationError,
    }
}

fn truncate(text: &str) -> String {
    const LIMIT: usize = 120;
    if text.chars().count() <= LIMIT {
        text.to_string()
    } else {
        let prefix: String = text.chars().take(LIMIT).collect();
        format!("{prefix}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{NetworkState, OutputValue, ScriptValue};
    use netgraph::{attrs, Graph};
    use std::sync::Arc;

    fn golden() -> Outcome {
        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("bytes", 10i64)]));
        Outcome {
            value: OutputValue::Script(ScriptValue::Int(2)),
            state: NetworkState::Graph(g.into()),
            printed: vec![],
        }
    }

    #[test]
    fn pass_and_value_state_mismatches() {
        let g = golden();
        assert!(evaluate(&Ok(g.clone()), &g).passed());

        let mut wrong_value = g.clone();
        wrong_value.value = OutputValue::Script(ScriptValue::Int(3));
        let v = evaluate(&Ok(wrong_value), &g);
        assert_eq!(v.category(), Some(FaultKind::WrongCalculation));
        assert!(v.detail().unwrap().contains("result mismatch"));

        let mut wrong_state = g.clone();
        if let NetworkState::Graph(graph) = &mut wrong_state.state {
            Arc::make_mut(graph).add_node("extra", Default::default());
        }
        let v = evaluate(&Ok(wrong_state), &g);
        assert_eq!(v.category(), Some(FaultKind::WrongManipulation));
    }

    #[test]
    fn execution_errors_map_to_paper_categories() {
        let g = golden();
        let cases: Vec<(SandboxError, FaultKind)> = vec![
            (SandboxError::NoCode, FaultKind::Syntax),
            (
                SandboxError::Script(ScriptError::Syntax {
                    line: 1,
                    message: "x".into(),
                }),
                FaultKind::Syntax,
            ),
            (
                SandboxError::Script(ScriptError::MissingAttribute {
                    owner: "node a".into(),
                    key: "capacity".into(),
                }),
                FaultKind::ImaginaryAttribute,
            ),
            (
                SandboxError::Script(ScriptError::AttributeError {
                    type_name: "graph".into(),
                    attr: "frobnicate".into(),
                }),
                FaultKind::ImaginaryFunction,
            ),
            (
                SandboxError::Script(ScriptError::ArgumentError {
                    function: "ip_prefix".into(),
                    message: "m".into(),
                }),
                FaultKind::ArgumentError,
            ),
            (
                SandboxError::Script(ScriptError::Runtime("division by zero".into())),
                FaultKind::OperationError,
            ),
            (
                SandboxError::Sql(SqlError::UnknownColumn("latency".into())),
                FaultKind::ImaginaryAttribute,
            ),
            (
                SandboxError::Sql(SqlError::UnknownFunction("TOTAL".into())),
                FaultKind::ImaginaryFunction,
            ),
            (
                SandboxError::Sql(SqlError::Parse {
                    position: 0,
                    message: "m".into(),
                }),
                FaultKind::Syntax,
            ),
            (
                SandboxError::Sql(SqlError::Execution("division by zero".into())),
                FaultKind::OperationError,
            ),
        ];
        for (error, expected) in cases {
            let verdict = evaluate(&Err(error.clone()), &g);
            assert_eq!(verdict.category(), Some(expected), "error {error:?}");
            assert!(!verdict.passed());
        }
    }

    #[test]
    fn verdict_display_and_truncation() {
        let g = golden();
        let long_value = Outcome {
            value: OutputValue::Text("x".repeat(500)),
            state: g.state.clone(),
            printed: vec![],
        };
        let v = evaluate(&Ok(long_value), &g);
        assert!(v.to_string().starts_with("FAIL"));
        assert!(v.detail().unwrap().len() < 400);
        assert_eq!(Verdict::Pass.to_string(), "PASS");
    }
}
