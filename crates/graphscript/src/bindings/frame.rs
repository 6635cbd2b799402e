//! Methods on dataframe values (the `nodes` / `edges` globals of the pandas
//! backend).
//!
//! The method surface mirrors the slice of the pandas API the benchmark's
//! golden programs use: filtering, sorting, group-by aggregation, column
//! arithmetic and cell access. Unknown column names raise
//! [`ScriptError::MissingAttribute`] (the "imaginary attribute" failure) and
//! unknown methods raise [`ScriptError::AttributeError`].

use crate::bindings::expect_arity;
use crate::dict::Dict;
use crate::error::{Result, ScriptError};
use crate::value::{frame_mut, Value};
use dataframe::ops::{inner_join, AggFunc, CmpOp};
use dataframe::{Column, DataFrame, FrameError};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Dispatches a method call on a dataframe.
pub fn call(df: &Rc<RefCell<Arc<DataFrame>>>, method: &str, args: &[Value]) -> Result<Value> {
    match method {
        // ------------------------------------------------------- inspection
        "n_rows" | "len" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::Int(df.borrow().n_rows() as i64))
        }
        "n_cols" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::Int(df.borrow().n_cols() as i64))
        }
        "columns" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::list(
                df.borrow()
                    .column_names()
                    .iter()
                    .map(|&c| Value::Str(c.into()))
                    .collect(),
            ))
        }
        "has_column" => {
            expect_arity(method, args, &[1])?;
            let name = args[0].expect_str(method)?;
            Ok(Value::Bool(df.borrow().has_column(name)))
        }
        "head" => {
            expect_arity(method, args, &[1])?;
            let n = args[0].expect_i64(method)?.max(0) as usize;
            Ok(Value::frame(df.borrow().head(n)))
        }
        "copy" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::frame(df.borrow().clone()))
        }

        // ------------------------------------------------------ cell access
        "value" | "at" => {
            expect_arity(method, args, &[2])?;
            let row = args[0].expect_i64(method)?;
            let col = args[1].expect_str(method)?;
            let frame = df.borrow();
            if row < 0 || row as usize >= frame.n_rows() {
                return Err(ScriptError::Runtime(format!(
                    "row index {row} out of bounds for {} rows",
                    frame.n_rows()
                )));
            }
            let v = frame.value(row as usize, col).map_err(frame_err)?;
            Ok(Value::from_attr(v))
        }
        "set_value" => {
            expect_arity(method, args, &[3])?;
            let row = args[0].expect_i64(method)?.max(0) as usize;
            let col = args[1].expect_str(method)?;
            let value = args[2].to_attr()?;
            frame_mut(df)
                .set_value(row, col, value)
                .map_err(frame_err)?;
            Ok(Value::Null)
        }
        "column" | "col" => {
            expect_arity(method, args, &[1])?;
            let name = args[0].expect_str(method)?;
            let frame = df.borrow();
            let col = frame.column(name).map_err(frame_err)?;
            Ok(Value::list(col.iter().map(Value::from_attr).collect()))
        }
        "row" => {
            expect_arity(method, args, &[1])?;
            let i = args[0].expect_i64(method)?.max(0) as usize;
            let frame = df.borrow();
            let len = frame.n_rows();
            if i >= len {
                return Err(frame_err(FrameError::RowOutOfBounds { index: i, len }));
            }
            // Owned, not read through: one row is cheap to copy, and a
            // bound read-through row would make the next write to `df` copy
            // the whole frame (a `row(i)`-then-`set_value` loop, quadratic).
            let row: Dict = Dict::frame_row(&frame, i).entries().into_iter().collect();
            Ok(Value::from_dict(row))
        }
        "to_rows" => {
            expect_arity(method, args, &[0])?;
            let frame = df.borrow();
            Ok(Value::list(
                (0..frame.n_rows())
                    .map(|i| Value::from_dict(Dict::frame_row(&frame, i)))
                    .collect(),
            ))
        }

        // --------------------------------------------------------- querying
        "filter" => {
            // filter(column, op, value), e.g. filter("bytes", ">=", 100) or
            // filter("id", "startswith", "15.76").
            expect_arity(method, args, &[3])?;
            let col = args[0].expect_str(method)?;
            let op_text = args[1].expect_str(method)?;
            let op = CmpOp::parse(op_text).ok_or_else(|| ScriptError::ArgumentError {
                function: "filter".to_string(),
                message: format!("unknown comparison operator '{op_text}'"),
            })?;
            let value = args[2].to_attr()?;
            let out = df.borrow().filter_by(col, op, value).map_err(frame_err)?;
            Ok(Value::frame(out))
        }
        "sort_values" => {
            expect_arity(method, args, &[1, 2])?;
            let col = args[0].expect_str(method)?;
            let ascending = args.get(1).map(|v| v.is_truthy()).unwrap_or(true);
            let out = df
                .borrow()
                .sort_values(&[col], ascending)
                .map_err(frame_err)?;
            Ok(Value::frame(out))
        }
        "unique" => {
            expect_arity(method, args, &[1])?;
            let col = args[0].expect_str(method)?;
            let values = df.borrow().unique(col).map_err(frame_err)?;
            Ok(Value::list(values.iter().map(Value::from_attr).collect()))
        }
        "select" => {
            expect_arity(method, args, &[1])?;
            let cols = match &args[0] {
                Value::List(items) => items.borrow().clone(),
                other => {
                    return Err(ScriptError::TypeError(format!(
                        "select() expects a list of column names, got {}",
                        other.type_name()
                    )))
                }
            };
            let refs: Vec<&str> = cols
                .iter()
                .map(|v| v.expect_str("select"))
                .collect::<Result<_>>()?;
            let out = df.borrow().select(&refs).map_err(frame_err)?;
            Ok(Value::frame(out))
        }
        "join" => {
            // join(other, left_on, right_on)
            expect_arity(method, args, &[3])?;
            let other = match &args[0] {
                Value::Frame(f) => f.borrow().clone(),
                other => {
                    return Err(ScriptError::TypeError(format!(
                        "join() expects a dataframe, got {}",
                        other.type_name()
                    )))
                }
            };
            let left_on = args[1].expect_str(method)?;
            let right_on = args[2].expect_str(method)?;
            let out =
                inner_join(&df.borrow(), &other, left_on, right_on, "_right").map_err(frame_err)?;
            Ok(Value::frame(out))
        }

        // ------------------------------------------------------ aggregation
        "sum" | "mean" | "min" | "max" => {
            expect_arity(method, args, &[1])?;
            let col = args[0].expect_str(method)?;
            let frame = df.borrow();
            let column = frame.column(col).map_err(frame_err)?;
            let result = match method {
                "sum" => column.sum(),
                "mean" => column.mean(),
                "min" => column.min(),
                _ => column.max(),
            }
            .map_err(frame_err)?;
            Ok(Value::Float(result))
        }
        "count" => {
            expect_arity(method, args, &[0, 1])?;
            let frame = df.borrow();
            match args.first() {
                Some(col) => {
                    let col = col.expect_str(method)?;
                    let column = frame.column(col).map_err(frame_err)?;
                    Ok(Value::Int(column.count() as i64))
                }
                None => Ok(Value::Int(frame.n_rows() as i64)),
            }
        }
        "nunique" => {
            expect_arity(method, args, &[1])?;
            let col = args[0].expect_str(method)?;
            let frame = df.borrow();
            Ok(Value::Int(
                frame.column(col).map_err(frame_err)?.nunique() as i64
            ))
        }
        "groupby_agg" => {
            // groupby_agg(key, value_column, func, out_name)
            expect_arity(method, args, &[4])?;
            let key = args[0].expect_str(method)?;
            let value_col = args[1].expect_str(method)?;
            let func_name = args[2].expect_str(method)?;
            let out_name = args[3].expect_str(method)?;
            let func = AggFunc::parse(func_name).ok_or_else(|| ScriptError::ArgumentError {
                function: "groupby_agg".to_string(),
                message: format!("unknown aggregation '{func_name}'"),
            })?;
            let out = df
                .borrow()
                .group_agg(key, value_col, func, out_name)
                .map_err(frame_err)?;
            Ok(Value::frame(out))
        }
        "groupby_count" => {
            expect_arity(method, args, &[1])?;
            let key = args[0].expect_str(method)?;
            let frame = df.borrow();
            let out = frame
                .groupby(&[key])
                .map_err(frame_err)?
                .count()
                .map_err(frame_err)?;
            Ok(Value::frame(out))
        }

        // --------------------------------------------------------- mutation
        "add_column" | "set_column" => {
            expect_arity(method, args, &[2])?;
            let name = args[0].expect_str(method)?;
            let values: Vec<netgraph::AttrValue> = match &args[1] {
                Value::List(items) => items
                    .borrow()
                    .iter()
                    .map(Value::to_attr)
                    .collect::<Result<_>>()?,
                other => {
                    return Err(ScriptError::TypeError(format!(
                        "{method}() expects a list of values, got {}",
                        other.type_name()
                    )))
                }
            };
            let column: Column = values.into_iter().collect();
            let mut frame = frame_mut(df);
            let result = if method == "add_column" {
                frame.add_column(name, column)
            } else {
                frame.set_column(name, column)
            };
            result.map_err(frame_err)?;
            Ok(Value::Null)
        }
        "drop_column" => {
            expect_arity(method, args, &[1])?;
            let name = args[0].expect_str(method)?;
            frame_mut(df).drop_column(name).map_err(frame_err)?;
            Ok(Value::Null)
        }
        "rename_column" => {
            expect_arity(method, args, &[2])?;
            let from = args[0].expect_str(method)?;
            let to = args[1].expect_str(method)?;
            frame_mut(df).rename_column(from, to).map_err(frame_err)?;
            Ok(Value::Null)
        }
        "push_row" => {
            expect_arity(method, args, &[1])?;
            let row: Vec<netgraph::AttrValue> = match &args[0] {
                Value::List(items) => items
                    .borrow()
                    .iter()
                    .map(Value::to_attr)
                    .collect::<Result<_>>()?,
                other => {
                    return Err(ScriptError::TypeError(format!(
                        "push_row() expects a list, got {}",
                        other.type_name()
                    )))
                }
            };
            frame_mut(df).push_row(row).map_err(frame_err)?;
            Ok(Value::Null)
        }
        "delete_rows" => {
            // delete_rows(column, op, value): drop matching rows.
            expect_arity(method, args, &[3])?;
            let col = args[0].expect_str(method)?;
            let op_text = args[1].expect_str(method)?;
            let op = CmpOp::parse(op_text).ok_or_else(|| ScriptError::ArgumentError {
                function: "delete_rows".to_string(),
                message: format!("unknown comparison operator '{op_text}'"),
            })?;
            let value = args[2].to_attr()?;
            let kept = {
                let frame = df.borrow();
                frame.column(col).map_err(frame_err)?;
                frame.filter_rows(|d, i| {
                    d.value(i, col)
                        .map(|cell| !op.eval(cell, &value))
                        .unwrap_or(true)
                })
            };
            // A fresh frame replaces the shared one: copying it first, as
            // a write through `frame_mut` would, is wasted work.
            *df.borrow_mut() = Arc::new(kept);
            Ok(Value::Null)
        }
        other => Err(ScriptError::AttributeError {
            type_name: "dataframe".to_string(),
            attr: other.to_string(),
        }),
    }
}

/// Maps frame-substrate errors onto script errors: a missing column is the
/// "imaginary attribute" category, everything else is a runtime failure.
fn frame_err(e: FrameError) -> ScriptError {
    match e {
        FrameError::ColumnNotFound(col) => ScriptError::MissingAttribute {
            owner: "dataframe".to_string(),
            key: col,
        },
        other => ScriptError::Runtime(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges_frame() -> Value {
        Value::frame(
            DataFrame::from_columns(vec![
                (
                    "source".to_string(),
                    Column::from_values(["a", "a", "b", "c"]),
                ),
                (
                    "target".to_string(),
                    Column::from_values(["b", "c", "c", "a"]),
                ),
                (
                    "bytes".to_string(),
                    Column::from_values([100i64, 200, 300, 50]),
                ),
            ])
            .unwrap(),
        )
    }

    fn call_on(v: &Value, method: &str, args: &[Value]) -> Result<Value> {
        match v {
            Value::Frame(df) => call(df, method, args),
            _ => panic!("expected frame"),
        }
    }

    #[test]
    fn inspection_and_cell_access() {
        let df = edges_frame();
        assert_eq!(call_on(&df, "n_rows", &[]).unwrap().to_string(), "4");
        assert_eq!(
            call_on(&df, "columns", &[]).unwrap().to_string(),
            "[source, target, bytes]"
        );
        assert_eq!(
            call_on(&df, "value", &[Value::Int(2), Value::Str("bytes".into())])
                .unwrap()
                .to_string(),
            "300"
        );
        assert!(call_on(&df, "value", &[Value::Int(99), Value::Str("bytes".into())]).is_err());
    }

    #[test]
    fn filter_sort_groupby() {
        let df = edges_frame();
        let heavy = call_on(
            &df,
            "filter",
            &[
                Value::Str("bytes".into()),
                Value::Str(">=".into()),
                Value::Int(200),
            ],
        )
        .unwrap();
        assert_eq!(call_on(&heavy, "n_rows", &[]).unwrap().to_string(), "2");

        let sorted = call_on(
            &df,
            "sort_values",
            &[Value::Str("bytes".into()), Value::Bool(false)],
        )
        .unwrap();
        assert_eq!(
            call_on(
                &sorted,
                "value",
                &[Value::Int(0), Value::Str("source".into())]
            )
            .unwrap()
            .to_string(),
            "b"
        );

        let grouped = call_on(
            &df,
            "groupby_agg",
            &[
                Value::Str("source".into()),
                Value::Str("bytes".into()),
                Value::Str("sum".into()),
                Value::Str("total".into()),
            ],
        )
        .unwrap();
        assert_eq!(call_on(&grouped, "n_rows", &[]).unwrap().to_string(), "3");
        assert_eq!(
            call_on(
                &grouped,
                "value",
                &[Value::Int(0), Value::Str("total".into())]
            )
            .unwrap()
            .to_string(),
            "300.0"
        );
    }

    #[test]
    fn aggregation_shortcuts() {
        let df = edges_frame();
        assert_eq!(
            call_on(&df, "sum", &[Value::Str("bytes".into())])
                .unwrap()
                .to_string(),
            "650.0"
        );
        assert_eq!(
            call_on(&df, "max", &[Value::Str("bytes".into())])
                .unwrap()
                .to_string(),
            "300.0"
        );
        assert_eq!(call_on(&df, "count", &[]).unwrap().to_string(), "4");
        assert_eq!(
            call_on(&df, "nunique", &[Value::Str("source".into())])
                .unwrap()
                .to_string(),
            "3"
        );
    }

    #[test]
    fn mutation_methods() {
        let df = edges_frame();
        call_on(
            &df,
            "set_column",
            &[
                Value::Str("label".into()),
                Value::list(vec![
                    Value::Str("x".into()),
                    Value::Str("x".into()),
                    Value::Str("y".into()),
                    Value::Str("y".into()),
                ]),
            ],
        )
        .unwrap();
        assert_eq!(call_on(&df, "n_cols", &[]).unwrap().to_string(), "4");
        call_on(
            &df,
            "set_value",
            &[Value::Int(0), Value::Str("bytes".into()), Value::Int(999)],
        )
        .unwrap();
        assert_eq!(
            call_on(&df, "value", &[Value::Int(0), Value::Str("bytes".into())])
                .unwrap()
                .to_string(),
            "999"
        );
        call_on(
            &df,
            "delete_rows",
            &[
                Value::Str("bytes".into()),
                Value::Str("<".into()),
                Value::Int(100),
            ],
        )
        .unwrap();
        assert_eq!(call_on(&df, "n_rows", &[]).unwrap().to_string(), "3");
        call_on(
            &df,
            "push_row",
            &[Value::list(vec![
                Value::Str("d".into()),
                Value::Str("a".into()),
                Value::Int(10),
                Value::Str("z".into()),
            ])],
        )
        .unwrap();
        assert_eq!(call_on(&df, "n_rows", &[]).unwrap().to_string(), "4");
    }

    #[test]
    fn join_frames() {
        let edges = edges_frame();
        let nodes = Value::frame(
            DataFrame::from_columns(vec![
                ("id".to_string(), Column::from_values(["a", "b", "c"])),
                ("role".to_string(), Column::from_values(["s", "c", "c"])),
            ])
            .unwrap(),
        );
        let joined = call_on(
            &edges,
            "join",
            &[nodes, Value::Str("source".into()), Value::Str("id".into())],
        )
        .unwrap();
        assert_eq!(call_on(&joined, "n_rows", &[]).unwrap().to_string(), "4");
        assert!(call_on(&joined, "has_column", &[Value::Str("role".into())])
            .unwrap()
            .is_truthy());
    }

    #[test]
    fn errors_map_to_paper_categories() {
        let df = edges_frame();
        // Imaginary column.
        let err = call_on(&df, "sum", &[Value::Str("latency".into())]).unwrap_err();
        assert!(err.is_missing_attribute());
        // Imaginary method.
        let err = call_on(&df, "pivot_table", &[]).unwrap_err();
        assert!(err.is_unknown_callable());
        // Argument error.
        let err = call_on(&df, "filter", &[Value::Str("bytes".into())]).unwrap_err();
        assert!(err.is_argument_error());
        // Bad operator.
        let err = call_on(
            &df,
            "filter",
            &[
                Value::Str("bytes".into()),
                Value::Str("~~".into()),
                Value::Int(1),
            ],
        )
        .unwrap_err();
        assert!(err.is_argument_error());
    }
}
