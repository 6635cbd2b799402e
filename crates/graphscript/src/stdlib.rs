//! Global built-in functions available to every GraphScript program.
//!
//! Two groups are provided: general-purpose helpers the generated code
//! expects from a Python-like language (`len`, `sum`, `sorted`, `range`,
//! `print`, ...) and network-analysis helpers mirroring the NetworkX
//! module-level functions the paper's golden programs rely on
//! (`shortest_path`, `connected_components`, `node_weight_totals`,
//! `kmeans_groups`, ...).

use crate::bindings::{items, keys, values};
use crate::dict::Dict;
use crate::error::{Result, ScriptError};
use crate::value::Value;
use netgraph::algo::{coloring, components, degree, grouping, shortest_path as sp, traversal};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Calls a built-in function by name. Returns `Ok(None)` when the name is
/// not a built-in (the interpreter then tries user-defined functions).
/// `output` collects `print` lines.
pub fn call_builtin(name: &str, args: &[Value], output: &mut Vec<String>) -> Result<Option<Value>> {
    let arity = |expected: &str, ok: bool| -> Result<()> {
        if ok {
            Ok(())
        } else {
            Err(ScriptError::ArgumentError {
                function: name.to_string(),
                message: format!("expected {expected} argument(s), got {}", args.len()),
            })
        }
    };

    let value = match name {
        // ------------------------------------------------- general helpers
        "print" => {
            let line = args
                .iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            output.push(line);
            Value::Null
        }
        "len" => {
            arity("1", args.len() == 1)?;
            match &args[0] {
                Value::Str(s) => Value::Int(s.chars().count() as i64),
                Value::List(items) => Value::Int(items.borrow().len() as i64),
                Value::Dict(map) => Value::Int(map.borrow().len() as i64),
                Value::Graph(g) => Value::Int(g.borrow().number_of_nodes() as i64),
                Value::Frame(df) => Value::Int(df.borrow().n_rows() as i64),
                other => {
                    return Err(ScriptError::TypeError(format!(
                        "len() does not support {}",
                        other.type_name()
                    )))
                }
            }
        }
        "range" => {
            arity("1 or 2", args.len() == 1 || args.len() == 2)?;
            let (start, end) = if args.len() == 1 {
                (0, args[0].expect_i64("range")?)
            } else {
                (args[0].expect_i64("range")?, args[1].expect_i64("range")?)
            };
            Value::list((start..end).map(Value::Int).collect())
        }
        "sum" => {
            arity("1", args.len() == 1)?;
            let items = expect_list(name, &args[0])?;
            let mut total = 0.0;
            let mut all_int = true;
            for v in &items {
                match v {
                    Value::Int(i) => total += *i as f64,
                    Value::Float(f) => {
                        all_int = false;
                        total += *f;
                    }
                    Value::Null => {}
                    other => {
                        return Err(ScriptError::TypeError(format!(
                            "sum() over non-numeric value of type {}",
                            other.type_name()
                        )))
                    }
                }
            }
            if all_int && total.fract() == 0.0 {
                Value::Int(total as i64)
            } else {
                Value::Float(total)
            }
        }
        "min" | "max" => {
            arity("at least 1", !args.is_empty())?;
            let items = if args.len() == 1 {
                expect_list(name, &args[0])?
            } else {
                args.to_vec()
            };
            if items.is_empty() {
                return Err(ScriptError::Runtime(format!(
                    "{name}() of an empty sequence"
                )));
            }
            let mut best = items[0].clone();
            for v in &items[1..] {
                let ord = v.partial_cmp_value(&best).ok_or_else(|| {
                    ScriptError::TypeError(format!(
                        "{name}() cannot compare {} and {}",
                        v.type_name(),
                        best.type_name()
                    ))
                })?;
                let replace = if name == "min" {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if replace {
                    best = v.clone();
                }
            }
            best
        }
        "sorted" => {
            arity("1 or 2", args.len() == 1 || args.len() == 2)?;
            let mut items = expect_list(name, &args[0])?;
            let descending = args.get(1).map(|v| v.is_truthy()).unwrap_or(false);
            sort_values(&mut items, name)?;
            if descending {
                items.reverse();
            }
            Value::list(items)
        }
        "reversed" => {
            arity("1", args.len() == 1)?;
            let mut items = expect_list(name, &args[0])?;
            items.reverse();
            Value::list(items)
        }
        "abs" => {
            arity("1", args.len() == 1)?;
            match &args[0] {
                Value::Int(i) => Value::Int(i.abs()),
                Value::Float(f) => Value::Float(f.abs()),
                other => {
                    return Err(ScriptError::TypeError(format!(
                        "abs() expects a number, got {}",
                        other.type_name()
                    )))
                }
            }
        }
        "round" => {
            arity("1 or 2", args.len() == 1 || args.len() == 2)?;
            let v = args[0].expect_f64("round")?;
            let digits = args
                .get(1)
                .map(|d| d.expect_i64("round"))
                .transpose()?
                .unwrap_or(0);
            let factor = 10f64.powi(digits as i32);
            Value::Float((v * factor).round() / factor)
        }
        "str" => {
            arity("1", args.len() == 1)?;
            match &args[0] {
                Value::Str(s) => Value::Str(s.clone()),
                other => Value::Str(other.to_string().into()),
            }
        }
        "int" => {
            arity("1", args.len() == 1)?;
            match &args[0] {
                Value::Int(i) => Value::Int(*i),
                Value::Float(f) => Value::Int(*f as i64),
                Value::Bool(b) => Value::Int(if *b { 1 } else { 0 }),
                Value::Str(s) => Value::Int(s.trim().parse::<i64>().map_err(|_| {
                    ScriptError::TypeError(format!("cannot convert '{s}' to an integer"))
                })?),
                other => {
                    return Err(ScriptError::TypeError(format!(
                        "int() does not support {}",
                        other.type_name()
                    )))
                }
            }
        }
        "float" => {
            arity("1", args.len() == 1)?;
            match &args[0] {
                Value::Int(i) => Value::Float(*i as f64),
                Value::Float(f) => Value::Float(*f),
                Value::Str(s) => Value::Float(s.trim().parse::<f64>().map_err(|_| {
                    ScriptError::TypeError(format!("cannot convert '{s}' to a float"))
                })?),
                other => {
                    return Err(ScriptError::TypeError(format!(
                        "float() does not support {}",
                        other.type_name()
                    )))
                }
            }
        }
        "type" => {
            arity("1", args.len() == 1)?;
            Value::Str(args[0].type_name().into())
        }
        "keys" => {
            arity("1", args.len() == 1)?;
            keys(expect_dict(name, &args[0])?)
        }
        "values" => {
            arity("1", args.len() == 1)?;
            values(expect_dict(name, &args[0])?)
        }
        "items" => {
            arity("1", args.len() == 1)?;
            items(expect_dict(name, &args[0])?)
        }
        "enumerate" => {
            arity("1", args.len() == 1)?;
            let items = expect_list(name, &args[0])?;
            Value::list(
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| Value::list(vec![Value::Int(i as i64), v]))
                    .collect(),
            )
        }
        "zip" => {
            arity("2", args.len() == 2)?;
            let a = expect_list(name, &args[0])?;
            let b = expect_list(name, &args[1])?;
            Value::list(
                a.into_iter()
                    .zip(b)
                    .map(|(x, y)| Value::list(vec![x, y]))
                    .collect(),
            )
        }
        "join" => {
            arity("2", args.len() == 2)?;
            let sep = args[0].expect_str("join")?;
            let items = expect_list(name, &args[1])?;
            Value::Str(
                items
                    .iter()
                    .map(Value::to_string)
                    .collect::<Vec<_>>()
                    .join(sep)
                    .into(),
            )
        }

        // ------------------------------------------ network-analysis helpers
        "ip_prefix" => {
            arity("2", args.len() == 2)?;
            let addr = args[0].expect_str("ip_prefix")?;
            let octets = args[1].expect_i64("ip_prefix")?.clamp(1, 4) as usize;
            // Everything before the `octets`-th dot.
            let end = addr
                .match_indices('.')
                .nth(octets - 1)
                .map_or(addr.len(), |(i, _)| i);
            Value::Str(addr[..end].into())
        }
        "palette_color" => {
            arity("1", args.len() == 1)?;
            let i = args[0].expect_i64("palette_color")?.max(0) as usize;
            Value::Str(coloring::palette_color(i).into())
        }
        "shortest_path" => {
            arity("3", args.len() == 3)?;
            let g = expect_graph(name, &args[0])?;
            let source = args[1].expect_str("shortest_path")?;
            let target = args[2].expect_str("shortest_path")?;
            let path = sp::shortest_path(&g.borrow(), source, target).map_err(graph_err)?;
            Value::list(path.into_iter().map(|n| Value::Str(n.into())).collect())
        }
        "shortest_path_length" => {
            arity("3", args.len() == 3)?;
            let g = expect_graph(name, &args[0])?;
            let source = args[1].expect_str(name)?;
            let target = args[2].expect_str(name)?;
            let hops = sp::shortest_path_length(&g.borrow(), source, target).map_err(graph_err)?;
            Value::Int(hops as i64)
        }
        "has_path" => {
            arity("3", args.len() == 3)?;
            let g = expect_graph(name, &args[0])?;
            let source = args[1].expect_str(name)?;
            let target = args[2].expect_str(name)?;
            Value::Bool(traversal::has_path(&g.borrow(), source, target).map_err(graph_err)?)
        }
        "connected_components" => {
            arity("1", args.len() == 1)?;
            let g = expect_graph(name, &args[0])?;
            let comps = components::connected_components(&g.borrow());
            Value::list(
                comps
                    .into_iter()
                    .map(|set| Value::list(set.into_iter().map(|n| Value::Str(n.into())).collect()))
                    .collect(),
            )
        }
        "number_connected_components" => {
            arity("1", args.len() == 1)?;
            let g = expect_graph(name, &args[0])?;
            Value::Int(components::number_connected_components(&g.borrow()) as i64)
        }
        "degree_map" => {
            arity("1", args.len() == 1)?;
            let g = expect_graph(name, &args[0])?;
            let map = degree::degree_map(&g.borrow());
            Value::dict(map.into_iter().map(|(k, v)| (k, Value::Int(v as i64))))
        }
        "degree_centrality" => {
            arity("1", args.len() == 1)?;
            let g = expect_graph(name, &args[0])?;
            let map = degree::degree_centrality(&g.borrow());
            Value::dict(map.into_iter().map(|(k, v)| (k, Value::Float(v))))
        }
        "node_weight_totals" => {
            arity("2", args.len() == 2)?;
            let g = expect_graph(name, &args[0])?;
            let attr = args[1].expect_str(name)?;
            let totals = degree::node_weight_totals(&g.borrow(), attr).map_err(graph_err)?;
            Value::dict(totals.into_iter().map(|(k, v)| (k, Value::Float(v))))
        }
        "top_k" => {
            arity("2", args.len() == 2)?;
            let scores = scores(&expect_dict(name, &args[0])?.borrow());
            let k = args[1].expect_i64(name)?.max(0) as usize;
            let top = degree::top_k_by_score(&scores, k);
            Value::list(
                top.into_iter()
                    .map(|(key, score)| {
                        Value::list(vec![Value::Str(key.into()), Value::Float(score)])
                    })
                    .collect(),
            )
        }
        "kmeans_groups" | "quantile_groups" => {
            arity("2", args.len() == 2)?;
            let scores = scores(&expect_dict(name, &args[0])?.borrow());
            let k = args[1].expect_i64(name)?;
            if k <= 0 {
                return Err(ScriptError::ArgumentError {
                    function: name.to_string(),
                    message: "group count must be positive".to_string(),
                });
            }
            let groups = if name == "kmeans_groups" {
                grouping::kmeans_1d_groups(&scores, k as usize, 100).map_err(graph_err)?
            } else {
                grouping::quantile_groups(&scores, k as usize).map_err(graph_err)?
            };
            Value::dict(
                groups
                    .into_iter()
                    .map(|(key, g)| (key, Value::Int(g as i64))),
            )
        }
        _ => return Ok(None),
    };
    Ok(Some(value))
}

fn sort_values(items: &mut [Value], context: &str) -> Result<()> {
    let mut error = None;
    items.sort_by(|a, b| match a.partial_cmp_value(b) {
        Some(ord) => ord,
        None => {
            error = Some(ScriptError::TypeError(format!(
                "{context}() cannot compare {} and {}",
                a.type_name(),
                b.type_name()
            )));
            std::cmp::Ordering::Equal
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn expect_list(context: &str, v: &Value) -> Result<Vec<Value>> {
    match v {
        Value::List(items) => Ok(items.borrow().clone()),
        other => Err(ScriptError::TypeError(format!(
            "{context}() expects a list, got {}",
            other.type_name()
        ))),
    }
}

fn expect_dict<'a>(context: &str, v: &'a Value) -> Result<&'a RefCell<Dict>> {
    match v {
        Value::Dict(map) => Ok(map),
        other => Err(ScriptError::TypeError(format!(
            "{context}() expects a dict, got {}",
            other.type_name()
        ))),
    }
}

/// A dict's values as numeric scores (0 where not a number), for the
/// ranking and grouping helpers.
fn scores(dict: &Dict) -> BTreeMap<String, f64> {
    dict.entries()
        .into_iter()
        .map(|(key, v)| (key.to_string(), v.as_f64().unwrap_or(0.0)))
        .collect()
}

fn expect_graph<'a>(
    context: &str,
    v: &'a Value,
) -> Result<&'a std::rc::Rc<std::cell::RefCell<std::sync::Arc<netgraph::Graph>>>> {
    match v {
        Value::Graph(g) => Ok(g),
        other => Err(ScriptError::TypeError(format!(
            "{context}() expects a graph, got {}",
            other.type_name()
        ))),
    }
}

/// Maps graph-substrate errors onto script errors so the error classifier
/// sees the right category (missing attribute vs. generic runtime failure).
pub(crate) fn graph_err(e: netgraph::GraphError) -> ScriptError {
    match e {
        netgraph::GraphError::AttrNotFound { kind, entity, attr } => {
            ScriptError::MissingAttribute {
                owner: format!("{kind} {entity}"),
                key: attr,
            }
        }
        other => ScriptError::Runtime(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{attrs, Graph};

    fn call(name: &str, args: &[Value]) -> Result<Value> {
        let mut out = Vec::new();
        call_builtin(name, args, &mut out)?.ok_or(ScriptError::UnknownFunction(name.to_string()))
    }

    #[test]
    fn len_sum_sorted() {
        let list = Value::list(vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
        assert!(matches!(
            call("len", std::slice::from_ref(&list)).unwrap(),
            Value::Int(3)
        ));
        assert!(matches!(
            call("sum", std::slice::from_ref(&list)).unwrap(),
            Value::Int(6)
        ));
        let sorted = call("sorted", &[list]).unwrap();
        assert_eq!(sorted.to_string(), "[1, 2, 3]");
    }

    #[test]
    fn min_max_range() {
        let list = Value::list(vec![Value::Int(3), Value::Float(1.5), Value::Int(2)]);
        assert_eq!(
            call("min", std::slice::from_ref(&list))
                .unwrap()
                .to_string(),
            "1.5"
        );
        assert_eq!(call("max", &[list]).unwrap().to_string(), "3");
        assert_eq!(
            call("range", &[Value::Int(3)]).unwrap().to_string(),
            "[0, 1, 2]"
        );
        assert_eq!(
            call("range", &[Value::Int(2), Value::Int(5)])
                .unwrap()
                .to_string(),
            "[2, 3, 4]"
        );
        assert!(call("min", &[Value::list(vec![])]).is_err());
    }

    #[test]
    fn conversions_and_type() {
        assert!(matches!(
            call("int", &[Value::Str("42".into())]).unwrap(),
            Value::Int(42)
        ));
        assert!(call("int", &[Value::Str("4x".into())]).is_err());
        assert!(matches!(
            call("float", &[Value::Int(2)]).unwrap(),
            Value::Float(_)
        ));
        assert_eq!(call("str", &[Value::Int(5)]).unwrap().to_string(), "5");
        assert_eq!(call("type", &[Value::Null]).unwrap().to_string(), "null");
    }

    #[test]
    fn dict_helpers() {
        let d = Value::dict([("a", Value::Int(1)), ("b", Value::Int(2))]);
        assert_eq!(
            call("keys", std::slice::from_ref(&d)).unwrap().to_string(),
            "[a, b]"
        );
        assert_eq!(
            call("values", std::slice::from_ref(&d))
                .unwrap()
                .to_string(),
            "[1, 2]"
        );
        assert_eq!(call("items", &[d]).unwrap().to_string(), "[[a, 1], [b, 2]]");
    }

    #[test]
    fn print_captures_output() {
        let mut out = Vec::new();
        call_builtin(
            "print",
            &[Value::Str("hello".into()), Value::Int(3)],
            &mut out,
        )
        .unwrap();
        assert_eq!(out, vec!["hello 3".to_string()]);
    }

    #[test]
    fn unknown_builtin_returns_none() {
        let mut out = Vec::new();
        assert!(call_builtin("frobnicate", &[], &mut out).unwrap().is_none());
    }

    #[test]
    fn network_helpers() {
        assert_eq!(
            call(
                "ip_prefix",
                &[Value::Str("10.76.3.9".into()), Value::Int(2)]
            )
            .unwrap()
            .to_string(),
            "10.76"
        );
        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("bytes", 10i64)]));
        g.add_edge("b", "c", attrs([("bytes", 5i64)]));
        let gv = Value::graph(g);
        let path = call(
            "shortest_path",
            &[gv.clone(), Value::Str("a".into()), Value::Str("c".into())],
        )
        .unwrap();
        assert_eq!(path.to_string(), "[a, b, c]");
        let hops = call(
            "shortest_path_length",
            &[gv.clone(), Value::Str("a".into()), Value::Str("c".into())],
        )
        .unwrap();
        assert!(matches!(hops, Value::Int(2)));
        let totals = call(
            "node_weight_totals",
            &[gv.clone(), Value::Str("bytes".into())],
        )
        .unwrap();
        if let Value::Dict(map) = &totals {
            assert_eq!(map.borrow().get("b").unwrap().as_f64(), Some(15.0));
        } else {
            panic!("expected dict");
        }
        let comps = call("connected_components", std::slice::from_ref(&gv)).unwrap();
        assert_eq!(call("len", &[comps]).unwrap().to_string(), "1");
        let groups = call("kmeans_groups", &[totals, Value::Int(2)]).unwrap();
        assert!(matches!(groups, Value::Dict(_)));
    }

    #[test]
    fn argument_errors_are_classified() {
        let err = call("len", &[]).unwrap_err();
        assert!(err.is_argument_error());
        let err = call(
            "shortest_path",
            &[Value::Int(1), Value::Int(2), Value::Int(3)],
        )
        .unwrap_err();
        assert!(matches!(err, ScriptError::TypeError(_)));
    }

    #[test]
    fn missing_node_in_path_query_is_a_runtime_error() {
        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("bytes", 10i64)]));
        let gv = Value::graph(g);
        let err = call(
            "shortest_path",
            &[gv, Value::Str("a".into()), Value::Str("zzz".into())],
        )
        .unwrap_err();
        assert!(
            matches!(err, ScriptError::Runtime(_)),
            "unexpected error {err:?}"
        );
    }
}
