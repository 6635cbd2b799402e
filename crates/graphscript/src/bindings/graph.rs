//! Methods on graph values (the `G` global of the NetworkX backend).
//!
//! The method surface deliberately mirrors the subset of the NetworkX
//! `Graph`/`DiGraph` API that the benchmark's golden programs (and the
//! LLM-imitating fault injector) use. Errors map onto the script error
//! taxonomy: missing attributes become [`ScriptError::MissingAttribute`],
//! missing nodes/edges become [`ScriptError::Runtime`], unknown methods
//! become [`ScriptError::AttributeError`].

use crate::bindings::expect_arity;
use crate::dict::Dict;
use crate::error::{Result, ScriptError};
use crate::stdlib::graph_err;
use crate::value::{graph_mut, Value};
use netgraph::Graph;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Dispatches a method call on a graph.
pub fn call(g: &Rc<RefCell<Arc<Graph>>>, method: &str, args: &[Value]) -> Result<Value> {
    match method {
        // ------------------------------------------------------- inspection
        "number_of_nodes" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::Int(g.borrow().number_of_nodes() as i64))
        }
        "number_of_edges" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::Int(g.borrow().number_of_edges() as i64))
        }
        "is_directed" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::Bool(g.borrow().is_directed()))
        }
        "nodes" => {
            expect_arity(method, args, &[0])?;
            let graph = g.borrow();
            Ok(Value::list(
                graph
                    .node_id_list()
                    .iter()
                    .map(|&id| Value::Str(graph.node_name_shared(id)))
                    .collect(),
            ))
        }
        "nodes_data" => {
            expect_arity(method, args, &[0])?;
            let graph = g.borrow();
            Ok(Value::list(
                graph
                    .node_id_list()
                    .iter()
                    .map(|&id| {
                        Value::list(vec![
                            Value::Str(graph.node_name_shared(id)),
                            Value::from_dict(Dict::graph_row(&graph, id, None)),
                        ])
                    })
                    .collect(),
            ))
        }
        "edges" => {
            expect_arity(method, args, &[0])?;
            let graph = g.borrow();
            Ok(Value::list(
                graph
                    .edge_id_iter()
                    .map(|(u, v)| {
                        Value::list(vec![
                            Value::Str(graph.node_name_shared(u)),
                            Value::Str(graph.node_name_shared(v)),
                        ])
                    })
                    .collect(),
            ))
        }
        "edges_data" => {
            expect_arity(method, args, &[0])?;
            let graph = g.borrow();
            Ok(Value::list(
                graph
                    .edge_id_iter()
                    .map(|(u, v)| {
                        Value::list(vec![
                            Value::Str(graph.node_name_shared(u)),
                            Value::Str(graph.node_name_shared(v)),
                            Value::from_dict(Dict::graph_row(&graph, u, Some(v))),
                        ])
                    })
                    .collect(),
            ))
        }
        "has_node" => {
            expect_arity(method, args, &[1])?;
            let id = args[0].expect_str(method)?;
            Ok(Value::Bool(g.borrow().has_node(id)))
        }
        "has_edge" => {
            expect_arity(method, args, &[2])?;
            let u = args[0].expect_str(method)?;
            let v = args[1].expect_str(method)?;
            Ok(Value::Bool(g.borrow().has_edge(u, v)))
        }

        // -------------------------------------------------------- adjacency
        "neighbors" | "successors" | "predecessors" => {
            expect_arity(method, args, &[1])?;
            let id = args[0].expect_str(method)?;
            let graph = g.borrow();
            let list = match method {
                "neighbors" => graph.neighbors(id),
                "successors" => graph.successors(id),
                _ => graph.predecessors(id),
            }
            .map_err(graph_err)?;
            Ok(Value::list(
                list.into_iter().map(|n| Value::Str(n.into())).collect(),
            ))
        }
        "degree" | "in_degree" | "out_degree" => {
            expect_arity(method, args, &[1])?;
            let id = args[0].expect_str(method)?;
            let graph = g.borrow();
            let d = match method {
                "degree" => graph.degree(id),
                "in_degree" => graph.in_degree(id),
                _ => graph.out_degree(id),
            }
            .map_err(graph_err)?;
            Ok(Value::Int(d as i64))
        }

        // ------------------------------------------------------- attributes
        "node_attrs" => {
            expect_arity(method, args, &[1])?;
            let id = args[0].expect_str(method)?;
            let graph = g.borrow();
            let attrs = graph.node_attrs(id).map_err(graph_err)?;
            Ok(Value::from_attr_map(attrs))
        }
        "edge_attrs" => {
            expect_arity(method, args, &[2])?;
            let u = args[0].expect_str(method)?;
            let v = args[1].expect_str(method)?;
            let graph = g.borrow();
            let attrs = graph.edge_attrs(u, v).map_err(graph_err)?;
            Ok(Value::from_attr_map(attrs))
        }
        "get_node_attr" => {
            expect_arity(method, args, &[2, 3])?;
            let id = args[0].expect_str(method)?;
            let key = args[1].expect_str(method)?;
            let graph = g.borrow();
            match graph.get_node_attr(id, key) {
                Ok(v) => Ok(Value::from_attr(v)),
                Err(netgraph::GraphError::AttrNotFound { .. }) if args.len() == 3 => {
                    Ok(args[2].clone())
                }
                Err(e) => Err(graph_err(e)),
            }
        }
        "get_edge_attr" => {
            expect_arity(method, args, &[3, 4])?;
            let u = args[0].expect_str(method)?;
            let v = args[1].expect_str(method)?;
            let key = args[2].expect_str(method)?;
            let graph = g.borrow();
            match graph.get_edge_attr(u, v, key) {
                Ok(val) => Ok(Value::from_attr(val)),
                Err(netgraph::GraphError::AttrNotFound { .. }) if args.len() == 4 => {
                    Ok(args[3].clone())
                }
                Err(e) => Err(graph_err(e)),
            }
        }
        "set_node_attr" => {
            expect_arity(method, args, &[3])?;
            let id = args[0].expect_str(method)?;
            let key = args[1].expect_str(method)?;
            let value = args[2].to_attr()?;
            graph_mut(g)
                .set_node_attr(id, key, value)
                .map_err(graph_err)?;
            Ok(Value::Null)
        }
        "set_edge_attr" => {
            expect_arity(method, args, &[4])?;
            let u = args[0].expect_str(method)?;
            let v = args[1].expect_str(method)?;
            let key = args[2].expect_str(method)?;
            let value = args[3].to_attr()?;
            graph_mut(g)
                .set_edge_attr(u, v, key, value)
                .map_err(graph_err)?;
            Ok(Value::Null)
        }
        "total_edge_attr" => {
            expect_arity(method, args, &[1])?;
            let key = args[0].expect_str(method)?;
            Ok(Value::Float(g.borrow().total_edge_attr(key)))
        }

        // --------------------------------------------------------- mutation
        "add_node" => {
            expect_arity(method, args, &[1, 2])?;
            let id = args[0].expect_str(method)?;
            let attrs = match args.get(1) {
                Some(v) => v.to_attr_map()?,
                None => Default::default(),
            };
            graph_mut(g).add_node(id, attrs);
            Ok(Value::Null)
        }
        "add_edge" => {
            expect_arity(method, args, &[2, 3])?;
            let u = args[0].expect_str(method)?;
            let v = args[1].expect_str(method)?;
            let attrs = match args.get(2) {
                Some(a) => a.to_attr_map()?,
                None => Default::default(),
            };
            graph_mut(g).add_edge(u, v, attrs);
            Ok(Value::Null)
        }
        "remove_node" => {
            expect_arity(method, args, &[1])?;
            let id = args[0].expect_str(method)?;
            graph_mut(g).remove_node(id).map_err(graph_err)?;
            Ok(Value::Null)
        }
        "remove_edge" => {
            expect_arity(method, args, &[2])?;
            let u = args[0].expect_str(method)?;
            let v = args[1].expect_str(method)?;
            graph_mut(g).remove_edge(u, v).map_err(graph_err)?;
            Ok(Value::Null)
        }

        // ---------------------------------------------------------- derived
        "subgraph" => {
            expect_arity(method, args, &[1])?;
            let keep = match &args[0] {
                Value::List(items) => items.borrow().clone(),
                other => {
                    return Err(ScriptError::TypeError(format!(
                        "subgraph() expects a list of node ids, got {}",
                        other.type_name()
                    )))
                }
            };
            let keep: Vec<&str> = keep
                .iter()
                .map(|v| v.expect_str("subgraph"))
                .collect::<Result<_>>()?;
            let sub = g.borrow().subgraph(keep);
            Ok(Value::graph(sub))
        }
        "reverse" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::graph(g.borrow().reverse()))
        }
        "to_undirected" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::graph(g.borrow().to_undirected()))
        }
        "copy" => {
            expect_arity(method, args, &[0])?;
            Ok(Value::graph(g.borrow().clone()))
        }
        "nodes_with_attr" => {
            // nodes_with_attr(key, value): node ids whose attribute equals value.
            expect_arity(method, args, &[2])?;
            let key = args[0].expect_str(method)?;
            let want = args[1].to_attr()?;
            let graph = g.borrow();
            let ids =
                graph.nodes_where(|a| a.get(key).map(|v| v.approx_eq(&want)).unwrap_or(false));
            Ok(Value::list(
                ids.into_iter().map(|n| Value::Str(n.into())).collect(),
            ))
        }
        "nodes_with_prefix" => {
            // nodes_with_prefix(prefix): node ids whose id starts with prefix.
            expect_arity(method, args, &[1])?;
            let prefix = args[0].expect_str(method)?;
            let graph = g.borrow();
            let ids: Vec<Value> = graph
                .node_id_list()
                .iter()
                .filter(|&&id| graph.node_name(id).starts_with(prefix))
                .map(|&id| Value::Str(graph.node_name_shared(id)))
                .collect();
            Ok(Value::list(ids))
        }
        other => Err(ScriptError::AttributeError {
            type_name: "graph".to_string(),
            attr: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::attrs;

    fn sample() -> Value {
        let mut g = Graph::directed();
        g.add_edge("10.0.1.1", "10.0.2.2", attrs([("bytes", 100i64)]));
        g.add_edge("10.0.2.2", "10.1.3.3", attrs([("bytes", 250i64)]));
        g.set_node_attr("10.0.1.1", "role", "server").unwrap();
        Value::graph(g)
    }

    fn call_on(v: &Value, method: &str, args: &[Value]) -> Result<Value> {
        match v {
            Value::Graph(g) => call(g, method, args),
            _ => panic!("expected graph"),
        }
    }

    #[test]
    fn inspection_methods() {
        let g = sample();
        assert_eq!(
            call_on(&g, "number_of_nodes", &[]).unwrap().to_string(),
            "3"
        );
        assert_eq!(
            call_on(&g, "number_of_edges", &[]).unwrap().to_string(),
            "2"
        );
        assert_eq!(call_on(&g, "is_directed", &[]).unwrap().to_string(), "true");
        assert_eq!(
            call_on(&g, "nodes", &[]).unwrap().to_string(),
            "[10.0.1.1, 10.0.2.2, 10.1.3.3]"
        );
        assert_eq!(
            call_on(
                &g,
                "has_edge",
                &[Value::Str("10.0.1.1".into()), Value::Str("10.0.2.2".into())]
            )
            .unwrap()
            .to_string(),
            "true"
        );
    }

    #[test]
    fn attribute_access_and_defaults() {
        let g = sample();
        let bytes = call_on(
            &g,
            "get_edge_attr",
            &[
                Value::Str("10.0.1.1".into()),
                Value::Str("10.0.2.2".into()),
                Value::Str("bytes".into()),
            ],
        )
        .unwrap();
        assert_eq!(bytes.to_string(), "100");
        // Missing attribute without a default is the "imaginary attribute" error.
        let err = call_on(
            &g,
            "get_node_attr",
            &[Value::Str("10.0.2.2".into()), Value::Str("capacity".into())],
        )
        .unwrap_err();
        assert!(err.is_missing_attribute());
        // With a default it succeeds.
        let v = call_on(
            &g,
            "get_node_attr",
            &[
                Value::Str("10.0.2.2".into()),
                Value::Str("capacity".into()),
                Value::Int(0),
            ],
        )
        .unwrap();
        assert_eq!(v.to_string(), "0");
    }

    #[test]
    fn mutation_methods() {
        let g = sample();
        call_on(
            &g,
            "set_node_attr",
            &[
                Value::Str("10.0.1.1".into()),
                Value::Str("color".into()),
                Value::Str("red".into()),
            ],
        )
        .unwrap();
        call_on(
            &g,
            "add_edge",
            &[Value::Str("x".into()), Value::Str("y".into())],
        )
        .unwrap();
        assert_eq!(
            call_on(&g, "number_of_edges", &[]).unwrap().to_string(),
            "3"
        );
        call_on(&g, "remove_node", &[Value::Str("x".into())]).unwrap();
        assert_eq!(
            call_on(&g, "number_of_nodes", &[]).unwrap().to_string(),
            "4"
        );
        // Removing a node that does not exist is an operation error.
        let err = call_on(&g, "remove_node", &[Value::Str("zzz".into())]).unwrap_err();
        assert!(matches!(err, ScriptError::Runtime(_)));
    }

    #[test]
    fn derived_views() {
        let g = sample();
        let sub = call_on(
            &g,
            "subgraph",
            &[Value::list(vec![
                Value::Str("10.0.1.1".into()),
                Value::Str("10.0.2.2".into()),
            ])],
        )
        .unwrap();
        assert_eq!(
            call_on(&sub, "number_of_nodes", &[]).unwrap().to_string(),
            "2"
        );
        let undirected = call_on(&g, "to_undirected", &[]).unwrap();
        assert_eq!(
            call_on(&undirected, "is_directed", &[])
                .unwrap()
                .to_string(),
            "false"
        );
        let pref = call_on(&g, "nodes_with_prefix", &[Value::Str("10.0".into())]).unwrap();
        assert_eq!(pref.to_string(), "[10.0.1.1, 10.0.2.2]");
        let with_role = call_on(
            &g,
            "nodes_with_attr",
            &[Value::Str("role".into()), Value::Str("server".into())],
        )
        .unwrap();
        assert_eq!(with_role.to_string(), "[10.0.1.1]");
    }

    #[test]
    fn unknown_method_and_bad_arity() {
        let g = sample();
        let err = call_on(&g, "get_total_weight", &[]).unwrap_err();
        assert!(err.is_unknown_callable());
        let err = call_on(&g, "degree", &[]).unwrap_err();
        assert!(err.is_argument_error());
    }
}
