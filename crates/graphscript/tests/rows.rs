//! The rows that `to_rows()`, `row(i)`, `edges_data()` and `nodes_data()`
//! hand out behave as dicts in every way a program can observe: their
//! type, key order, printing, equality, aliasing and error text. They are
//! snapshots of the substrate as it was when the method was called.

use dataframe::{Column, DataFrame};
use graphscript::{Interpreter, Value};
use netgraph::{attrs, Graph};
use std::sync::Arc;

fn frame() -> DataFrame {
    // Column order deliberately differs from sorted key order.
    DataFrame::from_columns(vec![
        ("source".to_string(), Column::from_values(["a", "b", "c"])),
        ("target".to_string(), Column::from_values(["b", "c", "a"])),
        ("bytes".to_string(), Column::from_values([100i64, 250, 40])),
        (
            "proto".to_string(),
            Column::from_values(["tcp", "udp", "tcp"]),
        ),
    ])
    .unwrap()
}

fn graph() -> Graph {
    let mut g = Graph::directed();
    g.add_edge("a", "b", attrs([("packets", 3i64), ("bytes", 100i64)]));
    g.add_edge("b", "c", attrs([("packets", 9i64), ("bytes", 250i64)]));
    g.set_node_attr("a", "role", "server").unwrap();
    g.set_node_attr("a", "color", "red").unwrap();
    g
}

fn interp() -> Interpreter {
    let mut interp = Interpreter::new();
    interp.set_global("edges", Value::frame(frame()));
    interp.set_global("G", Value::graph(graph()));
    interp
}

fn run(program: &str) -> String {
    interp()
        .run(program)
        .unwrap_or_else(|e| panic!("program failed: {e}\n{program}"))
        .value
        .to_string()
}

fn run_err(program: &str) -> String {
    interp().run(program).unwrap_err().to_string()
}

#[test]
fn rows_are_dicts_with_sorted_keys() {
    for row in [
        "edges.to_rows()[0]",
        "edges.row(0)",
        "G.edges_data()[0][2]",
        "G.nodes_data()[0][1]",
    ] {
        assert_eq!(run(&format!("type({row})")), "dict", "{row}");
    }
    assert_eq!(
        run("keys(edges.to_rows()[0])"),
        "[bytes, proto, source, target]"
    );
    assert_eq!(
        run("edges.to_rows()[1]"),
        "{bytes: 250, proto: udp, source: b, target: c}"
    );
    assert_eq!(
        run("ks = []\nfor k in edges.row(2) { ks.append(k) }\nks"),
        "[bytes, proto, source, target]"
    );
    assert_eq!(run("G.edges_data()[1]"), "[b, c, {bytes: 250, packets: 9}]");
    assert_eq!(
        run("G.nodes_data()"),
        "[[a, {color: red, role: server}], [b, {}], [c, {}]]"
    );
    assert_eq!(
        run("items(G.edges_data()[0][2])"),
        "[[bytes, 100], [packets, 3]]"
    );
    assert_eq!(run("values(edges.row(0))"), "[100, tcp, a, b]");
    assert_eq!(run("len(edges.row(0))"), "4");
    assert_eq!(run("\"proto\" in edges.row(0)"), "true");
    assert_eq!(run("edges.row(0).get(\"latency\", -1)"), "-1");
    assert_eq!(run("edges.row(0).proto"), "tcp");
}

#[test]
fn rows_compare_equal_to_plain_dicts() {
    assert_eq!(
        run("edges.row(0) == {\"source\": \"a\", \"target\": \"b\", \"bytes\": 100, \"proto\": \"tcp\"}"),
        "true"
    );
    assert_eq!(run("edges.to_rows()[0] == edges.row(0)"), "true");
    assert_eq!(run("edges.row(0) == edges.row(1)"), "false");
    assert_eq!(
        run("G.edges_data()[0][2] == {\"bytes\": 100.0, \"packets\": 3}"),
        "true"
    );
    assert_eq!(run("G.edges_data()[0][2] == {\"bytes\": 100}"), "false");
}

#[test]
fn a_write_through_one_alias_is_seen_by_the_other() {
    let program = r#"
rows = edges.to_rows()
r = rows[0]
r["bytes"] = 7
r["note"] = "x"
result = [rows[0]["bytes"], rows[0]["note"], len(rows[0]), rows[1]["bytes"], edges.value(0, "bytes")]
"#;
    assert_eq!(run(program), "[7, x, 5, 250, 100]");
    let program = r#"
data = G.edges_data()
attrs = data[0][2]
attrs.set("bytes", 1)
attrs.remove("packets")
result = [data[0][2], G.get_edge_attr("a", "b", "bytes")]
"#;
    assert_eq!(run(program), "[{bytes: 1}, 100]");
    let program = r#"
row = G.nodes_data()[0][1]
alias = row
alias.update({"color": "blue"})
result = row
"#;
    assert_eq!(run(program), "{color: blue, role: server}");
}

#[test]
fn a_row_taken_before_a_write_keeps_the_old_values() {
    let program = r#"
rows = edges.to_rows()
one = edges.row(1)
edges.set_value(0, "bytes", 999)
edges.set_value(1, "proto", "icmp")
edges.drop_column("target")
result = [rows[0]["bytes"], one["proto"], rows[0]["target"], edges.value(0, "bytes")]
"#;
    assert_eq!(run(program), "[100, udp, b, 999]");
    let program = r#"
data = G.edges_data()
nodes = G.nodes_data()
G.set_edge_attr("a", "b", "bytes", 1)
G.set_node_attr("a", "role", "client")
G.remove_edge("b", "c")
result = [data[0][2]["bytes"], nodes[0][1]["role"], data[1][2]["packets"], len(G.edges_data())]
"#;
    assert_eq!(run(program), "[100, server, 9, 1]");
}

#[test]
fn row_errors_read_as_dict_errors() {
    assert_eq!(
        run_err("for row in edges.to_rows() { x = row[\"latency\"] }"),
        "dict has no attribute 'latency'"
    );
    assert_eq!(
        run_err("e = G.edges_data()[0]\ne[2][\"latency\"]"),
        "dict has no attribute 'latency'"
    );
    assert_eq!(
        run_err("edges.row(0).latency"),
        "dict has no attribute 'latency'"
    );
    assert_eq!(
        run_err("edges.row(0).remove(\"latency\")"),
        "dict has no attribute 'latency'"
    );
    assert_eq!(
        run_err("for row in edges.to_rows() { x = row[\"source\"] - 1 }"),
        "type error: unsupported operand types for arithmetic: str and int"
    );
    assert_eq!(
        run_err("for a, b in edges.to_rows() { }"),
        "type error: cannot unpack a dict into 2 loop variables"
    );
    assert_eq!(
        run_err("for u, v, d, w in G.edges_data() { }"),
        "runtime error: cannot unpack 3 values into 4 loop variables"
    );
    assert_eq!(
        run_err("edges.row(0)[[1]]"),
        "type error: list cannot be used as a dictionary key"
    );
    assert_eq!(
        run_err("edges.row(0).explode()"),
        "'dict' object has no attribute 'explode'"
    );
    assert_eq!(
        run_err("G.add_node(\"z\", edges.row(0))\nG.add_node(\"y\", {\"f\": G})"),
        "type error: a graph cannot be stored as an attribute value"
    );
}

#[test]
fn rows_convert_to_attributes_and_back() {
    let program = r#"
G.add_node("z", edges.row(2))
result = G.node_attrs("z")
"#;
    assert_eq!(
        run(program),
        "{bytes: 40, proto: tcp, source: c, target: a}"
    );
}

#[test]
fn a_list_read_out_of_a_row_is_the_same_list_on_every_read() {
    let program = r#"
G.set_edge_attr("a", "b", "tags", [1])
data = G.edges_data()
data[0][2]["tags"].append(2)
attrs = data[0][2]
attrs.get("tags").append(3)
result = [attrs["tags"], items(attrs), G.get_edge_attr("a", "b", "tags")]
"#;
    assert_eq!(
        run(program),
        "[[1, 2, 3], [[bytes, 100], [packets, 3], [tags, [1, 2, 3]]], [1]]"
    );
    let program = r#"
edges.set_column("tags", [[1], [2], [3]])
rows = edges.to_rows()
values(rows[2])[3].append(9)
row = rows[2]
result = [row["tags"], row.tags, edges.value(2, "tags")]
"#;
    assert_eq!(run(program), "[[3, 9], [3, 9], [3]]");
}

/// How many references share the snapshot behind `edges` (`1`: the next
/// write to the frame copies nothing).
fn frame_sharers(interp: &Interpreter) -> usize {
    match interp.global("edges") {
        Some(Value::Frame(df)) => Arc::strong_count(&df.borrow()),
        other => panic!("edges is {other:?}"),
    }
}

#[test]
fn only_listings_share_the_frame_they_read() {
    let mut interp = interp();
    // A row loop that writes the frame: no row keeps the frame shared, so
    // no write after the first copies it.
    let program = r#"
for i in range(edges.n_rows()) {
    r = edges.row(i)
    edges.set_value(i, "bytes", r["bytes"] * 2)
}
"#;
    interp.run(program).unwrap();
    assert_eq!(frame_sharers(&interp), 1);
    interp.run("r = edges.row(0)").unwrap();
    assert_eq!(frame_sharers(&interp), 1);
    // A listing reads through to the frame until its rows are dropped.
    interp.run("rows = edges.to_rows()").unwrap();
    assert_eq!(frame_sharers(&interp), 4);
    interp.run("rows = []").unwrap();
    assert_eq!(frame_sharers(&interp), 1);
    assert_eq!(
        interp
            .run("edges.column(\"bytes\")")
            .unwrap()
            .value
            .to_string(),
        "[200, 500, 80]"
    );
}
