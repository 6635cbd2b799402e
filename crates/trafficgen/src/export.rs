//! Exports a traffic workload into the three backend representations the
//! benchmark evaluates: a property graph (NetworkX approach), node/edge
//! dataframes (pandas approach) and node/edge tables (SQL approach).

use crate::flow::Flow;
use crate::generator::TrafficWorkload;
use crate::ip::Ipv4;
use dataframe::{Column, DataFrame};
use netgraph::intern::Interner;
use netgraph::{attrs, AttrValue, Graph};
use sqlengine::Database;

/// Builds the directed communication graph: one node per endpoint (id = the
/// dotted address, with `prefix16`/`prefix24` attributes precomputed), one
/// edge per flow with `bytes`, `connections` and `packets` attributes.
///
/// Prefix strings repeat across many endpoints, so they are deduplicated
/// through an [`Interner`]: every node holding `prefix16 = "15.76"` shares
/// one allocation.
pub fn to_graph(workload: &TrafficWorkload) -> Graph {
    let mut interner = Interner::new();
    let mut g = Graph::directed();
    for ip in &workload.endpoints {
        g.add_node(
            &ip.to_string_dotted(),
            attrs([
                (
                    "prefix16",
                    AttrValue::Str(interner.intern_shared(&ip.prefix(2))),
                ),
                (
                    "prefix24",
                    AttrValue::Str(interner.intern_shared(&ip.prefix(3))),
                ),
            ]),
        );
    }
    for f in &workload.flows {
        g.add_edge(
            &f.source.to_string_dotted(),
            &f.target.to_string_dotted(),
            attrs([
                ("bytes", AttrValue::Int(f.bytes as i64)),
                ("connections", AttrValue::Int(f.connections as i64)),
                ("packets", AttrValue::Int(f.packets as i64)),
            ]),
        );
    }
    g
}

/// Builds the pandas-style representation: a node frame (`id`, `prefix16`,
/// `prefix24`) and an edge frame (`source`, `target`, `bytes`,
/// `connections`, `packets`).
pub fn to_frames(workload: &TrafficWorkload) -> (DataFrame, DataFrame) {
    // One interner across every string column: endpoint ids appear once in
    // the node frame and once per incident flow in the edge frame, so all
    // those cells share single allocations (symbols), as do the repeated
    // prefixes and the empty annotation cells.
    let mut interner = Interner::new();
    let ids: Vec<String> = workload
        .endpoints
        .iter()
        .map(Ipv4::to_string_dotted)
        .collect();
    let nodes = DataFrame::from_columns(vec![
        (
            "id".to_string(),
            ids.iter()
                .map(|s| AttrValue::Str(interner.intern_shared(s)))
                .collect(),
        ),
        (
            "prefix16".to_string(),
            workload
                .endpoints
                .iter()
                .map(|ip| AttrValue::Str(interner.intern_shared(&ip.prefix(2))))
                .collect(),
        ),
        (
            "prefix24".to_string(),
            workload
                .endpoints
                .iter()
                .map(|ip| AttrValue::Str(interner.intern_shared(&ip.prefix(3))))
                .collect(),
        ),
        // Spare annotation columns so labelling/coloring queries can be
        // expressed in the fixed-schema backends (pandas and SQL cannot add
        // columns the way the graph backend adds attributes).
        (
            "label".to_string(),
            workload
                .endpoints
                .iter()
                .map(|_| AttrValue::Str(interner.intern_shared("")))
                .collect(),
        ),
        (
            "color".to_string(),
            workload
                .endpoints
                .iter()
                .map(|_| AttrValue::Str(interner.intern_shared("")))
                .collect(),
        ),
    ])
    .expect("node columns are equal length");

    let edges = DataFrame::from_columns(vec![
        (
            "source".to_string(),
            workload
                .flows
                .iter()
                .map(|f| AttrValue::Str(interner.intern_shared(&f.source.to_string_dotted())))
                .collect(),
        ),
        (
            "target".to_string(),
            workload
                .flows
                .iter()
                .map(|f| AttrValue::Str(interner.intern_shared(&f.target.to_string_dotted())))
                .collect(),
        ),
        (
            "bytes".to_string(),
            workload
                .flows
                .iter()
                .map(|f| AttrValue::Int(f.bytes as i64))
                .collect::<Column>(),
        ),
        (
            "connections".to_string(),
            workload
                .flows
                .iter()
                .map(|f| AttrValue::Int(f.connections as i64))
                .collect(),
        ),
        (
            "packets".to_string(),
            workload
                .flows
                .iter()
                .map(|f| AttrValue::Int(f.packets as i64))
                .collect(),
        ),
    ])
    .expect("edge columns are equal length");

    (nodes, edges)
}

/// Builds the SQL representation: a database with `nodes` and `edges`
/// tables whose schemas match [`to_frames`].
pub fn to_database(workload: &TrafficWorkload) -> Database {
    let (nodes, edges) = to_frames(workload);
    let mut db = Database::new();
    db.create_table("nodes", nodes);
    db.create_table("edges", edges);
    db
}

/// One edge-frame row for a flow, in [`to_frames`] column order
/// (`source`, `target`, `bytes`, `connections`, `packets`).
pub fn flow_row(flow: &Flow) -> Vec<AttrValue> {
    flow_row_parts(
        &flow.source.to_string_dotted(),
        &flow.target.to_string_dotted(),
        flow.bytes as i64,
        flow.connections as i64,
        flow.packets as i64,
    )
}

/// [`flow_row`] from already-rendered parts — the single place the edge
/// schema's column order lives, shared with callers (the live serving
/// layer) that hold string ids rather than parsed addresses.
pub fn flow_row_parts(
    source: &str,
    target: &str,
    bytes: i64,
    connections: i64,
    packets: i64,
) -> Vec<AttrValue> {
    vec![
        AttrValue::Str(source.into()),
        AttrValue::Str(target.into()),
        AttrValue::Int(bytes),
        AttrValue::Int(connections),
        AttrValue::Int(packets),
    ]
}

/// One node-frame row for an endpoint, in [`to_frames`] column order
/// (`id`, `prefix16`, `prefix24`, `label`, `color`).
pub fn endpoint_row(ip: &Ipv4) -> Vec<AttrValue> {
    endpoint_row_parts(&ip.to_string_dotted(), &ip.prefix(2), &ip.prefix(3))
}

/// [`endpoint_row`] from already-rendered parts; the `label`/`color`
/// annotation cells start empty, exactly as [`to_frames`] exports them.
pub fn endpoint_row_parts(id: &str, prefix16: &str, prefix24: &str) -> Vec<AttrValue> {
    vec![
        AttrValue::Str(id.into()),
        AttrValue::Str(prefix16.into()),
        AttrValue::Str(prefix24.into()),
        AttrValue::Str("".into()),
        AttrValue::Str("".into()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, TrafficConfig};
    use netgraph::AttrMapExt;

    fn workload() -> TrafficWorkload {
        generate(&TrafficConfig {
            nodes: 30,
            edges: 40,
            prefixes: 3,
            seed: 11,
        })
    }

    #[test]
    fn graph_matches_workload_shape() {
        let w = workload();
        let g = to_graph(&w);
        assert_eq!(g.number_of_nodes(), 30);
        assert_eq!(g.number_of_edges(), 40);
        let first = w.flows[0].source.to_string_dotted();
        assert_eq!(
            g.node_attrs(&first).unwrap().get_str("prefix16"),
            Some(w.flows[0].source.prefix(2).as_str())
        );
    }

    #[test]
    fn frames_match_workload_shape() {
        let w = workload();
        let (nodes, edges) = to_frames(&w);
        assert_eq!(nodes.n_rows(), 30);
        assert_eq!(
            nodes.column_names(),
            vec!["id", "prefix16", "prefix24", "label", "color"]
        );
        assert_eq!(edges.n_rows(), 40);
        assert_eq!(
            edges.column_names(),
            vec!["source", "target", "bytes", "connections", "packets"]
        );
        let total: f64 = edges.column("bytes").unwrap().sum().unwrap();
        assert_eq!(total, w.flows.iter().map(|f| f.bytes as f64).sum::<f64>());
    }

    #[test]
    fn database_is_queryable() {
        let w = workload();
        let mut db = to_database(&w);
        let out = db.execute("SELECT COUNT(*) AS n FROM edges").unwrap();
        assert_eq!(
            out.rows().unwrap().value(0, "n").unwrap(),
            &AttrValue::Int(40)
        );
        let out = db
            .execute("SELECT COUNT(*) AS n FROM nodes WHERE id LIKE '15.76%'")
            .unwrap();
        assert!(out.rows().unwrap().value(0, "n").unwrap().as_i64().unwrap() > 0);
    }

    #[test]
    fn incremental_flow_export_matches_full_export() {
        let w = workload();
        let (_, full) = to_frames(&w);
        // Export the first 25 flows, then append the remaining 15
        // incrementally: the result must equal the one-shot full export.
        let prefix = TrafficWorkload {
            flows: w.flows[..25].to_vec(),
            ..w.clone()
        };
        let (_, mut incremental) = to_frames(&prefix);
        for flow in &w.flows[25..] {
            incremental.push_row(flow_row(flow)).unwrap();
        }
        assert_eq!(incremental.n_rows(), full.n_rows());
        assert!(incremental.approx_eq(&full));
    }

    #[test]
    fn endpoint_rows_match_node_frame_schema() {
        let w = workload();
        let (mut nodes, _) = to_frames(&w);
        let before = nodes.n_rows();
        nodes
            .push_row(endpoint_row(&crate::ip::Ipv4::new(203, 0, 0, 1)))
            .unwrap();
        assert_eq!(nodes.n_rows(), before + 1);
        assert_eq!(
            nodes.value(before, "prefix24").unwrap().as_str(),
            Some("203.0.0")
        );
    }

    #[test]
    fn three_backends_agree_on_totals() {
        let w = workload();
        let g = to_graph(&w);
        let (_, edges) = to_frames(&w);
        let mut db = to_database(&w);
        let graph_total = g.total_edge_attr("bytes");
        let frame_total = edges.column("bytes").unwrap().sum().unwrap();
        let sql_total = db
            .execute("SELECT SUM(bytes) AS s FROM edges")
            .unwrap()
            .rows()
            .unwrap()
            .value(0, "s")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(graph_total, frame_total);
        assert_eq!(graph_total, sql_total);
    }
}
