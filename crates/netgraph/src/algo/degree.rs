//! Degree- and weight-based node statistics.
//!
//! Traffic-analysis queries frequently ask for the "top talkers", the total
//! byte weight on each node, or degree centrality; these helpers compute the
//! aggregates the generated code calls into.

use crate::attr::AttrMapExt;
use crate::error::Result;
use crate::graph::Graph;
use std::collections::BTreeMap;

/// Degree of every node (in + out for directed graphs).
pub fn degree_map(g: &Graph) -> BTreeMap<String, usize> {
    g.node_ids()
        .map(|n| (n.to_string(), g.degree(n).expect("node exists")))
        .collect()
}

/// Degree centrality: degree divided by `n - 1`, NetworkX convention.
/// Returns an empty map for graphs with fewer than two nodes.
pub fn degree_centrality(g: &Graph) -> BTreeMap<String, f64> {
    let n = g.number_of_nodes();
    if n < 2 {
        return g.node_ids().map(|id| (id.to_string(), 0.0)).collect();
    }
    let denom = (n - 1) as f64;
    degree_map(g)
        .into_iter()
        .map(|(k, d)| (k, d as f64 / denom))
        .collect()
}

/// Sum of a numeric edge attribute over all edges incident to each node.
/// For directed graphs both incoming and outgoing edges contribute, which is
/// what "total byte weight on each node" means in the benchmark queries.
pub fn node_weight_totals(g: &Graph, attr: &str) -> Result<BTreeMap<String, f64>> {
    // Summed per node id, in canonical edge order (so every total is
    // bit-identical to a walk that keys by name), then named once.
    let mut totals = vec![0.0; g.id_bound()];
    for (u, v) in g.edge_id_iter() {
        let w = g
            .edge_attrs_by_id(u, v)
            .and_then(|attrs| attrs.get_f64(attr))
            .unwrap_or(0.0);
        totals[u.index()] += w;
        if u != v {
            totals[v.index()] += w;
        }
    }
    Ok(g.node_id_list()
        .iter()
        .map(|&id| (g.node_name(id).to_string(), totals[id.index()]))
        .collect())
}

/// Nodes sorted descending by a numeric score map, ties broken by node id,
/// truncated to `k` entries.
pub fn top_k_by_score(scores: &BTreeMap<String, f64>, k: usize) -> Vec<(String, f64)> {
    let mut pairs: Vec<(String, f64)> = scores.iter().map(|(n, s)| (n.clone(), *s)).collect();
    pairs.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    pairs.truncate(k);
    pairs
}

/// The node with the maximum degree (ties broken by id); `None` on an empty
/// graph.
pub fn max_degree_node(g: &Graph) -> Option<(String, usize)> {
    degree_map(g)
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
}

/// Average degree over all nodes; 0.0 on an empty graph.
pub fn average_degree(g: &Graph) -> f64 {
    let n = g.number_of_nodes();
    if n == 0 {
        return 0.0;
    }
    degree_map(g).values().sum::<usize>() as f64 / n as f64
}

/// Density as defined by NetworkX: `m / (n * (n - 1))` for directed graphs,
/// `2m / (n * (n - 1))` for undirected graphs. Returns 0.0 for graphs with
/// fewer than two nodes.
pub fn density(g: &Graph) -> f64 {
    let n = g.number_of_nodes() as f64;
    let m = g.number_of_edges() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let possible = n * (n - 1.0);
    if g.is_directed() {
        m / possible
    } else {
        2.0 * m / possible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attrs;

    fn traffic() -> Graph {
        let mut g = Graph::directed();
        g.add_edge("h1", "h2", attrs([("bytes", 100i64)]));
        g.add_edge("h2", "h3", attrs([("bytes", 50i64)]));
        g.add_edge("h1", "h3", attrs([("bytes", 25i64)]));
        g
    }

    #[test]
    fn degree_map_counts_both_directions() {
        let g = traffic();
        let d = degree_map(&g);
        assert_eq!(d["h1"], 2);
        assert_eq!(d["h2"], 2);
        assert_eq!(d["h3"], 2);
    }

    #[test]
    fn degree_centrality_normalizes() {
        let g = traffic();
        let c = degree_centrality(&g);
        assert!((c["h1"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn node_weight_totals_sum_incident_edges() {
        let g = traffic();
        let t = node_weight_totals(&g, "bytes").unwrap();
        assert_eq!(t["h1"], 125.0);
        assert_eq!(t["h2"], 150.0);
        assert_eq!(t["h3"], 75.0);
    }

    #[test]
    fn self_loop_counted_once_in_totals() {
        let mut g = Graph::directed();
        g.add_edge("x", "x", attrs([("bytes", 10i64)]));
        let t = node_weight_totals(&g, "bytes").unwrap();
        assert_eq!(t["x"], 10.0);
    }

    #[test]
    fn top_k_orders_descending_with_id_ties() {
        let mut scores = BTreeMap::new();
        scores.insert("a".to_string(), 5.0);
        scores.insert("b".to_string(), 9.0);
        scores.insert("c".to_string(), 5.0);
        let top = top_k_by_score(&scores, 2);
        assert_eq!(top[0].0, "b");
        assert_eq!(top[1].0, "a");
    }

    #[test]
    fn max_degree_and_average() {
        let g = traffic();
        let (_, d) = max_degree_node(&g).unwrap();
        assert_eq!(d, 2);
        assert!((average_degree(&g) - 2.0).abs() < 1e-12);
        assert_eq!(max_degree_node(&Graph::directed()), None);
    }

    #[test]
    fn density_directed_and_undirected() {
        let g = traffic();
        assert!((density(&g) - 0.5).abs() < 1e-12);
        let u = g.to_undirected();
        assert!((density(&u) - 1.0).abs() < 1e-12);
        assert_eq!(density(&Graph::directed()), 0.0);
    }
}
