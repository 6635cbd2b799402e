//! The live network: event-sourced state over every backend substrate.
//!
//! A [`LiveNetwork`] owns the property graph (the NetworkX/strawman
//! representation) and the node/edge frames (the pandas representation;
//! the SQL representation is the same two tables mounted in a
//! [`Database`]), and the only way to change any of them is
//! [`LiveNetwork::apply`], which applies one [`Mutation`] to every
//! substrate in lockstep, bumps the epoch, and appends a [`WalRecord`] to
//! the in-memory write-ahead log. A rejected mutation touches nothing and
//! consumes no epoch.
//!
//! The substrates sit behind `Arc`s. [`LiveNetwork::state`] hands those
//! `Arc`s to the sandbox instead of copying them, and a mutation writes
//! through `Arc::make_mut`, which copies a substrate only while something
//! else still holds it. Nothing that outlives a request keeps one, so every
//! mutation writes in place.

use crate::error::ServeError;
use crate::mutation::{Epoch, Mutation, WalRecord};
use dataframe::DataFrame;
use nemo_core::apps::ApplicationWrapper;
use nemo_core::{Application, Backend, NetworkState};
use netgraph::json::graph_to_json;
use netgraph::{attrs, AttrValue, Graph};
use sqlengine::Database;
use std::collections::HashMap;
use std::sync::Arc;
use trafficgen::stream::TimedEvent;
use trafficgen::{export, TrafficWorkload};

/// The serving layer's live state: all backend substrates plus the WAL.
#[derive(Debug, Clone)]
pub struct LiveNetwork {
    graph: Arc<Graph>,
    nodes: Arc<DataFrame>,
    edges: Arc<DataFrame>,
    epoch: Epoch,
    wal: Vec<WalRecord>,
    /// Row index of each node id in the node frame, kept in lockstep with
    /// `nodes` so write-path lookups are O(1) instead of a column scan.
    node_rows: HashMap<String, usize>,
    /// Row index of each `(source, target)` pair in the edge frame,
    /// nested by source so lookups probe with `&str` — no per-lookup key
    /// allocation on the hot mutation path.
    edge_rows: HashMap<String, HashMap<String, usize>>,
}

/// Builds the row indices from frames (tolerating missing columns — a
/// frame without the schema columns simply yields empty indices, matching
/// the old scan-based lookups that found nothing).
#[allow(clippy::type_complexity)]
fn row_indices(
    nodes: &DataFrame,
    edges: &DataFrame,
) -> (
    HashMap<String, usize>,
    HashMap<String, HashMap<String, usize>>,
) {
    let mut node_rows = HashMap::new();
    if let Ok(ids) = nodes.column("id") {
        for (row, v) in ids.values().iter().enumerate() {
            if let Some(id) = v.as_str() {
                node_rows.insert(id.to_string(), row);
            }
        }
    }
    let mut edge_rows: HashMap<String, HashMap<String, usize>> = HashMap::new();
    if let (Ok(sources), Ok(targets)) = (edges.column("source"), edges.column("target")) {
        for (row, (s, t)) in sources.values().iter().zip(targets.values()).enumerate() {
            if let (Some(s), Some(t)) = (s.as_str(), t.as_str()) {
                edge_rows
                    .entry(s.to_string())
                    .or_default()
                    .insert(t.to_string(), row);
            }
        }
    }
    (node_rows, edge_rows)
}

impl LiveNetwork {
    /// Materializes a generated workload at epoch 0 with an empty WAL.
    pub fn from_workload(workload: &TrafficWorkload) -> Self {
        let (nodes, edges) = export::to_frames(workload);
        let (node_rows, edge_rows) = row_indices(&nodes, &edges);
        LiveNetwork {
            graph: Arc::new(export::to_graph(workload)),
            nodes: Arc::new(nodes),
            edges: Arc::new(edges),
            epoch: 0,
            wal: Vec::new(),
            node_rows,
            edge_rows,
        }
    }

    /// Reassembles a network from restored substrates (the snapshot path).
    /// The WAL starts empty: a snapshot *is* the log's prefix, compacted.
    pub(crate) fn from_parts(
        graph: Graph,
        nodes: DataFrame,
        edges: DataFrame,
        epoch: Epoch,
    ) -> Self {
        let (node_rows, edge_rows) = row_indices(&nodes, &edges);
        LiveNetwork {
            graph: Arc::new(graph),
            nodes: Arc::new(nodes),
            edges: Arc::new(edges),
            epoch,
            wal: Vec::new(),
            node_rows,
            edge_rows,
        }
    }

    /// A copy that shares no substrate with `self` (`clone` shares them
    /// all). A server partition starts from one: its first mutation then
    /// writes in place even while the caller keeps the network it was
    /// built from, and the fresh copy is laid out compactly, which
    /// measurably speeds up the mutations that follow.
    pub(crate) fn private_copy(&self) -> LiveNetwork {
        LiveNetwork {
            graph: Arc::new(Graph::clone(&self.graph)),
            nodes: Arc::new(DataFrame::clone(&self.nodes)),
            edges: Arc::new(DataFrame::clone(&self.edges)),
            epoch: self.epoch,
            wal: self.wal.clone(),
            node_rows: self.node_rows.clone(),
            edge_rows: self.edge_rows.clone(),
        }
    }

    /// The current epoch: the number of mutations ever applied (epoch 0 is
    /// the freshly materialized workload or the snapshot's epoch).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The in-memory write-ahead log since construction (or since the
    /// snapshot this network was restored from).
    pub fn wal(&self) -> &[WalRecord] {
        &self.wal
    }

    /// The property-graph substrate.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The node frame of the tabular substrate.
    pub fn nodes(&self) -> &DataFrame {
        &self.nodes
    }

    /// The edge frame of the tabular substrate.
    pub fn edges(&self) -> &DataFrame {
        &self.edges
    }

    /// The current state for one backend, sharing the live substrates
    /// copy-on-write: no data is copied, and a sandboxed program that
    /// writes to its state copies the substrate it writes, never touching
    /// the live one. Drop the state before the next mutation; while it is
    /// held, that mutation has to copy the substrates it writes.
    pub fn state(&self, backend: Backend) -> NetworkState {
        match backend {
            Backend::Strawman | Backend::NetworkX => NetworkState::Graph(Arc::clone(&self.graph)),
            Backend::Pandas => NetworkState::Frames {
                nodes: Arc::clone(&self.nodes),
                edges: Arc::clone(&self.edges),
            },
            Backend::Sql => {
                let mut db = Database::new();
                db.create_table("nodes", Arc::clone(&self.nodes));
                db.create_table("edges", Arc::clone(&self.edges));
                NetworkState::Database(db)
            }
        }
    }

    /// Applies one mutation to every substrate in lockstep. On success the
    /// epoch advances by one and the WAL grows by one record; on conflict
    /// the state is untouched.
    pub fn apply(&mut self, at_ms: u64, mutation: Mutation) -> Result<Epoch, ServeError> {
        self.check(&mutation)?;
        Ok(self.apply_unchecked(at_ms, mutation))
    }

    /// Applies a mutation that was validated *shard-locally* (see
    /// [`LiveNetwork::check_routed`]): what a shard partition runs after
    /// the router validated the mutation globally. The one semantic
    /// difference from [`LiveNetwork::apply`] is that an `AddEdge` whose
    /// endpoints live on other shards is applied through the graph's
    /// auto-created attribute-less *ghost* endpoints.
    pub(crate) fn apply_routed(
        &mut self,
        at_ms: u64,
        mutation: Mutation,
    ) -> Result<Epoch, ServeError> {
        self.check_routed(&mutation)?;
        Ok(self.apply_unchecked(at_ms, mutation))
    }

    /// The write path shared by [`LiveNetwork::apply`] and
    /// [`LiveNetwork::apply_routed`]; the mutation must already be
    /// validated against this network.
    fn apply_unchecked(&mut self, at_ms: u64, mutation: Mutation) -> Epoch {
        match &mutation {
            Mutation::AddNode {
                id,
                prefix16,
                prefix24,
            } => {
                Arc::make_mut(&mut self.graph).add_node(
                    id,
                    attrs([
                        ("prefix16", AttrValue::Str(prefix16.as_str().into())),
                        ("prefix24", AttrValue::Str(prefix24.as_str().into())),
                    ]),
                );
                self.node_rows.insert(id.clone(), self.nodes.n_rows());
                Arc::make_mut(&mut self.nodes)
                    .push_row(export::endpoint_row_parts(id, prefix16, prefix24))
                    .expect("node row matches schema");
            }
            Mutation::AddEdge {
                source,
                target,
                bytes,
                connections,
                packets,
            } => {
                Arc::make_mut(&mut self.graph).add_edge(
                    source,
                    target,
                    attrs([
                        ("bytes", AttrValue::Int(*bytes)),
                        ("connections", AttrValue::Int(*connections)),
                        ("packets", AttrValue::Int(*packets)),
                    ]),
                );
                self.edge_rows
                    .entry(source.clone())
                    .or_default()
                    .insert(target.clone(), self.edges.n_rows());
                Arc::make_mut(&mut self.edges)
                    .push_row(export::flow_row_parts(
                        source,
                        target,
                        *bytes,
                        *connections,
                        *packets,
                    ))
                    .expect("edge row matches schema");
            }
            Mutation::SetFlow {
                source,
                target,
                bytes,
                connections,
                packets,
            } => {
                let graph = Arc::make_mut(&mut self.graph);
                for (key, value) in [
                    ("bytes", *bytes),
                    ("connections", *connections),
                    ("packets", *packets),
                ] {
                    graph
                        .set_edge_attr(source, target, key, AttrValue::Int(value))
                        .expect("edge checked present");
                }
                let row = self
                    .edge_row(source, target)
                    .expect("edge row checked present");
                let edges = Arc::make_mut(&mut self.edges);
                for (column, value) in [
                    ("bytes", *bytes),
                    ("connections", *connections),
                    ("packets", *packets),
                ] {
                    edges
                        .set_value(row, column, AttrValue::Int(value))
                        .expect("edge columns exist");
                }
            }
            Mutation::SetNodeAttr { id, key, value } => {
                Arc::make_mut(&mut self.graph)
                    .set_node_attr(id, key, value.clone())
                    .expect("node checked present");
                if self.nodes.has_column(key) {
                    let row = self.node_row(id).expect("node row checked present");
                    Arc::make_mut(&mut self.nodes)
                        .set_value(row, key, value.clone())
                        .expect("column checked present");
                }
            }
            Mutation::RemoveEdge { source, target } => {
                Arc::make_mut(&mut self.graph)
                    .remove_edge(source, target)
                    .expect("edge checked present");
                let by_target = self
                    .edge_rows
                    .get_mut(source.as_str())
                    .expect("edge row checked present");
                let row = by_target
                    .remove(target.as_str())
                    .expect("edge row checked present");
                if by_target.is_empty() {
                    self.edge_rows.remove(source.as_str());
                }
                Arc::make_mut(&mut self.edges)
                    .remove_row(row)
                    .expect("row index in range");
                // Rows above the removed one shifted down by one.
                for index in self.edge_rows.values_mut().flat_map(|m| m.values_mut()) {
                    if *index > row {
                        *index -= 1;
                    }
                }
            }
        }
        self.epoch += 1;
        self.wal.push(WalRecord {
            epoch: self.epoch,
            at_ms,
            mutation,
        });
        self.epoch
    }

    /// Normalizes and applies one [`trafficgen`] stream event.
    pub fn apply_event(&mut self, event: &TimedEvent) -> Result<Epoch, ServeError> {
        self.apply(event.at_ms, Mutation::from_event(&event.event))
    }

    /// Validates a mutation against the current state without touching it.
    fn check(&self, mutation: &Mutation) -> Result<(), ServeError> {
        let conflict = |msg: String| Err(ServeError::Conflict(msg));
        match mutation {
            Mutation::AddNode { id, .. } => {
                if self.graph.has_node(id) {
                    return conflict(format!("node {id} already exists"));
                }
            }
            Mutation::AddEdge { source, target, .. } => {
                if !self.graph.has_node(source) || !self.graph.has_node(target) {
                    return conflict(format!("edge {source}->{target} names an unknown endpoint"));
                }
                if self.graph.has_edge(source, target) {
                    return conflict(format!("edge {source}->{target} already exists"));
                }
            }
            Mutation::SetFlow { source, target, .. } | Mutation::RemoveEdge { source, target } => {
                if !self.graph.has_edge(source, target) {
                    return conflict(format!("edge {source}->{target} does not exist"));
                }
            }
            Mutation::SetNodeAttr { id, key, .. } => {
                if !self.graph.has_node(id) {
                    return conflict(format!("node {id} does not exist"));
                }
                // Rewriting the identity column would desync the tabular
                // substrates from the graph (node names are immutable).
                if key == "id" {
                    return conflict("the 'id' attribute is the node's identity".to_string());
                }
            }
        }
        Ok(())
    }

    /// Shard-local validation: identical to [`LiveNetwork::check`] except
    /// that `AddEdge` does not require its endpoints — the router already
    /// checked them against the *owning* shards, and this partition may
    /// legitimately hold neither.
    fn check_routed(&self, mutation: &Mutation) -> Result<(), ServeError> {
        let conflict = |msg: String| Err(ServeError::Conflict(msg));
        match mutation {
            Mutation::AddNode { id, .. } => {
                if self.graph.has_node(id) {
                    return conflict(format!("node {id} already exists"));
                }
            }
            Mutation::AddEdge { source, target, .. } => {
                if self.graph.has_edge(source, target) {
                    return conflict(format!("edge {source}->{target} already exists"));
                }
            }
            Mutation::SetFlow { source, target, .. } | Mutation::RemoveEdge { source, target } => {
                if !self.graph.has_edge(source, target) {
                    return conflict(format!("edge {source}->{target} does not exist"));
                }
            }
            Mutation::SetNodeAttr { id, key, .. } => {
                if !self.graph.has_node(id) {
                    return conflict(format!("node {id} does not exist"));
                }
                if key == "id" {
                    return conflict("the 'id' attribute is the node's identity".to_string());
                }
            }
        }
        Ok(())
    }

    /// `(strong count, address)` of the graph, node-frame and edge-frame
    /// `Arc`s, for tests that prove nothing else holds the substrates.
    #[cfg(test)]
    pub(crate) fn substrate_handles(&self) -> [(usize, usize); 3] {
        fn handle<T>(arc: &Arc<T>) -> (usize, usize) {
            (Arc::strong_count(arc), Arc::as_ptr(arc) as usize)
        }
        [
            handle(&self.graph),
            handle(&self.nodes),
            handle(&self.edges),
        ]
    }

    pub(crate) fn node_row(&self, id: &str) -> Option<usize> {
        self.node_rows.get(id).copied()
    }

    pub(crate) fn edge_row(&self, source: &str, target: &str) -> Option<usize> {
        // O(1), allocation-free: both levels probe with `&str`.
        self.edge_rows.get(source)?.get(target).copied()
    }
}

/// Equality of the *state* (graph, frames, epoch) — not of the WAL, so a
/// replayed network with a truncated log still compares equal to the
/// directly built one.
impl PartialEq for LiveNetwork {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.graph == other.graph
            && self.nodes == other.nodes
            && self.edges == other.edges
    }
}

/// A live network is itself an application the pipeline can serve: same
/// schema text as the traffic-analysis wrapper, but described over the
/// *current* state rather than a frozen workload.
impl ApplicationWrapper for LiveNetwork {
    fn application(&self) -> Application {
        Application::TrafficAnalysis
    }

    fn describe(&self) -> String {
        format!(
            "Application: network traffic analysis over a live communication graph.\n\
             Nodes are network endpoints identified by their IPv4 address (string id); each node \
             carries 'prefix16' and 'prefix24' attributes with its /16 and /24 address prefixes.\n\
             Directed edges represent observed communication; each edge carries integer 'bytes', \
             'connections' and 'packets' attributes.\n\
             The graph has {} nodes and {} edges (state epoch {}).",
            self.graph.number_of_nodes(),
            self.graph.number_of_edges(),
            self.epoch
        )
    }

    fn initial_state(&self, backend: Backend) -> NetworkState {
        self.state(backend)
    }

    fn raw_json(&self) -> String {
        graph_to_json(&self.graph).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trafficgen::{evolve, generate, StreamConfig, TrafficConfig};

    fn workload() -> TrafficWorkload {
        generate(&TrafficConfig {
            nodes: 16,
            edges: 20,
            prefixes: 2,
            seed: 4,
        })
    }

    fn totals(live: &LiveNetwork) -> (f64, f64, f64) {
        let graph = live.graph().total_edge_attr("bytes");
        let frame = live.edges().column("bytes").unwrap().sum().unwrap();
        let mut db = match live.state(Backend::Sql) {
            NetworkState::Database(db) => db,
            _ => unreachable!(),
        };
        let sql = db
            .execute("SELECT SUM(bytes) AS s FROM edges")
            .unwrap()
            .rows()
            .unwrap()
            .value(0, "s")
            .unwrap()
            .as_f64()
            .unwrap();
        (graph, frame, sql)
    }

    #[test]
    fn substrates_stay_in_lockstep_under_a_stream() {
        let w = workload();
        let mut live = LiveNetwork::from_workload(&w);
        let events = evolve(
            &w,
            &StreamConfig {
                events: 120,
                seed: 8,
            },
        );
        for event in &events {
            live.apply_event(event).unwrap();
        }
        assert_eq!(live.epoch(), 120);
        assert_eq!(live.wal().len(), 120);
        let (g, f, s) = totals(&live);
        assert_eq!(g, f);
        assert_eq!(g, s);
        assert_eq!(
            live.graph().number_of_edges(),
            live.edges().n_rows(),
            "graph edges and edge rows diverged"
        );
        assert_eq!(live.graph().number_of_nodes(), live.nodes().n_rows());
        // WAL epochs are contiguous and 1-based.
        for (i, record) in live.wal().iter().enumerate() {
            assert_eq!(record.epoch, i as u64 + 1);
        }
    }

    #[test]
    fn row_indices_stay_in_lockstep_with_the_frames() {
        let w = workload();
        let mut live = LiveNetwork::from_workload(&w);
        let events = evolve(
            &w,
            &StreamConfig {
                events: 150,
                seed: 21,
            },
        );
        let check = |live: &LiveNetwork| {
            assert_eq!(live.node_rows.len(), live.nodes().n_rows());
            let indexed: usize = live.edge_rows.values().map(|m| m.len()).sum();
            assert_eq!(indexed, live.edges().n_rows());
            for (id, &row) in &live.node_rows {
                assert_eq!(live.nodes().value(row, "id").unwrap().as_str(), Some(&**id));
            }
            for (s, by_target) in &live.edge_rows {
                for (t, &row) in by_target {
                    assert_eq!(
                        live.edges().value(row, "source").unwrap().as_str(),
                        Some(&**s)
                    );
                    assert_eq!(
                        live.edges().value(row, "target").unwrap().as_str(),
                        Some(&**t)
                    );
                }
            }
        };
        check(&live);
        let mut removed_any = false;
        for event in &events {
            removed_any |= matches!(event.event, trafficgen::NetEvent::DropFlow { .. });
            live.apply_event(event).unwrap();
            check(&live);
        }
        assert!(removed_any, "stream must exercise RemoveEdge; enlarge it");
        // A snapshot-restored network rebuilds identical indices.
        let restored = crate::snapshot::read_snapshot(&crate::snapshot::write_snapshot(&live))
            .expect("round trip");
        check(&restored);
        assert_eq!(restored.node_rows, live.node_rows);
        assert_eq!(restored.edge_rows, live.edge_rows);
    }

    #[test]
    fn conflicts_touch_nothing_and_consume_no_epoch() {
        let w = workload();
        let mut live = LiveNetwork::from_workload(&w);
        let before = live.clone();
        let existing = w.endpoints[0].to_string_dotted();
        let err = live
            .apply(
                1,
                Mutation::AddNode {
                    id: existing.clone(),
                    prefix16: "0.0".into(),
                    prefix24: "0.0.0".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::Conflict(_)));
        assert!(live
            .apply(
                1,
                Mutation::RemoveEdge {
                    source: "1.2.3.4".into(),
                    target: existing,
                }
            )
            .is_err());
        assert!(live
            .apply(
                1,
                Mutation::AddEdge {
                    source: "1.2.3.4".into(),
                    target: "5.6.7.8".into(),
                    bytes: 1,
                    connections: 1,
                    packets: 1,
                }
            )
            .is_err());
        // The identity column is immutable: rewriting it would desync the
        // frames from the graph.
        assert!(live
            .apply(
                1,
                Mutation::SetNodeAttr {
                    id: w.endpoints[0].to_string_dotted(),
                    key: "id".into(),
                    value: "9.9.9.9".into(),
                }
            )
            .is_err());
        assert_eq!(live, before);
        assert!(live.wal().is_empty());
    }

    #[test]
    fn set_node_attr_mirrors_only_schema_columns() {
        let w = workload();
        let mut live = LiveNetwork::from_workload(&w);
        let id = w.endpoints[0].to_string_dotted();
        live.apply(
            1,
            Mutation::SetNodeAttr {
                id: id.clone(),
                key: "label".into(),
                value: "app:db".into(),
            },
        )
        .unwrap();
        live.apply(
            2,
            Mutation::SetNodeAttr {
                id: id.clone(),
                key: "weight".into(),
                value: AttrValue::Int(9),
            },
        )
        .unwrap();
        assert_eq!(
            live.graph().get_node_attr(&id, "label").unwrap().as_str(),
            Some("app:db")
        );
        let row = live.node_row(&id).unwrap();
        assert_eq!(
            live.nodes().value(row, "label").unwrap().as_str(),
            Some("app:db")
        );
        // `weight` is not in the tabular schema: graph-only.
        assert!(live.graph().get_node_attr(&id, "weight").is_ok());
        assert!(!live.nodes().has_column("weight"));
    }

    #[test]
    fn live_network_is_an_application_wrapper() {
        let live = LiveNetwork::from_workload(&workload());
        assert_eq!(live.application(), Application::TrafficAnalysis);
        assert!(live.describe().contains("state epoch 0"));
        assert!(live.raw_json().contains("\"links\""));
        for backend in Backend::ALL {
            let state = live.initial_state(backend);
            assert!(!state.describe().is_empty());
        }
    }
}
