//! The live network: event-sourced state over every backend substrate.
//!
//! A [`LiveNetwork`] owns the property graph (the NetworkX/strawman
//! representation) and the node/edge frames (the pandas representation;
//! the SQL representation is the same two tables mounted in a
//! [`Database`]), and the only way to change any of them is
//! [`LiveNetwork::apply`], which applies one [`Mutation`] to every
//! substrate in lockstep and bumps the epoch. A rejected mutation touches
//! nothing and consumes no epoch. The log of applied mutations is the
//! durable one a persistent server keeps ([`crate::shard_persist`]); the
//! live network holds only the state.
//!
//! **Row keys and indices.** Every row of both frames carries a *key*, a
//! number fixed when the row is appended, and each frame's keys ascend
//! strictly with its rows. A standalone network keys each frame's rows
//! `0..n` and counts upward from the last key; a server's state, and every
//! partition cut from it or merged into it, keys a row by its sequence
//! number, the one key scheme of [`crate::shard`].
//!
//! Every write-path lookup goes through an index, never a column scan. A
//! node's row never moves (nodes are never removed), so the node index maps
//! an id to its row. An edge's row moves when rows above it are compacted
//! away, so the edge index maps each `(source, target)` pair to its key
//! instead, and a key's row is its position in the key vector, found by
//! binary search.
//!
//! **Tombstones.** A `RemoveEdge` removes the graph edge, deletes the
//! pair's index entry and marks its row dead. The row and its key stay
//! where they are, so every live row keeps its position and the binary
//! search still finds it: a removal costs O(degree), like the others, not
//! a shift of every later row. [`LiveNetwork::settle`] compacts all dead
//! rows in one pass per column and over the key vector, from the first
//! dead row on, keeping row order; the frames then hold exactly the live
//! edges, as if each removal had shifted its rows at once. Removals are
//! batched without a knob: the removal that would leave more dead rows
//! than live ones settles at once, so a removal costs amortized O(1) and
//! the edge frame never holds more than twice its live rows.
//!
//! Only a server's sharded network holds an unsettled network, and it
//! settles one before lending, cutting or merging it (see [`crate::shard`]).
//! [`LiveNetwork::apply`] leaves its network settled, so standalone users
//! never see a dead row; the frame and key-vector accessors, the backend
//! states and equality assert that in debug builds.
//!
//! The substrates sit behind `Arc`s. [`LiveNetwork::state`] hands those
//! `Arc`s to the sandbox instead of copying them, and a mutation writes
//! through `Arc::make_mut`, which copies a substrate only while something
//! else still holds it. Nothing that outlives a request keeps one, so every
//! mutation writes in place.

use crate::error::ServeError;
use crate::mutation::{Epoch, Mutation};
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

/// The serving layer's live state: all backend substrates at one epoch.
#[derive(Debug, Clone)]
pub struct LiveNetwork {
    graph: Arc<Graph>,
    nodes: Arc<DataFrame>,
    edges: Arc<DataFrame>,
    epoch: Epoch,
    /// Row index of each node id in the node frame (see the module docs).
    node_rows: HashMap<String, usize>,
    /// The key of every node-frame row, in row order and strictly
    /// ascending.
    node_seqs: Vec<u64>,
    /// Row key of each `(source, target)` pair in the edge frame, nested
    /// by source so lookups probe with `&str` — no per-lookup key
    /// allocation on the hot mutation path.
    edge_rows: HashMap<String, HashMap<String, u64>>,
    /// The key of every edge-frame row, in row order and strictly
    /// ascending.
    edge_seqs: Vec<u64>,
    /// The edge-frame rows `RemoveEdge` marked dead since the last
    /// [`LiveNetwork::settle`], in the order they died.
    dead_edge_rows: Vec<usize>,
}

/// Builds the row indices from frames, keying edge row `r` by
/// `edge_seqs[r]` (tolerating missing columns — a frame without the schema
/// columns simply yields empty indices, matching the old scan-based
/// lookups that found nothing).
#[allow(clippy::type_complexity)]
fn row_indices(
    nodes: &DataFrame,
    edges: &DataFrame,
    edge_seqs: &[u64],
) -> (
    HashMap<String, usize>,
    HashMap<String, HashMap<String, u64>>,
) {
    let mut node_rows = HashMap::new();
    if let Ok(ids) = nodes.column("id") {
        for (row, v) in ids.values().iter().enumerate() {
            if let Some(id) = v.as_str() {
                node_rows.insert(id.to_string(), row);
            }
        }
    }
    let mut edge_rows: HashMap<String, HashMap<String, u64>> = HashMap::new();
    if let (Ok(sources), Ok(targets)) = (edges.column("source"), edges.column("target")) {
        for ((s, t), &key) in sources.values().iter().zip(targets.values()).zip(edge_seqs) {
            if let (Some(s), Some(t)) = (s.as_str(), t.as_str()) {
                edge_rows
                    .entry(s.to_string())
                    .or_default()
                    .insert(t.to_string(), key);
            }
        }
    }
    (node_rows, edge_rows)
}

impl LiveNetwork {
    /// Materializes a generated workload at epoch 0.
    pub fn from_workload(workload: &TrafficWorkload) -> Self {
        let (nodes, edges) = export::to_frames(workload);
        LiveNetwork::from_parts(export::to_graph(workload), nodes, edges, 0)
    }

    /// Reassembles a network from restored substrates (the snapshot path,
    /// and the merge), keying each frame's rows `0..n`.
    pub(crate) fn from_parts(
        graph: Graph,
        nodes: DataFrame,
        edges: DataFrame,
        epoch: Epoch,
    ) -> Self {
        let node_seqs = (0..nodes.n_rows() as u64).collect();
        let edge_seqs = (0..edges.n_rows() as u64).collect();
        LiveNetwork::from_keyed_parts(graph, nodes, edges, epoch, node_seqs, edge_seqs)
    }

    /// Reassembles a network whose node row `r` is keyed `node_seqs[r]`
    /// and edge row `r` `edge_seqs[r]`. The caller guarantees one key per
    /// row, strictly ascending in each frame.
    pub(crate) fn from_keyed_parts(
        graph: Graph,
        nodes: DataFrame,
        edges: DataFrame,
        epoch: Epoch,
        node_seqs: Vec<u64>,
        edge_seqs: Vec<u64>,
    ) -> Self {
        for (seqs, frame) in [(&node_seqs, &nodes), (&edge_seqs, &edges)] {
            debug_assert_eq!(seqs.len(), frame.n_rows());
            debug_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        }
        let (node_rows, edge_rows) = row_indices(&nodes, &edges, &edge_seqs);
        LiveNetwork {
            graph: Arc::new(graph),
            nodes: Arc::new(nodes),
            edges: Arc::new(edges),
            epoch,
            node_rows,
            node_seqs,
            edge_rows,
            edge_seqs,
            dead_edge_rows: Vec::new(),
        }
    }

    /// A copy that shares no substrate with `self` (`clone` shares them
    /// all), the rows of each frame keyed `0..n` afresh. A server's served
    /// state starts from one: its first mutation then writes in place even
    /// while the caller keeps the network it was built from, and the fresh
    /// copy is laid out compactly, which measurably speeds up the
    /// mutations that follow.
    pub(crate) fn private_copy(&self) -> LiveNetwork {
        debug_assert!(self.is_settled());
        // Renumbering a cloned index is cheaper than rebuilding it: no
        // string is hashed again.
        let mut edge_rows = self.edge_rows.clone();
        for key in edge_rows.values_mut().flat_map(|m| m.values_mut()) {
            *key = self
                .edge_seqs
                .binary_search(key)
                .expect("every indexed key has a row") as u64;
        }
        LiveNetwork {
            graph: Arc::new(Graph::clone(&self.graph)),
            nodes: Arc::new(DataFrame::clone(&self.nodes)),
            edges: Arc::new(DataFrame::clone(&self.edges)),
            epoch: self.epoch,
            node_rows: self.node_rows.clone(),
            node_seqs: (0..self.node_seqs.len() as u64).collect(),
            edge_rows,
            edge_seqs: (0..self.edge_seqs.len() as u64).collect(),
            dead_edge_rows: Vec::new(),
        }
    }

    /// The current epoch: the number of mutations ever applied (epoch 0 is
    /// the freshly materialized workload or the snapshot's epoch).
    pub fn epoch(&self) -> Epoch {
        self.epoch
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
        debug_assert!(self.is_settled(), "the edge frame holds dead rows");
        &self.edges
    }

    /// The current state for one backend, sharing the live substrates
    /// copy-on-write: no data is copied, and a sandboxed program that
    /// writes to its state copies the substrate it writes, never touching
    /// the live one. Drop the state before the next mutation; while it is
    /// held, that mutation has to copy the substrates it writes.
    pub fn state(&self, backend: Backend) -> NetworkState {
        debug_assert!(self.is_settled(), "the edge frame holds dead rows");
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
    /// epoch advances by one and the new epoch is returned; on conflict the
    /// state is untouched. Either way the network is left settled.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<Epoch, ServeError> {
        mutation.check(&self.graph, true)?;
        let epoch = self.apply_checked(mutation);
        self.settle();
        Ok(epoch)
    }

    /// [`LiveNetwork::apply`] for a mutation already checked against this
    /// very state: it is not checked again, and a removal may leave its
    /// row dead (see the module docs).
    pub(crate) fn apply_checked(&mut self, mutation: &Mutation) -> Epoch {
        let key = self
            .appended_keys(mutation)
            .last()
            .map_or(0, |&key| key + 1);
        self.apply_keyed(mutation, key)
    }

    /// Applies a mutation on a shard partition, after the router validated
    /// it globally. The one semantic difference from
    /// [`LiveNetwork::apply`] is that an `AddEdge` need not find its
    /// endpoints: those another shard owns are applied through the graph's
    /// auto-created attribute-less *ghost* endpoints. An `AddNode` or
    /// `AddEdge` keys the row it appends `key`, which must exceed every key
    /// of that frame's live rows; the other kinds ignore it. Like
    /// [`LiveNetwork::apply_checked`], a removal may leave its row dead.
    pub(crate) fn apply_routed(
        &mut self,
        mutation: &Mutation,
        key: u64,
    ) -> Result<Epoch, ServeError> {
        mutation.check(&self.graph, false)?;
        if matches!(
            mutation,
            Mutation::AddNode { .. } | Mutation::AddEdge { .. }
        ) {
            // The key is judged against the live rows, whenever dead ones
            // are compacted: one at or below the last key (a damaged
            // record) compacts them first, and a key may not land above a
            // dead row's.
            if self.appended_keys(mutation).last() >= Some(&key) {
                self.settle();
            }
            if let Some(&last) = self.appended_keys(mutation).last().filter(|&&l| key <= l) {
                return Err(ServeError::Corrupt(format!(
                    "row key {key} does not exceed the last key {last} of its frame"
                )));
            }
        }
        Ok(self.apply_keyed(mutation, key))
    }

    /// The keys of the frame an `AddNode` or `AddEdge` appends its row to.
    fn appended_keys(&self, mutation: &Mutation) -> &[u64] {
        match mutation {
            Mutation::AddNode { .. } => &self.node_seqs,
            _ => &self.edge_seqs,
        }
    }

    /// The write path every apply shares; the mutation must already be
    /// validated against this network, and `key` (the appended row's, for
    /// `AddNode` and `AddEdge` only) must exceed every key of its frame. A
    /// removal may leave its row dead.
    pub(crate) fn apply_keyed(&mut self, mutation: &Mutation, key: u64) -> Epoch {
        match mutation {
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
                self.node_seqs.push(key);
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
                    .insert(target.clone(), key);
                self.edge_seqs.push(key);
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
                let key = by_target
                    .remove(target.as_str())
                    .expect("edge row checked present");
                if by_target.is_empty() {
                    self.edge_rows.remove(source.as_str());
                }
                // The row and its key stay in place, dead; no other row
                // moves and no other index entry changes.
                let row = self
                    .edge_seqs
                    .binary_search(&key)
                    .expect("every indexed key has a row");
                self.dead_edge_rows.push(row);
                if 2 * self.dead_edge_rows.len() > self.edge_seqs.len() {
                    self.settle();
                }
            }
        }
        self.epoch += 1;
        self.epoch
    }

    /// Compacts every dead edge row (see the module docs): one pass per
    /// frame column and one over the key vector, starting at the first
    /// dead row and keeping the live rows in order. No live row's key or
    /// index entry changes. A settled network is left as it is.
    pub(crate) fn settle(&mut self) {
        if self.dead_edge_rows.is_empty() {
            return;
        }
        let mut dead = std::mem::take(&mut self.dead_edge_rows);
        dead.sort_unstable();
        Arc::make_mut(&mut self.edges)
            .remove_rows(&dead)
            .expect("dead rows are distinct rows of the frame");
        dataframe::remove_sorted(&mut self.edge_seqs, &dead);
    }

    /// Whether no edge row is dead.
    pub(crate) fn is_settled(&self) -> bool {
        self.dead_edge_rows.is_empty()
    }

    /// The number of dead edge rows.
    #[cfg(test)]
    pub(crate) fn dead_edge_rows(&self) -> usize {
        self.dead_edge_rows.len()
    }

    /// The edge frame, dead rows included.
    #[cfg(test)]
    pub(crate) fn unsettled_edges(&self) -> &DataFrame {
        &self.edges
    }

    /// Normalizes and applies one [`trafficgen`] stream event.
    pub fn apply_event(&mut self, event: &TimedEvent) -> Result<Epoch, ServeError> {
        self.apply(&Mutation::from_event(&event.event))
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

    /// The edge-frame row of `(source, target)`: an allocation-free probe
    /// for its key, then a binary search for the key's row.
    pub(crate) fn edge_row(&self, source: &str, target: &str) -> Option<usize> {
        let key = self.edge_rows.get(source)?.get(target)?;
        self.edge_seqs.binary_search(key).ok()
    }

    /// The key of every node-frame row, in row order (strictly ascending).
    pub(crate) fn node_seqs(&self) -> &[u64] {
        &self.node_seqs
    }

    /// The key of every edge-frame row, in row order (strictly ascending).
    pub(crate) fn edge_seqs(&self) -> &[u64] {
        debug_assert!(self.is_settled(), "the key vector holds dead rows");
        &self.edge_seqs
    }
}

/// Equality of the *state* (graph, frames, epoch) — not of the row
/// indices, which are derived from the frames. Both sides must be settled.
impl PartialEq for LiveNetwork {
    fn eq(&self, other: &Self) -> bool {
        debug_assert!(self.is_settled() && other.is_settled());
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
        graph_to_json(&self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
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
        let epochs: Vec<u64> = events
            .iter()
            .map(|event| live.apply_event(event).unwrap())
            .collect();
        assert_eq!(live.epoch(), 120);
        // Applied epochs are contiguous and 1-based.
        assert_eq!(epochs, (1..=120).collect::<Vec<u64>>());
        let (g, f, s) = totals(&live);
        assert_eq!(g, f);
        assert_eq!(g, s);
        assert_eq!(
            live.graph().number_of_edges(),
            live.edges().n_rows(),
            "graph edges and edge rows diverged"
        );
        assert_eq!(live.graph().number_of_nodes(), live.nodes().n_rows());
    }

    /// Every indexed edge pair with the row [`LiveNetwork::edge_row`]
    /// finds for it.
    fn edge_index(live: &LiveNetwork) -> HashMap<(String, String), usize> {
        live.edge_rows
            .iter()
            .flat_map(|(s, by_target)| {
                by_target.keys().map(move |t| {
                    let row = live.edge_row(s, t).expect("every indexed pair has a row");
                    ((s.clone(), t.clone()), row)
                })
            })
            .collect()
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
        let check = |live: &mut LiveNetwork| {
            live.settle();
            assert_eq!(live.node_rows.len(), live.nodes().n_rows());
            for (id, &row) in &live.node_rows {
                assert_eq!(live.nodes().value(row, "id").unwrap().as_str(), Some(&**id));
            }
            // One strictly ascending key per row of each frame...
            for (seqs, frame) in [
                (live.node_seqs(), live.nodes()),
                (live.edge_seqs(), live.edges()),
            ] {
                assert_eq!(seqs.len(), frame.n_rows());
                assert!(seqs.windows(2).all(|w| w[0] < w[1]));
            }
            // ...and every indexed pair finds a row holding that pair, so
            // the index maps the pairs one to one onto the rows.
            let index = edge_index(live);
            assert_eq!(index.len(), live.edges().n_rows());
            for ((s, t), &row) in &index {
                assert_eq!(
                    live.edges().value(row, "source").unwrap().as_str(),
                    Some(&**s)
                );
                assert_eq!(
                    live.edges().value(row, "target").unwrap().as_str(),
                    Some(&**t)
                );
            }
        };
        check(&mut live);
        let mut removed_any = false;
        for event in &events {
            removed_any |= matches!(event.event, trafficgen::NetEvent::DropFlow { .. });
            // The deferred path: a removal leaves its row dead until the
            // check settles it.
            live.apply_checked(&Mutation::from_event(&event.event));
            check(&mut live);
        }
        assert!(removed_any, "stream must exercise RemoveEdge; enlarge it");
        // A snapshot-restored network rebuilds identical indices (its keys
        // are renumbered, the rows they find are not).
        let mut restored = crate::snapshot::read_snapshot(&crate::snapshot::write_snapshot(&live))
            .expect("round trip");
        check(&mut restored);
        assert_eq!(restored.node_rows, live.node_rows);
        assert_eq!(edge_index(&restored), edge_index(&live));
    }

    /// The 1k/4k and 10k/40k states, built once per test binary.
    fn sized_states() -> &'static [LiveNetwork; 2] {
        static STATES: OnceLock<[LiveNetwork; 2]> = OnceLock::new();
        STATES.get_or_init(|| {
            [(1_000, 4_000), (10_000, 40_000)].map(|(nodes, edges)| {
                LiveNetwork::from_workload(&generate(&TrafficConfig {
                    nodes,
                    edges,
                    prefixes: 16,
                    seed: 1,
                }))
            })
        })
    }

    /// Every index entry: a node id with its row, an edge pair with its
    /// key.
    fn index_entries(live: &LiveNetwork) -> HashMap<(String, Option<String>), u64> {
        let nodes = live
            .node_rows
            .iter()
            .map(|(id, &row)| ((id.clone(), None), row as u64));
        let edges = live.edge_rows.iter().flat_map(|(s, by_target)| {
            by_target
                .iter()
                .map(move |(t, &key)| ((s.clone(), Some(t.clone())), key))
        });
        nodes.chain(edges).collect()
    }

    /// Index entries added, removed or rewritten from `before` to `after`.
    fn entries_rewritten(
        before: &HashMap<(String, Option<String>), u64>,
        after: &HashMap<(String, Option<String>), u64>,
    ) -> usize {
        let changed_or_removed = before.iter().filter(|(k, v)| after.get(*k) != Some(*v));
        let added = after.keys().filter(|k| !before.contains_key(*k));
        changed_or_removed.count() + added.count()
    }

    #[test]
    fn every_mutation_rewrites_at_most_one_index_entry() {
        for state in sized_states() {
            let mut live = state.clone();
            let size = (live.nodes().n_rows(), live.edges().n_rows());
            let pair = |row: usize| {
                let at = |column| live.edges().value(row, column).unwrap().to_string();
                (at("source"), at("target"))
            };
            let (first_source, first_target) = pair(0);
            let (mid_source, mid_target) = pair(size.1 / 2);
            let existing = live.nodes().value(1, "id").unwrap().to_string();
            let mutations = [
                Mutation::AddNode {
                    id: "250.0.0.1".into(),
                    prefix16: "250.0".into(),
                    prefix24: "250.0.0".into(),
                },
                Mutation::AddEdge {
                    source: "250.0.0.1".into(),
                    target: existing.clone(),
                    bytes: 1,
                    connections: 1,
                    packets: 1,
                },
                Mutation::SetFlow {
                    source: first_source.clone(),
                    target: first_target.clone(),
                    bytes: 2,
                    connections: 2,
                    packets: 2,
                },
                Mutation::SetNodeAttr {
                    id: existing.clone(),
                    key: "prefix16".into(),
                    value: "app:db".into(),
                },
                // The first row (every other row moves), a middle one, and
                // the row just appended.
                Mutation::RemoveEdge {
                    source: first_source,
                    target: first_target,
                },
                Mutation::RemoveEdge {
                    source: mid_source,
                    target: mid_target,
                },
                Mutation::RemoveEdge {
                    source: "250.0.0.1".into(),
                    target: existing,
                },
            ];
            for mutation in &mutations {
                let before = index_entries(&live);
                live.apply(mutation).unwrap();
                let rewritten = entries_rewritten(&before, &index_entries(&live));
                assert!(
                    rewritten <= 1,
                    "{mutation:?} at {size:?} rewrote {rewritten} index entries"
                );
            }
            assert_eq!(live.edges().n_rows(), size.1 - 2);
        }
    }

    #[test]
    fn conflicts_touch_nothing_and_consume_no_epoch() {
        let w = workload();
        let mut live = LiveNetwork::from_workload(&w);
        let before = live.clone();
        let existing = w.endpoints[0].to_string_dotted();
        let err = live
            .apply(&Mutation::AddNode {
                id: existing.clone(),
                prefix16: "0.0".into(),
                prefix24: "0.0.0".into(),
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Conflict(_)));
        assert!(live
            .apply(&Mutation::RemoveEdge {
                source: "1.2.3.4".into(),
                target: existing,
            })
            .is_err());
        assert!(live
            .apply(&Mutation::AddEdge {
                source: "1.2.3.4".into(),
                target: "5.6.7.8".into(),
                bytes: 1,
                connections: 1,
                packets: 1,
            })
            .is_err());
        // The identity column is immutable: rewriting it would desync the
        // frames from the graph.
        assert!(live
            .apply(&Mutation::SetNodeAttr {
                id: w.endpoints[0].to_string_dotted(),
                key: "id".into(),
                value: "9.9.9.9".into(),
            })
            .is_err());
        assert_eq!(live, before);
        assert_eq!(live.epoch(), 0);
    }

    #[test]
    fn set_node_attr_mirrors_only_schema_columns() {
        let w = workload();
        let mut live = LiveNetwork::from_workload(&w);
        let id = w.endpoints[0].to_string_dotted();
        live.apply(&Mutation::SetNodeAttr {
            id: id.clone(),
            key: "label".into(),
            value: "app:db".into(),
        })
        .unwrap();
        live.apply(&Mutation::SetNodeAttr {
            id: id.clone(),
            key: "weight".into(),
            value: AttrValue::Int(9),
        })
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
