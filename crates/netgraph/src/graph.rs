//! The property-graph data structure.
//!
//! [`Graph`] is the NetworkX-equivalent substrate used by the execution
//! sandbox: a simple (non-multi) graph, directed or undirected, with
//! arbitrary [`AttrMap`] metadata on the graph, every node and every edge.
//! Node identifiers are strings (IP addresses for communication graphs,
//! MALT entity names for topologies) at the API surface, but the core is
//! integer-keyed: every name is interned once into a dense [`NodeId`], and
//! all adjacency is `Vec`-based from there.

use crate::attr::{AttrMap, AttrMapExt};
use crate::error::{GraphError, Result};
use crate::intern::{Interner, Symbol};
use crate::value::AttrValue;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

/// Dense integer handle for a graph node (the node's [`Symbol`] in the
/// graph's private interner). Ids are stable for the lifetime of the graph
/// — removing and re-adding a node yields the same id — but are **not**
/// meaningful across different graphs.
pub type NodeId = Symbol;

/// A directed or undirected property graph with string node identifiers
/// interned to dense integer ids.
///
/// Internally the graph is an index-map plus adjacency vectors: node names
/// intern to [`NodeId`]s, per-node successor/predecessor lists are `Vec`s
/// kept sorted by neighbor *name*, and edge attributes live in a hash map
/// keyed by the canonical endpoint-id pair. Node lookup is O(1), edge
/// probes are O(log degree), and every public iterator walks the sorted
/// view, so iteration order is identical to the historical string-keyed
/// (`BTreeMap`) representation — byte for byte.
///
/// ```
/// use netgraph::Graph;
/// let mut g = Graph::directed();
/// g.add_edge("10.0.1.1", "10.0.2.1", Default::default());
/// assert_eq!(g.number_of_nodes(), 2);
/// assert!(g.has_edge("10.0.1.1", "10.0.2.1"));
/// assert!(!g.has_edge("10.0.2.1", "10.0.1.1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    directed: bool,
    graph_attrs: AttrMap,
    /// Node-name interner; `NodeId` indexes every per-node vector below.
    interner: Interner,
    /// Attributes per interned id; `None` marks an id whose node was
    /// removed (or never added — interning alone does not create a node).
    nodes: Vec<Option<AttrMap>>,
    /// Outgoing adjacency (all adjacency for undirected graphs), sorted by
    /// neighbor name.
    succ: Vec<Vec<NodeId>>,
    /// Incoming adjacency; mirrors `succ` for undirected graphs.
    pred: Vec<Vec<NodeId>>,
    /// Edge attributes keyed by the canonical endpoint-id pair.
    edge_attrs: HashMap<(u32, u32), AttrMap>,
    /// Number of present nodes (ids with `Some` attributes).
    node_count: usize,
    /// Lazily rebuilt list of present ids sorted by name — the sorted view
    /// behind every public iteration order. Invalidated whenever the node
    /// set changes.
    sorted: OnceLock<Vec<NodeId>>,
}

impl Graph {
    /// Creates an empty directed graph.
    pub fn directed() -> Self {
        Graph {
            directed: true,
            ..Default::default()
        }
    }

    /// Creates an empty undirected graph.
    pub fn undirected() -> Self {
        Graph {
            directed: false,
            ..Default::default()
        }
    }

    /// Whether edges are directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    // ------------------------------------------------------------ id plumbing

    /// The interned id of a *present* node, if any.
    #[inline]
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        let id = self.interner.get(name)?;
        self.nodes[id.index()].as_ref().map(|_| id)
    }

    /// The name behind a [`NodeId`].
    #[inline]
    pub fn node_name(&self, id: NodeId) -> &str {
        self.interner.resolve(id)
    }

    /// The name behind a [`NodeId`] as an owned string that shares the
    /// graph's allocation: a refcount bump, not a copy.
    #[inline]
    pub fn node_name_shared(&self, id: NodeId) -> Arc<str> {
        self.interner.shared(id)
    }

    #[inline]
    fn require_id(&self, name: &str) -> Result<NodeId> {
        self.node_id(name)
            .ok_or_else(|| GraphError::NodeNotFound(name.to_string()))
    }

    /// Interns a name and makes sure the per-id rows exist; does **not**
    /// mark the node present.
    fn intern_id(&mut self, name: &str) -> NodeId {
        let id = self.intern_name(name);
        while self.nodes.len() < self.interner.len() {
            self.nodes.push(None);
            self.succ.push(Vec::new());
            self.pred.push(Vec::new());
        }
        id
    }

    fn intern_name(&mut self, name: &str) -> NodeId {
        self.interner.intern(name)
    }

    #[inline]
    fn name_of(&self, id: NodeId) -> &str {
        self.interner.resolve(id)
    }

    /// Canonical key under which an edge's attributes are stored: the exact
    /// pair for directed graphs, the name-ordered pair for undirected ones.
    #[inline]
    fn edge_key(&self, u: NodeId, v: NodeId) -> (u32, u32) {
        if self.directed || self.name_of(u) <= self.name_of(v) {
            (u.0, v.0)
        } else {
            (v.0, u.0)
        }
    }

    /// Position of `target` in `list` (which is sorted by name), if present.
    #[inline]
    fn adj_search(&self, list: &[NodeId], target: NodeId) -> std::result::Result<usize, usize> {
        let target_name = self.name_of(target);
        list.binary_search_by(|&probe| self.name_of(probe).cmp(target_name))
    }

    /// The sorted view: present node ids ordered by name.
    fn sorted_ids(&self) -> &[NodeId] {
        self.sorted.get_or_init(|| {
            let mut ids: Vec<NodeId> = (0..self.nodes.len() as u32)
                .map(Symbol)
                .filter(|id| self.nodes[id.index()].is_some())
                .collect();
            ids.sort_unstable_by(|&a, &b| self.name_of(a).cmp(self.name_of(b)));
            ids
        })
    }

    /// Present node ids in name order (the sorted view behind
    /// [`Graph::node_ids`]).
    pub fn node_id_list(&self) -> &[NodeId] {
        self.sorted_ids()
    }

    /// Exclusive upper bound on [`NodeId`] indices ever issued by this graph
    /// (including removed nodes). Sized `Vec<bool>` visited sets — the
    /// allocation the id-level algorithm kernels use instead of name sets —
    /// index safely with any id below this bound.
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    fn invalidate_sorted(&mut self) {
        self.sorted.take();
    }

    // ---------------------------------------------------------------- nodes

    /// Adds a node with the given attributes. If the node already exists its
    /// attributes are merged (new keys overwrite existing ones), matching
    /// NetworkX `add_node` semantics.
    pub fn add_node(&mut self, id: &str, attrs: AttrMap) {
        let node = self.intern_id(id);
        let slot = &mut self.nodes[node.index()];
        match slot {
            Some(existing) => existing.extend(attrs),
            None => {
                *slot = Some(attrs);
                self.node_count += 1;
                self.invalidate_sorted();
            }
        }
    }

    /// Removes a node and all incident edges. Errors if the node is absent.
    pub fn remove_node(&mut self, id: &str) -> Result<()> {
        let node = self.require_id(id)?;
        let out: Vec<NodeId> = self.succ[node.index()].clone();
        for v in out {
            self.remove_edge_ids(node, v).ok();
        }
        let inc: Vec<NodeId> = self.pred[node.index()].clone();
        for u in inc {
            self.remove_edge_ids(u, node).ok();
        }
        self.nodes[node.index()] = None;
        self.succ[node.index()].clear();
        self.pred[node.index()].clear();
        self.node_count -= 1;
        self.invalidate_sorted();
        Ok(())
    }

    /// True if the node exists.
    #[inline]
    pub fn has_node(&self, id: &str) -> bool {
        self.node_id(id).is_some()
    }

    /// Number of nodes.
    pub fn number_of_nodes(&self) -> usize {
        self.node_count
    }

    /// Iterator over node ids in sorted order.
    pub fn node_ids(&self) -> impl Iterator<Item = &str> {
        self.sorted_ids().iter().map(|&id| self.name_of(id))
    }

    /// Iterator over `(id, attrs)` pairs in sorted order.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, &AttrMap)> {
        self.sorted_ids().iter().map(|&id| {
            (
                self.name_of(id),
                self.nodes[id.index()].as_ref().expect("sorted ids present"),
            )
        })
    }

    /// Immutable access to a node's attributes.
    pub fn node_attrs(&self, id: &str) -> Result<&AttrMap> {
        let node = self.require_id(id)?;
        Ok(self.nodes[node.index()].as_ref().expect("present"))
    }

    /// A node's attributes by interned id; `None` for removed ids.
    #[inline]
    pub fn node_attrs_by_id(&self, id: NodeId) -> Option<&AttrMap> {
        self.nodes.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to a node's attributes.
    pub fn node_attrs_mut(&mut self, id: &str) -> Result<&mut AttrMap> {
        let node = self.require_id(id)?;
        Ok(self.nodes[node.index()].as_mut().expect("present"))
    }

    /// Sets a single attribute on a node.
    pub fn set_node_attr(
        &mut self,
        id: &str,
        key: &str,
        value: impl Into<AttrValue>,
    ) -> Result<()> {
        self.node_attrs_mut(id)?.set(key, value);
        Ok(())
    }

    /// Reads a single attribute from a node, erroring if either the node or
    /// the attribute is missing (the latter is the "imaginary graph
    /// attribute" failure mode from the paper's Table 5).
    pub fn get_node_attr(&self, id: &str, key: &str) -> Result<&AttrValue> {
        self.node_attrs(id)?
            .get(key)
            .ok_or_else(|| GraphError::AttrNotFound {
                kind: "node",
                entity: id.to_string(),
                attr: key.to_string(),
            })
    }

    /// Reads a node attribute, returning `None` when absent rather than an
    /// error (NetworkX `.get()` style access).
    pub fn get_node_attr_opt(&self, id: &str, key: &str) -> Option<&AttrValue> {
        self.node_id(id)
            .and_then(|node| self.nodes[node.index()].as_ref())
            .and_then(|a| a.get(key))
    }

    // ---------------------------------------------------------------- edges

    /// Adds an edge, creating missing endpoints, and merges attributes into
    /// any existing edge (NetworkX `add_edge` semantics).
    pub fn add_edge(&mut self, u: &str, v: &str, attrs: AttrMap) {
        if !self.has_node(u) {
            self.add_node(u, AttrMap::new());
        }
        if !self.has_node(v) {
            self.add_node(v, AttrMap::new());
        }
        let (un, vn) = (
            self.node_id(u).expect("endpoint exists"),
            self.node_id(v).expect("endpoint exists"),
        );
        self.adj_insert_succ(un, vn);
        self.adj_insert_pred(vn, un);
        if !self.directed {
            self.adj_insert_succ(vn, un);
            self.adj_insert_pred(un, vn);
        }
        let key = self.edge_key(un, vn);
        self.edge_attrs.entry(key).or_default().extend(attrs);
    }

    fn adj_insert_succ(&mut self, from: NodeId, to: NodeId) {
        let found = self.adj_search(&self.succ[from.index()], to);
        if let Err(pos) = found {
            self.succ[from.index()].insert(pos, to);
        }
    }

    fn adj_insert_pred(&mut self, from: NodeId, to: NodeId) {
        let found = self.adj_search(&self.pred[from.index()], to);
        if let Err(pos) = found {
            self.pred[from.index()].insert(pos, to);
        }
    }

    fn adj_remove_succ(&mut self, from: NodeId, to: NodeId) {
        let found = self.adj_search(&self.succ[from.index()], to);
        if let Ok(pos) = found {
            self.succ[from.index()].remove(pos);
        }
    }

    fn adj_remove_pred(&mut self, from: NodeId, to: NodeId) {
        let found = self.adj_search(&self.pred[from.index()], to);
        if let Ok(pos) = found {
            self.pred[from.index()].remove(pos);
        }
    }

    fn remove_edge_ids(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        let key = self.edge_key(u, v);
        if self.edge_attrs.remove(&key).is_none() {
            return Err(GraphError::EdgeNotFound(
                self.name_of(u).to_string(),
                self.name_of(v).to_string(),
            ));
        }
        self.adj_remove_succ(u, v);
        self.adj_remove_pred(v, u);
        if !self.directed {
            self.adj_remove_succ(v, u);
            self.adj_remove_pred(u, v);
        }
        Ok(())
    }

    /// Removes an edge. Errors if it does not exist.
    pub fn remove_edge(&mut self, u: &str, v: &str) -> Result<()> {
        let not_found = || GraphError::EdgeNotFound(u.to_string(), v.to_string());
        let un = self.node_id(u).ok_or_else(not_found)?;
        let vn = self.node_id(v).ok_or_else(not_found)?;
        self.remove_edge_ids(un, vn)
    }

    /// True if the edge exists (respecting directionality).
    #[inline]
    pub fn has_edge(&self, u: &str, v: &str) -> bool {
        match (self.node_id(u), self.node_id(v)) {
            (Some(un), Some(vn)) => self.has_edge_by_id(un, vn),
            _ => false,
        }
    }

    /// True if the edge exists, by interned endpoint ids.
    #[inline]
    pub fn has_edge_by_id(&self, u: NodeId, v: NodeId) -> bool {
        self.adj_search(&self.succ[u.index()], v).is_ok()
    }

    /// Number of edges.
    pub fn number_of_edges(&self) -> usize {
        self.edge_attrs.len()
    }

    /// Iterator over `(u, v, attrs)` triples in canonical order.
    pub fn edges(&self) -> impl Iterator<Item = (&str, &str, &AttrMap)> {
        self.edge_id_iter().map(|(u, v)| {
            let attrs = self
                .edge_attrs
                .get(&self.edge_key(u, v))
                .expect("edge listed in adjacency");
            (self.name_of(u), self.name_of(v), attrs)
        })
    }

    /// Iterator over canonical edge id pairs in the same order as
    /// [`Graph::edges`]: ascending by source name, then target name.
    pub fn edge_id_iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.sorted_ids().iter().flat_map(move |&u| {
            let list = &self.succ[u.index()];
            // For undirected graphs each edge is listed from both endpoints;
            // emit it only from the name-smaller one (self-loops once).
            let start = if self.directed {
                0
            } else {
                match self.adj_search(list, u) {
                    Ok(pos) | Err(pos) => pos,
                }
            };
            list[start..].iter().map(move |&v| (u, v))
        })
    }

    /// Immutable access to an edge's attributes.
    pub fn edge_attrs(&self, u: &str, v: &str) -> Result<&AttrMap> {
        self.edge_attrs_lookup(u, v)
            .ok_or_else(|| GraphError::EdgeNotFound(u.to_string(), v.to_string()))
    }

    #[inline]
    fn edge_attrs_lookup(&self, u: &str, v: &str) -> Option<&AttrMap> {
        let un = self.node_id(u)?;
        let vn = self.node_id(v)?;
        if !self.has_edge_by_id(un, vn) {
            return None;
        }
        self.edge_attrs.get(&self.edge_key(un, vn))
    }

    /// An edge's attributes by interned endpoint ids.
    pub fn edge_attrs_by_id(&self, u: NodeId, v: NodeId) -> Option<&AttrMap> {
        // Every edge, and nothing else, has an entry under its canonical
        // key, so the map answers presence without an adjacency search.
        self.edge_attrs.get(&self.edge_key(u, v))
    }

    /// Mutable access to an edge's attributes.
    pub fn edge_attrs_mut(&mut self, u: &str, v: &str) -> Result<&mut AttrMap> {
        let not_found = || GraphError::EdgeNotFound(u.to_string(), v.to_string());
        let un = self.node_id(u).ok_or_else(not_found)?;
        let vn = self.node_id(v).ok_or_else(not_found)?;
        if !self.has_edge_by_id(un, vn) {
            return Err(not_found());
        }
        let key = self.edge_key(un, vn);
        Ok(self.edge_attrs.get_mut(&key).expect("checked above"))
    }

    /// Sets a single attribute on an edge.
    pub fn set_edge_attr(
        &mut self,
        u: &str,
        v: &str,
        key: &str,
        value: impl Into<AttrValue>,
    ) -> Result<()> {
        self.edge_attrs_mut(u, v)?.set(key, value);
        Ok(())
    }

    /// Reads a single attribute from an edge, erroring if missing.
    pub fn get_edge_attr(&self, u: &str, v: &str, key: &str) -> Result<&AttrValue> {
        self.edge_attrs(u, v)?
            .get(key)
            .ok_or_else(|| GraphError::AttrNotFound {
                kind: "edge",
                entity: format!("{u}->{v}"),
                attr: key.to_string(),
            })
    }

    /// Reads an edge attribute, returning `None` when absent.
    pub fn get_edge_attr_opt(&self, u: &str, v: &str, key: &str) -> Option<&AttrValue> {
        self.edge_attrs_lookup(u, v).and_then(|a| a.get(key))
    }

    // ------------------------------------------------------------ adjacency

    /// Out-neighbors for directed graphs, all neighbors for undirected.
    pub fn successors(&self, id: &str) -> Result<Vec<String>> {
        Ok(self.successors_iter(id)?.map(str::to_string).collect())
    }

    /// In-neighbors for directed graphs, all neighbors for undirected.
    pub fn predecessors(&self, id: &str) -> Result<Vec<String>> {
        Ok(self.predecessors_iter(id)?.map(str::to_string).collect())
    }

    /// All neighbors regardless of edge direction (union of successors and
    /// predecessors).
    pub fn neighbors(&self, id: &str) -> Result<Vec<String>> {
        Ok(self.neighbors_iter(id)?.map(str::to_string).collect())
    }

    /// Allocation-free variant of [`Graph::successors`]: neighbor names in
    /// sorted order, borrowed from the graph.
    pub fn successors_iter(&self, id: &str) -> Result<impl Iterator<Item = &str>> {
        let node = self.require_id(id)?;
        Ok(self.successor_ids(node).iter().map(|&v| self.name_of(v)))
    }

    /// Allocation-free variant of [`Graph::predecessors`].
    pub fn predecessors_iter(&self, id: &str) -> Result<impl Iterator<Item = &str>> {
        let node = self.require_id(id)?;
        Ok(self.predecessor_ids(node).iter().map(|&v| self.name_of(v)))
    }

    /// Allocation-free variant of [`Graph::neighbors`]: the sorted union of
    /// successor and predecessor names, without materializing a set.
    pub fn neighbors_iter(&self, id: &str) -> Result<impl Iterator<Item = &str>> {
        let node = self.require_id(id)?;
        Ok(self.neighbor_ids(node).map(|v| self.name_of(v)))
    }

    /// Successor ids in neighbor-name order (a borrowed slice; O(1)).
    #[inline]
    pub fn successor_ids(&self, id: NodeId) -> &[NodeId] {
        &self.succ[id.index()]
    }

    /// Predecessor ids in neighbor-name order (a borrowed slice; O(1)).
    #[inline]
    pub fn predecessor_ids(&self, id: NodeId) -> &[NodeId] {
        &self.pred[id.index()]
    }

    /// Sorted, deduplicated union of successor and predecessor ids — the
    /// id-level equivalent of [`Graph::neighbors`], allocation-free.
    pub fn neighbor_ids(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        MergeNeighbors {
            graph: self,
            left: &self.succ[id.index()],
            right: &self.pred[id.index()],
            li: 0,
            ri: 0,
        }
    }

    /// Out-degree (degree for undirected graphs).
    pub fn out_degree(&self, id: &str) -> Result<usize> {
        let node = self.require_id(id)?;
        Ok(self.succ[node.index()].len())
    }

    /// In-degree (degree for undirected graphs).
    pub fn in_degree(&self, id: &str) -> Result<usize> {
        let node = self.require_id(id)?;
        Ok(self.pred[node.index()].len())
    }

    /// Total degree: in + out for directed graphs, neighbor count for
    /// undirected graphs.
    pub fn degree(&self, id: &str) -> Result<usize> {
        let node = self.require_id(id)?;
        Ok(self.degree_by_id(node))
    }

    /// Total degree by interned id (O(1)).
    #[inline]
    pub fn degree_by_id(&self, id: NodeId) -> usize {
        if self.directed {
            self.succ[id.index()].len() + self.pred[id.index()].len()
        } else {
            self.succ[id.index()].len()
        }
    }

    // -------------------------------------------------------------- derived

    /// Graph-level attributes (mutable).
    pub fn graph_attrs_mut(&mut self) -> &mut AttrMap {
        &mut self.graph_attrs
    }

    /// Graph-level attributes.
    pub fn graph_attrs(&self) -> &AttrMap {
        &self.graph_attrs
    }

    /// Returns the induced subgraph on `keep`, preserving node, edge and
    /// graph attributes. Unknown ids in `keep` are ignored (NetworkX
    /// `subgraph` semantics).
    pub fn subgraph<'a, I: IntoIterator<Item = &'a str>>(&self, keep: I) -> Graph {
        let keep: BTreeSet<&str> = keep.into_iter().filter(|n| self.has_node(n)).collect();
        let mut g = if self.directed {
            Graph::directed()
        } else {
            Graph::undirected()
        };
        g.graph_attrs = self.graph_attrs.clone();
        for &n in &keep {
            g.add_node(n, self.node_attrs(n).expect("kept node exists").clone());
        }
        for (u, v, attrs) in self.edges() {
            if keep.contains(u) && keep.contains(v) {
                g.add_edge(u, v, attrs.clone());
            }
        }
        g
    }

    /// Returns a directed copy with every edge reversed. For undirected
    /// graphs this is a plain copy.
    pub fn reverse(&self) -> Graph {
        if !self.directed {
            return self.clone();
        }
        let mut g = Graph::directed();
        g.graph_attrs = self.graph_attrs.clone();
        for (id, attrs) in self.nodes() {
            g.add_node(id, attrs.clone());
        }
        for (u, v, attrs) in self.edges() {
            g.add_edge(v, u, attrs.clone());
        }
        g
    }

    /// Returns an undirected view of the graph; parallel directed edges are
    /// merged and their attributes combined (later edges overwrite).
    pub fn to_undirected(&self) -> Graph {
        let mut g = Graph::undirected();
        g.graph_attrs = self.graph_attrs.clone();
        for (id, attrs) in self.nodes() {
            g.add_node(id, attrs.clone());
        }
        for (u, v, attrs) in self.edges() {
            g.add_edge(u, v, attrs.clone());
        }
        g
    }

    /// Sum of a numeric edge attribute over all edges. Missing or
    /// non-numeric values count as zero.
    pub fn total_edge_attr(&self, key: &str) -> f64 {
        // Summed in canonical edge order so the floating-point result is
        // reproducible; `+ 0.0` normalizes the empty sum (`Sum for f64`
        // uses -0.0 as its identity, which would otherwise leak into
        // rendered answers).
        self.edges()
            .filter_map(|(_, _, a)| a.get_f64(key))
            .sum::<f64>()
            + 0.0
    }

    /// Nodes whose attribute `key` satisfies `pred`.
    pub fn nodes_where<F: Fn(&AttrMap) -> bool>(&self, pred: F) -> Vec<String> {
        self.nodes()
            .filter(|(_, a)| pred(a))
            .map(|(id, _)| id.to_string())
            .collect()
    }

    /// Edges whose attributes satisfy `pred`, returned as `(u, v)` pairs.
    pub fn edges_where<F: Fn(&AttrMap) -> bool>(&self, pred: F) -> Vec<(String, String)> {
        self.edges()
            .filter(|(_, _, a)| pred(a))
            .map(|(u, v, _)| (u.to_string(), v.to_string()))
            .collect()
    }
}

/// Sorted-merge iterator over the successor and predecessor id lists of one
/// node; yields each neighbor once, in name order.
struct MergeNeighbors<'g> {
    graph: &'g Graph,
    left: &'g [NodeId],
    right: &'g [NodeId],
    li: usize,
    ri: usize,
}

impl Iterator for MergeNeighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match (self.left.get(self.li), self.right.get(self.ri)) {
            (None, None) => None,
            (Some(&l), None) => {
                self.li += 1;
                Some(l)
            }
            (None, Some(&r)) => {
                self.ri += 1;
                Some(r)
            }
            (Some(&l), Some(&r)) => {
                if l == r {
                    self.li += 1;
                    self.ri += 1;
                    return Some(l);
                }
                match self.graph.name_of(l).cmp(self.graph.name_of(r)) {
                    Ordering::Less => {
                        self.li += 1;
                        Some(l)
                    }
                    _ => {
                        self.ri += 1;
                        Some(r)
                    }
                }
            }
        }
    }
}

/// Structural equality: same directedness, graph attributes, node set with
/// equal attributes, and edge set with equal attributes. Interned ids are
/// an internal detail, so two graphs built in different insertion orders
/// still compare equal — exactly as the historical `BTreeMap` derive did.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        if self.directed != other.directed
            || self.graph_attrs != other.graph_attrs
            || self.number_of_nodes() != other.number_of_nodes()
            || self.number_of_edges() != other.number_of_edges()
        {
            return false;
        }
        self.nodes().all(|(id, attrs)| {
            other
                .node_id(id)
                .and_then(|n| other.node_attrs_by_id(n))
                .map(|o| o == attrs)
                .unwrap_or(false)
        }) && self.edges().all(|(u, v, attrs)| {
            other
                .edge_attrs_lookup(u, v)
                .map(|o| o == attrs)
                .unwrap_or(false)
        })
    }
}

/// Structural and attribute equality between two graphs with numeric
/// tolerance. This is the comparison the results evaluator uses for
/// graph-manipulation queries ("Graphs are not identical" in Table 5).
pub fn graphs_approx_eq(a: &Graph, b: &Graph) -> bool {
    if a.is_directed() != b.is_directed()
        || a.number_of_nodes() != b.number_of_nodes()
        || a.number_of_edges() != b.number_of_edges()
    {
        return false;
    }
    for (id, attrs) in a.nodes() {
        match b.node_id(id).and_then(|n| b.node_attrs_by_id(n)) {
            Some(other) => {
                if !attrs.approx_eq(other) {
                    return false;
                }
            }
            None => return false,
        }
    }
    for (u, v, attrs) in a.edges() {
        match b.edge_attrs_lookup(u, v) {
            Some(other) => {
                if !attrs.approx_eq(other) {
                    return false;
                }
            }
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attrs;

    fn sample_directed() -> Graph {
        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("w", 1i64)]));
        g.add_edge("b", "c", attrs([("w", 2i64)]));
        g.add_edge("a", "c", attrs([("w", 3i64)]));
        g
    }

    #[test]
    fn add_edge_creates_endpoints() {
        let g = sample_directed();
        assert_eq!(g.number_of_nodes(), 3);
        assert_eq!(g.number_of_edges(), 3);
        assert!(g.has_node("a") && g.has_node("c"));
    }

    #[test]
    fn directed_edges_are_one_way() {
        let g = sample_directed();
        assert!(g.has_edge("a", "b"));
        assert!(!g.has_edge("b", "a"));
    }

    #[test]
    fn undirected_edges_are_symmetric() {
        let mut g = Graph::undirected();
        g.add_edge("x", "y", attrs([("w", 5i64)]));
        assert!(g.has_edge("x", "y"));
        assert!(g.has_edge("y", "x"));
        assert_eq!(g.number_of_edges(), 1);
        assert_eq!(g.get_edge_attr("y", "x", "w").unwrap(), &AttrValue::Int(5));
    }

    #[test]
    fn add_node_merges_attributes() {
        let mut g = Graph::directed();
        g.add_node("a", attrs([("x", 1i64)]));
        g.add_node("a", attrs([("y", 2i64)]));
        let a = g.node_attrs("a").unwrap();
        assert_eq!(a.get_i64("x"), Some(1));
        assert_eq!(a.get_i64("y"), Some(2));
    }

    #[test]
    fn remove_node_drops_incident_edges() {
        let mut g = sample_directed();
        g.remove_node("b").unwrap();
        assert_eq!(g.number_of_nodes(), 2);
        assert_eq!(g.number_of_edges(), 1);
        assert!(g.has_edge("a", "c"));
        assert!(g.remove_node("zzz").is_err());
    }

    #[test]
    fn remove_edge_errors_when_absent() {
        let mut g = sample_directed();
        g.remove_edge("a", "b").unwrap();
        assert!(!g.has_edge("a", "b"));
        assert!(matches!(
            g.remove_edge("a", "b"),
            Err(GraphError::EdgeNotFound(_, _))
        ));
    }

    #[test]
    fn degrees_directed() {
        let g = sample_directed();
        assert_eq!(g.out_degree("a").unwrap(), 2);
        assert_eq!(g.in_degree("a").unwrap(), 0);
        assert_eq!(g.degree("c").unwrap(), 2);
        assert!(g.degree("nope").is_err());
    }

    #[test]
    fn neighbors_union_of_both_directions() {
        let g = sample_directed();
        assert_eq!(
            g.neighbors("b").unwrap(),
            vec!["a".to_string(), "c".to_string()]
        );
        assert_eq!(g.successors("b").unwrap(), vec!["c".to_string()]);
        assert_eq!(g.predecessors("b").unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn attr_accessors_and_imaginary_attribute_error() {
        let mut g = sample_directed();
        g.set_node_attr("a", "color", "red").unwrap();
        assert_eq!(g.get_node_attr("a", "color").unwrap().as_str(), Some("red"));
        let err = g.get_node_attr("a", "capacity").unwrap_err();
        assert!(matches!(err, GraphError::AttrNotFound { .. }));
        let err = g.get_edge_attr("a", "b", "latency").unwrap_err();
        assert!(matches!(err, GraphError::AttrNotFound { .. }));
    }

    #[test]
    fn subgraph_keeps_attrs_and_internal_edges() {
        let g = sample_directed();
        let s = g.subgraph(["a", "b", "ghost"]);
        assert_eq!(s.number_of_nodes(), 2);
        assert_eq!(s.number_of_edges(), 1);
        assert_eq!(s.get_edge_attr("a", "b", "w").unwrap(), &AttrValue::Int(1));
    }

    #[test]
    fn reverse_flips_directed_edges() {
        let g = sample_directed();
        let r = g.reverse();
        assert!(r.has_edge("b", "a"));
        assert!(!r.has_edge("a", "b"));
        assert_eq!(r.number_of_edges(), 3);
    }

    #[test]
    fn to_undirected_merges_directions() {
        let mut g = Graph::directed();
        g.add_edge("a", "b", attrs([("w", 1i64)]));
        g.add_edge("b", "a", attrs([("w", 2i64)]));
        assert_eq!(g.number_of_edges(), 2);
        let u = g.to_undirected();
        assert_eq!(u.number_of_edges(), 1);
    }

    #[test]
    fn total_edge_attr_sums_numeric_values() {
        let g = sample_directed();
        assert_eq!(g.total_edge_attr("w"), 6.0);
        assert_eq!(g.total_edge_attr("missing"), 0.0);
    }

    #[test]
    fn nodes_where_and_edges_where_filter() {
        let mut g = sample_directed();
        g.set_node_attr("a", "role", "core").unwrap();
        g.set_node_attr("b", "role", "edge").unwrap();
        let core = g.nodes_where(|a| a.get_str("role") == Some("core"));
        assert_eq!(core, vec!["a".to_string()]);
        let heavy = g.edges_where(|a| a.get_i64("w").unwrap_or(0) >= 2);
        assert_eq!(heavy.len(), 2);
    }

    #[test]
    fn graphs_approx_eq_detects_differences() {
        let g = sample_directed();
        let mut h = g.clone();
        assert!(graphs_approx_eq(&g, &h));
        h.set_edge_attr("a", "b", "w", 99i64).unwrap();
        assert!(!graphs_approx_eq(&g, &h));
        let mut k = g.clone();
        k.add_node("extra", AttrMap::new());
        assert!(!graphs_approx_eq(&g, &k));
    }

    #[test]
    fn graphs_approx_eq_tolerates_int_float() {
        let mut a = Graph::undirected();
        a.add_edge("x", "y", attrs([("bytes", AttrValue::Int(10))]));
        let mut b = Graph::undirected();
        b.add_edge("x", "y", attrs([("bytes", AttrValue::Float(10.0))]));
        assert!(graphs_approx_eq(&a, &b));
    }

    #[test]
    fn graph_attrs_round_trip() {
        let mut g = Graph::directed();
        g.graph_attrs_mut().set("name", "test");
        assert_eq!(g.graph_attrs().get_str("name"), Some("test"));
    }

    // ------------------------------------------------- interned-core tests

    #[test]
    fn equality_is_insertion_order_independent() {
        let mut a = Graph::directed();
        a.add_edge("x", "y", attrs([("w", 1i64)]));
        a.add_edge("p", "q", attrs([("w", 2i64)]));
        let mut b = Graph::directed();
        b.add_edge("p", "q", attrs([("w", 2i64)]));
        b.add_edge("x", "y", attrs([("w", 1i64)]));
        assert_eq!(a, b);
        b.set_edge_attr("p", "q", "w", 3i64).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn node_ids_are_stable_across_removal() {
        let mut g = Graph::directed();
        g.add_node("a", AttrMap::new());
        let id = g.node_id("a").unwrap();
        g.remove_node("a").unwrap();
        assert_eq!(g.node_id("a"), None);
        assert!(!g.has_node("a"));
        g.add_node("a", attrs([("back", true)]));
        assert_eq!(g.node_id("a"), Some(id));
        assert_eq!(g.node_name(id), "a");
    }

    #[test]
    fn iteration_orders_are_name_sorted_regardless_of_insertion() {
        let mut g = Graph::directed();
        for name in ["zeta", "alpha", "mike", "beta"] {
            g.add_node(name, AttrMap::new());
        }
        let ids: Vec<&str> = g.node_ids().collect();
        assert_eq!(ids, vec!["alpha", "beta", "mike", "zeta"]);
        g.add_edge("zeta", "alpha", AttrMap::new());
        g.add_edge("beta", "mike", AttrMap::new());
        g.add_edge("beta", "alpha", AttrMap::new());
        let edges: Vec<(&str, &str)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(
            edges,
            vec![("beta", "alpha"), ("beta", "mike"), ("zeta", "alpha")]
        );
    }

    #[test]
    fn iterator_variants_match_vec_apis() {
        let g = sample_directed();
        let from_iter: Vec<&str> = g.neighbors_iter("b").unwrap().collect();
        assert_eq!(from_iter, vec!["a", "c"]);
        let succ: Vec<&str> = g.successors_iter("a").unwrap().collect();
        assert_eq!(succ, vec!["b", "c"]);
        let pred: Vec<&str> = g.predecessors_iter("c").unwrap().collect();
        assert_eq!(pred, vec!["a", "b"]);
        assert!(g.successors_iter("missing").is_err());
    }

    #[test]
    fn id_level_adjacency() {
        let g = sample_directed();
        let a = g.node_id("a").unwrap();
        let b = g.node_id("b").unwrap();
        assert!(g.has_edge_by_id(a, b));
        assert!(!g.has_edge_by_id(b, a));
        assert_eq!(g.degree_by_id(a), 2);
        assert_eq!(g.successor_ids(a).len(), 2);
        assert_eq!(g.predecessor_ids(a).len(), 0);
        let neighbor_names: Vec<&str> = g.neighbor_ids(b).map(|id| g.node_name(id)).collect();
        assert_eq!(neighbor_names, vec!["a", "c"]);
        assert_eq!(g.node_id_list().len(), 3);
    }

    #[test]
    fn undirected_self_loop_listed_once() {
        let mut g = Graph::undirected();
        g.add_edge("x", "x", attrs([("w", 1i64)]));
        g.add_edge("x", "a", attrs([("w", 2i64)]));
        let edges: Vec<(&str, &str)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(edges, vec![("a", "x"), ("x", "x")]);
        assert_eq!(g.number_of_edges(), 2);
    }
}
