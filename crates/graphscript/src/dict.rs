//! Dictionary contents: an owned map, or a row that reads through to a
//! frame or graph snapshot until it is first written.

use crate::value::Value;
use dataframe::DataFrame;
use netgraph::{AttrMap, Graph, NodeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The contents of a dict value.
///
/// Most dicts own a hash map from shared-string keys to values: a lookup
/// hashes the key once instead of comparing it with a chain of stored
/// keys, each behind its own pointer. Nothing hands the map's own order to
/// a program: every listing goes through [`Dict::entries`], which sorts by
/// key.
///
/// The rows that `df.to_rows()`, `G.edges_data()` and `G.nodes_data()`
/// return start out instead as a read-through view: the
/// `Arc` of the frame or graph taken when the method was called, plus a row
/// index or node and edge ids. Making one copies no data, and a read
/// converts only the value it reads. The first write turns the row into an
/// owned map of its values, in place, so every alias of the dict sees the
/// write. A list is a container the program may write to, so a row also
/// becomes owned when a list is read out of it: every later read of that
/// key returns the same list. Keys iterate in sorted order either way, and
/// every read returns the value an owned copy of the row would hold, so a
/// program cannot tell the two apart.
///
/// The cost a program can see is in the frame or graph it listed: while a
/// read-through row is alive it shares that snapshot, so the next write to
/// `df` or `G` copies it whole (`frame_mut`/`graph_mut` are
/// `Arc::make_mut`). A listing taken and then written after pays one such
/// copy, and none when the snapshot was shared with the caller anyway (the
/// first write of a sandbox run copies it regardless). `df.row(i)` hands
/// out an owned dict for that reason: a loop that takes one row and writes
/// the frame on every iteration would otherwise copy the frame each time.
#[derive(Debug, Clone)]
pub struct Dict(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Map(HashMap<Arc<str>, Value>),
    /// Row `.1` of the frame.
    Frame(Arc<DataFrame>, usize),
    /// The attributes of node `.1` (`.2` is `None`) or of edge `.1 -> .2`.
    Graph(Arc<Graph>, NodeId, Option<NodeId>),
}

impl Dict {
    /// Row `row` of `df`, read through.
    pub(crate) fn frame_row(df: &Arc<DataFrame>, row: usize) -> Self {
        Dict(Repr::Frame(Arc::clone(df), row))
    }

    /// The attributes of node `node` (`target` is `None`) or edge
    /// `node -> target` in `g`, read through.
    pub(crate) fn graph_row(g: &Arc<Graph>, node: NodeId, target: Option<NodeId>) -> Self {
        Dict(Repr::Graph(Arc::clone(g), node, target))
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<Value> {
        match &self.0 {
            Repr::Map(map) => map.get(key).cloned(),
            Repr::Frame(df, row) => df.value(*row, key).ok().map(Value::from_attr),
            Repr::Graph(g, node, target) => graph_attrs(g, *node, *target)
                .get(key)
                .map(Value::from_attr),
        }
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        match &self.0 {
            Repr::Map(map) => map.contains_key(key),
            Repr::Frame(df, _) => df.has_column(key),
            Repr::Graph(g, node, target) => graph_attrs(g, *node, *target).contains_key(key),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Map(map) => map.len(),
            Repr::Frame(df, _) => df.n_cols(),
            Repr::Graph(g, node, target) => graph_attrs(g, *node, *target).len(),
        }
    }

    /// True when the dict has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every `(key, value)` pair, in ascending key order.
    pub fn entries(&self) -> Vec<(Arc<str>, Value)> {
        match &self.0 {
            Repr::Map(map) => {
                let mut entries: Vec<(Arc<str>, Value)> = map
                    .iter()
                    .map(|(k, v)| (Arc::clone(k), v.clone()))
                    .collect();
                entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                entries
            }
            Repr::Frame(df, row) => {
                let mut entries: Vec<(Arc<str>, Value)> = df
                    .column_names()
                    .into_iter()
                    .zip(df.columns())
                    .map(|(name, column)| {
                        let cell = column.get(*row).expect("a row of its own snapshot");
                        (name.into(), Value::from_attr(cell))
                    })
                    .collect();
                entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                entries
            }
            Repr::Graph(g, node, target) => graph_attrs(g, *node, *target)
                .iter()
                .map(|(k, v)| (k.as_str().into(), Value::from_attr(v)))
                .collect(),
        }
    }

    /// Write access to the entries, copying a read-through row into an
    /// owned map first.
    pub(crate) fn map_mut(&mut self) -> &mut HashMap<Arc<str>, Value> {
        if !matches!(self.0, Repr::Map(_)) {
            self.0 = Repr::Map(self.entries().into_iter().collect());
        }
        match &mut self.0 {
            Repr::Map(map) => map,
            _ => unreachable!("converted above"),
        }
    }
}

impl FromIterator<(Arc<str>, Value)> for Dict {
    fn from_iter<I: IntoIterator<Item = (Arc<str>, Value)>>(entries: I) -> Self {
        Dict(Repr::Map(entries.into_iter().collect()))
    }
}

/// Reads `key` through a dict value's shared cell. Reading a list out of
/// a row makes the row owned first, so that the list a program appends to
/// is the one every later read returns.
pub(crate) fn read(cell: &RefCell<Dict>, key: &str) -> Option<Value> {
    let value = cell.borrow().get(key)?;
    if !matches!(value, Value::List(_)) {
        return Some(value);
    }
    own(cell);
    cell.borrow().get(key)
}

/// Every entry, read through a dict value's shared cell like [`read`].
pub(crate) fn read_entries(cell: &RefCell<Dict>) -> Vec<(Arc<str>, Value)> {
    let entries = cell.borrow().entries();
    if !entries.iter().any(|(_, v)| matches!(v, Value::List(_))) {
        return entries;
    }
    own(cell);
    cell.borrow().entries()
}

/// Makes a row owned. A caller that holds a borrow of the cell cannot
/// write through it, so the row is left as it is then.
fn own(cell: &RefCell<Dict>) {
    if let Ok(mut dict) = cell.try_borrow_mut() {
        dict.map_mut();
    }
}

/// The attribute map behind a graph row.
fn graph_attrs(g: &Graph, node: NodeId, target: Option<NodeId>) -> &AttrMap {
    match target {
        None => g.node_attrs_by_id(node),
        Some(target) => g.edge_attrs_by_id(node, target),
    }
    .expect("a row's graph snapshot keeps its node or edge")
}
