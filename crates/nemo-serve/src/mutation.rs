//! Mutations: the events of the serving layer's write path.
//!
//! A [`Mutation`] is the normalized form of one network change, applied to
//! every backend representation in lockstep by
//! [`LiveNetwork::apply`](crate::LiveNetwork::apply); a persistent server
//! logs it to the shard's durable write-ahead log as a [`WalRecord`] before
//! applying it. The raw material usually
//! comes from [`trafficgen::stream`]'s timestamped event streams via
//! [`Mutation::from_event`].

use crate::error::ServeError;
use netgraph::{AttrValue, Graph};
use trafficgen::{Flow, NetEvent};

/// Monotonically increasing state version: epoch `N` is the state after the
/// first `N` WAL records. Epoch 0 is the freshly exported workload.
pub type Epoch = u64;

/// One normalized network change.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Add an endpoint node (with its precomputed prefix attributes).
    AddNode {
        /// Node id (dotted address).
        id: String,
        /// The /16 prefix attribute.
        prefix16: String,
        /// The /24 prefix attribute.
        prefix24: String,
    },
    /// Add a flow edge between two *existing* endpoints that are not
    /// already connected.
    AddEdge {
        /// Source endpoint id.
        source: String,
        /// Target endpoint id.
        target: String,
        /// Bytes transferred.
        bytes: i64,
        /// Connections observed.
        connections: i64,
        /// Packets transferred.
        packets: i64,
    },
    /// Overwrite the weights of an existing flow edge (re-measured volume).
    SetFlow {
        /// Source endpoint id.
        source: String,
        /// Target endpoint id.
        target: String,
        /// New byte count.
        bytes: i64,
        /// New connection count.
        connections: i64,
        /// New packet count.
        packets: i64,
    },
    /// Set one attribute on an existing node. The property graph always
    /// stores the attribute; the tabular backends mirror it only when a
    /// column of that name exists in the node schema (`label`, `color`).
    SetNodeAttr {
        /// Node id.
        id: String,
        /// Attribute name.
        key: String,
        /// New value.
        value: AttrValue,
    },
    /// Remove an existing flow edge.
    RemoveEdge {
        /// Source endpoint id.
        source: String,
        /// Target endpoint id.
        target: String,
    },
}

fn flow_edge(flow: &Flow) -> (String, String, i64, i64, i64) {
    (
        flow.source.to_string_dotted(),
        flow.target.to_string_dotted(),
        flow.bytes as i64,
        flow.connections as i64,
        flow.packets as i64,
    )
}

impl Mutation {
    /// Normalizes a [`trafficgen`] stream event into a mutation.
    pub fn from_event(event: &NetEvent) -> Mutation {
        match event {
            NetEvent::NewEndpoint { endpoint } => Mutation::AddNode {
                id: endpoint.to_string_dotted(),
                prefix16: endpoint.prefix(2),
                prefix24: endpoint.prefix(3),
            },
            NetEvent::NewFlow { flow } => {
                let (source, target, bytes, connections, packets) = flow_edge(flow);
                Mutation::AddEdge {
                    source,
                    target,
                    bytes,
                    connections,
                    packets,
                }
            }
            NetEvent::AdjustFlow { flow } => {
                let (source, target, bytes, connections, packets) = flow_edge(flow);
                Mutation::SetFlow {
                    source,
                    target,
                    bytes,
                    connections,
                    packets,
                }
            }
            NetEvent::DropFlow { source, target } => Mutation::RemoveEdge {
                source: source.to_string_dotted(),
                target: target.to_string_dotted(),
            },
            NetEvent::Relabel { endpoint, label } => Mutation::SetNodeAttr {
                id: endpoint.to_string_dotted(),
                key: "label".to_string(),
                value: AttrValue::Str(label.as_str().into()),
            },
        }
    }

    /// The seven conflict rules of the write path, in their fixed order and
    /// with their messages, checked against `graph` without touching it.
    /// With `endpoints_required` false an `AddEdge` need not find its
    /// endpoints: a shard partition checks that way, because another
    /// shard may own an edge's target.
    pub(crate) fn check(&self, graph: &Graph, endpoints_required: bool) -> Result<(), ServeError> {
        let conflict = |msg: String| Err(ServeError::Conflict(msg));
        match self {
            Mutation::AddNode { id, .. } => {
                if graph.has_node(id) {
                    return conflict(format!("node {id} already exists"));
                }
            }
            Mutation::AddEdge { source, target, .. } => {
                if endpoints_required && (!graph.has_node(source) || !graph.has_node(target)) {
                    return conflict(format!("edge {source}->{target} names an unknown endpoint"));
                }
                if graph.has_edge(source, target) {
                    return conflict(format!("edge {source}->{target} already exists"));
                }
            }
            Mutation::SetFlow { source, target, .. } | Mutation::RemoveEdge { source, target } => {
                if !graph.has_edge(source, target) {
                    return conflict(format!("edge {source}->{target} does not exist"));
                }
            }
            Mutation::SetNodeAttr { id, key, value } => {
                if !graph.has_node(id) {
                    return conflict(format!("node {id} does not exist"));
                }
                // Rewriting the identity column would desync the tabular
                // substrates from the graph (node names are immutable).
                if key == "id" {
                    return conflict("the 'id' attribute is the node's identity".to_string());
                }
                // JSON has no spelling for such a float: the WAL record and
                // every later snapshot could not be read back.
                if !finite(value) {
                    return conflict(format!("attribute {key}={value} is not a finite number"));
                }
            }
        }
        Ok(())
    }

    /// One-line rendering for transcripts and logs.
    pub fn describe(&self) -> String {
        match self {
            Mutation::AddNode { id, prefix16, .. } => format!("add-node {id} ({prefix16})"),
            Mutation::AddEdge {
                source,
                target,
                bytes,
                ..
            } => format!("add-edge {source}->{target} bytes={bytes}"),
            Mutation::SetFlow {
                source,
                target,
                bytes,
                ..
            } => format!("set-flow {source}->{target} bytes={bytes}"),
            Mutation::SetNodeAttr { id, key, value } => format!("set-attr {id} {key}={value}"),
            Mutation::RemoveEdge { source, target } => format!("remove-edge {source}->{target}"),
        }
    }
}

/// True when every float in `value`, list items included, is finite.
fn finite(value: &AttrValue) -> bool {
    match value {
        AttrValue::Float(f) => f.is_finite(),
        AttrValue::List(items) => items.iter().all(finite),
        _ => true,
    }
}

/// One entry of a shard's write-ahead log: the mutation, the epoch it
/// produced, and the (synthetic) timestamp at which it was observed.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The epoch the state reached *after* this mutation was applied
    /// (1-based; the log's epochs are contiguous).
    pub epoch: Epoch,
    /// Stream timestamp in milliseconds.
    pub at_ms: u64,
    /// The mutation itself.
    pub mutation: Mutation,
}

#[cfg(test)]
mod tests {
    use super::*;
    use trafficgen::Ipv4;

    #[test]
    fn events_normalize_to_mutations() {
        let a = Ipv4::new(10, 0, 0, 1);
        let b = Ipv4::new(10, 0, 0, 2);
        let flow = Flow {
            source: a,
            target: b,
            bytes: 100,
            connections: 2,
            packets: 5,
        };
        assert_eq!(
            Mutation::from_event(&NetEvent::NewFlow { flow: flow.clone() }),
            Mutation::AddEdge {
                source: "10.0.0.1".into(),
                target: "10.0.0.2".into(),
                bytes: 100,
                connections: 2,
                packets: 5,
            }
        );
        assert!(matches!(
            Mutation::from_event(&NetEvent::AdjustFlow { flow }),
            Mutation::SetFlow { .. }
        ));
        let relabel = Mutation::from_event(&NetEvent::Relabel {
            endpoint: a,
            label: "app:web".into(),
        });
        assert_eq!(
            relabel,
            Mutation::SetNodeAttr {
                id: "10.0.0.1".into(),
                key: "label".into(),
                value: AttrValue::Str("app:web".into()),
            }
        );
        assert!(relabel.describe().contains("label=app:web"));
        let node = Mutation::from_event(&NetEvent::NewEndpoint {
            endpoint: Ipv4::new(203, 0, 0, 1),
        });
        assert_eq!(
            node,
            Mutation::AddNode {
                id: "203.0.0.1".into(),
                prefix16: "203.0".into(),
                prefix24: "203.0.0".into(),
            }
        );
    }
}
