//! Application wrappers (component 1 of the paper's Figure 2).
//!
//! An application wrapper owns the raw network data, knows how to describe
//! the application and its graph schema in natural language (that text goes
//! into the prompt), and materializes the network in whichever backend
//! representation a run needs.

use crate::backend::{Application, Backend};
use crate::state::NetworkState;
use malt::MaltModel;
use netgraph::json::graph_to_json;
use trafficgen::TrafficWorkload;

/// The interface the framework uses to talk to an application.
///
/// Wrappers are shared by reference across benchmark worker threads (each
/// thread materializes its own backend states from the wrapper's immutable
/// network data), hence the `Send + Sync` bound.
pub trait ApplicationWrapper: Send + Sync {
    /// Which benchmark application this is.
    fn application(&self) -> Application;

    /// Natural-language description of the application and of the network's
    /// schema (node/edge kinds and attributes). Used by the application
    /// prompt generator.
    fn describe(&self) -> String;

    /// The network materialized in the given backend's representation.
    /// The strawman backend uses the graph representation.
    fn initial_state(&self, backend: Backend) -> NetworkState;

    /// The raw network data serialized as JSON (node-link format); this is
    /// what the strawman baseline pastes into its prompt.
    fn raw_json(&self) -> String;
}

/// The network traffic-analysis application over a synthetic communication
/// graph.
#[derive(Debug, Clone)]
pub struct TrafficApp {
    workload: TrafficWorkload,
}

impl TrafficApp {
    /// Wraps a generated workload.
    pub fn new(workload: TrafficWorkload) -> Self {
        TrafficApp { workload }
    }

    /// The underlying workload.
    pub fn workload(&self) -> &TrafficWorkload {
        &self.workload
    }
}

impl ApplicationWrapper for TrafficApp {
    fn application(&self) -> Application {
        Application::TrafficAnalysis
    }

    fn describe(&self) -> String {
        format!(
            "Application: network traffic analysis over a communication graph.\n\
             Nodes are network endpoints identified by their IPv4 address (string id); each node \
             carries 'prefix16' and 'prefix24' attributes with its /16 and /24 address prefixes.\n\
             Directed edges represent observed communication; each edge carries integer 'bytes', \
             'connections' and 'packets' attributes.\n\
             The graph has {} nodes and {} edges.",
            self.workload.endpoints.len(),
            self.workload.flows.len()
        )
    }

    fn initial_state(&self, backend: Backend) -> NetworkState {
        match backend {
            Backend::Strawman | Backend::NetworkX => {
                NetworkState::Graph(trafficgen::export::to_graph(&self.workload).into())
            }
            Backend::Pandas => {
                let (nodes, edges) = trafficgen::export::to_frames(&self.workload);
                NetworkState::Frames {
                    nodes: nodes.into(),
                    edges: edges.into(),
                }
            }
            Backend::Sql => NetworkState::Database(trafficgen::export::to_database(&self.workload)),
        }
    }

    fn raw_json(&self) -> String {
        graph_to_json(&trafficgen::export::to_graph(&self.workload))
    }
}

/// The network lifecycle-management application over a MALT topology.
#[derive(Debug, Clone)]
pub struct MaltApp {
    model: MaltModel,
}

impl MaltApp {
    /// Wraps a MALT model.
    pub fn new(model: MaltModel) -> Self {
        MaltApp { model }
    }

    /// The underlying model.
    pub fn model(&self) -> &MaltModel {
        &self.model
    }
}

impl ApplicationWrapper for MaltApp {
    fn application(&self) -> Application {
        Application::MaltLifecycle
    }

    fn describe(&self) -> String {
        format!(
            "Application: network lifecycle management over a MALT (Multi-Abstraction-Layer \
             Topology) model.\n\
             Nodes are network entities identified by hierarchical names (e.g. 'ju1.a1.m1.s2c1'); \
             each node has a 'kind' attribute that is one of: datacenter, pod, rack, chassis, \
             packet_switch, port, control_point. Chassis and packet switches carry a \
             'capacity_gbps' attribute, ports carry 'speed_gbps', packet switches also carry \
             'role' and 'vendor'.\n\
             Directed edges carry a 'relationship' attribute that is one of: 'contains' (physical \
             containment, e.g. a chassis contains its packet switches, a packet switch contains \
             its ports), 'controls' (a control point controls packet switches), and \
             'connected_to' (a physical link between two ports).\n\
             The topology has {} entities and {} relationships.",
            self.model.entity_count(),
            self.model.relationship_count()
        )
    }

    fn initial_state(&self, backend: Backend) -> NetworkState {
        match backend {
            Backend::Strawman | Backend::NetworkX => {
                NetworkState::Graph(malt::export::to_graph(&self.model).into())
            }
            Backend::Pandas => {
                let (nodes, edges) = malt::export::to_frames(&self.model);
                NetworkState::Frames {
                    nodes: nodes.into(),
                    edges: edges.into(),
                }
            }
            Backend::Sql => NetworkState::Database(malt::export::to_database(&self.model)),
        }
    }

    fn raw_json(&self) -> String {
        graph_to_json(&malt::export::to_graph(&self.model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malt::MaltConfig;
    use trafficgen::TrafficConfig;

    #[test]
    fn traffic_app_states_and_description() {
        let app = TrafficApp::new(trafficgen::generate(&TrafficConfig {
            nodes: 20,
            edges: 25,
            prefixes: 3,
            seed: 1,
        }));
        assert_eq!(app.application(), Application::TrafficAnalysis);
        assert!(app.describe().contains("20 nodes"));
        for backend in Backend::ALL {
            let state = app.initial_state(backend);
            match (backend, &state) {
                (Backend::Pandas, NetworkState::Frames { nodes, .. }) => {
                    assert_eq!(nodes.n_rows(), 20)
                }
                (Backend::Sql, NetworkState::Database(db)) => {
                    assert_eq!(db.table_names(), vec!["edges", "nodes"])
                }
                (_, NetworkState::Graph(g)) => assert_eq!(g.number_of_nodes(), 20),
                other => panic!("unexpected state {other:?}"),
            }
        }
        assert!(app.raw_json().contains("\"links\""));
    }

    #[test]
    fn malt_app_states_and_description() {
        let app = MaltApp::new(malt::generate(&MaltConfig::tiny()));
        assert_eq!(app.application(), Application::MaltLifecycle);
        assert!(app.describe().contains("packet_switch"));
        assert!(app.describe().contains("45 entities"));
        match app.initial_state(Backend::NetworkX) {
            NetworkState::Graph(g) => assert_eq!(g.number_of_nodes(), 45),
            other => panic!("unexpected {other:?}"),
        }
        match app.initial_state(Backend::Pandas) {
            NetworkState::Frames { nodes, .. } => assert_eq!(nodes.n_rows(), 45),
            other => panic!("unexpected {other:?}"),
        }
    }
}
