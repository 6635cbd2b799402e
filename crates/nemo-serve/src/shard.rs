//! Sharded live state: N [`LiveNetwork`] partitions behind one router.
//!
//! Nodes hash to shards by `crc32(id) % shards`; a mutation is owned by
//! the shard of the node it names (`AddNode`/`SetNodeAttr`) or of its
//! *source* endpoint (`AddEdge`/`SetFlow`/`RemoveEdge`), so every edge
//! lives in exactly one partition. The router validates each mutation
//! *globally* — consulting the owning shards, with exactly the conflict
//! semantics of an unsharded [`LiveNetwork::apply`] — then applies it to
//! its owner partition only.
//!
//! **Ghost endpoints.** A cross-shard edge names a target the owning
//! partition does not hold; the graph substrate auto-creates it as an
//! attribute-less *ghost* node. The invariant (relied on by the merge and
//! the global checks): in shard `k`'s graph, a node is real — carries its
//! attributes and counts toward the merged view — iff the hash owns it
//! (`shard_of(id) == k`); any node the hash routes elsewhere is a ghost.
//!
//! **Epoch vector.** Each partition counts its own *local* epochs. The
//! partitions of a multi-shard network start counting at zero, so the
//! global epoch is `base + Σ local`; a single partition is the whole
//! network and keeps the network's epoch, so its local epoch *is* the
//! global one — which is what lets a single-shard server serve partition
//! 0 itself as its view. Per-shard mutation streams are
//! independently applicable in any interleaving (ghosts make cross-shard
//! edges shard-locally valid), which is what lets each shard recover from
//! its own WAL with no cross-shard coordination — and what the
//! consistent-cut property test in `tests/sharding.rs` exercises.
//!
//! **Deterministic merge.** Every partition carries one *sequence number*
//! per frame row: genesis rows keep their row index in the original
//! unsharded frame, mutation-inserted rows get `seq_base + (global -
//! base)`. Merging k frames is a k-way merge ascending by sequence
//! number, which reproduces the unsharded frame *byte-identically* — the
//! foundation of the shard-count-invariance guarantee.

use crate::error::ServeError;
use crate::live::LiveNetwork;
use crate::mutation::{Epoch, Mutation};
use dataframe::DataFrame;
use netgraph::Graph;

/// Which shard owns the node `id` (stable across runs and platforms:
/// CRC32 of the id bytes, modulo the shard count).
pub fn shard_of(id: &str, shards: u32) -> u32 {
    if shards <= 1 {
        0
    } else {
        nemo_store::crc32::crc32(id.as_bytes()) % shards
    }
}

/// Which shard owns (applies and logs) `mutation`.
pub fn route_mutation(mutation: &Mutation, shards: u32) -> u32 {
    match mutation {
        Mutation::AddNode { id, .. } | Mutation::SetNodeAttr { id, .. } => shard_of(id, shards),
        Mutation::AddEdge { source, .. }
        | Mutation::SetFlow { source, .. }
        | Mutation::RemoveEdge { source, .. } => shard_of(source, shards),
    }
}

/// One shard's slice of the live state plus the per-row sequence numbers
/// that make the merge deterministic.
#[derive(Debug, Clone)]
pub(crate) struct ShardPartition {
    pub(crate) live: LiveNetwork,
    /// One entry per node-frame row: its position in the merged order.
    pub(crate) node_seqs: Vec<u64>,
    /// One entry per edge-frame row: its position in the merged order.
    pub(crate) edge_seqs: Vec<u64>,
}

impl ShardPartition {
    /// Applies one globally-validated mutation carrying global epoch
    /// `global`, maintaining the sequence vectors. `meta` supplies the
    /// bases of the sequence-number formula.
    pub(crate) fn apply_record(
        &mut self,
        global: Epoch,
        at_ms: u64,
        mutation: Mutation,
        meta: &SeqBases,
    ) -> Result<(), ServeError> {
        debug_assert!(global > meta.base_epoch);
        match &mutation {
            Mutation::AddNode { .. } => {
                self.live.apply_routed(at_ms, mutation)?;
                self.node_seqs
                    .push(meta.node_seq_base + (global - meta.base_epoch));
            }
            Mutation::AddEdge { .. } => {
                self.live.apply_routed(at_ms, mutation)?;
                self.edge_seqs
                    .push(meta.edge_seq_base + (global - meta.base_epoch));
            }
            Mutation::RemoveEdge { source, target } => {
                let row = self.live.edge_row(source, target);
                self.live.apply_routed(at_ms, mutation)?;
                let row = row.expect("apply_routed validated the edge exists");
                self.edge_seqs.remove(row);
            }
            Mutation::SetFlow { .. } | Mutation::SetNodeAttr { .. } => {
                self.live.apply_routed(at_ms, mutation)?;
            }
        }
        debug_assert_eq!(self.node_seqs.len(), self.live.nodes().n_rows());
        debug_assert_eq!(self.edge_seqs.len(), self.live.edges().n_rows());
        Ok(())
    }
}

/// The constants of the sequence-number formula, fixed at partition time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeqBases {
    /// Global epoch when the network was partitioned.
    pub(crate) base_epoch: Epoch,
    /// Node-frame rows at partition time (genesis rows sit below this).
    pub(crate) node_seq_base: u64,
    /// Edge-frame rows at partition time.
    pub(crate) edge_seq_base: u64,
}

/// N live partitions behind one globally-validating router.
#[derive(Debug, Clone)]
pub struct ShardedNetwork {
    partitions: Vec<ShardPartition>,
    bases: SeqBases,
    /// Highest global epoch applied anywhere (equals `base + Σ local`
    /// except after a jagged per-shard recovery).
    next_global: Epoch,
}

impl ShardedNetwork {
    /// Partitions `live` into `shards` hash partitions. With `shards ==
    /// 1` the single partition is a private copy of `live`, verbatim —
    /// epoch included, so the partition doubles as the global view. A
    /// frame whose id or source column holds a non-string value — a
    /// recovered snapshot from a hand-edited or damaged store can produce
    /// one — is a typed
    /// [`ServeError::Corrupt`], not a panic: partitioning sits on the
    /// recovery path, and one bad row must not take down the server.
    pub fn from_live(live: &LiveNetwork, shards: u32) -> Result<ShardedNetwork, ServeError> {
        assert!(shards > 0, "a sharded network needs at least one shard");
        let base_epoch = live.epoch();
        let bases = SeqBases {
            base_epoch,
            node_seq_base: live.nodes().n_rows() as u64,
            edge_seq_base: live.edges().n_rows() as u64,
        };
        if shards == 1 {
            let partition = ShardPartition {
                live: live.private_copy(),
                node_seqs: (0..live.nodes().n_rows() as u64).collect(),
                edge_seqs: (0..live.edges().n_rows() as u64).collect(),
            };
            return Ok(ShardedNetwork {
                partitions: vec![partition],
                bases,
                next_global: base_epoch,
            });
        }
        let n = shards as usize;
        let mut node_idx: Vec<Vec<usize>> = vec![Vec::new(); n];
        if let Ok(ids) = live.nodes().column("id") {
            for (row, v) in ids.values().iter().enumerate() {
                let Some(id) = v.as_str() else {
                    return Err(ServeError::Corrupt(format!(
                        "node frame row {row}: id is {v:?}, want a string — cannot route it \
                         to a shard"
                    )));
                };
                node_idx[shard_of(id, shards) as usize].push(row);
            }
        }
        let mut edge_idx: Vec<Vec<usize>> = vec![Vec::new(); n];
        if let Ok(sources) = live.edges().column("source") {
            for (row, v) in sources.values().iter().enumerate() {
                let Some(source) = v.as_str() else {
                    return Err(ServeError::Corrupt(format!(
                        "edge frame row {row}: source is {v:?}, want a string — cannot route \
                         it to a shard"
                    )));
                };
                edge_idx[shard_of(source, shards) as usize].push(row);
            }
        }
        let mut graphs: Vec<Graph> = (0..n).map(|_| Graph::directed()).collect();
        for (id, attrs) in live.graph().nodes() {
            graphs[shard_of(id, shards) as usize].add_node(id, attrs.clone());
        }
        for (u, v, attrs) in live.graph().edges() {
            // Auto-creates `v` as a ghost when another shard owns it.
            graphs[shard_of(u, shards) as usize].add_edge(u, v, attrs.clone());
        }
        let partitions = graphs
            .into_iter()
            .zip(node_idx)
            .zip(edge_idx)
            .map(|((graph, nodes), edges)| {
                let node_frame = live.nodes().take(&nodes).expect("indices from enumerate");
                let edge_frame = live.edges().take(&edges).expect("indices from enumerate");
                ShardPartition {
                    live: LiveNetwork::from_parts(graph, node_frame, edge_frame, 0),
                    node_seqs: nodes.iter().map(|&r| r as u64).collect(),
                    edge_seqs: edges.iter().map(|&r| r as u64).collect(),
                }
            })
            .collect();
        Ok(ShardedNetwork {
            partitions,
            bases,
            next_global: base_epoch,
        })
    }

    /// Reassembles a sharded network from independently recovered
    /// partitions (the per-shard persistence path).
    pub(crate) fn from_recovered(
        partitions: Vec<ShardPartition>,
        bases: SeqBases,
        next_global: Epoch,
    ) -> ShardedNetwork {
        assert!(!partitions.is_empty());
        ShardedNetwork {
            partitions,
            bases,
            next_global,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Which shard owns `mutation`.
    pub fn route(&self, mutation: &Mutation) -> u32 {
        route_mutation(mutation, self.shards())
    }

    /// Global epoch at partition time.
    pub fn base_epoch(&self) -> Epoch {
        self.bases.base_epoch
    }

    pub(crate) fn bases(&self) -> SeqBases {
        self.bases
    }

    pub(crate) fn partition(&self, shard: u32) -> &ShardPartition {
        &self.partitions[shard as usize]
    }

    /// The global epoch: the highest global epoch applied anywhere.
    pub fn global_epoch(&self) -> Epoch {
        self.next_global
    }

    /// The cross-shard epoch vector: each partition's local epoch (see
    /// the module docs). Reads served from the merged view observe
    /// exactly this cut.
    pub fn epoch_vector(&self) -> Vec<Epoch> {
        self.partitions.iter().map(|p| p.live.epoch()).collect()
    }

    /// Local epoch of one shard: its partition's own epoch counter, which
    /// is also the positional epoch of the shard's store.
    pub(crate) fn local_epoch(&self, shard: u32) -> Epoch {
        self.partitions[shard as usize].live.epoch()
    }

    /// True when the *owning* shard holds a real (non-ghost) node `id`.
    fn has_node_global(&self, id: &str) -> bool {
        let owner = shard_of(id, self.shards()) as usize;
        self.partitions[owner].live.graph().has_node(id)
    }

    /// True when the shard owning `source` holds the edge.
    fn has_edge_global(&self, source: &str, target: &str) -> bool {
        let owner = shard_of(source, self.shards()) as usize;
        self.partitions[owner].live.graph().has_edge(source, target)
    }

    /// Validates a mutation against the *global* state, consulting the
    /// owning shards — same checks, same order, same conflict strings as
    /// the unsharded [`LiveNetwork::apply`].
    pub(crate) fn check_global(&self, mutation: &Mutation) -> Result<(), ServeError> {
        let conflict = |msg: String| Err(ServeError::Conflict(msg));
        match mutation {
            Mutation::AddNode { id, .. } => {
                if self.has_node_global(id) {
                    return conflict(format!("node {id} already exists"));
                }
            }
            Mutation::AddEdge { source, target, .. } => {
                if !self.has_node_global(source) || !self.has_node_global(target) {
                    return conflict(format!("edge {source}->{target} names an unknown endpoint"));
                }
                if self.has_edge_global(source, target) {
                    return conflict(format!("edge {source}->{target} already exists"));
                }
            }
            Mutation::SetFlow { source, target, .. } | Mutation::RemoveEdge { source, target } => {
                if !self.has_edge_global(source, target) {
                    return conflict(format!("edge {source}->{target} does not exist"));
                }
            }
            Mutation::SetNodeAttr { id, key, .. } => {
                if !self.has_node_global(id) {
                    return conflict(format!("node {id} does not exist"));
                }
                if key == "id" {
                    return conflict("the 'id' attribute is the node's identity".to_string());
                }
            }
        }
        Ok(())
    }

    /// Validates globally, assigns the next global epoch, and applies the
    /// mutation to its owner shard. On conflict nothing moves and no
    /// epoch is consumed — exactly [`LiveNetwork::apply`] semantics.
    pub fn apply(&mut self, at_ms: u64, mutation: Mutation) -> Result<Epoch, ServeError> {
        self.check_global(&mutation)?;
        let global = self.next_global + 1;
        self.apply_at(global, at_ms, mutation)
            .expect("mutation was validated globally");
        Ok(global)
    }

    /// Applies a mutation that already carries its global epoch — the
    /// redo path (per-shard recovery resume, and the epoch-vector tests,
    /// which replay per-shard streams in arbitrary interleavings).
    /// Validation is shard-local only; the caller vouches the record came
    /// from a globally-validated stream.
    pub fn apply_at(
        &mut self,
        global: Epoch,
        at_ms: u64,
        mutation: Mutation,
    ) -> Result<(), ServeError> {
        let owner = self.route(&mutation);
        let bases = self.bases;
        self.partitions[owner as usize].apply_record(global, at_ms, mutation, &bases)?;
        self.next_global = self.next_global.max(global);
        Ok(())
    }

    /// The merged view: one [`LiveNetwork`] equal — snapshot-byte-equal —
    /// to what an unsharded network would hold after the same mutations,
    /// at the global epoch. Ghost nodes are filtered by ownership; frames
    /// are k-way merged by sequence number.
    pub fn merged(&self) -> LiveNetwork {
        let global = self.global_epoch();
        let shards = self.shards();
        let mut graph = Graph::directed();
        // Real nodes first (with their attributes), so no edge below has
        // to ghost-create an endpoint: globally every endpoint exists.
        for (k, partition) in self.partitions.iter().enumerate() {
            for (id, attrs) in partition.live.graph().nodes() {
                if shard_of(id, shards) as usize == k {
                    graph.add_node(id, attrs.clone());
                }
            }
        }
        for partition in &self.partitions {
            for (u, v, attrs) in partition.live.graph().edges() {
                graph.add_edge(u, v, attrs.clone());
            }
        }
        let nodes = merge_frames(
            self.partitions
                .iter()
                .map(|p| (p.live.nodes(), p.node_seqs.as_slice())),
        );
        let edges = merge_frames(
            self.partitions
                .iter()
                .map(|p| (p.live.edges(), p.edge_seqs.as_slice())),
        );
        LiveNetwork::from_parts(graph, nodes, edges, global)
    }
}

/// K-way merges frames ascending by per-row sequence number. Sequence
/// numbers are unique across partitions (each comes from a distinct
/// original row or a distinct global epoch), so the order is total.
fn merge_frames<'a>(parts: impl Iterator<Item = (&'a DataFrame, &'a [u64])>) -> DataFrame {
    let parts: Vec<(&DataFrame, &[u64])> = parts.collect();
    let mut order: Vec<(u64, usize, usize)> = Vec::new();
    for (pi, (frame, seqs)) in parts.iter().enumerate() {
        debug_assert_eq!(frame.n_rows(), seqs.len());
        for (row, &seq) in seqs.iter().enumerate() {
            order.push((seq, pi, row));
        }
    }
    order.sort_unstable();
    let mut out = parts[0].0.take(&[]).expect("empty take keeps the schema");
    for (_, pi, row) in order {
        out.push_row(parts[pi].0.row(row).expect("row from enumerate"))
            .expect("all partitions share the schema");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_snapshot;
    use trafficgen::{evolve, generate, StreamConfig, TrafficConfig};

    fn workload() -> trafficgen::TrafficWorkload {
        generate(&TrafficConfig {
            nodes: 24,
            edges: 30,
            prefixes: 3,
            seed: 6,
        })
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1, 2, 3, 4, 7] {
            for id in ["10.0.0.1", "192.168.4.77", "8.8.8.8"] {
                let k = shard_of(id, shards);
                assert!(k < shards);
                assert_eq!(k, shard_of(id, shards), "routing must be deterministic");
            }
        }
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn partition_then_merge_is_byte_identical() {
        let w = workload();
        let mut live = LiveNetwork::from_workload(&w);
        for event in &evolve(
            &w,
            &StreamConfig {
                events: 60,
                seed: 9,
            },
        ) {
            live.apply_event(event).unwrap();
        }
        let reference = write_snapshot(&live);
        for shards in [1u32, 2, 3, 4, 7] {
            let net = ShardedNetwork::from_live(&live, shards).unwrap();
            assert_eq!(net.global_epoch(), live.epoch());
            let merged = net.merged();
            assert_eq!(merged, live, "shards={shards}");
            assert_eq!(write_snapshot(&merged), reference, "shards={shards}");
        }
    }

    #[test]
    fn sharded_apply_matches_unsharded_including_conflicts() {
        let w = workload();
        let mut control = LiveNetwork::from_workload(&w);
        let mut nets: Vec<ShardedNetwork> = [1u32, 3, 4]
            .iter()
            .map(|&s| ShardedNetwork::from_live(&control, s).unwrap())
            .collect();
        let events = evolve(
            &w,
            &StreamConfig {
                events: 80,
                seed: 31,
            },
        );
        for event in &events {
            let mutation = Mutation::from_event(&event.event);
            let expected = control.apply(event.at_ms, mutation.clone());
            for net in &mut nets {
                let got = net.apply(event.at_ms, mutation.clone());
                assert_eq!(got, expected, "shards={}", net.shards());
            }
        }
        // Conflicting mutations produce the exact unsharded strings.
        let existing = w.endpoints[0].to_string_dotted();
        let conflicts = [
            Mutation::AddNode {
                id: existing.clone(),
                prefix16: "0.0".into(),
                prefix24: "0.0.0".into(),
            },
            Mutation::AddEdge {
                source: "1.2.3.4".into(),
                target: existing.clone(),
                bytes: 1,
                connections: 1,
                packets: 1,
            },
            Mutation::RemoveEdge {
                source: "1.2.3.4".into(),
                target: existing.clone(),
            },
            Mutation::SetNodeAttr {
                id: "9.9.9.9".into(),
                key: "label".into(),
                value: "x".into(),
            },
            Mutation::SetNodeAttr {
                id: existing,
                key: "id".into(),
                value: "x".into(),
            },
        ];
        for mutation in conflicts {
            let expected = control.apply(0, mutation.clone()).unwrap_err();
            for net in &mut nets {
                assert_eq!(
                    net.apply(0, mutation.clone()).unwrap_err(),
                    expected,
                    "shards={}",
                    net.shards()
                );
            }
        }
        // And the states still merge byte-identically.
        let reference = write_snapshot(&control);
        for net in &nets {
            assert_eq!(write_snapshot(&net.merged()), reference);
            assert_eq!(
                net.epoch_vector().iter().sum::<u64>(),
                control.epoch(),
                "epoch vector must sum to the global epoch"
            );
        }
    }

    #[test]
    fn ghosts_never_leak_into_the_merged_view() {
        let w = workload();
        let live = LiveNetwork::from_workload(&w);
        let net = ShardedNetwork::from_live(&live, 4).unwrap();
        // Partitions hold ghosts (cross-shard edge targets)...
        let ghost_total: usize = (0..4u32)
            .map(|k| {
                let partition = net.partition(k);
                partition
                    .live
                    .graph()
                    .nodes()
                    .filter(|(id, _)| shard_of(id, 4) != k)
                    .count()
            })
            .sum();
        assert!(ghost_total > 0, "this workload must produce ghosts");
        // ...but the merged node count is exactly the real one.
        assert_eq!(
            net.merged().graph().number_of_nodes(),
            live.graph().number_of_nodes()
        );
    }
}
