//! Sharded live state: N [`LiveNetwork`] partitions behind one router.
//!
//! Nodes hash to shards by `crc32(id) % shards`; a mutation is owned by
//! the shard of the node it names (`AddNode`/`SetNodeAttr`) or of its
//! *source* endpoint (`AddEdge`/`SetFlow`/`RemoveEdge`), so every edge
//! lives in exactly one partition.
//!
//! **Ghost endpoints.** A cross-shard edge names a target the owning
//! partition does not hold; the graph substrate auto-creates it as an
//! attribute-less *ghost* node. The invariant (relied on by the merge):
//! in shard `k`'s graph, a node is real — carries its attributes and
//! counts toward the merged view — iff the hash owns it (`shard_of(id) ==
//! k`); any node the hash routes elsewhere is a ghost.
//!
//! **Epoch vector.** Each partition counts its own *local* epochs. The
//! partitions of a multi-shard network start counting at zero, so the
//! global epoch is `base + Σ local`; a single partition is the whole
//! network and keeps the network's epoch, so its local epoch *is* the
//! global one. Per-shard mutation streams are independently applicable in
//! any interleaving (ghosts make cross-shard edges shard-locally valid),
//! which is what lets each shard recover from its own WAL with no
//! cross-shard coordination — and what the consistent-cut property test
//! in `tests/sharding.rs` exercises.
//!
//! **The served state.** Reads are served from, and mutations validated
//! against, one unsharded [`LiveNetwork`] at the global epoch. On one
//! shard the partition is the served state: the one place the shard count
//! changes how the state is served. On more, it is kept beside the
//! partitions. A checked mutation is applied to it at once and queued for
//! its owner partition, which catches up when its store snapshots it, when
//! a merge or a redo needs it, or when its backlog outgrows its edge
//! frame; a write's acknowledgement pays one apply at any shard count.
//! Recovery, and a redo that lands out of order or does not apply
//! globally, drop the served state; the next read rebuilds it by the
//! merge below.
//!
//! **Dead rows.** A removal leaves its edge row dead in the served state
//! and in its partition (see [`LiveNetwork`]'s tombstones). Nothing here
//! lends out a network that holds one: `ShardedNetwork::view` and
//! `ShardedNetwork::partition` settle theirs first, so every read and
//! every snapshot install compacts what accumulated since, in one pass;
//! [`ShardedNetwork::merged`] settles a copy; recovery settles each
//! partition it rebuilds. Validation reads only the graph, so a write
//! settles nothing except through the bound on dead rows.
//!
//! **Deterministic merge.** Every partition carries one *sequence number*
//! per frame row: genesis rows keep their row index in the original
//! unsharded frame, mutation-inserted rows get `seq_base + (global -
//! base)`. Merging k frames is a k-way merge ascending by sequence
//! number, which reproduces the unsharded frame *byte-identically* — the
//! foundation of the shard-count-invariance guarantee. A partition is a
//! plain [`LiveNetwork`]: its sequence numbers are its row keys.

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

impl SeqBases {
    /// Applies one globally validated mutation carrying global epoch
    /// `global` to `partition`, keying the row it appends (if any) by the
    /// sequence-number formula: its frame's base plus `global -
    /// base_epoch`. A `global` at or below the partition-time epoch comes
    /// from a damaged record and is refused before anything moves.
    pub(crate) fn apply(
        &self,
        partition: &mut LiveNetwork,
        global: Epoch,
        mutation: &Mutation,
    ) -> Result<Epoch, ServeError> {
        if global <= self.base_epoch {
            return Err(ServeError::Corrupt(format!(
                "global epoch {global} does not exceed the partition-time epoch {}",
                self.base_epoch
            )));
        }
        let base = match mutation {
            Mutation::AddNode { .. } => self.node_seq_base,
            _ => self.edge_seq_base,
        };
        partition.apply_routed(mutation, base + (global - self.base_epoch))
    }
}

/// N live partitions behind one globally-validating router.
#[derive(Debug, Clone)]
pub struct ShardedNetwork {
    partitions: Vec<LiveNetwork>,
    /// Per shard, the checked mutations, with their global epochs, that
    /// the served state has taken and the partition has not yet.
    backlog: Vec<Vec<(Epoch, Mutation)>>,
    bases: SeqBases,
    /// Highest global epoch applied anywhere (equals `base + Σ local`
    /// except after a jagged per-shard recovery).
    next_global: Epoch,
    /// The served state on more than one shard (see the module docs), at
    /// `next_global`; `None` until [`ShardedNetwork::view`] rebuilds it.
    served: Option<LiveNetwork>,
}

impl ShardedNetwork {
    /// Partitions `live` into `shards` hash partitions and serves a private
    /// copy of it, which on one shard is the single partition, epoch
    /// included. A frame whose id or source column holds a non-string
    /// value — a recovered snapshot from a hand-edited or damaged store
    /// can produce one — is a typed [`ServeError::Corrupt`], not a panic:
    /// partitioning sits on the recovery path, and one bad row must not
    /// take down the server.
    pub fn from_live(live: &LiveNetwork, shards: u32) -> Result<ShardedNetwork, ServeError> {
        assert!(shards > 0, "a sharded network needs at least one shard");
        let base_epoch = live.epoch();
        let bases = SeqBases {
            base_epoch,
            node_seq_base: live.nodes().n_rows() as u64,
            edge_seq_base: live.edges().n_rows() as u64,
        };
        let served = live.private_copy();
        if shards == 1 {
            // The copy keys its rows `0..n`: their sequence numbers.
            return Ok(Self::from_partitions(vec![served], bases, base_epoch));
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
                LiveNetwork::from_keyed_parts(
                    graph,
                    live.nodes().take(&nodes).expect("indices from enumerate"),
                    live.edges().take(&edges).expect("indices from enumerate"),
                    0,
                    nodes.iter().map(|&r| r as u64).collect(),
                    edges.iter().map(|&r| r as u64).collect(),
                )
            })
            .collect();
        let mut net = Self::from_partitions(partitions, bases, base_epoch);
        net.served = Some(served);
        Ok(net)
    }

    /// Assembles a sharded network from its partitions: fresh ones, or
    /// ones recovered independently (the per-shard persistence path). The
    /// served state is built by the first read.
    pub(crate) fn from_partitions(
        partitions: Vec<LiveNetwork>,
        bases: SeqBases,
        next_global: Epoch,
    ) -> ShardedNetwork {
        assert!(!partitions.is_empty());
        debug_assert!(partitions.iter().all(LiveNetwork::is_settled));
        ShardedNetwork {
            backlog: vec![Vec::new(); partitions.len()],
            partitions,
            bases,
            next_global,
            served: None,
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

    /// One shard's partition, brought up to date and settled.
    pub(crate) fn partition(&mut self, shard: u32) -> &LiveNetwork {
        let k = shard as usize;
        self.catch_up(k);
        self.partitions[k].settle();
        &self.partitions[k]
    }

    /// Applies shard `k`'s backlog to its partition.
    fn catch_up(&mut self, k: usize) {
        for (global, mutation) in std::mem::take(&mut self.backlog[k]) {
            self.bases
                .apply(&mut self.partitions[k], global, &mutation)
                .expect("a globally checked mutation applies to its owner partition");
        }
    }

    /// The global epoch: the highest global epoch applied anywhere.
    pub fn global_epoch(&self) -> Epoch {
        self.next_global
    }

    /// The cross-shard epoch vector: each partition's local epoch (see
    /// the module docs). Reads of the served state observe exactly this
    /// cut.
    pub fn epoch_vector(&self) -> Vec<Epoch> {
        (0..self.shards()).map(|k| self.local_epoch(k)).collect()
    }

    /// Local epoch of one shard: its partition's own epoch counter, backlog
    /// included, which is also the positional epoch of the shard's store.
    pub(crate) fn local_epoch(&self, shard: u32) -> Epoch {
        let k = shard as usize;
        self.partitions[k].epoch() + self.backlog[k].len() as Epoch
    }

    /// Validates a mutation against the served state, with the conflict
    /// rules of [`LiveNetwork::apply`].
    pub(crate) fn check_global(&mut self, mutation: &Mutation) -> Result<(), ServeError> {
        mutation.check(self.served_unsettled().graph(), true)
    }

    /// Validates globally, assigns the next global epoch, and applies the
    /// mutation to its owner shard. On conflict nothing moves and no
    /// epoch is consumed — exactly [`LiveNetwork::apply`] semantics.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<Epoch, ServeError> {
        self.check_global(mutation)?;
        self.apply_checked(self.next_global + 1, mutation)?;
        Ok(self.next_global)
    }

    /// Applies a mutation that already carries its global epoch — the
    /// redo path (per-shard recovery resume, and the epoch-vector tests,
    /// which replay per-shard streams in arbitrary interleavings). The
    /// owner partition checks it shard-locally; the served state takes it
    /// only at the next global epoch, if it applies there, and is dropped
    /// otherwise.
    pub fn apply_at(&mut self, global: Epoch, mutation: &Mutation) -> Result<(), ServeError> {
        let owner = self.route(mutation) as usize;
        self.catch_up(owner);
        self.bases
            .apply(&mut self.partitions[owner], global, mutation)?;
        let in_order = global == self.next_global + 1;
        self.next_global = self.next_global.max(global);
        let served = self.served.take();
        self.served = served.filter(|s| in_order && mutation.check(s.graph(), true).is_ok());
        if let Some(served) = &mut self.served {
            served.apply_checked(mutation);
        }
        Ok(())
    }

    /// Applies a mutation [`ShardedNetwork::check_global`] accepted, at the
    /// next global epoch `global`: to the served state, unchecked, and to
    /// its owner partition's backlog — or, on one shard, to the partition
    /// itself.
    pub(crate) fn apply_checked(
        &mut self,
        global: Epoch,
        mutation: &Mutation,
    ) -> Result<(), ServeError> {
        let owner = self.route(mutation) as usize;
        match &mut self.served {
            Some(served) => {
                served.apply_checked(mutation);
                self.backlog[owner].push((global, mutation.clone()));
                // Caught up before it outgrows the partition it is for: a
                // server with no snapshots or reads still holds O(state).
                if self.backlog[owner].len() > self.partitions[owner].graph().number_of_edges() {
                    self.catch_up(owner);
                }
            }
            None => {
                self.bases
                    .apply(&mut self.partitions[owner], global, mutation)?;
            }
        }
        self.next_global = self.next_global.max(global);
        Ok(())
    }

    /// The served state at the global epoch (see the module docs), rebuilt
    /// by [`ShardedNetwork::merged`] if a recovery or a redo dropped it,
    /// and settled.
    pub(crate) fn view(&mut self) -> &LiveNetwork {
        let served = self.served_unsettled();
        served.settle();
        served
    }

    /// [`ShardedNetwork::view`], with its dead rows still in place.
    fn served_unsettled(&mut self) -> &mut LiveNetwork {
        if self.partitions.len() == 1 {
            return &mut self.partitions[0];
        }
        if self.served.is_none() {
            self.served = Some(self.merged());
        }
        self.served.as_mut().expect("built above")
    }

    /// The merged view: one [`LiveNetwork`] equal — snapshot-byte-equal —
    /// to what an unsharded network would hold after the same mutations,
    /// at the global epoch. Ghost nodes are filtered by ownership; frames
    /// are k-way merged by sequence number.
    pub fn merged(&self) -> LiveNetwork {
        let pending = |k: usize| !self.backlog[k].is_empty() || !self.partitions[k].is_settled();
        if (0..self.partitions.len()).any(pending) {
            let mut caught_up = self.clone();
            for k in 0..self.shards() {
                caught_up.partition(k);
            }
            return caught_up.merged();
        }
        let global = self.global_epoch();
        let shards = self.shards();
        let mut graph = Graph::directed();
        // Real nodes first (with their attributes), so no edge below has
        // to ghost-create an endpoint: globally every endpoint exists.
        for (k, partition) in self.partitions.iter().enumerate() {
            for (id, attrs) in partition.graph().nodes() {
                if shard_of(id, shards) as usize == k {
                    graph.add_node(id, attrs.clone());
                }
            }
        }
        for partition in &self.partitions {
            for (u, v, attrs) in partition.graph().edges() {
                graph.add_edge(u, v, attrs.clone());
            }
        }
        let nodes = merge_frames(self.partitions.iter().map(|p| (p.nodes(), p.node_seqs())));
        let edges = merge_frames(self.partitions.iter().map(|p| (p.edges(), p.edge_seqs())));
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
            let expected = control.apply(&mutation);
            for net in &mut nets {
                let got = net.apply(&mutation);
                assert_eq!(got, expected, "shards={}", net.shards());
            }
        }
        // Conflicting mutations produce the exact unsharded strings, pinned
        // here: the sharded and unsharded paths share one validator, so
        // comparing them alone would not catch a changed message.
        let existing = w.endpoints[0].to_string_dotted();
        let edge = |column| control.edges().value(0, column).unwrap().to_string();
        let (source, target) = (edge("source"), edge("target"));
        let conflicts = [
            (
                Mutation::AddNode {
                    id: existing.clone(),
                    prefix16: "0.0".into(),
                    prefix24: "0.0.0".into(),
                },
                format!("mutation conflict: node {existing} already exists"),
            ),
            (
                Mutation::AddEdge {
                    source: "1.2.3.4".into(),
                    target: existing.clone(),
                    bytes: 1,
                    connections: 1,
                    packets: 1,
                },
                format!("mutation conflict: edge 1.2.3.4->{existing} names an unknown endpoint"),
            ),
            (
                Mutation::AddEdge {
                    source: source.clone(),
                    target: target.clone(),
                    bytes: 1,
                    connections: 1,
                    packets: 1,
                },
                format!("mutation conflict: edge {source}->{target} already exists"),
            ),
            (
                Mutation::RemoveEdge {
                    source: "1.2.3.4".into(),
                    target: existing.clone(),
                },
                format!("mutation conflict: edge 1.2.3.4->{existing} does not exist"),
            ),
            (
                Mutation::SetFlow {
                    source: existing.clone(),
                    target: "9.9.9.9".into(),
                    bytes: 1,
                    connections: 1,
                    packets: 1,
                },
                format!("mutation conflict: edge {existing}->9.9.9.9 does not exist"),
            ),
            (
                Mutation::SetNodeAttr {
                    id: "9.9.9.9".into(),
                    key: "label".into(),
                    value: "x".into(),
                },
                "mutation conflict: node 9.9.9.9 does not exist".to_string(),
            ),
            (
                Mutation::SetNodeAttr {
                    id: existing.clone(),
                    key: "id".into(),
                    value: "x".into(),
                },
                "mutation conflict: the 'id' attribute is the node's identity".to_string(),
            ),
        ];
        for (mutation, message) in conflicts {
            let expected = control.apply(&mutation).unwrap_err();
            assert_eq!(expected.to_string(), message);
            for net in &mut nets {
                assert_eq!(
                    net.apply(&mutation).unwrap_err(),
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
    fn a_replayed_edge_keyed_below_the_last_row_is_refused() {
        let live = LiveNetwork::from_workload(&workload());
        let mut net = ShardedNetwork::from_live(&live, 1).unwrap();
        let add = |source: &str| Mutation::AddEdge {
            source: source.into(),
            target: "9.9.9.9".into(),
            bytes: 1,
            connections: 1,
            packets: 1,
        };
        net.apply_at(5, &add("1.1.1.1")).unwrap();
        let rows = net.partition(0).edges().n_rows();
        // Global epoch 3 keys its row below the one epoch 5 appended: a
        // damaged record stream, refused before anything moves.
        assert!(matches!(
            net.apply_at(3, &add("2.2.2.2")),
            Err(ServeError::Corrupt(_))
        ));
        assert_eq!(net.partition(0).edges().n_rows(), rows);
        assert_eq!(net.local_epoch(0), 1);
    }

    #[test]
    fn ghosts_never_leak_into_the_merged_view() {
        let w = workload();
        let live = LiveNetwork::from_workload(&w);
        let mut net = ShardedNetwork::from_live(&live, 4).unwrap();
        // Partitions hold ghosts (cross-shard edge targets)...
        let ghost_total: usize = (0..4u32)
            .map(|k| {
                net.partition(k)
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

    #[test]
    fn a_redo_at_or_below_the_partition_epoch_is_refused() {
        let w = workload();
        let mut live = LiveNetwork::from_workload(&w);
        for event in &evolve(
            &w,
            &StreamConfig {
                events: 10,
                seed: 2,
            },
        ) {
            live.apply_event(event).unwrap();
        }
        let redo = Mutation::AddEdge {
            source: live.nodes().value(0, "id").unwrap().to_string(),
            target: "9.9.9.9".into(),
            bytes: 1,
            connections: 1,
            packets: 1,
        };
        for shards in [1u32, 2] {
            let mut net = ShardedNetwork::from_live(&live, shards).unwrap();
            let vector = net.epoch_vector();
            for global in [0, 3, 10] {
                assert!(
                    matches!(net.apply_at(global, &redo), Err(ServeError::Corrupt(_))),
                    "shards={shards} global={global}"
                );
                assert_eq!(net.epoch_vector(), vector);
                assert_eq!(net.global_epoch(), 10);
                assert!(net.merged() == live);
            }
        }
    }

    /// The served state equals a fresh merge of the partitions, snapshot
    /// bytes included.
    fn assert_served_is_merged(net: &mut ShardedNetwork, context: &str) {
        let merged = net.merged();
        assert!(*net.view() == merged, "{context}");
        assert_eq!(
            write_snapshot(net.view()),
            write_snapshot(&merged),
            "{context}"
        );
    }

    #[test]
    fn a_checked_write_waits_in_its_partitions_backlog_until_read() {
        let w = workload();
        let mut net = ShardedNetwork::from_live(&LiveNetwork::from_workload(&w), 3).unwrap();
        let event = &evolve(&w, &StreamConfig { events: 1, seed: 4 })[0];
        let mutation = Mutation::from_event(&event.event);
        let k = net.route(&mutation);
        net.apply(&mutation).unwrap();
        // The write moved the served state and queued for the partition...
        assert_eq!(net.partitions[k as usize].epoch(), 0);
        assert_eq!(net.local_epoch(k), 1);
        assert_eq!(net.epoch_vector().iter().sum::<u64>(), 1);
        // ...which catches up when it is read.
        assert_eq!(net.partition(k).epoch(), 1);
        assert!(net.backlog.iter().all(Vec::is_empty));
        assert_served_is_merged(&mut net, "after the catch-up");
    }

    /// A write-only, remove-heavy stream with no read and no snapshot:
    /// nothing but the bound on dead rows settles, and no network of the
    /// sharded one ever holds more dead edge rows than live ones.
    #[test]
    fn dead_rows_never_outnumber_live_ones_without_reads() {
        let w = generate(&TrafficConfig {
            nodes: 40,
            edges: 160,
            prefixes: 3,
            seed: 2,
        });
        let live = LiveNetwork::from_workload(&w);
        let ids: Vec<String> = (0..live.nodes().n_rows())
            .map(|row| live.nodes().value(row, "id").unwrap().to_string())
            .collect();
        for shards in [1u32, 3] {
            let mut reference = live.clone();
            let mut net = ShardedNetwork::from_live(&live, shards).unwrap();
            let (mut most_dead, mut bound_settles) = (0, 0);
            for i in 0..2_000usize {
                let rows = reference.edges().n_rows();
                let at =
                    |row: usize, column| reference.edges().value(row, column).unwrap().to_string();
                // Three removals to one insertion, while edges remain.
                let mutation = if rows > 0 && i % 4 != 0 {
                    let row = (i * 7919) % rows;
                    Mutation::RemoveEdge {
                        source: at(row, "source"),
                        target: at(row, "target"),
                    }
                } else {
                    Mutation::AddEdge {
                        source: ids[(i * 31) % ids.len()].clone(),
                        target: ids[(i * 17 + 1) % ids.len()].clone(),
                        bytes: 1,
                        connections: 1,
                        packets: 1,
                    }
                };
                // Only mutations the unsharded reference takes are sent.
                if reference.apply(&mutation).is_err() {
                    continue;
                }
                let before: usize = net.partitions.iter().map(LiveNetwork::dead_edge_rows).sum();
                net.apply(&mutation).unwrap();
                let networks = net.partitions.iter().chain(net.served.as_ref());
                for network in networks {
                    let (dead, live) =
                        (network.dead_edge_rows(), network.graph().number_of_edges());
                    assert!(
                        dead <= live,
                        "shards={shards} write {i}: {dead} dead, {live} live"
                    );
                    most_dead = most_dead.max(dead);
                }
                let after: usize = net.partitions.iter().map(LiveNetwork::dead_edge_rows).sum();
                bound_settles += usize::from(after < before);
            }
            assert!(
                most_dead > 10,
                "shards={shards}: the stream must leave rows dead"
            );
            assert!(bound_settles > 0, "shards={shards}: the bound must settle");
            assert_served_is_merged(&mut net, &format!("shards={shards}"));
            assert!(net.merged() == reference);
        }
    }

    #[test]
    fn the_served_state_follows_every_write_in_lockstep() {
        let w = workload();
        let live = LiveNetwork::from_workload(&w);
        let stream: Vec<Mutation> = evolve(
            &w,
            &StreamConfig {
                events: 60,
                seed: 4,
            },
        )
        .iter()
        .map(|event| Mutation::from_event(&event.event))
        .collect();
        let kinds: std::collections::HashSet<_> =
            stream.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 5, "the stream must hold every mutation kind");

        // In order, through `apply` and `apply_at` alike: the served
        // substrates are written in place, never rebuilt.
        let mut net = ShardedNetwork::from_live(&live, 3).unwrap();
        assert_served_is_merged(&mut net, "fresh");
        for (i, mutation) in stream.iter().enumerate() {
            let before = net.view().substrate_handles();
            if i % 2 == 0 {
                net.apply(mutation).unwrap();
            } else {
                net.apply_at(net.global_epoch() + 1, mutation).unwrap();
            }
            assert_eq!(net.view().substrate_handles(), before, "event {i}");
            assert_served_is_merged(&mut net, &format!("in order, event {i}"));
        }
        // No backlog outgrows its partition's edge frame.
        assert!(
            (0..3).all(|k| { net.backlog[k].len() <= net.partitions[k].graph().number_of_edges() })
        );

        // Below the global epoch: two records of different shards swapped.
        // The first skips an epoch, the second lands below the global one;
        // each drops the served state, and the next read rebuilds it.
        let j = (0..stream.len() - 1)
            .find(|&j| net.route(&stream[j]) != net.route(&stream[j + 1]))
            .expect("consecutive records on different shards");
        let mut net = ShardedNetwork::from_live(&live, 3).unwrap();
        for (i, mutation) in stream[..j].iter().enumerate() {
            net.apply_at(i as u64 + 1, mutation).unwrap();
        }
        for global in [j + 2, j + 1] {
            net.apply_at(global as u64, &stream[global - 1]).unwrap();
            assert!(net.served.is_none(), "global {global}");
            assert_served_is_merged(&mut net, &format!("out of order, global {global}"));
        }
        for (i, mutation) in stream.iter().enumerate().skip(j + 2) {
            net.apply_at(i as u64 + 1, mutation).unwrap();
            assert_served_is_merged(&mut net, &format!("after the swap, event {i}"));
        }

        // A redo that conflicts globally: its owner partition takes the
        // edge through a ghost, the served state cannot.
        let mut net = ShardedNetwork::from_live(&live, 3).unwrap();
        let redo = Mutation::AddEdge {
            source: live.nodes().value(0, "id").unwrap().to_string(),
            target: "9.9.9.9".into(),
            bytes: 1,
            connections: 1,
            packets: 1,
        };
        net.apply_at(1, &redo).unwrap();
        assert!(net.served.is_none());
        assert_served_is_merged(&mut net, "a redo that conflicts globally");
    }
}
