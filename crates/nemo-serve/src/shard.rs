//! Sharded live state: one served [`LiveNetwork`] behind a router that
//! hashes every node to a shard.
//!
//! Nodes hash to shards by `crc32(id) % shards`; a mutation is owned by
//! the shard of the node it names (`AddNode`/`SetNodeAttr`) or of its
//! *source* endpoint (`AddEdge`/`SetFlow`/`RemoveEdge`), so every edge
//! belongs to one shard, whose store ([`crate::shard_persist`]) logs it.
//!
//! **The served state.** Reads are served from, and mutations validated
//! against, one unsharded [`LiveNetwork`] at the global epoch, at every
//! shard count. Its rows are keyed by *sequence number*, the one key
//! scheme: genesis rows keep their row index in the original unsharded
//! frame, and a row a mutation appends gets `seq_base + (global - base)`.
//!
//! **Epoch vector.** Each shard counts its own *local* epochs, the records
//! its store logged, from zero; a single shard keeps the network's epoch.
//! Per-shard streams apply in any interleaving (ghosts make cross-shard
//! edges shard-locally valid), so each shard recovers from its own WAL
//! alone (the consistent-cut property test in `tests/sharding.rs`).
//!
//! **Cut and merge.** Partitions exist only at rest. An install cuts its
//! shard's partition from the served state: the owned node rows, the edge
//! rows of owned sources, each with its key, and the graph over them, in
//! which every other endpoint is an attribute-less *ghost*. A node counts
//! as real only with a node row: after a jagged merge the served graph
//! can hold a node an edge names before its owner redid its `AddNode`.
//! Recovery's partitions, and those an out-of-order redo (or one the
//! served state refuses) cuts it into, are held until the first read or
//! checked write merges them, consuming them: ghosts are filtered by
//! ownership and frames k-way merged by key, which reproduces the
//! unsharded frames byte-identically. On one shard the served state is
//! the partition and nothing is cut or merged: the one place the shard
//! count changes how state is held.
//!
//! **Dead rows.** A removal leaves its edge row dead (see [`LiveNetwork`]'s
//! tombstones); a view, a cut and a merge settle first. Validation reads
//! only the graph, so a write settles nothing but through that bound.

use crate::error::ServeError;
use crate::live::LiveNetwork;
use crate::mutation::{Epoch, Mutation};
use dataframe::DataFrame;
use nemo_obs::trace::Tracer;
use nemo_obs::Class;
use netgraph::Graph;
use std::borrow::Cow;

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
    /// The key of the row `mutation` appends at global epoch `global`, if
    /// any: its frame's base plus `global - base_epoch`.
    fn key(&self, global: Epoch, mutation: &Mutation) -> u64 {
        let base = match mutation {
            Mutation::AddNode { .. } => self.node_seq_base,
            _ => self.edge_seq_base,
        };
        base + (global - self.base_epoch)
    }

    /// Applies one globally validated mutation carrying global epoch
    /// `global` to `partition`, shard-locally, keying the row it appends
    /// by the formula. A `global` at or below the partition-time epoch
    /// comes from a damaged record and is refused before anything moves.
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
        partition.apply_routed(mutation, self.key(global, mutation))
    }
}

/// How a [`ShardedNetwork`] holds its state (see the module docs).
#[derive(Debug, Clone)]
enum State {
    /// The served state, at the global epoch.
    Served(LiveNetwork),
    /// One partition per shard, each at its local epoch. Never on one
    /// shard.
    Parts(Vec<LiveNetwork>),
}

/// The served state of N shards behind one globally-validating router.
#[derive(Debug, Clone)]
pub struct ShardedNetwork {
    state: State,
    bases: SeqBases,
    /// Each shard's local epoch.
    epochs: Vec<Epoch>,
    /// Highest global epoch applied anywhere (equals `base + Σ local`
    /// except after a jagged per-shard recovery).
    next_global: Epoch,
    /// Where the merge records its Physical `shard.merge` span.
    tracer: Tracer,
}

impl ShardedNetwork {
    /// Serves a private copy of `live`, keyed `0..n` (its sequence
    /// numbers), as `shards` shards. On more than one, a frame whose id or
    /// source column holds a non-string value — a hand-edited or damaged
    /// store can produce one — is a typed [`ServeError::Corrupt`], not a
    /// panic: no shard can own the row, so no cut could hold it.
    pub fn from_live(live: &LiveNetwork, shards: u32) -> Result<ShardedNetwork, ServeError> {
        assert!(shards > 0, "a sharded network needs at least one shard");
        if shards > 1 {
            for (frame, column) in [(live.nodes(), "id"), (live.edges(), "source")] {
                let values = frame.column(column).map_or(&[][..], |c| c.values());
                for (row, value) in values.iter().enumerate() {
                    if value.as_str().is_none() {
                        return Err(ServeError::Corrupt(format!(
                            "frame row {row}: {column} is {value:?}, want a string — cannot \
                             route it to a shard"
                        )));
                    }
                }
            }
        }
        let base_epoch = live.epoch();
        let bases = SeqBases {
            base_epoch,
            node_seq_base: live.nodes().n_rows() as u64,
            edge_seq_base: live.edges().n_rows() as u64,
        };
        let local = if shards == 1 { base_epoch } else { 0 };
        Ok(ShardedNetwork {
            state: State::Served(live.private_copy()),
            bases,
            epochs: vec![local; shards as usize],
            next_global: base_epoch,
            tracer: Tracer::default(),
        })
    }

    /// Assembles a network from partitions recovered independently, one
    /// per shard. The first read merges them; one shard's partition is the
    /// served state as it is.
    pub(crate) fn from_partitions(
        mut partitions: Vec<LiveNetwork>,
        bases: SeqBases,
        next_global: Epoch,
    ) -> ShardedNetwork {
        let epochs = partitions.iter().map(LiveNetwork::epoch).collect();
        let state = match partitions.len() {
            1 => State::Served(partitions.remove(0)),
            _ => State::Parts(partitions),
        };
        ShardedNetwork {
            state,
            bases,
            epochs,
            next_global,
            tracer: Tracer::default(),
        }
    }

    /// The network, recording its merges into `tracer`.
    pub(crate) fn traced(self, tracer: Tracer) -> ShardedNetwork {
        ShardedNetwork { tracer, ..self }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.epochs.len() as u32
    }

    /// Which shard owns `mutation`.
    pub fn route(&self, mutation: &Mutation) -> u32 {
        route_mutation(mutation, self.shards())
    }

    pub(crate) fn bases(&self) -> SeqBases {
        self.bases
    }

    /// The global epoch: the highest global epoch applied anywhere.
    pub fn global_epoch(&self) -> Epoch {
        self.next_global
    }

    /// The cross-shard epoch vector: each shard's local epoch, which is
    /// also the positional epoch of its store. Reads of the served state
    /// observe exactly this cut.
    pub fn epoch_vector(&self) -> Vec<Epoch> {
        self.epochs.clone()
    }

    pub(crate) fn local_epoch(&self, shard: u32) -> Epoch {
        self.epochs[shard as usize]
    }

    /// Shard `shard`'s partition at its local epoch, settled: what an
    /// install writes. Cut from the served state unless the network holds
    /// partitions; on one shard, the served state itself.
    pub(crate) fn partition(&mut self, shard: u32) -> Cow<'_, LiveNetwork> {
        let (k, shards) = (shard as usize, self.shards());
        match &mut self.state {
            State::Served(served) => {
                served.settle();
                if shards > 1 {
                    return Cow::Owned(cut(served, shard, shards, self.epochs[k]));
                }
                Cow::Borrowed(served)
            }
            State::Parts(parts) => {
                parts[k].settle();
                Cow::Borrowed(&parts[k])
            }
        }
    }

    /// Validates a mutation against the served state, with the conflict
    /// rules of [`LiveNetwork::apply`].
    pub(crate) fn check_global(&mut self, mutation: &Mutation) -> Result<(), ServeError> {
        mutation.check(self.served_unsettled().graph(), true)
    }

    /// Validates globally, assigns the next global epoch, and applies the
    /// mutation. On conflict nothing moves and no epoch is consumed —
    /// exactly [`LiveNetwork::apply`] semantics.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<Epoch, ServeError> {
        self.check_global(mutation)?;
        self.apply_checked(self.next_global + 1, mutation)?;
        Ok(self.next_global)
    }

    /// Applies a mutation that already carries its global epoch — the
    /// redo path (per-shard recovery resume, and the epoch-vector tests,
    /// which replay per-shard streams in arbitrary interleavings). The
    /// served state takes it at the next global epoch if it applies there;
    /// otherwise its owner's partition takes it shard-locally, the served
    /// state cut into partitions first (on one shard, it is the partition),
    /// which holds them all beside it for a moment: about twice the state.
    /// A resume that redoes before it reads never gets there.
    pub fn apply_at(&mut self, global: Epoch, mutation: &Mutation) -> Result<(), ServeError> {
        let shards = self.shards();
        if let State::Served(served) = &mut self.state {
            if global == self.next_global + 1 && mutation.check(served.graph(), true).is_ok() {
                return self.apply_checked(global, mutation);
            }
            if shards > 1 {
                served.settle();
                let parts = (0..shards).map(|k| cut(served, k, shards, self.epochs[k as usize]));
                self.state = State::Parts(parts.collect());
            }
        }
        let owner = self.route(mutation) as usize;
        let partition = match &mut self.state {
            State::Served(served) => served,
            State::Parts(parts) => &mut parts[owner],
        };
        self.bases.apply(partition, global, mutation)?;
        self.epochs[owner] += 1;
        self.next_global = self.next_global.max(global);
        Ok(())
    }

    /// Applies a mutation [`ShardedNetwork::check_global`] accepted to the
    /// served state, unchecked, at the next global epoch `global`.
    pub(crate) fn apply_checked(
        &mut self,
        global: Epoch,
        mutation: &Mutation,
    ) -> Result<(), ServeError> {
        let key = self.bases.key(global, mutation);
        self.served_unsettled().apply_keyed(mutation, key);
        let owner = self.route(mutation) as usize;
        self.epochs[owner] += 1;
        self.next_global = global;
        Ok(())
    }

    /// The served state at the global epoch, merged from the partitions if
    /// the network holds them, and settled.
    pub(crate) fn view(&mut self) -> &LiveNetwork {
        let served = self.served_unsettled();
        served.settle();
        served
    }

    /// [`ShardedNetwork::view`], with its dead rows still in place.
    fn served_unsettled(&mut self) -> &mut LiveNetwork {
        if let State::Parts(parts) = &mut self.state {
            let _merge_span = self.tracer.span("shard.merge", Class::Physical);
            self.state = State::Served(merge(std::mem::take(parts), self.next_global));
        }
        let State::Served(served) = &mut self.state else {
            unreachable!("merged above")
        };
        served
    }

    /// The merged view: one [`LiveNetwork`] equal — snapshot-byte-equal —
    /// to what an unsharded network would hold after the same mutations.
    pub fn merged(&self) -> LiveNetwork {
        let mut copy = match &self.state {
            State::Served(served) => served.clone(),
            State::Parts(parts) => merge(parts.clone(), self.next_global),
        };
        copy.settle();
        copy
    }
}

/// Shard `shard`'s partition of the settled `served` state, at local epoch
/// `epoch` (see the module docs): the owned nodes that have a node row,
/// and the edges of owned sources, each with its row and key.
fn cut(served: &LiveNetwork, shard: u32, shards: u32, epoch: Epoch) -> LiveNetwork {
    let whole = served.graph();
    let mut graph = Graph::directed();
    let (mut node_rows, mut edge_rows) = (Vec::new(), Vec::new());
    for (id, attrs) in whole
        .nodes()
        .filter(|(id, _)| shard_of(id, shards) == shard)
    {
        if let Some(row) = served.node_row(id) {
            graph.add_node(id, attrs.clone());
            node_rows.push(row);
        }
        // Auto-creates each target the shard holds no node row of as a
        // ghost.
        for target in whole.successors_iter(id).expect("a listed node") {
            let attrs = whole.edge_attrs(id, target).expect("a listed edge");
            graph.add_edge(id, target, attrs.clone());
            edge_rows.extend(served.edge_row(id, target));
        }
    }
    node_rows.sort_unstable();
    edge_rows.sort_unstable();
    LiveNetwork::from_keyed_parts(
        graph,
        served.nodes().take(&node_rows).expect("rows of the frame"),
        served.edges().take(&edge_rows).expect("rows of the frame"),
        epoch,
        node_rows.iter().map(|&r| served.node_seqs()[r]).collect(),
        edge_rows.iter().map(|&r| served.edge_seqs()[r]).collect(),
    )
}

/// Merges one partition per shard into the served state at `global`,
/// consuming them: each is dropped once its graph is copied, so the merge
/// never holds two full graphs (the merged frames do sit beside theirs).
fn merge(mut parts: Vec<LiveNetwork>, global: Epoch) -> LiveNetwork {
    parts.iter_mut().for_each(LiveNetwork::settle);
    let (nodes, node_seqs) = merge_frames(parts.iter().map(|p| (p.nodes(), p.node_seqs())));
    let (edges, edge_seqs) = merge_frames(parts.iter().map(|p| (p.edges(), p.edge_seqs())));
    let shards = parts.len() as u32;
    let mut graph = Graph::directed();
    for (k, part) in parts.into_iter().enumerate() {
        for (id, attrs) in part.graph().nodes() {
            if shard_of(id, shards) as usize == k {
                graph.add_node(id, attrs.clone());
            }
        }
        // An endpoint no partition has added yet comes in attribute-less;
        // the partition that owns it adds its attributes later.
        for (u, v, attrs) in part.graph().edges() {
            graph.add_edge(u, v, attrs.clone());
        }
    }
    LiveNetwork::from_keyed_parts(graph, nodes, edges, global, node_seqs, edge_seqs)
}

/// K-way merges frames ascending by per-row key, returning the merged
/// frame and its keys. Keys are unique across partitions (each comes from
/// a distinct original row or a distinct global epoch), so the order is
/// total.
fn merge_frames<'a>(
    parts: impl Iterator<Item = (&'a DataFrame, &'a [u64])>,
) -> (DataFrame, Vec<u64>) {
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
    for &(_, pi, row) in &order {
        out.push_row(parts[pi].0.row(row).expect("row from enumerate"))
            .expect("all partitions share the schema");
    }
    (out, order.into_iter().map(|(seq, _, _)| seq).collect())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::snapshot::write_snapshot;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;
    use trafficgen::{evolve, generate, StreamConfig, TrafficConfig};

    fn workload() -> trafficgen::TrafficWorkload {
        generate(&TrafficConfig {
            nodes: 24,
            edges: 30,
            prefixes: 3,
            seed: 6,
        })
    }

    /// Every shard's partition of the settled `served` state, cut.
    fn cut_all(served: &LiveNetwork, shards: u32, epochs: &[Epoch]) -> Vec<LiveNetwork> {
        (0..shards)
            .map(|k| cut(served, k, shards, epochs[k as usize]))
            .collect()
    }

    /// Snapshot bytes and both key vectors: what a shard document holds.
    fn keyed_bytes(live: &LiveNetwork) -> (String, Vec<u64>, Vec<u64>) {
        (
            write_snapshot(live),
            live.node_seqs().to_vec(),
            live.edge_seqs().to_vec(),
        )
    }

    /// `part` without its orphan ghosts: nodes without a node row that no
    /// edge names.
    pub(crate) fn without_orphans(part: &LiveNetwork) -> LiveNetwork {
        let mut graph = part.graph().clone();
        let orphans: Vec<String> = graph
            .node_ids()
            .filter(|id| part.node_row(id).is_none())
            .filter(|id| graph.degree(id).unwrap() == 0)
            .map(str::to_string)
            .collect();
        for id in &orphans {
            graph.remove_node(id).unwrap();
        }
        LiveNetwork::from_keyed_parts(
            graph,
            part.nodes().clone(),
            part.edges().clone(),
            part.epoch(),
            part.node_seqs().to_vec(),
            part.edge_seqs().to_vec(),
        )
    }

    /// A seeded `evolve` stream over `w` with removal bursts, kept to the
    /// mutations an unsharded network takes in order. Returns the stream
    /// and that network.
    fn churned_stream(
        w: &trafficgen::TrafficWorkload,
        rng: &mut StdRng,
        events: usize,
    ) -> (Vec<Mutation>, LiveNetwork) {
        let mut reference = LiveNetwork::from_workload(w);
        let mut stream = Vec::new();
        let seed = rng.gen_range(0..1000);
        for event in &evolve(w, &StreamConfig { events, seed }) {
            let mut batch = vec![Mutation::from_event(&event.event)];
            // Now and then a burst drops a run of live edges.
            if rng.gen_bool(0.1) {
                for _ in 0..rng.gen_range(1..6) {
                    let rows = reference.edges().n_rows();
                    if rows == 0 {
                        break;
                    }
                    let row = rng.gen_range(0..rows);
                    let at = |column| reference.edges().value(row, column).unwrap().to_string();
                    batch.push(Mutation::RemoveEdge {
                        source: at("source"),
                        target: at("target"),
                    });
                    reference.apply(batch.last().unwrap()).unwrap();
                }
                let first = batch.remove(0);
                if reference.apply(&first).is_ok() {
                    batch.push(first);
                }
                stream.extend(batch);
                continue;
            }
            if reference.apply(&batch[0]).is_ok() {
                stream.extend(batch);
            }
        }
        (stream, reference)
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
            let mut net = ShardedNetwork::from_live(&live, shards).unwrap();
            assert_eq!(net.global_epoch(), live.epoch());
            let parts: Vec<LiveNetwork> =
                (0..shards).map(|k| net.partition(k).into_owned()).collect();
            let merged = merge(parts, net.global_epoch());
            assert_eq!(merged, live, "shards={shards}");
            assert_eq!(write_snapshot(&merged), reference, "shards={shards}");
            assert_eq!(write_snapshot(&net.merged()), reference, "shards={shards}");
        }
    }

    #[test]
    fn a_frame_row_no_shard_can_own_is_refused_when_sharded() {
        let live = LiveNetwork::from_workload(&workload());
        let mut nodes = live.nodes().clone();
        nodes
            .set_value(2, "id", netgraph::AttrValue::Int(7))
            .unwrap();
        let edges = live.edges().clone();
        let damaged = LiveNetwork::from_parts(live.graph().clone(), nodes, edges, 0);
        assert!(ShardedNetwork::from_live(&damaged, 1).is_ok());
        let err = ShardedNetwork::from_live(&damaged, 3).unwrap_err();
        assert_eq!(
            err,
            ServeError::Corrupt(
                "frame row 2: id is Int(7), want a string — cannot route it to a shard".to_string()
            )
        );
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
        let parts = (0..4).map(|k| net.partition(k).into_owned());
        assert_eq!(
            merge(parts.collect(), 0).graph().number_of_nodes(),
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

    /// The served state equals a fresh merge of its cut, snapshot bytes
    /// and keys included.
    fn assert_served_is_merged(net: &mut ShardedNetwork, context: &str) {
        let (shards, epochs, global) = (net.shards(), net.epoch_vector(), net.global_epoch());
        let served = net.view();
        let merged = merge(cut_all(served, shards, &epochs), global);
        assert!(*served == merged, "{context}");
        assert_eq!(keyed_bytes(served), keyed_bytes(&merged), "{context}");
    }

    #[test]
    fn a_checked_write_moves_the_served_state_and_its_shards_epoch() {
        let w = workload();
        let mut net = ShardedNetwork::from_live(&LiveNetwork::from_workload(&w), 3).unwrap();
        let before = net.view().substrate_handles();
        let event = &evolve(&w, &StreamConfig { events: 1, seed: 4 })[0];
        let mutation = Mutation::from_event(&event.event);
        let k = net.route(&mutation);
        net.apply(&mutation).unwrap();
        // The write moved the served state in place and its owner's epoch,
        // and left no partition behind.
        assert!(!matches!(net.state, State::Parts(_)));
        assert_eq!(net.view().substrate_handles(), before);
        assert_eq!(net.local_epoch(k), 1);
        assert_eq!(net.epoch_vector().iter().sum::<u64>(), 1);
        // Its owner's partition, cut at install, holds it.
        assert_eq!(net.partition(k).epoch(), 1);
        assert_served_is_merged(&mut net, "after the write");
    }

    /// A write-only, remove-heavy stream with no read and no snapshot:
    /// nothing but the bound on dead rows settles, and the served state
    /// never holds more dead edge rows than live ones.
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
            let served = |net: &ShardedNetwork| match &net.state {
                State::Served(served) => served.dead_edge_rows(),
                State::Parts(_) => unreachable!("checked writes never leave parts"),
            };
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
                let before = served(&net);
                net.apply(&mutation).unwrap();
                let dead = served(&net);
                let live_edges = reference.graph().number_of_edges();
                assert!(
                    dead <= live_edges,
                    "shards={shards} write {i}: {dead} dead, {live_edges} live"
                );
                most_dead = most_dead.max(dead);
                bound_settles += usize::from(dead < before);
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
            assert!(!matches!(net.state, State::Parts(_)), "event {i}");
            assert_eq!(net.view().substrate_handles(), before, "event {i}");
            assert_served_is_merged(&mut net, &format!("in order, event {i}"));
        }

        // Below the global epoch: two records of different shards swapped.
        // The first skips an epoch, the second lands below the global one;
        // each leaves parts, and the next read merges them.
        let j = (0..stream.len() - 1)
            .find(|&j| net.route(&stream[j]) != net.route(&stream[j + 1]))
            .expect("consecutive records on different shards");
        let mut net = ShardedNetwork::from_live(&live, 3).unwrap();
        for (i, mutation) in stream[..j].iter().enumerate() {
            net.apply_at(i as u64 + 1, mutation).unwrap();
        }
        for global in [j + 2, j + 1] {
            net.apply_at(global as u64, &stream[global - 1]).unwrap();
            assert!(matches!(net.state, State::Parts(_)), "global {global}");
            assert_served_is_merged(&mut net, &format!("out of order, global {global}"));
        }
        for (i, mutation) in stream.iter().enumerate().skip(j + 2) {
            net.apply_at(i as u64 + 1, mutation).unwrap();
            assert_served_is_merged(&mut net, &format!("after the swap, event {i}"));
        }

        // A redo that conflicts globally: its owner's partition takes the
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
        assert!(matches!(net.state, State::Parts(_)));
        assert_served_is_merged(&mut net, "a redo that conflicts globally");
    }

    /// The jagged resume the cut must survive: shard `j` redoes an edge
    /// `Y→X` before `X`'s owner redoes `AddNode X`. A read merges them in
    /// between, so the served graph holds `X` without a node row; the
    /// next out-of-order redo cuts it, and `AddNode X` must still apply.
    #[test]
    fn a_node_named_before_its_own_redo_is_no_real_node_of_any_cut() {
        let live = LiveNetwork::from_workload(&workload());
        let shards = 3;
        let x = "250.0.0.1".to_string();
        let owner = shard_of(&x, shards);
        let y = (0..live.nodes().n_rows())
            .map(|row| live.nodes().value(row, "id").unwrap().to_string())
            .find(|id| shard_of(id, shards) != owner)
            .expect("a node another shard owns");
        let add_node = Mutation::AddNode {
            id: x.clone(),
            prefix16: "250.0".into(),
            prefix24: "250.0.0".into(),
        };
        let add_edge = Mutation::AddEdge {
            source: y.clone(),
            target: x.clone(),
            bytes: 1,
            connections: 1,
            packets: 1,
        };
        let mut reference = live.clone();
        reference.apply(&add_node).unwrap();
        reference.apply(&add_edge).unwrap();
        let mut net = ShardedNetwork::from_live(&live, shards).unwrap();
        net.apply_at(2, &add_edge).unwrap();
        let served = net.view();
        assert!(served.graph().has_node(&x) && served.node_row(&x).is_none());
        for k in 0..shards {
            let partition = net.partition(k);
            assert_eq!(partition.node_row(&x), None, "shard {k}");
            let named = k == shard_of(&y, shards);
            assert_eq!(partition.graph().has_node(&x), named, "shard {k}");
        }
        net.apply_at(1, &add_node).unwrap();
        assert_eq!(keyed_bytes(net.view()).0, write_snapshot(&reference));
        assert_eq!(net.epoch_vector().iter().sum::<u64>(), 2);
    }

    proptest! {
        /// The cut and the merge are inverses: a served state cut into
        /// 1–5 shards merges back to itself, keys included, and the cut
        /// of a merge gives back each partition, less the ghosts no live
        /// edge names any more.
        #[test]
        fn cut_and_merge_are_inverses(seed in 0u64..u64::MAX, shards in 1u32..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = generate(&TrafficConfig {
                nodes: 16,
                edges: 24,
                prefixes: 2,
                seed: rng.gen_range(0..1000),
            });
            let (stream, reference) = churned_stream(&w, &mut rng, 60);
            let mut net = ShardedNetwork::from_live(&LiveNetwork::from_workload(&w), shards).unwrap();
            // Partitions built the way recovery builds them: each shard's
            // genesis cut, its own records applied shard-locally.
            let (bases, epochs) = (net.bases(), net.epoch_vector());
            let mut parts = cut_all(net.view(), shards, &epochs);
            for (i, mutation) in stream.iter().enumerate() {
                net.apply(mutation).unwrap();
                let owner = net.route(mutation) as usize;
                bases.apply(&mut parts[owner], i as u64 + 1, mutation).unwrap();
            }
            parts.iter_mut().for_each(LiveNetwork::settle);
            let (epochs, global) = (net.epoch_vector(), net.global_epoch());
            let served = net.view();
            prop_assert!(*served == reference);
            let merged = merge(cut_all(served, shards, &epochs), global);
            prop_assert_eq!(keyed_bytes(&merged), keyed_bytes(served));
            let merged = merge(parts.clone(), global);
            prop_assert_eq!(keyed_bytes(&merged), keyed_bytes(served));
            for (k, cut) in cut_all(&merged, shards, &epochs).iter().enumerate() {
                prop_assert_eq!(cut.epoch(), parts[k].epoch());
                let want = keyed_bytes(&without_orphans(&parts[k]));
                prop_assert!(keyed_bytes(cut) == want, "shard {k} of {shards}");
            }
        }
    }

    proptest! {
        /// Per-shard streams redone in a seeded interleaving, out of order,
        /// with reads and installs at random points between them, all
        /// apply, and each install's partition is the one its shard alone
        /// would hold, less orphan ghosts. Each interleaving ends where
        /// the unsharded network does.
        #[test]
        fn redos_interleaved_with_reads_and_installs_reach_the_reference(
            seed in 0u64..u64::MAX,
            shards in 2u32..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = generate(&TrafficConfig {
                nodes: 12,
                edges: 16,
                prefixes: 2,
                seed: rng.gen_range(0..1000),
            });
            let (stream, reference) = churned_stream(&w, &mut rng, 50);
            let mut net = ShardedNetwork::from_live(&LiveNetwork::from_workload(&w), shards).unwrap();
            let (bases, epochs) = (net.bases(), net.epoch_vector());
            let mut models = cut_all(net.view(), shards, &epochs);
            let mut queues = vec![VecDeque::new(); shards as usize];
            for (i, mutation) in stream.iter().enumerate() {
                queues[net.route(mutation) as usize].push_back((i as u64 + 1, mutation));
            }
            while queues.iter().any(|q| !q.is_empty()) {
                let open: Vec<usize> = (0..queues.len()).filter(|&k| !queues[k].is_empty()).collect();
                let k = open[rng.gen_range(0..open.len())];
                let (global, mutation) = queues[k].pop_front().unwrap();
                net.apply_at(global, mutation).unwrap();
                bases.apply(&mut models[k], global, mutation).unwrap();
                match rng.gen_range(0..4) {
                    0 => {
                        net.view();
                    }
                    1 => {
                        let shard = rng.gen_range(0..shards);
                        let model = &mut models[shard as usize];
                        model.settle();
                        let partition = net.partition(shard);
                        prop_assert_eq!(partition.epoch(), model.epoch());
                        prop_assert!(
                            keyed_bytes(&without_orphans(&partition))
                                == keyed_bytes(&without_orphans(model)),
                            "shard {shard} of {shards}"
                        );
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(net.epoch_vector().iter().sum::<u64>(), stream.len() as u64);
            prop_assert_eq!(write_snapshot(net.view()), write_snapshot(&reference));
        }
    }
}
