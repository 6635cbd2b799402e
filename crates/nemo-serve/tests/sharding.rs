//! Sharding semantics: any interleaving of per-shard applies yields a
//! consistent cut (the merged view equals the unsharded state at the same
//! global epoch). The end-to-end halves — shard-count-invariant
//! transcripts and per-shard crash/resume — run the sharded driver, so
//! they live with it in the `bench` crate.

use nemo_serve::snapshot::write_snapshot;
use nemo_serve::{LiveNetwork, Mutation, ShardedNetwork};
use proptest::prelude::*;
use trafficgen::{evolve, generate, StreamConfig, TimedEvent, TrafficConfig};

fn base_workload() -> trafficgen::TrafficWorkload {
    generate(&TrafficConfig {
        nodes: 16,
        edges: 22,
        prefixes: 2,
        seed: 3,
    })
}

fn stream(events: usize, seed: u64) -> Vec<TimedEvent> {
    evolve(&base_workload(), &StreamConfig { events, seed })
}

proptest! {
    /// Any cross-shard interleaving that preserves each shard's own order
    /// reaches a consistent cut: after applying all records with global
    /// epoch `<= g` (in a seed-chosen interleaving), the epoch vector sums
    /// to `g`, the global epoch is `g`, and the merged view is
    /// snapshot-byte-equal to an unsharded network that applied the same
    /// prefix in order.
    #[test]
    fn interleaved_applies_reach_a_consistent_cut(
        seed in 0u64..200,
        cut in 1usize..30,
        shards in 2u32..5,
    ) {
        let events = stream(30, 5);
        let base = LiveNetwork::from_workload(&base_workload());

        // The unsharded reference at global epoch `cut`.
        let mut reference = base.clone();
        for timed in &events[..cut] {
            reference.apply_event(timed).unwrap();
        }

        // Queue each record (with its global epoch) at its owner shard.
        let mut net = ShardedNetwork::from_live(&base, shards).unwrap();
        let mut queues: Vec<std::collections::VecDeque<(u64, TimedEvent)>> =
            vec![Default::default(); shards as usize];
        for (i, timed) in events[..cut].iter().enumerate() {
            let mutation = Mutation::from_event(&timed.event);
            queues[net.route(&mutation) as usize].push_back((i as u64 + 1, timed.clone()));
        }
        // Drain the queues in a seed-chosen cross-shard interleaving.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        while queues.iter().any(|q| !q.is_empty()) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let nonempty: Vec<usize> = (0..queues.len())
                .filter(|&k| !queues[k].is_empty())
                .collect();
            let k = nonempty[(state as usize) % nonempty.len()];
            let (global, timed) = queues[k].pop_front().unwrap();
            net.apply_at(global, &Mutation::from_event(&timed.event))
                .unwrap();
        }

        prop_assert_eq!(net.global_epoch(), cut as u64);
        prop_assert_eq!(net.epoch_vector().iter().sum::<u64>(), cut as u64);
        prop_assert_eq!(write_snapshot(&net.merged()), write_snapshot(&reference));
    }
}
