//! Logical metrics are pure functions of the request stream: the
//! `nemo-metrics/v1` logical subset of a multi-client durability run must
//! be byte-identical at any worker count. (The shard-count half of the
//! invariant is `nemo-serve`'s own `metrics_determinism` suite.)

use bench::driver::{run, DurabilityConfig};
use nemo_obs::Registry;
use nemo_serve::{FsyncPolicy, PersistOptions};
use trafficgen::TrafficConfig;

#[test]
fn logical_metrics_are_thread_invariant() {
    // The multi-client durability driver fans clients out over the worker
    // pool; every client's server records into the same shared registry.
    // The logical subset must not notice the worker count.
    let doc_at = |threads: usize, tag: &str| {
        let registry = Registry::new();
        let config = DurabilityConfig {
            traffic: TrafficConfig {
                nodes: 14,
                edges: 18,
                prefixes: 2,
                seed: 7,
            },
            clients: 3,
            events: 12,
            queries: 2,
            seed: 11,
            options: PersistOptions {
                fsync: FsyncPolicy::Never,
                registry: registry.clone(),
                ..PersistOptions::default()
            },
        };
        let dir = std::env::temp_dir().join(format!(
            "nemo-metrics-determinism-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (transcript, crashed) = run(&config, &dir, threads, None).expect("run");
        assert!(!crashed);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        (transcript, registry.snapshot().logical_only().to_json())
    };
    let (transcript_1, logical_1) = doc_at(1, "t1");
    let (transcript_4, logical_4) = doc_at(4, "t4");
    assert_eq!(
        transcript_1, transcript_4,
        "transcripts are thread-invariant"
    );
    assert_eq!(logical_1, logical_4, "logical metrics are thread-invariant");
    // The logical subset actually saw traffic: the query round routes
    // through the typed serving path.
    assert!(logical_1.contains("serve_queries_answered"));
    assert!(!logical_1.contains("pool_"), "pool metrics are physical");
    assert!(!logical_1.contains("store_"), "store metrics are physical");
}
