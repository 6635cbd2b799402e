//! Pins what the 48 GraphScript golden programs (24 traffic queries, each
//! in its NetworkX and pandas form) compute on a small evolved network:
//! the detached result value, the printed lines, the interpreter steps
//! charged against the sandbox budget and the state the program leaves.
//! A change to the interpreter's value model must keep every one of them.

use graphscript::{Interpreter, Value};
use nemo_bench::traffic_queries;
use nemo_core::llm::hash_parts;
use nemo_core::sandbox::SANDBOX_STEP_LIMIT;
use nemo_core::{Backend, NetworkState, ScriptValue};
use nemo_serve::LiveNetwork;
use trafficgen::{evolve, generate, StreamConfig, TrafficConfig};

/// FNV-1a of every program's rendering, in query order.
const PINNED: u64 = 0xe968_6650_2d52_15f6;

fn evolved_network() -> LiveNetwork {
    let workload = generate(&TrafficConfig {
        nodes: 60,
        edges: 180,
        prefixes: 4,
        seed: 21,
    });
    let mut live = LiveNetwork::from_workload(&workload);
    for event in evolve(
        &workload,
        &StreamConfig {
            events: 150,
            seed: 8,
        },
    ) {
        live.apply_event(&event).expect("evolve emits valid events");
    }
    live
}

fn render_value(value: &ScriptValue) -> String {
    match value {
        ScriptValue::Frame(df) => dataframe::csv::to_csv(df),
        ScriptValue::Graph(g) => netgraph::json::graph_to_json(g),
        other => other.to_string(),
    }
}

fn render_global(interp: &Interpreter, name: &str) -> String {
    match interp.global(name) {
        Some(Value::Graph(g)) => netgraph::json::graph_to_json(&g.borrow()),
        Some(Value::Frame(df)) => dataframe::csv::to_csv(&df.borrow()),
        other => panic!("global {name} is {other:?}"),
    }
}

/// Runs `program` the way the sandbox does and renders everything it
/// produced.
fn run(backend: Backend, program: &str, state: &NetworkState) -> String {
    let mut interp = Interpreter::new().with_step_limit(SANDBOX_STEP_LIMIT);
    let globals: &[&str] = match state {
        NetworkState::Graph(g) => {
            interp.set_global("G", Value::graph(std::sync::Arc::clone(g)));
            &["G"]
        }
        NetworkState::Frames { nodes, edges } => {
            interp.set_global("nodes", Value::frame(std::sync::Arc::clone(nodes)));
            interp.set_global("edges", Value::frame(std::sync::Arc::clone(edges)));
            &["nodes", "edges"]
        }
        NetworkState::Database(_) => unreachable!("{backend} is not a GraphScript backend"),
    };
    let mut out = match interp.run(program) {
        Ok(run) => format!(
            "value={}\nprinted={:?}\n",
            render_value(&ScriptValue::from(&run.value)),
            run.output
        ),
        Err(e) => format!("error={e}\n"),
    };
    out.push_str(&format!("steps={}\n", interp.steps()));
    for name in globals {
        out.push_str(&render_global(&interp, name));
    }
    out
}

#[test]
fn golden_graphscript_programs_keep_value_output_steps_and_state() {
    let live = evolved_network();
    let mut renderings = Vec::new();
    for query in traffic_queries() {
        for backend in [Backend::NetworkX, Backend::Pandas] {
            let program = query.golden_program(backend).expect("code backend");
            let rendering = run(backend, program, &live.state(backend));
            assert!(
                !rendering.starts_with("error="),
                "{} {backend}: {rendering}",
                query.id
            );
            renderings.push(format!("{} {backend}\n{rendering}", query.id));
        }
    }
    assert_eq!(renderings.len(), 48);
    let parts: Vec<&str> = renderings.iter().map(String::as_str).collect();
    let digest = hash_parts(&parts);
    let summary: Vec<String> = renderings
        .iter()
        .map(|r| {
            let head = r.lines().next().unwrap_or_default();
            let steps = r.lines().find(|l| l.starts_with("steps=")).unwrap_or("");
            format!("{head} {steps} {:016x}", hash_parts(&[r]))
        })
        .collect();
    assert_eq!(
        digest,
        PINNED,
        "digest {digest:#x}; per program:\n{}",
        summary.join("\n")
    );
}
