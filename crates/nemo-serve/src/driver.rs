//! The model knowledge every serving driver and benchmark hands its
//! simulated clients.

use nemo_bench::traffic_queries;
use nemo_core::llm::{CodeKnowledge, KnownTask};

/// The knowledge base a serving model needs: every traffic query's golden
/// programs, straight from the benchmark specs. Unlike the accuracy
/// benchmark, no golden *outcomes* are executed up front — the serving
/// layer computes answers live — so this is cheap to build per client.
pub fn serving_knowledge() -> CodeKnowledge {
    CodeKnowledge::new(
        traffic_queries()
            .into_iter()
            .map(|spec| KnownTask {
                id: spec.id.to_string(),
                query: spec.text.to_string(),
                application: spec.application,
                complexity: spec.complexity,
                programs: spec.programs(),
                direct_answer: String::new(),
            })
            .collect(),
    )
}
