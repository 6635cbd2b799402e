//! The compiled-program / answer cache — the serving loop's headline
//! throughput win.
//!
//! Two levels, both keyed by `(query text, backend)`:
//!
//! * **Programs** — the code the LLM wrote for a query. The NL→code
//!   mapping does not depend on network state, so programs survive
//!   mutations: after the first request, no query ever pays for the LLM
//!   again.
//! * **Answers** — the rendered outcome of running a program, stamped with
//!   the epoch it was computed at. A mutation bumps the epoch and thereby
//!   invalidates every cached answer: the first answer stored at a newer
//!   epoch drops them all, so the level never holds more than one epoch's
//!   worth. The cached *program* is re-executed against the current state
//!   instead, skipping the LLM and the prompt entirely.
//!
//! Only the answer *value* and its pre-rendered text are retained — the
//! post-execution network state is dropped at insertion, so a long-lived
//! cache never pins whole network copies.

use crate::mutation::Epoch;
use nemo_core::{Backend, Outcome, OutputValue};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// How a query request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answer cache hit at the current epoch: no LLM, no compile, no
    /// execution.
    AnswerHit,
    /// Program cache hit: the stored program was re-executed against the
    /// current state (the answer cache was stale or empty).
    ProgramHit,
    /// Full miss: prompt → LLM → sandbox.
    Miss,
}

impl CacheOutcome {
    /// Short transcript tag.
    pub fn tag(&self) -> &'static str {
        match self {
            CacheOutcome::AnswerHit => "hit",
            CacheOutcome::ProgramHit => "code",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Answer-cache hits (current epoch).
    pub answer_hits: u64,
    /// Program-cache hits (answer stale or absent).
    pub program_hits: u64,
    /// Full misses.
    pub misses: u64,
    /// Stale answers dropped by epoch invalidation: on lookup, or when an
    /// answer from a newer epoch is stored.
    pub invalidated: u64,
    /// Programs evicted: FIFO displacement at capacity, plus explicit
    /// [`ProgramCache::evict_program`] drops of failing programs.
    pub evictions: u64,
}

struct CachedAnswer {
    epoch: Epoch,
    /// The answer value; `None` for a negatively cached error reply (the
    /// request failed at this epoch; retried only after the next mutation
    /// invalidates it).
    value: Option<Arc<OutputValue>>,
    /// Pre-rendered answer text, so a hit does not re-render (table
    /// outcomes render in O(rows)).
    rendered: Arc<str>,
}

/// What a lookup found.
pub enum Lookup {
    /// A current-epoch answer: the value (`None` for a negatively cached
    /// error) and its pre-rendered text, both shared — an answer hit
    /// allocates nothing but refcounts.
    Answer(Option<Arc<OutputValue>>, Arc<str>),
    /// A program to re-execute.
    Program(String),
    /// Nothing cached.
    Miss,
}

/// The two-level cache. Both levels nest by backend first so lookups
/// probe with the borrowed query text — no per-request key allocation.
#[derive(Default)]
pub struct ProgramCache {
    programs: HashMap<Backend, HashMap<String, String>>,
    answers: HashMap<Backend, HashMap<String, CachedAnswer>>,
    /// The newest epoch of any stored answer.
    answers_epoch: Epoch,
    /// Program keys in insertion order — the deterministic eviction queue
    /// when `capacity` bounds the program level.
    order: VecDeque<(Backend, String)>,
    /// Maximum stored programs across all backends; 0 is unbounded.
    capacity: usize,
    stats: CacheStats,
}

impl ProgramCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// An empty cache holding at most `capacity` programs (0 = unbounded).
    /// When full, the oldest-**inserted** program is evicted first — FIFO,
    /// not LRU, because eviction order must not depend on the query
    /// arrival interleaving if transcripts are to stay deterministic.
    pub fn with_capacity(capacity: usize) -> Self {
        ProgramCache {
            capacity,
            ..ProgramCache::default()
        }
    }

    /// Looks up a query at the current epoch, maintaining hit/miss/eviction
    /// counters. A stale answer is evicted here; the program level is
    /// consulted next.
    pub fn lookup(&mut self, query: &str, backend: Backend, epoch: Epoch) -> Lookup {
        if let Some(per_backend) = self.answers.get_mut(&backend) {
            if let Some(cached) = per_backend.get(query) {
                if cached.epoch == epoch {
                    self.stats.answer_hits += 1;
                    return Lookup::Answer(cached.value.clone(), Arc::clone(&cached.rendered));
                }
                per_backend.remove(query);
                self.stats.invalidated += 1;
            }
        }
        if let Some(program) = self.programs.get(&backend).and_then(|m| m.get(query)) {
            self.stats.program_hits += 1;
            return Lookup::Program(program.clone());
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Stores the program the LLM wrote for a query, evicting the
    /// oldest-inserted program first when the cache is at capacity.
    pub fn insert_program(&mut self, query: &str, backend: Backend, program: String) {
        let fresh = self
            .programs
            .entry(backend)
            .or_default()
            .insert(query.to_string(), program)
            .is_none();
        if fresh {
            self.order.push_back((backend, query.to_string()));
            if self.capacity > 0 && self.order.len() > self.capacity {
                if let Some((old_backend, old_query)) = self.order.pop_front() {
                    if let Some(per_backend) = self.programs.get_mut(&old_backend) {
                        per_backend.remove(&old_query);
                        self.stats.evictions += 1;
                    }
                }
            }
        }
    }

    /// Stores an answer computed at `epoch`, pre-rendering its reply text
    /// and dropping the post-execution state (which may share the live
    /// substrates). Returns the rendered text, so the caller replies
    /// without rendering the value a second time.
    pub fn insert_answer(
        &mut self,
        query: &str,
        backend: Backend,
        epoch: Epoch,
        outcome: Outcome,
    ) -> Arc<str> {
        let rendered: Arc<str> = outcome.value.render().into();
        self.store_answer(
            query,
            backend,
            CachedAnswer {
                epoch,
                value: Some(Arc::new(outcome.value)),
                rendered: Arc::clone(&rendered),
            },
        );
        rendered
    }

    /// Negatively caches an error reply at `epoch`: the same request at the
    /// same state serves the same error without re-running anything; the
    /// next mutation invalidates it and the request is retried for real.
    pub fn insert_error(&mut self, query: &str, backend: Backend, epoch: Epoch, rendered: &str) {
        self.store_answer(
            query,
            backend,
            CachedAnswer {
                epoch,
                value: None,
                rendered: rendered.into(),
            },
        );
    }

    /// Stores one answer. An answer is only ever served at its own epoch,
    /// so the first one stored at a newer epoch than every held answer
    /// drops them all: none of them can hit again.
    fn store_answer(&mut self, query: &str, backend: Backend, answer: CachedAnswer) {
        if answer.epoch > self.answers_epoch {
            for per_backend in self.answers.values_mut() {
                self.stats.invalidated += per_backend.len() as u64;
                per_backend.clear();
            }
            self.answers_epoch = answer.epoch;
        }
        self.answers
            .entry(backend)
            .or_default()
            .insert(query.to_string(), answer);
    }

    /// Drops a cached program. Used when a stored program stops executing
    /// cleanly against the current state: keeping it would replay the same
    /// failure forever, whereas evicting makes the next request after
    /// invalidation a full miss — a real retry through the model.
    pub fn evict_program(&mut self, query: &str, backend: Backend) {
        if let Some(per_backend) = self.programs.get_mut(&backend) {
            if per_backend.remove(query).is_some() {
                self.order.retain(|(b, q)| !(*b == backend && q == query));
                self.stats.evictions += 1;
            }
        }
    }

    /// The cached program for a query, if any.
    pub fn program(&self, query: &str, backend: Backend) -> Option<&str> {
        self.programs
            .get(&backend)
            .and_then(|m| m.get(query))
            .map(String::as_str)
    }

    /// The counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_core::{NetworkState, ScriptValue};
    use netgraph::Graph;

    fn outcome(n: i64) -> Outcome {
        Outcome {
            value: OutputValue::Script(ScriptValue::Int(n)),
            state: NetworkState::Graph(Graph::directed().into()),
            printed: Vec::new(),
        }
    }

    #[test]
    fn answers_invalidate_by_epoch_programs_survive() {
        let mut cache = ProgramCache::new();
        assert!(matches!(cache.lookup("q", Backend::Sql, 0), Lookup::Miss));
        cache.insert_program("q", Backend::Sql, "SELECT 1".to_string());
        cache.insert_answer("q", Backend::Sql, 0, outcome(1));
        match cache.lookup("q", Backend::Sql, 0) {
            Lookup::Answer(value, rendered) => {
                assert!(value.unwrap().approx_eq(&outcome(1).value));
                assert_eq!(&*rendered, "1");
            }
            _ => panic!("expected answer hit"),
        }
        // Epoch moved: the answer is stale, the program still serves.
        match cache.lookup("q", Backend::Sql, 3) {
            Lookup::Program(p) => assert_eq!(p, "SELECT 1"),
            _ => panic!("expected program hit"),
        }
        // Backends are separate key spaces.
        assert!(matches!(
            cache.lookup("q", Backend::Pandas, 3),
            Lookup::Miss
        ));
        let stats = cache.stats();
        assert_eq!(stats.answer_hits, 1);
        assert_eq!(stats.program_hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidated, 1);
        assert_eq!(cache.program("q", Backend::Sql), Some("SELECT 1"));
    }

    #[test]
    fn errors_are_negatively_cached_per_epoch() {
        let mut cache = ProgramCache::new();
        cache.insert_error("q", Backend::Sql, 2, "error: no such column");
        match cache.lookup("q", Backend::Sql, 2) {
            Lookup::Answer(value, rendered) => {
                assert!(value.is_none());
                assert_eq!(&*rendered, "error: no such column");
            }
            _ => panic!("expected negative answer hit"),
        }
        // The next epoch invalidates the error; with no program cached the
        // request becomes a full miss (a real retry).
        assert!(matches!(cache.lookup("q", Backend::Sql, 3), Lookup::Miss));
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn a_newer_epoch_drops_every_older_answer() {
        let mut cache = ProgramCache::new();
        let backends = [Backend::Sql, Backend::Pandas, Backend::NetworkX];
        let mut stored = 0;
        for epoch in 0..50u64 {
            let query = format!("q{epoch}");
            let backend = backends[epoch as usize % backends.len()];
            cache.insert_answer(&query, backend, epoch, outcome(epoch as i64));
            stored += 1;
            if epoch % 7 == 3 {
                cache.insert_error("e", backend, epoch, "error: retry");
                stored += 1;
            }
        }
        // Only epoch 49's answer is left; every older one was dropped once
        // and counted.
        let held: usize = cache.answers.values().map(HashMap::len).sum();
        assert_eq!(held, 1);
        assert_eq!(cache.stats().invalidated, stored - 1);
        assert!(matches!(
            cache.lookup("q49", Backend::Pandas, 49),
            Lookup::Answer(..)
        ));
        // An older query at the current epoch finds nothing to serve.
        assert!(matches!(
            cache.lookup("q48", Backend::Sql, 49),
            Lookup::Miss
        ));
        assert_eq!(cache.stats().invalidated, stored - 1);
    }

    #[test]
    fn bounded_caches_evict_the_oldest_program_first() {
        let mut cache = ProgramCache::with_capacity(2);
        cache.insert_program("a", Backend::Sql, "A".to_string());
        cache.insert_program("b", Backend::Sql, "B".to_string());
        // Re-inserting an existing key must not count as a new entry.
        cache.insert_program("a", Backend::Sql, "A2".to_string());
        cache.insert_program("c", Backend::Sql, "C".to_string());
        // "a" was the oldest *insertion*; it goes first despite the update.
        assert_eq!(cache.program("a", Backend::Sql), None);
        assert_eq!(cache.program("b", Backend::Sql), Some("B"));
        assert_eq!(cache.program("c", Backend::Sql), Some("C"));
        assert_eq!(cache.stats().evictions, 1, "FIFO displacement counts");
        // Manual eviction frees a slot rather than leaking a ghost entry.
        cache.evict_program("b", Backend::Sql);
        assert_eq!(cache.stats().evictions, 2, "explicit eviction counts");
        cache.insert_program("d", Backend::Sql, "D".to_string());
        assert_eq!(cache.program("c", Backend::Sql), Some("C"));
        assert_eq!(cache.program("d", Backend::Sql), Some("D"));
        assert_eq!(cache.stats().evictions, 2);
    }
}
