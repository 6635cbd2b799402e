//! Request-scoped trace trees: causal spans through the serving stack.
//!
//! A [`Tracer`] mints one trace per request ([`Tracer::begin`]) and
//! collects the spans opened while that trace is active on the calling
//! thread ([`Tracer::span`]) into a tree: every span records its parent,
//! its [`Class`], and timestamps relative to the trace's start. Completed
//! traces land in a bounded flight recorder (ring buffer, oldest evicted
//! first with a drop counter) plus, when the root span exceeds the slow
//! threshold, a separate slow-request log that survives ring eviction.
//!
//! # Hot-path cost
//!
//! A disabled tracer (the default) costs one `Acquire` load per
//! [`Tracer::begin`]/[`Tracer::span`] call — the same discipline as the
//! registry's event log. An enabled tracer records spans into
//! thread-local state: opening and closing a span touches no lock and
//! allocates nothing (span names are `&'static str`); the only `Mutex`
//! is taken once per completed trace, when it retires into the ring.
//!
//! # Determinism classing
//!
//! Every span carries a [`Class`]. The trace *skeleton* — span names,
//! parent/child structure, per-request span counts, causal order — of the
//! [`Class::Logical`] subset is a pure function of the request stream and
//! must be byte-identical across `NEMO_THREADS` and shard counts
//! ([`Tracer::logical_skeletons`] renders exactly that subset, parents
//! remapped to the nearest logical ancestor, all timing stripped).
//! Timestamps, durations, and [`Class::Physical`] spans vary run to run
//! and are excluded.
//!
//! # Exposition
//!
//! [`Tracer::to_doc`] renders the flight recorder as a canonical
//! `nemo-trace/v1` JSON document; [`Tracer::to_chrome`] renders the same
//! traces as a Chrome trace-event (`chrome://tracing` / Perfetto
//! `traceEvents`) document.

use crate::{json_string, Class};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The schema tag every trace document carries.
pub const TRACE_SCHEMA: &str = "nemo-trace/v1";

mod clock {
    //! Nanosecond ticks for the span hot path. A span open/close records
    //! one raw monotonic read; the division down to microseconds is
    //! deferred to trace retirement, off the per-span path.
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Monotonic nanoseconds since the first call in this process.
    #[inline]
    pub fn ticks() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let epoch = *EPOCH.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Converts a tick (nanosecond) delta to whole microseconds.
    pub fn micros(delta_ticks: u64) -> u64 {
        delta_ticks / 1_000
    }
}

/// One completed (or defensively closed) span inside a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// 1-based id, unique within the trace; the root span is id 1.
    pub span_id: u64,
    /// The parent span's id, or `None` for the root.
    pub parent_id: Option<u64>,
    /// The span's name (e.g. `request.mutate`, `wal.log`). Static so an
    /// enabled span open never allocates.
    pub name: &'static str,
    /// Determinism class: logical spans form the comparable skeleton.
    pub class: Class,
    /// Microseconds from the trace's start to this span's open.
    pub start_micros: u64,
    /// Microseconds from this span's open to its close.
    pub duration_micros: u64,
    /// Error cause attached via [`Tracer::tag_error`], if any.
    pub error: Option<String>,
}

/// One completed trace tree, spans in open (causal) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// 1-based id, unique per tracer, assigned at [`Tracer::begin`].
    pub trace_id: u64,
    /// Microseconds from the tracer's creation to this trace's start
    /// (physical; anchors the Chrome export's absolute timeline).
    pub base_micros: u64,
    /// The spans, in the order they were opened. The root is first.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Renders the trace as a canonical JSON object (keys sorted).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"base_micros\":{},\"spans\":[", self.base_micros);
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"class\":\"{}\",\"duration_micros\":{}",
                span.class.as_str(),
                span.duration_micros
            );
            if let Some(error) = &span.error {
                let _ = write!(out, ",\"error\":{}", json_string(error));
            }
            let _ = write!(out, ",\"name\":{},\"parent_id\":", json_string(span.name));
            match span.parent_id {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"span_id\":{},\"start_micros\":{}}}",
                span.span_id, span.start_micros
            );
        }
        let _ = write!(out, "],\"trace_id\":{}}}", self.trace_id);
        out
    }

    /// The logical skeleton: one line per [`Class::Logical`] span, names
    /// only, indented by logical depth (physical ancestors collapse onto
    /// the nearest logical one), no ids and no timing. Root spans are
    /// logical by construction, so every trace renders at least one line.
    pub fn logical_skeleton(&self) -> String {
        // child_depth[i]: the indent a child of span i renders at — the
        // span's own logical depth plus one when the span is logical.
        let mut child_depth: HashMap<u64, usize> = HashMap::new();
        let mut out = String::new();
        for span in &self.spans {
            let depth = span
                .parent_id
                .and_then(|p| child_depth.get(&p).copied())
                .unwrap_or(0);
            if span.class == Class::Logical {
                for _ in 0..depth {
                    out.push_str("  ");
                }
                out.push_str(span.name);
                out.push('\n');
                child_depth.insert(span.span_id, depth + 1);
            } else {
                child_depth.insert(span.span_id, depth);
            }
        }
        out
    }
}

#[derive(Debug)]
struct ActiveTrace {
    trace_id: u64,
    /// Tick count at the trace's start; span offsets are deltas from it.
    started_ticks: u64,
    /// Tick delta from the tracer's epoch to the trace's start.
    base_ticks: u64,
    /// While the trace is active, each span's `start_micros` and
    /// `duration_micros` hold raw tick deltas; [`Tracer::retire`]
    /// converts them to microseconds.
    spans: Vec<SpanRecord>,
    /// Indices (into `spans`) of the currently open spans, outermost
    /// first. The root stays open for the trace's whole life.
    stack: Vec<usize>,
}

impl ActiveTrace {
    fn finish_all(&mut self) {
        let elapsed = clock::ticks().wrapping_sub(self.started_ticks);
        for &i in self.stack.iter().rev() {
            let span = &mut self.spans[i];
            span.duration_micros = elapsed.saturating_sub(span.start_micros);
        }
        self.stack.clear();
    }
}

#[derive(Debug)]
struct TracerState {
    capacity: usize,
    completed: VecDeque<Trace>,
    slow: VecDeque<Trace>,
}

#[derive(Debug)]
struct TracerInner {
    /// Process-unique tracer id — the key into the thread-local active
    /// set (never reused, so a dropped tracer's stale entries can't
    /// alias a new one).
    id: u64,
    enabled: AtomicBool,
    epoch_ticks: u64,
    next_trace_id: AtomicU64,
    slow_threshold_micros: AtomicU64,
    dropped: AtomicU64,
    slow_total: AtomicU64,
    slow_dropped: AtomicU64,
    state: Mutex<TracerState>,
}

/// Allocator for [`TracerInner::id`].
static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's active traces, keyed by tracer id — normally zero
    /// or one entry, so a linear scan beats any map. Keeping the active
    /// trace thread-local is what makes span open/close lock-free: only
    /// trace retirement touches the shared ring.
    static ACTIVE: RefCell<Vec<(u64, ActiveTrace)>> = const { RefCell::new(Vec::new()) };
}

thread_local! {
    /// Recycled span/stack buffers: retirement reclaims the evicted
    /// trace's spans vector and the finished trace's stack, so a
    /// steady-state [`Tracer::begin`] allocates nothing.
    static SCRATCH: RefCell<Vec<(Vec<SpanRecord>, Vec<usize>)>> =
        const { RefCell::new(Vec::new()) };
}

/// The per-server flight recorder. Cloning shares the recorder; a
/// default tracer is disabled and records nothing.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, disabled tracer.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(false),
                epoch_ticks: clock::ticks(),
                next_trace_id: AtomicU64::new(1),
                slow_threshold_micros: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                slow_total: AtomicU64::new(0),
                slow_dropped: AtomicU64::new(0),
                state: Mutex::new(TracerState {
                    capacity: 256,
                    completed: VecDeque::new(),
                    slow: VecDeque::new(),
                }),
            }),
        }
    }

    /// Turns the recorder on, keeping at most `capacity` most-recent
    /// completed traces (and as many slow ones). `capacity == 0`
    /// disables.
    pub fn enable(&self, capacity: usize) {
        let mut state = self.inner.state.lock().expect("tracer lock");
        state.capacity = capacity;
        self.inner.enabled.store(capacity > 0, Ordering::Release);
    }

    /// A new recorder for one worker of a parallel run: enabled, sized
    /// and thresholded like this one, numbering its own traces. Give each
    /// worker a fork and [`Tracer::absorb`] the forks in a fixed worker
    /// order afterwards.
    pub fn fork(&self) -> Tracer {
        let fork = Tracer::new();
        let capacity = self.inner.state.lock().expect("tracer lock").capacity;
        fork.enable(if self.is_enabled() { capacity } else { 0 });
        fork.set_slow_threshold_micros(self.inner.slow_threshold_micros.load(Ordering::Relaxed));
        fork
    }

    /// Moves the traces `fork` completed into this recorder, oldest
    /// first, numbered after the ones already here, along with its drop
    /// and slow counts. Absorbing per-worker forks in worker order
    /// numbers every trace by its worker and its place in that worker's
    /// request order, however the workers interleaved in time.
    pub fn absorb(&self, fork: &Tracer) {
        let (completed, slow) = {
            let mut theirs = fork.inner.state.lock().expect("tracer lock");
            (
                std::mem::take(&mut theirs.completed),
                std::mem::take(&mut theirs.slow),
            )
        };
        // The fork's ids, evicted traces' included, become a block after
        // this tracer's own; start times (physical) move to its epoch.
        let begun = fork.inner.next_trace_id.load(Ordering::Relaxed) - 1;
        let offset = self.inner.next_trace_id.fetch_add(begun, Ordering::Relaxed) - 1;
        let shift = clock::micros(
            fork.inner
                .epoch_ticks
                .saturating_sub(self.inner.epoch_ticks),
        );
        let mut state = self.inner.state.lock().expect("tracer lock");
        let state = &mut *state;
        for (traces, into, dropped) in [
            (completed, &mut state.completed, &self.inner.dropped),
            (slow, &mut state.slow, &self.inner.slow_dropped),
        ] {
            for mut trace in traces {
                trace.trace_id += offset;
                trace.base_micros += shift;
                if into.len() + 1 > state.capacity {
                    into.pop_front();
                    dropped.fetch_add(1, Ordering::Relaxed);
                }
                into.push_back(trace);
            }
        }
        for (ours, theirs) in [
            (&self.inner.dropped, &fork.inner.dropped),
            (&self.inner.slow_total, &fork.inner.slow_total),
            (&self.inner.slow_dropped, &fork.inner.slow_dropped),
        ] {
            ours.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Whether the recorder is on.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    /// Traces whose root span meets or exceeds `micros` are additionally
    /// retained in the slow-request log. `0` (the default) disables the
    /// log.
    pub fn set_slow_threshold_micros(&self, micros: u64) {
        self.inner
            .slow_threshold_micros
            .store(micros, Ordering::Relaxed);
    }

    /// Completed traces evicted from the flight recorder so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Traces that ever crossed the slow threshold (including ones since
    /// evicted from the slow log).
    pub fn slow_total(&self) -> u64 {
        self.inner.slow_total.load(Ordering::Relaxed)
    }

    /// Starts a trace rooted at a [`Class::Logical`] span named `name`,
    /// bound to the calling thread until the guard drops. A still-active
    /// trace on this thread (a bug in the caller) is completed first
    /// rather than leaked.
    pub fn begin(&self, name: &'static str) -> TraceGuard {
        if !self.is_enabled() {
            return TraceGuard {
                tracer: self.clone(),
                trace_id: 0,
            };
        }
        let trace_id = self.inner.next_trace_id.fetch_add(1, Ordering::Relaxed);
        let started_ticks = clock::ticks();
        let base_ticks = started_ticks.wrapping_sub(self.inner.epoch_ticks);
        let (mut spans, mut stack) = SCRATCH.with(|s| s.borrow_mut().pop()).unwrap_or_default();
        spans.reserve(8);
        stack.reserve(8);
        spans.push(SpanRecord {
            span_id: 1,
            parent_id: None,
            name,
            class: Class::Logical,
            start_micros: 0,
            duration_micros: 0,
            error: None,
        });
        stack.push(0);
        ACTIVE.with(|cell| {
            let mut entries = cell.borrow_mut();
            if let Some(pos) = entries.iter().position(|(id, _)| *id == self.inner.id) {
                let (_, mut stale) = entries.swap_remove(pos);
                stale.finish_all();
                Self::retire(&self.inner, stale);
            }
            entries.push((
                self.inner.id,
                ActiveTrace {
                    trace_id,
                    started_ticks,
                    base_ticks,
                    spans,
                    stack,
                },
            ));
        });
        TraceGuard {
            tracer: self.clone(),
            trace_id,
        }
    }

    /// Opens a child span under the calling thread's active trace; a
    /// no-op guard when the tracer is disabled or no trace is active
    /// (e.g. background work outside any request).
    pub fn span(&self, name: &'static str, class: Class) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                tracer_id: 0,
                trace_id: 0,
                index: 0,
            };
        }
        ACTIVE.with(|cell| {
            let mut entries = cell.borrow_mut();
            let Some((_, active)) = entries.iter_mut().find(|(id, _)| *id == self.inner.id) else {
                return SpanGuard {
                    tracer_id: 0,
                    trace_id: 0,
                    index: 0,
                };
            };
            let parent_id = active
                .stack
                .last()
                .map(|&i| active.spans[i].span_id)
                .unwrap_or(1);
            let index = active.spans.len();
            let span_id = index as u64 + 1;
            active.spans.push(SpanRecord {
                span_id,
                parent_id: Some(parent_id),
                name,
                class,
                start_micros: clock::ticks().wrapping_sub(active.started_ticks),
                duration_micros: 0,
                error: None,
            });
            active.stack.push(index);
            SpanGuard {
                tracer_id: self.inner.id,
                trace_id: active.trace_id,
                index,
            }
        })
    }

    /// Attaches `cause` to the innermost open span of the calling
    /// thread's active trace (first error wins). A no-op when disabled or
    /// no trace is active.
    pub fn tag_error(&self, cause: &str) {
        if !self.is_enabled() {
            return;
        }
        ACTIVE.with(|cell| {
            let mut entries = cell.borrow_mut();
            if let Some((_, active)) = entries.iter_mut().find(|(id, _)| *id == self.inner.id) {
                if let Some(&i) = active.stack.last() {
                    let span = &mut active.spans[i];
                    if span.error.is_none() {
                        span.error = Some(cause.to_string());
                    }
                }
            }
        });
    }

    /// Moves a finished trace into the completed ring (and, when its root
    /// crossed the slow threshold, the slow log), evicting oldest-first.
    /// The one lock on the recording path — taken once per trace. Tick
    /// deltas are converted to microseconds here, and the evicted trace's
    /// buffers are recycled for the next [`Tracer::begin`].
    fn retire(inner: &TracerInner, mut active: ActiveTrace) {
        for span in &mut active.spans {
            // Convert the open and the close instants (not the duration)
            // so exact child-within-parent nesting survives truncation.
            let end = clock::micros(span.start_micros.saturating_add(span.duration_micros));
            span.start_micros = clock::micros(span.start_micros);
            span.duration_micros = end - span.start_micros;
        }
        let trace = Trace {
            trace_id: active.trace_id,
            base_micros: clock::micros(active.base_ticks),
            spans: active.spans,
        };
        let mut stack = active.stack;
        let mut reclaimed: Vec<SpanRecord> = Vec::new();
        {
            let mut state = inner.state.lock().expect("tracer lock");
            let threshold = inner.slow_threshold_micros.load(Ordering::Relaxed);
            if threshold > 0 && trace.spans[0].duration_micros >= threshold {
                inner.slow_total.fetch_add(1, Ordering::Relaxed);
                if state.slow.len() + 1 > state.capacity {
                    state.slow.pop_front();
                    inner.slow_dropped.fetch_add(1, Ordering::Relaxed);
                }
                state.slow.push_back(trace.clone());
            }
            if state.completed.len() + 1 > state.capacity {
                if let Some(evicted) = state.completed.pop_front() {
                    reclaimed = evicted.spans;
                    reclaimed.clear();
                }
                inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            state.completed.push_back(trace);
        }
        stack.clear();
        SCRATCH.with(|s| {
            let mut pool = s.borrow_mut();
            if pool.len() < 8 {
                pool.push((reclaimed, stack));
            }
        });
    }

    /// The newest `last_n` completed traces, oldest first (`0` = all
    /// retained).
    pub fn traces(&self, last_n: usize) -> Vec<Trace> {
        let state = self.inner.state.lock().expect("tracer lock");
        let skip = if last_n == 0 {
            0
        } else {
            state.completed.len().saturating_sub(last_n)
        };
        state.completed.iter().skip(skip).cloned().collect()
    }

    /// The retained slow traces, oldest first.
    pub fn slow_traces(&self) -> Vec<Trace> {
        let state = self.inner.state.lock().expect("tracer lock");
        state.slow.iter().cloned().collect()
    }

    /// The canonical `nemo-trace/v1` JSON document over the newest
    /// `last_n` completed traces (`0` = all retained): object keys
    /// sorted, integers exact, no whitespace.
    pub fn to_doc(&self, last_n: usize) -> String {
        let traces = self.traces(last_n);
        let slow_retained = self.inner.state.lock().expect("tracer lock").slow.len();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"dropped\":{},\"schema\":\"{TRACE_SCHEMA}\",\"slow_dropped\":{},\"slow_retained\":{slow_retained},\"slow_total\":{},\"traces\":[",
            self.dropped(),
            self.inner.slow_dropped.load(Ordering::Relaxed),
            self.slow_total(),
        );
        for (i, trace) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&trace.to_json());
        }
        out.push_str("]}");
        out
    }

    /// The logical skeletons of the newest `last_n` completed traces,
    /// concatenated oldest first — the byte-comparable determinism
    /// artifact (no ids, no timing, no physical spans).
    pub fn logical_skeletons(&self, last_n: usize) -> String {
        self.traces(last_n)
            .iter()
            .map(Trace::logical_skeleton)
            .collect()
    }

    /// A Chrome trace-event (`chrome://tracing` / Perfetto) document over
    /// the newest `last_n` completed traces: complete (`"ph":"X"`)
    /// events, one `tid` per trace, timestamps relative to the tracer's
    /// creation.
    pub fn to_chrome(&self, last_n: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for trace in self.traces(last_n) {
            for span in &trace.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"args\":{");
                if let Some(error) = &span.error {
                    let _ = write!(out, "\"error\":{},", json_string(error));
                }
                let _ = write!(
                    out,
                    "\"trace_id\":{}}},\"cat\":\"{}\",\"dur\":{},\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}}}",
                    trace.trace_id,
                    span.class.as_str(),
                    span.duration_micros,
                    json_string(span.name),
                    trace.trace_id,
                    trace.base_micros + span.start_micros,
                );
            }
        }
        out.push_str("]}");
        out
    }
}

/// The guard returned by [`Tracer::begin`]; dropping it completes the
/// trace and moves it into the flight recorder.
#[derive(Debug)]
pub struct TraceGuard {
    tracer: Tracer,
    /// `0` marks an inert guard (tracer disabled at `begin`).
    trace_id: u64,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.trace_id == 0 {
            return;
        }
        let inner = &self.tracer.inner;
        // Only retire the trace this guard started: a nested begin() on
        // the same thread already retired ours.
        let finished = ACTIVE.with(|cell| {
            let mut entries = cell.borrow_mut();
            entries
                .iter()
                .position(|(id, a)| *id == inner.id && a.trace_id == self.trace_id)
                .map(|pos| entries.swap_remove(pos).1)
        });
        if let Some(mut active) = finished {
            active.finish_all();
            Tracer::retire(inner, active);
        }
    }
}

/// The guard returned by [`Tracer::span`]; dropping it closes the span.
/// Holds only plain ids — closing a span touches nothing but the
/// thread-local active trace (no refcount traffic, no lock).
#[derive(Debug)]
pub struct SpanGuard {
    tracer_id: u64,
    /// `0` marks an inert guard (disabled tracer or no active trace).
    trace_id: u64,
    index: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.trace_id == 0 {
            return;
        }
        ACTIVE.with(|cell| {
            let mut entries = cell.borrow_mut();
            let Some((_, active)) = entries.iter_mut().find(|(id, _)| *id == self.tracer_id) else {
                return;
            };
            if active.trace_id != self.trace_id {
                return;
            }
            let elapsed = clock::ticks().wrapping_sub(active.started_ticks);
            let span = &mut active.spans[self.index];
            span.duration_micros = elapsed.saturating_sub(span.start_micros);
            // Guards drop LIFO in straight-line code, so this is a pop;
            // the retain keeps the stack sound even if a caller leaks
            // ordering.
            if active.stack.last() == Some(&self.index) {
                active.stack.pop();
            } else {
                active.stack.retain(|&i| i != self.index);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        {
            let _t = tracer.begin("request.query");
            let _s = tracer.span("query.cache", Class::Logical);
        }
        assert!(tracer.traces(0).is_empty());
        assert_eq!(tracer.to_doc(0), format!("{{\"dropped\":0,\"schema\":\"{TRACE_SCHEMA}\",\"slow_dropped\":0,\"slow_retained\":0,\"slow_total\":0,\"traces\":[]}}"));
    }

    #[test]
    fn spans_form_a_tree_with_causal_ids() {
        let tracer = Tracer::new();
        tracer.enable(16);
        {
            let _t = tracer.begin("request.mutate");
            {
                let _route = tracer.span("mutate.route", Class::Logical);
            }
            let _apply = tracer.span("mutate.apply", Class::Physical);
            let _log = tracer.span("wal.log", Class::Logical);
        }
        let traces = tracer.traces(0);
        assert_eq!(traces.len(), 1);
        let spans = &traces[0].spans;
        assert_eq!(
            spans
                .iter()
                .map(|s| (s.span_id, s.parent_id, s.name))
                .collect::<Vec<_>>(),
            vec![
                (1, None, "request.mutate"),
                (2, Some(1), "mutate.route"),
                (3, Some(1), "mutate.apply"),
                (4, Some(3), "wal.log"),
            ]
        );
        // Children nest within their parents numerically.
        for span in &spans[1..] {
            let parent = &spans[(span.parent_id.unwrap() - 1) as usize];
            assert!(span.start_micros >= parent.start_micros);
            assert!(
                span.start_micros + span.duration_micros
                    <= parent.start_micros + parent.duration_micros
            );
        }
    }

    #[test]
    fn the_ring_evicts_oldest_and_counts_drops() {
        let tracer = Tracer::new();
        tracer.enable(2);
        for _ in 0..5 {
            let _t = tracer.begin("request.stats");
        }
        let traces = tracer.traces(0);
        assert_eq!(traces.len(), 2);
        assert_eq!(
            traces.iter().map(|t| t.trace_id).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(tracer.dropped(), 3);
        assert_eq!(tracer.traces(1).len(), 1);
        assert_eq!(tracer.traces(1)[0].trace_id, 5);
    }

    #[test]
    fn slow_traces_are_retained_and_counted() {
        let tracer = Tracer::new();
        tracer.enable(8);
        tracer.set_slow_threshold_micros(1); // everything is slow
        {
            let _t = tracer.begin("request.query");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        tracer.set_slow_threshold_micros(u64::MAX); // nothing is slow
        {
            let _t = tracer.begin("request.query");
        }
        assert_eq!(tracer.slow_total(), 1);
        let slow = tracer.slow_traces();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trace_id, 1);
        assert_eq!(tracer.traces(0).len(), 2);
    }

    #[test]
    fn tag_error_marks_the_innermost_open_span_first_wins() {
        let tracer = Tracer::new();
        tracer.enable(8);
        {
            let _t = tracer.begin("request.mutate");
            {
                let _fsync = tracer.span("store.fsync", Class::Physical);
                tracer.tag_error("fsync failed: injected");
                tracer.tag_error("second error ignored");
            }
            tracer.tag_error("root-level error");
        }
        let traces = tracer.traces(0);
        let spans = &traces[0].spans;
        assert_eq!(spans[1].error.as_deref(), Some("fsync failed: injected"));
        assert_eq!(spans[0].error.as_deref(), Some("root-level error"));
    }

    #[test]
    fn concurrent_threads_keep_separate_traces() {
        let tracer = Tracer::new();
        tracer.enable(64);
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let _t = tracer.begin("request.mutate");
                        let _a = tracer.span("wal.log", Class::Logical);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let traces = tracer.traces(0);
        assert_eq!(traces.len(), 32);
        for trace in &traces {
            assert_eq!(trace.spans.len(), 2);
            assert_eq!(trace.spans[0].name, "request.mutate");
            assert_eq!(trace.spans[1].parent_id, Some(1));
        }
    }

    #[test]
    fn logical_skeletons_collapse_physical_ancestors() {
        let tracer = Tracer::new();
        tracer.enable(8);
        {
            let _t = tracer.begin("request.mutate");
            let _apply = tracer.span("mutate.apply", Class::Physical);
            let _log = tracer.span("wal.log", Class::Logical);
            let _fsync = tracer.span("store.fsync", Class::Physical);
        }
        assert_eq!(tracer.logical_skeletons(0), "request.mutate\n  wal.log\n");
    }

    #[test]
    fn trace_documents_are_canonical_and_versioned() {
        let tracer = Tracer::new();
        tracer.enable(8);
        {
            let _t = tracer.begin("request.query");
            let _c = tracer.span("query.cache", Class::Logical);
        }
        let doc = tracer.to_doc(0);
        assert!(doc.starts_with("{\"dropped\":0,\"schema\":\"nemo-trace/v1\""));
        assert!(doc.contains("\"trace_id\":1"));
        assert!(doc.contains("{\"class\":\"logical\",\"duration_micros\":"));
        assert!(doc.contains("\"name\":\"query.cache\",\"parent_id\":1,\"span_id\":2"));
        assert!(doc.contains("\"parent_id\":null,\"span_id\":1"));
    }

    #[test]
    fn chrome_export_emits_complete_events_per_span() {
        let tracer = Tracer::new();
        tracer.enable(8);
        {
            let _t = tracer.begin("request.sync");
            let _f = tracer.span("store.fsync", Class::Physical);
            tracer.tag_error("boom");
        }
        let doc = tracer.to_chrome(0);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"name\":\"request.sync\""));
        assert!(doc.contains("\"cat\":\"physical\""));
        assert!(doc.contains("{\"error\":\"boom\",\"trace_id\":1}"));
        assert!(doc.ends_with("]}"));
    }

    #[test]
    fn a_nested_begin_retires_the_stale_trace() {
        let tracer = Tracer::new();
        tracer.enable(8);
        let outer = tracer.begin("request.query");
        let inner = tracer.begin("request.stats");
        drop(inner);
        drop(outer); // must not retire trace 2 again
        let traces = tracer.traces(0);
        assert_eq!(
            traces.iter().map(|t| t.trace_id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(traces[0].spans[0].name, "request.query");
    }
}
