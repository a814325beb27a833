//! Hierarchical span tracing.
//!
//! Where [`crate::metrics`] answers "how much, in aggregate", this module
//! answers *where one particular slow request or epoch spent its time*: a
//! [`Tracer`] hands out RAII [`Span`] guards that record wall-clock
//! `(start, duration)` intervals with parent links, grouped under a
//! [`TraceId`] (one trace = one request, one epoch, one run — whatever the
//! instrumented layer decides).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A disabled tracer returns inert guards
//!    without reading the clock, touching thread-locals, or allocating —
//!    one relaxed atomic load and a branch, so instrumentation can stay in
//!    hot paths permanently.
//! 2. **Cheap when enabled.** Finished spans are pushed into one of a
//!    fixed set of mutex shards selected by thread id, so concurrent
//!    recorders (trainer shard threads, batcher workers) rarely contend.
//! 3. **No wall-clock reads for identity.** Trace and span ids come from a
//!    seeded SplitMix64 sequence over an atomic counter — deterministic
//!    under a fixed seed and free of `Date::now`-style syscalls.
//!
//! Span names follow the `layer.component.op` scheme (DESIGN.md):
//! `core.trainer.forward`, `serve.batcher.queue_wait`, …
//!
//! One exporter ships with the tracer: [`chrome_trace_json`] — the
//! `trace_event` "complete event" format that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) open directly.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, JsonValue};

/// Identifies one trace (a request, an epoch, a run).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One finished span: a named `[start, start+dur)` interval on a thread,
/// with a parent link for tree reconstruction.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// Parent span, `None` for a trace root.
    pub parent: Option<SpanId>,
    /// `layer.component.op` name.
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread (stable per-thread token, not an OS tid).
    pub tid: u64,
}

impl SpanRecord {
    /// End of the span in epoch-relative nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// SplitMix64 — the id mixer. Full-period, so ids from a counter never
/// collide under one seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const SHARDS: usize = 8;

struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    seed: u64,
    next: AtomicU64,
    shards: [Mutex<Vec<SpanRecord>>; SHARDS],
}

thread_local! {
    /// Per-thread span context: `(tracer tag, trace, span)` entries pushed
    /// by live guards. Tagging by tracer keeps two tracers on one thread
    /// from adopting each other's spans as parents.
    static CONTEXT: RefCell<Vec<(usize, TraceId, SpanId)>> = const { RefCell::new(Vec::new()) };

    /// Stable per-thread token for `SpanRecord::tid` / shard selection.
    static THREAD_TOKEN: u64 = {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
        NEXT_THREAD.fetch_add(1, Ordering::Relaxed)
    };
}

/// A clonable handle to one span store. Clones share the same records,
/// id sequence, and enabled flag.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Tracer {
    /// An **enabled** tracer whose trace/span ids derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_enabled(seed, true)
    }

    /// A tracer that starts disabled; every span call is a no-op until
    /// [`Tracer::set_enabled`] flips it on.
    pub fn disabled(seed: u64) -> Self {
        Self::with_enabled(seed, false)
    }

    fn with_enabled(seed: u64, enabled: bool) -> Self {
        Self {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                seed,
                next: AtomicU64::new(0),
                shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            }),
        }
    }

    /// Turns recording on or off. Spans already started finish normally.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    fn tag(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    fn fresh_id(&self) -> u64 {
        let n = self.inner.next.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.inner.seed ^ splitmix64(n))
    }

    /// Allocates a fresh trace id (even while disabled, so wire-level
    /// trace propagation can be negotiated before recording starts).
    pub fn start_trace(&self) -> TraceId {
        TraceId(self.fresh_id())
    }

    /// Nanoseconds since this tracer's epoch — the timebase every
    /// [`SpanRecord`] uses. Reads the clock; call only on traced paths.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the current thread's innermost live span of this
    /// tracer (same trace, that span as parent). With no surrounding span,
    /// a fresh trace is started with this span as its root.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        if !self.is_enabled() {
            return Span { active: None };
        }
        let (trace, parent) = CONTEXT.with(|c| {
            c.borrow()
                .iter()
                .rev()
                .find(|(tag, _, _)| *tag == self.tag())
                .map_or((None, None), |&(_, t, s)| (Some(t), Some(s)))
        });
        let trace = trace.unwrap_or_else(|| self.start_trace());
        self.begin(trace, parent, name)
    }

    /// Opens a root span of an existing trace (no parent).
    #[inline]
    pub fn root_span(&self, trace: TraceId, name: &'static str) -> Span {
        if !self.is_enabled() {
            return Span { active: None };
        }
        self.begin(trace, None, name)
    }

    /// Opens a span under an explicit parent — the cross-thread form used
    /// where thread-local nesting cannot see the parent (trainer shard
    /// threads, batcher workers).
    #[inline]
    pub fn child_span(&self, trace: TraceId, parent: SpanId, name: &'static str) -> Span {
        if !self.is_enabled() {
            return Span { active: None };
        }
        self.begin(trace, Some(parent), name)
    }

    fn begin(&self, trace: TraceId, parent: Option<SpanId>, name: &'static str) -> Span {
        let id = SpanId(self.fresh_id());
        CONTEXT.with(|c| c.borrow_mut().push((self.tag(), trace, id)));
        Span {
            active: Some(ActiveSpan {
                tracer: self.clone(),
                trace,
                id,
                parent,
                name,
                start: Instant::now(),
            }),
        }
    }

    /// Records an externally measured interval as a complete span — for
    /// durations captured with plain [`Instant`]s on paths where an RAII
    /// guard cannot live (e.g. queue wait measured between threads).
    pub fn record_complete(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        let id = SpanId(self.fresh_id());
        if self.is_enabled() {
            self.push(SpanRecord {
                trace,
                id,
                parent,
                name: name.to_string(),
                start_ns,
                dur_ns,
                tid: THREAD_TOKEN.with(|t| *t),
            });
        }
        id
    }

    fn push(&self, record: SpanRecord) {
        let shard = (record.tid as usize) % SHARDS;
        self.inner.shards[shard]
            .lock()
            .expect("trace shard poisoned")
            .push(record);
    }

    /// Removes and returns every recorded span, ordered by start time.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut all = Vec::new();
        for shard in &self.inner.shards {
            all.append(&mut shard.lock().expect("trace shard poisoned"));
        }
        all.sort_by_key(|r| (r.start_ns, r.id.0));
        all
    }

    /// Copies every recorded span (ordered by start time) without
    /// removing them.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut all = Vec::new();
        for shard in &self.inner.shards {
            all.extend(shard.lock().expect("trace shard poisoned").iter().cloned());
        }
        all.sort_by_key(|r| (r.start_ns, r.id.0));
        all
    }
}

struct ActiveSpan {
    tracer: Tracer,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: Instant,
}

/// RAII span guard: records a [`SpanRecord`] when dropped. Obtained from
/// [`Tracer::span`] and friends; inert (free) when the tracer is disabled.
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// The span's id, if it is live (recording).
    pub fn id(&self) -> Option<SpanId> {
        self.active.as_ref().map(|a| a.id)
    }

    /// The trace the span belongs to, if it is live.
    pub fn trace(&self) -> Option<TraceId> {
        self.active.as_ref().map(|a| a.trace)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur = active.start.elapsed();
        let end_ns = active.tracer.now_ns();
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        // Pop this span's context entry. Guards drop in LIFO order per
        // thread under normal nesting; a stray out-of-order drop only
        // affects parent attribution, never memory safety.
        CONTEXT.with(|c| {
            let mut ctx = c.borrow_mut();
            if let Some(pos) = ctx
                .iter()
                .rposition(|&(tag, _, id)| tag == active.tracer.tag() && id == active.id)
            {
                ctx.remove(pos);
            }
        });
        let record = SpanRecord {
            trace: active.trace,
            id: active.id,
            parent: active.parent,
            name: active.name.to_string(),
            start_ns: end_ns.saturating_sub(dur_ns),
            dur_ns,
            tid: THREAD_TOKEN.with(|t| *t),
        };
        active.tracer.push(record);
    }
}

// ---------------------------------------------------------------------------
// Tree reconstruction
// ---------------------------------------------------------------------------

/// One node of a reconstructed span tree: an index into the record slice
/// plus the indices of its children (start-ordered).
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Index of this span in the slice passed to [`span_tree`].
    pub index: usize,
    /// Child nodes.
    pub children: Vec<SpanNode>,
}

/// Reconstructs the parent tree of `trace` from a record slice. Spans
/// whose parent is missing from the slice surface as roots (never lost).
pub fn span_tree(records: &[SpanRecord], trace: TraceId) -> Vec<SpanNode> {
    let in_trace: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].trace == trace)
        .collect();
    let mut children_of: std::collections::HashMap<SpanId, Vec<usize>> =
        std::collections::HashMap::new();
    let mut roots = Vec::new();
    for &i in &in_trace {
        match records[i].parent {
            Some(p) if in_trace.iter().any(|&j| records[j].id == p) => {
                children_of.entry(p).or_default().push(i);
            }
            _ => roots.push(i),
        }
    }
    fn build(
        i: usize,
        records: &[SpanRecord],
        children_of: &std::collections::HashMap<SpanId, Vec<usize>>,
    ) -> SpanNode {
        let mut child_idx = children_of.get(&records[i].id).cloned().unwrap_or_default();
        child_idx.sort_by_key(|&j| (records[j].start_ns, records[j].id.0));
        SpanNode {
            index: i,
            children: child_idx
                .into_iter()
                .map(|j| build(j, records, children_of))
                .collect(),
        }
    }
    roots.sort_by_key(|&i| (records[i].start_ns, records[i].id.0));
    roots
        .into_iter()
        .map(|i| build(i, records, &children_of))
        .collect()
}

/// Renders a trace's span tree as an indented one-line-per-span string —
/// the human side of the slow-request log.
pub fn render_tree(records: &[SpanRecord], trace: TraceId) -> String {
    fn walk(node: &SpanNode, records: &[SpanRecord], depth: usize, out: &mut String) {
        let r = &records[node.index];
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} {:.3}ms @ {:.3}ms\n",
            r.name,
            r.dur_ns as f64 / 1e6,
            r.start_ns as f64 / 1e6
        ));
        for child in &node.children {
            walk(child, records, depth + 1, out);
        }
    }
    let mut out = String::new();
    for root in span_tree(records, trace) {
        walk(&root, records, 0, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Renders spans as Chrome `trace_event` JSON: an object with a
/// `traceEvents` array of complete (`"ph":"X"`) events, start-ordered so
/// timestamps are monotone. Load the output in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev).
///
/// Timestamps are microseconds (f64) since the tracer epoch; the trace and
/// parent ids ride along in `args` for tooling that wants them.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.start_ns, r.id.0));
    let mut out = String::with_capacity(64 + records.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, r) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::push_string(&mut out, &r.name);
        out.push_str(",\"cat\":\"widen\",\"ph\":\"X\",\"ts\":");
        json::push_f64(&mut out, r.start_ns as f64 / 1e3);
        out.push_str(",\"dur\":");
        json::push_f64(&mut out, r.dur_ns as f64 / 1e3);
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&r.tid.to_string());
        out.push_str(",\"args\":{\"trace\":");
        json::push_string(&mut out, &format!("{:016x}", r.trace.0));
        out.push_str(",\"span\":");
        json::push_string(&mut out, &format!("{:016x}", r.id.0));
        if let Some(p) = r.parent {
            out.push_str(",\"parent\":");
            json::push_string(&mut out, &format!("{:016x}", p.0));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Writes [`chrome_trace_json`] to `path`.
///
/// # Errors
/// Propagates IO failures.
pub fn write_chrome_trace<P: AsRef<Path>>(path: P, records: &[SpanRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace_json(records).as_bytes())?;
    f.flush()
}

// ---------------------------------------------------------------------------
// Chrome-trace validation
// ---------------------------------------------------------------------------

/// Validates a [`chrome_trace_json`] document without a JSON dependency:
/// strict JSON well-formedness ([`json::parse`]), every event a complete
/// `"ph":"X"` record with `name`/`ts`/`dur`, and `ts` monotone
/// non-decreasing across the array. Returns the event count.
///
/// # Errors
/// Returns a description of the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let JsonValue::Object(fields) = json::parse(text)? else {
        return Err("top level is not an object".into());
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .ok_or("missing traceEvents")?;
    let JsonValue::Array(events) = &events.1 else {
        return Err("traceEvents is not an array".into());
    };
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let JsonValue::Object(ev) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let get = |k: &str| ev.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        match get("ph") {
            Some(JsonValue::Str(ph)) if ph == "X" => {}
            Some(JsonValue::Str(ph)) if ph == "B" || ph == "E" => {
                return Err(format!("event {i}: unmatched B/E event (exporter emits X)"));
            }
            _ => return Err(format!("event {i}: missing or non-X ph")),
        }
        if !matches!(get("name"), Some(JsonValue::Str(_))) {
            return Err(format!("event {i}: missing name"));
        }
        let Some(JsonValue::Num(ts)) = get("ts") else {
            return Err(format!("event {i}: missing numeric ts"));
        };
        let Some(JsonValue::Num(dur)) = get("dur") else {
            return Err(format!("event {i}: missing numeric dur"));
        };
        if !ts.is_finite() || !dur.is_finite() || *dur < 0.0 {
            return Err(format!("event {i}: non-finite ts/dur"));
        }
        if *ts < last_ts {
            return Err(format!("event {i}: ts {ts} < previous {last_ts}"));
        }
        last_ts = *ts;
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_reconstruct_parent_tree() {
        let tracer = Tracer::new(7);
        {
            let _root = tracer.span("core.test.root");
            {
                let _a = tracer.span("core.test.a");
                let _deep = tracer.span("core.test.a.deep");
            }
            let _b = tracer.span("core.test.b");
        }
        let records = tracer.drain();
        assert_eq!(records.len(), 4);
        let trace = records[0].trace;
        assert!(records.iter().all(|r| r.trace == trace));
        let tree = span_tree(&records, trace);
        assert_eq!(tree.len(), 1, "one root");
        let root = &tree[0];
        assert_eq!(records[root.index].name, "core.test.root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(records[root.children[0].index].name, "core.test.a");
        assert_eq!(root.children[0].children.len(), 1);
        assert_eq!(
            records[root.children[0].children[0].index].name,
            "core.test.a.deep"
        );
        assert_eq!(records[root.children[1].index].name, "core.test.b");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled(1);
        {
            let s = tracer.span("x");
            assert!(s.id().is_none());
            let _c = tracer.span("y");
        }
        tracer.record_complete(TraceId(1), None, "z", 0, 10);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn sibling_traces_stay_separate() {
        let tracer = Tracer::new(3);
        let t1 = tracer.start_trace();
        let t2 = tracer.start_trace();
        assert_ne!(t1, t2);
        {
            let _r1 = tracer.root_span(t1, "one");
        }
        {
            let _r2 = tracer.root_span(t2, "two");
        }
        let records = tracer.drain();
        assert_eq!(span_tree(&records, t1).len(), 1);
        assert_eq!(span_tree(&records, t2).len(), 1);
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn cross_thread_children_link_via_explicit_parent() {
        let tracer = Tracer::new(11);
        let trace = tracer.start_trace();
        let parent_id;
        {
            let root = tracer.root_span(trace, "serve.request");
            parent_id = root.id().unwrap();
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let tracer = tracer.clone();
                    std::thread::spawn(move || {
                        let _child = tracer.child_span(trace, parent_id, "serve.worker");
                        std::hint::black_box(1 + 1)
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let records = tracer.drain();
        assert_eq!(records.len(), 5);
        let tree = span_tree(&records, trace);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].children.len(), 4);
        for child in &tree[0].children {
            assert_eq!(records[child.index].parent, Some(parent_id));
        }
        // Workers recorded from distinct threads.
        let tids: std::collections::HashSet<u64> = tree[0]
            .children
            .iter()
            .map(|c| records[c.index].tid)
            .collect();
        assert!(tids.len() > 1, "expected multiple recording threads");
    }

    #[test]
    fn ids_are_seed_deterministic() {
        let a = Tracer::new(42);
        let b = Tracer::new(42);
        assert_eq!(a.start_trace(), b.start_trace());
        assert_eq!(a.start_trace(), b.start_trace());
        let c = Tracer::new(43);
        assert_ne!(a.start_trace(), c.start_trace());
    }

    #[test]
    fn chrome_export_is_valid_and_monotone() {
        let tracer = Tracer::new(5);
        {
            let _root = tracer.span("core.trainer.epoch");
            let _f = tracer.span("core.trainer.forward \"quoted\"\nname");
        }
        let records = tracer.drain();
        let json = chrome_trace_json(&records);
        let n = validate_chrome_trace(&json).expect("exporter output must validate");
        assert_eq!(n, 2);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        // Non-monotone ts.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":5,\"dur\":1},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":4,\"dur\":1}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("ts"));
        // B/E events are not what the exporter produces.
        let be = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"dur\":0}]}";
        assert!(validate_chrome_trace(be).is_err());
    }

    #[test]
    fn record_complete_registers_external_intervals() {
        let tracer = Tracer::new(9);
        let trace = tracer.start_trace();
        let root = tracer.record_complete(trace, None, "serve.request", 100, 50);
        tracer.record_complete(trace, Some(root), "serve.queue_wait", 100, 10);
        let records = tracer.drain();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].end_ns(), 150);
        let tree = span_tree(&records, trace);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].children.len(), 1);
        let rendered = render_tree(&records, trace);
        assert!(rendered.contains("serve.request"));
        assert!(rendered.contains("  serve.queue_wait"));
    }
}
