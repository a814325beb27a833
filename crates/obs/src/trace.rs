//! Span tracing with explicit parent links.
//!
//! Where [`crate::metrics`] answers "how much, in aggregate", this module
//! answers *where one particular epoch spent its time*: a [`Tracer`] hands
//! out RAII [`Span`] guards that record wall-clock `(start, duration)`
//! intervals with parent links, grouped under a [`TraceId`].
//!
//! Design constraints, in order:
//!
//! 1. **Explicit parenting.** [`Tracer::span`] opens the root of a fresh
//!    trace; every child names its trace and parent ([`Tracer::child_span`],
//!    [`Tracer::record_complete`]), so a child opened on another thread (a
//!    trainer shard) links exactly like one opened beside its parent.
//! 2. **Cheap to record.** Finished spans are pushed into one of a fixed
//!    set of mutex shards selected by thread, so concurrent recorders
//!    rarely contend.
//! 3. **No wall-clock reads for identity.** Trace and span ids come from a
//!    seeded SplitMix64 sequence over an atomic counter — deterministic
//!    under a fixed seed and free of `Date::now`-style syscalls.
//!
//! [`Tracer::drain`] hands the records, start-ordered, to whoever reads
//! them. Span names follow the `layer.component.op` scheme (DESIGN.md):
//! `core.trainer.epoch`, `core.trainer.forward`, …

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies one trace (an epoch, a run).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One finished span: a named `[start, start+dur)` interval with a parent
/// link.
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
    epoch: Instant,
    seed: u64,
    next: AtomicU64,
    shards: [Mutex<Vec<SpanRecord>>; SHARDS],
}

thread_local! {
    /// Stable per-thread token for shard selection.
    static THREAD_TOKEN: u64 = {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
        NEXT_THREAD.fetch_add(1, Ordering::Relaxed)
    };
}

/// A clonable handle to one span store. Clones share the same records and
/// id sequence.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Tracer {
    /// A tracer whose trace/span ids derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                seed,
                next: AtomicU64::new(0),
                shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            }),
        }
    }

    fn fresh_id(&self) -> u64 {
        let n = self.inner.next.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.inner.seed ^ splitmix64(n))
    }

    /// Allocates a fresh trace id.
    pub fn start_trace(&self) -> TraceId {
        TraceId(self.fresh_id())
    }

    /// Nanoseconds since this tracer's epoch — the timebase every
    /// [`SpanRecord`] uses.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of a fresh trace.
    pub fn span(&self, name: &'static str) -> Span {
        let trace = self.start_trace();
        self.begin(trace, None, name)
    }

    /// Opens a span under an explicit parent; any thread may open it.
    pub fn child_span(&self, trace: TraceId, parent: SpanId, name: &'static str) -> Span {
        self.begin(trace, Some(parent), name)
    }

    fn begin(&self, trace: TraceId, parent: Option<SpanId>, name: &'static str) -> Span {
        Span {
            tracer: self.clone(),
            trace,
            id: SpanId(self.fresh_id()),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Records an externally measured interval as a complete span — for
    /// durations known only after the fact (an epoch's packaging share,
    /// summed on worker threads).
    pub fn record_complete(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        let id = SpanId(self.fresh_id());
        self.push(SpanRecord {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            dur_ns,
        });
        id
    }

    fn push(&self, record: SpanRecord) {
        let shard = THREAD_TOKEN.with(|t| *t as usize) % SHARDS;
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
}

/// RAII span guard: records a [`SpanRecord`] when dropped. Obtained from
/// [`Tracer::span`] or [`Tracer::child_span`].
pub struct Span {
    tracer: Tracer,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
}

impl Span {
    /// The span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// The trace the span belongs to.
    pub fn trace(&self) -> TraceId {
        self.trace
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.tracer.now_ns().saturating_sub(self.start_ns);
        self.tracer.push(SpanRecord {
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            dur_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parent of `r` among `records`, by explicit link.
    fn parent_of<'a>(records: &'a [SpanRecord], r: &SpanRecord) -> Option<&'a SpanRecord> {
        records.iter().find(|p| Some(p.id) == r.parent)
    }

    #[test]
    fn nested_spans_reconstruct_parent_tree() {
        let tracer = Tracer::new(7);
        {
            let root = tracer.span("core.test.root");
            {
                let a = tracer.child_span(root.trace(), root.id(), "core.test.a");
                let _deep = tracer.child_span(a.trace(), a.id(), "core.test.a.deep");
            }
            let _b = tracer.child_span(root.trace(), root.id(), "core.test.b");
        }
        let records = tracer.drain();
        assert_eq!(records.len(), 4);
        let trace = records[0].trace;
        assert!(records.iter().all(|r| r.trace == trace));
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap();
        let root = by_name("core.test.root");
        assert_eq!(root.parent, None);
        for (child, parent) in [
            ("core.test.a", "core.test.root"),
            ("core.test.a.deep", "core.test.a"),
            ("core.test.b", "core.test.root"),
        ] {
            let child = by_name(child);
            let linked = parent_of(&records, child).expect("parent drained");
            assert_eq!(linked.name, parent);
            assert!(linked.start_ns <= child.start_ns && child.end_ns() <= linked.end_ns());
        }
    }

    #[test]
    fn sibling_traces_stay_separate() {
        let tracer = Tracer::new(3);
        {
            let _r1 = tracer.span("one");
        }
        {
            let _r2 = tracer.span("two");
        }
        let records = tracer.drain();
        assert_eq!(records.len(), 2);
        assert_ne!(records[0].trace, records[1].trace);
        assert!(records.iter().all(|r| r.parent.is_none()));
    }

    #[test]
    fn cross_thread_children_link_via_explicit_parent() {
        let tracer = Tracer::new(11);
        let (trace, parent_id);
        {
            let root = tracer.span("core.test.root");
            (trace, parent_id) = (root.trace(), root.id());
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let tracer = tracer.clone();
                    std::thread::spawn(move || {
                        let _child = tracer.child_span(trace, parent_id, "core.test.worker");
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
        let children: Vec<_> = records.iter().filter(|r| r.parent.is_some()).collect();
        assert_eq!(children.len(), 4);
        for child in children {
            assert_eq!(child.trace, trace);
            assert_eq!(child.parent, Some(parent_id));
        }
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
    fn record_complete_registers_external_intervals() {
        let tracer = Tracer::new(9);
        let trace = tracer.start_trace();
        let root = tracer.record_complete(trace, None, "core.test.root", 100, 50);
        let child = tracer.record_complete(trace, Some(root), "core.test.child", 100, 10);
        let records = tracer.drain();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].end_ns(), 150);
        let child = records.iter().find(|r| r.id == child).unwrap();
        assert_eq!(child.parent, Some(root));
        assert_eq!((child.start_ns, child.dur_ns), (100, 10));
    }
}
