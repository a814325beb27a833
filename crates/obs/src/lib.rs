//! # widen-obs
//!
//! The observability layer of the WIDEN stack: every runtime signal the
//! trainer, the serving layer, and the samplers expose flows through the
//! primitives in this crate.
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic instruments for totals and
//!   levels (requests served, queue depth).
//! * [`Histogram`] — fixed-bucket distribution with atomic buckets, count
//!   and sum (fused batch sizes, coalescing waits, sampled set sizes).
//! * [`Stopwatch`] — wall-clock phase timing, accumulated into counters.
//! * [`Registry`] — named get-or-create instrument store with
//!   deterministic, name-sorted [`Snapshot`]s that render to JSON.
//! * [`Tracer`] / [`Span`] — span tracing with RAII guards and explicit
//!   parent links; [`Tracer::drain`] hands the start-ordered
//!   [`SpanRecord`]s to their reader (the trainer's epoch spans).
//! * [`SloReport`] / [`TelemetrySnapshot`] — percentile-grade summaries:
//!   interpolated histogram quantiles (p50/p90/p99/max) and a process-wide
//!   merge of multiple registries into one JSON view (the serving
//!   protocol's `Telemetry` op).
//! * [`FlightRecorder`] — always-on lock-sharded ring of recent request
//!   timelines ([`FlightRecord`]s), dumped as a JSONL post-mortem when an
//!   anomaly (shed, deadline drop, slow request) fires.
//! * [`json`] — the workspace's one JSON reader and writer:
//!   [`parse`](json::parse) and [`pretty`](json::pretty) over one
//!   [`JsonValue`](json::JsonValue) tree.
//!
//! Two registry scopes exist by convention: subsystems with a clear owner
//! (one server, one trainer) hold their **own** [`Registry`] so concurrent
//! instances — and tests — never share counters, while ambient library
//! layers (sampling) record into [`Registry::global`]. Metric names follow
//! `<layer>_<subject>[_<unit>][_total]`; see DESIGN.md for the full
//! scheme.
//!
//! The crate has **no dependencies** (std only), in keeping with the
//! workspace's vendored-stub policy: anything may depend on it, including
//! the lowest layers, without enlarging the offline dependency surface.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod telemetry;
pub mod timer;
pub mod trace;

pub use metrics::{buckets, Counter, Gauge, Histogram, HistogramSnapshot, SloReport};
pub use recorder::{FlightRecord, FlightRecorder, PhaseStamp};
pub use registry::{Registry, Snapshot};
pub use telemetry::TelemetrySnapshot;
pub use timer::Stopwatch;
pub use trace::{Span, SpanId, SpanRecord, TraceId, Tracer};
