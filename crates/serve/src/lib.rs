//! # widen-serve
//!
//! A concurrent, micro-batched inference service over the WIDEN batched
//! execution engine — the paper's inductive-inference story (RQ2) turned
//! into an online system: a request names unseen nodes and a sampling
//! seed, the server embeds or classifies them from freshly sampled
//! neighbourhoods and the trained weights.
//!
//! Pieces:
//!
//! * [`ModelRegistry`] — checkpoint-backed model bundle loaded through the
//!   fallible `try_load_weights` path; its checkpoint digest doubles as
//!   the cache generation id.
//! * micro-batching queue ([`ServeConfig::max_batch`] /
//!   [`ServeConfig::max_wait_us`]) — each request is one job on one
//!   queue, ingest included; concurrent requests from different clients
//!   coalesce, whole, into one fused `forward_batch` / ensemble-logits
//!   call per window, so server throughput inherits the batched engine's
//!   win. Batch-composition invariance (a per-node output is
//!   bit-identical regardless of its chunk neighbours) makes this purely a
//!   throughput knob, and an ingest runs between windows on the same
//!   thread, so a request queued after it sees the grown graph.
//! * [`protocol`] — a length-prefixed binary wire protocol (magic,
//!   version, request id, node ids, seed) with a defensive incremental
//!   [`protocol::FrameReader`].
//! * [`EmbedCache`] — bounded LRU keyed
//!   `(node, checkpoint_hash, graph_version, seed)`.
//! * [`Server`] / [`Client`] — an event-driven front end: one reactor
//!   thread owns every client socket nonblocking in a `poll(2)` set, so
//!   an idle connection costs a registered fd, not an OS thread. Requests
//!   pipelined on one socket are correlated by id and may complete out of
//!   order server-side; admission control caps open connections
//!   ([`ServeConfig::max_connections`]) and queue-depth shedding answers
//!   `Overloaded` before enqueue. Per-request deadlines
//!   (`DeadlineExceeded`) and graceful drain-on-shutdown (every accepted
//!   request is answered before threads exit) are preserved from the
//!   thread-per-connection front end this replaced.
//! * trace-context extension — version-2 frames carry a client trace id
//!   ([`Client::set_tracing`]); the response returns the request's span
//!   summary ([`Client::last_trace`]): the request root, then its queue
//!   wait, coalesce and forward — drawn from the same stamps as its
//!   flight record. Version-1 peers interoperate unchanged.
//! * observability — the reactor and the batcher stamp every
//!   request's lifecycle into always-on histograms; the `Telemetry` wire
//!   op ([`Client::telemetry`]), the one metrics op, returns the merged
//!   SLO view (interpolated p50/p90/p99 per histogram), and a fixed-size
//!   flight recorder ([`ServeConfig::flight_recorder_capacity`]) keeps
//!   recent request timelines, frozen as a JSONL post-mortem
//!   ([`ServerHandle::postmortem_dump`]) whenever a shed, deadline drop,
//!   admission reject, or slow request
//!   ([`ServeConfig::slow_request_ms`]) fires.
//!
//! ## Quickstart
//!
//! ```no_run
//! use widen_core::{WidenConfig, WidenModel};
//! use widen_serve::{Client, ModelRegistry, ServeConfig, Server};
//! # fn demo(graph: widen_graph::HeteroGraph, checkpoint: &[u8]) -> Result<(), Box<dyn std::error::Error>> {
//! let registry = ModelRegistry::from_checkpoint(graph, WidenConfig::paper(), checkpoint)?;
//! let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0")?;
//! let mut client = Client::connect(handle.local_addr())?;
//! let labels = client.classify(&[42, 7], /*seed=*/ 1, /*rounds=*/ 3)?;
//! let rows = client.embed(&[42], 1)?;
//! # let _ = (labels, rows);
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod batcher;
pub mod cache;
pub mod client;
pub mod error;
mod poll;
pub mod protocol;
mod reactor;
pub mod registry;
pub mod server;

pub use cache::{CacheStats, EmbedCache, EmbedKey};
pub use client::{Client, ClientError};
pub use error::ServeError;
pub use protocol::{Request, Response, SpanSummary, TraceContext, WireError, WireSpan};
pub use registry::{IngestOutcome, ModelRegistry, ServingState};
pub use server::{ServeConfig, ServeStats, Server, ServerHandle};
