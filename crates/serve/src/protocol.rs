//! The length-prefixed binary wire protocol.
//!
//! Every message is one *frame*:
//!
//! ```text
//! len   u32 LE            body length (excluding this prefix), ≤ MAX_FRAME_LEN
//! body:
//!   magic   "WSV1"        4 bytes
//!   version u16 LE        protocol version (1)
//!   type    u8            message discriminant
//!   id      u64 LE        request id, echoed in the response
//!   ...                   type-specific payload, see below
//! ```
//!
//! | type | message  | payload |
//! |---|---|---|
//! | 1 | Embed request    | `seed u64, count u32, count × node u32` |
//! | 2 | Classify request | `seed u64, rounds u32, count u32, count × node u32` |
//! | 3 | Embeddings       | `rows u32, cols u32, rows·cols × f32` |
//! | 4 | Classes          | `count u32, count × label u32` |
//! | 5 | Error            | `code u8, msg_len u32, msg utf-8` |
//! | 6, 7 | retired (the old `Stats` op; never reused) | — |
//! | 8 | Ingest request   | `seed u64, node_type u16, label_flag u8 [, label u16], feat_count u32, feat_count × f32, edge_count u32, edge_count × (peer u32, edge_type u16)` |
//! | 9 | Ingested         | `node u32, dim u32, dim × f32` |
//! | 10 | Telemetry request | (header only) |
//! | 11 | Telemetry        | `msg_len u32, JSON telemetry utf-8` |
//!
//! `Ingest` (type 8) is the streaming-graph op: the client ships a
//! never-seen node — type, optional label, dense features and typed edges
//! to existing nodes — and receives `Ingested` (type 9) with the node's
//! assigned id plus its embedding, computed on the mutated graph in the
//! same round trip. `label_flag` is 0 (unlabelled, no label bytes follow)
//! or 1; any other value is malformed.
//!
//! Types 6 and 7 carried a `Stats` op whose payload `Telemetry` (types
//! 10/11) subsumes; a frame of either type now decodes as an unknown type,
//! and no future op takes those numbers.
//!
//! Decoding is fully defensive: declared lengths are validated against the
//! remaining bytes *before* any allocation, oversized frames are rejected
//! at the length prefix, and trailing bytes inside a body are an error —
//! a malformed peer can never panic the other side.
//!
//! ## Trace-context extension (version 2)
//!
//! Plain frames carry version 1, the base protocol above. A peer that
//! wants distributed tracing emits version 2: the same body as version 1
//! followed by a trailing extension block:
//!
//! ```text
//! ext_flags u8              bit 0 = trace extension present; other bits
//!                           are reserved and rejected as malformed
//! -- request trace ext (flag bit 0) --
//! trace_id  u64 LE          client-chosen trace id
//! -- response trace ext (flag bit 0) --
//! trace_id  u64 LE          echoed trace id
//! count     u16 LE          spans (≤ MAX_SPANS_PER_SUMMARY); span 0 is
//!                           the request root
//! count × { name_len u8, name utf-8, parent u16 LE (0xFFFF = root),
//!           start_ns u64 LE, dur_ns u64 LE }
//! ```
//!
//! Version-1 peers never see version-2 frames (the server only answers in
//! kind), and both decoders here accept either version, so old and new
//! binaries interoperate on the same port.

use crate::error::ServeError;

/// Frame body magic.
pub const MAGIC: [u8; 4] = *b"WSV1";
/// Current protocol version.
pub const VERSION: u16 = 1;
/// Version carried by frames with a trailing trace-context extension.
pub const VERSION_TRACED: u16 = 2;
/// Upper bound on spans in one response summary.
pub const MAX_SPANS_PER_SUMMARY: usize = 1024;
/// Extension flag: trace context present.
const EXT_TRACE: u8 = 1;
/// Hard upper bound on a frame body; larger length prefixes are rejected
/// without buffering.
pub const MAX_FRAME_LEN: usize = 1 << 22;
/// Upper bound on node ids per request — keeps one request from occupying
/// a whole batch window forever.
pub const MAX_NODES_PER_REQUEST: usize = 4096;
/// Upper bound on feature scalars in one `Ingest` request.
pub const MAX_FEATURES_PER_INGEST: usize = 65536;

const TYPE_EMBED: u8 = 1;
const TYPE_CLASSIFY: u8 = 2;
const TYPE_EMBEDDINGS: u8 = 3;
const TYPE_CLASSES: u8 = 4;
const TYPE_ERROR: u8 = 5;
const TYPE_INGEST: u8 = 8;
const TYPE_INGESTED: u8 = 9;
const TYPE_TELEMETRY: u8 = 10;
const TYPE_TELEMETRY_TEXT: u8 = 11;

/// Wire-level decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared body length.
        declared: usize,
    },
    /// The body does not start with [`MAGIC`].
    BadMagic,
    /// The body's version is not [`VERSION`].
    BadVersion(u16),
    /// Unknown message type discriminant.
    BadType(u8),
    /// The body ended before the declared content, declared counts exceed
    /// limits, or trailing bytes remain.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { declared } => {
                write!(f, "frame of {declared} bytes exceeds {MAX_FRAME_LEN}")
            }
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadType(t) => write!(f, "unknown message type {t}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Embed each node from a neighbourhood sampled with `seed`.
    Embed {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// Sampling seed (determinism contract: same node + seed + weights
        /// → bit-identical embedding).
        seed: u64,
        /// Nodes to embed.
        nodes: Vec<u32>,
    },
    /// Classify each node by `rounds`-fold ensemble logits.
    Classify {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// Sampling seed.
        seed: u64,
        /// Ensemble rounds (≥ 1).
        rounds: u32,
        /// Nodes to classify.
        nodes: Vec<u32>,
    },
    /// Fetch the merged process-wide telemetry view (counters, gauges and
    /// per-histogram SLO reports across the server and global registries).
    Telemetry {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
    /// Ship a never-seen node (type, features, optional label, typed edges
    /// to existing nodes) and get its embedding back in one round trip.
    Ingest {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// Sampling seed for the returned embedding.
        seed: u64,
        /// The new node's type id.
        node_type: u16,
        /// Optional class label.
        label: Option<u16>,
        /// Dense feature row (must match the served graph's `d₀`).
        features: Vec<f32>,
        /// Typed edges `(existing peer, edge type)` to wire the node up.
        edges: Vec<(u32, u16)>,
    },
}

impl Request {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Embed { id, .. }
            | Request::Classify { id, .. }
            | Request::Telemetry { id }
            | Request::Ingest { id, .. } => *id,
        }
    }

    /// The nodes the request touches (empty for `Telemetry`;
    /// `Ingest` peers are validated by the graph mutation itself, not
    /// here).
    pub fn nodes(&self) -> &[u32] {
        match self {
            Request::Embed { nodes, .. } | Request::Classify { nodes, .. } => nodes,
            Request::Telemetry { .. } | Request::Ingest { .. } => &[],
        }
    }
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One embedding row per requested node, in request order.
    Embeddings {
        /// Echoed request id.
        id: u64,
        /// Embedding dimensionality.
        dim: u32,
        /// Row-major `rows × dim` values.
        values: Vec<f32>,
    },
    /// One class label per requested node, in request order.
    Classes {
        /// Echoed request id.
        id: u64,
        /// Predicted labels.
        labels: Vec<u32>,
    },
    /// The request failed.
    Error {
        /// Echoed request id (0 when the id could not be decoded).
        id: u64,
        /// Stable [`ServeError`] code.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Merged telemetry view with per-histogram SLO reports.
    Telemetry {
        /// Echoed request id.
        id: u64,
        /// JSON text (see `widen_obs::TelemetrySnapshot::to_json`).
        text: String,
    },
    /// Acknowledges an `Ingest`: the assigned node id plus the new node's
    /// embedding on the mutated graph.
    Ingested {
        /// Echoed request id.
        id: u64,
        /// The node id the server assigned.
        node: u32,
        /// Embedding dimensionality.
        dim: u32,
        /// The embedding row.
        values: Vec<f32>,
    },
}

impl Response {
    /// The echoed request id — the correlation key that lets a pipelined
    /// client match responses to in-flight requests regardless of
    /// completion order. `0` on errors whose request id never decoded.
    pub fn id(&self) -> u64 {
        match self {
            Response::Embeddings { id, .. }
            | Response::Classes { id, .. }
            | Response::Error { id, .. }
            | Response::Telemetry { id, .. }
            | Response::Ingested { id, .. } => *id,
        }
    }

    /// Builds an error response from a [`ServeError`].
    pub fn from_error(id: u64, err: &ServeError) -> Self {
        Response::Error {
            id,
            code: err.code(),
            message: err.message().to_string(),
        }
    }
}

/// Client-chosen trace context attached to a version-2 request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id the server's spans will be filed under.
    pub trace_id: u64,
}

/// One server-side span, relative to the summary it travels in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Span name (`layer.component.op`), ≤ 255 bytes on the wire.
    pub name: String,
    /// Index of the parent span within the summary; `u16::MAX` for roots.
    pub parent: u16,
    /// Start offset in nanoseconds since the request span opened.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl WireSpan {
    /// Sentinel parent index marking a root span.
    pub const ROOT: u16 = u16::MAX;
}

/// Server-side span tree attached to a version-2 response. Span 0 is the
/// request root (`serve.server.request`); children reference parents by
/// index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Echoed trace id from the request's [`TraceContext`].
    pub trace_id: u64,
    /// Spans, root first.
    pub spans: Vec<WireSpan>,
}

/// The finished frame: the buffer itself, the 4-byte length prefix
/// [`body_header`] reserved patched with the body length.
fn frame(mut b: Vec<u8>) -> Vec<u8> {
    let body_len = (b.len() - 4) as u32;
    b[..4].copy_from_slice(&body_len.to_le_bytes());
    b
}

/// A frame buffer holding the reserved length prefix and the body header,
/// sized for `payload_hint` more bytes: every frame is written once, in
/// place.
fn body_header(version: u16, msg_type: u8, id: u64, payload_hint: usize) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + 15 + payload_hint);
    b.extend_from_slice(&[0; 4]);
    b.extend_from_slice(&MAGIC);
    b.extend_from_slice(&version.to_le_bytes());
    b.push(msg_type);
    b.extend_from_slice(&id.to_le_bytes());
    b
}

/// Appends `values` as little-endian `f32`s in one sweep.
fn put_f32s_le(b: &mut Vec<u8>, values: &[f32]) {
    let start = b.len();
    b.resize(start + values.len() * 4, 0);
    for (out, v) in b[start..].chunks_exact_mut(4).zip(values) {
        out.copy_from_slice(&v.to_le_bytes());
    }
}

fn request_body(req: &Request, version: u16) -> Vec<u8> {
    match req {
        Request::Embed { id, seed, nodes } => {
            let mut b = body_header(version, TYPE_EMBED, *id, 12 + nodes.len() * 4);
            b.extend_from_slice(&seed.to_le_bytes());
            b.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
            for &n in nodes {
                b.extend_from_slice(&n.to_le_bytes());
            }
            b
        }
        Request::Classify {
            id,
            seed,
            rounds,
            nodes,
        } => {
            let mut b = body_header(version, TYPE_CLASSIFY, *id, 16 + nodes.len() * 4);
            b.extend_from_slice(&seed.to_le_bytes());
            b.extend_from_slice(&rounds.to_le_bytes());
            b.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
            for &n in nodes {
                b.extend_from_slice(&n.to_le_bytes());
            }
            b
        }
        Request::Telemetry { id } => body_header(version, TYPE_TELEMETRY, *id, 0),
        Request::Ingest {
            id,
            seed,
            node_type,
            label,
            features,
            edges,
        } => {
            let hint = 8 + 3 + 2 + 4 + features.len() * 4 + 4 + edges.len() * 6;
            let mut b = body_header(version, TYPE_INGEST, *id, hint);
            b.extend_from_slice(&seed.to_le_bytes());
            b.extend_from_slice(&node_type.to_le_bytes());
            match label {
                Some(l) => {
                    b.push(1);
                    b.extend_from_slice(&l.to_le_bytes());
                }
                None => b.push(0),
            }
            b.extend_from_slice(&(features.len() as u32).to_le_bytes());
            put_f32s_le(&mut b, features);
            b.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for &(peer, t) in edges {
                b.extend_from_slice(&peer.to_le_bytes());
                b.extend_from_slice(&t.to_le_bytes());
            }
            b
        }
    }
}

/// Encodes a request into a complete frame (length prefix included).
/// Bit-identical to the pre-extension protocol (version 1).
pub fn encode_request(req: &Request) -> Vec<u8> {
    frame(request_body(req, VERSION))
}

/// Encodes a version-2 request frame carrying a trace context. Servers
/// that understand the extension answer with a span summary; the response
/// is otherwise identical to the plain one.
pub fn encode_request_traced(req: &Request, trace: &TraceContext) -> Vec<u8> {
    let mut b = request_body(req, VERSION_TRACED);
    b.push(EXT_TRACE);
    b.extend_from_slice(&trace.trace_id.to_le_bytes());
    frame(b)
}

/// Encodes a response into a complete frame (length prefix included).
/// Bit-identical to the pre-extension protocol (version 1).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    frame(response_body(resp, VERSION))
}

/// Encodes a version-2 response frame with the server's span summary
/// appended. Spans beyond [`MAX_SPANS_PER_SUMMARY`] are dropped, names
/// are truncated to 255 bytes at a char boundary, and if the extension
/// would push the body over [`MAX_FRAME_LEN`] the whole summary is
/// dropped and a plain version-1 frame is emitted instead — the frame is
/// always sendable.
pub fn encode_response_traced(resp: &Response, summary: &SpanSummary) -> Vec<u8> {
    let mut b = response_body(resp, VERSION_TRACED);
    let count = summary.spans.len().min(MAX_SPANS_PER_SUMMARY);
    let ext_max = 1 + 8 + 2 + count * (1 + 255 + 2 + 8 + 8);
    if b.len() - 4 + ext_max > MAX_FRAME_LEN {
        return frame(response_body(resp, VERSION));
    }
    b.push(EXT_TRACE);
    b.extend_from_slice(&summary.trace_id.to_le_bytes());
    b.extend_from_slice(&(count as u16).to_le_bytes());
    for span in &summary.spans[..count] {
        let mut name = span.name.as_str();
        if name.len() > 255 {
            let mut cut = 255;
            while !name.is_char_boundary(cut) {
                cut -= 1;
            }
            name = &name[..cut];
        }
        b.push(name.len() as u8);
        b.extend_from_slice(name.as_bytes());
        b.extend_from_slice(&span.parent.to_le_bytes());
        b.extend_from_slice(&span.start_ns.to_le_bytes());
        b.extend_from_slice(&span.dur_ns.to_le_bytes());
    }
    frame(b)
}

fn response_body(resp: &Response, version: u16) -> Vec<u8> {
    match resp {
        Response::Embeddings { id, dim, values } => {
            let mut b = body_header(version, TYPE_EMBEDDINGS, *id, 8 + values.len() * 4);
            let rows = if *dim == 0 {
                0
            } else {
                values.len() as u32 / dim
            };
            b.extend_from_slice(&rows.to_le_bytes());
            b.extend_from_slice(&dim.to_le_bytes());
            put_f32s_le(&mut b, values);
            b
        }
        Response::Classes { id, labels } => {
            let mut b = body_header(version, TYPE_CLASSES, *id, 4 + labels.len() * 4);
            b.extend_from_slice(&(labels.len() as u32).to_le_bytes());
            for &l in labels {
                b.extend_from_slice(&l.to_le_bytes());
            }
            b
        }
        Response::Error { id, code, message } => {
            let mut b = body_header(version, TYPE_ERROR, *id, 5 + message.len());
            b.push(*code);
            b.extend_from_slice(&(message.len() as u32).to_le_bytes());
            b.extend_from_slice(message.as_bytes());
            b
        }
        Response::Telemetry { id, text } => telemetry_body(version, *id, text),
        Response::Ingested {
            id,
            node,
            dim,
            values,
        } => {
            let mut b = body_header(version, TYPE_INGESTED, *id, 8 + values.len() * 4);
            b.extend_from_slice(&node.to_le_bytes());
            b.extend_from_slice(&dim.to_le_bytes());
            put_f32s_le(&mut b, values);
            b
        }
    }
}

/// The `Telemetry` payload: length-prefixed UTF-8 JSON. A snapshot is
/// bounded by the (small, fixed) metric population, but the frame cap is
/// the wire contract — truncate at a char boundary rather than emit an
/// unsendable frame.
fn telemetry_body(version: u16, id: u64, text: &str) -> Vec<u8> {
    let budget = MAX_FRAME_LEN - 19 - 4;
    let mut text = text;
    if text.len() > budget {
        let mut cut = budget;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text = &text[..cut];
    }
    let mut b = body_header(version, TYPE_TELEMETRY_TEXT, id, 4 + text.len());
    b.extend_from_slice(&(text.len() as u32).to_le_bytes());
    b.extend_from_slice(text.as_bytes());
    b
}

/// The 4-byte words of `raw` (a trailing partial word is dropped; callers
/// take whole words).
fn words(raw: &[u8]) -> impl Iterator<Item = [u8; 4]> + '_ {
    raw.as_chunks().0.iter().copied()
}

/// Bounds-checked sequential reader over a frame body.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.data.len() < n {
            return Err(WireError::Malformed(what));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array: the split's type is the length check.
    fn read_array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        let (head, tail) = self
            .data
            .split_first_chunk()
            .ok_or(WireError::Malformed(what))?;
        self.data = tail;
        Ok(*head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        self.read_array(what).map(u16::from_le_bytes)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        self.read_array(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        self.read_array(what).map(u64::from_le_bytes)
    }

    fn u32_vec(&mut self, count: usize, what: &'static str) -> Result<Vec<u32>, WireError> {
        let raw = self.take(
            count.checked_mul(4).ok_or(WireError::Malformed(what))?,
            what,
        )?;
        Ok(words(raw).map(u32::from_le_bytes).collect())
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

fn decode_header<'a>(body: &'a [u8]) -> Result<(u16, u8, u64, Reader<'a>), WireError> {
    let mut r = Reader { data: body };
    if r.take(4, "magic")? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u16("version")?;
    if version != VERSION && version != VERSION_TRACED {
        return Err(WireError::BadVersion(version));
    }
    let msg_type = r.u8("type")?;
    let id = r.u64("id")?;
    Ok((version, msg_type, id, r))
}

fn decode_nodes(r: &mut Reader<'_>) -> Result<Vec<u32>, WireError> {
    let count = r.u32("node count")? as usize;
    if count > MAX_NODES_PER_REQUEST {
        return Err(WireError::Malformed("too many nodes in one request"));
    }
    r.u32_vec(count, "node ids")
}

/// Reads the version-2 extension flags byte; version-1 bodies have none.
/// Returns whether the trace extension follows.
fn ext_flags(version: u16, r: &mut Reader<'_>) -> Result<bool, WireError> {
    if version == VERSION {
        return Ok(false);
    }
    let flags = r.u8("ext flags")?;
    if flags & !EXT_TRACE != 0 {
        return Err(WireError::Malformed("unknown extension flags"));
    }
    Ok(flags & EXT_TRACE != 0)
}

/// Decodes a request body (the frame *without* its length prefix),
/// dropping any trace context. Accepts versions 1 and 2.
///
/// # Errors
/// Returns a [`WireError`] on any malformation; never panics.
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    decode_request_ext(body).map(|(req, _)| req)
}

/// Decodes a request body along with its optional trace context.
/// Version-1 bodies and version-2 bodies without the trace flag yield
/// `None`.
///
/// # Errors
/// Returns a [`WireError`] on any malformation; never panics.
pub fn decode_request_ext(body: &[u8]) -> Result<(Request, Option<TraceContext>), WireError> {
    let (version, msg_type, id, mut r) = decode_header(body)?;
    let req = match msg_type {
        TYPE_EMBED => {
            let seed = r.u64("seed")?;
            let nodes = decode_nodes(&mut r)?;
            Request::Embed { id, seed, nodes }
        }
        TYPE_CLASSIFY => {
            let seed = r.u64("seed")?;
            let rounds = r.u32("rounds")?;
            if rounds == 0 {
                return Err(WireError::Malformed("zero ensemble rounds"));
            }
            let nodes = decode_nodes(&mut r)?;
            Request::Classify {
                id,
                seed,
                rounds,
                nodes,
            }
        }
        TYPE_TELEMETRY => Request::Telemetry { id },
        TYPE_INGEST => {
            let seed = r.u64("seed")?;
            let node_type = r.u16("node type")?;
            let label = match r.u8("label flag")? {
                0 => None,
                1 => Some(r.u16("label")?),
                _ => return Err(WireError::Malformed("bad label flag")),
            };
            let feat_count = r.u32("feature count")? as usize;
            if feat_count > MAX_FEATURES_PER_INGEST {
                return Err(WireError::Malformed("too many features in one ingest"));
            }
            let raw = r.take(
                feat_count
                    .checked_mul(4)
                    .ok_or(WireError::Malformed("feature size"))?,
                "feature values",
            )?;
            let features = words(raw).map(f32::from_le_bytes).collect();
            let edge_count = r.u32("edge count")? as usize;
            if edge_count > MAX_NODES_PER_REQUEST {
                return Err(WireError::Malformed("too many edges in one ingest"));
            }
            let mut edges = Vec::with_capacity(edge_count);
            for _ in 0..edge_count {
                let peer = r.u32("edge peer")?;
                let t = r.u16("edge type")?;
                edges.push((peer, t));
            }
            Request::Ingest {
                id,
                seed,
                node_type,
                label,
                features,
                edges,
            }
        }
        other => return Err(WireError::BadType(other)),
    };
    let trace = if ext_flags(version, &mut r)? {
        Some(TraceContext {
            trace_id: r.u64("trace id")?,
        })
    } else {
        None
    };
    r.finish()?;
    Ok((req, trace))
}

/// Decodes a response body (the frame *without* its length prefix),
/// dropping any span summary. Accepts versions 1 and 2.
///
/// # Errors
/// Returns a [`WireError`] on any malformation; never panics.
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    decode_response_ext(body).map(|(resp, _)| resp)
}

/// Decodes a response body along with its optional span summary.
/// Version-1 bodies and version-2 bodies without the trace flag yield
/// `None`.
///
/// # Errors
/// Returns a [`WireError`] on any malformation; never panics.
pub fn decode_response_ext(body: &[u8]) -> Result<(Response, Option<SpanSummary>), WireError> {
    let (version, msg_type, id, mut r) = decode_header(body)?;
    let resp = match msg_type {
        TYPE_EMBEDDINGS => {
            let rows = r.u32("rows")? as usize;
            let cols = r.u32("cols")? as usize;
            let scalars = rows.checked_mul(cols).ok_or(WireError::Malformed("size"))?;
            let raw = r.take(
                scalars.checked_mul(4).ok_or(WireError::Malformed("size"))?,
                "embedding values",
            )?;
            let values = words(raw).map(f32::from_le_bytes).collect();
            Response::Embeddings {
                id,
                dim: cols as u32,
                values,
            }
        }
        TYPE_CLASSES => {
            let count = r.u32("label count")? as usize;
            if count > MAX_NODES_PER_REQUEST {
                return Err(WireError::Malformed("too many labels"));
            }
            let labels = r.u32_vec(count, "labels")?;
            Response::Classes { id, labels }
        }
        TYPE_ERROR => {
            let code = r.u8("error code")?;
            let msg_len = r.u32("message length")? as usize;
            if msg_len > MAX_FRAME_LEN {
                return Err(WireError::Malformed("oversized error message"));
            }
            let raw = r.take(msg_len, "message")?;
            let message = std::str::from_utf8(raw)
                .map_err(|_| WireError::Malformed("non-utf8 message"))?
                .to_string();
            Response::Error { id, code, message }
        }
        TYPE_TELEMETRY_TEXT => {
            let msg_len = r.u32("telemetry length")? as usize;
            if msg_len > MAX_FRAME_LEN {
                return Err(WireError::Malformed("oversized telemetry text"));
            }
            let raw = r.take(msg_len, "telemetry text")?;
            let text = std::str::from_utf8(raw)
                .map_err(|_| WireError::Malformed("non-utf8 telemetry text"))?
                .to_string();
            Response::Telemetry { id, text }
        }
        TYPE_INGESTED => {
            let node = r.u32("node id")?;
            let dim = r.u32("dim")? as usize;
            if dim > MAX_FEATURES_PER_INGEST {
                return Err(WireError::Malformed("oversized embedding dim"));
            }
            let raw = r.take(
                dim.checked_mul(4).ok_or(WireError::Malformed("size"))?,
                "embedding values",
            )?;
            let values = words(raw).map(f32::from_le_bytes).collect();
            Response::Ingested {
                id,
                node,
                dim: dim as u32,
                values,
            }
        }
        other => return Err(WireError::BadType(other)),
    };
    let summary = if ext_flags(version, &mut r)? {
        Some(decode_summary(&mut r)?)
    } else {
        None
    };
    r.finish()?;
    Ok((resp, summary))
}

fn decode_summary(r: &mut Reader<'_>) -> Result<SpanSummary, WireError> {
    let trace_id = r.u64("trace id")?;
    let count = r.u16("span count")? as usize;
    if count > MAX_SPANS_PER_SUMMARY {
        return Err(WireError::Malformed("too many spans"));
    }
    let mut spans = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = r.u8("span name length")? as usize;
        let raw = r.take(name_len, "span name")?;
        let name = std::str::from_utf8(raw)
            .map_err(|_| WireError::Malformed("non-utf8 span name"))?
            .to_string();
        let parent = r.u16("span parent")?;
        if parent != WireSpan::ROOT && parent as usize >= count {
            return Err(WireError::Malformed("span parent out of range"));
        }
        let start_ns = r.u64("span start")?;
        let dur_ns = r.u64("span duration")?;
        spans.push(WireSpan {
            name,
            parent,
            start_ns,
            dur_ns,
        });
    }
    Ok(SpanSummary { trace_id, spans })
}

/// Incremental frame assembler: feed arbitrarily-split byte chunks in,
/// take whole frame bodies out. Used by both server and client to handle
/// TCP's stream semantics.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily to keep pushes O(n).
    pos: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact once the dead prefix dominates, amortising to O(1)/byte.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, if one is fully buffered.
    ///
    /// # Errors
    /// [`WireError::Oversized`] as soon as a length prefix exceeds
    /// [`MAX_FRAME_LEN`] — the connection should be dropped, since framing
    /// can no longer be trusted.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let Some((prefix, rest)) = self.buf[self.pos..].split_first_chunk() else {
            return Ok(None);
        };
        let declared = u32::from_le_bytes(*prefix) as usize;
        if declared > MAX_FRAME_LEN {
            return Err(WireError::Oversized { declared });
        }
        let Some(body) = rest.get(..declared) else {
            return Ok(None);
        };
        let body = body.to_vec();
        self.pos += 4 + declared;
        Ok(Some(body))
    }

    /// Bytes buffered but not yet consumed (diagnostics).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let reqs = [
            Request::Embed {
                id: 42,
                seed: 7,
                nodes: vec![0, 1, 99],
            },
            Request::Classify {
                id: u64::MAX,
                seed: 0,
                rounds: 3,
                nodes: vec![5],
            },
            Request::Telemetry { id: 77 },
        ];
        for req in &reqs {
            let wire = encode_request(req);
            let mut fr = FrameReader::new();
            fr.push(&wire);
            let body = fr.next_frame().unwrap().expect("complete frame");
            assert_eq!(&decode_request(&body).unwrap(), req);
            assert!(fr.next_frame().unwrap().is_none());
        }
    }

    #[test]
    fn embeddings_frames_match_their_golden_bytes() {
        // Byte for byte what the wire carried before the encoder wrote
        // frames in place: length prefix, header, shape, raw little-endian
        // floats (a NaN payload and a subnormal included), then the
        // version-2 span extension.
        let resp = Response::Embeddings {
            id: 0x0102_0304_0506_0708,
            dim: 2,
            values: [0x3F80_0000, 0x8000_0000, 0x0000_0001, 0x7FC0_0001]
                .map(f32::from_bits)
                .to_vec(),
        };
        let body: &[&[u8]] = &[
            b"WSV1\x01\x00\x03",
            &[8, 7, 6, 5, 4, 3, 2, 1],
            &[2, 0, 0, 0, 2, 0, 0, 0],
            &[
                0, 0, 0x80, 0x3F, 0, 0, 0, 0x80, 1, 0, 0, 0, 1, 0, 0xC0, 0x7F,
            ],
        ];
        let plain: Vec<u8> = [&[39, 0, 0, 0][..]]
            .iter()
            .chain(body)
            .flat_map(|p| p.iter().copied())
            .collect();
        assert_eq!(encode_response(&resp), plain);

        let summary = SpanSummary {
            trace_id: 0x1122_3344_5566_7788,
            spans: vec![WireSpan {
                name: "a.b".into(),
                parent: WireSpan::ROOT,
                start_ns: 5,
                dur_ns: 9,
            }],
        };
        let mut traced = plain.clone();
        traced[..4].copy_from_slice(&72u32.to_le_bytes());
        traced[8] = 2; // version 2
        traced.extend_from_slice(&[1, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 1, 0]);
        traced.extend_from_slice(b"\x03a.b\xFF\xFF");
        traced.extend_from_slice(&[5, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(encode_response_traced(&resp, &summary), traced);
    }

    #[test]
    fn response_frames_round_trip() {
        let resps = [
            Response::Embeddings {
                id: 1,
                dim: 2,
                values: vec![0.5, -1.25, 3.0, 0.0],
            },
            Response::Classes {
                id: 2,
                labels: vec![0, 1, 1],
            },
            Response::Error {
                id: 3,
                code: 2,
                message: "deadline exceeded".into(),
            },
            Response::Telemetry {
                id: 4,
                text: "{\"counters\":{\"serve_jobs_total\":12},\"gauges\":{},\"histograms\":{}}"
                    .into(),
            },
        ];
        for resp in &resps {
            let wire = encode_response(resp);
            let mut fr = FrameReader::new();
            fr.push(&wire);
            let body = fr.next_frame().unwrap().unwrap();
            assert_eq!(&decode_response(&body).unwrap(), resp);
        }
    }

    #[test]
    fn ingest_frames_round_trip() {
        let reqs = [
            Request::Ingest {
                id: 10,
                seed: 99,
                node_type: 2,
                label: Some(1),
                features: vec![0.25, -1.5, 0.0],
                edges: vec![(3, 0), (7, 1)],
            },
            Request::Ingest {
                id: 11,
                seed: 0,
                node_type: 0,
                label: None,
                features: vec![],
                edges: vec![],
            },
        ];
        for req in &reqs {
            let wire = encode_request(req);
            let mut fr = FrameReader::new();
            fr.push(&wire);
            let body = fr.next_frame().unwrap().expect("complete frame");
            assert_eq!(&decode_request(&body).unwrap(), req);
        }
        let resp = Response::Ingested {
            id: 10,
            node: 400,
            dim: 2,
            values: vec![1.5, -0.5],
        };
        let wire = encode_response(&resp);
        let mut fr = FrameReader::new();
        fr.push(&wire);
        let body = fr.next_frame().unwrap().unwrap();
        assert_eq!(decode_response(&body).unwrap(), resp);
    }

    #[test]
    fn ingest_malformations_rejected() {
        let req = Request::Ingest {
            id: 1,
            seed: 2,
            node_type: 0,
            label: Some(0),
            features: vec![1.0],
            edges: vec![(0, 0)],
        };
        let wire = encode_request(&req);
        let body = &wire[4..];
        // Truncations at every prefix error out rather than panic.
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err(), "cut {cut}");
        }
        // A label flag other than 0/1 is malformed.
        let mut bad_flag = body.to_vec();
        let flag_off = 4 + 2 + 1 + 8 + 8 + 2;
        assert_eq!(bad_flag[flag_off], 1);
        bad_flag[flag_off] = 2;
        assert_eq!(
            decode_request(&bad_flag),
            Err(WireError::Malformed("bad label flag"))
        );
        // Declared feature count beyond the cap.
        let mut bad_count = body.to_vec();
        let count_off = flag_off + 1 + 2;
        bad_count[count_off..count_off + 4]
            .copy_from_slice(&(MAX_FEATURES_PER_INGEST as u32 + 1).to_le_bytes());
        assert_eq!(
            decode_request(&bad_count),
            Err(WireError::Malformed("too many features in one ingest"))
        );
    }

    #[test]
    fn traced_ingest_carries_the_extension() {
        let req = Request::Ingest {
            id: 21,
            seed: 5,
            node_type: 1,
            label: None,
            features: vec![2.0],
            edges: vec![(1, 0)],
        };
        let trace = TraceContext { trace_id: 77 };
        let wire = encode_request_traced(&req, &trace);
        let (back, ctx) = decode_request_ext(&wire[4..]).unwrap();
        assert_eq!(back, req);
        assert_eq!(ctx, Some(trace));
    }

    #[test]
    fn split_reads_reassemble() {
        let wire = encode_request(&Request::Embed {
            id: 9,
            seed: 3,
            nodes: (0..50).collect(),
        });
        let mut fr = FrameReader::new();
        for b in &wire {
            assert!(fr.next_frame().unwrap().is_none() || fr.pending() == 0);
            fr.push(std::slice::from_ref(b));
        }
        let body = fr.next_frame().unwrap().expect("assembled from bytes");
        assert!(matches!(
            decode_request(&body).unwrap(),
            Request::Embed { id: 9, .. }
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut fr = FrameReader::new();
        fr.push(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(fr.next_frame(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn malformed_bodies_error_not_panic() {
        // Truncations at every prefix of a valid body.
        let wire = encode_request(&Request::Classify {
            id: 1,
            seed: 2,
            rounds: 2,
            nodes: vec![1, 2, 3],
        });
        let body = &wire[4..];
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err(), "cut {cut}");
        }
        // Declared node count far beyond the actual bytes.
        let mut b = body.to_vec();
        let count_off = 4 + 2 + 1 + 8 + 8 + 4;
        b[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&b).is_err());
    }

    #[test]
    fn telemetry_frames_round_trip() {
        let req = Request::Telemetry { id: 99 };
        let wire = encode_request(&req);
        // Telemetry rides the plain version-1 framing like every other op.
        assert_eq!(&wire[4..][4..6], &VERSION.to_le_bytes());
        let mut fr = FrameReader::new();
        fr.push(&wire);
        let body = fr.next_frame().unwrap().expect("complete frame");
        assert_eq!(decode_request(&body).unwrap(), req);

        let resp = Response::Telemetry {
            id: 99,
            text: "{\"counters\":{},\"gauges\":{},\"slo\":{\"serve_request_latency_us\":{\"p50\":1.0,\"p90\":2.0,\"p99\":3.0,\"max\":4.0,\"count\":5}}}".into(),
        };
        let wire = encode_response(&resp);
        let mut fr = FrameReader::new();
        fr.push(&wire);
        let body = fr.next_frame().unwrap().unwrap();
        assert_eq!(decode_response(&body).unwrap(), resp);
    }

    #[test]
    fn telemetry_request_rejects_payload_bytes() {
        let wire = encode_request(&Request::Telemetry { id: 5 });
        let mut body = wire[4..].to_vec();
        body.push(0); // a Telemetry request is header-only
        assert_eq!(
            decode_request(&body),
            Err(WireError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn oversized_telemetry_text_is_truncated_at_a_char_boundary() {
        // Multi-byte content: truncation must land between characters.
        let resp = Response::Telemetry {
            id: 1,
            text: "λ".repeat(MAX_FRAME_LEN),
        };
        let wire = encode_response(&resp);
        let declared = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        assert!(declared <= MAX_FRAME_LEN);
        let mut fr = FrameReader::new();
        fr.push(&wire);
        let body = fr.next_frame().unwrap().expect("frame fits the cap");
        match decode_response(&body).unwrap() {
            Response::Telemetry { id: 1, text } => {
                assert!(!text.is_empty());
                assert!(text.chars().all(|c| c == 'λ'));
            }
            other => panic!("expected telemetry, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_truncations_error_not_panic() {
        let wire = encode_response(&Response::Telemetry {
            id: 3,
            text: "{\"counters\":{}}".into(),
        });
        let body = &wire[4..];
        for cut in 0..body.len() {
            assert!(decode_response(&body[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_message_types_still_rejected() {
        // The retired `Stats` codes (6, 7) and the next code past the
        // newest (12) error out as unknown on both decode paths.
        for t in [6, 7, 12] {
            let wire = encode_request(&Request::Telemetry { id: 1 });
            let mut body = wire[4..].to_vec();
            body[6] = t;
            assert_eq!(decode_request(&body), Err(WireError::BadType(t)));
            let wire = encode_response(&Response::Telemetry {
                id: 1,
                text: "{}".into(),
            });
            let mut body = wire[4..].to_vec();
            body[6] = t;
            assert_eq!(decode_response(&body), Err(WireError::BadType(t)));
        }
    }

    #[test]
    fn traced_request_round_trips_and_plain_decoder_drops_the_context() {
        let req = Request::Embed {
            id: 8,
            seed: 5,
            nodes: vec![1, 2],
        };
        let trace = TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
        };
        let wire = encode_request_traced(&req, &trace);
        let body = &wire[4..];
        assert_eq!(&body[4..6], &VERSION_TRACED.to_le_bytes());
        let (back, ctx) = decode_request_ext(body).unwrap();
        assert_eq!(back, req);
        assert_eq!(ctx, Some(trace));
        // The version-1 decoder path still accepts the frame, minus the ext.
        assert_eq!(decode_request(body).unwrap(), req);
    }

    #[test]
    fn traced_response_round_trips_span_summary() {
        let resp = Response::Classes {
            id: 3,
            labels: vec![1, 0],
        };
        let summary = SpanSummary {
            trace_id: 42,
            spans: vec![
                WireSpan {
                    name: "serve.server.request".into(),
                    parent: WireSpan::ROOT,
                    start_ns: 0,
                    dur_ns: 900,
                },
                WireSpan {
                    name: "serve.batcher.forward_batch".into(),
                    parent: 0,
                    start_ns: 100,
                    dur_ns: 700,
                },
            ],
        };
        let wire = encode_response_traced(&resp, &summary);
        let (back, got) = decode_response_ext(&wire[4..]).unwrap();
        assert_eq!(back, resp);
        assert_eq!(got, Some(summary));
        // Plain decoder interoperability.
        assert_eq!(decode_response(&wire[4..]).unwrap(), resp);
    }

    #[test]
    fn plain_frames_stay_bit_identical_version_one() {
        let wire = encode_request(&Request::Telemetry { id: 1 });
        assert_eq!(&wire[4..][4..6], &VERSION.to_le_bytes());
        let wire = encode_response(&Response::Classes {
            id: 1,
            labels: vec![2],
        });
        assert_eq!(&wire[4..][4..6], &VERSION.to_le_bytes());
        // And version-1 bodies pass through the ext decoders with no context.
        let (_, ctx) =
            decode_request_ext(&encode_request(&Request::Telemetry { id: 1 })[4..]).unwrap();
        assert!(ctx.is_none());
        let (_, summary) = decode_response_ext(&wire[4..]).unwrap();
        assert!(summary.is_none());
    }

    #[test]
    fn extension_malformations_rejected() {
        let req = Request::Telemetry { id: 9 };
        let trace = TraceContext { trace_id: 7 };
        let good = encode_request_traced(&req, &trace);
        let body = good[4..].to_vec();

        // Unknown extension flag bits.
        let mut bad_flags = body.clone();
        let flags_off = body.len() - 9;
        bad_flags[flags_off] |= 0x80;
        assert_eq!(
            decode_request_ext(&bad_flags),
            Err(WireError::Malformed("unknown extension flags"))
        );

        // Truncated trace id.
        assert!(decode_request_ext(&body[..body.len() - 1]).is_err());

        // Trailing bytes after a complete extension.
        let mut trailing = body.clone();
        trailing.push(0);
        assert_eq!(
            decode_request_ext(&trailing),
            Err(WireError::Malformed("trailing bytes"))
        );

        // Version 2 with no extension byte at all.
        let plain = encode_request(&req);
        let mut v2_no_ext = plain[4..].to_vec();
        v2_no_ext[4..6].copy_from_slice(&VERSION_TRACED.to_le_bytes());
        assert!(decode_request_ext(&v2_no_ext).is_err());

        // Response summary with an out-of-range parent index.
        let resp = Response::Classes {
            id: 1,
            labels: vec![0],
        };
        let summary = SpanSummary {
            trace_id: 1,
            spans: vec![WireSpan {
                name: "serve.server.request".into(),
                parent: 5,
                start_ns: 0,
                dur_ns: 1,
            }],
        };
        let wire = encode_response_traced(&resp, &summary);
        assert_eq!(
            decode_response_ext(&wire[4..]),
            Err(WireError::Malformed("span parent out of range"))
        );
    }

    #[test]
    fn oversized_summary_falls_back_to_a_plain_frame() {
        // A Telemetry payload near the frame cap leaves no room for the ext.
        let resp = Response::Telemetry {
            id: 6,
            text: "y".repeat(MAX_FRAME_LEN),
        };
        let summary = SpanSummary {
            trace_id: 3,
            spans: vec![WireSpan {
                name: "serve.server.request".into(),
                parent: WireSpan::ROOT,
                start_ns: 0,
                dur_ns: 10,
            }],
        };
        let wire = encode_response_traced(&resp, &summary);
        let declared = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        assert!(declared <= MAX_FRAME_LEN);
        assert_eq!(&wire[4..][4..6], &VERSION.to_le_bytes());
        let (_, got) = decode_response_ext(&wire[4..]).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn long_span_names_truncate_at_a_char_boundary() {
        let resp = Response::Classes {
            id: 2,
            labels: vec![0],
        };
        let summary = SpanSummary {
            trace_id: 9,
            spans: vec![WireSpan {
                name: "é".repeat(200), // 400 bytes of two-byte chars
                parent: WireSpan::ROOT,
                start_ns: 0,
                dur_ns: 5,
            }],
        };
        let wire = encode_response_traced(&resp, &summary);
        let (_, got) = decode_response_ext(&wire[4..]).unwrap();
        let got = got.unwrap();
        assert_eq!(got.spans[0].name, "é".repeat(127));
    }

    #[test]
    fn wrong_magic_version_type_rejected() {
        let wire = encode_request(&Request::Embed {
            id: 1,
            seed: 1,
            nodes: vec![],
        });
        let mut body = wire[4..].to_vec();
        let mut bad_magic = body.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_request(&bad_magic), Err(WireError::BadMagic));
        let mut bad_version = body.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            decode_request(&bad_version),
            Err(WireError::BadVersion(_))
        ));
        body[6] = 77;
        assert_eq!(decode_request(&body), Err(WireError::BadType(77)));
    }
}
