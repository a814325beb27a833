//! Blocking client for the WIDEN serving protocol, with an optional
//! pipelined mode: `send_embed`/`send_classify` put multiple requests in
//! flight on one socket and `recv_embed(id)`/`recv_classify(id)` collect
//! them in any order — responses that arrive for a different id are
//! stashed until their own `recv_*` call asks for them. The server may
//! complete pipelined requests out of order (batches finish when they
//! finish); correlation by request id makes that invisible here.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use widen_obs::Tracer;

use crate::error::ServeError;
use crate::protocol::{
    decode_response_ext, encode_request, encode_request_traced, FrameReader, Request, Response,
    SpanSummary, TraceContext, WireError,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes that do not decode.
    Wire(WireError),
    /// The server answered with an error response.
    Server(ServeError),
    /// The server answered with the wrong response shape or id.
    Mismatch(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Mismatch(what) => write!(f, "response mismatch: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a serving instance. One request is in flight
/// at a time; responses are matched back by request id.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
    /// When set, every request carries a trace context (version-2 frames)
    /// and the server's span summary lands in `last_trace`.
    tracing: bool,
    /// Deterministic trace-id source; nothing is recorded into it, it
    /// only mints ids.
    tracer: Tracer,
    last_trace: Option<SpanSummary>,
    /// Responses received while waiting for a different id (pipelining).
    stash: Vec<(Response, Option<SpanSummary>)>,
    /// Node counts of in-flight pipelined requests, for shape validation
    /// at `recv_*` time.
    expected_nodes: HashMap<u64, usize>,
}

impl Client {
    /// Connects to a server, e.g. `Client::connect(handle.local_addr())`.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Far beyond any server deadline; guards against a hung peer.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
            tracing: false,
            tracer: Tracer::new(0x5EED_7ACE),
            last_trace: None,
            stash: Vec::new(),
            expected_nodes: HashMap::new(),
        })
    }

    /// Toggles request tracing. While on, each call sends a version-2
    /// frame with a fresh trace id and [`Client::last_trace`] holds the
    /// span summary the server returned for the most recent call.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.last_trace = None;
        }
    }

    /// The server-side span summary of the most recent traced call, if
    /// the server returned one.
    pub fn last_trace(&self) -> Option<&SpanSummary> {
        self.last_trace.as_ref()
    }

    /// Requests embeddings for `nodes` sampled with `seed`; returns one
    /// `d`-dimensional row per node, in request order.
    ///
    /// # Errors
    /// Returns a [`ClientError`] on transport failure or a server-reported
    /// error (overload, deadline, bad request, shutdown).
    pub fn embed(&mut self, nodes: &[u32], seed: u64) -> Result<Vec<Vec<f32>>, ClientError> {
        let id = self.send_embed(nodes, seed)?;
        self.recv_embed(id)
    }

    /// Puts an embed request in flight without waiting for its answer;
    /// returns the request id for [`Client::recv_embed`]. Any number of
    /// requests may be pipelined on the connection, and they may be
    /// received in any order.
    ///
    /// # Errors
    /// Returns a [`ClientError`] on transport failure.
    pub fn send_embed(&mut self, nodes: &[u32], seed: u64) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send_request(&Request::Embed {
            id,
            seed,
            nodes: nodes.to_vec(),
        })?;
        self.expected_nodes.insert(id, nodes.len());
        Ok(id)
    }

    /// Collects the answer to a pipelined [`Client::send_embed`]. Order
    /// is free: responses for other in-flight ids encountered on the way
    /// are stashed and handed to their own `recv_*` calls later.
    ///
    /// # Errors
    /// Returns a [`ClientError`] on transport failure, a server-reported
    /// error, or an `id` that was never sent (or already received).
    pub fn recv_embed(&mut self, id: u64) -> Result<Vec<Vec<f32>>, ClientError> {
        let Some(node_count) = self.expected_nodes.remove(&id) else {
            return Err(ClientError::Mismatch("unknown request id"));
        };
        match self.recv_for(id)? {
            Response::Embeddings { dim, values, .. } => {
                let dim = dim as usize;
                if dim == 0 || values.len() != node_count * dim {
                    if node_count == 0 && values.is_empty() {
                        return Ok(Vec::new());
                    }
                    return Err(ClientError::Mismatch("embedding shape"));
                }
                Ok(values.chunks_exact(dim).map(<[f32]>::to_vec).collect())
            }
            Response::Error { code, message, .. } => {
                Err(ClientError::Server(ServeError::from_code(code, message)))
            }
            _ => Err(ClientError::Mismatch("expected embeddings")),
        }
    }

    /// Requests ensemble-classified labels for `nodes`; equals the serial
    /// `predict_ensemble(graph, nodes, seed, rounds)` answer.
    ///
    /// # Errors
    /// Returns a [`ClientError`] on transport failure or a server-reported
    /// error.
    pub fn classify(
        &mut self,
        nodes: &[u32],
        seed: u64,
        rounds: u32,
    ) -> Result<Vec<u32>, ClientError> {
        let id = self.send_classify(nodes, seed, rounds)?;
        self.recv_classify(id)
    }

    /// Puts a classify request in flight without waiting for its answer;
    /// returns the request id for [`Client::recv_classify`].
    ///
    /// # Errors
    /// Returns a [`ClientError`] on transport failure.
    pub fn send_classify(
        &mut self,
        nodes: &[u32],
        seed: u64,
        rounds: u32,
    ) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send_request(&Request::Classify {
            id,
            seed,
            rounds,
            nodes: nodes.to_vec(),
        })?;
        self.expected_nodes.insert(id, nodes.len());
        Ok(id)
    }

    /// Collects the answer to a pipelined [`Client::send_classify`], in
    /// any order relative to other in-flight requests.
    ///
    /// # Errors
    /// Returns a [`ClientError`] on transport failure, a server-reported
    /// error, or an `id` that was never sent (or already received).
    pub fn recv_classify(&mut self, id: u64) -> Result<Vec<u32>, ClientError> {
        let Some(node_count) = self.expected_nodes.remove(&id) else {
            return Err(ClientError::Mismatch("unknown request id"));
        };
        match self.recv_for(id)? {
            Response::Classes { labels, .. } => {
                if labels.len() != node_count {
                    return Err(ClientError::Mismatch("label count"));
                }
                Ok(labels)
            }
            Response::Error { code, message, .. } => {
                Err(ClientError::Server(ServeError::from_code(code, message)))
            }
            _ => Err(ClientError::Mismatch("expected classes")),
        }
    }

    /// Streams one never-seen node into the served graph: node type,
    /// feature row, optional label, and typed edges `(peer, edge_type)`
    /// to existing nodes. Returns the assigned node id and the node's
    /// embedding sampled with `seed` — bit-identical to what
    /// [`Client::embed`] for that id would return afterwards under the
    /// same seed and model generation, in one round trip.
    ///
    /// # Errors
    /// Returns a [`ClientError`] on transport failure or a server-reported
    /// error (invalid node/edge type, feature-dimension mismatch,
    /// out-of-range peer, shutdown).
    pub fn ingest(
        &mut self,
        node_type: u16,
        features: &[f32],
        label: Option<u16>,
        edges: &[(u32, u16)],
        seed: u64,
    ) -> Result<(u32, Vec<f32>), ClientError> {
        let id = self.fresh_id();
        self.send_request(&Request::Ingest {
            id,
            seed,
            node_type,
            label,
            features: features.to_vec(),
            edges: edges.to_vec(),
        })?;
        match self.recv_for(id)? {
            Response::Ingested {
                id: rid,
                node,
                dim,
                values,
            } => {
                if rid != id {
                    return Err(ClientError::Mismatch("response id"));
                }
                if dim == 0 || values.len() != dim as usize {
                    return Err(ClientError::Mismatch("embedding shape"));
                }
                Ok((node, values))
            }
            Response::Error { code, message, .. } => {
                Err(ClientError::Server(ServeError::from_code(code, message)))
            }
            _ => Err(ClientError::Mismatch("expected ingested")),
        }
    }

    /// Requests the merged process-wide telemetry view: counters and
    /// gauges summed across the server's own registry and the ambient
    /// global one (sampling, packaging), plus a per-histogram SLO report
    /// (`p50`/`p90`/`p99`/`max`/`count`) under the `slo` key.
    ///
    /// # Errors
    /// Returns a [`ClientError`] on transport failure or a server-reported
    /// error.
    pub fn telemetry(&mut self) -> Result<String, ClientError> {
        let id = self.fresh_id();
        self.send_request(&Request::Telemetry { id })?;
        match self.recv_for(id)? {
            Response::Telemetry { id: rid, text } => {
                if rid != id {
                    return Err(ClientError::Mismatch("response id"));
                }
                Ok(text)
            }
            Response::Error { code, message, .. } => {
                Err(ClientError::Server(ServeError::from_code(code, message)))
            }
            _ => Err(ClientError::Mismatch("expected telemetry")),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Encodes and writes one request frame (traced when tracing is on).
    fn send_request(&mut self, request: &Request) -> Result<(), ClientError> {
        let wire = if self.tracing {
            let trace = TraceContext {
                trace_id: self.tracer.start_trace().0,
            };
            encode_request_traced(request, &trace)
        } else {
            encode_request(request)
        };
        self.stream.write_all(&wire)?;
        Ok(())
    }

    /// Blocks until the response for `id` arrives. Responses for other
    /// in-flight ids are stashed for their own `recv_*` calls. An error
    /// frame with id 0 — the server could not attribute it to a request
    /// (malformed frame, admission rejection before any request was
    /// read) — is delivered to whoever is currently waiting.
    fn recv_for(&mut self, id: u64) -> Result<Response, ClientError> {
        if let Some(i) = self
            .stash
            .iter()
            .position(|(r, _)| r.id() == id || (r.id() == 0 && matches!(r, Response::Error { .. })))
        {
            let (response, summary) = self.stash.remove(i);
            if self.tracing {
                self.last_trace = summary;
            }
            return Ok(response);
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(body) = self.reader.next_frame().map_err(ClientError::Wire)? {
                let (response, summary) = decode_response_ext(&body).map_err(ClientError::Wire)?;
                let rid = response.id();
                if rid == id || (rid == 0 && matches!(response, Response::Error { .. })) {
                    if self.tracing {
                        self.last_trace = summary;
                    }
                    return Ok(response);
                }
                self.stash.push((response, summary));
                continue;
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                )));
            }
            self.reader.push(&buf[..n]);
        }
    }
}
