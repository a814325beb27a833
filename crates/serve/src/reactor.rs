//! The event-driven serve front end: one thread, one `poll(2)` set, every
//! client socket nonblocking.
//!
//! The reactor owns the listener and all client connections. Each
//! connection is a [`FrameReader`] state machine plus a write buffer; the
//! reactor reads whatever bytes are available, decodes complete frames
//! into requests, fans their per-node jobs onto the shared batcher queue,
//! and — when the last job of a request completes — assembles the
//! response and flushes it back. Requests are correlated by a
//! reactor-internal sequence number (`req`), *not* connection identity or
//! arrival order, so a client may pipeline many requests on one socket
//! and batches may complete out of order: every response still reaches
//! the right request slot, and the wire id echoes the client's choice.
//!
//! Cost per idle connection is one `pollfd` entry — no thread, no stack.
//! That is what lets the soak test hold thousands of open connections
//! with a thread count that does not move.
//!
//! ## Admission control and load shedding
//!
//! Two gates, both answered with a typed `Overloaded` error frame rather
//! than a silent drop or an accept backlog:
//!
//! * **Connection cap** ([`ServeConfig::max_connections`]): connections
//!   beyond the cap are accepted, told `Overloaded` (wire id 0 — no
//!   request was read), and closed. Accept-then-reject keeps the kernel
//!   backlog from silently queueing peers that would never be served.
//!   Counted in `serve_conns_rejected_total`.
//! * **Queue shedding**: before enqueueing *any* of a request's jobs the
//!   reactor checks that the whole request fits in the remaining queue
//!   budget; if not it sheds the request immediately — no partial
//!   enqueue, no waiting for the deadline to expire. Counted in
//!   `serve_shed_total`.
//!
//! Accept errors (`EMFILE` under fd exhaustion being the canonical one)
//! neither panic nor busy-spin: the listener's poll interest is simply
//! suppressed for a short backoff window ([`ACCEPT_ERROR_BACKOFF`]) while
//! established connections keep being served, and each error bumps
//! `serve_accept_errors_total`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rustc_hash::FxHashMap;
use widen_obs::{buckets, Counter, FlightRecord, Gauge, Histogram, TelemetrySnapshot};

use crate::batcher::{Completion, Job, JobKind, JobOutput, JobStamps, ReplySink};
use crate::error::ServeError;
use crate::poll::{poll_fds, pollfd, WakePipe, POLL_ERR, POLL_HUP, POLL_IN, POLL_NVAL, POLL_OUT};
use crate::protocol::{
    decode_request_ext, encode_response, encode_response_traced, FrameReader, Request, Response,
    SpanSummary, WireSpan,
};
use crate::server::Shared;

/// How long accept stays suppressed after an accept error. Long enough to
/// stop an `EMFILE` spin from pegging a core, short enough that recovery
/// (fds released) is picked up promptly.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Grace period past a request's deadline before the reactor reaps it
/// unanswered (matches the old handler-side reap margin): the batcher
/// normally answers expired jobs with `DeadlineExceeded` itself; the reap
/// is the backstop for jobs that never come back at all.
const REAP_GRACE: Duration = Duration::from_millis(250);

/// Per-connection read budget per poll round. A connection with an
/// endless stream of buffered bytes gets at most this much before the
/// reactor moves on to its neighbours — fairness against firehoses, and
/// the reason a slow-loris peer dribbling partial frames cannot starve
/// anyone (it just parks bytes in its own `FrameReader`).
const READ_CHUNK: usize = 16 * 1024;
const READ_CHUNKS_PER_ROUND: usize = 4;

/// An ingest handed off to the dedicated ingest executor thread. Graph
/// mutation can block on the registry write lock for up to the request
/// timeout, which must never stall the event loop — so the reactor ships
/// the work out and the result comes back as a [`Completion::Direct`].
pub(crate) struct IngestWork {
    /// Reactor-internal request key.
    pub req: u64,
    /// Client-chosen wire id.
    pub id: u64,
    /// Sampling seed for the returned embedding.
    pub seed: u64,
    /// The new node's type id.
    pub node_type: u16,
    /// Optional class label.
    pub label: Option<u16>,
    /// Dense feature row.
    pub features: Vec<f32>,
    /// Typed edges to existing nodes.
    pub edges: Vec<(u32, u16)>,
    /// Absolute deadline — bounds the write-lock wait.
    pub deadline: Instant,
}

/// One open client connection: frame assembly in, buffered bytes out.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded-but-unflushed response bytes.
    out: Vec<u8>,
    /// Flushed prefix of `out`.
    out_pos: usize,
    /// Requests from this connection still pending.
    inflight: usize,
    /// Stop reading and close once `out` flushes (protocol errors).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: 0,
            close_after_flush: false,
        }
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// What a pending request assembles into once its last completion lands.
enum PendingKind {
    /// Concatenate embedding rows in slot order.
    Embed,
    /// Collect labels in slot order.
    Classify,
    /// The completion carries a ready-made response (ingest).
    Direct,
}

/// What the answering tail records about a request besides its response.
struct RequestMeta {
    /// When the frame was complete — the origin of the request's latency,
    /// its flight-record phases, its slow decision and its wire spans.
    started: Instant,
    /// The client's trace id, when it asked for a span summary.
    trace_id: Option<u64>,
    /// Request kind label for the flight record.
    kind_name: &'static str,
    /// Node count for the flight record.
    nodes: u64,
}

/// One decoded request waiting on its completions.
struct Pending {
    /// Owning connection key.
    conn: u64,
    kind: PendingKind,
    /// Client-chosen wire id, echoed in the response.
    id: u64,
    /// Per-slot job outcomes, `None` until the slot's completion lands
    /// (empty for `Direct`).
    results: Vec<Option<Result<JobOutput, ServeError>>>,
    /// Completions still outstanding.
    remaining: usize,
    /// First error seen (job failure or partial-enqueue failure); wins
    /// over any successful slots.
    failure: Option<ServeError>,
    /// Backstop reap time (`deadline + REAP_GRACE`).
    reap_at: Instant,
    meta: RequestMeta,
    /// Embedding dimensionality (embed responses).
    dim: u32,
    /// Lifecycle stamps from the batcher (last completion wins); inline
    /// answers and direct completions never carry any.
    stamps: Option<JobStamps>,
}

/// What a poll-set entry refers back to.
enum Token {
    Wake,
    Listener,
    Conn(u64),
}

/// The reactor's own instrument handles, resolved once at construction so
/// the hot path never takes the registry lock.
struct ReactorMetrics {
    /// `serve_reactor_tick_us` — event-loop work per tick, poll wait
    /// excluded (drain + dispatch + reap).
    tick_us: Arc<Histogram>,
    /// `serve_reactor_ready_fds` — descriptors ready per non-empty poll
    /// return.
    ready_fds: Arc<Histogram>,
    /// `serve_reactor_dispatch_us` — time spent dispatching one tick's
    /// ready events.
    dispatch_us: Arc<Histogram>,
    /// `serve_request_decode_us` — frame-complete → request decoded.
    decode_us: Arc<Histogram>,
    /// `serve_request_latency_us` — frame decoded → response buffered and
    /// flush attempted, for every request (inline or batched).
    request_latency_us: Arc<Histogram>,
    /// `serve_write_flush_us` — one non-empty socket flush pass.
    write_flush_us: Arc<Histogram>,
    /// `serve_inflight_requests` — decoded requests awaiting completions.
    inflight: Arc<Gauge>,
    /// `serve_write_buffer_hwm_bytes` — largest unflushed write buffer
    /// ever observed on any connection (monotone high-water mark).
    write_buffer_hwm: Arc<Gauge>,
    /// `serve_duplicate_completions_total` — job completions dropped
    /// because their slot had already answered (or never existed).
    duplicate_completions: Arc<Counter>,
}

impl ReactorMetrics {
    fn new(registry: &widen_obs::Registry) -> Self {
        Self {
            tick_us: registry.histogram("serve_reactor_tick_us", buckets::LATENCY_US_FINE),
            ready_fds: registry.histogram("serve_reactor_ready_fds", buckets::SMALL_COUNTS),
            dispatch_us: registry.histogram("serve_reactor_dispatch_us", buckets::LATENCY_US_FINE),
            decode_us: registry.histogram("serve_request_decode_us", buckets::LATENCY_US_FINE),
            request_latency_us: registry
                .histogram("serve_request_latency_us", buckets::LATENCY_US_FINE),
            write_flush_us: registry.histogram("serve_write_flush_us", buckets::LATENCY_US_FINE),
            inflight: registry.gauge("serve_inflight_requests"),
            write_buffer_hwm: registry.gauge("serve_write_buffer_hwm_bytes"),
            duplicate_completions: registry.counter("serve_duplicate_completions_total"),
        }
    }
}

pub(crate) struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    job_tx: mpsc::SyncSender<Job>,
    /// Jobs enqueued and not yet pulled — the `serve_queue_depth` gauge,
    /// which the batcher decrements per pull.
    queued: Arc<Gauge>,
    ingest_tx: mpsc::Sender<IngestWork>,
    completion_rx: mpsc::Receiver<Completion>,
    /// Cloned into every job so the batcher can deliver-and-wake.
    sink: ReplySink,
    wake: Arc<WakePipe>,
    max_connections: usize,
    queue_depth: usize,
    conns: FxHashMap<u64, Conn>,
    pending: FxHashMap<u64, Pending>,
    next_conn: u64,
    next_req: u64,
    /// Listener interest suppressed until here after an accept error.
    accept_backoff_until: Option<Instant>,
    /// Set once the shutdown flag is observed; no more reads or accepts.
    draining: bool,
    /// Hard exit time once draining (covers unflushable peers).
    drain_deadline: Option<Instant>,
    /// Pre-resolved instrument handles (see [`ReactorMetrics`]).
    m: ReactorMetrics,
    /// Local shadow of the write-buffer high-water gauge, so the hot path
    /// compares against a plain integer instead of an atomic.
    write_hwm: usize,
}

impl Reactor {
    /// Builds the reactor. `sink` must be the sending half of
    /// `completion_rx`, with `wake` attached.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        job_tx: mpsc::SyncSender<Job>,
        ingest_tx: mpsc::Sender<IngestWork>,
        completion_rx: mpsc::Receiver<Completion>,
        sink: ReplySink,
        wake: Arc<WakePipe>,
        max_connections: usize,
        queue_depth: usize,
    ) -> Self {
        let m = ReactorMetrics::new(&shared.metrics);
        Self {
            listener,
            queued: shared.batcher_stats.queue_depth.clone(),
            shared,
            job_tx,
            ingest_tx,
            completion_rx,
            sink,
            wake,
            max_connections,
            queue_depth,
            conns: FxHashMap::default(),
            pending: FxHashMap::default(),
            next_conn: 1,
            next_req: 1,
            accept_backoff_until: None,
            draining: false,
            drain_deadline: None,
            m,
            write_hwm: 0,
        }
    }

    /// Runs the event loop until shutdown completes: flag observed, every
    /// pending request answered, every answer flushed (or the drain
    /// deadline passed).
    pub fn run(mut self) {
        loop {
            let tick_start = Instant::now();
            self.drain_completions();
            self.observe_shutdown();
            if self.draining && self.pending.is_empty() && self.all_flushed() {
                return;
            }
            if let Some(deadline) = self.drain_deadline {
                if Instant::now() >= deadline {
                    return;
                }
            }

            let (mut fds, tokens) = self.build_poll_set();
            let timeout = self.poll_timeout();
            // The blocking poll wait is excluded from the tick histogram:
            // the metric is event-loop *work* per tick, not idle time.
            let pre_poll_us = tick_start.elapsed().as_micros() as u64;
            let n = match poll_fds(&mut fds, timeout) {
                Ok(n) => n,
                Err(_) => {
                    // A broken poll set would spin; rebuild after a beat.
                    std::thread::sleep(Duration::from_millis(10));
                    0
                }
            };
            let dispatch_start = Instant::now();
            if n > 0 {
                self.m.ready_fds.observe(n as f64);
                let mut dead: Vec<u64> = Vec::new();
                for (fd, token) in fds.iter().zip(&tokens) {
                    if fd.revents == 0 {
                        continue;
                    }
                    match token {
                        Token::Wake => self.wake.drain(),
                        Token::Listener => self.accept_ready(),
                        Token::Conn(key) => {
                            if fd.revents & POLL_NVAL != 0 {
                                dead.push(*key);
                                continue;
                            }
                            if !self.handle_conn_event(*key, fd.revents) {
                                dead.push(*key);
                            }
                        }
                    }
                }
                for key in dead {
                    self.close_conn(key);
                }
            }
            self.reap_expired();
            let dispatch_us = dispatch_start.elapsed().as_micros() as u64;
            self.m.dispatch_us.observe(dispatch_us as f64);
            self.m.tick_us.observe((pre_poll_us + dispatch_us) as f64);
        }
    }

    fn all_flushed(&self) -> bool {
        self.conns.values().all(|c| !c.has_output())
    }

    /// Notices the shutdown flag: stop accepting, take one last read pass
    /// over every connection (bytes that raced the flag still get
    /// answered), then drain what is pending.
    fn observe_shutdown(&mut self) {
        if self.draining || !self.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        self.draining = true;
        self.drain_deadline =
            Some(Instant::now() + self.shared.request_timeout + Duration::from_secs(1));
        let keys: Vec<u64> = self.conns.keys().copied().collect();
        let mut dead = Vec::new();
        for key in keys {
            if !self.read_conn(key) {
                dead.push(key);
            }
        }
        for key in dead {
            self.close_conn(key);
        }
    }

    fn build_poll_set(&self) -> (Vec<pollfd>, Vec<Token>) {
        let mut fds = Vec::with_capacity(2 + self.conns.len());
        let mut tokens = Vec::with_capacity(2 + self.conns.len());
        fds.push(pollfd {
            fd: self.wake.read_fd(),
            events: POLL_IN,
            revents: 0,
        });
        tokens.push(Token::Wake);
        if !self.draining && !self.in_accept_backoff() {
            fds.push(pollfd {
                fd: self.listener.as_raw_fd(),
                events: POLL_IN,
                revents: 0,
            });
            tokens.push(Token::Listener);
        }
        for (&key, conn) in &self.conns {
            // A connection with no interest bits is still registered:
            // POLLHUP / POLLERR are reported regardless of the mask, so
            // hangups on write-only or draining connections surface.
            let mut events = 0i16;
            if !self.draining && !conn.close_after_flush {
                events |= POLL_IN;
            }
            if conn.has_output() {
                events |= POLL_OUT;
            }
            fds.push(pollfd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            tokens.push(Token::Conn(key));
        }
        (fds, tokens)
    }

    fn in_accept_backoff(&self) -> bool {
        self.accept_backoff_until
            .is_some_and(|until| Instant::now() < until)
    }

    /// Milliseconds until the nearest timed obligation: a pending reap,
    /// the accept backoff expiring, or the drain deadline. `-1` (block
    /// forever) when none exist — every other transition arrives as an fd
    /// event or a wake.
    fn poll_timeout(&self) -> i32 {
        let mut next: Option<Instant> = None;
        let mut consider = |t: Instant| match next {
            Some(cur) if cur <= t => {}
            _ => next = Some(t),
        };
        for p in self.pending.values() {
            consider(p.reap_at);
        }
        if let Some(until) = self.accept_backoff_until {
            if Instant::now() < until {
                consider(until);
            }
        }
        if let Some(deadline) = self.drain_deadline {
            consider(deadline);
        }
        match next {
            None => -1,
            Some(t) => {
                let ms = t.saturating_duration_since(Instant::now()).as_millis();
                // +1 rounds up so we never wake a hair early and re-loop.
                (ms.min(i32::MAX as u128 - 1) as i32) + 1
            }
        }
    }

    /// Accepts until the backlog is empty. Over-cap connections are told
    /// `Overloaded` and closed; accept errors start the backoff window.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.shared.connections_total.inc();
                    if self.conns.len() >= self.max_connections {
                        self.shared.conns_rejected.inc();
                        self.reject_connection(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let key = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(key, Conn::new(stream));
                    self.shared.open_connections.set(self.conns.len() as i64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // EMFILE and friends: count it, suppress accept for a
                    // beat, keep serving everyone already connected. The
                    // old front end spun on `continue` here at 100% CPU.
                    self.shared.accept_errors.inc();
                    self.accept_backoff_until = Some(Instant::now() + ACCEPT_ERROR_BACKOFF);
                    return;
                }
            }
        }
    }

    /// Best-effort `Overloaded` frame to a rejected connection. The frame
    /// is a few dozen bytes — far below any socket send buffer — so the
    /// blocking write cannot wedge the reactor.
    fn reject_connection(&self, mut stream: TcpStream) {
        let resp = Response::from_error(0, &ServeError::Overloaded);
        let _ = stream.write_all(&encode_response(&resp));
        if !self.shared.recorder.is_disabled() {
            let mut rec = FlightRecord::new(0, "conn");
            rec.outcome = "rejected";
            self.shared.recorder.record(rec);
            self.shared.anomaly_dump();
        }
    }

    /// Dispatches one connection's poll events. Returns `false` when the
    /// connection is finished and should be closed.
    fn handle_conn_event(&mut self, key: u64, revents: i16) -> bool {
        if revents & POLL_OUT != 0 && !self.flush_conn(key) {
            return false;
        }
        if revents & (POLL_IN | POLL_HUP | POLL_ERR) != 0 {
            let may_read = self
                .conns
                .get(&key)
                .is_some_and(|c| !self.draining && !c.close_after_flush);
            if may_read {
                if !self.read_conn(key) {
                    return false;
                }
            } else if revents & (POLL_HUP | POLL_ERR) != 0 {
                // Not reading anymore and the peer is gone: if nothing is
                // left to flush, close now instead of polling a corpse.
                if let Some(conn) = self.conns.get(&key) {
                    if !conn.has_output() {
                        return false;
                    }
                }
            }
        }
        // A close-after-flush connection with an empty buffer is done.
        if let Some(conn) = self.conns.get(&key) {
            if conn.close_after_flush && !conn.has_output() && conn.inflight == 0 {
                return false;
            }
        }
        true
    }

    /// Reads up to the per-round budget and processes every complete
    /// frame. Returns `false` on EOF or a fatal transport error.
    fn read_conn(&mut self, key: u64) -> bool {
        let mut buf = [0u8; READ_CHUNK];
        for _ in 0..READ_CHUNKS_PER_ROUND {
            let Some(conn) = self.conns.get_mut(&key) else {
                return true;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.reader.push(&buf[..n]);
                    if !self.process_frames(key) {
                        return false;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Decodes and dispatches every complete frame buffered on `key`.
    fn process_frames(&mut self, key: u64) -> bool {
        loop {
            let frame = {
                let Some(conn) = self.conns.get_mut(&key) else {
                    return true;
                };
                if conn.close_after_flush {
                    return true;
                }
                match conn.reader.next_frame() {
                    Ok(Some(body)) => body,
                    Ok(None) => return true,
                    Err(err) => {
                        // Framing is untrustworthy: answer once, flush,
                        // close.
                        let resp =
                            Response::from_error(0, &ServeError::BadRequest(err.to_string()));
                        let wire = encode_response(&resp);
                        conn.out.extend_from_slice(&wire);
                        conn.close_after_flush = true;
                        return self.flush_conn(key);
                    }
                }
            };
            if !self.handle_request_frame(key, &frame) {
                return false;
            }
        }
    }

    /// Decodes one request body and either answers it inline (telemetry,
    /// validation errors, shed) or registers a [`Pending`] and dispatches
    /// its work. Returns `false` when the connection should close.
    fn handle_request_frame(&mut self, key: u64, body: &[u8]) -> bool {
        let started = Instant::now();
        let (request, trace_ctx) = match decode_request_ext(body) {
            Ok(pair) => pair,
            Err(err) => {
                let resp = Response::from_error(0, &ServeError::BadRequest(err.to_string()));
                let wire = encode_response(&resp);
                if let Some(conn) = self.conns.get_mut(&key) {
                    conn.out.extend_from_slice(&wire);
                    conn.close_after_flush = true;
                }
                return self.flush_conn(key);
            }
        };
        let trace_id = trace_ctx.map(|ctx| ctx.trace_id);
        self.m
            .decode_us
            .observe(started.elapsed().as_micros() as f64);
        let id = request.id();
        let deadline = started + self.shared.request_timeout;
        let meta = |kind_name, nodes: usize| RequestMeta {
            started,
            trace_id,
            kind_name,
            nodes: nodes as u64,
        };

        match request {
            // Telemetry is answered inline: a metrics snapshot allocates a
            // string but never blocks.
            Request::Telemetry { .. } => {
                let response = Response::Telemetry {
                    id,
                    text: telemetry_text(&self.shared),
                };
                self.answer(key, &response, &meta("telemetry", 0), None)
            }
            Request::Ingest {
                seed,
                node_type,
                label,
                features,
                edges,
                ..
            } => {
                let req = self.fresh_req();
                let work = IngestWork {
                    req,
                    id,
                    seed,
                    node_type,
                    label,
                    features,
                    edges,
                    deadline,
                };
                let meta = meta("ingest", 0);
                if self.ingest_tx.send(work).is_err() {
                    let resp = Response::from_error(id, &ServeError::ShuttingDown);
                    return self.answer(key, &resp, &meta, None);
                }
                self.pending.insert(
                    req,
                    Pending {
                        conn: key,
                        kind: PendingKind::Direct,
                        id,
                        results: Vec::new(),
                        remaining: 1,
                        failure: None,
                        reap_at: deadline + REAP_GRACE,
                        meta,
                        dim: 0,
                        stamps: None,
                    },
                );
                self.m.inflight.set(self.pending.len() as i64);
                if let Some(conn) = self.conns.get_mut(&key) {
                    conn.inflight += 1;
                }
                true
            }
            Request::Embed { seed, nodes, .. } => {
                let meta = meta("embed", nodes.len());
                self.dispatch_jobs(key, id, JobKind::Embed, seed, nodes, deadline, meta)
            }
            Request::Classify {
                seed,
                rounds,
                nodes,
                ..
            } => {
                let meta = meta("classify", nodes.len());
                let kind = JobKind::Classify { rounds };
                self.dispatch_jobs(key, id, kind, seed, nodes, deadline, meta)
            }
        }
    }

    /// Validates an embed/classify request, then either answers it inline
    /// (bad node, empty, shed) or enqueues its per-node jobs and registers
    /// the pending entry. Returns `false` when the connection should
    /// close.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_jobs(
        &mut self,
        key: u64,
        id: u64,
        kind: JobKind,
        seed: u64,
        nodes: Vec<u32>,
        deadline: Instant,
        meta: RequestMeta,
    ) -> bool {
        if let Some(&bad) = nodes
            .iter()
            .find(|&&n| !self.shared.registry.contains_node(n))
        {
            let resp = Response::from_error(
                id,
                &ServeError::BadRequest(format!("node {bad} outside the served graph")),
            );
            return self.answer(key, &resp, &meta, None);
        }
        let d = self.shared.registry.read().model().config.d as u32;
        if nodes.is_empty() {
            let resp = match kind {
                JobKind::Embed => Response::Embeddings {
                    id,
                    dim: d,
                    values: Vec::new(),
                },
                JobKind::Classify { .. } => Response::Classes {
                    id,
                    labels: Vec::new(),
                },
            };
            return self.answer(key, &resp, &meta, None);
        }

        // Shed before enqueue: either the whole request fits in the queue
        // budget right now or none of it goes in. The reactor is the only
        // enqueuer and counts every job it sends, and the batcher uncounts
        // a job only after pulling it, so here the live count never reads
        // below the queue's length: a passed check cannot race into a
        // partial enqueue.
        if self.queued.get() as usize + nodes.len() > self.queue_depth {
            self.shared.shed.inc();
            let resp = Response::from_error(id, &ServeError::Overloaded);
            return self.answer(key, &resp, &meta, None);
        }

        let req = self.fresh_req();
        let mut enqueued = 0usize;
        let mut failure: Option<ServeError> = None;
        for (slot, &node) in nodes.iter().enumerate() {
            let job = Job {
                kind,
                node,
                seed,
                deadline,
                req,
                slot,
                reply: self.sink.clone(),
                enqueued_at: Instant::now(),
                pulled_at: Instant::now(),
            };
            match self.job_tx.try_send(job) {
                Ok(()) => {
                    self.queued.add(1);
                    enqueued += 1;
                }
                Err(TrySendError::Full(_)) => {
                    self.shared.shed.inc();
                    failure = Some(ServeError::Overloaded);
                    break;
                }
                Err(TrySendError::Disconnected(_)) => {
                    failure = Some(ServeError::ShuttingDown);
                    break;
                }
            }
        }
        if enqueued == 0 {
            let err = failure.unwrap_or(ServeError::Internal("no jobs enqueued".into()));
            let resp = Response::from_error(id, &err);
            return self.answer(key, &resp, &meta, None);
        }
        self.pending.insert(
            req,
            Pending {
                conn: key,
                kind: match kind {
                    JobKind::Embed => PendingKind::Embed,
                    JobKind::Classify { .. } => PendingKind::Classify,
                },
                id,
                results: vec![None; nodes.len()],
                remaining: enqueued,
                failure,
                reap_at: deadline + REAP_GRACE,
                meta,
                dim: d,
                stamps: None,
            },
        );
        self.m.inflight.set(self.pending.len() as i64);
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.inflight += 1;
        }
        true
    }

    fn fresh_req(&mut self) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        req
    }

    /// Applies every queued completion. Late completions whose request
    /// was already reaped (or whose connection died) have no pending
    /// entry and are dropped silently; a second completion for a slot
    /// that already answered is dropped and counted — it never decides a
    /// response.
    fn drain_completions(&mut self) {
        while let Ok(completion) = self.completion_rx.try_recv() {
            match completion {
                Completion::Job {
                    req,
                    slot,
                    result,
                    stamps,
                } => {
                    let Some(p) = self.pending.get_mut(&req) else {
                        continue;
                    };
                    let Some(cell) = p.results.get_mut(slot).filter(|cell| cell.is_none()) else {
                        self.m.duplicate_completions.inc();
                        continue;
                    };
                    if let Err(err) = &result {
                        p.failure.get_or_insert_with(|| err.clone());
                    }
                    *cell = Some(result);
                    // Last completion wins: the request's recorded
                    // timeline is the slot that finished it.
                    p.stamps = Some(stamps);
                    p.remaining = p.remaining.saturating_sub(1);
                    if p.remaining > 0 {
                        continue;
                    }
                    if let Some(p) = self.take_pending(req) {
                        self.answer(p.conn, &assemble(&p), &p.meta, p.stamps.as_ref());
                    }
                }
                Completion::Direct { req, response } => {
                    if let Some(p) = self.take_pending(req) {
                        self.answer(p.conn, &response, &p.meta, p.stamps.as_ref());
                    }
                }
            }
        }
    }

    /// Removes a finished request from the pending table and from its
    /// connection's in-flight count.
    fn take_pending(&mut self, req: u64) -> Option<Pending> {
        let p = self.pending.remove(&req)?;
        self.m.inflight.set(self.pending.len() as i64);
        if let Some(conn) = self.conns.get_mut(&p.conn) {
            conn.inflight = conn.inflight.saturating_sub(1);
        }
        Some(p)
    }

    /// The one answering tail, inline or pending: encode (with the wire
    /// span summary when the client asked for one), buffer, flush, then
    /// close the accounting from one `total` — latency histogram, slow
    /// decision, flight record, anomaly dump. The summary and the flight
    /// record are drawn from the same stamps: the finishing slot's.
    /// Returns `false` when the connection should close.
    fn answer(
        &mut self,
        conn: u64,
        response: &Response,
        meta: &RequestMeta,
        stamps: Option<&JobStamps>,
    ) -> bool {
        self.shared.requests.inc();
        let wire = match meta.trace_id {
            Some(trace_id) => {
                encode_response_traced(response, &span_summary(trace_id, meta.started, stamps))
            }
            None => encode_response(response),
        };
        let write_start = Instant::now();
        let alive = match self.conns.get_mut(&conn) {
            Some(c) => {
                c.out.extend_from_slice(&wire);
                self.flush_conn(conn)
            }
            None => false,
        };
        let total = meta.started.elapsed();
        self.m.request_latency_us.observe(total.as_micros() as f64);
        self.record_request(response, meta, stamps, total, write_start);
        alive
    }

    /// The slow decision and the flight record, from the request's one
    /// `total`. A request answered without error at or over the threshold
    /// is slow: counted in `serve_slow_requests_total` (recorder or not),
    /// tagged `slow`, and — like a shed or a deadline drop — fires the
    /// anomaly dump. Steady-state cost is one ring write.
    fn record_request(
        &self,
        response: &Response,
        meta: &RequestMeta,
        stamps: Option<&JobStamps>,
        total: Duration,
        write_start: Instant,
    ) {
        let mut outcome = outcome_of(response);
        if outcome == "ok" && self.shared.slow_threshold.is_some_and(|t| total >= t) {
            outcome = "slow";
            self.shared.slow_requests.inc();
        }
        if self.shared.recorder.is_disabled() {
            return;
        }
        let off = |t: Instant| t.saturating_duration_since(meta.started).as_micros() as u64;
        let mut rec = FlightRecord::new(response.id(), meta.kind_name);
        rec.nodes = meta.nodes.min(u32::MAX as u64) as u32;
        rec.outcome = outcome;
        rec.total_us = total.as_micros() as u64;
        for (phase, _, from, to) in stamps.iter().flat_map(|s| s.phases()) {
            rec.push_phase(
                phase,
                off(from),
                to.saturating_duration_since(from).as_micros() as u64,
            );
        }
        let write_us = write_start.elapsed().as_micros() as u64;
        rec.push_phase("write", off(write_start), write_us);
        self.shared.recorder.record(rec);
        if matches!(outcome, "slow" | "overloaded" | "deadline") {
            self.shared.anomaly_dump();
        }
    }

    /// Writes as much buffered output as the socket will take. Returns
    /// `false` on a fatal write error (connection should close).
    fn flush_conn(&mut self, key: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&key) else {
            return false;
        };
        let backlog = conn.out.len() - conn.out_pos;
        if backlog == 0 {
            return true;
        }
        if backlog > self.write_hwm {
            self.write_hwm = backlog;
            self.m.write_buffer_hwm.set(backlog as i64);
        }
        let flush_start = Instant::now();
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        }
        self.m
            .write_flush_us
            .observe(flush_start.elapsed().as_micros() as f64);
        true
    }

    /// Reaps pending requests whose backstop time passed: answers
    /// `DeadlineExceeded` and forgets the request — any completion that
    /// still arrives finds no entry and is dropped.
    fn reap_expired(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.reap_at <= now)
            .map(|(&req, _)| req)
            .collect();
        for req in expired {
            if let Some(p) = self.take_pending(req) {
                let response = Response::from_error(p.id, &ServeError::DeadlineExceeded);
                self.answer(p.conn, &response, &p.meta, p.stamps.as_ref());
            }
        }
    }

    /// Removes a connection and every pending request it owns (their
    /// in-queue jobs still compute; the completions will be dropped).
    fn close_conn(&mut self, key: u64) {
        if self.conns.remove(&key).is_some() {
            self.shared.open_connections.set(self.conns.len() as i64);
        }
        let orphaned: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.conn == key)
            .map(|(&req, _)| req)
            .collect();
        for req in orphaned {
            self.pending.remove(&req);
        }
        self.m.inflight.set(self.pending.len() as i64);
    }
}

/// The flight-record outcome tag for a finished response, derived from
/// the stable [`ServeError`] code.
fn outcome_of(response: &Response) -> &'static str {
    match response {
        Response::Error { code, .. } => match *code {
            1 => "overloaded",
            2 => "deadline",
            3 => "shutdown",
            4 => "bad_request",
            _ => "error",
        },
        _ => "ok",
    }
}

/// Concatenates a finished request's slot results into its response, or
/// its recorded failure into an error.
fn assemble(p: &Pending) -> Response {
    if let Some(err) = &p.failure {
        return Response::from_error(p.id, err);
    }
    match p.kind {
        PendingKind::Embed => {
            let mut values = Vec::with_capacity(p.results.len() * p.dim as usize);
            for r in &p.results {
                match r {
                    Some(Ok(JobOutput::Embedding(row))) => values.extend_from_slice(row),
                    _ => {
                        return Response::from_error(
                            p.id,
                            &ServeError::Internal("job answered with wrong output kind".into()),
                        )
                    }
                }
            }
            Response::Embeddings {
                id: p.id,
                dim: p.dim,
                values,
            }
        }
        PendingKind::Classify => {
            let mut labels = Vec::with_capacity(p.results.len());
            for r in &p.results {
                match r {
                    Some(Ok(JobOutput::Label(label))) => labels.push(*label),
                    _ => {
                        return Response::from_error(
                            p.id,
                            &ServeError::Internal("job answered with wrong output kind".into()),
                        )
                    }
                }
            }
            Response::Classes { id: p.id, labels }
        }
        PendingKind::Direct => Response::from_error(
            p.id,
            &ServeError::Internal("direct request assembled from slots".into()),
        ),
    }
}

/// The wire span summary: the `serve.server.request` root from `started`
/// (the latency histogram's origin) to now, the response's encode; then,
/// as its children, the finishing slot's lifecycle phases — the flight
/// record's intervals, in nanoseconds from `started`.
fn span_summary(trace_id: u64, started: Instant, stamps: Option<&JobStamps>) -> SpanSummary {
    let ns = |from: Instant, to: Instant| to.saturating_duration_since(from).as_nanos() as u64;
    let root = WireSpan {
        name: "serve.server.request".into(),
        parent: WireSpan::ROOT,
        start_ns: 0,
        dur_ns: ns(started, Instant::now()),
    };
    let children = stamps
        .iter()
        .flat_map(|s| s.phases())
        .map(|(_, name, from, to)| WireSpan {
            name: name.into(),
            parent: 0,
            start_ns: ns(started, from),
            dur_ns: ns(from, to),
        });
    SpanSummary {
        trace_id,
        spans: std::iter::once(root).chain(children).collect(),
    }
}

/// Renders the `Telemetry` payload: the server's own registry merged with
/// the process-global ambient registry into one [`TelemetrySnapshot`] —
/// counters and gauges summed, every histogram summarised as an SLO
/// report (p50/p90/p99/max).
pub(crate) fn telemetry_text(shared: &Shared) -> String {
    TelemetrySnapshot::merge(&[
        shared.metrics.snapshot(),
        widen_obs::Registry::global().snapshot(),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatcherStats;
    use crate::cache::EmbedCache;
    use crate::registry::ModelRegistry;
    use widen_core::{WidenConfig, WidenModel};

    #[test]
    fn a_duplicate_completion_is_counted_and_never_decides_the_response() {
        let dataset = widen_data::acm_like(widen_data::Scale::Smoke, 3);
        let mut cfg = WidenConfig::small();
        cfg.d = 4;
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        let registry = Arc::new(ModelRegistry::from_model(dataset.graph, model));
        let metrics = Arc::new(widen_obs::Registry::new());
        let shared = Arc::new(Shared {
            shutdown: Default::default(),
            requests: metrics.counter("serve_requests_total"),
            slow_requests: metrics.counter("serve_slow_requests_total"),
            ingests: metrics.counter("serve_ingests_total"),
            shed: metrics.counter("serve_shed_total"),
            accept_errors: metrics.counter("serve_accept_errors_total"),
            conns_rejected: metrics.counter("serve_conns_rejected_total"),
            connections_total: metrics.counter("serve_connections_total"),
            open_connections: metrics.gauge("serve_open_connections"),
            cache: Arc::new(EmbedCache::new(0)),
            batcher_stats: Arc::new(BatcherStats::new(&metrics)),
            registry,
            request_timeout: Duration::from_secs(5),
            slow_threshold: None,
            recorder: widen_obs::FlightRecorder::new(0),
            postmortem_dumps: metrics.counter("serve_postmortem_dumps_total"),
            postmortem: Default::default(),
            postmortem_path: None,
            metrics,
        });
        let (job_tx, _job_rx) = mpsc::sync_channel(4);
        let (ingest_tx, _ingest_rx) = mpsc::channel();
        let (tx, completion_rx) = mpsc::channel();
        let sink = ReplySink {
            tx: tx.clone(),
            wake: None,
        };
        let mut reactor = Reactor::new(
            TcpListener::bind("127.0.0.1:0").unwrap(),
            shared.clone(),
            job_tx,
            ingest_tx,
            completion_rx,
            sink,
            Arc::new(WakePipe::new().unwrap()),
            4,
            4,
        );
        // A two-node embed request, waiting on both of its jobs.
        let now = Instant::now();
        reactor.pending.insert(
            7,
            Pending {
                conn: 0,
                kind: PendingKind::Embed,
                id: 1,
                results: vec![None, None],
                remaining: 2,
                failure: None,
                reap_at: now + Duration::from_secs(60),
                meta: RequestMeta {
                    started: now,
                    trace_id: None,
                    kind_name: "embed",
                    nodes: 2,
                },
                dim: 1,
                stamps: None,
            },
        );
        let stamps = JobStamps {
            enqueued: now,
            pulled: now,
            batch_start: now,
            forward: None,
        };
        let done = |slot, x: f32| Completion::Job {
            req: 7,
            slot,
            result: Ok(JobOutput::Embedding(vec![x])),
            stamps,
        };

        // Slot 0 answers twice: the second one neither overwrites the row
        // nor finishes the request with slot 1 still out.
        tx.send(done(0, 1.0)).unwrap();
        tx.send(done(0, 2.0)).unwrap();
        reactor.drain_completions();
        assert_eq!(reactor.m.duplicate_completions.get(), 1);
        let p = &reactor.pending[&7];
        assert_eq!(p.remaining, 1);
        assert_eq!(p.results[0], Some(Ok(JobOutput::Embedding(vec![1.0]))));

        // Slot 1 finishes it; a completion after that finds no request.
        tx.send(done(1, 3.0)).unwrap();
        tx.send(done(1, 4.0)).unwrap();
        reactor.drain_completions();
        assert!(reactor.pending.is_empty());
        assert_eq!(shared.requests.get(), 1);
        assert_eq!(reactor.m.duplicate_completions.get(), 1);
    }
}
