//! The event-driven serve front end: one thread, one `poll(2)` set, every
//! client socket nonblocking.
//!
//! The reactor owns the listener and all client connections. Each
//! connection is a [`FrameReader`] state machine plus a write buffer; the
//! reactor reads whatever bytes are available, decodes complete frames
//! into requests, queues each whole request as one job on the shared
//! batcher queue, and flushes back the response its one completion
//! carries. Requests are correlated by a reactor-internal sequence number
//! (`req`), *not* connection identity or arrival order, so a client may
//! pipeline many requests on one socket and windows may complete out of
//! order: every response still reaches the right request, and the wire id
//! echoes the client's choice.
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
//! * **Queue shedding**: before enqueueing a request the reactor checks
//!   that its node rows (1 for an ingest) fit in the remaining queue
//!   budget; if not it sheds the request immediately — no waiting for the
//!   deadline to expire. Counted in `serve_shed_total`.
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
use widen_obs::{buckets, FlightRecord, Gauge, Histogram, TelemetrySnapshot};

use crate::batcher::{Completion, Job, JobKind, JobStamps, Work};
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
/// unanswered: the batcher normally answers expired requests with
/// `DeadlineExceeded` itself; the reap is the backstop for requests that
/// never come back at all.
const REAP_GRACE: Duration = Duration::from_millis(250);

/// Per-connection read budget per poll round. A connection with an
/// endless stream of buffered bytes gets at most this much before the
/// reactor moves on to its neighbours — fairness against firehoses, and
/// the reason a slow-loris peer dribbling partial frames cannot starve
/// anyone (it just parks bytes in its own `FrameReader`).
const READ_CHUNK: usize = 16 * 1024;
const READ_CHUNKS_PER_ROUND: usize = 4;

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

/// One queued request waiting on its completion.
struct Pending {
    /// Owning connection key.
    conn: u64,
    /// Client-chosen wire id, for the reaper's answer.
    id: u64,
    /// Backstop reap time (`deadline + REAP_GRACE`).
    reap_at: Instant,
    meta: RequestMeta,
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
    /// `serve_reactor_dispatch_us` — one request frame, decoded and
    /// dispatched: queued, or answered inline (telemetry, a validation
    /// error, a shed). One sample per frame, however many a tick reads.
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
        }
    }
}

pub(crate) struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    job_tx: mpsc::SyncSender<Job>,
    /// Node rows enqueued and not yet pulled — the `serve_queue_depth`
    /// gauge, which the batcher decrements per pull.
    queued: Arc<Gauge>,
    completion_rx: mpsc::Receiver<Completion>,
    /// The self-pipe the batcher rings after handing over completions.
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
    /// Builds the reactor. The batcher holds the sending half of
    /// `completion_rx`, with `wake` attached.
    pub fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        job_tx: mpsc::SyncSender<Job>,
        completion_rx: mpsc::Receiver<Completion>,
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
            completion_rx,
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
            let events_start = Instant::now();
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
            let events_us = events_start.elapsed().as_micros() as u64;
            self.m.tick_us.observe((pre_poll_us + events_us) as f64);
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
                    // beat, keep serving everyone already connected. A
                    // retry at once would spin at 100% CPU while the fd
                    // table stays full.
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
            let dispatch_start = Instant::now();
            let open = self.handle_request_frame(key, &frame);
            // Fractional: a frame takes a few microseconds.
            let dispatch_us = dispatch_start.elapsed().as_secs_f64() * 1e6;
            self.m.dispatch_us.observe(dispatch_us);
            if !open {
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

        let (seed, work, meta) = match request {
            // Telemetry is answered inline: a metrics snapshot allocates a
            // string but never blocks.
            Request::Telemetry { .. } => {
                let response = Response::Telemetry {
                    id,
                    text: telemetry_text(&self.shared),
                };
                return self.answer(key, &response, &meta("telemetry", 0), None);
            }
            Request::Ingest {
                seed,
                node_type,
                label,
                features,
                edges,
                ..
            } => {
                let work = Work::Ingest {
                    node_type,
                    label,
                    features,
                    edges,
                };
                (seed, work, meta("ingest", 0))
            }
            Request::Embed { seed, nodes, .. } => {
                let meta = meta("embed", nodes.len());
                (seed, Work::Rows(JobKind::Embed, nodes), meta)
            }
            Request::Classify {
                seed,
                rounds,
                nodes,
                ..
            } => {
                let meta = meta("classify", nodes.len());
                (seed, Work::Rows(JobKind::Classify { rounds }, nodes), meta)
            }
        };
        if let Work::Rows(kind, nodes) = &work {
            if nodes.is_empty() {
                let resp = match kind {
                    JobKind::Embed => Response::Embeddings {
                        id,
                        dim: self.shared.registry.read().model().config.d as u32,
                        values: Vec::new(),
                    },
                    JobKind::Classify { .. } => Response::Classes {
                        id,
                        labels: Vec::new(),
                    },
                };
                return self.answer(key, &resp, &meta, None);
            }
        }
        let now = Instant::now();
        let job = Job {
            work,
            id,
            seed,
            deadline,
            req: self.fresh_req(),
            enqueued_at: now,
            pulled_at: now,
        };
        self.enqueue(key, job, meta)
    }

    /// Queues one whole request and registers it as pending, or answers it
    /// inline when it is shed. Its nodes are checked against the graph by
    /// the batcher, in queue order, so a request may name a node that an
    /// ingest queued ahead of it adds. Returns `false` when the connection
    /// should close.
    fn enqueue(&mut self, key: u64, job: Job, meta: RequestMeta) -> bool {
        // Shed before enqueue: either the request's whole weight fits in
        // the queue budget right now or it does not go in. The reactor is
        // the only enqueuer and counts every request it sends, and the
        // batcher uncounts one only after pulling it, so here the live
        // count never reads below the queue's weight — and since every
        // queued request weighs at least 1, the channel never fills.
        let weight = job.weight();
        let (id, req, reap_at) = (job.id, job.req, job.deadline + REAP_GRACE);
        if self.queued.get() as usize + weight > self.queue_depth {
            self.shared.shed.inc();
            let resp = Response::from_error(id, &ServeError::Overloaded);
            return self.answer(key, &resp, &meta, None);
        }
        if let Err(err) = self.job_tx.try_send(job) {
            let err = match err {
                TrySendError::Full(_) => {
                    self.shared.shed.inc();
                    ServeError::Overloaded
                }
                TrySendError::Disconnected(_) => ServeError::ShuttingDown,
            };
            return self.answer(key, &Response::from_error(id, &err), &meta, None);
        }
        self.queued.add(weight as i64);
        let pending = Pending {
            conn: key,
            id,
            reap_at,
            meta,
        };
        self.pending.insert(req, pending);
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

    /// Answers every queued completion. A completion whose request was
    /// already answered — reaped, or its connection closed — has no
    /// pending entry and is dropped: it never answers twice.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.completion_rx.try_recv() {
            if let Some(p) = self.take_pending(done.req) {
                self.answer(p.conn, &done.response, &p.meta, done.stamps.as_ref());
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
    /// record are drawn from the same stamps: the request's.
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
                self.answer(p.conn, &response, &p.meta, None);
            }
        }
    }

    /// Removes a connection and every pending request it owns (their
    /// queued jobs still compute; the completions will be dropped).
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

/// The wire span summary: the `serve.server.request` root from `started`
/// (the latency histogram's origin) to now, the response's encode; then,
/// as its children, the request's lifecycle phases — the flight record's
/// intervals, in nanoseconds from `started`.
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
    fn a_second_completion_for_an_answered_request_is_dropped_and_answers_nothing() {
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
        let (tx, completion_rx) = mpsc::channel();
        let mut reactor = Reactor::new(
            TcpListener::bind("127.0.0.1:0").unwrap(),
            shared.clone(),
            job_tx,
            completion_rx,
            Arc::new(WakePipe::new().unwrap()),
            4,
            4,
        );
        // A two-node embed request, waiting on its completion.
        let now = Instant::now();
        let meta = RequestMeta {
            started: now,
            trace_id: None,
            kind_name: "embed",
            nodes: 2,
        };
        let reap_at = now + Duration::from_secs(60);
        let pending = Pending {
            conn: 0,
            id: 1,
            reap_at,
            meta,
        };
        reactor.pending.insert(7, pending);
        let stamps = JobStamps {
            enqueued: now,
            pulled: now,
            batch_start: now,
            forward: None,
        };
        let done = |x: f32| Completion {
            req: 7,
            response: Response::Embeddings {
                id: 1,
                dim: 1,
                values: vec![x, x],
            },
            stamps: Some(stamps),
        };

        // The first completion answers the request; the second finds no
        // pending entry and is dropped without answering again.
        tx.send(done(1.0)).unwrap();
        tx.send(done(2.0)).unwrap();
        reactor.drain_completions();
        assert!(reactor.pending.is_empty());
        assert_eq!(shared.requests.get(), 1);
    }
}
