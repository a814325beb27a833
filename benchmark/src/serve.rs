//! `serve_cold` / `serve_hot_rw`: closed-loop serving phases against an
//! in-process server on `127.0.0.1:0`, one generator thread, one
//! connection, `ServeConfig::default()` (one batch worker).
//!
//! The generator speaks the wire protocol through the crate's public
//! `protocol` module. Reads are scheduled by completion (four callers that
//! each wait for their answer), writes by wall clock; every response is
//! decoded in full so the client's cost per request is constant.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use widen_core::{Variant, WidenConfig, WidenModel};
use widen_graph::{EdgeTypeId, HeteroGraph, NodeTypeId};
use widen_obs::{HistogramSnapshot, Snapshot};
use widen_sampling::hash_seed;
use widen_serve::protocol::{
    decode_response_ext, encode_request, encode_request_traced, FrameReader, Request, Response,
    SpanSummary, TraceContext,
};
use widen_serve::{ModelRegistry, ServeConfig, ServeStats, Server, ServerHandle};

use crate::stats::{fastest, median, percentile, python_quartiles, quietest, Blocks};
use crate::sys::Usage;
use crate::trace::{Span, Spans};
use crate::train::{self, plain_stats};
use crate::{Metrics, Outcome};

/// Node ids per `Embed` request: the unit of both serving workloads.
pub const NODES_PER_REQUEST: usize = 8;
/// Callers in the closed loop. `IN_FLIGHT × NODES_PER_REQUEST` is the
/// server's `max_batch`, so a full window never sits in the coalescing
/// timer.
const IN_FLIGHT: usize = 4;
/// Distinct requests of the hot set (`16 × 8 = 128` hot keys).
const HOT_REQUESTS: usize = 16;
/// One `Ingest` per second of wall clock. The period must stay well above
/// the refill time (≈ 0.1 s): each write invalidates all hot keys.
const WRITE_PERIOD: Duration = Duration::from_secs(1);
const WRITE_OFFSET: Duration = Duration::from_millis(500);
/// Requests per block: short enough to fit inside a quiet stretch of a
/// noisy host, long enough to average over which nodes a request names.
/// Cold: 16 full batches, ≈ 0.25 s. Hot: 32 turns of the hot set, ≈ 15 ms,
/// so most blocks see no write and the fastest is the hit path alone.
const COLD_BLOCK: usize = 64;
const HOT_BLOCK: usize = 512;
/// Fixed-work warm-up, part of every set-up: cold requests to first-touch
/// the serve path, then (hot only) the hot set once to fill the cache and
/// this many hits.
const WARMUP_COLD_REQUESTS: usize = 24;
const WARMUP_HOT_REQUESTS: usize = 2_000;
/// Post-phase requests compared bitwise with the offline oracle.
const ORACLE_REQUESTS: usize = 16;
/// A paced request sent later than this after its due time is late.
const LATE: Duration = Duration::from_millis(1);
/// Guards a blocking read against a hung server; never used for pacing
/// (socket timeouts are jiffy-granular).
const READ_GUARD: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Cold,
    HotRw,
}

impl Kind {
    pub fn of(workload: &str) -> Kind {
        match workload {
            "serve_cold" => Kind::Cold,
            _ => Kind::HotRw,
        }
    }

    /// Requests per block of identical work.
    fn block(self) -> usize {
        match self {
            Kind::Cold => COLD_BLOCK,
            Kind::HotRw => HOT_BLOCK,
        }
    }

    /// Offered load of the paced open-loop phase, requests per second:
    /// about a quarter of what the closed loop sustains.
    fn paced_rate(self) -> f64 {
        match self {
            Kind::Cold => 20.0,
            Kind::HotRw => 500.0,
        }
    }
}

fn serving_config(seed: u64) -> WidenConfig {
    train::config(seed, Variant::full(), WidenConfig::paper().epochs)
}

/// Weights of a `WARMUP_EPOCHS`-epoch fit on the seeded graph.
pub fn fit_checkpoint(seed: u64) -> Vec<u8> {
    let ds = train::dataset(seed);
    let config = train::config(seed, Variant::full(), train::WARMUP_EPOCHS);
    let mut trainer = train::fresh_trainer(&ds, config);
    trainer.fit(&ds.transductive.train);
    trainer.into_model().save_weights().to_vec()
}

/// The same checkpoint, fitted in a child process that is waited for: the
/// fit's working set (≈ 140 MiB) would otherwise be the serving
/// workloads' `peak_rss_mb`.
pub fn fit_checkpoint_in_child(seed: u64) -> Vec<u8> {
    let exe = std::env::current_exe().expect("path of this executable");
    let out = Command::new(exe)
        .args(["checkpoint", "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn the checkpoint fit");
    assert!(
        out.status.success(),
        "checkpoint fit failed: {}",
        out.status
    );
    out.stdout
}

/// One blocking connection.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(READ_GUARD))
            .expect("read guard");
        Conn {
            stream,
            reader: FrameReader::new(),
            buf: vec![0; 64 * 1024],
        }
    }

    fn send(stream: &mut TcpStream, request: &Request, traced: bool) {
        let frame = if traced {
            let trace_id = request.id();
            encode_request_traced(request, &TraceContext { trace_id })
        } else {
            encode_request(request)
        };
        stream.write_all(&frame).expect("write request frame");
    }

    /// Blocks for the next response and decodes it in full.
    fn recv(&mut self) -> (Response, Option<SpanSummary>) {
        loop {
            if let Some(body) = self.reader.next_frame().expect("well-framed response") {
                return decode_response_ext(&body).expect("well-formed response");
            }
            let n = self.stream.read(&mut self.buf).expect("read response");
            assert!(n > 0, "server closed the connection");
            self.reader.push(&self.buf[..n]);
        }
    }
}

/// One streamed node: what was sent, and what the server answered.
struct Ingested {
    features: Vec<f32>,
    author: u32,
    seed: u64,
    node: u32,
    embedding: Vec<f32>,
}

/// The seeded request stream of one server's lifetime.
struct Plan {
    kind: Kind,
    seed: u64,
    /// Nodes of the graph before any ingest; cold bases stay below it.
    base_nodes: u32,
    hot: Vec<Vec<u32>>,
    authors: Vec<u32>,
    feature_dim: usize,
    rng: StdRng,
    next_id: u64,
    reads: u64,
    /// Writes sent, in order; `node`/`embedding` filled in by the ack.
    ingests: Vec<Ingested>,
}

impl Plan {
    fn new(kind: Kind, seed: u64, graph: &HeteroGraph) -> Plan {
        let mut rng = StdRng::seed_from_u64(hash_seed(seed, &[0x5E12]));
        let n = graph.num_nodes() as u32;
        let span = (HOT_REQUESTS * NODES_PER_REQUEST) as u32;
        let hot_base = rng.gen_range(0..n - span);
        let hot = (0..HOT_REQUESTS as u32)
            .map(|r| {
                let first = hot_base + r * NODES_PER_REQUEST as u32;
                (first..first + NODES_PER_REQUEST as u32).collect()
            })
            .collect();
        Plan {
            kind,
            seed,
            base_nodes: n,
            hot,
            authors: authors(graph),
            feature_dim: graph.feature_dim(),
            rng,
            next_id: 1,
            reads: 0,
            ingests: Vec::new(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// A read nobody asked before: consecutive ids at a seeded base under
    /// a sampling seed that is never reused, so no cache key repeats.
    fn cold_read(&mut self) -> Request {
        let base = self
            .rng
            .gen_range(0..self.base_nodes - NODES_PER_REQUEST as u32);
        self.reads += 1;
        Request::Embed {
            id: self.fresh_id(),
            seed: hash_seed(self.seed, &[0xC01D, self.reads]),
            nodes: (base..base + NODES_PER_REQUEST as u32).collect(),
        }
    }

    /// The hot set, round-robin, all under one seed.
    fn hot_read(&mut self) -> Request {
        let nodes = self.hot[(self.reads % HOT_REQUESTS as u64) as usize].clone();
        self.reads += 1;
        Request::Embed {
            id: self.fresh_id(),
            seed: self.seed,
            nodes,
        }
    }

    fn read(&mut self) -> Request {
        match self.kind {
            Kind::Cold => self.cold_read(),
            Kind::HotRw => self.hot_read(),
        }
    }

    /// A new `paper` with one `paper-author` edge to a seeded author.
    fn write(&mut self) -> Request {
        let features: Vec<f32> = (0..self.feature_dim)
            .map(|_| self.rng.gen_range(-1.0f32..1.0))
            .collect();
        let author = self.authors[self.rng.gen_range(0..self.authors.len())];
        let seed = hash_seed(self.seed, &[0x1265, self.ingests.len() as u64]);
        self.ingests.push(Ingested {
            features: features.clone(),
            author,
            seed,
            node: u32::MAX,
            embedding: Vec::new(),
        });
        Request::Ingest {
            id: self.fresh_id(),
            seed,
            node_type: PAPER.0,
            label: None,
            features,
            edges: vec![(author, PAPER_AUTHOR.0)],
        }
    }

    /// Files the ack of the oldest unacknowledged write (the server runs
    /// ingests in arrival order on one executor).
    fn acknowledge(&mut self, node: u32, embedding: Vec<f32>) {
        let slot = self
            .ingests
            .iter_mut()
            .find(|i| i.node == u32::MAX)
            .expect("an ingest ack answers a sent ingest");
        slot.node = node;
        slot.embedding = embedding;
    }
}

/// `acm_like` declares `paper` first and `paper-author` first.
pub const PAPER: NodeTypeId = NodeTypeId(0);
pub const PAPER_AUTHOR: EdgeTypeId = EdgeTypeId(0);

/// The graph's `author` nodes: the peers a streamed paper attaches to.
pub fn authors(graph: &HeteroGraph) -> Vec<u32> {
    let author = (0..graph.num_node_types())
        .map(|t| NodeTypeId(t as u16))
        .find(|&t| graph.node_type_name(t) == "author")
        .expect("acm-like graphs have authors");
    graph.nodes_of_type(author)
}

/// A bound server, its connection and its request stream.
pub struct Fixture {
    graph: HeteroGraph,
    checkpoint: Vec<u8>,
    handle: ServerHandle,
    conn: Conn,
    plan: Plan,
}

impl Fixture {
    /// Registry from the checkpoint, server, connection, warm-up.
    pub fn start(kind: Kind, seed: u64, graph: HeteroGraph, checkpoint: Vec<u8>) -> Fixture {
        let registry =
            ModelRegistry::from_checkpoint(graph.clone(), serving_config(seed), &checkpoint)
                .expect("the checkpoint fits the model");
        let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0")
            .expect("bind the in-process server");
        let conn = Conn::connect(handle.local_addr());
        let plan = Plan::new(kind, seed, &graph);
        let mut fx = Fixture {
            graph,
            checkpoint,
            handle,
            conn,
            plan,
        };
        fx.warm_up();
        fx
    }

    /// Sends `n` requests from `next`, four in flight like the timed
    /// phase, and waits for all answers.
    fn pump(&mut self, n: usize, next: fn(&mut Plan) -> Request) {
        let mut errors = 0;
        for sent in 0..n {
            let request = next(&mut self.plan);
            Conn::send(&mut self.conn.stream, &request, false);
            if sent >= IN_FLIGHT - 1 {
                errors += usize::from(is_error(&self.conn.recv().0));
            }
        }
        for _ in 0..n.min(IN_FLIGHT - 1) {
            errors += usize::from(is_error(&self.conn.recv().0));
        }
        assert_eq!(errors, 0, "warm-up requests failed");
    }

    fn warm_up(&mut self) {
        self.pump(WARMUP_COLD_REQUESTS, Plan::cold_read);
        if self.plan.kind == Kind::HotRw {
            self.pump(HOT_REQUESTS + WARMUP_HOT_REQUESTS, Plan::hot_read);
        }
    }

    pub fn shutdown(self) -> ServeStats {
        drop(self.conn);
        self.handle.shutdown()
    }
}

fn is_error(response: &Response) -> bool {
    matches!(response, Response::Error { .. })
}

/// What one closed-loop phase observed.
struct Phase {
    blocks: Blocks,
    /// Requests (reads and writes) answered with an error.
    errors: usize,
    writes: usize,
    ingest_wire_ms: Vec<f64>,
    /// Per write: ack → one full turn of the hot set answered.
    refill_ms: Vec<f64>,
    /// Per write: write sent → the same moment. The hit path stands still
    /// this long in every write cycle.
    stall_ms: Vec<f64>,
    /// Per traced request: client latency minus the server's request span.
    outside_server_us: Vec<f64>,
    /// Durations (µs) of the spans traced requests brought back on the
    /// wire, by span name.
    wire_us: HashMap<String, Vec<f64>>,
}

impl Phase {
    /// Completions per second of the fastest block; with writes, of a
    /// write cycle whose hit stretch runs at that rate and whose stall is
    /// the quietest seen — the cycle's two parts, each matched across the
    /// cycles, the way training matches epochs across rounds.
    fn units_per_s(&self) -> f64 {
        let hit_rate = fastest(self.blocks.rates_per_s());
        if self.stall_ms.is_empty() {
            return hit_rate;
        }
        let stalled = quietest(&self.stall_ms) / 1e3 / WRITE_PERIOD.as_secs_f64();
        hit_rate * (1.0 - stalled)
    }

    /// Median latency of the quietest block.
    fn unit_ms(&self) -> f64 {
        quietest(self.blocks.median_latencies_ms())
    }
}

/// Runs closed-loop reads (and, for `HotRw`, wall-clock writes) for
/// `length`, then drains. With `spans`, requests carry the protocol's
/// trace extension and each becomes a `serve.request` tree.
fn closed_loop(fx: &mut Fixture, length: Duration, mut spans: Option<&mut Spans>) -> Phase {
    let traced = spans.is_some();
    let conn = &mut fx.conn;
    let plan = &mut fx.plan;
    let mut phase = Phase {
        blocks: Blocks::new(plan.kind.block(), length.as_nanos() as u64),
        errors: 0,
        writes: 0,
        ingest_wire_ms: Vec::new(),
        refill_ms: Vec::new(),
        stall_ms: Vec::new(),
        outside_server_us: Vec::new(),
        wire_us: HashMap::new(),
    };
    // (request id, sent at, is a write, read sequence number)
    let mut in_flight: Vec<(u64, Instant, bool, u64)> = Vec::with_capacity(IN_FLIGHT + 2);
    let mut reads_out = 0;
    // (write sent, acked, first read sequence sent after the ack, of those
    // completed)
    let mut refill: Option<(Instant, Instant, u64, usize)> = None;
    let start = Instant::now();
    let end = start + length;
    let mut write_due = start + WRITE_OFFSET;

    loop {
        let now = Instant::now();
        let open = now < end;
        if open && plan.kind == Kind::HotRw && now >= write_due {
            let request = plan.write();
            in_flight.push((request.id(), Instant::now(), true, 0));
            Conn::send(&mut conn.stream, &request, false);
            write_due += WRITE_PERIOD;
            phase.writes += 1;
        }
        while open && reads_out < IN_FLIGHT {
            let request = plan.read();
            in_flight.push((request.id(), Instant::now(), false, plan.reads - 1));
            Conn::send(&mut conn.stream, &request, traced);
            reads_out += 1;
        }
        if in_flight.is_empty() {
            break;
        }

        let (response, summary) = conn.recv();
        let done = Instant::now();
        let at = in_flight
            .iter()
            .position(|&(id, ..)| id == response.id())
            .expect("every response answers a request in flight");
        let (id, sent, is_write, sequence) = in_flight.swap_remove(at);
        let latency = done - sent;
        phase.errors += usize::from(is_error(&response));
        if is_write {
            if let Response::Ingested { node, values, .. } = response {
                plan.acknowledge(node, values);
                phase.ingest_wire_ms.push(latency.as_secs_f64() * 1e3);
                refill = Some((sent, done, plan.reads, 0));
            }
            continue;
        }
        reads_out -= 1;
        let in_phase = phase
            .blocks
            .record((done - start).as_nanos() as u64, latency.as_nanos() as u64);
        if let Some((written, acked, first, completed)) = &mut refill {
            if sequence >= *first {
                *completed += 1;
                // One full turn of the round-robin after the ack: every
                // hot request has been answered on the new graph version.
                if *completed == HOT_REQUESTS {
                    phase.refill_ms.push((done - *acked).as_secs_f64() * 1e3);
                    phase.stall_ms.push((done - *written).as_secs_f64() * 1e3);
                    refill = None;
                }
            }
        }
        if let (Some(spans), Some(summary), true) = (spans.as_deref_mut(), summary, in_phase) {
            let server_ns = summary.spans.first().map_or(0, |root| root.dur_ns);
            let latency_ns = latency.as_nanos() as u64;
            phase
                .outside_server_us
                .push(latency_ns.saturating_sub(server_ns) as f64 / 1e3);
            for s in &summary.spans {
                let us = s.dur_ns as f64 / 1e3;
                match phase.wire_us.get_mut(&s.name) {
                    Some(samples) => samples.push(us),
                    None => drop(phase.wire_us.insert(s.name.clone(), vec![us])),
                }
            }
            if spans.has_room(1 + summary.spans.len()) {
                let sent_ns = (sent - start).as_nanos() as u64;
                let root = spans.push(Span {
                    name: "serve.request".into(),
                    start_ns: sent_ns,
                    end_ns: sent_ns + latency_ns,
                    parent: None,
                    unit_id: id,
                });
                // The server's clock origin is unknown to the client:
                // centre its request span inside the client's.
                let origin = sent_ns + latency_ns.saturating_sub(server_ns) / 2;
                let first = root + 1;
                for s in &summary.spans {
                    let parent = match s.parent {
                        widen_serve::WireSpan::ROOT => root,
                        p => first + p as usize,
                    };
                    spans.push(Span {
                        name: s.name.clone(),
                        start_ns: origin + s.start_ns,
                        end_ns: origin + s.start_ns + s.dur_ns,
                        parent: Some(parent),
                        unit_id: id,
                    });
                }
            }
        }
    }
    phase
}

/// What the paced open-loop phase observed.
struct Paced {
    latencies_ms: Vec<f64>,
    max_lag_ms: f64,
    late_share: f64,
    rate_per_s: f64,
    errors: usize,
    sent: usize,
}

/// Open loop at a fixed rate for `secs`: a sender that sleeps until each
/// request's due time and a receiver blocked on the socket (two generator
/// threads, this phase only). Latency counts from the due time, so a
/// stall is charged to every request it delays.
fn paced(fx: &mut Fixture, secs: f64) -> Paced {
    let rate = fx.plan.kind.paced_rate();
    let period = Duration::from_secs_f64(1.0 / rate);
    let reads = (secs * rate) as usize;
    let writes = if fx.plan.kind == Kind::HotRw {
        ((secs - WRITE_OFFSET.as_secs_f64()) / WRITE_PERIOD.as_secs_f64()).ceil() as usize
    } else {
        0
    };
    let Fixture { conn, plan, .. } = fx;
    let mut tx = conn.stream.try_clone().expect("clone the socket");
    let start = Instant::now();
    // (request id, due) per read, filled by the sender.
    let mut due_of: Vec<(u64, Instant)> = Vec::with_capacity(reads);
    let (mut max_lag, mut late) = (Duration::ZERO, 0usize);

    let received: Vec<(Response, Instant)> = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            (0..reads + writes)
                .map(|_| {
                    let (response, _) = conn.recv();
                    (response, Instant::now())
                })
                .collect::<Vec<_>>()
        });
        let mut written = 0;
        for i in 0..reads {
            let due = start + period.mul_f64(i as f64);
            if written < writes && due >= start + WRITE_OFFSET + WRITE_PERIOD * written as u32 {
                Conn::send(&mut tx, &plan.write(), false);
                written += 1;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let lag = Instant::now() - due;
            max_lag = max_lag.max(lag);
            late += usize::from(lag > LATE);
            let request = plan.read();
            due_of.push((request.id(), due));
            Conn::send(&mut tx, &request, false);
        }
        // The receiver counts on every write: send what rounding left over.
        for _ in written..writes {
            Conn::send(&mut tx, &plan.write(), false);
        }
        receiver.join().expect("receiver thread")
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut out = Paced {
        latencies_ms: Vec::with_capacity(reads),
        max_lag_ms: max_lag.as_secs_f64() * 1e3,
        late_share: late as f64 / reads.max(1) as f64,
        rate_per_s: reads as f64 / elapsed,
        errors: 0,
        sent: reads + writes,
    };
    for (response, at) in received {
        out.errors += usize::from(is_error(&response));
        match response {
            Response::Ingested { node, values, .. } => plan.acknowledge(node, values),
            other => {
                // Request ids grow with every send, so `due_of` is sorted.
                if let Ok(i) = due_of.binary_search_by_key(&other.id(), |&(id, _)| id) {
                    out.latencies_ms
                        .push((at - due_of[i].1).as_secs_f64() * 1e3);
                }
            }
        }
    }
    out
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Replays the run's writes on a benchmark-side copy of the graph and
/// compares, bitwise, every ingest ack and `ORACLE_REQUESTS` fresh reads
/// with `WidenModel::embed_requests` on that copy. Returns
/// `(units checked, units that differ)`.
fn oracle_check(fx: &mut Fixture) -> (usize, usize) {
    let mut model = WidenModel::for_graph(&fx.graph, serving_config(fx.plan.seed));
    model.load_weights(&fx.checkpoint);
    let mut graph = fx.graph.clone();
    let mut wrong = 0;
    for ingest in &fx.plan.ingests {
        let node = graph
            .add_node_with_edges(
                PAPER,
                ingest.features.clone(),
                None,
                &[(ingest.author, PAPER_AUTHOR)],
            )
            .expect("the replayed mutation is valid");
        let want = model.embed_requests(&graph, &[(node, ingest.seed)]);
        wrong += usize::from(node != ingest.node || bits(want.row(0)) != bits(&ingest.embedding));
    }
    for _ in 0..ORACLE_REQUESTS {
        let request = fx.plan.read();
        Conn::send(&mut fx.conn.stream, &request, false);
        let Request::Embed { seed, nodes, .. } = &request else {
            unreachable!("reads are embeds");
        };
        let items: Vec<(u32, u64)> = nodes.iter().map(|&n| (n, *seed)).collect();
        let want = model.embed_requests(&graph, &items);
        let same = match fx.conn.recv().0 {
            Response::Embeddings { dim, values, .. } => {
                dim as usize == want.cols() && bits(&values) == bits(want.as_slice())
            }
            _ => false,
        };
        wrong += usize::from(!same);
    }
    (fx.plan.ingests.len() + ORACLE_REQUESTS, wrong)
}

/// Checks on the server's own counters over `[before, after]`: nothing
/// shed or dropped, no cache hit on `Cold`, every write invalidating
/// exactly the hot set on `HotRw`.
fn counters_fit(kind: Kind, before: &ServeStats, after: &ServeStats, writes: usize) -> bool {
    let clean = after.shed == before.shed && after.deadline_drops == before.deadline_drops;
    let ingested = (after.ingests - before.ingests) as usize;
    let missed = (after.cache_misses - before.cache_misses) as usize;
    clean
        && ingested == writes
        && match kind {
            Kind::Cold => after.cache_hits == 0,
            Kind::HotRw => missed == writes * HOT_REQUESTS * NODES_PER_REQUEST,
        }
}

/// One full set-up: fixture generation (graph, checkpoint fit),
/// construction (registry, server, connection) and warm-up.
pub fn setup(kind: Kind, seed: u64) -> Fixture {
    let graph = train::dataset(seed).graph;
    let checkpoint = fit_checkpoint_in_child(seed);
    Fixture::start(kind, seed, graph, checkpoint)
}

/// The untraced run: set-up, then a `seconds`-long timed phase, then the
/// set-up repeats. `started` is when the process began; set-up runs from
/// there to the first timed request.
pub fn run(workload: &str, seed: u64, seconds: u64, started: Instant) -> Outcome {
    let kind = Kind::of(workload);
    let mut fx = setup(kind, seed);
    let setup_s = started.elapsed().as_secs_f64();

    let before = fx.handle.stats();
    let phase = closed_loop(&mut fx, Duration::from_secs(seconds), None);
    let after = fx.handle.stats();
    // Before the oracle builds its own model in this process.
    let peak_rss_mb = crate::sys::peak_rss_mib();
    let (checked, wrong) = oracle_check(&mut fx);
    let counters_ok = counters_fit(kind, &before, &after, phase.writes);
    fx.shutdown();

    let mut metrics = Metrics::default();
    let setups = crate::setup_samples(workload, seed, setup_s);
    metrics.set("setup_s", quietest(&setups));
    metrics.set("units_per_s", phase.units_per_s());
    metrics.set("unit_ms", phase.unit_ms());
    metrics.set("peak_rss_mb", peak_rss_mb);

    let (rates, latencies) = (
        phase.blocks.rates_per_s(),
        phase.blocks.median_latencies_ms(),
    );
    let mut notes = vec![
        format!(
            "{} blocks of {} requests in {seconds} s, {IN_FLIGHT} in flight",
            rates.len(),
            kind.block()
        ),
        format!("block rates: quartiles {:.1?}", python_quartiles(rates)),
        format!(
            "block p50 ms: quartiles {:.4?}",
            python_quartiles(latencies)
        ),
        format!(
            "writes {} ingest_wire_ms {:.2?} stall_ms {:.1?}",
            phase.writes, phase.ingest_wire_ms, phase.stall_ms
        ),
        format!("setup_s samples {setups:.3?}"),
    ];
    notes.extend(
        plain_stats(&phase.blocks.all_latencies_ms()).map(|(name, v)| format!("{name} {v:.4}")),
    );
    let failed = phase.errors + wrong;
    Outcome {
        correct: failed == 0 && counters_ok,
        attempted: phase.blocks.total() + phase.writes + checked,
        failed,
        metrics,
        notes,
    }
}

/// Quantile of what a histogram observed between two snapshots.
fn delta_quantile(before: &Snapshot, after: &Snapshot, name: &str, q: f64) -> f64 {
    let Some(now) = after.histogram(name) else {
        return 0.0;
    };
    let delta = match before.histogram(name) {
        Some(then) => HistogramSnapshot {
            bounds: now.bounds.clone(),
            buckets: now
                .buckets
                .iter()
                .zip(&then.buckets)
                .map(|(a, b)| a - b)
                .collect(),
            overflow: now.overflow - then.overflow,
            count: now.count - then.count,
            sum: now.sum - then.sum,
            max: now.max,
        },
        None => now.clone(),
    };
    delta.quantile(q).unwrap_or(0.0)
}

/// The serving layers of a traced run: one traced closed-loop phase read
/// through the server's own histograms and counters, then the paced
/// open-loop phase. Returns the traced phase's `unit_ms` and the
/// `(attempted, failed)` units of both phases.
pub fn traced_phases(
    fx: &mut Fixture,
    closed: Duration,
    paced_secs: f64,
    metrics: &mut Metrics,
    spans: &mut Spans,
) -> (f64, usize, usize) {
    let kind = fx.plan.kind;
    let (hist_before, stats_before) = (fx.handle.metrics().snapshot(), fx.handle.stats());
    let phase = closed_loop(fx, closed, Some(spans));
    let (hist_after, stats_after) = (fx.handle.metrics().snapshot(), fx.handle.stats());

    // The reactor's sub-request steps exist only as histograms; their
    // buckets are fine at these few microseconds.
    for (metric, histogram) in [
        ("serve.reactor.decode_us_p50", "serve_request_decode_us"),
        ("serve.reactor.dispatch_us_p50", "serve_reactor_dispatch_us"),
        ("serve.reactor.write_flush_us_p50", "serve_write_flush_us"),
    ] {
        metrics.set(
            metric,
            delta_quantile(&hist_before, &hist_after, histogram, 0.5),
        );
    }
    // Whole-request and batcher times come from the spans every traced
    // request brought back: exact, where a histogram's p50 is only as
    // fine as its bucket (milliseconds wide at a cold request's latency).
    // A span that never occurred reads 0.
    for (metric, span) in [
        (
            "serve.reactor.request_latency_us_p50",
            "serve.server.request",
        ),
        (
            "serve.batcher.queue_wait_us_p50",
            "serve.batcher.queue_wait",
        ),
        ("serve.batcher.coalesce_us_p50", "serve.batcher.coalesce"),
        (
            "serve.batcher.forward_us_p50",
            "serve.batcher.forward_batch",
        ),
    ] {
        metrics.set(metric, phase.wire_us.get(span).map_or(0.0, |us| median(us)));
    }
    let delta = |f: fn(&ServeStats) -> u64| (f(&stats_after) - f(&stats_before)) as f64;
    let (jobs, batches) = (delta(|s| s.jobs), delta(|s| s.batches));
    let (hits, misses) = (delta(|s| s.cache_hits), delta(|s| s.cache_misses));
    metrics.set("serve.batcher.mean_batch", jobs / batches.max(1.0));
    metrics.set(
        "serve.batcher.dedup_share",
        delta(|s| s.dedup_hits) / jobs.max(1.0),
    );
    metrics.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    metrics.set("serve.server.shed", delta(|s| s.shed));
    metrics.set("serve.server.deadline_drops", delta(|s| s.deadline_drops));
    metrics.set(
        "serve.client.outside_server_us_p50",
        median(&phase.outside_server_us),
    );
    if kind == Kind::HotRw {
        metrics.set(
            "serve.registry.misses_per_ingest",
            misses / delta(|s| s.ingests).max(1.0),
        );
        metrics.set(
            "serve.registry.ingest_wire_ms_p50",
            median(&phase.ingest_wire_ms),
        );
        metrics.set("serve.registry.refill_ms", median(&phase.refill_ms));
    }
    let counters_ok = counters_fit(kind, &stats_before, &stats_after, phase.writes);

    let open = paced(fx, paced_secs);
    metrics.set("gen.paced_rate_per_s", open.rate_per_s);
    metrics.set("gen.paced_p50_ms", median(&open.latencies_ms));
    metrics.set("gen.paced_p99_ms", percentile(&open.latencies_ms, 0.99));
    metrics.set("gen.max_lag_ms", open.max_lag_ms);
    metrics.set("gen.late_share", open.late_share);

    let attempted = phase.blocks.total() + phase.writes + open.sent;
    let failed = phase.errors + open.errors + usize::from(!counters_ok);
    (phase.unit_ms(), attempted, failed)
}

/// A short `HotRw` session on a checkpoint the caller already holds — how
/// the traced run of a workload that is not `serve_hot_rw` still fills in
/// the serving layers' metrics.
pub fn probe(
    seed: u64,
    graph: &HeteroGraph,
    checkpoint: &[u8],
    metrics: &mut Metrics,
) -> (usize, usize) {
    let mut fx = Fixture::start(Kind::HotRw, seed, graph.clone(), checkpoint.to_vec());
    let mut unused = Spans::default();
    let (_, attempted, failed) =
        traced_phases(&mut fx, Duration::from_secs(4), 2.0, metrics, &mut unused);
    let (checked, wrong) = oracle_check(&mut fx);
    fx.shutdown();
    (attempted + checked, failed + wrong)
}

/// The traced run of a serving workload: an untraced closed loop (the
/// `run.*` statistics and the base of `trace.overhead_share`), the traced
/// phases, the oracle.
pub fn traced(
    workload: &str,
    seed: u64,
    seconds: u64,
    graph: &HeteroGraph,
    checkpoint: &[u8],
    metrics: &mut Metrics,
    spans: &mut Spans,
) -> Outcome {
    let kind = Kind::of(workload);
    let closed = Duration::from_secs(seconds) * 2 / 5;
    let mut fx = Fixture::start(kind, seed, graph.clone(), checkpoint.to_vec());

    let usage = Usage::now();
    let untraced = closed_loop(&mut fx, closed, None);
    for (name, value) in Usage::now().since(usage).per_unit(untraced.blocks.total()) {
        metrics.set(name, value);
    }
    for (name, value) in plain_stats(&untraced.blocks.all_latencies_ms()) {
        metrics.set(name, value);
    }

    let (traced_unit_ms, attempted, failed) =
        traced_phases(&mut fx, closed, seconds as f64 / 2.0, metrics, spans);
    metrics.set(
        "trace.overhead_share",
        (traced_unit_ms - untraced.unit_ms()) / untraced.unit_ms(),
    );
    let (checked, wrong) = oracle_check(&mut fx);
    fx.shutdown();

    let failed = failed + untraced.errors + wrong;
    Outcome {
        correct: failed == 0,
        attempted: attempted + untraced.blocks.total() + untraced.writes + checked,
        failed,
        metrics: Metrics::default(),
        notes: vec![format!(
            "closed loop {closed:?} untraced + {closed:?} traced; untraced {:.0} req/s at {:.4} ms, traced {traced_unit_ms:.4} ms",
            untraced.units_per_s(),
            untraced.unit_ms()
        )],
    }
}
