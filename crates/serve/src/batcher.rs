//! The batcher, the server's one model thread: pulls whole requests off
//! the bounded job queue, coalesces them into windows (whole requests until
//! the window holds `max_batch` node rows, or `max_wait_us` after the
//! first), and answers each window with one fused
//! [`widen_core::WidenModel::forward_batch`]-backed call per [`JobKind`]
//! through its frozen inference state ([`InferState`]), which it keeps for
//! as long as the checkpoint digest stays the same. An `Ingest` closes the
//! window it is pulled into and runs right after it, so a request queued
//! behind an ingest is answered on the grown graph.
//!
//! Correctness rests on the engine's batch-composition invariance (pinned
//! by a `widen-core` test): a node's output row is bit-identical no matter
//! which other rows happen to share its window, so coalescing is purely a
//! throughput optimisation and responses equal serial single-request
//! answers exactly.
//!
//! Each request's timing travels back with its completion as
//! [`JobStamps`], the one per-request timing record: the reactor draws a
//! request's flight record and, when the client asked, its wire span
//! summary from them.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use widen_core::model::{argmax, InferState};
use widen_graph::{EdgeTypeId, NodeTypeId};
use widen_obs::{buckets, Counter, Gauge, Histogram, Registry};
use widen_tensor::Tensor;

use crate::cache::{EmbedCache, EmbedKey};
use crate::error::ServeError;
use crate::poll::WakePipe;
use crate::protocol::Response;
use crate::registry::ModelRegistry;

/// What one row of a coalescable request computes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum JobKind {
    /// One embedding row.
    Embed,
    /// One ensemble-classified label.
    Classify {
        /// Ensemble rounds.
        rounds: u32,
    },
}

/// Monotonic lifecycle instants a request carries back to the reactor on
/// its completion — the one per-request timing record, raw material for
/// the flight record and the wire span summary alike. `Copy`, so the hot
/// path moves a few instants, never allocates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobStamps {
    /// When the request entered the shared queue.
    pub enqueued: Instant,
    /// When the batcher pulled it off the queue.
    pub pulled: Instant,
    /// When its coalescing window closed (batch processing began).
    pub batch_start: Instant,
    /// Start and end of the fused forward pass that computed its missing
    /// rows; `None` when every row was a cache hit or the request was a
    /// deadline drop, which never ran the model.
    pub forward: Option<(Instant, Instant)>,
}

impl JobStamps {
    /// The request-lifecycle phases these stamps cover, in order:
    /// `(flight-record phase, wire span name, from, to)`. The one source
    /// of both outputs, so they cannot disagree.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, &'static str, Instant, Instant)> {
        let (enqueued, pulled, batch_start) = (self.enqueued, self.pulled, self.batch_start);
        [
            ("queue_wait", "serve.batcher.queue_wait", enqueued, pulled),
            ("coalesce", "serve.batcher.coalesce", pulled, batch_start),
        ]
        .into_iter()
        .chain(
            self.forward
                .map(|(from, to)| ("forward", "serve.batcher.forward_batch", from, to)),
        )
    }
}

/// What flows back to the reactor over the single completion channel: one
/// per request. The `req` correlation key (the reactor's internal request
/// sequence number, not the client-chosen wire id) routes it to its
/// pending request regardless of the order windows finish in — that is
/// what makes pipelined requests on one socket safe to answer out of
/// order.
#[derive(Debug)]
pub(crate) struct Completion {
    /// Reactor-internal request key.
    pub req: u64,
    /// The whole response, carrying the client's wire id.
    pub response: Response,
    /// The request's lifecycle stamps; `None` for a request no window
    /// answered (an ingest, or a node outside the served graph).
    pub stamps: Option<JobStamps>,
}

/// The batcher's sending half of the completion channel, bundled with the
/// reactor's wake token. `wake: None` keeps unit tests (which read the
/// channel directly) pipe-free.
pub(crate) struct ReplySink {
    pub tx: mpsc::Sender<Completion>,
    pub wake: Option<Arc<WakePipe>>,
}

impl ReplySink {
    /// Hands `job`'s one response to the reactor, which writes it on the
    /// tick after the next [`ReplySink::wake`].
    fn answer(&self, job: &Job, response: Response, stamps: Option<JobStamps>) {
        // A dead reactor (server torn down) just means nobody is
        // listening; the send failing is fine.
        let _ = self.tx.send(Completion {
            req: job.req,
            response,
            stamps,
        });
    }

    /// Rings the self-pipe so the event loop leaves `poll` and writes
    /// every response handed over so far: once per batch of answers, not
    /// once per answer, so a window's answers cost the reactor one tick.
    fn wake(&self) {
        if let Some(wake) = &self.wake {
            wake.wake();
        }
    }
}

/// What a queued request asks of the model thread.
pub(crate) enum Work {
    /// One row per node, computed as the kind says.
    Rows(JobKind, Vec<u32>),
    /// Stream a never-seen node into the served graph and embed it.
    Ingest {
        node_type: u16,
        label: Option<u16>,
        features: Vec<f32>,
        /// Typed edges `(existing peer, edge type)`.
        edges: Vec<(u32, u16)>,
    },
}

/// One whole request, queued for the batcher.
pub(crate) struct Job {
    pub work: Work,
    /// Client-chosen wire id, echoed in the response.
    pub id: u64,
    pub seed: u64,
    /// Absolute deadline; an expired request is answered with
    /// [`ServeError::DeadlineExceeded`] instead of being computed.
    pub deadline: Instant,
    /// Reactor-internal key of the request.
    pub req: u64,
    /// When the request entered the queue (queue-wait span start).
    pub enqueued_at: Instant,
    /// When the batcher pulled the request off the queue; initialised to
    /// `enqueued_at` and overwritten by `run_batcher` at pull time.
    pub pulled_at: Instant,
}

impl Job {
    /// What the request counts against the queue budget: its node rows,
    /// or 1 for an ingest.
    pub fn weight(&self) -> usize {
        match &self.work {
            Work::Rows(_, nodes) => nodes.len(),
            Work::Ingest { .. } => 1,
        }
    }

    fn stamps(&self, batch_start: Instant, forward: Option<(Instant, Instant)>) -> JobStamps {
        JobStamps {
            enqueued: self.enqueued_at,
            pulled: self.pulled_at,
            batch_start,
            forward,
        }
    }
}

/// Coalescing knobs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchPolicy {
    /// Node rows that close a window.
    pub max_batch: usize,
    pub max_wait: Duration,
}

/// Batcher-side throughput instruments: handles into the server's metric
/// registry, lock-free to record.
pub(crate) struct BatcherStats {
    /// Node rows of the windows answered.
    pub jobs: Arc<Counter>,
    pub batches: Arc<Counter>,
    /// Node rows of expired requests.
    pub deadline_drops: Arc<Counter>,
    /// Node rows answered by another identical row's computation
    /// (singleflight dedup within a coalescing window).
    pub dedup_hits: Arc<Counter>,
    /// Successful ingests.
    pub ingests: Arc<Counter>,
    /// Node rows per window.
    pub batch_size: Arc<Histogram>,
    /// How long the first request of each window waited for company, in µs.
    pub batch_wait_us: Arc<Histogram>,
    /// Node rows enqueued and not yet pulled, live: the reactor adds a
    /// request's [`Job::weight`] when it enqueues it, the batcher subtracts
    /// it when it pulls it, and the reactor's shed check reads it.
    pub queue_depth: Arc<Gauge>,
    /// Always-on lifecycle: enqueue → batcher pull, per request, in µs.
    pub queue_wait_us: Arc<Histogram>,
    /// Always-on lifecycle: batcher pull → window close, per request, in µs.
    pub coalesce_us: Arc<Histogram>,
    /// Always-on lifecycle: fused forward pass, per kind group, in µs.
    pub forward_us: Arc<Histogram>,
}

impl BatcherStats {
    /// Registers (or re-binds) the `serve_*` instruments in `metrics`.
    pub fn new(metrics: &Registry) -> Self {
        Self {
            jobs: metrics.counter("serve_jobs_total"),
            batches: metrics.counter("serve_batches_total"),
            deadline_drops: metrics.counter("serve_deadline_drops_total"),
            dedup_hits: metrics.counter("serve_dedup_hits_total"),
            ingests: metrics.counter("serve_ingests_total"),
            batch_size: metrics.histogram("serve_batch_size", buckets::SMALL_COUNTS),
            batch_wait_us: metrics.histogram("serve_batch_wait_us", buckets::LATENCY_US),
            queue_depth: metrics.gauge("serve_queue_depth"),
            queue_wait_us: metrics.histogram("serve_queue_wait_us", buckets::LATENCY_US_FINE),
            coalesce_us: metrics.histogram("serve_coalesce_us", buckets::LATENCY_US_FINE),
            forward_us: metrics.histogram("serve_forward_us", buckets::LATENCY_US_FINE),
        }
    }
}

/// Runs the batcher until the job channel disconnects. On shutdown the
/// channel keeps yielding queued requests until empty — that is the drain
/// guarantee: every accepted request is answered before the batcher exits.
pub(crate) fn run_batcher(
    registry: Arc<ModelRegistry>,
    cache: Arc<EmbedCache>,
    rx: mpsc::Receiver<Job>,
    reply: ReplySink,
    policy: BatchPolicy,
    stats: Arc<BatcherStats>,
) {
    let mut frozen = None;
    // Disconnected and fully drained ends the loop.
    while let Ok(first) = rx.recv() {
        let window_start = Instant::now();
        let window_end = window_start + policy.max_wait;
        let (mut window, mut rows, mut ingest) = (Vec::new(), 0, None);
        let mut next = Some(first);
        while let Some(mut job) = next {
            stats.queue_depth.add(-(job.weight() as i64));
            job.pulled_at = Instant::now();
            if let Work::Rows(_, nodes) = &job.work {
                rows += nodes.len();
                window.push(job);
            } else {
                ingest = Some(job);
                break;
            }
            if rows >= policy.max_batch {
                break;
            }
            // A timeout and a disconnect both close the window.
            let wait = window_end.saturating_duration_since(Instant::now());
            next = rx.recv_timeout(wait).ok();
        }
        if !window.is_empty() {
            stats
                .batch_wait_us
                .observe(window_start.elapsed().as_micros() as f64);
            process_batch(&registry, &cache, window, &reply, &stats, &mut frozen);
        }
        // After the window, whose read guard is gone: the write guard
        // waits on no batch of this thread.
        if let Some(job) = ingest {
            run_ingest(&registry, &cache, job, &reply, &stats, &mut frozen);
        }
    }
}

/// Where one node's output row comes from.
enum Slot {
    /// A row the embedding cache already held.
    Cached(Vec<f32>),
    /// Row `i` of the window's fused call for the request's kind.
    Computed(usize),
}

impl Slot {
    /// The row itself, `out` being the fused call's output.
    fn row<'a>(&'a self, out: &'a Tensor) -> &'a [f32] {
        match self {
            Slot::Cached(row) => row,
            Slot::Computed(i) => out.row(*i),
        }
    }
}

/// Answers every request in `jobs` (all `Work::Rows`): a node outside the
/// served graph with `BadRequest`, an expired request with an error, embed
/// rows from the cache when possible — a request whose every row hits is
/// answered during the scan, and the reactor woken once before the
/// forward pass — and the rest through one fused model call per distinct
/// [`JobKind`], a cache miss counted once per distinct key, like the row
/// it stands for. Every model call runs through `frozen`, bitwise what the
/// offline `embed_requests` / `ensemble_logits` give.
///
/// The whole window runs under **one** registry read guard, so the node
/// check, the digest and graph version used for cache keys, the weights
/// the forward pass reads, and the graph it samples from are a single
/// consistent generation — a hot-swap lands entirely before or entirely
/// after this window, and an ingest runs on this thread between windows.
/// Every row is keyed by the `(checkpoint_hash, graph_version)` it was
/// computed under, and any mutation bumps the version, so a row from an
/// older graph can never answer a lookup issued under a newer one.
fn process_batch(
    registry: &ModelRegistry,
    cache: &EmbedCache,
    jobs: Vec<Job>,
    reply: &ReplySink,
    stats: &BatcherStats,
    frozen: &mut Option<(u64, InferState)>,
) {
    let now = Instant::now();
    let pulled = jobs.len();
    let st = registry.read();
    let ckpt = st.checkpoint_hash();
    let graph_version = st.graph_version();
    let num_nodes = st.graph().num_nodes();
    let dim = st.model().config.d;
    // A new digest (a hot swap) rebuilds the state.
    let state = st.frozen(frozen);

    // Per kind: the distinct `(node, seed)` rows its fused call computes,
    // and the requests waiting on them. Kinds in a window are few; a Vec
    // scan beats hashing.
    let mut groups: Vec<(JobKind, Vec<_>, Vec<_>)> = Vec::new();
    let mut rows = 0;
    for job in jobs {
        let Work::Rows(kind, nodes) = &job.work else {
            unreachable!("an ingest closes its window and never enters it");
        };
        if let Some(&bad) = nodes.iter().find(|&&n| n as usize >= num_nodes) {
            let err = ServeError::BadRequest(format!("node {bad} outside the served graph"));
            reply.answer(&job, Response::from_error(job.id, &err), None);
            continue;
        }
        rows += nodes.len();
        stats.queue_wait_us.observe(
            job.pulled_at
                .saturating_duration_since(job.enqueued_at)
                .as_micros() as f64,
        );
        stats
            .coalesce_us
            .observe(now.saturating_duration_since(job.pulled_at).as_micros() as f64);
        if job.deadline < now {
            stats.deadline_drops.add(nodes.len() as u64);
            let response = Response::from_error(job.id, &ServeError::DeadlineExceeded);
            reply.answer(&job, response, Some(job.stamps(now, None)));
            continue;
        }
        let g = match groups.iter().position(|(k, ..)| k == kind) {
            Some(g) => g,
            None => {
                groups.push((*kind, Vec::new(), Vec::new()));
                groups.len() - 1
            }
        };
        let (_, items, waiting) = &mut groups[g];
        // Singleflight dedup starts before the cache: a key this window
        // already computes is a dedup hit, however many rows wait on it,
        // so a miss is a row the model computes. Hits stay one lookup per
        // row — the cheap path, counted as what it is.
        let slots: Vec<Slot> = nodes
            .iter()
            .map(|&node| {
                let key = (node, job.seed);
                if let Some(i) = items.iter().position(|&u| u == key) {
                    stats.dedup_hits.inc();
                    return Slot::Computed(i);
                }
                let cached = (*kind == JobKind::Embed).then(|| {
                    cache.get(&EmbedKey {
                        node,
                        checkpoint_hash: ckpt,
                        graph_version,
                        seed: job.seed,
                    })
                });
                match cached.flatten() {
                    Some(row) => Slot::Cached(row),
                    None => {
                        items.push(key);
                        Slot::Computed(items.len() - 1)
                    }
                }
            })
            .collect();
        if slots.iter().all(|s| matches!(s, Slot::Cached(_))) {
            // Every row hit: answered now, before the window's forward.
            let response = respond(job.id, *kind, dim, &slots, &Tensor::zeros(0, dim));
            reply.answer(&job, response, Some(job.stamps(now, None)));
        } else {
            waiting.push((job, slots));
        }
    }
    if rows > 0 {
        stats.batches.inc();
        stats.jobs.add(rows as u64);
        stats.batch_size.observe(rows as f64);
    }
    if groups
        .iter()
        .map(|(.., waiting)| waiting.len())
        .sum::<usize>()
        < pulled
    {
        reply.wake();
    }

    for (kind, items, waiting) in groups {
        if waiting.is_empty() {
            continue;
        }
        let forward_start = Instant::now();
        let out = match kind {
            JobKind::Embed => st.model().embed_requests_with(state, st.graph(), &items),
            JobKind::Classify { rounds } => {
                st.model()
                    .ensemble_logits_with(state, st.graph(), &items, rounds as usize)
            }
        };
        let forward = (forward_start, Instant::now());
        stats
            .forward_us
            .observe(forward.1.saturating_duration_since(forward.0).as_micros() as f64);
        if kind == JobKind::Embed {
            for (i, &(node, seed)) in items.iter().enumerate() {
                let key = EmbedKey {
                    node,
                    checkpoint_hash: ckpt,
                    graph_version,
                    seed,
                };
                cache.insert(key, out.row(i).to_vec());
            }
        }
        for (job, slots) in waiting {
            let response = respond(job.id, kind, dim, &slots, &out);
            reply.answer(&job, response, Some(job.stamps(now, Some(forward))));
        }
        reply.wake();
    }
}

/// A request's response from its slots: each a cached row or a row of the
/// fused call's output `out` — an embedding, or logits for `argmax`.
fn respond(id: u64, kind: JobKind, dim: usize, slots: &[Slot], out: &Tensor) -> Response {
    match kind {
        JobKind::Embed => {
            let mut values = Vec::with_capacity(slots.len() * dim);
            for slot in slots {
                values.extend_from_slice(slot.row(out));
            }
            Response::Embeddings {
                id,
                dim: dim as u32,
                values,
            }
        }
        JobKind::Classify { .. } => Response::Classes {
            id,
            labels: slots.iter().map(|s| argmax(s.row(out)) as u32).collect(),
        },
    }
}

/// Grows the served graph by one node and embeds it in the same write
/// critical section, through the windows' frozen state `frozen`, then
/// flushes the rows the mutation made unreachable and warms the cache
/// with the new one. Runs on the batcher thread between windows, so its
/// write guard waits on no window and no window caches a row between the
/// mutation and the flush.
fn run_ingest(
    registry: &ModelRegistry,
    cache: &EmbedCache,
    job: Job,
    reply: &ReplySink,
    stats: &BatcherStats,
    frozen: &mut Option<(u64, InferState)>,
) {
    let Work::Ingest {
        node_type,
        label,
        features,
        edges,
    } = &job.work
    else {
        unreachable!("only an ingest closes a window");
    };
    if job.deadline <= Instant::now() {
        let response = Response::from_error(job.id, &ServeError::DeadlineExceeded);
        reply.answer(&job, response, None);
        return reply.wake();
    }
    let typed: Vec<(u32, EdgeTypeId)> = edges
        .iter()
        .map(|&(peer, et)| (peer, EdgeTypeId(et)))
        .collect();
    let response = match registry.ingest_through(
        frozen,
        NodeTypeId(*node_type),
        features.clone(),
        *label,
        &typed,
        job.seed,
    ) {
        Ok(outcome) => {
            // The mutation bumped the graph version, part of every cache
            // key: every row computed on the pre-mutation graph — anywhere
            // in the walk radius of the touched peers, not just the peers
            // themselves — is already unreachable. Flush them so dead rows
            // don't occupy LRU capacity until eviction, then warm the
            // cache: a follow-up `Embed` of `(node, seed)` needs no forward.
            cache.retain(|key| key.graph_version >= outcome.graph_version);
            cache.insert(
                EmbedKey {
                    node: outcome.node,
                    checkpoint_hash: outcome.checkpoint_hash,
                    graph_version: outcome.graph_version,
                    seed: job.seed,
                },
                outcome.embedding.clone(),
            );
            stats.ingests.inc();
            Response::Ingested {
                id: job.id,
                node: outcome.node,
                dim: outcome.embedding.len() as u32,
                values: outcome.embedding,
            }
        }
        Err(err) => Response::from_error(job.id, &ServeError::BadRequest(err.to_string())),
    };
    reply.answer(&job, response, None);
    reply.wake();
}

#[cfg(test)]
mod tests {
    use super::*;
    use widen_core::{WidenConfig, WidenModel};
    use widen_data::{acm_like, Scale};

    fn tiny_registry() -> Arc<ModelRegistry> {
        let dataset = acm_like(Scale::Smoke, 5);
        let mut cfg = WidenConfig::small();
        cfg.d = 8;
        cfg.n_w = 4;
        cfg.n_d = 4;
        cfg.phi = 1;
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        Arc::new(ModelRegistry::from_model(dataset.graph, model))
    }

    /// One request as the reactor queues it: `req` doubles as its wire id.
    fn job(work: Work, seed: u64, req: u64) -> Job {
        let enqueued_at = Instant::now();
        Job {
            work,
            id: req,
            seed,
            deadline: Instant::now() + Duration::from_secs(5),
            req,
            enqueued_at,
            pulled_at: enqueued_at,
        }
    }

    fn embed(nodes: &[u32], seed: u64, req: u64) -> Job {
        job(Work::Rows(JobKind::Embed, nodes.to_vec()), seed, req)
    }

    fn classify(nodes: &[u32], seed: u64, req: u64) -> Job {
        let kind = JobKind::Classify { rounds: 2 };
        job(Work::Rows(kind, nodes.to_vec()), seed, req)
    }

    /// A pipe-free sink and the channel its completions land on.
    fn sink() -> (ReplySink, mpsc::Receiver<Completion>) {
        let (tx, rx) = mpsc::channel();
        (ReplySink { tx, wake: None }, rx)
    }

    /// The next `n` completions' responses, in request order.
    fn take(rx: &mpsc::Receiver<Completion>, n: usize) -> Vec<Response> {
        let mut done: Vec<Completion> = (0..n).map(|_| rx.recv().unwrap()).collect();
        done.sort_by_key(|c| c.req);
        done.into_iter().map(|c| c.response).collect()
    }

    fn embeddings(response: &Response) -> &[f32] {
        match response {
            Response::Embeddings { values, .. } => values,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn completions_carry_ordered_lifecycle_stamps() {
        let registry = tiny_registry();
        let cache = Arc::new(EmbedCache::new(16));
        let stats = BatcherStats::new(&Registry::new());
        let (reply, rx) = sink();
        let serve = |job| {
            process_batch(&registry, &cache, vec![job], &reply, &stats, &mut None);
            rx.recv()
                .unwrap()
                .stamps
                .expect("a window stamps its requests")
        };
        let computed = serve(embed(&[0, 1], 7, 0));
        assert!(computed.enqueued <= computed.pulled);
        assert!(computed.pulled <= computed.batch_start);
        let (from, to) = computed.forward.expect("a computed request ran the model");
        assert!(computed.batch_start <= from && from <= to);

        // An all-hit request and a deadline drop never reach the model.
        let hit = serve(embed(&[0, 1], 7, 0));
        assert!(hit.forward.is_none());
        let mut expired = embed(&[2, 3], 7, 0);
        expired.deadline = Instant::now() - Duration::from_millis(1);
        assert!(serve(expired).forward.is_none());

        // The always-on lifecycle histograms saw every request (not every
        // node row); the forward histogram only the one computed group.
        assert_eq!(stats.queue_wait_us.snapshot().count, 3);
        assert_eq!(stats.coalesce_us.snapshot().count, 3);
        assert_eq!(stats.forward_us.snapshot().count, 1);
        assert_eq!(stats.jobs.get(), 6);
    }

    #[test]
    fn mixed_batch_answers_every_job_correctly() {
        let registry = tiny_registry();
        let cache = Arc::new(EmbedCache::new(16));
        let stats = BatcherStats::new(&Registry::new());
        let (reply, rx) = sink();
        let jobs = vec![embed(&[0], 7, 0), classify(&[1], 7, 1), embed(&[2], 9, 2)];
        process_batch(&registry, &cache, jobs, &reply, &stats, &mut None);
        let results = take(&rx, 3);

        let st = registry.read();
        let want_emb0 = st.model().embed_requests(st.graph(), &[(0, 7)]);
        assert_eq!(embeddings(&results[0]), want_emb0.row(0));
        let want_label = st.model().predict_ensemble(st.graph(), &[1], 7, 2)[0] as u32;
        assert_eq!(
            results[1],
            Response::Classes {
                id: 1,
                labels: vec![want_label]
            }
        );
        assert!(matches!(&results[2], Response::Embeddings { id: 2, .. }));
        assert_eq!(stats.jobs.get(), 3);
    }

    #[test]
    fn second_identical_embed_is_served_from_cache() {
        let registry = tiny_registry();
        let cache = Arc::new(EmbedCache::new(16));
        let stats = BatcherStats::new(&Registry::new());
        let (reply, rx) = sink();
        let jobs = vec![embed(&[3], 11, 0)];
        process_batch(&registry, &cache, jobs, &reply, &stats, &mut None);
        let first = take(&rx, 1);
        let jobs = vec![embed(&[3], 11, 0)];
        process_batch(&registry, &cache, jobs, &reply, &stats, &mut None);
        let second = take(&rx, 1);
        assert_eq!(first, second);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn duplicate_jobs_share_one_computation() {
        let registry = tiny_registry();
        let cache = Arc::new(EmbedCache::new(0));
        let stats = BatcherStats::new(&Registry::new());
        let (reply, rx) = sink();
        // Three identical classify rows over two requests, and one
        // identical embed row in each of two more.
        let jobs = vec![
            classify(&[4, 4], 13, 0),
            classify(&[4], 13, 1),
            embed(&[6], 13, 2),
            embed(&[6], 13, 3),
        ];
        process_batch(&registry, &cache, jobs, &reply, &stats, &mut None);
        let results = take(&rx, 4);

        let st = registry.read();
        let want_label = st.model().predict_ensemble(st.graph(), &[4], 13, 2)[0] as u32;
        for (id, n) in [(0, 2), (1, 1)] {
            let labels = vec![want_label; n];
            assert_eq!(
                results[id],
                Response::Classes {
                    id: id as u64,
                    labels
                }
            );
        }
        let wanted = st.model().embed_requests(st.graph(), &[(6, 13)]);
        for r in &results[2..] {
            assert_eq!(embeddings(r), wanted.row(0));
        }
        // 2 duplicate classify rows + 1 duplicate embed row were fanned
        // out, and the embed pair fell through to the model once.
        assert_eq!(stats.dedup_hits.get(), 3);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn the_worker_state_follows_hot_swaps_and_graph_growth_bitwise() {
        // One worker state across generations, at paper width on the
        // optimized backend: every row equals the offline `embed_requests`
        // of the model and graph current at the time. After a hot swap no
        // row comes from the old table; after an ingest, the new node and
        // an old node whose sample reads it are served from rows projected
        // under the grown graph.
        let dataset = acm_like(Scale::Smoke, 5);
        let mut cfg = WidenConfig::paper();
        cfg.phi = 2;
        let model_a = WidenModel::for_graph(&dataset.graph, cfg.clone());
        let model_b = WidenModel::for_graph(&dataset.graph, cfg.with_seed(99));
        let registry = ModelRegistry::from_model(dataset.graph.clone(), model_a);
        let cache = EmbedCache::new(0);
        let stats = BatcherStats::new(&Registry::new());
        let (reply, rx) = sink();
        let mut frozen = None;
        // One single-node request per item, all in one window.
        let mut serve = |kind, items: &[(u32, u64)]| {
            let jobs = items
                .iter()
                .enumerate()
                .map(|(i, &(node, seed))| job(Work::Rows(kind, vec![node]), seed, i as u64))
                .collect();
            process_batch(&registry, &cache, jobs, &reply, &stats, &mut frozen);
            take(&rx, items.len())
        };
        let embedded = |rows: &Tensor| {
            (0..rows.rows())
                .map(|i| Response::Embeddings {
                    id: i as u64,
                    dim: rows.cols() as u32,
                    values: rows.row(i).to_vec(),
                })
                .collect::<Vec<_>>()
        };

        let items = [(0, 7), (3, 9), (5, 7), (0, 8)];
        let first = serve(JobKind::Embed, &items);
        assert_eq!(first, embedded(&current_rows(&registry, &items)));
        registry.hot_swap(&model_b.save_weights()).unwrap();
        let swapped = serve(JobKind::Embed, &items);
        assert_eq!(
            swapped,
            embedded(&model_b.embed_requests(&dataset.graph, &items))
        );
        assert!(swapped.iter().zip(&first).all(|(b, a)| b != a));

        let mut grown = dataset.graph.clone();
        let peers = [(0, EdgeTypeId(0)), (3, EdgeTypeId(0))];
        let features = vec![0.25; grown.feature_dim()];
        let new = registry
            .ingest(NodeTypeId(0), features.clone(), None, &peers, 1)
            .unwrap()
            .node;
        grown
            .add_node_with_edges(NodeTypeId(0), features, None, &peers)
            .unwrap();
        let reads_new = |&(v, seed): &(u32, u64)| {
            let state = model_b.sample_state(&grown, v, seed);
            let walks = state.deeps.iter().flat_map(|w| &w.set.entries);
            state.wide.entries.iter().any(|e| e.node == new)
                || walks.into_iter().any(|e| e.node == new)
        };
        let reader = (0..new)
            .flat_map(|v| (0..16).map(move |seed| (v, seed)))
            .find(reads_new)
            .expect("an old node's sample reaches the new one");
        let items = [(new, 3), reader];
        let rows = serve(JobKind::Embed, &items);
        assert_eq!(rows, embedded(&model_b.embed_requests(&grown, &items)));

        let labels = serve(JobKind::Classify { rounds: 3 }, &items);
        let logits = model_b.ensemble_logits(&grown, &items, 3);
        for (i, label) in labels.iter().enumerate() {
            let want = vec![argmax(logits.row(i)) as u32];
            assert_eq!(
                *label,
                Response::Classes {
                    id: i as u64,
                    labels: want
                }
            );
        }
    }

    #[test]
    fn an_ingest_embeds_through_the_windows_frozen_state() {
        // The batcher's ingest freezes no second state: the new node's row
        // is computed on the state the window before it froze — its pool
        // counters move — and is bitwise the offline row of the grown graph.
        let registry = tiny_registry();
        let cache = EmbedCache::new(16);
        let stats = BatcherStats::new(&Registry::new());
        let (reply, rx) = sink();
        let mut frozen = None;
        process_batch(
            &registry,
            &cache,
            vec![embed(&[0, 1, 2], 7, 0)],
            &reply,
            &stats,
            &mut frozen,
        );
        take(&rx, 1);
        let ckpt = registry.checkpoint_hash();
        let takes = |frozen: &Option<(u64, InferState)>| {
            let (built_for, state) = frozen.as_ref().expect("the window froze a state");
            assert_eq!(*built_for, ckpt);
            let pool = state.pool_stats();
            pool.hits + pool.misses
        };
        let before = takes(&frozen);
        let features = vec![0.25; registry.read().graph().feature_dim()];
        let work = Work::Ingest {
            node_type: 0,
            label: None,
            features,
            edges: vec![(0, 0), (1, 0)],
        };
        run_ingest(
            &registry,
            &cache,
            job(work, 3, 1),
            &reply,
            &stats,
            &mut frozen,
        );
        assert!(
            takes(&frozen) > before,
            "the ingest ran on a state of its own"
        );
        let Response::Ingested { node, values, .. } = take(&rx, 1).remove(0) else {
            panic!("the ingest failed");
        };
        assert_eq!(values, current_rows(&registry, &[(node, 3)]).row(0));
        assert_eq!(stats.ingests.get(), 1);
    }

    /// The registry's current model's offline rows for `items`.
    fn current_rows(registry: &ModelRegistry, items: &[(u32, u64)]) -> Tensor {
        let st = registry.read();
        st.model().embed_requests(st.graph(), items)
    }

    #[test]
    fn expired_jobs_get_deadline_errors_without_compute() {
        let registry = tiny_registry();
        let cache = Arc::new(EmbedCache::new(16));
        let stats = BatcherStats::new(&Registry::new());
        let (reply, rx) = sink();
        let mut expired = embed(&[0], 1, 0);
        expired.deadline = Instant::now() - Duration::from_millis(1);
        process_batch(&registry, &cache, vec![expired], &reply, &stats, &mut None);
        assert_eq!(
            take(&rx, 1)[0],
            Response::from_error(0, &ServeError::DeadlineExceeded)
        );
        assert_eq!(stats.deadline_drops.get(), 1);
    }

    #[test]
    fn an_ingest_pulled_past_its_deadline_answers_deadline_exceeded_without_mutating() {
        let registry = tiny_registry();
        let (nodes, version) = {
            let st = registry.read();
            (st.graph().num_nodes(), st.graph_version())
        };
        let cache = Arc::new(EmbedCache::new(16));
        let stats = Arc::new(BatcherStats::new(&Registry::new()));
        let (reply, rx) = sink();
        let (job_tx, job_rx) = mpsc::sync_channel(4);
        let features = vec![0.25; registry.read().graph().feature_dim()];
        let ingest = |deadline: Instant, req| {
            let work = Work::Ingest {
                node_type: 0,
                label: None,
                features: features.clone(),
                edges: vec![(0, 0), (1, 0)],
            };
            Job {
                deadline,
                ..job(work, 3, req)
            }
        };
        job_tx
            .send(ingest(Instant::now() - Duration::from_millis(1), 0))
            .unwrap();
        drop(job_tx);
        let policy = BatchPolicy {
            max_batch: 32,
            max_wait: Duration::from_micros(500),
        };
        run_batcher(
            registry.clone(),
            cache,
            job_rx,
            reply,
            policy,
            stats.clone(),
        );
        let done = rx.recv().unwrap();
        assert_eq!(
            done.response,
            Response::from_error(0, &ServeError::DeadlineExceeded)
        );
        assert!(done.stamps.is_none());
        let st = registry.read();
        assert_eq!(st.graph().num_nodes(), nodes);
        assert_eq!(st.graph_version(), version);
        assert_eq!(stats.ingests.get(), 0);
    }
}
