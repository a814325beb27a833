//! The batcher, the server's one model thread: pulls per-node jobs off the
//! bounded job queue, coalesces them into chunks (up to `max_batch` jobs or
//! `max_wait_us` after the first), and answers each chunk with one fused
//! [`widen_core::WidenModel::forward_batch`]-backed call through its
//! frozen inference state ([`InferState`]), which it keeps for as long as
//! the checkpoint digest stays the same.
//!
//! Correctness rests on the engine's batch-composition invariance (pinned
//! by a `widen-core` test): a node's output row is bit-identical no matter
//! which other jobs happen to share its chunk, so coalescing is purely a
//! throughput optimisation and responses equal serial single-request
//! answers exactly.
//!
//! Each job's timing travels back with its completion as [`JobStamps`],
//! the one per-job timing record: the reactor draws a request's flight
//! record and, when the client asked, its wire span summary from the
//! stamps of the slot that finished it.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use widen_core::model::{argmax, InferState};
use widen_obs::{buckets, Counter, Gauge, Histogram, Registry};

use crate::cache::{EmbedCache, EmbedKey};
use crate::error::ServeError;
use crate::poll::WakePipe;
use crate::protocol::Response;
use crate::registry::ModelRegistry;

/// What one coalescable unit of work computes.
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

/// The result a job sends back to its connection handler.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JobOutput {
    /// Embedding row (`d` values).
    Embedding(Vec<f32>),
    /// Predicted class label.
    Label(u32),
}

/// Monotonic lifecycle instants a job carries back to the reactor on its
/// completion — the one per-job timing record, raw material for the
/// flight record and the wire span summary alike. `Copy`, so the hot path
/// moves a few instants, never allocates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobStamps {
    /// When the job entered the shared queue.
    pub enqueued: Instant,
    /// When the batcher pulled it off the queue.
    pub pulled: Instant,
    /// When its coalescing window closed (batch processing began).
    pub batch_start: Instant,
    /// Start and end of the fused forward pass that computed it; `None`
    /// for a cache hit or a deadline drop, which never ran the model.
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

/// What flows back to the reactor over the single completion channel.
/// The `req` correlation key (the reactor's internal request sequence
/// number, not the client-chosen wire id) routes each completion to its
/// pending request regardless of the order batches finish in — that is
/// what makes pipelined requests on one socket safe to answer out of
/// order.
#[derive(Debug)]
pub(crate) enum Completion {
    /// One per-node job of a queued request finished.
    Job {
        /// Reactor-internal request key.
        req: u64,
        /// Slot within the originating request's node list.
        slot: usize,
        /// The job's outcome.
        result: Result<JobOutput, ServeError>,
        /// Lifecycle instants for telemetry and the flight recorder.
        stamps: JobStamps,
    },
    /// A directly-executed request (ingest) finished with a complete
    /// response.
    Direct {
        /// Reactor-internal request key.
        req: u64,
        /// The fully-assembled response.
        response: Response,
    },
}

/// Sending half of the completion channel, bundled with the reactor's
/// wake token: every completion delivery also rings the self-pipe so the
/// event loop leaves `poll` and writes the response. `wake: None` keeps
/// unit tests (which read the channel directly) pipe-free.
#[derive(Clone)]
pub(crate) struct ReplySink {
    pub tx: mpsc::Sender<Completion>,
    pub wake: Option<Arc<WakePipe>>,
}

impl ReplySink {
    pub fn send(&self, completion: Completion) {
        // A dead reactor (server torn down) just means nobody is
        // listening; the send failing is fine.
        if self.tx.send(completion).is_ok() {
            if let Some(wake) = &self.wake {
                wake.wake();
            }
        }
    }
}

/// One node of one request, queued for the batcher.
pub(crate) struct Job {
    pub kind: JobKind,
    pub node: u32,
    pub seed: u64,
    /// Absolute deadline; expired jobs are answered with
    /// [`ServeError::DeadlineExceeded`] instead of being computed.
    pub deadline: Instant,
    /// Reactor-internal key of the originating request.
    pub req: u64,
    /// Position within the originating request.
    pub slot: usize,
    /// Completion channel back to the reactor.
    pub reply: ReplySink,
    /// When the job entered the queue (queue-wait span start).
    pub enqueued_at: Instant,
    /// When the batcher pulled the job off the queue; initialised to
    /// `enqueued_at` and overwritten by `run_batcher` at pull time.
    pub pulled_at: Instant,
}

impl Job {
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
    pub max_batch: usize,
    pub max_wait: Duration,
}

/// Batcher-side throughput instruments: handles into the server's metric
/// registry, lock-free to record.
pub(crate) struct BatcherStats {
    pub jobs: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub deadline_drops: Arc<Counter>,
    /// Jobs answered by another identical job's computation (singleflight
    /// dedup within a coalescing window).
    pub dedup_hits: Arc<Counter>,
    /// Fused-batch sizes (jobs per `process_batch` call).
    pub batch_size: Arc<Histogram>,
    /// How long the first job of each window waited for company, in µs.
    pub batch_wait_us: Arc<Histogram>,
    /// Jobs enqueued and not yet pulled, live: the reactor adds 1 per job
    /// it enqueues, the batcher subtracts 1 per job it pulls, and the
    /// reactor's shed check reads it.
    pub queue_depth: Arc<Gauge>,
    /// Always-on lifecycle: enqueue → batcher pull, per job, in µs.
    pub queue_wait_us: Arc<Histogram>,
    /// Always-on lifecycle: batcher pull → window close, per job, in µs.
    pub coalesce_us: Arc<Histogram>,
    /// Always-on lifecycle: fused forward pass, per batch group, in µs.
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
/// channel keeps yielding queued jobs until empty — that is the drain
/// guarantee: every accepted job is answered before the batcher exits.
pub(crate) fn run_batcher(
    registry: Arc<ModelRegistry>,
    cache: Arc<EmbedCache>,
    rx: mpsc::Receiver<Job>,
    policy: BatchPolicy,
    stats: Arc<BatcherStats>,
) {
    let mut frozen = None;
    // Disconnected and fully drained ends the loop.
    while let Ok(mut first) = rx.recv() {
        stats.queue_depth.add(-1);
        let window_start = Instant::now();
        first.pulled_at = window_start;
        let mut jobs = vec![first];
        if policy.max_batch > 1 {
            let window_end = window_start + policy.max_wait;
            while jobs.len() < policy.max_batch {
                // A timeout and a disconnect both close the window.
                let wait = window_end.saturating_duration_since(Instant::now());
                let Ok(mut job) = rx.recv_timeout(wait) else {
                    break;
                };
                stats.queue_depth.add(-1);
                job.pulled_at = Instant::now();
                jobs.push(job);
            }
        }
        stats
            .batch_wait_us
            .observe(window_start.elapsed().as_micros() as f64);
        process_batch(&registry, &cache, jobs, &stats, &mut frozen);
    }
}

/// Answers every job in `jobs`: expired ones with an error, embed jobs
/// from the cache when possible, the rest through one fused model call
/// per distinct [`JobKind`] — a cache miss counted once per distinct key,
/// like the row it stands for. Every model call runs through `frozen`,
/// bitwise what the offline `embed_requests` / `ensemble_logits` give.
///
/// The whole batch runs under **one** registry read guard, so the digest
/// and graph version used for cache keys, the weights the forward pass
/// reads, and the graph it samples from are a single consistent
/// generation — a concurrent ingest or hot-swap lands entirely before or
/// entirely after this batch. Staleness needs no further ordering
/// argument: every row is keyed by the `(checkpoint_hash, graph_version)`
/// it was computed under, and any mutation bumps the version, so a row
/// from an older graph can never answer a lookup issued under a newer
/// one, no matter when it was inserted.
fn process_batch(
    registry: &ModelRegistry,
    cache: &EmbedCache,
    jobs: Vec<Job>,
    stats: &BatcherStats,
    frozen: &mut Option<(u64, InferState)>,
) {
    stats.batches.inc();
    stats.jobs.add(jobs.len() as u64);
    stats.batch_size.observe(jobs.len() as f64);
    let now = Instant::now();
    let st = registry.read();
    let ckpt = st.checkpoint_hash();
    let graph_version = st.graph_version();
    // A new digest (a hot swap) rebuilds the state; the old one drops
    // first, handing the thread's one inference pool to the new one.
    if !matches!(frozen, Some((built_for, _)) if *built_for == ckpt) {
        *frozen = None;
    }
    let state = &mut frozen.get_or_insert_with(|| (ckpt, st.model().freeze())).1;

    // kind → pending jobs grouping. Kinds in a window are few; a Vec scan
    // beats hashing.
    let mut groups: Vec<(JobKind, Vec<Job>)> = Vec::new();
    // Embed keys this window already looked up and missed: singleflight
    // starts before the cache, so a miss is a row the model computes,
    // however many identical jobs wait on it. (Hits stay one lookup per
    // job — the cheap path, counted as what it is.)
    let mut missed: Vec<(u32, u64)> = Vec::new();
    for job in jobs {
        stats.queue_wait_us.observe(
            job.pulled_at
                .saturating_duration_since(job.enqueued_at)
                .as_micros() as f64,
        );
        stats
            .coalesce_us
            .observe(now.saturating_duration_since(job.pulled_at).as_micros() as f64);
        if job.deadline < now {
            stats.deadline_drops.inc();
            reply(
                &job,
                Err(ServeError::DeadlineExceeded),
                job.stamps(now, None),
            );
            continue;
        }
        if job.kind == JobKind::Embed && !missed.contains(&(job.node, job.seed)) {
            let key = EmbedKey {
                node: job.node,
                checkpoint_hash: ckpt,
                graph_version,
                seed: job.seed,
            };
            if let Some(row) = cache.get(&key) {
                reply(&job, Ok(JobOutput::Embedding(row)), job.stamps(now, None));
                continue;
            }
            missed.push((job.node, job.seed));
        }
        match groups.iter_mut().find(|(k, _)| *k == job.kind) {
            Some((_, group)) => group.push(job),
            None => groups.push((job.kind, vec![job])),
        }
    }

    for (kind, group) in groups {
        // Singleflight dedup: identical `(node, seed)` jobs in one window
        // sample and compute once and fan the row out to every subscriber.
        // Exact by construction — duplicates would have produced
        // bit-identical rows anyway (same sampled state, same weights).
        let mut items: Vec<(u32, u64)> = Vec::with_capacity(group.len());
        let mut row_of: Vec<usize> = Vec::with_capacity(group.len());
        for job in &group {
            let key = (job.node, job.seed);
            match items.iter().position(|&u| u == key) {
                Some(i) => {
                    stats.dedup_hits.inc();
                    row_of.push(i);
                }
                None => {
                    items.push(key);
                    row_of.push(items.len() - 1);
                }
            }
        }
        let forward_start = Instant::now();
        match kind {
            JobKind::Embed => {
                let rows = st.model().embed_requests_with(state, st.graph(), &items);
                let forward_end = Instant::now();
                stats.forward_us.observe(
                    forward_end
                        .saturating_duration_since(forward_start)
                        .as_micros() as f64,
                );
                for (job, &i) in group.iter().zip(&row_of) {
                    let row = rows.row(i).to_vec();
                    cache.insert(
                        EmbedKey {
                            node: job.node,
                            checkpoint_hash: ckpt,
                            graph_version,
                            seed: job.seed,
                        },
                        row.clone(),
                    );
                    reply(
                        job,
                        Ok(JobOutput::Embedding(row)),
                        job.stamps(now, Some((forward_start, forward_end))),
                    );
                }
            }
            JobKind::Classify { rounds } => {
                let logits =
                    st.model()
                        .ensemble_logits_with(state, st.graph(), &items, rounds as usize);
                let forward_end = Instant::now();
                stats.forward_us.observe(
                    forward_end
                        .saturating_duration_since(forward_start)
                        .as_micros() as f64,
                );
                for (job, &i) in group.iter().zip(&row_of) {
                    let label = argmax(logits.row(i)) as u32;
                    reply(
                        job,
                        Ok(JobOutput::Label(label)),
                        job.stamps(now, Some((forward_start, forward_end))),
                    );
                }
            }
        }
    }
}

fn reply(job: &Job, result: Result<JobOutput, ServeError>, stamps: JobStamps) {
    job.reply.send(Completion::Job {
        req: job.req,
        slot: job.slot,
        result,
        stamps,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use widen_core::{WidenConfig, WidenModel};
    use widen_data::{acm_like, Scale};
    use widen_graph::{EdgeTypeId, NodeTypeId};
    use widen_tensor::Tensor;

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

    fn job(kind: JobKind, node: u32, seed: u64, slot: usize, tx: &mpsc::Sender<Completion>) -> Job {
        let enqueued_at = Instant::now();
        Job {
            kind,
            node,
            seed,
            deadline: Instant::now() + Duration::from_secs(5),
            req: 0,
            slot,
            reply: ReplySink {
                tx: tx.clone(),
                wake: None,
            },
            enqueued_at,
            pulled_at: enqueued_at,
        }
    }

    /// Unwraps the next per-job completion into `(slot, result)`.
    fn take(rx: &mpsc::Receiver<Completion>) -> (usize, Result<JobOutput, ServeError>) {
        match rx.recv().unwrap() {
            Completion::Job { slot, result, .. } => (slot, result),
            Completion::Direct { .. } => panic!("batcher never sends Direct completions"),
        }
    }

    /// Unwraps the next per-job completion into its stamps.
    fn stamps_of(rx: &mpsc::Receiver<Completion>) -> JobStamps {
        match rx.recv().unwrap() {
            Completion::Job { stamps, .. } => stamps,
            Completion::Direct { .. } => panic!("unexpected direct completion"),
        }
    }

    #[test]
    fn completions_carry_ordered_lifecycle_stamps() {
        let registry = tiny_registry();
        let cache = Arc::new(EmbedCache::new(16));
        let stats = BatcherStats::new(&Registry::new());
        let (tx, rx) = mpsc::channel();
        let serve = |job| {
            process_batch(&registry, &cache, vec![job], &stats, &mut None);
            stamps_of(&rx)
        };
        let computed = serve(job(JobKind::Embed, 0, 7, 0, &tx));
        assert!(computed.enqueued <= computed.pulled);
        assert!(computed.pulled <= computed.batch_start);
        let (from, to) = computed.forward.expect("a computed job ran the model");
        assert!(computed.batch_start <= from && from <= to);

        // A cache hit and a deadline drop never reach the model.
        let hit = serve(job(JobKind::Embed, 0, 7, 0, &tx));
        assert!(hit.forward.is_none());
        let mut expired = job(JobKind::Embed, 1, 7, 0, &tx);
        expired.deadline = Instant::now() - Duration::from_millis(1);
        assert!(serve(expired).forward.is_none());

        // The always-on lifecycle histograms saw every job; the forward
        // histogram only the one computed batch.
        assert_eq!(stats.queue_wait_us.snapshot().count, 3);
        assert_eq!(stats.coalesce_us.snapshot().count, 3);
        assert_eq!(stats.forward_us.snapshot().count, 1);
    }

    #[test]
    fn mixed_batch_answers_every_job_correctly() {
        let registry = tiny_registry();
        let cache = Arc::new(EmbedCache::new(16));
        let stats = BatcherStats::new(&Registry::new());
        let (tx, rx) = mpsc::channel();
        let jobs = vec![
            job(JobKind::Embed, 0, 7, 0, &tx),
            job(JobKind::Classify { rounds: 2 }, 1, 7, 1, &tx),
            job(JobKind::Embed, 2, 9, 2, &tx),
        ];
        process_batch(&registry, &cache, jobs, &stats, &mut None);
        let mut results: Vec<_> = (0..3).map(|_| take(&rx)).collect();
        results.sort_by_key(|(slot, _)| *slot);

        let st = registry.read();
        let want_emb0 = st.model().embed_requests(st.graph(), &[(0, 7)]);
        match &results[0].1 {
            Ok(JobOutput::Embedding(row)) => assert_eq!(row.as_slice(), want_emb0.row(0)),
            other => panic!("unexpected {other:?}"),
        }
        let want_label = st.model().predict_ensemble(st.graph(), &[1], 7, 2)[0] as u32;
        match &results[1].1 {
            Ok(JobOutput::Label(l)) => assert_eq!(*l, want_label),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&results[2].1, Ok(JobOutput::Embedding(_))));
        assert_eq!(stats.jobs.get(), 3);
    }

    #[test]
    fn second_identical_embed_is_served_from_cache() {
        let registry = tiny_registry();
        let cache = Arc::new(EmbedCache::new(16));
        let stats = BatcherStats::new(&Registry::new());
        let (tx, rx) = mpsc::channel();
        process_batch(
            &registry,
            &cache,
            vec![job(JobKind::Embed, 3, 11, 0, &tx)],
            &stats,
            &mut None,
        );
        let first = take(&rx).1.unwrap();
        process_batch(
            &registry,
            &cache,
            vec![job(JobKind::Embed, 3, 11, 0, &tx)],
            &stats,
            &mut None,
        );
        let second = take(&rx).1.unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn duplicate_jobs_share_one_computation() {
        let registry = tiny_registry();
        let cache = Arc::new(EmbedCache::new(0));
        let stats = BatcherStats::new(&Registry::new());
        let (tx, rx) = mpsc::channel();
        // Three identical classify jobs + one identical embed pair.
        let jobs = vec![
            job(JobKind::Classify { rounds: 2 }, 4, 13, 0, &tx),
            job(JobKind::Classify { rounds: 2 }, 4, 13, 1, &tx),
            job(JobKind::Classify { rounds: 2 }, 4, 13, 2, &tx),
            job(JobKind::Embed, 6, 13, 3, &tx),
            job(JobKind::Embed, 6, 13, 4, &tx),
        ];
        process_batch(&registry, &cache, jobs, &stats, &mut None);
        let mut results: Vec<_> = (0..5).map(|_| take(&rx)).collect();
        results.sort_by_key(|(slot, _)| *slot);

        let st = registry.read();
        let want_label = st.model().predict_ensemble(st.graph(), &[4], 13, 2)[0] as u32;
        for (_, r) in &results[..3] {
            assert_eq!(r, &Ok(JobOutput::Label(want_label)));
        }
        let wanted = st.model().embed_requests(st.graph(), &[(6, 13)]);
        for (_, r) in &results[3..] {
            match r {
                Ok(JobOutput::Embedding(row)) => assert_eq!(row.as_slice(), wanted.row(0)),
                other => panic!("unexpected {other:?}"),
            }
        }
        // 2 duplicate classifies + 1 duplicate embed were fanned out, and
        // the embed pair fell through to the model once.
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
        let (tx, rx) = mpsc::channel();
        let mut frozen = None;
        let mut serve = |kind, items: &[(u32, u64)]| {
            let jobs = items
                .iter()
                .enumerate()
                .map(|(slot, &(node, seed))| job(kind, node, seed, slot, &tx))
                .collect();
            process_batch(&registry, &cache, jobs, &stats, &mut frozen);
            let mut out = vec![None; items.len()];
            for _ in items {
                let (slot, result) = take(&rx);
                out[slot] = Some(result.unwrap());
            }
            out.into_iter().flatten().collect::<Vec<_>>()
        };
        let embedded = |rows: &Tensor| {
            (0..rows.rows())
                .map(|i| JobOutput::Embedding(rows.row(i).to_vec()))
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
            assert_eq!(*label, JobOutput::Label(argmax(logits.row(i)) as u32));
        }
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
        let (tx, rx) = mpsc::channel();
        let mut expired = job(JobKind::Embed, 0, 1, 0, &tx);
        expired.deadline = Instant::now() - Duration::from_millis(1);
        process_batch(&registry, &cache, vec![expired], &stats, &mut None);
        assert_eq!(take(&rx).1, Err(ServeError::DeadlineExceeded));
        assert_eq!(stats.deadline_drops.get(), 1);
    }
}
