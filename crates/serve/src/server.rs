//! Server lifecycle: bind, spawn, observe, shut down.
//!
//! Threading model (all std threads, no async runtime, no thread per
//! connection):
//!
//! ```text
//!                  ┌────────────────────────────────────────────┐
//!   clients ──TCP──▶ reactor (one thread, poll(2) over all fds) │
//!                  └───────┬──────────────────────────▲─────────┘
//!                requests  │                          │ completions
//!                          ▼                          │ (+ self-pipe wake)
//!                     bounded queue ──────────▶ batcher
//! ```
//!
//! The reactor (see [`crate::reactor`]) owns every client socket in
//! nonblocking mode and queues each request whole — embed, classify or
//! ingest; the batcher answers each with one completion and rings the
//! reactor's self-pipe once per batch of answers. Thread count is 2
//! regardless of how many connections are open: the model and every
//! graph mutation run on the one batcher thread, as a fit runs on one
//! thread.
//!
//! Shutdown is graceful by construction and never depends on connecting
//! to the server's own address: the flag is set, the self-pipe is rung,
//! the reactor answers and flushes everything pending and exits; dropping
//! its job sender lets the batcher drain the queue and exit. An accepted
//! request is never dropped without a response.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use widen_obs::{Counter, FlightRecorder, Gauge, Registry as MetricsRegistry};

use crate::batcher::{run_batcher, BatchPolicy, BatcherStats, Completion, Job, ReplySink};
use crate::cache::EmbedCache;
use crate::poll::WakePipe;
use crate::reactor::Reactor;
use crate::registry::ModelRegistry;

/// Tunables for one server instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Node rows that close a coalescing window: the batcher pulls whole
    /// requests until the window holds at least this many, so a window may
    /// overshoot by one request. `1` disables micro-batching (one request
    /// per window).
    pub max_batch: usize,
    /// How long the first request in a window waits for company, in µs.
    pub max_wait_us: u64,
    /// Queue budget in node rows (an `Ingest` counts 1): a request that
    /// does not fit in the remaining budget is shed with `Overloaded`
    /// before it enqueues (backpressure) instead of buffering without
    /// limit.
    pub queue_depth: usize,
    /// Per-request deadline in ms; requests not answered in time get
    /// `DeadlineExceeded`.
    pub request_timeout_ms: u64,
    /// LRU embedding-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// A request answered without error in this many milliseconds or
    /// more is slow: counted in `serve_slow_requests_total`, its flight
    /// record tagged `slow`, and the post-mortem dump fired. `0` disables
    /// the check.
    pub slow_request_ms: u64,
    /// Admission-control cap on concurrently open connections.
    /// Connections beyond the cap are accepted, answered with a typed
    /// `Overloaded` error frame, and closed — never silently parked in
    /// the kernel backlog. Counted in `serve_conns_rejected_total`.
    pub max_connections: usize,
    /// Flight-recorder window: how many recent request timelines the
    /// always-on ring buffer keeps for anomaly post-mortems. `0` disables
    /// the recorder entirely (no ring writes, no dumps).
    pub flight_recorder_capacity: usize,
    /// Where anomaly post-mortem dumps (JSONL, one request timeline per
    /// line) are written; `None` keeps the latest dump in memory only
    /// (readable via [`ServerHandle::postmortem_dump`]). Each new anomaly
    /// overwrites the previous dump — the latest window wins.
    pub postmortem_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait_us: 500,
            queue_depth: 1024,
            request_timeout_ms: 5_000,
            cache_capacity: 4096,
            slow_request_ms: 0,
            max_connections: 8192,
            flight_recorder_capacity: 256,
            postmortem_path: None,
        }
    }
}

/// Counter snapshot returned by [`ServerHandle::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Requests fully answered (success or error).
    pub requests: u64,
    /// Node rows of the requests the batcher's windows answered.
    pub jobs: u64,
    /// Fused batches executed; `jobs / batches` is the achieved mean
    /// batch size in node rows.
    pub batches: u64,
    /// Node rows of requests answered with `DeadlineExceeded` instead of
    /// being computed.
    pub deadline_drops: u64,
    /// Node rows answered by an identical row's computation in the same
    /// window (singleflight dedup).
    pub dedup_hits: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
    /// Nodes streamed into the served graph over the wire (`Ingest` ops
    /// that succeeded).
    pub ingests: u64,
    /// Requests shed with `Overloaded` before they enqueued (queue-depth
    /// load shedding).
    pub shed: u64,
    /// Connections rejected by the `max_connections` admission cap.
    pub conns_rejected: u64,
    /// `accept(2)` failures (e.g. `EMFILE` under fd exhaustion) — each
    /// one also starts a short accept backoff instead of a busy spin.
    pub accept_errors: u64,
}

pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    /// This server's own metric registry (isolated per instance, see the
    /// scoping convention in `widen-obs`); the `Telemetry` wire op renders
    /// it merged with the global one.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// `serve_requests_total` — requests fully answered, success or error.
    pub(crate) requests: Arc<Counter>,
    /// `serve_slow_requests_total` — requests answered without error at
    /// or over the slow threshold (the ones a flight record tags `slow`).
    pub(crate) slow_requests: Arc<Counter>,
    /// `serve_shed_total` — requests shed before enqueue.
    pub(crate) shed: Arc<Counter>,
    /// `serve_accept_errors_total` — accept failures (each starts a
    /// backoff window rather than a spin).
    pub(crate) accept_errors: Arc<Counter>,
    /// `serve_conns_rejected_total` — admission-cap rejections.
    pub(crate) conns_rejected: Arc<Counter>,
    /// `serve_connections_total` — connections ever accepted (including
    /// rejected ones).
    pub(crate) connections_total: Arc<Counter>,
    /// `serve_open_connections` — currently registered connections.
    pub(crate) open_connections: Arc<Gauge>,
    pub(crate) cache: Arc<EmbedCache>,
    pub(crate) batcher_stats: Arc<BatcherStats>,
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) request_timeout: Duration,
    /// Slow-request threshold; `None` disables the check.
    pub(crate) slow_threshold: Option<Duration>,
    /// Always-on ring of recent request timelines.
    pub(crate) recorder: FlightRecorder,
    /// `serve_postmortem_dumps_total` — anomaly-triggered dumps taken.
    pub(crate) postmortem_dumps: Arc<Counter>,
    /// Latest anomaly dump (JSONL); each new anomaly overwrites it.
    pub(crate) postmortem: Mutex<Option<String>>,
    /// Optional on-disk destination for anomaly dumps.
    pub(crate) postmortem_path: Option<PathBuf>,
}

impl Shared {
    /// Freezes the flight-recorder window as a JSONL post-mortem: stores
    /// it for [`ServerHandle::postmortem_dump`], writes it to the
    /// configured path (best-effort), and counts the dump. Called on
    /// anomaly triggers — shed, admission reject, deadline drop, slow
    /// request. No-op while the recorder is disabled.
    pub(crate) fn anomaly_dump(&self) {
        if self.recorder.is_disabled() {
            return;
        }
        let dump = self.recorder.dump_jsonl();
        if dump.is_empty() {
            return;
        }
        if let Some(path) = &self.postmortem_path {
            let _ = std::fs::write(path, &dump);
        }
        *self
            .postmortem
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(dump);
        self.postmortem_dumps.inc();
    }
}

/// The in-process inference server.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the
    /// batcher and the reactor, and returns a handle for stats and
    /// shutdown.
    ///
    /// # Errors
    /// Propagates socket-binding failures (and self-pipe creation under
    /// fd exhaustion).
    pub fn bind(
        registry: ModelRegistry,
        config: ServeConfig,
        addr: &str,
    ) -> std::io::Result<ServerHandle> {
        assert!(config.max_batch >= 1, "max_batch must be ≥ 1");
        assert!(config.max_connections >= 1, "max_connections must be ≥ 1");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let wake = Arc::new(WakePipe::new()?);

        let registry = Arc::new(registry);
        let metrics = Arc::new(MetricsRegistry::new());
        let slow_threshold =
            (config.slow_request_ms > 0).then(|| Duration::from_millis(config.slow_request_ms));
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            requests: metrics.counter("serve_requests_total"),
            slow_requests: metrics.counter("serve_slow_requests_total"),
            shed: metrics.counter("serve_shed_total"),
            accept_errors: metrics.counter("serve_accept_errors_total"),
            conns_rejected: metrics.counter("serve_conns_rejected_total"),
            connections_total: metrics.counter("serve_connections_total"),
            open_connections: metrics.gauge("serve_open_connections"),
            cache: Arc::new(EmbedCache::with_metrics(config.cache_capacity, &metrics)),
            batcher_stats: Arc::new(BatcherStats::new(&metrics)),
            registry: registry.clone(),
            request_timeout: Duration::from_millis(config.request_timeout_ms),
            slow_threshold,
            recorder: FlightRecorder::new(config.flight_recorder_capacity),
            postmortem_dumps: metrics.counter("serve_postmortem_dumps_total"),
            postmortem: Mutex::new(None),
            postmortem_path: config.postmortem_path.clone(),
            metrics,
        });

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_depth);
        // One completion channel back from the batcher, which rings the
        // self-pipe after handing over answers so the reactor leaves poll
        // and writes them.
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
        let reply = ReplySink {
            tx: completion_tx,
            wake: Some(wake.clone()),
        };
        let policy = BatchPolicy {
            max_batch: config.max_batch,
            max_wait: Duration::from_micros(config.max_wait_us),
        };
        let batcher = {
            let registry = registry.clone();
            let cache = shared.cache.clone();
            let stats = shared.batcher_stats.clone();
            std::thread::Builder::new()
                .name("widen-batcher".into())
                .spawn(move || run_batcher(registry, cache, job_rx, reply, policy, stats))?
        };

        let reactor = {
            let shared = shared.clone();
            let wake = wake.clone();
            let max_connections = config.max_connections;
            let queue_depth = config.queue_depth;
            // A failed spawn drops this closure, and with it the job sender
            // the batcher is waiting on.
            let spawned = std::thread::Builder::new()
                .name("widen-reactor".into())
                .spawn(move || {
                    Reactor::new(
                        listener,
                        shared,
                        job_tx,
                        completion_rx,
                        wake,
                        max_connections,
                        queue_depth,
                    )
                    .run()
                });
            match spawned {
                Ok(reactor) => reactor,
                Err(e) => return Err(abort_spawn(e, (), vec![batcher])),
            }
        };

        Ok(ServerHandle {
            addr: local_addr,
            shared,
            reactor: Some(reactor),
            batcher: Some(batcher),
            wake,
        })
    }
}

/// Running-server handle: address, live stats, graceful shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    wake: Arc<WakePipe>,
}

impl ServerHandle {
    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the throughput, cache, and admission counters.
    pub fn stats(&self) -> ServeStats {
        let cache = self.shared.cache.stats();
        ServeStats {
            requests: self.shared.requests.get(),
            jobs: self.shared.batcher_stats.jobs.get(),
            batches: self.shared.batcher_stats.batches.get(),
            deadline_drops: self.shared.batcher_stats.deadline_drops.get(),
            dedup_hits: self.shared.batcher_stats.dedup_hits.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            ingests: self.shared.batcher_stats.ingests.get(),
            shed: self.shared.shed.get(),
            conns_rejected: self.shared.conns_rejected.get(),
            accept_errors: self.shared.accept_errors.get(),
        }
    }

    /// Replaces the serving weights with `checkpoint` without restarting:
    /// validates and swaps the model generation in the registry, then
    /// flushes the embedding cache so no row keyed by the old digest can
    /// ever be served again. In-flight batches finish on the generation
    /// they started under. Returns the new checkpoint digest.
    ///
    /// # Errors
    /// Returns the [`CheckpointError`](widen_tensor::CheckpointError) and
    /// keeps serving the old weights (cache untouched) when the checkpoint
    /// is corrupt or mismatched.
    pub fn hot_swap(&self, checkpoint: &[u8]) -> Result<u64, widen_tensor::CheckpointError> {
        let digest = self.shared.registry.hot_swap(checkpoint)?;
        // By key, not wholesale: a batch that started after the swap may
        // already have cached rows under the new digest.
        self.shared
            .cache
            .retain(|key| key.checkpoint_hash == digest);
        Ok(digest)
    }

    /// The server's metric registry — every `serve_*` instrument,
    /// including the histograms the scalar [`ServeStats`] cannot carry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The latest anomaly post-mortem: the flight-recorder window frozen
    /// as JSONL (one request timeline per line) when a shed, admission
    /// reject, deadline drop, or slow request last fired. `None` until
    /// the first anomaly, or while the recorder is disabled.
    pub fn postmortem_dump(&self) -> Option<String> {
        self.shared
            .postmortem
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Stops accepting, drains every in-flight request to a response, and
    /// joins all threads. Idempotent via [`Drop`].
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        let Some(reactor) = self.reactor.take() else {
            return;
        };
        self.shared
            .shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        // Ring the self-pipe: pops the reactor out of poll without
        // opening any socket, so it works under fd exhaustion.
        self.wake.wake();
        let _ = reactor.join();
        // The reactor dropped its job sender on exit; the batcher drains
        // whatever is queued, answers it, then sees the disconnect and
        // exits.
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Undoes a half-built [`Server::bind`] whose next thread failed to spawn:
/// drops `senders` — the last handles keeping the spawned threads' channels
/// open — so each thread drains what is queued and exits, joins them all,
/// and hands `err` back for the caller to return.
fn abort_spawn<S>(err: std::io::Error, senders: S, spawned: Vec<JoinHandle<()>>) -> std::io::Error {
    drop(senders);
    for thread in spawned {
        let _ = thread.join();
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn abort_spawn_releases_the_senders_then_joins_every_thread() {
        // A thread shaped like the batcher: it drains a channel until its
        // last sender goes. Two jobs are still queued when the spawn "fails".
        let (tx, rx) = mpsc::sync_channel::<u32>(4);
        let drained = Arc::new(AtomicUsize::new(0));
        let exited = Arc::new(AtomicBool::new(false));
        let batcher = {
            let (drained, exited) = (drained.clone(), exited.clone());
            std::thread::spawn(move || {
                while rx.recv().is_ok() {
                    drained.fetch_add(1, Ordering::SeqCst);
                }
                exited.store(true, Ordering::SeqCst);
            })
        };
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let err = std::io::Error::new(std::io::ErrorKind::WouldBlock, "no more threads");
        let err = abort_spawn(err, tx, vec![batcher]);
        // Returning means the thread was joined; it saw the disconnect only
        // after the queue was empty.
        assert!(exited.load(Ordering::SeqCst));
        assert_eq!(drained.load(Ordering::SeqCst), 2);
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(err.to_string(), "no more threads");
    }

    /// North-star 4, both ways: every instrument the server's registry, a
    /// fit's registry and the global registry emit is a row of DESIGN.md's
    /// metric table, and every name in the table's first column
    /// (`/`-separated) is emitted.
    #[test]
    fn every_emitted_serve_metric_is_documented() {
        let design = include_str!("../../../DESIGN.md");
        let documented: BTreeSet<String> = design
            .lines()
            .skip_while(|l| !l.starts_with("| Instrument |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .flat_map(|l| l.split('|').nth(1).unwrap().split('/'))
            .map(|name| name.trim().trim_matches('`').to_string())
            .collect();

        let dataset = widen_data::acm_like(widen_data::Scale::Smoke, 18);
        let mut cfg = widen_core::WidenConfig::small();
        cfg.d = 8;
        cfg.epochs = 1;
        let train = &dataset.transductive.train[..8];
        let model = widen_core::WidenModel::for_graph(&dataset.graph, cfg.clone());
        let mut trainer = widen_core::Trainer::new(model, &dataset.graph, train);
        trainer.fit(train);

        let feat_dim = dataset.graph.feature_dim();
        let model = widen_core::WidenModel::for_graph(&dataset.graph, cfg);
        let registry = ModelRegistry::from_model(dataset.graph.clone(), model);
        let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").unwrap();
        let mut client = crate::Client::connect(handle.local_addr()).unwrap();
        client.embed(&[0, 1], 1).unwrap();
        client.classify(&[0, 1], 1, 2).unwrap();
        client
            .ingest(0, &vec![0.25; feat_dim], None, &[(0, 0)], 3)
            .unwrap();
        client.telemetry().unwrap();
        assert_eq!(
            handle.metrics().snapshot().counter("serve_ingests_total"),
            Some(1)
        );

        let mut emitted = BTreeSet::new();
        for snap in [
            handle.metrics().snapshot(),
            trainer.metrics().snapshot(),
            MetricsRegistry::global().snapshot(),
        ] {
            emitted.extend(snap.counters.into_iter().map(|(name, _)| name));
            emitted.extend(snap.gauges.into_iter().map(|(name, _)| name));
            emitted.extend(snap.histograms.into_iter().map(|(name, _)| name));
        }
        handle.shutdown();
        let undocumented: Vec<_> = emitted.difference(&documented).collect();
        assert!(
            undocumented.is_empty(),
            "not in DESIGN.md: {undocumented:?}"
        );
        let unemitted: Vec<_> = documented.difference(&emitted).collect();
        assert!(
            unemitted.is_empty(),
            "DESIGN.md documents, nothing emits: {unemitted:?}"
        );
    }
}
