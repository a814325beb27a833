//! Concurrency contract of the serving layer: many client threads hammer
//! one in-process server, and every coalesced answer must equal the serial
//! `predict_ensemble` / `embed_nodes` answer for that node set and seed;
//! shutdown must drain in-flight requests without dropping any.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use widen::core::{WidenConfig, WidenModel};
use widen::data::{acm_like, Scale};
use widen::serve::{Client, ModelRegistry, ServeConfig, Server};

const ROUNDS: usize = 2;

fn tiny_config() -> WidenConfig {
    let mut c = WidenConfig::small();
    c.d = 8;
    c.n_w = 4;
    c.n_d = 4;
    c.phi = 1;
    c
}

struct Fixture {
    model: WidenModel,
    graph: widen::graph::HeteroGraph,
}

fn fixture(seed: u64) -> Fixture {
    let dataset = acm_like(Scale::Smoke, seed);
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    Fixture {
        model,
        graph: dataset.graph,
    }
}

#[test]
fn concurrent_clients_get_the_serial_answers() {
    const THREADS: usize = 4;
    const REQUESTS_PER_THREAD: usize = 5;

    let fx = fixture(60);
    let checkpoint = fx.model.save_weights();
    let registry = ModelRegistry::from_checkpoint(fx.graph.clone(), tiny_config(), &checkpoint)
        .expect("checkpoint loads");
    let config = ServeConfig {
        max_batch: 16,
        max_wait_us: 2_000,
        ..ServeConfig::default()
    };
    let handle = Server::bind(registry, config, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    // Precompute the serial oracle for every (thread, request) pair.
    let mut expected_labels = Vec::new();
    let mut expected_rows = Vec::new();
    for t in 0..THREADS {
        let mut per_thread_labels = Vec::new();
        let mut per_thread_rows = Vec::new();
        for r in 0..REQUESTS_PER_THREAD {
            let nodes = nodes_for(t, r);
            let seed = seed_for(t, r);
            let labels: Vec<u32> = fx
                .model
                .predict_ensemble(&fx.graph, &nodes, seed, ROUNDS)
                .into_iter()
                .map(|l| l as u32)
                .collect();
            let emb = fx.model.embed_nodes(&fx.graph, &nodes, seed);
            let rows: Vec<Vec<f32>> = (0..nodes.len()).map(|i| emb.row(i).to_vec()).collect();
            per_thread_labels.push(labels);
            per_thread_rows.push(rows);
        }
        expected_labels.push(per_thread_labels);
        expected_rows.push(per_thread_rows);
    }
    let expected_labels = Arc::new(expected_labels);
    let expected_rows = Arc::new(expected_rows);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let expected_labels = expected_labels.clone();
            let expected_rows = expected_rows.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for r in 0..REQUESTS_PER_THREAD {
                    let nodes = nodes_for(t, r);
                    let seed = seed_for(t, r);
                    let labels = client
                        .classify(&nodes, seed, ROUNDS as u32)
                        .expect("classify succeeds");
                    assert_eq!(
                        labels, expected_labels[t][r],
                        "thread {t} request {r}: classify diverged from predict_ensemble"
                    );
                    let rows = client.embed(&nodes, seed).expect("embed succeeds");
                    for (got, want) in rows.iter().zip(&expected_rows[t][r]) {
                        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            got_bits, want_bits,
                            "thread {t} request {r}: embedding not bit-identical"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }

    let stats = handle.shutdown();
    let total = (THREADS * REQUESTS_PER_THREAD * 2) as u64;
    assert_eq!(stats.requests, total, "every request must be counted once");
    assert!(
        stats.batches <= stats.jobs,
        "fused batches can never outnumber jobs"
    );
    assert_eq!(stats.deadline_drops, 0);
}

#[test]
fn stats_op_reports_live_counters() {
    let fx = fixture(62);
    let checkpoint = fx.model.save_weights();
    let registry = ModelRegistry::from_checkpoint(fx.graph.clone(), tiny_config(), &checkpoint)
        .expect("checkpoint loads");
    let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let nodes: Vec<u32> = (0..5).collect();
    client.embed(&nodes, 3).expect("embed succeeds");
    client.embed(&nodes, 3).expect("cached embed succeeds");
    client.classify(&nodes, 3, 2).expect("classify succeeds");

    let text = client.telemetry().expect("telemetry succeeds");
    for key in [
        "serve_requests_total",
        "serve_jobs_total",
        "serve_batches_total",
        "serve_cache_hits_total",
        "serve_cache_misses_total",
        "serve_batch_size",
        "serve_batch_wait_us",
        "serve_queue_depth",
        // Ambient process-registry instruments the samplers record into.
        "sampling_wide_set_size",
        "sampling_deep_walk_len",
    ] {
        assert!(
            text.contains(&format!("\"{key}\":")),
            "telemetry payload missing `{key}`: {text}"
        );
    }
    // The snapshot is rendered while the Telemetry request itself is being
    // answered, so exactly the three data requests are counted in it.
    assert!(
        text.contains("\"serve_requests_total\":3"),
        "live counter not reflected: {text}"
    );

    let snap = handle.metrics().snapshot();
    assert_eq!(snap.counter("serve_requests_total"), Some(4));
    assert_eq!(snap.counter("serve_jobs_total"), Some(15));
    // The repeated embed hits the cache for every node of the request.
    assert_eq!(snap.counter("serve_cache_hits_total"), Some(5));
    let sizes = snap.histogram("serve_batch_size").expect("histogram");
    assert!(sizes.count >= 1 && sizes.count == snap.counter("serve_batches_total").unwrap());
    handle.shutdown();
}

#[test]
fn embedding_lru_serves_sequential_repeats_under_concurrency() {
    // The throughput-bench cache contract: singleflight dedup only folds
    // *concurrent* identical requests, so a client repeating its own
    // (nodes, seed) key back to back must be served by the embedding LRU.
    // Per-client seeds keep the keys disjoint across threads, so the hit
    // count has a hard floor of one hit per node per client.
    const THREADS: usize = 4;
    const NODES: u32 = 6;

    let fx = fixture(63);
    let checkpoint = fx.model.save_weights();
    let registry = ModelRegistry::from_checkpoint(fx.graph.clone(), tiny_config(), &checkpoint)
        .expect("checkpoint loads");
    let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let nodes: Vec<u32> = (0..NODES).collect();
                let seed = 9_000 + t as u64;
                let first = client.embed(&nodes, seed).expect("embed succeeds");
                let second = client.embed(&nodes, seed).expect("cached embed succeeds");
                for (a, b) in first.iter().zip(&second) {
                    let a_bits: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                    let b_bits: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(a_bits, b_bits, "cached rows must be bit-identical");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panicked");
    }

    let stats = handle.shutdown();
    assert!(
        stats.cache_hits >= (THREADS as u64) * u64::from(NODES),
        "LRU must serve every sequential repeat: {} hits, expected at least {}",
        stats.cache_hits,
        THREADS * NODES as usize
    );
}

#[test]
fn a_request_wider_than_max_batch_is_one_window_and_one_response() {
    // A window pulls whole requests: 40 nodes at `max_batch: 16` are not
    // split, so they come back as one response from one 40-row batch.
    let fx = fixture(64);
    let checkpoint = fx.model.save_weights();
    let registry = ModelRegistry::from_checkpoint(fx.graph.clone(), tiny_config(), &checkpoint)
        .expect("checkpoint loads");
    let config = ServeConfig {
        max_batch: 16,
        ..ServeConfig::default()
    };
    let handle = Server::bind(registry, config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let nodes: Vec<u32> = (0..40).collect();
    let rows = client.embed(&nodes, 21).expect("embed succeeds");
    let items: Vec<(u32, u64)> = nodes.iter().map(|&n| (n, 21)).collect();
    let want = fx.model.embed_requests(&fx.graph, &items);
    assert_eq!(rows.len(), nodes.len());
    for (i, row) in rows.iter().enumerate() {
        let got_bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u32> = want.row(i).iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits, "row {i} not bit-identical");
    }

    let snap = handle.metrics().snapshot();
    let sizes = snap.histogram("serve_batch_size").expect("histogram");
    assert_eq!((sizes.count, sizes.sum, sizes.max), (1, 40.0, 40.0));
    let stats = handle.shutdown();
    assert_eq!((stats.requests, stats.jobs, stats.batches), (1, 40, 1));
}

/// Distinct, overlapping node sets so concurrent requests share cache and
/// batch space without being identical.
fn nodes_for(thread: usize, request: usize) -> Vec<u32> {
    let base = (thread * 3 + request) as u32;
    (base..base + 6).collect()
}

fn seed_for(thread: usize, request: usize) -> u64 {
    100 + (thread * 17 + request) as u64
}

#[test]
fn shutdown_drains_in_flight_requests() {
    const CLIENTS: usize = 3;

    let fx = fixture(61);
    let checkpoint = fx.model.save_weights();
    let registry = ModelRegistry::from_checkpoint(fx.graph.clone(), tiny_config(), &checkpoint)
        .expect("checkpoint loads");
    // Narrow batches on the one batcher so requests are genuinely in flight
    // (queued or mid-batch) when shutdown fires.
    let config = ServeConfig {
        max_batch: 8,
        max_wait_us: 500,
        ..ServeConfig::default()
    };
    let handle = Server::bind(registry, config, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    let nodes: Vec<u32> = (0..24).collect();
    let expected: Vec<Vec<u32>> = (0..CLIENTS)
        .map(|c| {
            fx.model
                .predict_ensemble(&fx.graph, &nodes, c as u64, ROUNDS)
                .into_iter()
                .map(|l| l as u32)
                .collect()
        })
        .collect();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let nodes = nodes.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .classify(&nodes, c as u64, ROUNDS as u32)
                    .expect("in-flight request must be answered, not dropped")
            })
        })
        .collect();

    // Let the requests reach the server, then shut down while they are
    // being computed. Graceful drain means every one still gets its answer.
    thread::sleep(Duration::from_millis(30));
    let stats = handle.shutdown();

    for (c, worker) in workers.into_iter().enumerate() {
        let labels = worker.join().expect("client thread panicked");
        assert_eq!(
            labels, expected[c],
            "client {c}: drained answer must equal the serial oracle"
        );
    }
    assert_eq!(stats.requests, CLIENTS as u64);
    assert_eq!(stats.deadline_drops, 0);
}
