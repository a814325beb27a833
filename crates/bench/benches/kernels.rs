//! Criterion micro-benchmarks for the hot kernels: message packaging,
//! wide/deep attention forward+backward, downsampling decisions, sparse
//! matmul and neighbourhood sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use widen_core::{WidenConfig, WidenModel};
use widen_data::{acm_like, Scale};
use widen_sampling::{sample_deep, sample_wide};
use widen_tensor::{CsrMatrix, Tape, Tensor};

fn bench_attention_forward_backward(c: &mut Criterion) {
    let dataset = acm_like(Scale::Smoke, 1);
    let mut group = c.benchmark_group("widen_forward_backward");
    group.sample_size(20);
    for &d in &[32usize, 64, 128] {
        let mut cfg = WidenConfig::small();
        cfg.d = d;
        cfg.n_w = 10;
        cfg.n_d = 10;
        cfg.phi = 2;
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        let node = dataset.transductive.train[0];
        let state = model.sample_state(&dataset.graph, node, 1);
        let label = dataset.graph.label(node).unwrap() as usize;
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let pv = model.insert_params(&mut tape);
                let fw = model.forward_batch(&mut tape, &pv, &dataset.graph, &[&state]);
                let loss = tape.softmax_cross_entropy(fw.logits, &[label]);
                tape.backward(loss);
                std::hint::black_box(tape.grad(fw.logits).is_some())
            });
        });
    }
    group.finish();
}

/// Median seconds per call of `f` over `iters` timed runs (one warm-up).
fn seconds_per_iter(mut f: impl FnMut(), iters: usize) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Forward+backward of one chunk at chunk sizes 1/8/64/256, on pre-sampled
/// states. Besides the criterion group, prints one machine-readable JSON
/// row per chunk size with the measured time.
fn bench_chunk_forward_backward(c: &mut Criterion) {
    let dataset = acm_like(Scale::Smoke, 7);
    // The paper's default §4.4 setting: d = 128, N_w = N_d = 20, Φ = 10.
    let model = WidenModel::for_graph(&dataset.graph, WidenConfig::paper());
    let labeled = dataset.graph.labeled_nodes();
    let mut group = c.benchmark_group("chunk_forward_backward");
    group.sample_size(10);

    for &batch in &[1usize, 8, 64, 256] {
        let nodes: Vec<u32> = (0..batch).map(|i| labeled[i % labeled.len()]).collect();
        let states: Vec<_> = nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| model.sample_state(&dataset.graph, v, i as u64))
            .collect();
        let refs: Vec<&_> = states.iter().collect();
        let labels: Vec<usize> = nodes
            .iter()
            .map(|&v| dataset.graph.label(v).unwrap() as usize)
            .collect();

        let run_batched = || {
            let mut tape = Tape::new();
            let pv = model.insert_params(&mut tape);
            let fw = model.forward_batch(&mut tape, &pv, &dataset.graph, &refs);
            let loss = tape.softmax_cross_entropy(fw.logits, &labels);
            tape.backward(loss);
            std::hint::black_box(tape.grad(fw.logits).is_some());
        };
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, _| {
            b.iter(run_batched);
        });

        // The criterion shim doesn't expose its timings, so measure here
        // and emit a stable JSON row for the experiment logs.
        let iters = (256 / batch).clamp(3, 31);
        let batched_s = seconds_per_iter(run_batched, iters);
        println!(
            "{}",
            serde_json::json!({
                "bench": "chunk_forward_backward",
                "d": model.config.d,
                "n_w": model.config.n_w,
                "n_d": model.config.n_d,
                "phi": model.config.phi,
                "batch": batch,
                "batched_ms": batched_s * 1e3,
            })
        );
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let dataset = acm_like(Scale::Smoke, 2);
    let mut group = c.benchmark_group("sampling");
    group.bench_function("wide_n20", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % dataset.graph.num_nodes() as u32;
            std::hint::black_box(sample_wide(&dataset.graph, i, 20, &mut rng).len())
        });
    });
    group.bench_function("deep_walk_n20", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % dataset.graph.num_nodes() as u32;
            std::hint::black_box(sample_deep(&dataset.graph, i, 20, &mut rng).len())
        });
    });
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let dataset = acm_like(Scale::Smoke, 3);
    let adj = Arc::new(dataset.graph.adjacency().gcn_normalized());
    let mut rng = StdRng::seed_from_u64(5);
    let x = Tensor::randn(dataset.graph.num_nodes(), 64, 0.1, &mut rng);
    c.bench_function("spmm_full_graph_d64", |b| {
        b.iter(|| std::hint::black_box(adj.spmm(&x).rows()));
    });
    let typed = dataset.graph.adjacency_of_type(widen_graph::EdgeTypeId(0));
    c.bench_function("spspmm_metapath", |b| {
        b.iter(|| std::hint::black_box(typed.spspmm(&typed).nnz()));
    });
    let _ = CsrMatrix::identity(4);
}

fn bench_dense_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut group = c.benchmark_group("dense_matmul");
    for &n in &[64usize, 128, 256] {
        let a = Tensor::randn(n, n, 0.1, &mut rng);
        let b_mat = Tensor::randn(n, n, 0.1, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b_mat).rows()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_attention_forward_backward,
    bench_chunk_forward_backward,
    bench_sampling,
    bench_spmm,
    bench_dense_matmul
);
criterion_main!(benches);
