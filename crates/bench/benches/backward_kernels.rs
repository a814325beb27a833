//! A/B benchmarks for the backward-pass rewrite: the old single-threaded
//! rank-1 `matmul_tn` against the column-striped rayon kernel, and
//! alloc-per-step of the backward pass with the gradient pool off vs on.
//!
//! The "old" kernel is reproduced here verbatim (serial p-outer rank-1
//! accumulation, `a != 0.0` short-circuit) so the comparison survives the
//! library kernel evolving further.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use widen_tensor::{Tape, Tensor};

/// The pre-rewrite `matmul_tn`: serial rank-1 updates, row-major `b`.
fn matmul_tn_old(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rows(), b.rows());
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    let mut out = Tensor::zeros(m, n);
    for p in 0..k {
        let a_row = a.row(p);
        let b_row = b.row(p);
        for (i, &av) in a_row.iter().enumerate() {
            if av != 0.0 {
                let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
    out
}

/// Old serial kernel vs the shipped (striped, rayon-parallel) `matmul_tn`
/// at the weight-gradient shapes of the paper config (k = pack rows,
/// m = n = d).
fn bench_matmul_tn_ab(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("widen_backward_kernels/matmul_tn");
    group.sample_size(20);
    for &(k, d) in &[(256usize, 64usize), (1024, 128), (4096, 128)] {
        let a = Tensor::randn(k, d, 0.5, &mut rng);
        let g = Tensor::randn(k, d, 0.5, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("old_serial", format!("{k}x{d}")),
            &(k, d),
            |bch, _| bch.iter(|| std::hint::black_box(matmul_tn_old(&a, &g))),
        );
        group.bench_with_input(
            BenchmarkId::new("new_striped", format!("{k}x{d}")),
            &(k, d),
            |bch, _| bch.iter(|| std::hint::black_box(a.matmul_tn(&g))),
        );
    }
    group.finish();
}

/// The pre-rewrite `matmul_nt`: per-element scalar-reduction dot product
/// (loop-carried dependency, no SIMD lanes).
fn matmul_nt_old(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.cols());
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        for j in 0..n {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a_row[p] * b_row[p];
            }
            out.as_mut_slice()[i * n + j] = acc;
        }
    }
    out
}

/// Old scalar-dot kernel vs the shipped lane-split `matmul_nt` at the
/// input-gradient shape `dX = G · Wᵀ` of the paper config.
fn bench_matmul_nt_ab(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let mut group = c.benchmark_group("widen_backward_kernels/matmul_nt");
    group.sample_size(20);
    for &(rows, d) in &[(600usize, 128usize), (12600, 128)] {
        let g = Tensor::randn(rows, d, 0.5, &mut rng);
        let w = Tensor::randn(d, d, 0.5, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("old_scalar_dot", format!("{rows}x{d}")),
            &(rows, d),
            |bch, _| bch.iter(|| std::hint::black_box(matmul_nt_old(&g, &w))),
        );
        group.bench_with_input(
            BenchmarkId::new("new_lane_dot", format!("{rows}x{d}")),
            &(rows, d),
            |bch, _| bch.iter(|| std::hint::black_box(g.matmul_nt(&w))),
        );
    }
    group.finish();
}

/// Builds a representative training-step tape: a chain of matmuls, an
/// attention-ish softmax and a cross-entropy head.
fn build_step_tape(tape: &mut Tape, d: usize, rows: usize, rng: &mut StdRng) {
    let x = tape.leaf(Tensor::randn(rows, d, 0.5, rng));
    let w1 = tape.leaf(Tensor::randn(d, d, 0.5, rng));
    let w2 = tape.leaf(Tensor::randn(d, d, 0.5, rng));
    let h1 = tape.matmul(x, w1);
    let h1 = tape.relu(h1);
    let scores = tape.matmul_nt(h1, h1);
    let attn = tape.softmax_rows(scores);
    let mixed = tape.matmul(attn, h1);
    let h2 = tape.matmul(mixed, w2);
    let labels: Vec<usize> = (0..rows).map(|i| i % d.min(4)).collect();
    let loss = tape.softmax_cross_entropy(h2, &labels);
    tape.backward(loss);
}

/// Per-step alloc behaviour with and without the pool: `pool_off`
/// allocates every value and gradient fresh; `pool_warm` carries one warm
/// pool across steps, so a step of repeating shapes allocates nothing.
fn bench_backward_alloc_ab(c: &mut Criterion) {
    let (d, rows) = (128usize, 64usize);
    let mut group = c.benchmark_group("widen_backward_kernels/alloc_per_step");
    group.sample_size(20);

    group.bench_function("pool_off", |bch| {
        let mut rng = StdRng::seed_from_u64(11);
        bch.iter(|| {
            let mut tape = Tape::new();
            tape.disable_pool();
            build_step_tape(&mut tape, d, rows, &mut rng);
            std::hint::black_box(tape.pool_stats().misses)
        });
    });

    group.bench_function("pool_warm", |bch| {
        let mut rng = StdRng::seed_from_u64(11);
        let mut pool = Some(widen_tensor::BufferPool::new());
        bch.iter(|| {
            let mut tape = Tape::new();
            tape.install_pool(pool.take().expect("pool threaded through steps"));
            build_step_tape(&mut tape, d, rows, &mut rng);
            let out = std::hint::black_box(tape.pool_stats().hits);
            pool = Some(tape.take_pool());
            out
        });
    });

    group.finish();

    // One machine-readable line for EXPERIMENTS.md bookkeeping.
    let mut rng = StdRng::seed_from_u64(11);
    let mut tape = Tape::new();
    tape.disable_pool();
    build_step_tape(&mut tape, d, rows, &mut rng);
    let cold = tape.pool_stats().misses;
    let mut tape = Tape::new();
    build_step_tape(&mut tape, d, rows, &mut rng);
    let pool = tape.take_pool();
    let after_first = pool.stats();
    let mut tape = Tape::new();
    tape.install_pool(pool);
    build_step_tape(&mut tape, d, rows, &mut rng);
    let after_second = tape.pool_stats();
    println!(
        "{{\"bench\":\"alloc_per_step\",\"allocs_pool_off\":{cold},\"steady_state_allocs\":{},\"steady_state_hits\":{}}}",
        after_second.misses - after_first.misses,
        after_second.hits - after_first.hits
    );
}

criterion_group!(
    benches,
    bench_matmul_tn_ab,
    bench_matmul_nt_ab,
    bench_backward_alloc_ab
);
criterion_main!(benches);
