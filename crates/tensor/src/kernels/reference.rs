//! The scalar oracle backend.
//!
//! These are the exact kernels that used to live inline in `tensor.rs`,
//! moved behind the [`KernelBackend`] seam unchanged: same loop orders,
//! same `+0.0`-only zero skip, one thread — the caller's. Everything
//! downstream that promises bitwise reproducibility (batched vs per-node
//! engine parity, checkpoint restore) is promised *against this backend*.

use super::{axpy, dot, nonzero, KernelBackend};

/// Scalar oracle backend — bit-compatible with the historical kernels.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reference;

impl KernelBackend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn gemm_nn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            matmul_row(a_row, b, n, out_row);
        }
    }

    fn gemm_nt_acc(&self, _m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let a_rows = a.chunks_exact(k.max(1));
        let out_rows = out.chunks_exact_mut(n.max(1));
        for (a_row, out_row) in a_rows.zip(out_rows) {
            let b_rows = b.chunks_exact(k.max(1));
            for (o, b_row) in out_row.iter_mut().zip(b_rows) {
                *o += dot(a_row, b_row);
            }
        }
    }

    fn gemm_tn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        // Rank-1 accumulation; row-major friendly for `b`.
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                if nonzero(av) {
                    let out_row = &mut out[i * n..(i + 1) * n];
                    axpy(av, b_row, out_row);
                }
            }
        }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        dot(a, b)
    }
}

/// One output row of `gemm_nn_acc`: `out_row += a_row · B` via rank-1
/// axpy updates, skipping exact `+0.0` multipliers (see
/// [`super::nonzero`]).
#[inline]
pub(crate) fn matmul_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    for (p, &a) in a_row.iter().enumerate() {
        if nonzero(a) {
            let b_row = &b[p * n..(p + 1) * n];
            axpy(a, b_row, out_row);
        }
    }
}
