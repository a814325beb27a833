//! The scalar oracle backend.
//!
//! Three plain loops, one thread — the caller's: the i-p-j rank-1 `A·B`
//! and the p-i-j rank-1 `Aᵀ·B`, each rounding every term straight into
//! `out` with an exact-`+0.0` multiplier skip, and the `A·Bᵀ` row-by-row
//! dot. Every term is one `f32::mul_add` — a single rounding, as in the
//! [`super::Optimized`] tiles — so `Aᵀ·B` is bitwise that backend's, and
//! `A·B` / `A·Bᵀ` differ from it only by the two licensed deviations of
//! its parity contract. The ragged span kernels (`dot`, `axpy`) are not
//! GEMMs and keep their separate multiply and add.

use super::{dot, nonzero, KernelBackend};

/// Scalar oracle backend: the fused GEMMs in their textbook loop orders.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reference;

impl KernelBackend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn gemm_nn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                if nonzero(av) {
                    fused_axpy(av, &b[p * n..(p + 1) * n], out_row);
                }
            }
        }
    }

    fn gemm_nt_acc(&self, _m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let a_rows = a.chunks_exact(k.max(1));
        let out_rows = out.chunks_exact_mut(n.max(1));
        for (a_row, out_row) in a_rows.zip(out_rows) {
            let b_rows = b.chunks_exact(k.max(1));
            for (o, b_row) in out_row.iter_mut().zip(b_rows) {
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc = x.mul_add(y, acc);
                }
                *o += acc;
            }
        }
    }

    fn gemm_tn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for p in 0..k {
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &av) in a[p * m..(p + 1) * m].iter().enumerate() {
                if nonzero(av) {
                    fused_axpy(av, b_row, &mut out[i * n..(i + 1) * n]);
                }
            }
        }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        dot(a, b)
    }
}

/// `y = fma(alpha, x, y)` element by element.
fn fused_axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y = alpha.mul_add(x, *y);
    }
}
