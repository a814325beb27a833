//! Finite-difference gradient checking used across the test suites.
//!
//! Every differentiable op in this crate — and the composite WIDEN blocks in
//! `widen-core` — is validated against central differences. f32 arithmetic
//! limits attainable precision, so the checker uses a combined
//! absolute/relative tolerance.

use crate::kernels::BackendKind;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Result of a gradient check: the largest combined-tolerance violation.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Largest `|analytic − numeric| / max(1, |numeric|)` observed.
    pub max_violation: f32,
    /// Where it occurred: (input index, element index).
    pub worst: (usize, usize),
}

/// Checks analytic gradients of `build` against central finite differences.
///
/// `build` must construct the full forward computation from the leaf vars it
/// is handed (one per entry of `inputs`, same order) and return a **scalar**
/// output var. It must be deterministic.
///
/// Returns a report; use [`assert_grads_close`] in tests.
pub fn check_gradients(
    inputs: &[Tensor],
    build: impl Fn(&mut Tape, &[Var]) -> Var,
    eps: f32,
) -> GradCheckReport {
    check_gradients_with_backend(inputs, build, eps, BackendKind::default())
}

/// [`check_gradients`] with the kernel backend pinned — both the analytic
/// pass and every finite-difference evaluation run on `backend`, so the
/// check validates that backend's forward *and* backward GEMM paths.
pub fn check_gradients_with_backend(
    inputs: &[Tensor],
    build: impl Fn(&mut Tape, &[Var]) -> Var,
    eps: f32,
    backend: BackendKind,
) -> GradCheckReport {
    // Analytic pass.
    let mut tape = Tape::with_backend(backend);
    let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = build(&mut tape, &vars);
    tape.backward(out);
    let analytic: Vec<Tensor> = vars
        .iter()
        .zip(inputs)
        .map(|(v, t)| {
            tape.grad(*v)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(t.rows(), t.cols()))
        })
        .collect();

    let eval = |perturbed: &[Tensor]| -> f32 {
        let mut tape = Tape::with_backend(backend);
        let vars: Vec<Var> = perturbed.iter().map(|t| tape.leaf(t.clone())).collect();
        let out = build(&mut tape, &vars);
        tape.value(out).get(0, 0)
    };

    let mut report = GradCheckReport {
        max_violation: 0.0,
        worst: (0, 0),
    };
    let mut work: Vec<Tensor> = inputs.to_vec();
    for (i, input) in inputs.iter().enumerate() {
        for e in 0..input.len() {
            let orig = input.as_slice()[e];
            work[i].as_mut_slice()[e] = orig + eps;
            let plus = eval(&work);
            work[i].as_mut_slice()[e] = orig - eps;
            let minus = eval(&work);
            work[i].as_mut_slice()[e] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic[i].as_slice()[e];
            let violation = (a - numeric).abs() / numeric.abs().max(1.0);
            if violation > report.max_violation {
                report.max_violation = violation;
                report.worst = (i, e);
            }
        }
    }
    report
}

/// Asserts the analytic/numeric agreement is within `tol`.
///
/// # Panics
/// Panics with a located diagnostic on failure.
pub fn assert_grads_close(inputs: &[Tensor], build: impl Fn(&mut Tape, &[Var]) -> Var, tol: f32) {
    assert_grads_close_with_backend(inputs, build, tol, BackendKind::default());
}

/// [`assert_grads_close`] with the kernel backend pinned.
///
/// # Panics
/// Panics with a located diagnostic (including the backend name) on failure.
pub fn assert_grads_close_with_backend(
    inputs: &[Tensor],
    build: impl Fn(&mut Tape, &[Var]) -> Var,
    tol: f32,
    backend: BackendKind,
) {
    let report = check_gradients_with_backend(inputs, build, 1e-2, backend);
    assert!(
        report.max_violation < tol,
        "gradient mismatch {:.3e} at input {} element {} (tol {:.1e}, backend {})",
        report.max_violation,
        report.worst.0,
        report.worst.1,
        tol,
        backend.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn randn(r: usize, c: usize, rng: &mut StdRng) -> Tensor {
        Tensor::randn(r, c, 0.5, rng)
    }

    #[test]
    fn matmul_grads() {
        let mut r = rng();
        let inputs = vec![randn(3, 4, &mut r), randn(4, 2, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let c = t.matmul(v[0], v[1]);
                t.sum(c)
            },
            2e-2,
        );
    }

    #[test]
    fn matmul_chain_grads_on_every_backend() {
        // The same forward build must grad-check on each kernel backend —
        // this exercises every backend's nn/nt/tn paths (forward matmul +
        // both backward GEMMs) against finite differences.
        let mut r = rng();
        let inputs = vec![
            randn(9, 4, &mut r),
            randn(4, 6, &mut r),
            randn(9, 6, &mut r),
        ];
        for backend in BackendKind::all() {
            assert_grads_close_with_backend(
                &inputs,
                |t, v| {
                    let c = t.matmul(v[0], v[1]);
                    let s = t.matmul_nt(c, v[2]);
                    let sq = t.mul(s, s);
                    t.sum(sq)
                },
                2e-2,
                backend,
            );
        }
    }

    #[test]
    fn matmul_nt_grads() {
        let mut r = rng();
        let inputs = vec![randn(3, 4, &mut r), randn(5, 4, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let c = t.matmul_nt(v[0], v[1]);
                let sq = t.mul(c, c);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn elementwise_grads() {
        let mut r = rng();
        let inputs = vec![randn(2, 3, &mut r), randn(2, 3, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let m = t.mul(v[0], v[1]);
                let a = t.add(m, v[0]);
                let s = t.sub(a, v[1]);
                t.sum(s)
            },
            2e-2,
        );
    }

    #[test]
    fn broadcast_scale_grads() {
        let mut r = rng();
        let inputs = vec![randn(4, 3, &mut r), randn(1, 3, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let b = t.add_row_broadcast(v[0], v[1]);
                let s = t.scale(b, 0.7);
                let sq = t.mul(s, s);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn activation_grads() {
        let mut r = rng();
        // Offset away from the ReLU kink for finite differences.
        let mut a = randn(3, 3, &mut r);
        for x in a.as_mut_slice() {
            if x.abs() < 0.1 {
                *x += 0.2;
            }
        }
        let inputs = vec![a];
        assert_grads_close(
            &inputs,
            |t, v| {
                let r1 = t.relu(v[0]);
                let r2 = t.leaky_relu(v[0], 0.2);
                let r3 = t.tanh(v[0]);
                let s1 = t.add(r1, r2);
                let s2 = t.add(s1, r3);
                t.sum(s2)
            },
            3e-2,
        );
    }

    #[test]
    fn softmax_grads() {
        let mut r = rng();
        let inputs = vec![randn(3, 5, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let s = t.softmax_rows(v[0]);
                let sq = t.mul(s, s);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn masked_softmax_grads() {
        let mut r = rng();
        let inputs = vec![randn(4, 4, &mut r)];
        let mut mask = Tensor::zeros(4, 4);
        for row in 0..4 {
            for col in 0..4 {
                if row > col {
                    mask.set(row, col, f32::NEG_INFINITY);
                }
            }
        }
        let mask = Arc::new(mask);
        assert_grads_close(
            &inputs,
            move |t, v| {
                let s = t.masked_softmax_rows(v[0], mask.clone());
                let sq = t.mul(s, s);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn stack_select_grads() {
        let mut r = rng();
        let inputs = vec![randn(2, 3, &mut r), randn(3, 3, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let st = t.vstack(&[v[0], v[1]]);
                let sel = t.select_rows(st, &[0, 4, 2, 2]);
                let sq = t.mul(sel, sel);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn hstack_mean_rows_grads() {
        let mut r = rng();
        let inputs = vec![randn(3, 2, &mut r), randn(3, 4, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let h = t.hstack(&[v[0], v[1]]);
                let m = t.mean_rows(h);
                let sq = t.mul(m, m);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn l2_normalize_grads() {
        let mut r = rng();
        // Keep rows clearly away from zero norm.
        let mut a = randn(3, 4, &mut r);
        for x in a.as_mut_slice() {
            *x += 1.0;
        }
        let target = randn(3, 4, &mut r);
        let inputs = vec![a, target];
        assert_grads_close(
            &inputs,
            |t, v| {
                let n = t.l2_normalize_rows(v[0]);
                let d = t.sub(n, v[1]);
                let sq = t.mul(d, d);
                t.sum(sq)
            },
            3e-2,
        );
    }

    #[test]
    fn cross_entropy_grads() {
        let mut r = rng();
        let inputs = vec![randn(4, 3, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| t.softmax_cross_entropy(v[0], &[0, 2, 1, 1]),
            2e-2,
        );
    }

    #[test]
    fn maxpool2_grads() {
        let mut r = rng();
        // Separate the operands to keep finite differences off the tie point.
        let mut a = randn(2, 4, &mut r);
        let mut b = randn(2, 4, &mut r);
        for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_mut_slice()) {
            if (*x - *y).abs() < 0.1 {
                *x += 0.3;
            }
        }
        let inputs = vec![a, b];
        assert_grads_close(
            &inputs,
            |t, v| {
                let m = t.maxpool2(v[0], v[1]);
                let sq = t.mul(m, m);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn transpose_grads() {
        let mut r = rng();
        let inputs = vec![randn(3, 5, &mut r), randn(3, 5, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let tr = t.transpose(v[0]);
                let back = t.transpose(tr);
                let d = t.sub(back, v[1]);
                let sq = t.mul(d, d);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn mul_scalar_var_grads() {
        let mut r = rng();
        let inputs = vec![randn(3, 4, &mut r), randn(1, 1, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let scaled = t.mul_scalar_var(v[0], v[1]);
                let sq = t.mul(scaled, scaled);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn soft_selection_block_grads() {
        // GTN-style: softmax over channel logits gates two matrices.
        let mut r = rng();
        let inputs = vec![
            randn(1, 2, &mut r),
            randn(3, 3, &mut r),
            randn(3, 3, &mut r),
        ];
        assert_grads_close(
            &inputs,
            |t, v| {
                let sm = t.softmax_rows(v[0]);
                let col = t.transpose(sm);
                let s0 = t.select_rows(col, &[0]);
                let s1 = t.select_rows(col, &[1]);
                let g0 = t.mul_scalar_var(v[1], s0);
                let g1 = t.mul_scalar_var(v[2], s1);
                let mix = t.add(g0, g1);
                let sq = t.mul(mix, mix);
                t.sum(sq)
            },
            3e-2,
        );
    }

    #[test]
    fn select_rows_duplicate_index_grads() {
        let mut r = rng();
        let inputs = vec![randn(4, 3, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                // Duplicate index exercises the scatter-add accumulation.
                let g = t.select_rows(v[0], &[2, 0, 2, 3]);
                let sq = t.mul(g, g);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn pack_rows_grads() {
        // Repeated node and edge rows: both scatters accumulate.
        let mut r = rng();
        let inputs = vec![randn(3, 4, &mut r), randn(5, 4, &mut r)];
        assert_grads_close(
            &inputs,
            |t, v| {
                let packs = t.pack_rows(v[0], &[2, 0, 2, 1, 0], v[1], &[4, 4, 1, 0, 3], None);
                let sq = t.mul(packs, packs);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn pack_rows_grads_through_relay_rows() {
        // Edge rows 3 and 4 are rows 0 and 1 of the relay operand, here a
        // leaf, so its gradient is checked too.
        let mut r = rng();
        let inputs = vec![
            randn(3, 4, &mut r),
            randn(3, 4, &mut r),
            randn(2, 4, &mut r),
        ];
        assert_grads_close(
            &inputs,
            |t, v| {
                let packs = t.pack_rows(v[0], &[1, 0, 2, 1], v[1], &[3, 0, 4, 0], Some(v[2]));
                let sq = t.mul(packs, packs);
                t.sum(sq)
            },
            2e-2,
        );
    }

    fn index_list(rows: &[usize]) -> Arc<[usize]> {
        Arc::from(rows)
    }

    fn span_list(spans: &[(usize, usize)]) -> Arc<[(usize, usize)]> {
        Arc::from(spans)
    }

    #[test]
    fn segment_attention_grads() {
        // Repeated indices on both sides (several positions → one source
        // row), a span of length 1 and a zero-length span.
        let mut r = rng();
        let inputs = vec![randn(3, 4, &mut r), randn(4, 4, &mut r)];
        let q_rows = index_list(&[2, 0, 0, 1]);
        let k_rows = index_list(&[3, 1, 1, 0, 2, 0]);
        let spans = span_list(&[(0, 2), (2, 4), (4, 1), (1, 0)]);
        for backend in BackendKind::all() {
            assert_grads_close_with_backend(
                &inputs,
                |t, v| {
                    let (q_rows, k_rows) = (q_rows.clone(), k_rows.clone());
                    let s = t.segment_attention(v[0], q_rows, v[1], k_rows, spans.clone(), 0.5);
                    let sq = t.mul(s, s);
                    t.sum(sq)
                },
                2e-2,
                backend,
            );
        }
    }

    #[test]
    fn segment_attention_grads_with_one_var_as_query_and_key() {
        // `q` and `k` the same `Var` under the Eq. 4 layout: one index
        // list on both sides, overlapping causal-suffix spans over two
        // walks (4 and 2 positions), rows shared between positions — and a
        // position whose key is its own query row. Both adjoints land in
        // one gradient slot.
        let mut r = rng();
        let inputs = vec![randn(3, 4, &mut r)];
        let rows = index_list(&[0, 2, 1, 2, 1, 0]);
        let spans = span_list(&[(0, 4), (1, 3), (2, 2), (3, 1), (4, 2), (5, 1)]);
        for backend in BackendKind::all() {
            assert_grads_close_with_backend(
                &inputs,
                |t, v| {
                    let s = t.segment_attention(
                        v[0],
                        rows.clone(),
                        v[0],
                        rows.clone(),
                        spans.clone(),
                        0.5,
                    );
                    let sq = t.mul(s, s);
                    t.sum(sq)
                },
                2e-2,
                backend,
            );
        }
    }

    #[test]
    fn segment_attention_through_grads() {
        // `mix` a free variable: repeated indices on both sides, spans that
        // overlap (positions 4 and 5 mix under two spans at different
        // offsets), a span of length 1 and a zero-length span.
        let mut r = rng();
        let inputs = vec![
            randn(3, 4, &mut r),
            randn(4, 4, &mut r),
            randn(6, 4, &mut r),
        ];
        let q_rows = index_list(&[2, 0, 0, 1]);
        let k_rows = index_list(&[3, 1, 1, 0, 2, 0]);
        let spans = span_list(&[(0, 2), (2, 4), (4, 1), (1, 0)]);
        for backend in BackendKind::all() {
            assert_grads_close_with_backend(
                &inputs,
                |t, v| {
                    let (q_rows, k_rows) = (q_rows.clone(), k_rows.clone());
                    let spans = spans.clone();
                    let s =
                        t.segment_attention_through(v[0], q_rows, v[1], k_rows, spans, v[2], 0.5);
                    let sq = t.mul(s, s);
                    t.sum(sq)
                },
                2e-2,
                backend,
            );
        }
    }

    #[test]
    fn segment_attention_through_grads_over_a_causal_mix_of_its_own_rows() {
        // The Eq. 4 → Eq. 5 layout on one variable: `mix` is the
        // causal-suffix attention of the rows over themselves (overlapping
        // suffix spans over two walks of 4 and 1 positions, rows shared
        // between positions), and the same variable is the second
        // attention's query *and* key. Three adjoints land in one slot.
        let mut r = rng();
        let inputs = vec![randn(3, 4, &mut r)];
        let rows = index_list(&[0, 2, 1, 2, 1]);
        let row_spans = span_list(&[(0, 4), (1, 3), (2, 2), (3, 1), (4, 1)]);
        let walk_spans = span_list(&[(0, 4), (4, 1)]);
        for backend in BackendKind::all() {
            assert_grads_close_with_backend(
                &inputs,
                |t, v| {
                    let x = v[0];
                    let idx = rows.clone();
                    let mix =
                        t.segment_attention(x, idx.clone(), x, idx.clone(), row_spans.clone(), 0.5);
                    let q_rows = index_list(&[idx[0], idx[4]]);
                    let spans = walk_spans.clone();
                    let s = t.segment_attention_through(x, q_rows, x, idx, spans, mix, 0.5);
                    let sq = t.mul(s, s);
                    t.sum(sq)
                },
                2e-2,
                backend,
            );
        }
    }

    #[test]
    fn segment_weighted_sum_grads() {
        // Repeated value indices, overlapping spans and a zero-length span.
        let mut r = rng();
        let inputs = vec![randn(3, 3, &mut r), randn(4, 4, &mut r)];
        let v_rows = index_list(&[3, 1, 1, 0, 2]);
        let spans = span_list(&[(0, 3), (2, 3), (2, 0)]);
        for backend in BackendKind::all() {
            assert_grads_close_with_backend(
                &inputs,
                |t, v| {
                    let s = t.segment_weighted_sum(v[0], v[1], v_rows.clone(), spans.clone());
                    let sq = t.mul(s, s);
                    t.sum(sq)
                },
                2e-2,
                backend,
            );
        }
    }

    #[test]
    fn segment_mean_rows_grads() {
        let mut r = rng();
        let inputs = vec![randn(6, 3, &mut r)];
        // Includes an empty span (zero row, zero gradient).
        let spans: Arc<[(usize, usize)]> = Arc::from(vec![(0, 4), (4, 0), (4, 2)]);
        assert_grads_close(
            &inputs,
            move |t, v| {
                let m = t.segment_mean_rows(v[0], spans.clone());
                let sq = t.mul(m, m);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn indexed_wide_attention_block_grads() {
        // The batched wide-attention block (Eq. 3) end to end: K/V
        // projected once per unique pack row and addressed by index, one
        // query per node under the identity index.
        let mut r = rng();
        let d = 4;
        let inputs = vec![
            randn(4, d, &mut r), // unique pack rows
            randn(d, d, &mut r), // W_Q
            randn(d, d, &mut r), // W_K
            randn(d, d, &mut r), // W_V
        ];
        // Two nodes, 3 and 4 positions; unique rows 1 and 3 are shared.
        let flat_index = index_list(&[0, 1, 3, 2, 3, 1, 1]);
        let spans = span_list(&[(0, 3), (3, 4)]);
        for backend in BackendKind::all() {
            assert_grads_close_with_backend(
                &inputs,
                |t, v| {
                    let m_t = t.select_rows(v[0], &[flat_index[0], flat_index[3]]);
                    let q = t.matmul(m_t, v[1]);
                    let k = t.matmul(v[0], v[2]);
                    let vals = t.matmul(v[0], v[3]);
                    let att = t.segment_attention(
                        q,
                        index_list(&[0, 1]),
                        k,
                        flat_index.clone(),
                        spans.clone(),
                        1.0 / (d as f32).sqrt(),
                    );
                    let h = t.segment_weighted_sum(att, vals, flat_index.clone(), spans.clone());
                    let sq = t.mul(h, h);
                    t.sum(sq)
                },
                4e-2,
                backend,
            );
        }
    }

    #[test]
    fn successive_then_gather_attention_grads() {
        // The deep branch's shape (Eq. 4 → Eq. 5): causal-suffix attention
        // with queries and keys on one index list, then a second attention
        // *through* it — over the refined rows `Σ a·v` that are never
        // formed, `W_V▷` folded into the query — whose output weighs the
        // raw rows.
        let mut r = rng();
        let d = 3;
        let inputs = vec![
            randn(3, d, &mut r), // unique pack rows
            randn(d, d, &mut r), // W_Q▷
            randn(d, d, &mut r), // W_K▷
            randn(d, d, &mut r), // W_V▷
            randn(d, d, &mut r), // W_Q▷′
            randn(d, d, &mut r), // W_V▷′
        ];
        // Two walks of 4 and 2 positions over 3 unique rows.
        let flat_index = index_list(&[0, 2, 1, 2, 1, 0]);
        let row_spans = span_list(&[(0, 4), (1, 3), (2, 2), (3, 1), (4, 2), (5, 1)]);
        let walk_spans = span_list(&[(0, 4), (4, 2)]);
        let scale = 1.0 / (d as f32).sqrt();
        for backend in BackendKind::all() {
            assert_grads_close_with_backend(
                &inputs,
                |t, v| {
                    let idx = flat_index.clone();
                    let q1 = t.matmul(v[0], v[1]);
                    let k1 = t.matmul(v[0], v[2]);
                    let att = t.segment_attention(
                        q1,
                        idx.clone(),
                        k1,
                        idx.clone(),
                        row_spans.clone(),
                        scale,
                    );
                    let m_t = t.select_rows(v[0], &[idx[0], idx[4]]);
                    let q2 = t.matmul(m_t, v[4]);
                    let q2 = t.matmul_nt(q2, v[3]);
                    let attn = t.segment_attention_through(
                        q2,
                        index_list(&[0, 1]),
                        v[0],
                        idx.clone(),
                        walk_spans.clone(),
                        att,
                        scale,
                    );
                    let v2 = t.matmul(v[0], v[5]);
                    let h = t.segment_weighted_sum(attn, v2, idx, walk_spans.clone());
                    let sq = t.mul(h, h);
                    t.sum(sq)
                },
                4e-2,
                backend,
            );
        }
    }

    #[test]
    fn spmm_grads() {
        use crate::sparse::CsrMatrix;
        let mut r = rng();
        let csr = Arc::new(CsrMatrix::from_coo(
            3,
            3,
            &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, -1.5), (2, 2, 0.5)],
        ));
        let inputs = vec![randn(3, 4, &mut r)];
        assert_grads_close(
            &inputs,
            move |t, v| {
                let y = t.spmm(csr.clone(), v[0]);
                let sq = t.mul(y, y);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn deep_composite_attention_block_grads() {
        // A miniature of the WIDEN wide-attention block (Eq. 3).
        let mut r = rng();
        let d = 4;
        let inputs = vec![
            randn(5, d, &mut r), // pack matrix M
            randn(d, d, &mut r), // W_Q
            randn(d, d, &mut r), // W_K
            randn(d, d, &mut r), // W_V
        ];
        assert_grads_close(
            &inputs,
            move |t, v| {
                let m = v[0];
                let q_all = t.matmul(m, v[1]);
                let q = t.select_rows(q_all, &[0]);
                let k = t.matmul(m, v[2]);
                let scores = t.matmul_nt(q, k);
                let scaled = t.scale(scores, 1.0 / (d as f32).sqrt());
                let att = t.softmax_rows(scaled);
                let vals = t.matmul(m, v[3]);
                let h = t.matmul(att, vals);
                let sq = t.mul(h, h);
                t.sum(sq)
            },
            4e-2,
        );
    }
}
