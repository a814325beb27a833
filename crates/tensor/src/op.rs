//! Differentiable operator definitions and their backward rules.

use std::iter::once;
use std::sync::Arc;

use crate::kernels::{axpy, axpy_gather, axpy_scatter, dot_rows, BackendKind};
use crate::pool::BufferPool;
use crate::sparse::CsrMatrix;
use crate::tape::Var;
use crate::tensor::Tensor;

/// The attention backwards flush what falls below 2⁻⁶⁴ (≈ 5.4 · 10⁻²⁰) to
/// `+0.0`, so the `axpy` sweeps skip it: `segment_attention`'s softmax
/// adjoint (and, with a mixing, the score adjoint it sums through decayed
/// weights) and `segment_weighted_sum`'s attention weights in the value
/// gradient. A converged fit's attention rows put near-zero weight on most
/// keys; those adjoints and weights, multiplied into the query, key and
/// value gradients and on through the `matmul` backwards, would produce
/// subnormals, each of which costs a microcode assist worth tens of
/// ordinary multiplies. Below 2⁻⁶⁴ the product of two such values is
/// subnormal; against a gradient of any weight that matters the term is
/// far below one ulp.
pub(crate) const ADJOINT_FLUSH: f32 = f32::from_bits((127 - 64) << 23);

/// The operator that produced a tape node.
///
/// Each variant stores the [`Var`] handles of its inputs plus any
/// non-differentiable configuration (masks, indices, constants). The set is
/// intentionally exactly the vocabulary required by WIDEN (Eq. 1–10) and the
/// eight baselines — nothing speculative.
#[derive(Clone)]
pub enum Op {
    /// Input value (constant or parameter); gradients accumulate — unless
    /// the tape flags the leaf constant — but nothing propagates further.
    Leaf,
    /// `A · B`.
    MatMul(Var, Var),
    /// `A · Bᵀ` (attention scores `Q·Kᵀ` without materialising a transpose).
    MatMulNt(Var, Var),
    /// Element-wise sum of two same-shape tensors.
    Add(Var, Var),
    /// Element-wise difference.
    Sub(Var, Var),
    /// Element-wise product — the paper's `⊙` message-packaging operator.
    Mul(Var, Var),
    /// `A + 1·b`: adds a `1 × c` row vector to every row of `A` (bias of Eq. 7).
    AddRowBroadcast(Var, Var),
    /// Scalar multiple (`1/√d` attention scaling, `1/Φ` averaging).
    Scale(Var, f32),
    /// Rectified linear unit.
    Relu(Var),
    /// Leaky ReLU with the given negative slope (GAT baseline).
    LeakyRelu(Var, f32),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Row-wise softmax of `A + Θ` where `Θ` is a constant additive mask
    /// (Eq. 4/6 — the successive-attention causal mask).
    MaskedSoftmaxRows(Var, Arc<Tensor>),
    /// Vertical stack of the operands (builds message-pack matrices).
    VStack(Vec<Var>),
    /// Horizontal concatenation (Eq. 7's `[h∘ ; h▷]`).
    HStack(Vec<Var>),
    /// Gathers the listed rows; gradient scatter-adds back.
    SelectRows(Var, Arc<[usize]>),
    /// Sum of all elements, producing `1 × 1`.
    Sum(Var),
    /// Column-wise mean over rows, producing `1 × c` (Φ-averaging of Eq. 7).
    MeanRows(Var),
    /// Row-wise L2 normalisation (Eq. 7's `h/‖h‖`).
    L2NormalizeRows(Var),
    /// Mean softmax cross-entropy against integer class labels (Eq. 10).
    SoftmaxCrossEntropy(Var, Arc<[usize]>),
    /// Element-wise maximum of two tensors (Eq. 8's relay-edge `maxpool`).
    MaxPool2(Var, Var),
    /// `S · B` for a constant sparse CSR matrix `S` (GCN-family baselines).
    Spmm(Arc<CsrMatrix>, Var),
    /// Transposed copy (GTN/HAN semantic-attention plumbing).
    Transpose(Var),
    /// `A · s` where `s` is a `1 × 1` variable — scalar gating with gradient
    /// to the scalar (GTN's soft edge-type selection, HAN's semantic
    /// attention weights).
    MulScalarVar(Var, Var),
    /// Fused ragged attention `(Q, q_rows, K, k_rows, spans, mix, scale)`
    /// (batched Eq. 3/4/5): row `i` of the padded output holds
    /// `softmax_j(scale · ⟨q[q_rows[i]], k[k_rows[start_i + j]]⟩)` over
    /// `j < len_i`, `spans[i] = (start_i, len_i)` being a range of positions
    /// into `k_rows`. Padding columns are exactly zero and carry no
    /// gradient. With a `mix` the raw scores go through it before the
    /// scaling ([`Tensor::segment_attention_through`], Eq. 5 over Eq. 4's
    /// refined rows) — an op kind of its own, `segment_attention_through`.
    SegmentAttention(
        Var,
        Arc<[usize]>,
        Var,
        Arc<[usize]>,
        Arc<[(usize, usize)]>,
        Option<Var>,
        f32,
    ),
    /// `(W, V, v_rows, spans)`: per-row weighted sum
    /// `Σ_j w_{ij} · v[v_rows[start_i + j]]` of value rows addressed by
    /// index (batched `attn · V`).
    SegmentWeightedSum(Var, Var, Arc<[usize]>, Arc<[(usize, usize)]>),
    /// Per-span mean of input rows (batched Φ-averaging of Eq. 7);
    /// zero-length spans produce zero rows.
    SegmentMeanRows(Var, Arc<[(usize, usize)]>),
    /// `(P, node_of, E, edge_rows, R)`: message packaging (Eq. 1–2) over
    /// deduplicated rows — row `u` is `P[node_of[u]] ⊙ e_u`, `e_u` being
    /// row `edge_rows[u]` of `E`, or row `edge_rows[u] − |E|` of the relay
    /// rows `R` (Eq. 8) past `E`'s end.
    PackRows(Var, Arc<[usize]>, Var, Arc<[usize]>, Option<Var>),
}

/// Number of [`Op`] kinds — the size of per-kind aggregation tables.
pub const OP_KIND_COUNT: usize = 29;

impl Op {
    /// Stable display name of this op kind (profiler tables, traces).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::MatMul(..) => "matmul",
            Op::MatMulNt(..) => "matmul_nt",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::AddRowBroadcast(..) => "add_row_broadcast",
            Op::Scale(..) => "scale",
            Op::Relu(..) => "relu",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Tanh(..) => "tanh",
            Op::SoftmaxRows(..) => "softmax_rows",
            Op::MaskedSoftmaxRows(..) => "masked_softmax_rows",
            Op::VStack(..) => "vstack",
            Op::HStack(..) => "hstack",
            Op::SelectRows(..) => "select_rows",
            Op::Sum(..) => "sum",
            Op::MeanRows(..) => "mean_rows",
            Op::L2NormalizeRows(..) => "l2_normalize_rows",
            Op::SoftmaxCrossEntropy(..) => "softmax_cross_entropy",
            Op::MaxPool2(..) => "maxpool2",
            Op::Spmm(..) => "spmm",
            Op::Transpose(..) => "transpose",
            Op::MulScalarVar(..) => "mul_scalar_var",
            Op::SegmentAttention(.., None, _) => "segment_attention",
            Op::SegmentAttention(.., Some(_), _) => "segment_attention_through",
            Op::SegmentWeightedSum(..) => "segment_weighted_sum",
            Op::SegmentMeanRows(..) => "segment_mean_rows",
            Op::PackRows(..) => "pack_rows",
        }
    }

    /// Dense index of this op kind in `0..OP_KIND_COUNT` (profiler
    /// aggregation tables).
    pub fn kind_index(&self) -> usize {
        match self {
            Op::Leaf => 0,
            Op::MatMul(..) => 1,
            Op::MatMulNt(..) => 2,
            Op::Add(..) => 3,
            Op::Sub(..) => 4,
            Op::Mul(..) => 5,
            Op::AddRowBroadcast(..) => 6,
            Op::Scale(..) => 7,
            Op::Relu(..) => 8,
            Op::LeakyRelu(..) => 9,
            Op::Tanh(..) => 10,
            Op::SoftmaxRows(..) => 11,
            Op::MaskedSoftmaxRows(..) => 12,
            Op::VStack(..) => 13,
            Op::HStack(..) => 14,
            Op::SelectRows(..) => 15,
            Op::Sum(..) => 16,
            Op::MeanRows(..) => 17,
            Op::L2NormalizeRows(..) => 18,
            Op::SoftmaxCrossEntropy(..) => 19,
            Op::MaxPool2(..) => 20,
            Op::Spmm(..) => 21,
            Op::Transpose(..) => 22,
            Op::MulScalarVar(..) => 23,
            Op::SegmentAttention(.., None, _) => 24,
            Op::SegmentAttention(.., Some(_), _) => 27,
            Op::SegmentWeightedSum(..) => 25,
            Op::SegmentMeanRows(..) => 26,
            Op::PackRows(..) => 28,
        }
    }

    /// Input variables of this op (configuration tensors excluded).
    pub fn inputs(&self) -> Vec<Var> {
        match self {
            Op::Leaf => vec![],
            Op::MatMul(a, b)
            | Op::MatMulNt(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MaxPool2(a, b) => vec![*a, *b],
            Op::Scale(a, _)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Tanh(a)
            | Op::SoftmaxRows(a)
            | Op::MaskedSoftmaxRows(a, _)
            | Op::SelectRows(a, _)
            | Op::Sum(a)
            | Op::MeanRows(a)
            | Op::L2NormalizeRows(a)
            | Op::SoftmaxCrossEntropy(a, _)
            | Op::Spmm(_, a)
            | Op::Transpose(a)
            | Op::SegmentMeanRows(a, _) => vec![*a],
            Op::MulScalarVar(a, s) => vec![*a, *s],
            Op::SegmentAttention(q, _, k, _, _, mix, _) => {
                [*q, *k].into_iter().chain(*mix).collect()
            }
            Op::SegmentWeightedSum(a, b, ..) => vec![*a, *b],
            Op::PackRows(p, _, e, _, relays) => [*p, *e].into_iter().chain(*relays).collect(),
            Op::VStack(parts) | Op::HStack(parts) => parts.clone(),
        }
    }
}

/// Returns a mutable reference to `var`'s gradient slot, seeding it with a
/// zeroed pool buffer on first touch.
///
/// Every backward rule accumulates (`+=`) straight into this slot instead
/// of allocating a per-op delta tensor and adding it in a second sweep.
/// When an op's two inputs alias the same [`Var`] the rules below touch
/// the slot in two sequential borrows, so both contributions accumulate
/// into the one slot, the first input's before the second's. The shape
/// check holds in release builds: the ragged adjoints write slot rows
/// unchecked.
fn grad_slot<'a>(
    grads: &'a mut [Option<Tensor>],
    pool: &mut BufferPool,
    var: Var,
    rows: usize,
    cols: usize,
) -> &'a mut Tensor {
    let slot = &mut grads[var.index()];
    if slot.is_none() {
        *slot = Some(pool.take_zeroed(rows, cols));
    }
    let g = slot.as_mut().expect("grad slot just seeded");
    assert_eq!(g.shape(), (rows, cols), "grad slot shape mismatch");
    g
}

/// Both gradient slots of a two-input rule that sweeps them together,
/// each seeded as by [`grad_slot`]. When the inputs alias the same [`Var`]
/// there is one slot: the second is `None`, and the rule accumulates both
/// contributions into the first.
fn grad_slot_pair<'a>(
    grads: &'a mut [Option<Tensor>],
    pool: &mut BufferPool,
    (a, a_shape): (Var, (usize, usize)),
    (b, b_shape): (Var, (usize, usize)),
) -> (&'a mut Tensor, Option<&'a mut Tensor>) {
    grad_slot(grads, pool, a, a_shape.0, a_shape.1);
    grad_slot(grads, pool, b, b_shape.0, b_shape.1);
    let (ia, ib) = (a.index(), b.index());
    if ia == ib {
        return (grads[ia].as_mut().expect("grad slot just seeded"), None);
    }
    let (lo, hi) = grads.split_at_mut(ia.max(ib));
    let earlier = lo[ia.min(ib)].as_mut().expect("grad slot just seeded");
    let later = hi[0].as_mut().expect("grad slot just seeded");
    if ia < ib {
        (earlier, Some(later))
    } else {
        (later, Some(earlier))
    }
}

/// Propagates `grad_out` (gradient w.r.t. this node's output) to the inputs.
///
/// `values[i]` is the forward value of tape node `i`; `out_value` is this
/// node's own forward value (several rules reuse it — softmax, tanh, L2).
/// Gradient buffers and scratch tensors are drawn from `pool`; dense GEMM
/// rules dispatch through the tape's selected kernel `backend`.
///
/// `constant[i]` flags node `i` as a constant leaf, which has no gradient:
/// the GEMM, stack and gather rules skip such an operand outright; what any
/// other rule accumulates for one, the tape discards.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward_step(
    op: &Op,
    out_value: &Tensor,
    grad_out: &Tensor,
    values: &[Tensor],
    constant: &[bool],
    grads: &mut [Option<Tensor>],
    pool: &mut BufferPool,
    backend: BackendKind,
) {
    match op {
        Op::Leaf => {}
        Op::MatMul(a, b) => {
            let (ra, ca) = values[a.index()].shape();
            let (rb, cb) = values[b.index()].shape();
            if !constant[a.index()] {
                let ga = grad_slot(grads, pool, *a, ra, ca);
                grad_out.matmul_nt_acc_with(&values[b.index()], ga, backend);
            }
            if !constant[b.index()] {
                let gb = grad_slot(grads, pool, *b, rb, cb);
                values[a.index()].matmul_tn_acc_with(grad_out, gb, backend);
            }
        }
        Op::MatMulNt(a, b) => {
            // C = A·Bᵀ ⇒ dA = G·B, dB = Gᵀ·A.
            let (ra, ca) = values[a.index()].shape();
            let (rb, cb) = values[b.index()].shape();
            if !constant[a.index()] {
                let ga = grad_slot(grads, pool, *a, ra, ca);
                grad_out.matmul_acc_with(&values[b.index()], ga, backend);
            }
            if !constant[b.index()] {
                let gb = grad_slot(grads, pool, *b, rb, cb);
                grad_out.matmul_tn_acc_with(&values[a.index()], gb, backend);
            }
        }
        Op::Add(a, b) => {
            let (r, c) = grad_out.shape();
            grad_slot(grads, pool, *a, r, c).add_scaled(1.0, grad_out);
            grad_slot(grads, pool, *b, r, c).add_scaled(1.0, grad_out);
        }
        Op::Sub(a, b) => {
            let (r, c) = grad_out.shape();
            grad_slot(grads, pool, *a, r, c).add_scaled(1.0, grad_out);
            grad_slot(grads, pool, *b, r, c).add_scaled(-1.0, grad_out);
        }
        Op::Mul(a, b) => {
            let (r, c) = grad_out.shape();
            let ga = grad_slot(grads, pool, *a, r, c);
            for ((o, &g), &v) in ga
                .as_mut_slice()
                .iter_mut()
                .zip(grad_out.as_slice())
                .zip(values[b.index()].as_slice())
            {
                *o += g * v;
            }
            let gb = grad_slot(grads, pool, *b, r, c);
            for ((o, &g), &v) in gb
                .as_mut_slice()
                .iter_mut()
                .zip(grad_out.as_slice())
                .zip(values[a.index()].as_slice())
            {
                *o += g * v;
            }
        }
        Op::AddRowBroadcast(a, b) => {
            let (r, c) = grad_out.shape();
            grad_slot(grads, pool, *a, r, c).add_scaled(1.0, grad_out);
            let gb = grad_slot(grads, pool, *b, 1, c);
            for row in 0..r {
                let g = grad_out.row(row);
                let dst = gb.row_mut(0);
                for i in 0..c {
                    dst[i] += g[i];
                }
            }
        }
        Op::Scale(a, alpha) => {
            let (r, c) = grad_out.shape();
            grad_slot(grads, pool, *a, r, c).add_scaled(*alpha, grad_out);
        }
        Op::Relu(a) => {
            let (r, c) = grad_out.shape();
            let ga = grad_slot(grads, pool, *a, r, c);
            for ((o, &g), &y) in ga
                .as_mut_slice()
                .iter_mut()
                .zip(grad_out.as_slice())
                .zip(out_value.as_slice())
            {
                if y > 0.0 {
                    *o += g;
                }
            }
        }
        Op::LeakyRelu(a, slope) => {
            let (r, c) = grad_out.shape();
            let ga = grad_slot(grads, pool, *a, r, c);
            for ((o, &g), &x) in ga
                .as_mut_slice()
                .iter_mut()
                .zip(grad_out.as_slice())
                .zip(values[a.index()].as_slice())
            {
                *o += if x > 0.0 { g } else { g * slope };
            }
        }
        Op::Tanh(a) => {
            let (r, c) = grad_out.shape();
            let ga = grad_slot(grads, pool, *a, r, c);
            for ((o, &g), &y) in ga
                .as_mut_slice()
                .iter_mut()
                .zip(grad_out.as_slice())
                .zip(out_value.as_slice())
            {
                *o += g * (1.0 - y * y);
            }
        }
        Op::SoftmaxRows(a) | Op::MaskedSoftmaxRows(a, _) => {
            // dx = s ⊙ (g − ⟨g, s⟩) per row; additive masks are constant.
            let (rows, cols) = grad_out.shape();
            let ga = grad_slot(grads, pool, *a, rows, cols);
            for r in 0..rows {
                let s = out_value.row(r);
                let g = grad_out.row(r);
                let inner: f32 = s.iter().zip(g).map(|(&si, &gi)| si * gi).sum();
                let dr = ga.row_mut(r);
                for i in 0..s.len() {
                    dr[i] += s[i] * (g[i] - inner);
                }
            }
        }
        Op::VStack(parts) => {
            let mut row = 0;
            for p in parts {
                let (part_rows, cols) = values[p.index()].shape();
                if !constant[p.index()] {
                    let gp = grad_slot(grads, pool, *p, part_rows, cols);
                    for r in 0..part_rows {
                        let src = grad_out.row(row + r);
                        let dst = gp.row_mut(r);
                        for c in 0..cols {
                            dst[c] += src[c];
                        }
                    }
                }
                row += part_rows;
            }
        }
        Op::HStack(parts) => {
            let rows = grad_out.rows();
            let mut col = 0;
            for p in parts {
                let part_cols = values[p.index()].cols();
                if !constant[p.index()] {
                    let gp = grad_slot(grads, pool, *p, rows, part_cols);
                    for r in 0..rows {
                        let src = &grad_out.row(r)[col..col + part_cols];
                        let dst = gp.row_mut(r);
                        for c in 0..part_cols {
                            dst[c] += src[c];
                        }
                    }
                }
                col += part_cols;
            }
        }
        Op::SelectRows(a, indices) => {
            if !constant[a.index()] {
                let (rows, cols) = values[a.index()].shape();
                let ga = grad_slot(grads, pool, *a, rows, cols);
                for (i, &idx) in indices.iter().enumerate() {
                    // SAFETY: the forward checked every index against `a`.
                    unsafe { axpy_scatter(grad_out.row(i), once((idx, 1.0)), ga.as_mut_slice()) };
                }
            }
        }
        Op::Sum(a) => {
            let g = grad_out.get(0, 0);
            let (rows, cols) = values[a.index()].shape();
            let ga = grad_slot(grads, pool, *a, rows, cols);
            for o in ga.as_mut_slice() {
                *o += g;
            }
        }
        Op::MeanRows(a) => {
            let (rows, cols) = values[a.index()].shape();
            let scale = 1.0 / rows as f32;
            let ga = grad_slot(grads, pool, *a, rows, cols);
            let g = grad_out.row(0);
            for r in 0..rows {
                let dr = ga.row_mut(r);
                for c in 0..cols {
                    dr[c] += g[c] * scale;
                }
            }
        }
        Op::L2NormalizeRows(a) => {
            // y = x/‖x‖ ⇒ dx = (g − ⟨g, y⟩·y)/‖x‖; zero rows get zero grad.
            let input = &values[a.index()];
            let (rows, cols) = input.shape();
            let ga = grad_slot(grads, pool, *a, rows, cols);
            for r in 0..rows {
                let x = input.row(r);
                let norm = x.iter().map(|v| v * v).sum::<f32>().sqrt();
                if norm == 0.0 {
                    continue;
                }
                let y = out_value.row(r);
                let g = grad_out.row(r);
                let inner: f32 = g.iter().zip(y).map(|(&gi, &yi)| gi * yi).sum();
                let dr = ga.row_mut(r);
                for i in 0..x.len() {
                    dr[i] += (g[i] - inner * y[i]) / norm;
                }
            }
        }
        Op::SoftmaxCrossEntropy(a, labels) => {
            let logits = &values[a.index()];
            let (rows, cols) = logits.shape();
            let g = grad_out.get(0, 0) / rows as f32;
            // Recompute probabilities into a pooled scratch buffer.
            let mut probs = pool.take(rows, cols);
            probs.as_mut_slice().copy_from_slice(logits.as_slice());
            for r in 0..rows {
                crate::tensor::softmax_inplace(probs.row_mut(r));
            }
            let ga = grad_slot(grads, pool, *a, rows, cols);
            for r in 0..rows {
                let p = probs.row(r);
                let dr = ga.row_mut(r);
                for c in 0..cols {
                    let target = if c == labels[r] { 1.0 } else { 0.0 };
                    dr[c] += (p[c] - target) * g;
                }
            }
            pool.recycle(probs);
        }
        Op::MaxPool2(a, b) => {
            // Two separable passes so both slots can borrow sequentially
            // (also when a == b: ties route the whole gradient to `a`).
            let va = &values[a.index()];
            let vb = &values[b.index()];
            let (rows, cols) = va.shape();
            let ga = grad_slot(grads, pool, *a, rows, cols);
            for ((o, &g), (&x, &y)) in ga
                .as_mut_slice()
                .iter_mut()
                .zip(grad_out.as_slice())
                .zip(va.as_slice().iter().zip(vb.as_slice()))
            {
                if x >= y {
                    *o += g;
                }
            }
            let gb = grad_slot(grads, pool, *b, vb.rows(), vb.cols());
            for ((o, &g), (&x, &y)) in gb
                .as_mut_slice()
                .iter_mut()
                .zip(grad_out.as_slice())
                .zip(va.as_slice().iter().zip(vb.as_slice()))
            {
                if x < y {
                    *o += g;
                }
            }
        }
        Op::Spmm(csr, b) => {
            // C = S·B ⇒ dB = Sᵀ·G.
            let (rb, cb) = values[b.index()].shape();
            let gb = grad_slot(grads, pool, *b, rb, cb);
            csr.spmm_transposed_acc(grad_out, gb);
        }
        Op::Transpose(a) => {
            let (rows, cols) = values[a.index()].shape();
            let ga = grad_slot(grads, pool, *a, rows, cols);
            for r in 0..rows {
                let dr = ga.row_mut(r);
                for (c, o) in dr.iter_mut().enumerate() {
                    *o += grad_out.get(c, r);
                }
            }
        }
        Op::SegmentAttention(q, q_rows, k, k_rows, spans, mix, scale) => {
            // a = softmax(t), t_j = scale · Σ_{j′ ≥ j} A[j][j′−j] · s_j′ (A = I
            // without a mixing), s_j = ⟨q_i, k_j⟩ ⇒ dt_j = scale · a_j (g_j −
            // ⟨a, g⟩), dA[j][j′−j] = dt_j · s_j′, ds_j′ = Σ_{j ≤ j′} A[j][j′−j] ·
            // dt_j, then dq_i += ds_j · k_j, dk_j += ds_j · q_i, with |dt_j| and
            // |ds_j| < ADJOINT_FLUSH taken as +0.0 and skipped. One sweep from
            // the stored output alone (a mixing's raw scores are recomputed,
            // one dot per position), straight into the unique-row gradients;
            // padding (a = 0) contributes nothing.
            let (vq, vk) = (&values[q.index()], &values[k.index()]);
            // The mixing's slot leaves the table while q's and k's are held.
            let mut mix = mix.map(|m| {
                let vm = &values[m.index()];
                grad_slot(grads, pool, m, vm.rows(), vm.cols());
                let gm = grads[m.index()].take().expect("grad slot just seeded");
                (m, vm, gm)
            });
            // A span's raw scores `s`, then their gradient `ds`.
            let width = out_value.cols();
            let mut scratch = pool.take(2, width);
            let (gq, mut gk) = grad_slot_pair(grads, pool, (*q, vq.shape()), (*k, vk.shape()));
            for (i, &(start, len)) in spans.iter().enumerate() {
                let a = &out_value.row(i)[..len];
                let g = &grad_out.row(i)[..len];
                let inner: f32 = a.iter().zip(g).map(|(&ai, &gi)| ai * gi).sum();
                let dt = |j: usize| {
                    let t = scale * (a[j] * (g[j] - inner));
                    if t.abs() < ADJOINT_FLUSH {
                        0.0
                    } else {
                        t
                    }
                };
                let qi = q_rows[i];
                let q_row = vq.row(qi);
                let keys = &k_rows[start..start + len];
                let (s, ds) = scratch.as_mut_slice().split_at_mut(width);
                let (s, ds) = (&mut s[..len], &mut ds[..len]);
                if let Some((_, vm, gm)) = &mut mix {
                    // SAFETY: the forward checked every index against `vk`.
                    unsafe { dot_rows(q_row, vk.as_slice(), keys, s) };
                    ds.fill(0.0);
                    for j in 0..len {
                        let t = dt(j);
                        if t != 0.0 {
                            axpy(t, &s[j..], &mut gm.row_mut(start + j)[..len - j]);
                            axpy(t, &vm.row(start + j)[..len - j], &mut ds[j..]);
                        }
                    }
                    // A decayed mixing weight scales an adjoint below the
                    // threshold too.
                    for o in ds.iter_mut().filter(|o| o.abs() < ADJOINT_FLUSH) {
                        *o = 0.0;
                    }
                } else {
                    for (j, o) in ds.iter_mut().enumerate() {
                        *o = dt(j);
                    }
                }
                let terms = keys.iter().copied().zip(ds.iter().copied());
                // SAFETY: the forward checked every index against these
                // values' rows, whose shapes the gradient slots share.
                unsafe {
                    match gk.as_deref_mut() {
                        Some(gk) => {
                            axpy_gather(vk.as_slice(), terms.clone(), gq.row_mut(qi));
                            axpy_scatter(q_row, terms, gk.as_mut_slice());
                        }
                        // `q ≡ k`: one slot takes both adjoints and a key row
                        // may be the query row — keep the per-key order.
                        None => {
                            for (kj, t) in terms {
                                axpy_scatter(vk.row(kj), once((qi, t)), gq.as_mut_slice());
                                axpy_scatter(q_row, once((kj, t)), gq.as_mut_slice());
                            }
                        }
                    }
                }
            }
            pool.recycle(scratch);
            if let Some((m, _, gm)) = mix {
                grads[m.index()] = Some(gm);
            }
        }
        Op::SegmentWeightedSum(w, v, v_rows, spans) => {
            // out_i = Σ_j w[i][j]·v_j ⇒ dw[i][j] = ⟨g_i, v_j⟩, dv_j += w[i][j]·g_i,
            // one sweep.
            let (vw, vv) = (&values[w.index()], &values[v.index()]);
            let mut scratch = pool.take(1, vw.cols());
            let (gw, mut gv) = grad_slot_pair(grads, pool, (*w, vw.shape()), (*v, vv.shape()));
            for (i, &(start, len)) in spans.iter().enumerate() {
                let (g, rows) = (grad_out.row(i), &v_rows[start..start + len]);
                let dots = &mut scratch.as_mut_slice()[..len];
                // A weight below ADJOINT_FLUSH is skipped like a zero one.
                let flushed = |&w: &f32| if w.abs() < ADJOINT_FLUSH { 0.0 } else { w };
                let terms = rows
                    .iter()
                    .copied()
                    .zip(vw.row(i)[..len].iter().map(flushed));
                // SAFETY: the forward checked every index against these
                // values' rows, whose shapes the gradient slots share.
                unsafe {
                    dot_rows(g, vv.as_slice(), rows, dots);
                    match gv.as_deref_mut() {
                        Some(gv) => {
                            for (o, &dot) in gw.row_mut(i).iter_mut().zip(&*dots) {
                                *o += dot;
                            }
                            axpy_scatter(g, terms, gv.as_mut_slice());
                        }
                        // `w ≡ v`: one slot takes `dw` and `dv` — keep the
                        // per-key order.
                        None => {
                            for (j, term) in terms.enumerate() {
                                gw.row_mut(i)[j] += dots[j];
                                axpy_scatter(g, once(term), gw.as_mut_slice());
                            }
                        }
                    }
                }
            }
            pool.recycle(scratch);
        }
        Op::SegmentMeanRows(a, spans) => {
            let (rows, cols) = values[a.index()].shape();
            let ga = grad_slot(grads, pool, *a, rows, cols);
            for (i, &(start, len)) in spans.iter().enumerate() {
                if len == 0 {
                    continue;
                }
                let terms = (start..start + len).map(|r| (r, 1.0 / len as f32));
                // SAFETY: the forward checked the span against these rows.
                unsafe { axpy_scatter(grad_out.row(i), terms, ga.as_mut_slice()) };
            }
        }
        Op::PackRows(p, node_of, e, edge_rows, relays) => {
            // out_u = p[node_of[u]] ⊙ e_u ⇒ dp[node_of[u]] += g_u ⊙ e_u and
            // de_u += g_u ⊙ p[node_of[u]], each in `u` order: what `mul`
            // then the gathers' scatters sum, term for term. A relay edge
            // row's term goes to the relay rows, unless they are constant.
            let (vp, ve) = (&values[p.index()], &values[e.index()]);
            let vocab = ve.rows();
            let relay = |edge: usize| edge.checked_sub(vocab).zip(*relays);
            let edge_value = |edge: usize| match relay(edge) {
                Some((j, r)) => values[r.index()].row(j),
                None => ve.row(edge),
            };
            let pairs = || node_of.iter().zip(edge_rows.iter()).enumerate();
            let acc = |o: &mut [f32], g: &[f32], x: &[f32]| {
                for ((o, &g), &x) in o.iter_mut().zip(g).zip(x) {
                    *o += g * x;
                }
            };
            if !constant[p.index()] {
                let gp = grad_slot(grads, pool, *p, vp.rows(), vp.cols());
                for (u, (&node, &edge)) in pairs() {
                    acc(gp.row_mut(node), grad_out.row(u), edge_value(edge));
                }
            }
            if !constant[e.index()] {
                let ge = grad_slot(grads, pool, *e, vocab, ve.cols());
                for (u, (&node, &edge)) in pairs().filter(|(_, (_, &edge))| edge < vocab) {
                    acc(ge.row_mut(edge), grad_out.row(u), vp.row(node));
                }
            }
            if let Some(r) = relays.filter(|r| !constant[r.index()]) {
                let vr = &values[r.index()];
                let gr = grad_slot(grads, pool, r, vr.rows(), vr.cols());
                for (u, (&node, &edge)) in pairs() {
                    if let Some((j, _)) = relay(edge) {
                        acc(gr.row_mut(j), grad_out.row(u), vp.row(node));
                    }
                }
            }
        }
        Op::MulScalarVar(a, s) => {
            let scalar = values[s.index()].get(0, 0);
            let (r, c) = grad_out.shape();
            grad_slot(grads, pool, *a, r, c).add_scaled(scalar, grad_out);
            let ds_val: f32 = grad_out
                .as_slice()
                .iter()
                .zip(values[a.index()].as_slice())
                .map(|(&g, &v)| g * v)
                .sum();
            let gs = grad_slot(grads, pool, *s, 1, 1);
            gs.as_mut_slice()[0] += ds_val;
        }
    }
}
