//! Reverse-mode autograd tape.

use std::sync::Arc;
use std::time::Instant;

use crate::kernels::{axpy, exp, BackendKind};
use crate::op::{backward_step, Op};
use crate::pool::{BufferPool, PoolStats};
use crate::profile::{ProfileReport, TapeProfiler};
use crate::sparse::CsrMatrix;
use crate::tensor::{padded_width, Tensor};

/// Handle to a node on a [`Tape`].
///
/// `Var`s are only meaningful for the tape that issued them; mixing handles
/// across tapes is a logic error caught by shape asserts at best.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Var(u32);

impl Var {
    /// Index of the node on its tape.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single-use computation record.
///
/// Typical training-step usage: create a tape, insert the current parameter
/// values as leaves, build the forward computation through the op methods,
/// call [`Tape::backward`] on the scalar loss, read gradients back with
/// [`Tape::grad`], then drop the tape.
///
/// Ops, values and gradients live in parallel arrays so the backward sweep
/// can read values while writing gradients without cloning.
///
/// A leaf is either an input gradients are wanted for ([`Tape::leaf`],
/// [`Tape::leaf_copy`], [`Tape::leaf_with`]) or a **constant**
/// ([`Tape::constant_with`] — raw features, relay vectors, a disabled
/// branch's zeros). A constant has no gradient: the backward rules that
/// would spend a GEMM or a scatter on one skip it, and [`Tape::grad`] of a
/// constant is always `None`.
///
/// An optional per-op profiler ([`Tape::enable_profiling`]) times every
/// forward and backward op; when off (the default) the only cost is one
/// null check per recorded op — no clock reads, no allocation.
///
/// Every tensor the tape creates — forward values, leaf copies
/// ([`Tape::leaf_copy`], [`Tape::leaf_with`]) and gradients — is drawn
/// from a capacity-keyed [`BufferPool`] (enabled by default) and handed
/// back when the tape ends: [`Tape::reset`] and [`Tape::take_pool`]
/// return every buffer, and a tape dropped with its pool frees both. Move
/// the pool between the short-lived per-step tapes with
/// [`Tape::take_pool`] / [`Tape::install_pool`] to carry the warm buffers
/// across steps: a step whose shapes fit the previous step's buffers
/// allocates nothing, one whose shapes moved (a differently sampled batch,
/// a pruned epoch) allocates only what no parked buffer fits.
///
/// Every dense matmul the tape records — forward and backward — runs on
/// the tape's kernel backend ([`Tape::set_backend`]), which defaults to
/// [`BackendKind::default`]. Set it before recording ops; the profiler
/// labels a tape's whole report with one backend.
///
/// A tape can also outlive its ops: [`Tape::truncate`] drops every node
/// recorded after a *prefix* and keeps the prefix's `Var`s live, so an
/// inference state records each chunk after the same inserted weights.
#[derive(Default)]
pub struct Tape {
    ops: Vec<Op>,
    values: Vec<Tensor>,
    grads: Vec<Option<Tensor>>,
    /// Node → "is a constant leaf" ([`Tape::constant_with`]).
    constant: Vec<bool>,
    profiler: Option<Box<TapeProfiler>>,
    pool: BufferPool,
    backend: BackendKind,
}

impl Tape {
    /// An empty tape on the default kernel backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tape pinned to an explicit kernel backend.
    pub fn with_backend(backend: BackendKind) -> Self {
        Self {
            backend,
            ..Self::default()
        }
    }

    /// Switches the kernel backend used by subsequently recorded ops (and
    /// by [`Tape::backward`]). Call before building the forward pass.
    pub fn set_backend(&mut self, backend: BackendKind) {
        self.backend = backend;
    }

    /// The kernel backend this tape dispatches dense matmuls to.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Clears ops, values and gradients for reuse, handing every value and
    /// gradient buffer back to the pool. The pool (with its warm buffers
    /// and counters) and the profiler survive the reset.
    pub fn reset(&mut self) {
        self.truncate(0);
    }

    /// Drops every node from `len` on, handing its value and gradient
    /// buffers back to the pool; the first `len` nodes and their `Var`s
    /// stay as they are.
    pub fn truncate(&mut self, len: usize) {
        self.ops.truncate(len);
        self.constant.truncate(len);
        for t in self.values.drain(len.min(self.values.len())..) {
            self.pool.recycle(t);
        }
        for g in self.grads.drain(len.min(self.grads.len())..).flatten() {
            self.pool.recycle(g);
        }
    }

    /// Replaces this tape's buffer pool and returns the one it had — pair
    /// with [`Tape::take_pool`] to thread one pool through a sequence of
    /// short-lived tapes.
    pub fn install_pool(&mut self, pool: BufferPool) -> BufferPool {
        std::mem::replace(&mut self.pool, pool)
    }

    /// Ends the tape ([`Tape::reset`]: every [`Var`] it issued is dead, so
    /// read results first) and moves the pool out with all of the tape's
    /// buffers in it; an empty enabled pool takes its place.
    pub fn take_pool(&mut self) -> BufferPool {
        self.reset();
        std::mem::take(&mut self.pool)
    }

    /// Swaps in a pool that never retains buffers, pinning this tape to
    /// the alloc-per-op path (differential tests).
    pub fn disable_pool(&mut self) {
        self.pool = BufferPool::disabled();
    }

    /// Counters of the tape's buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Turns on per-op profiling for this tape (see [`Tape::take_profile`]).
    pub fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Box::default());
        }
    }

    /// Extracts the profile recorded so far, leaving profiling enabled with
    /// fresh counters. `None` if profiling was never enabled.
    pub fn take_profile(&mut self) -> Option<ProfileReport> {
        let backend = self.backend.name();
        self.profiler.as_mut().map(|p| {
            let report = p.report(backend);
            **p = TapeProfiler::default();
            report
        })
    }

    /// Clock read for the profiled path; `None` (a null check, nothing
    /// else) when profiling is off.
    #[inline]
    fn prof_start(&self) -> Option<Instant> {
        if self.profiler.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        debug_assert!(value.all_finite(), "non-finite forward value");
        let id = Var(self.ops.len() as u32);
        self.ops.push(op);
        self.values.push(value);
        self.constant.push(false);
        id
    }

    /// [`Tape::push`] plus forward-time accounting against `t0` (the
    /// [`Tape::prof_start`] taken before the op's compute).
    #[inline]
    fn push_prof(&mut self, op: Op, value: Tensor, t0: Option<Instant>) -> Var {
        if let Some(t0) = t0 {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(p) = self.profiler.as_mut() {
                p.record_forward(&op, &self.values, &value, nanos);
            }
        }
        self.push(op, value)
    }

    /// Records a unary element-wise op `f(a)` in a pooled buffer.
    fn map_op(&mut self, a: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let t0 = self.prof_start();
        let va = &self.values[a.index()];
        let mut value = self.pool.take(va.rows(), va.cols());
        va.map_into(&mut value, f);
        self.push_prof(op, value, t0)
    }

    /// Records a binary element-wise op `f(a, b)` in a pooled buffer.
    fn zip_op(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f32, f32) -> f32) -> Var {
        let t0 = self.prof_start();
        let va = &self.values[a.index()];
        let mut value = self.pool.take(va.rows(), va.cols());
        va.zip_map_into(&self.values[b.index()], &mut value, f);
        self.push_prof(op, value, t0)
    }

    /// Inserts an input tensor (constant or parameter copy), taking
    /// ownership; its buffer joins the pool when the tape ends. Inputs the
    /// caller would have to build or clone first are cheaper through
    /// [`Tape::leaf_copy`] / [`Tape::leaf_with`], which fill a pooled
    /// buffer.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Inserts a copy of `src` held in a pooled buffer.
    pub fn leaf_copy(&mut self, src: &Tensor) -> Var {
        self.leaf_with(src.rows(), src.cols(), |t| {
            t.as_mut_slice().copy_from_slice(src.as_slice());
        })
    }

    /// Inserts a `rows × cols` input built in place in a pooled buffer.
    /// The buffer arrives with **unspecified contents**: `fill` must write
    /// every element.
    pub fn leaf_with(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Tensor)) -> Var {
        let mut value = self.pool.take(rows, cols);
        fill(&mut value);
        self.push(Op::Leaf, value)
    }

    /// Inserts a `rows × cols` **constant** built in place in a pooled
    /// buffer (`fill` must write every element, as for
    /// [`Tape::leaf_with`]): an input no gradient is wanted for. Backward
    /// never computes one — a matmul with a constant operand runs one
    /// gradient GEMM instead of two — and [`Tape::grad`] returns `None`.
    pub fn constant_with(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Tensor),
    ) -> Var {
        let var = self.leaf_with(rows, cols, fill);
        self.constant[var.index()] = true;
        var
    }

    /// Forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.index()]
    }

    /// The value of leaf `v`, to write in place — a lazily filled table in
    /// a prefix kept across [`Tape::truncate`]. No op recorded after `v`
    /// may have read it and still be on the tape.
    ///
    /// # Panics
    /// Panics if `v` is not a leaf.
    pub fn leaf_mut(&mut self, v: Var) -> &mut Tensor {
        assert!(matches!(self.ops[v.index()], Op::Leaf), "not a leaf");
        &mut self.values[v.index()]
    }

    /// Gradient of the most recent [`Tape::backward`] target w.r.t. `v`,
    /// or `None` if the node did not participate, is a constant
    /// ([`Tape::constant_with`]) or backward has not run.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.index()).and_then(|g| g.as_ref())
    }

    /// `A · B`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let t0 = self.prof_start();
        let (va, vb) = (&self.values[a.index()], &self.values[b.index()]);
        let mut value = self.pool.take_zeroed(va.rows(), vb.cols());
        va.matmul_acc_with(vb, &mut value, self.backend);
        self.push_prof(Op::MatMul(a, b), value, t0)
    }

    /// `A · Bᵀ`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let t0 = self.prof_start();
        let (va, vb) = (&self.values[a.index()], &self.values[b.index()]);
        let mut value = self.pool.take_zeroed(va.rows(), vb.rows());
        va.matmul_nt_acc_with(vb, &mut value, self.backend);
        self.push_prof(Op::MatMulNt(a, b), value, t0)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip_op(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip_op(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Element-wise product (the paper's `⊙`).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip_op(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Adds row vector `b` (`1 × c`) to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let t0 = self.prof_start();
        let (va, vb) = (&self.values[a.index()], &self.values[b.index()]);
        assert_eq!(vb.rows(), 1, "broadcast operand must be a row vector");
        assert_eq!(va.cols(), vb.cols(), "broadcast width mismatch");
        let mut value = self.pool.take(va.rows(), va.cols());
        for r in 0..va.rows() {
            for ((o, &x), &bv) in value.row_mut(r).iter_mut().zip(va.row(r)).zip(vb.row(0)) {
                *o = x + bv;
            }
        }
        self.push_prof(Op::AddRowBroadcast(a, b), value, t0)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        self.map_op(a, Op::Scale(a, alpha), |x| x * alpha)
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        self.map_op(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Leaky ReLU.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        self.map_op(a, Op::LeakyRelu(a, slope), |x| {
            if x > 0.0 {
                x
            } else {
                x * slope
            }
        })
    }

    /// tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.map_op(a, Op::Tanh(a), f32::tanh)
    }

    /// A pooled copy of `a`'s value, for ops that then work in place.
    fn copy_of(&mut self, a: Var) -> Tensor {
        let va = &self.values[a.index()];
        let mut value = self.pool.take(va.rows(), va.cols());
        value.as_mut_slice().copy_from_slice(va.as_slice());
        value
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let t0 = self.prof_start();
        let mut value = self.copy_of(a);
        value.softmax_rows_inplace();
        self.push_prof(Op::SoftmaxRows(a), value, t0)
    }

    /// Row-wise softmax of `a + mask`, with `mask` a constant additive
    /// attention mask (entries `0` or `-∞`, Eq. 6).
    pub fn masked_softmax_rows(&mut self, a: Var, mask: Arc<Tensor>) -> Var {
        let t0 = self.prof_start();
        let va = &self.values[a.index()];
        assert_eq!(va.shape(), mask.shape(), "mask shape mismatch");
        let mut value = self.pool.take(va.rows(), va.cols());
        va.zip_map_into(&mask, &mut value, |x, m| x + m);
        value.softmax_rows_inplace();
        self.push_prof(Op::MaskedSoftmaxRows(a, mask), value, t0)
    }

    /// Vertical stack.
    pub fn vstack(&mut self, parts: &[Var]) -> Var {
        let t0 = self.prof_start();
        assert!(!parts.is_empty(), "vstack of nothing");
        let tensors: Vec<&Tensor> = parts.iter().map(|p| &self.values[p.index()]).collect();
        let rows = tensors.iter().map(|t| t.rows()).sum();
        let mut value = self.pool.take(rows, tensors[0].cols());
        Tensor::vstack_into(&tensors, &mut value);
        self.push_prof(Op::VStack(parts.to_vec()), value, t0)
    }

    /// Horizontal concatenation.
    pub fn hstack(&mut self, parts: &[Var]) -> Var {
        let t0 = self.prof_start();
        assert!(!parts.is_empty(), "hstack of nothing");
        let tensors: Vec<&Tensor> = parts.iter().map(|p| &self.values[p.index()]).collect();
        let cols = tensors.iter().map(|t| t.cols()).sum();
        let mut value = self.pool.take(tensors[0].rows(), cols);
        Tensor::hstack_into(&tensors, &mut value);
        self.push_prof(Op::HStack(parts.to_vec()), value, t0)
    }

    /// Gathers rows `indices` of `a` (duplicates allowed — the batched
    /// embedding lookup); the gradient scatter-adds back into the source
    /// rows.
    pub fn select_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let t0 = self.prof_start();
        let va = &self.values[a.index()];
        let mut value = self.pool.take(indices.len(), va.cols());
        va.select_rows_into(indices, &mut value);
        self.push_prof(Op::SelectRows(a, Arc::from(indices)), value, t0)
    }

    /// Message packaging (Eq. 1–2) over deduplicated rows: output row `u`
    /// is `projected[node_of[u]] ⊙ e_u`, where `e_u` is row
    /// `edge_rows[u]` of `g_edge` or, for an edge row `vocab + j` past
    /// `g_edge`'s `vocab` rows, row `j` of `relays` (Eq. 8 overrides).
    /// Bitwise the `select_rows` / `select_rows` / `mul` composition over
    /// `g_edge` stacked on `relays`, values and gradients alike, but
    /// neither gathered operand, nor the stack, nor their gradients is
    /// ever held: the backward adds `g_u ⊙ e_u` into `projected`'s
    /// gradient and `g_u ⊙ v_u` into `g_edge`'s (or `relays`'), in `u`
    /// order.
    pub fn pack_rows(
        &mut self,
        projected: Var,
        node_of: &[usize],
        g_edge: Var,
        edge_rows: &[usize],
        relays: Option<Var>,
    ) -> Var {
        let t0 = self.prof_start();
        assert_eq!(node_of.len(), edge_rows.len(), "one edge row per pack row");
        let (vp, ve) = (
            &self.values[projected.index()],
            &self.values[g_edge.index()],
        );
        let vr = relays.map(|r| &self.values[r.index()]);
        let (vocab, cols) = ve.shape();
        assert_eq!(vp.cols(), cols, "pack width mismatch");
        let relay_rows = vr.map_or(0, |vr| {
            assert_eq!(vr.cols(), cols, "relay width mismatch");
            vr.rows()
        });
        let mut value = self.pool.take(node_of.len(), cols);
        for (u, (&node, &edge)) in node_of.iter().zip(edge_rows).enumerate() {
            assert!(node < vp.rows(), "pack row {u} reads node row {node}");
            assert!(
                edge < vocab + relay_rows,
                "pack row {u} reads edge row {edge}"
            );
            let e = match (edge.checked_sub(vocab), vr) {
                (Some(j), Some(vr)) => vr.row(j),
                _ => ve.row(edge),
            };
            for ((o, &x), &y) in value.row_mut(u).iter_mut().zip(vp.row(node)).zip(e) {
                *o = x * y;
            }
        }
        let op = Op::PackRows(
            projected,
            Arc::from(node_of),
            g_edge,
            Arc::from(edge_rows),
            relays,
        );
        self.push_prof(op, value, t0)
    }

    /// Fused ragged attention ([`Tensor::segment_attention`]) with operands
    /// addressed by row index: output row `i` is
    /// `softmax_j(scale · ⟨q[q_rows[i]], k[k_rows[start + j]]⟩)` over the
    /// positions `(start, len) = spans[i]` of `k_rows`, padded with exact
    /// zeros that receive no gradient. `q` and `k` hold each distinct row
    /// once — nothing is gathered, and the gradient accumulates straight
    /// into those rows. Spans may overlap (the causal suffix layout of
    /// Eq. 4 relies on this), indices may repeat, and `q` and `k` may be
    /// the same variable.
    pub fn segment_attention(
        &mut self,
        q: Var,
        q_rows: Arc<[usize]>,
        k: Var,
        k_rows: Arc<[usize]>,
        spans: Arc<[(usize, usize)]>,
        scale: f32,
    ) -> Var {
        self.push_segment_attention(q, q_rows, k, k_rows, spans, None, scale)
    }

    /// [`Tape::segment_attention`] over keys that are themselves ragged
    /// mixtures `Σ_j′ mix[start + j][j′ − j] · k_j′` of the `k` rows,
    /// without forming them ([`Tensor::segment_attention_through`]): `mix`
    /// — one row per position of `k_rows`, a causal-suffix
    /// [`Tape::segment_attention`] over them — weighs each span's raw scores
    /// instead (Eq. 5 over Eq. 4's refined rows). Gradients reach `q`, `k`
    /// and `mix`.
    #[allow(clippy::too_many_arguments)]
    pub fn segment_attention_through(
        &mut self,
        q: Var,
        q_rows: Arc<[usize]>,
        k: Var,
        k_rows: Arc<[usize]>,
        spans: Arc<[(usize, usize)]>,
        mix: Var,
        scale: f32,
    ) -> Var {
        assert!(mix != q && mix != k, "the mixing is a variable of its own");
        self.push_segment_attention(q, q_rows, k, k_rows, spans, Some(mix), scale)
    }

    /// Records [`Op::SegmentAttention`], with or without a mixing.
    #[allow(clippy::too_many_arguments)]
    fn push_segment_attention(
        &mut self,
        q: Var,
        q_rows: Arc<[usize]>,
        k: Var,
        k_rows: Arc<[usize]>,
        spans: Arc<[(usize, usize)]>,
        mix: Option<Var>,
        scale: f32,
    ) -> Var {
        let t0 = self.prof_start();
        let (vq, vk) = (&self.values[q.index()], &self.values[k.index()]);
        let vm = mix.map(|m| &self.values[m.index()]);
        let mut value = self.pool.take(spans.len(), padded_width(&spans));
        vq.segment_attention_into(&q_rows, vk, &k_rows, &spans, vm, scale, &mut value);
        let op = Op::SegmentAttention(q, q_rows, k, k_rows, spans, mix, scale);
        self.push_prof(op, value, t0)
    }

    /// Per-row weighted sum of value rows addressed by index: treating `a`
    /// as padded attention weights, computes
    /// `out_i = Σ_j a[i][j] · v[v_rows[start_i + j]]` (the batched
    /// `attn · V` reduction), `spans[i]` being a range of positions into
    /// `v_rows`.
    pub fn segment_weighted_sum(
        &mut self,
        a: Var,
        v: Var,
        v_rows: Arc<[usize]>,
        spans: Arc<[(usize, usize)]>,
    ) -> Var {
        let t0 = self.prof_start();
        let (va, vv) = (&self.values[a.index()], &self.values[v.index()]);
        let mut value = self.pool.take(va.rows(), vv.cols());
        va.segment_weighted_sum_into(vv, &v_rows, &spans, &mut value);
        self.push_prof(Op::SegmentWeightedSum(a, v, v_rows, spans), value, t0)
    }

    /// Per-span mean over rows of `a` (batched Φ-averaging); zero-length
    /// spans yield zero rows.
    pub fn segment_mean_rows(&mut self, a: Var, spans: Arc<[(usize, usize)]>) -> Var {
        let t0 = self.prof_start();
        let va = &self.values[a.index()];
        let mut value = self.pool.take(spans.len(), va.cols());
        va.segment_mean_rows_into(&spans, &mut value);
        self.push_prof(Op::SegmentMeanRows(a, spans), value, t0)
    }

    /// A pooled `1 × 1` tensor holding `x`.
    fn scalar(&mut self, x: f32) -> Tensor {
        let mut value = self.pool.take(1, 1);
        value.as_mut_slice()[0] = x;
        value
    }

    /// Sum of all elements (`1 × 1`).
    pub fn sum(&mut self, a: Var) -> Var {
        let t0 = self.prof_start();
        let value = self.scalar(self.value(a).sum());
        self.push_prof(Op::Sum(a), value, t0)
    }

    /// Column-wise mean over rows (`1 × c`).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let t0 = self.prof_start();
        let va = &self.values[a.index()];
        let mut value = self.pool.take_zeroed(1, va.cols());
        for r in 0..va.rows() {
            axpy(1.0, va.row(r), value.as_mut_slice());
        }
        value.scale_inplace(1.0 / va.rows() as f32);
        self.push_prof(Op::MeanRows(a), value, t0)
    }

    /// Row-wise L2 normalisation.
    pub fn l2_normalize_rows(&mut self, a: Var) -> Var {
        let t0 = self.prof_start();
        let mut value = self.copy_of(a);
        value.l2_normalize_rows_inplace();
        self.push_prof(Op::L2NormalizeRows(a), value, t0)
    }

    /// Mean softmax cross-entropy of `logits` against integer `labels`
    /// (one label per row). Returns a `1 × 1` loss.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let t0 = self.prof_start();
        let v = self.value(logits);
        assert_eq!(v.rows(), labels.len(), "one label per logits row");
        let mut total = 0.0f64;
        for (r, &label) in labels.iter().enumerate() {
            assert!(label < v.cols(), "label {label} out of range");
            let row = v.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let logsum: f32 = row.iter().map(|&x| exp(x - max)).sum::<f32>().ln() + max;
            total += f64::from(logsum - row[label]);
        }
        let value = self.scalar((total / labels.len() as f64) as f32);
        self.push_prof(
            Op::SoftmaxCrossEntropy(logits, Arc::from(labels)),
            value,
            t0,
        )
    }

    /// Element-wise maximum (Eq. 8's relay-edge maxpool).
    pub fn maxpool2(&mut self, a: Var, b: Var) -> Var {
        self.zip_op(a, b, Op::MaxPool2(a, b), f32::max)
    }

    /// `S · B` for a constant sparse matrix `S`.
    pub fn spmm(&mut self, csr: Arc<CsrMatrix>, b: Var) -> Var {
        let t0 = self.prof_start();
        let vb = &self.values[b.index()];
        let mut value = self.pool.take_zeroed(csr.rows(), vb.cols());
        csr.spmm_acc(vb, &mut value);
        self.push_prof(Op::Spmm(csr, b), value, t0)
    }

    /// Transposed copy.
    pub fn transpose(&mut self, a: Var) -> Var {
        let t0 = self.prof_start();
        let va = &self.values[a.index()];
        let mut value = self.pool.take(va.cols(), va.rows());
        va.transpose_into(&mut value);
        self.push_prof(Op::Transpose(a), value, t0)
    }

    /// `A · s` for a `1 × 1` scalar variable `s`, with gradient flowing to
    /// both operands (GTN's soft edge-type selection weights).
    pub fn mul_scalar_var(&mut self, a: Var, s: Var) -> Var {
        assert_eq!(self.value(s).shape(), (1, 1), "scalar operand must be 1×1");
        let scalar = self.value(s).get(0, 0);
        self.map_op(a, Op::MulScalarVar(a, s), |x| x * scalar)
    }

    /// Sums a non-empty list of same-shape variables.
    pub fn add_n(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "add_n of nothing");
        let mut acc = parts[0];
        for &p in &parts[1..] {
            acc = self.add(acc, p);
        }
        acc
    }

    /// Runs reverse-mode differentiation from scalar node `loss`.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward target must be scalar"
        );
        // Recycle the previous pass's buffers and reuse the slot vector: a
        // second backward over the same tape allocates nothing.
        for g in self.grads.iter_mut() {
            if let Some(t) = g.take() {
                self.pool.recycle(t);
            }
        }
        self.grads.resize_with(self.ops.len(), || None);
        self.grads[loss.index()] = Some(self.scalar(1.0));

        for idx in (0..self.ops.len()).rev() {
            let Some(grad_out) = self.grads[idx].take() else {
                continue;
            };
            if self.constant[idx] {
                // Left by a rule that does not skip constant operands.
                self.pool.recycle(grad_out);
                continue;
            }
            let t0 = self.prof_start();
            let pool_before = t0.map(|_| (self.pool.hits(), self.pool.misses()));
            backward_step(
                &self.ops[idx],
                &self.values[idx],
                &grad_out,
                &self.values,
                &self.constant,
                &mut self.grads,
                &mut self.pool,
                self.backend,
            );
            if let Some(t0) = t0 {
                let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let (h0, m0) = pool_before.unwrap_or_default();
                let pool_hits = self.pool.hits() - h0;
                let pool_allocs = self.pool.misses() - m0;
                let subnormal = grad_out.as_slice().iter().filter(|x| x.is_subnormal());
                let subnormal = subnormal.count() as u64;
                if let Some(p) = self.profiler.as_mut() {
                    p.record_backward(&self.ops[idx], nanos, pool_hits, pool_allocs, subnormal);
                }
            }
            self.grads[idx] = Some(grad_out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_through_matmul_chain() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = tape.leaf(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let c = tape.matmul(a, b);
        let loss = tape.sum(c);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[1.0; 4]);
        // dB = Aᵀ·1 = column sums of A.
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn grad_absent_for_unused_nodes() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row_vector(&[1.0]));
        let unused = tape.leaf(Tensor::row_vector(&[9.0]));
        let loss = tape.sum(a);
        tape.backward(loss);
        assert!(tape.grad(unused).is_none());
        assert!(tape.grad(a).is_some());
    }

    #[test]
    fn constants_get_no_gradient() {
        // Through a rule that skips constant operands (matmul, either
        // side; vstack; select_rows) and one that does not (mul): the
        // constant's gradient is `None` either way, the other operand's is
        // what it would be beside an ordinary leaf.
        let mut tape = Tape::new();
        tape.enable_profiling();
        let x = tape.constant_with(2, 2, |t| {
            t.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0])
        });
        let w = tape.leaf(Tensor::eye(2));
        let xw = tape.matmul(x, w);
        let wx = tape.matmul_nt(w, x);
        let stacked = tape.vstack(&[xw, x]);
        let picked = tape.select_rows(x, &[1, 1]);
        let gated = tape.mul(wx, x);
        let a = tape.sum(stacked);
        let b = tape.sum(picked);
        let c = tape.sum(gated);
        let loss = tape.add_n(&[a, b, c]);
        tape.backward(loss);
        assert!(tape.grad(x).is_none());
        // d(sum X·W)/dW = Xᵀ·1 = [4 4; 6 6]; d(sum (W·Xᵀ) ⊙ X)/dW = X·X.
        assert_eq!(
            tape.grad(w).unwrap().as_slice(),
            &[4.0 + 7.0, 4.0 + 10.0, 6.0 + 15.0, 6.0 + 22.0]
        );
        // The skipped sides took no gradient buffer: the two GEMM rules
        // seeded one slot between them (W's).
        let report = tape.take_profile().unwrap();
        let allocs = |name: &str| {
            let op = report.ops.iter().find(|o| o.name == name).unwrap();
            op.bwd_pool_hits + op.bwd_allocs
        };
        assert_eq!(allocs("matmul") + allocs("matmul_nt"), 1);
        assert_eq!(allocs("select_rows"), 0);
    }

    #[test]
    fn pack_rows_is_the_gather_multiply_composition_bitwise() {
        // `pack_rows` against `select_rows` (node rows) · `select_rows`
        // (edge rows of the table, stacked on the relay constant when
        // there is one) · `mul`: values and both gradients, bit for bit,
        // with node and edge rows repeated so every scatter accumulates.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let (nodes, vocab, d) = (6, 5, 19);
        let projected = Tensor::randn(nodes, d, 0.7, &mut rng);
        let table = Tensor::randn(vocab, d, 1.3, &mut rng);
        let relay_rows = Tensor::randn(3, d, 0.9, &mut rng);
        let upstream = Tensor::randn(10, d, 1.1, &mut rng);
        let node_of = [3, 0, 5, 3, 1, 0, 2, 3, 4, 5];
        for edge_rows in [
            [4, 1, 1, 0, 2, 3, 4, 1, 0, 2],
            [5, 1, 7, 0, 2, 6, 4, 1, 0, 2],
        ] {
            let relays = edge_rows.iter().any(|&e| e >= vocab);
            let run = |fused: bool| {
                let mut tape = Tape::new();
                let p = tape.leaf(projected.clone());
                let e = tape.leaf(table.clone());
                let r = relays.then(|| {
                    tape.constant_with(3, d, |t| {
                        t.as_mut_slice().copy_from_slice(relay_rows.as_slice())
                    })
                });
                let packs = if fused {
                    tape.pack_rows(p, &node_of, e, &edge_rows, r)
                } else {
                    let v = tape.select_rows(p, &node_of);
                    let table = match r {
                        Some(r) => tape.vstack(&[e, r]),
                        None => e,
                    };
                    let edges = tape.select_rows(table, &edge_rows);
                    tape.mul(v, edges)
                };
                let g = tape.constant_with(10, d, |t| {
                    t.as_mut_slice().copy_from_slice(upstream.as_slice())
                });
                let weighted = tape.mul(packs, g);
                let loss = tape.sum(weighted);
                tape.backward(loss);
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                [
                    tape.value(packs),
                    tape.grad(p).unwrap(),
                    tape.grad(e).unwrap(),
                ]
                .map(bits)
            };
            assert_eq!(run(true), run(false), "relays: {relays}");
        }
    }

    #[test]
    fn gradients_accumulate_across_reuse() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row_vector(&[2.0]));
        let doubled = tape.add(a, a);
        let loss = tape.sum(doubled);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn cross_entropy_value_matches_manual() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor::from_rows(&[&[0.0, 0.0], &[10.0, 0.0]]));
        let loss = tape.softmax_cross_entropy(logits, &[0, 0]);
        // Row 0: -ln(0.5); row 1: ≈ 0; mean ≈ ln(2)/2.
        let expected = 0.5 * std::f32::consts::LN_2;
        assert!((tape.value(loss).get(0, 0) - expected).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "backward target must be scalar")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(2, 2));
        tape.backward(a);
    }

    #[test]
    fn masked_softmax_blocks_future_positions() {
        let mut tape = Tape::new();
        let scores = tape.leaf(Tensor::from_rows(&[&[1.0, 5.0], &[1.0, 5.0]]));
        // Causal mask per Eq. 6: θ = 0 if row ≤ col else −∞.
        let mask = Tensor::from_rows(&[&[0.0, 0.0], &[f32::NEG_INFINITY, 0.0]]);
        let att = tape.masked_softmax_rows(scores, Arc::new(mask));
        let v = tape.value(att);
        // Row 1 can only attend to position 1.
        assert!((v.get(1, 0)).abs() < 1e-6);
        assert!((v.get(1, 1) - 1.0).abs() < 1e-6);
        // Row 0 attends to both.
        assert!(v.get(0, 0) > 0.0 && v.get(0, 1) > 0.0);
    }

    #[test]
    fn profiler_records_forward_and_backward_ops() {
        let mut tape = Tape::new();
        tape.enable_profiling();
        let a = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = tape.leaf(Tensor::eye(2));
        let c = tape.matmul(a, b);
        let r = tape.relu(c);
        let loss = tape.sum(r);
        tape.backward(loss);
        let report = tape.take_profile().expect("profiling enabled");
        let names: Vec<&str> = report.ops.iter().map(|o| o.name).collect();
        assert!(names.contains(&"matmul"));
        assert!(names.contains(&"relu"));
        assert!(names.contains(&"sum"));
        let mm = report.ops.iter().find(|o| o.name == "matmul").unwrap();
        assert_eq!(mm.count, 1);
        // (2×2)·(2×2): 2·2·2·2 = 16 FLOPs.
        assert_eq!(mm.flops, 16);
        assert_eq!(mm.lhs_rows, 2);
        assert!(mm.bwd_nanos > 0, "backward matmul must be timed");
        assert_eq!(mm.last_shape, "2×2·2×2→2×2");
        assert_eq!(mm.largest_out, (2, 2));
        // take_profile resets counters but keeps profiling on.
        let empty = tape.take_profile().unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn profiler_counts_subnormal_gradients_where_they_are_read() {
        // d loss / d a = 1e-20 · 1e-20 = 1e-40, below f32::MIN_POSITIVE:
        // both of `a`'s gradient elements are subnormal, the scaled
        // intermediate's (1e-20) are not.
        let mut tape = Tape::new();
        tape.enable_profiling();
        let a = tape.leaf(Tensor::row_vector(&[1.0, 2.0]));
        let once = tape.scale(a, 1e-20);
        let twice = tape.scale(once, 1e-20);
        let loss = tape.sum(twice);
        tape.backward(loss);
        let report = tape.take_profile().unwrap();
        let subnormal = |name| {
            let op = report.ops.iter().find(|o| o.name == name).unwrap();
            op.bwd_subnormal
        };
        assert_eq!((subnormal("leaf"), subnormal("scale")), (2, 0));
        assert!(report.render_table(4).contains("bwd_subnorm"));
    }

    #[test]
    fn segment_attention_flushes_tiny_softmax_adjoints_to_zero() {
        // Upstream gradients 1e-25 and 3e-25 give softmax adjoints of order
        // 1e-25, below 2⁻⁶⁴: flushed, so no term reaches q's or k's
        // gradient and both are `+0.0` — not merely tiny.
        let mut tape = Tape::new();
        let q = tape.leaf(Tensor::from_vec(1, 2, vec![0.5, -1.0]));
        let k = tape.leaf(Tensor::from_vec(2, 2, vec![1.0, 0.25, -0.5, 2.0]));
        let attn = tape.segment_attention(q, [0].into(), k, [0, 1].into(), [(0, 2)].into(), 1.0);
        let weights = tape.leaf(Tensor::row_vector(&[1e-25, 3e-25]));
        let weighted = tape.mul(attn, weights);
        let loss = tape.sum(weighted);
        tape.backward(loss);
        for v in [q, k] {
            for &g in tape.grad(v).expect("a gradient").as_slice() {
                assert_eq!(g.to_bits(), 0.0f32.to_bits(), "{g:e}");
            }
        }
        // Adjoints of ordinary size pass through.
        let mut tape = Tape::new();
        let q = tape.leaf(Tensor::from_vec(1, 2, vec![0.5, -1.0]));
        let k = tape.leaf(Tensor::from_vec(2, 2, vec![1.0, 0.25, -0.5, 2.0]));
        let attn = tape.segment_attention(q, [0].into(), k, [0, 1].into(), [(0, 2)].into(), 1.0);
        let weights = tape.leaf(Tensor::row_vector(&[1.0, 3.0]));
        let weighted = tape.mul(attn, weights);
        let loss = tape.sum(weighted);
        tape.backward(loss);
        assert!(tape.grad(q).unwrap().as_slice().iter().all(|&g| g != 0.0));
    }

    #[test]
    fn segment_weighted_sum_skips_weights_below_the_flush() {
        // A weight of 1e-25 (below 2⁻⁶⁴) against an upstream gradient of
        // 1e-15 would write a subnormal into `v`'s gradient: the weight is
        // skipped like a zero one, so that row stays `+0.0`, while the
        // ordinary weight's row and `w`'s own gradient pass through.
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::row_vector(&[1e-25, 0.5]));
        let v = tape.leaf(Tensor::from_vec(2, 2, vec![1.0, -2.0, 0.25, 4.0]));
        let out = tape.segment_weighted_sum(w, v, [0, 1].into(), [(0, 2)].into());
        let scale = tape.leaf(Tensor::row_vector(&[1e-15, 1e-15]));
        let scaled = tape.mul(out, scale);
        let loss = tape.sum(scaled);
        tape.backward(loss);
        let gv = tape.grad(v).expect("a gradient");
        for &g in gv.row(0) {
            assert_eq!(g.to_bits(), 0.0f32.to_bits(), "{g:e}");
        }
        assert!(gv.row(1).iter().all(|&g| g != 0.0));
        assert!(tape.grad(w).unwrap().as_slice().iter().all(|&g| g != 0.0));
    }

    #[test]
    fn profiler_off_records_nothing() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::row_vector(&[1.0]));
        let loss = tape.sum(a);
        tape.backward(loss);
        assert!(tape.take_profile().is_none());
    }
}
