//! Dense row-major 2-D tensor.

use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

use crate::kernels::{
    axpy, axpy_gather, dot, dot_rows, exp_inplace, walk_attention, walk_len, BackendKind,
};

/// A dense, row-major matrix of `f32`.
///
/// All values in the WIDEN model are 2-D: node embeddings are `1 × d` row
/// vectors (the paper's convention), message-pack matrices are
/// `(|set|+1) × d`, and attention score matrices are square. Keeping the
/// representation strictly 2-D removes an entire class of broadcasting bugs.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// A `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/buffer mismatch");
        Self { data, rows, cols }
    }

    /// Builds a tensor from row slices (test-friendly constructor).
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Samples i.i.d. standard-normal entries scaled by `std`.
    pub fn randn<R: Rng + ?Sized>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| {
                let z: f32 = StandardNormal.sample(rng);
                z * std
            })
            .collect();
        Self { data, rows, cols }
    }

    /// Samples i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f32,
        hi: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable flat row-major view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the tensor, yielding its row-major backing buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Mutable flat row-major view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "row length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Appends `src` as a new last row (amortised O(cols) — backing
    /// storage grows geometrically, so streaming node ingestion does not
    /// reallocate the whole matrix per row).
    ///
    /// # Panics
    /// Panics if `src.len() != self.cols()`.
    pub fn push_row(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(src);
        self.rows += 1;
    }

    /// Matrix product `self · other` on the default backend
    /// ([`BackendKind::default`]).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_with(other, BackendKind::default())
    }

    /// Matrix product `self · other` on an explicit kernel backend.
    pub fn matmul_with(&self, other: &Tensor, backend: BackendKind) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_acc_with(other, &mut out, backend);
        out
    }

    /// Accumulating matrix product `out += self · other`: the kernel
    /// behind [`Tensor::matmul`], which lets backward passes accumulate
    /// into an existing gradient buffer instead of allocating a product and
    /// adding it in a second sweep.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_acc_with(&self, other: &Tensor, out: &mut Tensor, backend: BackendKind) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        assert_eq!(out.shape(), (m, n), "matmul_acc output shape mismatch");
        backend
            .dispatch()
            .gemm_nn_acc(m, k, n, &self.data, &other.data, &mut out.data);
    }

    /// Matrix product with transposed right operand: `self · otherᵀ`, on
    /// the default backend.
    ///
    /// This is the attention-score kernel `Q · Kᵀ`; computing it directly
    /// avoids materialising the transpose.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        self.matmul_nt_with(other, BackendKind::default())
    }

    /// [`Tensor::matmul_nt`] on an explicit kernel backend.
    pub fn matmul_nt_with(&self, other: &Tensor, backend: BackendKind) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_nt_acc_with(other, &mut out, backend);
        out
    }

    /// Accumulating product with transposed right operand:
    /// `out += self · otherᵀ` (see [`Tensor::matmul_acc_with`]).
    ///
    /// # Panics
    /// Panics on width or output-shape mismatch.
    pub fn matmul_nt_acc_with(&self, other: &Tensor, out: &mut Tensor, backend: BackendKind) {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        assert_eq!(out.shape(), (m, n), "matmul_nt_acc output shape mismatch");
        backend
            .dispatch()
            .gemm_nt_acc(m, k, n, &self.data, &other.data, &mut out.data);
    }

    /// Matrix product with transposed left operand: `selfᵀ · other`, on
    /// the default backend.
    ///
    /// This is the gradient kernel `Aᵀ · G` used throughout backward
    /// passes. Bit-identical to `self.transpose().matmul(other)` — see
    /// [`Tensor::matmul_tn_acc_with`].
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        self.matmul_tn_with(other, BackendKind::default())
    }

    /// [`Tensor::matmul_tn`] on an explicit kernel backend.
    pub fn matmul_tn_with(&self, other: &Tensor, backend: BackendKind) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_tn_acc_with(other, &mut out, backend);
        out
    }

    /// Accumulating product with transposed left operand:
    /// `out += selfᵀ · other` — the weight-gradient kernel of the backward
    /// pass, accumulating straight into the gradient buffer.
    ///
    /// Both backends add each element's terms in increasing `k` order
    /// with the same `+0.0` skip — the reference one rank-1 update at a
    /// time, the optimized backend in register tiles seeded from `out` — so
    /// results are bit-identical across backends, and to
    /// `transpose().matmul(other)` on the reference backend.
    ///
    /// # Panics
    /// Panics on row-count or output-shape mismatch.
    pub fn matmul_tn_acc_with(&self, other: &Tensor, out: &mut Tensor, backend: BackendKind) {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        assert_eq!(out.shape(), (m, n), "matmul_tn_acc output shape mismatch");
        backend
            .dispatch()
            .gemm_tn_acc(m, k, n, &self.data, &other.data, &mut out.data);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Tensor::transpose`] into `out` (`cols × rows`).
    pub(crate) fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose output shape"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.map_into(&mut out, f);
        out
    }

    /// [`Tensor::map`] into a same-shape `out`.
    pub(crate) fn map_into(&self, out: &mut Tensor, f: impl Fn(f32) -> f32) {
        assert_eq!(self.shape(), out.shape(), "map output shape");
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Element-wise combine with another same-shape tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.zip_map_into(other, &mut out, f);
        out
    }

    /// [`Tensor::zip_map`] into a same-shape `out`.
    pub(crate) fn zip_map_into(
        &self,
        other: &Tensor,
        out: &mut Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        assert_eq!(self.shape(), out.shape(), "zip_map output shape");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        axpy(alpha, &other.data, &mut self.data);
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Index of the maximum entry in row `r`.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Gathers the listed rows into a new tensor (duplicates allowed).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.cols);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Tensor::select_rows`] into `out` (`indices.len() × cols`).
    pub(crate) fn select_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        assert_eq!(
            out.shape(),
            (indices.len(), self.cols),
            "gather output shape"
        );
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "row index {idx} out of bounds");
            out.set_row(i, self.row(idx));
        }
    }

    /// Stacks tensors vertically. All operands must share a column count.
    ///
    /// # Panics
    /// Panics if `parts` is empty or column counts differ.
    pub fn vstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack of nothing");
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut out = Tensor::zeros(rows, parts[0].cols);
        Tensor::vstack_into(parts, &mut out);
        out
    }

    /// [`Tensor::vstack`] into `out` (`Σ rows × cols`).
    pub(crate) fn vstack_into(parts: &[&Tensor], out: &mut Tensor) {
        let mut offset = 0;
        for p in parts {
            assert_eq!(p.cols, out.cols, "vstack column mismatch");
            out.data[offset..offset + p.data.len()].copy_from_slice(&p.data);
            offset += p.data.len();
        }
        assert_eq!(offset, out.data.len(), "vstack output shape");
    }

    /// Concatenates tensors horizontally. All operands must share a row count.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn hstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "hstack of nothing");
        let cols = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(parts[0].rows, cols);
        Tensor::hstack_into(parts, &mut out);
        out
    }

    /// [`Tensor::hstack`] into `out` (`rows × Σ cols`).
    pub(crate) fn hstack_into(parts: &[&Tensor], out: &mut Tensor) {
        let (rows, cols) = out.shape();
        assert_eq!(
            parts.iter().map(|p| p.cols).sum::<usize>(),
            cols,
            "hstack output shape"
        );
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hstack row mismatch");
                out.data[r * cols + offset..r * cols + offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
    }

    /// Fused ragged attention: scores, scaling and per-span softmax in one
    /// pass, with queries and keys addressed **by row index**.
    ///
    /// `self` holds query rows and `keys` key rows, each stored once;
    /// `q_rows[i]` names the query row of output row `i`, and
    /// `spans[i] = (start, len)` is a range of *positions* into `k_rows`,
    /// which names the key row at each position. Output row `i` of the
    /// padded `spans.len() × L_max` result (`L_max = max len`, at least 1)
    /// is `softmax_j(scale · ⟨self[q_rows[i]], keys[k_rows[start + j]]⟩)`
    /// over `j < len`; padding columns are **exactly** `+0.0` (they hold
    /// no attention mass) and a zero-length span is an all-zero row. Spans
    /// may overlap (the causal suffix layout of Eq. 4 relies on this) and
    /// indices may repeat.
    ///
    /// Every score is the lane-split `dot` (`kernels::dot_rows`, whatever
    /// the backend), then `x * scale`, then the stabilised kernel of
    /// [`Tensor::softmax_rows`] on the valid prefix — bit-identical to the
    /// reference backend's per-segment `softmax(scale · q·Kᵀ)` on the
    /// gathered key rows. A run of spans that is one whole causal walk
    /// (Eq. 4's layout) goes through `kernels::walk_attention`, to the
    /// same bits.
    ///
    /// # Panics
    /// Panics if `q_rows.len() != spans.len()`, the widths differ, an index
    /// is out of bounds or a span overruns `k_rows`.
    pub fn segment_attention(
        &self,
        q_rows: &[usize],
        keys: &Tensor,
        k_rows: &[usize],
        spans: &[(usize, usize)],
        scale: f32,
    ) -> Tensor {
        let mut out = Tensor::zeros(spans.len(), padded_width(spans));
        self.segment_attention_into(q_rows, keys, k_rows, spans, None, scale, &mut out);
        out
    }

    /// [`Tensor::segment_attention`] whose raw scores go *through* a ragged
    /// causal mixing before the softmax. `mix` has one row per position of
    /// `k_rows`: the row of a span's `j`-th position holds, in its first
    /// `len − j` columns, the weights that position puts on itself and the
    /// later positions of the span (batched Eq. 4, computed over the suffix
    /// spans `(start + j, len − j)`). With `s_j = ⟨q, k_j⟩`, output row `i`
    /// is `softmax_j(scale · Σ_{j′ ≥ j} mix[start + j][j′ − j] · s_j′)` —
    /// the attention over the mixed *rows* `Σ_j′ mix[·][j′ − j] · k_j′`
    /// (`⟨q, Σ a·k⟩ = Σ a·⟨q, k⟩`), which are never formed. Each mixed score
    /// is one lane-split `dot` of a `mix` row prefix with the span's raw
    /// scores; everything else is as in [`Tensor::segment_attention`].
    ///
    /// # Panics
    /// As [`Tensor::segment_attention`]; also if `mix` has fewer rows than
    /// `k_rows` has positions or is narrower than the longest span.
    pub fn segment_attention_through(
        &self,
        q_rows: &[usize],
        keys: &Tensor,
        k_rows: &[usize],
        spans: &[(usize, usize)],
        mix: &Tensor,
        scale: f32,
    ) -> Tensor {
        let mut out = Tensor::zeros(spans.len(), padded_width(spans));
        self.segment_attention_into(q_rows, keys, k_rows, spans, Some(mix), scale, &mut out);
        out
    }

    /// [`Tensor::segment_attention`] (`mix` absent) or
    /// [`Tensor::segment_attention_through`] into `out`
    /// (`spans.len() × padded_width(spans)`); every element is written.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn segment_attention_into(
        &self,
        q_rows: &[usize],
        keys: &Tensor,
        k_rows: &[usize],
        spans: &[(usize, usize)],
        mix: Option<&Tensor>,
        scale: f32,
        out: &mut Tensor,
    ) {
        assert_eq!(q_rows.len(), spans.len(), "one query index per span");
        assert_eq!(self.cols, keys.cols, "query/key width mismatch");
        assert_eq!(
            out.shape(),
            (spans.len(), padded_width(spans)),
            "attention output shape"
        );
        assert_indexed_spans(q_rows, self.rows, &[]);
        assert_indexed_spans(k_rows, keys.rows, spans);
        if let Some(mix) = mix {
            assert!(mix.rows >= k_rows.len(), "one mixing row per position");
        }
        let (d, width) = (self.cols, out.cols);
        let mut i = 0;
        while i < spans.len() {
            // Eq. 4 (unmixed): a whole causal walk at a time where one opens
            // here, with the per-span path as its portable body.
            let walk = if mix.is_none() {
                walk_len(&spans[i..])
            } else {
                0
            };
            let end = i + walk.max(1);
            let whole = walk > 0 && {
                let (q, k) = (&q_rows[i..end], &k_rows[spans[i].0..][..walk]);
                let rows = &mut out.data[i * width..end * width];
                // SAFETY: every query and key index was checked above.
                unsafe { walk_attention(&self.data, q, &keys.data, k, d, scale, rows) }
            };
            if !whole {
                for i in i..end {
                    let row = out.row_mut(i);
                    // SAFETY: every key index was checked above.
                    unsafe {
                        self.span_attention(q_rows[i], keys, k_rows, spans[i], mix, scale, row)
                    };
                }
            }
            i = end;
        }
    }

    /// One span of [`Tensor::segment_attention_into`] into its output row:
    /// [`dot_rows`], the causal mixing if any, the scale, the softmax and
    /// `+0.0` padding.
    ///
    /// # Safety
    /// Every key index of the span names a row of `keys`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn span_attention(
        &self,
        q_row: usize,
        keys: &Tensor,
        k_rows: &[usize],
        (start, len): (usize, usize),
        mix: Option<&Tensor>,
        scale: f32,
        out: &mut [f32],
    ) {
        let (valid, padding) = out.split_at_mut(len);
        let k = &k_rows[start..start + len];
        dot_rows(self.row(q_row), &keys.data, k, valid);
        if let Some(mix) = mix {
            assert!(len <= mix.cols, "span length exceeds mixing width");
            // In place, front to back: position `j` reads the raw scores
            // from `j` on, which no earlier result overwrote.
            for j in 0..len {
                valid[j] = dot(&mix.row(start + j)[..len - j], &valid[j..]);
            }
        }
        for o in valid.iter_mut() {
            *o *= scale;
        }
        softmax_inplace(valid);
        padding.fill(0.0);
    }

    /// Per-row weighted sum of value rows addressed **by row index**:
    /// treating `self` as padded `B × L_max` weights, with
    /// `spans[i] = (start, len)` a range of positions into `v_rows`,
    /// computes `out[i] = Σ_j self[i][j] · values[v_rows[start + j]]`
    /// (`j < len`).
    ///
    /// Accumulates with the same `axpy` arithmetic (`kernels::axpy_gather`)
    /// and segment order as the reference backend's row-wise
    /// [`Tensor::matmul`], preserving bitwise parity with the per-segment
    /// `attn · V` products it batches.
    ///
    /// # Panics
    /// Panics on span/shape mismatches or an out-of-bounds index.
    pub fn segment_weighted_sum(
        &self,
        values: &Tensor,
        v_rows: &[usize],
        spans: &[(usize, usize)],
    ) -> Tensor {
        let mut out = Tensor::zeros(self.rows, values.cols);
        self.segment_weighted_sum_into(values, v_rows, spans, &mut out);
        out
    }

    /// [`Tensor::segment_weighted_sum`] into `out` (`rows × values.cols`);
    /// each output row is zeroed here before it accumulates.
    pub(crate) fn segment_weighted_sum_into(
        &self,
        values: &Tensor,
        v_rows: &[usize],
        spans: &[(usize, usize)],
        out: &mut Tensor,
    ) {
        assert_eq!(spans.len(), self.rows, "one span per weight row");
        assert_eq!(
            out.shape(),
            (self.rows, values.cols),
            "weighted sum output shape"
        );
        assert_indexed_spans(v_rows, values.rows, spans);
        for (i, &(start, len)) in spans.iter().enumerate() {
            assert!(len <= self.cols, "span length exceeds weight width");
            let out_row = out.row_mut(i);
            out_row.fill(0.0);
            let terms = v_rows[start..start + len].iter().copied();
            let terms = terms.zip(self.row(i)[..len].iter().copied());
            // SAFETY: every value index was checked against `values` above.
            unsafe { axpy_gather(&values.data, terms, out_row) };
        }
    }

    /// Per-segment mean of rows: `out[i] = mean(self[start_i .. start_i+len_i])`.
    /// Zero-length segments produce zero rows.
    ///
    /// Matches the accumulate-then-scale order of the tape's `mean_rows`,
    /// so a single-segment call reproduces it bit-for-bit.
    ///
    /// # Panics
    /// Panics if a span overruns the matrix.
    pub fn segment_mean_rows(&self, spans: &[(usize, usize)]) -> Tensor {
        let mut out = Tensor::zeros(spans.len(), self.cols);
        self.segment_mean_rows_into(spans, &mut out);
        out
    }

    /// [`Tensor::segment_mean_rows`] into `out` (`spans.len() × cols`);
    /// each output row is zeroed here before it accumulates.
    pub(crate) fn segment_mean_rows_into(&self, spans: &[(usize, usize)], out: &mut Tensor) {
        assert_eq!(
            out.shape(),
            (spans.len(), self.cols),
            "segment mean output shape"
        );
        for (i, &(start, len)) in spans.iter().enumerate() {
            let out_row = &mut out.data[i * self.cols..(i + 1) * self.cols];
            out_row.fill(0.0);
            if len == 0 {
                continue;
            }
            assert!(start + len <= self.rows, "span overruns matrix");
            // SAFETY: the span's rows were just checked against the matrix.
            unsafe { axpy_gather(&self.data, (start..start + len).map(|r| (r, 1.0)), out_row) };
            let inv = 1.0 / len as f32;
            for x in out_row.iter_mut() {
                *x *= inv;
            }
        }
    }

    /// Row-wise softmax (numerically stabilised).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// [`Tensor::softmax_rows`] over this tensor's own rows.
    pub(crate) fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            softmax_inplace(self.row_mut(r));
        }
    }

    /// L2-normalises every row; zero rows are left untouched.
    pub fn l2_normalize_rows(&self) -> Tensor {
        let mut out = self.clone();
        out.l2_normalize_rows_inplace();
        out
    }

    /// [`Tensor::l2_normalize_rows`] over this tensor's own rows.
    pub(crate) fn l2_normalize_rows_inplace(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                for x in row.iter_mut() {
                    *x /= norm;
                }
            }
        }
    }

    /// Maximum absolute element-wise difference against another tensor.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True if all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Width of the padded score matrix over `spans`: the longest span, at
/// least one column.
pub(crate) fn padded_width(spans: &[(usize, usize)]) -> usize {
    spans.iter().map(|&(_, len)| len).max().unwrap_or(0).max(1)
}

/// The ragged ops' one up-front bounds check, in release builds too (their
/// inner loops then address rows without further asserts): every index names
/// one of `rows` rows and every span a range of positions of `indices`.
pub(crate) fn assert_indexed_spans(indices: &[usize], rows: usize, spans: &[(usize, usize)]) {
    assert!(
        indices.iter().all(|&i| i < rows),
        "row index out of bounds ({rows} rows)"
    );
    assert!(
        spans
            .iter()
            .all(|&(start, len)| start + len <= indices.len()),
        "span overruns the index list"
    );
}

/// Numerically-stable in-place softmax over a slice.
pub(crate) fn softmax_inplace(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        // Entire row masked out; define the result as uniform to stay finite.
        let u = 1.0 / row.len() as f32;
        for x in row.iter_mut() {
            *x = u;
        }
        return;
    }
    for x in row.iter_mut() {
        *x -= max;
    }
    exp_inplace(row);
    let sum = row.iter().fold(0.0, |sum, &x| sum + x);
    for x in row.iter_mut() {
        *x /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_accessors() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.get(1, 0), 3.0);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(Tensor::eye(3).get(2, 2), 1.0);
        assert_eq!(Tensor::eye(3).get(2, 1), 0.0);
        assert_eq!(Tensor::full(2, 2, 7.0).sum(), 28.0);
    }

    #[test]
    #[should_panic(expected = "shape/buffer mismatch")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(5, 5, 1.0, &mut rng);
        let c = a.matmul(&Tensor::eye(5));
        assert!(a.max_abs_diff(&c) < 1e-6);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(3, 7, 1.0, &mut rng);
        let b = Tensor::randn(4, 7, 1.0, &mut rng);
        let direct = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        assert!(direct.max_abs_diff(&explicit) < 1e-5);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(7, 3, 1.0, &mut rng);
        let b = Tensor::randn(7, 4, 1.0, &mut rng);
        let direct = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(direct.max_abs_diff(&explicit) < 1e-5);
    }

    #[test]
    fn large_matmul_parallel_path_is_consistent() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::randn(80, 70, 0.5, &mut rng);
        let b = Tensor::randn(70, 90, 0.5, &mut rng);
        let c = a.matmul(&b);
        // Cross-check a few entries against scalar dot products.
        for &(i, j) in &[(0, 0), (17, 33), (79, 89)] {
            let expected: f32 = (0..70).map(|k| a.get(i, k) * b.get(k, j)).sum();
            assert!((c.get(i, j) - expected).abs() < 1e-3);
        }
    }

    #[test]
    fn large_matmul_tn_is_bitwise_the_explicit_transpose() {
        // `Aᵀ·B` adds each element's terms in the serial k-order, so it
        // agrees bit-for-bit with the explicit transpose.
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(70, 80, 0.5, &mut rng);
        let b = Tensor::randn(70, 90, 0.5, &mut rng);
        let explicit = a.transpose().matmul(&b);
        let direct = a.matmul_tn(&b);
        assert_eq!(direct.as_slice(), explicit.as_slice());
    }

    #[test]
    fn acc_kernels_accumulate_on_top_of_existing_values() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Tensor::randn(4, 6, 1.0, &mut rng);
        let b = Tensor::randn(6, 5, 1.0, &mut rng);
        let bt = b.transpose();

        let mut acc = Tensor::full(4, 5, 2.0);
        a.matmul_acc_with(&b, &mut acc, BackendKind::default());
        let mut expected = a.matmul(&b);
        expected.add_scaled(1.0, &Tensor::full(4, 5, 2.0));
        assert!(acc.max_abs_diff(&expected) < 1e-6);

        let mut acc_nt = Tensor::full(4, 5, -1.0);
        a.matmul_nt_acc_with(&bt, &mut acc_nt, BackendKind::default());
        let mut expected_nt = a.matmul_nt(&bt);
        expected_nt.add_scaled(1.0, &Tensor::full(4, 5, -1.0));
        assert!(acc_nt.max_abs_diff(&expected_nt) < 1e-6);

        let at = a.transpose();
        let mut acc_tn = Tensor::full(4, 5, 0.5);
        at.matmul_tn_acc_with(&b, &mut acc_tn, BackendKind::default());
        let mut expected_tn = at.matmul_tn(&b);
        expected_tn.add_scaled(1.0, &Tensor::full(4, 5, 0.5));
        assert!(acc_tn.max_abs_diff(&expected_tn) < 1e-6);
    }

    #[test]
    fn zero_skip_keeps_negative_zero_and_subnormals_exact() {
        // -0.0 and subnormal multipliers must flow through the kernels:
        // results must be bitwise equal to the explicit transpose product.
        let sub = f32::MIN_POSITIVE / 2.0;
        let a = Tensor::from_rows(&[&[-0.0, sub], &[0.0, -sub], &[1.0e30, -0.0]]);
        let b = Tensor::from_rows(&[&[1.0, -1.0], &[2.0, 0.5], &[-3.0, 4.0]]).transpose();
        let direct = a.transpose().matmul_tn(&b);
        let explicit = a.matmul(&b);
        assert_eq!(direct.as_slice(), explicit.as_slice());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 100.0]]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
        assert!(s.get(1, 2) > 0.999);
    }

    #[test]
    fn softmax_fully_masked_row_is_uniform() {
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_inplace(&mut row);
        for &x in &row {
            assert!((x - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn l2_normalize_rows_gives_unit_rows() {
        let t = Tensor::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        let n = t.l2_normalize_rows();
        assert!((n.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((n.get(0, 1) - 0.8).abs() < 1e-6);
        // Zero row untouched, no NaN.
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn select_rows_gathers_with_duplicates() {
        let t = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let g = t.select_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[3.0, 3.0, 1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn vstack_and_hstack_shapes() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let v = Tensor::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);

        let c = Tensor::from_rows(&[&[9.0]]);
        let h = Tensor::hstack(&[&a, &c]);
        assert_eq!(h.shape(), (1, 3));
        assert_eq!(h.row(0), &[1.0, 2.0, 9.0]);
    }

    #[test]
    fn argminmax_rows() {
        let t = Tensor::from_rows(&[&[0.3, 0.1, 0.6]]);
        assert_eq!(t.argmax_row(0), 2);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::randn(4, 9, 1.0, &mut rng);
        assert!(a.max_abs_diff(&a.transpose().transpose()) < 1e-9);
    }

    #[test]
    fn segment_attention_matches_per_segment_dense_attention() {
        // Wide enough (d = 32) that the lane-split dot differs from a
        // sequential one; repeated and out-of-order key indices.
        let mut rng = StdRng::seed_from_u64(6);
        let q = Tensor::randn(3, 32, 1.0, &mut rng);
        let keys = Tensor::randn(4, 32, 1.0, &mut rng);
        let (q_rows, k_rows) = ([2usize, 0], [3usize, 1, 1, 0, 2]);
        let spans = [(0usize, 2usize), (2, 3)];
        let scale = 0.25;
        let attn = q.segment_attention(&q_rows, &keys, &k_rows, &spans, scale);
        assert_eq!(attn.shape(), (2, 3));
        for (i, &(start, len)) in spans.iter().enumerate() {
            let scores: Vec<f32> = k_rows[start..start + len]
                .iter()
                .map(|&j| dot(q.row(q_rows[i]), keys.row(j)) * scale)
                .collect();
            let expect = Tensor::row_vector(&scores).softmax_rows();
            assert_eq!(&attn.row(i)[..len], expect.row(0), "row {i}");
        }
        // Row 0's padding column is +0.0 exactly — not merely small.
        assert!(attn.get(0, 2) == 0.0 && attn.get(0, 2).is_sign_positive());
    }

    #[test]
    fn segment_attention_zero_mass_on_padding_and_empty_spans() {
        let q = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let keys = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let spans = [(0usize, 2usize), (0, 3), (1, 0)];
        let s = q.segment_attention(&[0, 1, 2], &keys, &[0, 1, 2], &spans, 1.0);
        // Valid prefixes are proper distributions.
        assert!((s.row(0)[..2].iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((s.row(1).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        // Padding / empty rows are exactly +0.0.
        for &x in s.row(0)[2..].iter().chain(s.row(2)) {
            assert!(x == 0.0 && x.is_sign_positive());
        }
    }

    #[test]
    fn segment_attention_through_matches_attention_over_the_mixed_rows() {
        // Two walks of 4 and 2 positions over 3 shared rows plus an empty
        // span: scoring through the causal mixing equals forming the mixed
        // rows `Σ_j′ a_jj′ k_j′` and attending over them.
        let mut rng = StdRng::seed_from_u64(9);
        let keys = Tensor::randn(3, 5, 1.0, &mut rng);
        let q = Tensor::randn(2, 5, 1.0, &mut rng);
        let rows = [0usize, 2, 1, 2, 1, 0];
        let suffixes = [(0, 4), (1, 3), (2, 2), (3, 1), (4, 2), (5, 1)];
        let walks = [(0, 4), (4, 2), (6, 0)];
        let mix = keys.segment_attention(&rows, &keys, &rows, &suffixes, 0.4);
        let mixed = mix.segment_weighted_sum(&keys, &rows, &suffixes);
        let identity: Vec<usize> = (0..rows.len()).collect();
        let want = q.segment_attention(&[0, 1, 1], &mixed, &identity, &walks, 0.7);
        let got = q.segment_attention_through(&[0, 1, 1], &keys, &rows, &walks, &mix, 0.7);
        assert_eq!(got.shape(), (3, 4));
        assert!(got.max_abs_diff(&want) < 1e-6);
        // Padding and the empty span hold exact zeros.
        assert!(got.row(1)[2..].iter().all(|&x| x.to_bits() == 0));
        assert!(got.row(2).iter().all(|&x| x.to_bits() == 0));
    }

    #[test]
    fn segment_weighted_sum_matches_per_segment_matmul() {
        let mut rng = StdRng::seed_from_u64(7);
        let values = Tensor::randn(4, 32, 1.0, &mut rng);
        let w = Tensor::from_rows(&[&[0.25, 0.75, 0.0], &[0.2, 0.3, 0.5]]);
        let v_rows = [3usize, 1, 1, 0, 2];
        let spans = [(0usize, 2usize), (2, 3)];
        let out = w.segment_weighted_sum(&values, &v_rows, &spans);
        for (i, &(start, len)) in spans.iter().enumerate() {
            // One sequential `axpy` per term from zeros, zero weights skipped.
            let mut expect = vec![0.0f32; values.cols()];
            for (&alpha, &j) in w.row(i)[..len].iter().zip(&v_rows[start..start + len]) {
                if alpha != 0.0 {
                    axpy(alpha, values.row(j), &mut expect);
                }
            }
            assert_eq!(out.row(i), &expect[..], "row {i}");
        }
    }

    #[test]
    fn segment_mean_rows_averages_and_zeroes_empty() {
        let t = Tensor::from_rows(&[&[1.0, 3.0], &[3.0, 5.0], &[10.0, 20.0]]);
        let out = t.segment_mean_rows(&[(0, 2), (2, 1), (0, 0)]);
        assert_eq!(out.row(0), &[2.0, 4.0]);
        assert_eq!(out.row(1), &[10.0, 20.0]);
        assert_eq!(out.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn add_scaled_and_scale_inplace() {
        let mut a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[10.0, 20.0]]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.scale_inplace(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
    }
}
