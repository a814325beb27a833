//! Swappable GEMM / dot kernel backends.
//!
//! Every dense matrix product in the crate funnels through the
//! [`KernelBackend`] trait: `tensor.rs` keeps shape checks and dispatch,
//! the raw slice arithmetic lives here. Two backends exist:
//!
//! * [`Reference`] — the scalar oracle: the three GEMMs as plain loops, one
//!   `f32::mul_add` per term. The parity suites name it explicitly.
//! * [`Optimized`] — an output tile held in registers for the whole `k`
//!   sweep in all three products: `A·B` on packed panels of `B`, `A·Bᵀ` on
//!   the same panels packed from `Bᵀ` (so the two are one arithmetic), and
//!   `Aᵀ·B` on a tile seeded from `out`. Hot inner loops dispatch at
//!   runtime to AVX-512F / AVX2 + FMA intrinsics (the compile target is
//!   baseline x86-64), every body one fused multiply-add per term. `Aᵀ·B`
//!   keeps the reference element order and `+0.0` skip, so weight
//!   gradients are bit-identical across backends (NaN payloads aside);
//!   `A·B` and `A·Bᵀ` differ from [`Reference`] only by the documented
//!   tolerance contract (see `DESIGN.md`).
//!
//! The ragged attention ops (`segment_attention`, `segment_weighted_sum`,
//! `segment_mean_rows`, the row gather and their adjoints) have one
//! implementation whatever the backend, on the span kernels below — each
//! dispatched once per span or walk to SIMD bodies bitwise its portable
//! body. [`dot_rows`] scores a query against blocks of 16, 8 and 4 keys:
//! their 16-lane accumulators are transposed in registers and folded by 16
//! vertical adds from `+0.0`, each key's own [`dot`] fold.
//! [`walk_attention`] scores and soft-maxes a whole causal walk of Eq. 4 in
//! 4 × 4 tiles of the same accumulators, the walk's positions as lanes.
//! [`axpy_gather`] / [`axpy_scatter`] run each element's [`axpy`] sequence
//! with the accumulator (resp. the shared row) held in registers. An op
//! whose two operands are one variable keeps per-key order: its adjoints
//! share a gradient slot. Every softmax runs the crate's one `exp`
//! (`exp.rs`).
//!
//! The active backend is a per-[`crate::Tape`] property
//! ([`crate::Tape::set_backend`]); fresh tapes and tensors' plain `matmul*`
//! methods run [`BackendKind::default`], which is [`Optimized`].
//! [`Reference`] is the oracle the parity tests name explicitly.

mod exp;
pub(crate) mod optimized;
pub(crate) mod reference;

pub(crate) use exp::{exp, exp_inplace};

pub use optimized::Optimized;
pub use reference::Reference;

/// Lane count for [`dot`]'s split accumulators. 16 f32 lanes give the
/// autovectoriser room for two 256-bit (or four 128-bit) accumulator
/// registers, breaking the loop-carried dependency of a scalar reduction
/// — ~5× faster than the naive loop on the `matmul_nt` backward shapes.
pub(crate) const DOT_LANES: usize = 16;

/// The slice-level dense kernel vocabulary a backend must provide.
///
/// All matrices are row-major `f32` slices; shapes are passed explicitly
/// and callers guarantee `a.len() == m·k` (or `k·m` for `tn`),
/// `b.len() == k·n` (`n·k` for `nt`) and `out.len() == m·n`. Every method
/// **accumulates** into `out` so backward passes can reuse gradient
/// buffers without a second sweep.
///
/// Implementations run on the calling thread and must be deterministic for
/// a given input, whichever thread calls them (a fit and a server's batcher
/// may call concurrently), and *row-deterministic*: the value written to an
/// output row may depend only on the participating input rows and the
/// shared operand, never on which other rows happen to be in the batch.
/// The batched execution engine's dedup/gather equivalence proof relies
/// on this.
pub trait KernelBackend: Send + Sync {
    /// Stable lowercase backend name (profiler labels, env selection).
    fn name(&self) -> &'static str;

    /// `out += A·B` with `A: m×k`, `B: k×n`, `out: m×n`.
    fn gemm_nn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `out += A·Bᵀ` with `A: m×k`, `B: n×k`, `out: m×n`.
    fn gemm_nt_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `out += Aᵀ·B` with `A: k×m`, `B: k×n`, `out: m×n`.
    fn gemm_tn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// Lane-split inner product of two equal-length slices.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;
}

/// Selector for one of the built-in kernel backends.
///
/// `Copy` + 1 byte so it can be threaded through tapes, configs and wire
/// formats for free. [`BackendKind::Optimized`] is the default: what the
/// library runs. [`BackendKind::Reference`] is the oracle tests pin it to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BackendKind {
    /// Scalar oracle, bit-compatible with the historical inline kernels.
    Reference = 0,
    /// Packed, register-tiled GEMM (tolerance-bounded vs
    /// [`BackendKind::Reference`] on `A·B` and `A·Bᵀ`; bit-identical on
    /// `Aᵀ·B` and `dot`).
    #[default]
    Optimized = 1,
}

static REFERENCE: Reference = Reference;
static OPTIMIZED: Optimized = Optimized;

impl BackendKind {
    /// The backend implementation this selector names.
    #[inline]
    pub fn dispatch(self) -> &'static dyn KernelBackend {
        match self {
            BackendKind::Reference => &REFERENCE,
            BackendKind::Optimized => &OPTIMIZED,
        }
    }

    /// Stable lowercase name (matches [`KernelBackend::name`]).
    pub fn name(self) -> &'static str {
        self.dispatch().name()
    }

    /// Both backends, for parameterised tests.
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Reference, BackendKind::Optimized]
    }
}

/// Whether `a` participates in a rank-1 update.
///
/// Only an exact `+0.0` may be skipped: skipping `-0.0` would be visible if
/// an accumulator row were negatively signed (and `-0.0` must behave like
/// any other value under IEEE-754 sign rules), while subnormals carry real
/// magnitude and must flow through the dense kernel arithmetic.
#[inline]
pub(crate) fn nonzero(a: f32) -> bool {
    a.to_bits() != 0
}

/// Lane-split inner product — the shared scalar `dot` kernel: the
/// [`KernelBackend::dot`] of both backends and what [`dot_rows`] computes
/// per key. Separate multiply and add, unlike the fused GEMMs.
#[inline(always)]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; DOT_LANES];
    for (ac, bc) in a.chunks_exact(DOT_LANES).zip(b.chunks_exact(DOT_LANES)) {
        for l in 0..DOT_LANES {
            acc[l] += ac[l] * bc[l];
        }
    }
    let mut sum = 0.0f32;
    for &lane in &acc {
        sum += lane;
    }
    let tail = a.len() - a.len() % DOT_LANES;
    for (&x, &y) in a[tail..].iter().zip(&b[tail..]) {
        sum += x * y;
    }
    sum
}

/// `y += alpha · x`, the shared rank-1 update kernel.
#[inline(always)]
pub(crate) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (y, &x) in y.iter_mut().zip(x) {
        *y += alpha * x;
    }
}

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `out[j] = dot(q, keys[rows[j]])` over a span, bitwise one [`dot`] per
/// key (the portable body), dispatched once per call.
///
/// # Safety
/// Every `rows[j]` names a `q.len()`-wide row of `keys`.
#[inline]
pub(crate) unsafe fn dot_rows(q: &[f32], keys: &[f32], rows: &[usize], out: &mut [f32]) {
    assert_eq!(out.len(), rows.len(), "one output per key");
    debug_assert!(rows.iter().all(|&r| (r + 1) * q.len() <= keys.len()));
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: a body needs its probed feature and the caller's rows.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return dot_rows_avx512(q, keys, rows, out);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return dot_rows_avx2(q, keys, rows, out);
        }
    }
    dot_rows_portable(q, keys, rows, out)
}

fn dot_rows_portable(q: &[f32], keys: &[f32], rows: &[usize], out: &mut [f32]) {
    for (o, &r) in out.iter_mut().zip(rows) {
        *o = dot(q, &keys[r * q.len()..(r + 1) * q.len()]);
    }
}

/// One block of `n = min(N, rows.len())` keys, a short block repeating its
/// last row: `fold` stores each key's folded lane sum (up to 16) from its
/// row pointer, and [`dot`]'s scalar tail goes on top. Returns `n`.
#[inline(always)]
unsafe fn dot_block<const N: usize>(
    q: &[f32],
    keys: &[f32],
    rows: &[usize],
    out: &mut [f32],
    fold: impl FnOnce([*const f32; N], *mut f32),
) -> usize {
    let (d, n) = (q.len(), rows.len().min(N));
    let ptrs: [*const f32; N] = std::array::from_fn(|k| keys.as_ptr().add(rows[k.min(n - 1)] * d));
    let mut sums = [0.0; DOT_LANES];
    fold(ptrs, sums.as_mut_ptr());
    for k in 0..n {
        out[k] = (d - d % DOT_LANES..d).fold(sums[k], |sum, t| sum + q[t] * *ptrs[k].add(t));
    }
    n
}

/// [`dot_rows`] in blocks of 16, 8 and 4 keys, the last one padded.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_rows_avx512(q: &[f32], keys: &[f32], rows: &[usize], out: &mut [f32]) {
    let (qp, chunks, mut j) = (q.as_ptr(), q.len() / DOT_LANES, 0);
    while j < rows.len() {
        let (rows, out) = (&rows[j..], &mut out[j..]);
        j += match rows.len() {
            16.. => dot_block::<16>(q, keys, rows, out, |k, s| {
                fold16_avx512(&lanes_avx512(qp, k, 0, chunks), s)
            }),
            8.. => dot_block::<8>(q, keys, rows, out, |k, s| {
                fold16_avx512(&lanes_avx512(qp, k, 0, chunks), s)
            }),
            _ => dot_block::<4>(q, keys, rows, out, |k, s| {
                fold16_avx512(&lanes_avx512(qp, k, 0, chunks), s)
            }),
        };
    }
}

/// The transposed fold of 16, 8 or 4 keys' accumulators (a short block's
/// repeat to fill 16): lane `l` of every key in one vector (key `k` in
/// element `k`), then 16 vertical adds from `+0.0` — each key's
/// `((0 + l₀) + l₁) … + l₁₅`, exactly [`dot`]'s fold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn fold16_avx512(acc: &[__m512], out: *mut f32) {
    let mut w = [[_mm512_setzero_ps(); 4]; 4];
    for (g, w) in w.iter_mut().enumerate() {
        *w = quad_avx512(&acc[4 * g % acc.len()..]);
    }
    let mut lane = [_mm512_setzero_ps(); 16];
    for s in 0..4 {
        // Block `b` of the four quads, side by side, is lane `4b + s`.
        let x0 = _mm512_shuffle_f32x4::<0x44>(w[0][s], w[1][s]);
        let x1 = _mm512_shuffle_f32x4::<0xEE>(w[0][s], w[1][s]);
        let x2 = _mm512_shuffle_f32x4::<0x44>(w[2][s], w[3][s]);
        let x3 = _mm512_shuffle_f32x4::<0xEE>(w[2][s], w[3][s]);
        lane[s] = _mm512_shuffle_f32x4::<0x88>(x0, x2);
        lane[4 + s] = _mm512_shuffle_f32x4::<0xDD>(x0, x2);
        lane[8 + s] = _mm512_shuffle_f32x4::<0x88>(x1, x3);
        lane[12 + s] = _mm512_shuffle_f32x4::<0xDD>(x1, x3);
    }
    let mut sum = _mm512_setzero_ps();
    for l in lane {
        sum = _mm512_add_ps(sum, l);
    }
    _mm512_storeu_ps(out, sum);
}

/// The longest walk [`walk_attention`] takes: two 16-lane halves.
const WALK_MAX: usize = 32;

/// The length `L` of the causal walk `spans` opens with — the spans
/// `(s, L), (s + 1, L − 1), …, (s + L − 1, 1)` of Eq. 4's `row_spans`, each
/// position querying its own suffix — or 0 if it opens with none.
pub(crate) fn walk_len(spans: &[(usize, usize)]) -> usize {
    match spans.first() {
        Some(&(start, len))
            if len > 0
                && len <= spans.len()
                && (0..len).all(|r| spans[r] == (start + r, len - r)) =>
        {
            len
        }
        _ => 0,
    }
}

/// One whole causal walk's attention: output row `r` of the `L =
/// q_rows.len()` rows of `out` (each `out.len() / L` wide) is the softmax,
/// over keys `c ≥ r`, of `scale · dot(q[q_rows[r]], keys[k_rows[c]])`, then
/// `+0.0` padding — bitwise the per-span [`dot_rows`], scale and softmax it
/// stands for. Returns `false`, with `out` untouched, where that path must
/// run instead: no AVX-512F, a width not a multiple of 16, a walk longer
/// than [`WALK_MAX`] or a score that is not finite.
///
/// # Safety
/// Every `q_rows[r]` / `k_rows[c]` names a `d`-wide row of `q` / `keys`.
#[inline]
pub(crate) unsafe fn walk_attention(
    q: &[f32],
    q_rows: &[usize],
    keys: &[f32],
    k_rows: &[usize],
    d: usize,
    scale: f32,
    out: &mut [f32],
) -> bool {
    assert_eq!(q_rows.len(), k_rows.len(), "one query per position");
    assert_eq!(out.len() % q_rows.len().max(1), 0, "whole output rows");
    debug_assert!(q_rows.iter().all(|&r| (r + 1) * d <= q.len()));
    debug_assert!(k_rows.iter().all(|&r| (r + 1) * d <= keys.len()));
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the body needs its probed feature and the caller's rows.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return walk_avx512(q, q_rows, keys, k_rows, d, scale, out);
        }
    }
    false
}

/// A walk's scores, key-major: `0[c][r]` is query `r` on key `c`, so the
/// positions of one key's column are the lanes of one or two vectors.
#[cfg(target_arch = "x86_64")]
#[repr(C, align(64))]
struct WalkBlock([[f32; WALK_MAX]; WALK_MAX]);

/// [`walk_attention`]: the upper triangle in 4 × 4 tiles of [`dot`]'s
/// accumulators, then the softmax with query `r` in lane `r` — per lane the
/// max, `exp(x − max)` in key order summed from `+0.0` (lanes before their
/// diagonal add `+0.0`, which leaves the sum `+0.0`), then the division.
///
/// # Safety
/// As [`walk_attention`], on a host with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn walk_avx512(
    q: &[f32],
    q_rows: &[usize],
    keys: &[f32],
    k_rows: &[usize],
    d: usize,
    scale: f32,
    out: &mut [f32],
) -> bool {
    let n = q_rows.len();
    if n == 0 || n > WALK_MAX || !d.is_multiple_of(DOT_LANES) {
        return false;
    }
    let mut block = WalkBlock([[0.0; WALK_MAX]; WALK_MAX]);
    // A short tile repeats the walk's last query or key.
    let row = |m: &[f32], rows: &[usize], at: usize| m.as_ptr().add(rows[at.min(n - 1)] * d);
    for r0 in (0..n).step_by(4) {
        let qs = std::array::from_fn(|i| row(q, q_rows, r0 + i));
        for c0 in (r0..n).step_by(4) {
            let ks = std::array::from_fn(|k| row(keys, k_rows, c0 + k));
            let mut sums = [0.0; DOT_LANES];
            fold16_avx512(&tile_avx512(qs, ks, d / DOT_LANES), sums.as_mut_ptr());
            for (k, sums) in sums.chunks_exact(4).enumerate() {
                block.0[c0 + k][r0..r0 + 4].copy_from_slice(sums);
            }
        }
    }
    for lane0 in (0..n).step_by(16) {
        // Key `c` scores the queries `lane0 ..= c` of this half.
        let valid = |c: usize| (2u32 << (c - lane0).min(15)).wrapping_sub(1) as __mmask16;
        let column = |block: &mut WalkBlock, c: usize| block.0[c].as_mut_ptr().add(lane0);
        let mut max = _mm512_set1_ps(f32::NEG_INFINITY);
        for c in lane0..n {
            let (at, m) = (column(&mut block, c), valid(c));
            let x = _mm512_mul_ps(_mm512_load_ps(at), _mm512_set1_ps(scale));
            let finite =
                _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(x), _mm512_set1_ps(f32::INFINITY));
            if finite & m != m {
                return false;
            }
            _mm512_store_ps(at, x);
            max = _mm512_mask_max_ps(max, m, max, x);
        }
        let mut sum = _mm512_setzero_ps();
        for c in lane0..n {
            let at = column(&mut block, c);
            let e = exp::exp16_avx512(_mm512_sub_ps(_mm512_load_ps(at), max));
            let e = _mm512_maskz_mov_ps(valid(c), e);
            sum = _mm512_add_ps(sum, e);
            _mm512_store_ps(at, e);
        }
        for c in lane0..n {
            let at = column(&mut block, c);
            _mm512_store_ps(at, _mm512_div_ps(_mm512_load_ps(at), sum));
        }
    }
    for (r, row) in out.chunks_exact_mut(out.len() / n).enumerate() {
        let (valid, padding) = row.split_at_mut(n - r);
        for (j, o) in valid.iter_mut().enumerate() {
            *o = block.0[r + j][r];
        }
        padding.fill(0.0);
    }
    true
}

/// [`dot`]'s 16-lane accumulators of 4 queries on 4 keys, key-major
/// (`acc[4k + i]` is query `i` on key `k`), every load shared by a row or
/// column of the tile.
///
/// # Safety
/// Each pointer starts `chunks · 16` readable values; the host has AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_avx512(qs: [*const f32; 4], ks: [*const f32; 4], chunks: usize) -> [__m512; 16] {
    let mut acc = [_mm512_setzero_ps(); 16];
    for at in (0..chunks).map(|c| c * DOT_LANES) {
        let qv: [__m512; 4] = std::array::from_fn(|i| _mm512_loadu_ps(qs[i].add(at)));
        for (k, key) in ks.iter().enumerate() {
            let kv = _mm512_loadu_ps(key.add(at));
            for (i, &qv) in qv.iter().enumerate() {
                acc[4 * k + i] = _mm512_add_ps(acc[4 * k + i], _mm512_mul_ps(qv, kv));
            }
        }
    }
    acc
}

/// [`dot_rows`] in blocks of 8 and 4 keys, the last one padded. A key's 16
/// lanes are two 8-lane halves, each its own pass of one YMM per key (16
/// accumulators would not fit the register file), folded in turn.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_rows_avx2(q: &[f32], keys: &[f32], rows: &[usize], out: &mut [f32]) {
    let (qp, chunks, mut j) = (q.as_ptr(), q.len() / DOT_LANES, 0);
    while j < rows.len() {
        let (rows, out) = (&rows[j..], &mut out[j..]);
        j += if rows.len() >= 8 {
            dot_block::<8>(q, keys, rows, out, |k, s| fold8_avx2(qp, k, chunks, s))
        } else {
            dot_block::<4>(q, keys, rows, out, |k, s| fold8_avx2(qp, k, chunks, s))
        };
    }
}

/// [`fold16_avx512`] for 8 or 4 keys on YMM.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fold8_avx2<const N: usize>(
    q: *const f32,
    keys: [*const f32; N],
    chunks: usize,
    out: *mut f32,
) {
    let mut sum = _mm256_setzero_ps();
    for half in [0, 8] {
        let acc = lanes_avx2(q, keys, half, chunks);
        let (lo, hi) = (quad_avx2(&acc), quad_avx2(&acc[4 % N..]));
        // Halves `b = 0`, then `b = 1`, of the two quads side by side.
        for s in 0..4 {
            sum = _mm256_add_ps(sum, _mm256_permute2f128_ps::<0x20>(lo[s], hi[s]));
        }
        for s in 0..4 {
            sum = _mm256_add_ps(sum, _mm256_permute2f128_ps::<0x31>(lo[s], hi[s]));
        }
    }
    _mm256_storeu_ps(out, sum);
}

/// `y += α_j · xs[r_j]` for each `(r_j, α_j)` of `terms` in order, zero
/// weights (either sign) skipped — bitwise the [`axpy`] run, the portable
/// body — with `y` held in registers across the span.
///
/// # Safety
/// Every `r_j` names a `y.len()`-wide row of `xs`.
#[inline]
pub(crate) unsafe fn axpy_gather<I>(xs: &[f32], terms: I, y: &mut [f32])
where
    I: Iterator<Item = (usize, f32)> + Clone,
{
    debug_assert!(terms.clone().all(|(r, _)| (r + 1) * y.len() <= xs.len()));
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: a body needs its probed feature and the caller's rows.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return gather_avx512(xs, terms, y);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return gather_avx2(xs, terms, y);
        }
    }
    gather_cols(xs, 0, terms, y)
}

/// `ys[r_j] += α_j · x` for each `(r_j, α_j)` of `terms` in order, as
/// [`axpy_gather`] but with `x` held in registers.
///
/// # Safety
/// Every `r_j` names an `x.len()`-wide row of `ys`.
#[inline]
pub(crate) unsafe fn axpy_scatter<I>(x: &[f32], terms: I, ys: &mut [f32])
where
    I: Iterator<Item = (usize, f32)> + Clone,
{
    debug_assert!(terms.clone().all(|(r, _)| (r + 1) * x.len() <= ys.len()));
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: a body needs its probed feature and the caller's rows.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return scatter_avx512(x, terms, ys);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return scatter_avx2(x, terms, ys);
        }
    }
    scatter_cols(x, 0, terms, ys)
}

/// [`axpy_gather`] on columns `c..` only: one [`axpy`] per term.
fn gather_cols(xs: &[f32], c: usize, terms: impl Iterator<Item = (usize, f32)>, y: &mut [f32]) {
    let d = y.len();
    for (r, alpha) in terms.filter(|&(_, a)| a != 0.0) {
        axpy(alpha, &xs[r * d + c..(r + 1) * d], &mut y[c..]);
    }
}

/// [`axpy_scatter`] on columns `c..` only: one [`axpy`] per term.
fn scatter_cols(x: &[f32], c: usize, terms: impl Iterator<Item = (usize, f32)>, ys: &mut [f32]) {
    let d = x.len();
    for (r, alpha) in terms.filter(|&(_, a)| a != 0.0) {
        axpy(alpha, &x[c..], &mut ys[r * d + c..(r + 1) * d]);
    }
}

/// One vector ISA's register-held bodies — `$v` holds `$l` lanes, a block is
/// 8 registers, the columns past the last whole block take the `*_cols`
/// tail. Every lane op is a separate `mul` and `add`, never FMA, so each
/// element sees exactly [`dot`]'s or [`axpy`]'s operation sequence.
macro_rules! isa_bodies {
    ($feature:literal, $v:ty, $l:literal, [$lanes:ident, $gather:ident, $scatter:ident],
     [$zero:ident, $splat:ident, $load:ident, $store:ident, $add:ident, $mul:ident],
     [$quad:ident, $lo_ps:ident, $hi_ps:ident, $lo_pd:ident, $hi_pd:ident, $to_pd:ident, $to_ps:ident]) => {
        /// 4 × 4 transposes inside each 128-bit block: block `b` of `w[s]`
        /// holds lane `4b + s` of the four keys `r`.
        #[target_feature(enable = $feature)]
        #[inline]
        unsafe fn $quad(r: &[$v]) -> [$v; 4] {
            let (t0, t1) = ($to_pd($lo_ps(r[0], r[1])), $to_pd($lo_ps(r[2], r[3])));
            let (u0, u1) = ($to_pd($hi_ps(r[0], r[1])), $to_pd($hi_ps(r[2], r[3])));
            [
                $to_ps($lo_pd(t0, t1)),
                $to_ps($hi_pd(t0, t1)),
                $to_ps($lo_pd(u0, u1)),
                $to_ps($hi_pd(u0, u1)),
            ]
        }

        /// Lanes `lane0 .. lane0 + $l` of `N` keys' [`dot`] accumulators,
        /// one register per key, each load of `q` shared.
        #[target_feature(enable = $feature)]
        #[inline]
        unsafe fn $lanes<const N: usize>(
            q: *const f32,
            keys: [*const f32; N],
            lane0: usize,
            chunks: usize,
        ) -> [$v; N] {
            let mut acc = [$zero(); N];
            for at in (0..chunks).map(|c| c * DOT_LANES + lane0) {
                let qv = $load(q.add(at));
                for (a, k) in acc.iter_mut().zip(&keys) {
                    *a = $add(*a, $mul(qv, $load(k.add(at))));
                }
            }
            acc
        }

        #[target_feature(enable = $feature)]
        unsafe fn $gather<I: Iterator<Item = (usize, f32)> + Clone>(
            xs: &[f32],
            terms: I,
            y: &mut [f32],
        ) {
            let (d, mut c) = (y.len(), 0);
            while d - c >= 8 * $l {
                let (x, yc) = (xs.as_ptr().add(c), y.as_mut_ptr().add(c));
                let mut acc = [$zero(); 8];
                for (v, acc) in acc.iter_mut().enumerate() {
                    *acc = $load(yc.add($l * v));
                }
                for (r, alpha) in terms.clone().filter(|&(_, a)| a != 0.0) {
                    let (a, row) = ($splat(alpha), x.add(r * d));
                    for (v, acc) in acc.iter_mut().enumerate() {
                        *acc = $add(*acc, $mul(a, $load(row.add($l * v))));
                    }
                }
                for (v, acc) in acc.into_iter().enumerate() {
                    $store(yc.add($l * v), acc);
                }
                c += 8 * $l;
            }
            if c < d {
                gather_cols(xs, c, terms, y);
            }
        }

        #[target_feature(enable = $feature)]
        unsafe fn $scatter<I: Iterator<Item = (usize, f32)> + Clone>(
            x: &[f32],
            terms: I,
            ys: &mut [f32],
        ) {
            let (d, mut c) = (x.len(), 0);
            while d - c >= 8 * $l {
                let (xc, yc) = (x.as_ptr().add(c), ys.as_mut_ptr().add(c));
                let mut xv = [$zero(); 8];
                for (v, xv) in xv.iter_mut().enumerate() {
                    *xv = $load(xc.add($l * v));
                }
                for (r, alpha) in terms.clone().filter(|&(_, a)| a != 0.0) {
                    let (a, row) = ($splat(alpha), yc.add(r * d));
                    for (v, xv) in xv.into_iter().enumerate() {
                        let y = row.add($l * v);
                        $store(y, $add($load(y), $mul(a, xv)));
                    }
                }
                c += 8 * $l;
            }
            if c < d {
                scatter_cols(x, c, terms, ys);
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
isa_bodies! {
    "avx512f", __m512, 16, [lanes_avx512, gather_avx512, scatter_avx512],
    [_mm512_setzero_ps, _mm512_set1_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_add_ps, _mm512_mul_ps],
    [quad_avx512, _mm512_unpacklo_ps, _mm512_unpackhi_ps, _mm512_unpacklo_pd, _mm512_unpackhi_pd,
     _mm512_castps_pd, _mm512_castpd_ps]
}
#[cfg(target_arch = "x86_64")]
isa_bodies! {
    "avx2", __m256, 8, [lanes_avx2, gather_avx2, scatter_avx2],
    [_mm256_setzero_ps, _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_add_ps, _mm256_mul_ps],
    [quad_avx2, _mm256_unpacklo_ps, _mm256_unpackhi_ps, _mm256_unpacklo_pd, _mm256_unpackhi_pd,
     _mm256_castps_pd, _mm256_castpd_ps]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_is_the_default_and_names_match_their_kernels() {
        assert_eq!(BackendKind::default(), BackendKind::Optimized);
        for kind in BackendKind::all() {
            assert_eq!(kind.dispatch().name(), kind.name());
        }
        assert_ne!(BackendKind::Reference.name(), BackendKind::Optimized.name());
    }

    /// `widen-core`'s `forward_chunk` lays Eq. 4 out as every walk's suffix
    /// spans, walks back to back and grouped by node: walks of 21 (`n_d =
    /// 20`), pruned walks of 1–11, an empty walk, a node with none. Every
    /// span must fall in a whole walk that [`walk_attention`] takes, or a
    /// layout change silently sends Eq. 4 down the per-span path.
    #[test]
    fn eq4_row_spans_are_whole_walks_the_walk_kernel_takes() {
        let pruned: Vec<usize> = (1..=11).collect();
        let nodes: [&[usize]; 4] = [&[21; 10], &[], &pruned, &[0, 21, 5]];
        let mut walk_spans = Vec::new();
        for &len in nodes.iter().flat_map(|walks| walks.iter()) {
            let start = walk_spans.last().map_or(0, |&(start, len)| start + len);
            walk_spans.push((start, len));
        }
        let row_spans: Vec<(usize, usize)> = walk_spans
            .iter()
            .flat_map(|&(start, len)| (0..len).map(move |r| (start + r, len - r)))
            .collect();
        let (mut at, mut walks) = (0, Vec::new());
        while at < row_spans.len() {
            let len = walk_len(&row_spans[at..]);
            assert!(
                (1..=WALK_MAX).contains(&len),
                "span {at} {:?}",
                row_spans[at]
            );
            walks.push(len);
            at += len;
        }
        let nonempty = walk_spans
            .iter()
            .map(|&(_, len)| len)
            .filter(|&len| len > 0);
        assert_eq!(walks, nonempty.collect::<Vec<_>>());
    }
}

/// The span kernels' contract: every body the host can run — called
/// directly, so an AVX-512 runner checks the AVX2 and portable bodies too —
/// is bit for bit one [`dot`] per key, or the sequential [`axpy`] run with
/// zero weights skipped, or the portable [`exp`]; [`walk_attention`] is the
/// per-span path, or declines. Key counts 0–40 cover every 16/8/4 block
/// split and padded remainder; widths 16–130 cover one lane chunk to two
/// register blocks plus a scalar tail.
#[cfg(test)]
mod span_kernel_contract {
    use super::*;
    use crate::tensor::Tensor;
    use proptest::prelude::*;

    const WIDTHS: [usize; 6] = [16, 32, 48, 64, 128, 130];
    const MAX_WIDTH: usize = 130;
    const MAX_KEYS: usize = 40;
    /// Fewer rows than keys: every span repeats rows, in any order.
    const ROWS: usize = 12;

    #[derive(Clone, Copy, Debug)]
    enum Body {
        Portable,
        #[cfg(target_arch = "x86_64")]
        Avx512,
        #[cfg(target_arch = "x86_64")]
        Avx2,
    }

    fn bodies() -> Vec<Body> {
        #[allow(unused_mut)]
        let mut bodies = vec![Body::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                bodies.push(Body::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                bodies.push(Body::Avx2);
            }
        }
        bodies
    }

    type Terms<'a> = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, usize>>,
        std::iter::Copied<std::slice::Iter<'a, f32>>,
    >;

    fn terms<'a>(rows: &'a [usize], alphas: &'a [f32]) -> Terms<'a> {
        rows.iter().copied().zip(alphas.iter().copied())
    }

    /// One body of [`dot_rows`]; the caller upholds its safety contract.
    unsafe fn dot_rows_on(body: Body, q: &[f32], keys: &[f32], rows: &[usize], out: &mut [f32]) {
        match body {
            Body::Portable => dot_rows_portable(q, keys, rows, out),
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => dot_rows_avx512(q, keys, rows, out),
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => dot_rows_avx2(q, keys, rows, out),
        }
    }

    unsafe fn gather_on(body: Body, xs: &[f32], terms: Terms<'_>, y: &mut [f32]) {
        match body {
            Body::Portable => gather_cols(xs, 0, terms, y),
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => gather_avx512(xs, terms, y),
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => gather_avx2(xs, terms, y),
        }
    }

    unsafe fn scatter_on(body: Body, x: &[f32], terms: Terms<'_>, ys: &mut [f32]) {
        match body {
            Body::Portable => scatter_cols(x, 0, terms, ys),
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => scatter_avx512(x, terms, ys),
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => scatter_avx2(x, terms, ys),
        }
    }

    /// Mostly ordinary values, plus zeros of both signs, subnormals and
    /// magnitudes whose products dominate a sum (so a misordered fold
    /// rounds differently).
    fn element() -> impl Strategy<Value = f32> {
        (0usize..24, -3.0f32..3.0).prop_map(|(pick, x)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f32::MIN_POSITIVE / 2.0,
            3 => -f32::MIN_POSITIVE / 4.0,
            4 => 1.0e19,
            5 => -3.0e18,
            6 => 1.0e-30,
            _ => x,
        })
    }

    /// A weight: an [`element`], often an exact zero of either sign (to be
    /// skipped), sometimes non-finite (never skipped).
    fn weight() -> impl Strategy<Value = f32> {
        (0usize..12, element()).prop_map(|(pick, x)| match pick {
            0 | 1 => 0.0,
            2 | 3 => -0.0,
            4 => f32::NAN,
            5 => f32::INFINITY,
            _ => x,
        })
    }

    /// `data` with one element replaced by NaN, +∞ or −∞ (`kind` 1–3).
    fn poisoned(mut data: Vec<f32>, (kind, at): (usize, usize)) -> Vec<f32> {
        let at = at % data.len();
        data[at] = [data[at], f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
        data
    }

    /// The first `width` columns of each `MAX_WIDTH`-wide row.
    fn narrow(data: &[f32], width: usize) -> Vec<f32> {
        data.chunks(MAX_WIDTH)
            .flat_map(|row| &row[..width])
            .copied()
            .collect()
    }

    /// "Bit-equal, or both NaN", element by element.
    fn same_bits(got: &[f32], want: &[f32]) -> Result<(), String> {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()) {
                return Err(format!("element {i}: got {g:e}, want {w:e}"));
            }
        }
        Ok(())
    }

    /// `exp`'s edges: zeros, subnormals, the thresholds of its special
    /// cases and their neighbours, the extremes, ±∞ and NaN.
    fn exp_edges() -> Vec<f32> {
        let mut edges = vec![0.0, -0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE];
        edges.extend([
            1e-45,
            -1e-45,
            f32::MIN_POSITIVE / 3.0,
            -f32::MIN_POSITIVE / 7.0,
        ]);
        edges.extend([
            -87.33, -88.72, -103.28, -103.97, -104.0, 88.0, -88.0, 88.72, 88.73,
        ]);
        edges.extend([
            f32::MIN,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ]);
        for bits in [0x42b1_7217u32, 0xc2cf_f1b4, 0x42b0_0000, 0xc2b0_0000] {
            edges.extend([bits - 1, bits, bits + 1].map(f32::from_bits));
        }
        edges
    }

    /// A score element: mostly ordinary, sometimes ±30 (so `x − max` falls
    /// far below −104 and `exp` underflows), zeros and subnormals.
    fn walk_element() -> impl Strategy<Value = f32> {
        (0usize..16, -3.0f32..3.0).prop_map(|(pick, x)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f32::MIN_POSITIVE / 2.0,
            3 => 30.0,
            4 => -30.0,
            _ => x,
        })
    }

    /// One piece of a span list: a causal walk (lengths 1–33, 21 and 33
    /// often), the same walk cut short of its last span, a span that opens
    /// no walk, or an empty span.
    #[derive(Clone, Copy, Debug)]
    enum Piece {
        Walk(usize),
        Cut(usize),
        Plain(usize),
        Empty,
    }

    fn piece() -> impl Strategy<Value = Piece> {
        (0usize..8, 1usize..34).prop_map(|(kind, len)| match kind {
            0 | 1 => Piece::Walk(21),
            2 => Piece::Walk(33),
            3 | 4 => Piece::Walk(len),
            5 => Piece::Cut(len.max(2)),
            6 => Piece::Plain(len.clamp(2, 9)),
            _ => Piece::Empty,
        })
    }

    /// The spans of `pieces`, with each walk's first span and length, and
    /// the number of positions they cover.
    #[allow(clippy::type_complexity)]
    fn layout(pieces: &[Piece]) -> (Vec<(usize, usize)>, Vec<(usize, usize)>, usize) {
        let (mut spans, mut walks, mut at) = (Vec::new(), Vec::new(), 0);
        for &piece in pieces {
            match piece {
                Piece::Walk(len) | Piece::Cut(len) => {
                    let whole = matches!(piece, Piece::Walk(_));
                    if whole {
                        walks.push((spans.len(), len));
                    }
                    let kept = if whole { len } else { len - 1 };
                    spans.extend((0..kept).map(|r| (at + r, len - r)));
                    at += len;
                }
                Piece::Plain(len) => {
                    spans.push((at, len));
                    at += len;
                }
                Piece::Empty => spans.push((at / 2, 0)),
            }
        }
        (spans, walks, at)
    }

    /// The test's own per-span attention row: [`dot`] and the scale per
    /// key, then the scalar max, [`exp`], sum in key order and division.
    fn attention_row(q: &[f32], keys: &[f32], k: &[usize], scale: f32, width: usize) -> Vec<f32> {
        let d = q.len();
        let x: Vec<f32> = k
            .iter()
            .map(|&r| dot(q, &keys[r * d..(r + 1) * d]) * scale)
            .collect();
        let mut row = vec![0.0; width];
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if max == f32::NEG_INFINITY {
            row[..x.len()].fill(1.0 / x.len() as f32);
            return row;
        }
        let e: Vec<f32> = x.iter().map(|&x| exp(x - max)).collect();
        let sum = e.iter().fold(0.0f32, |sum, &e| sum + e);
        for (o, e) in row.iter_mut().zip(e) {
            *o = e / sum;
        }
        row
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn dot_rows_is_one_dot_per_key(
            q in prop::collection::vec(element(), MAX_WIDTH),
            keys in prop::collection::vec(element(), ROWS * MAX_WIDTH),
            poison in (0usize..4, 0usize..ROWS * MAX_WIDTH),
            rows in prop::collection::vec(0usize..ROWS, MAX_KEYS),
        ) {
            let keys = poisoned(keys, poison);
            for width in WIDTHS {
                let (q, keys) = (&q[..width], narrow(&keys, width));
                for n in 0..=MAX_KEYS {
                    let rows = &rows[..n];
                    let want: Vec<f32> =
                        rows.iter().map(|&r| dot(q, &keys[r * width..(r + 1) * width])).collect();
                    for body in bodies() {
                        let mut got = vec![f32::NAN; n];
                        // SAFETY: every row is below `ROWS`.
                        unsafe { dot_rows_on(body, q, &keys, rows, &mut got) };
                        if let Err(why) = same_bits(&got, &want) {
                            prop_assert!(false, "{body:?}, width {width}, {n} keys: {why}");
                        }
                    }
                }
            }
        }

        #[test]
        fn axpy_gather_is_the_sequential_axpy_run(
            xs in prop::collection::vec(element(), ROWS * MAX_WIDTH),
            poison in (0usize..4, 0usize..ROWS * MAX_WIDTH),
            y0 in prop::collection::vec(element(), MAX_WIDTH),
            rows in prop::collection::vec(0usize..ROWS, MAX_KEYS),
            alphas in prop::collection::vec(weight(), MAX_KEYS),
        ) {
            let xs = poisoned(xs, poison);
            for width in WIDTHS {
                let xs = narrow(&xs, width);
                for n in 0..=MAX_KEYS {
                    let (rows, alphas) = (&rows[..n], &alphas[..n]);
                    let mut want = y0[..width].to_vec();
                    for (&r, &a) in rows.iter().zip(alphas).filter(|(_, &a)| a != 0.0) {
                        axpy(a, &xs[r * width..(r + 1) * width], &mut want);
                    }
                    for body in bodies() {
                        let mut got = y0[..width].to_vec();
                        // SAFETY: every row is below `ROWS`.
                        unsafe { gather_on(body, &xs, terms(rows, alphas), &mut got) };
                        if let Err(why) = same_bits(&got, &want) {
                            prop_assert!(false, "{body:?}, width {width}, {n} terms: {why}");
                        }
                    }
                }
            }
        }

        #[test]
        fn axpy_scatter_is_the_sequential_axpy_run(
            x in prop::collection::vec(element(), MAX_WIDTH),
            ys0 in prop::collection::vec(element(), ROWS * MAX_WIDTH),
            poison in (0usize..4, 0usize..ROWS * MAX_WIDTH),
            rows in prop::collection::vec(0usize..ROWS, MAX_KEYS),
            alphas in prop::collection::vec(weight(), MAX_KEYS),
        ) {
            let ys0 = poisoned(ys0, poison);
            for width in WIDTHS {
                let (x, ys0) = (&x[..width], narrow(&ys0, width));
                for n in 0..=MAX_KEYS {
                    let (rows, alphas) = (&rows[..n], &alphas[..n]);
                    let mut want = ys0.clone();
                    for (&r, &a) in rows.iter().zip(alphas).filter(|(_, &a)| a != 0.0) {
                        axpy(a, x, &mut want[r * width..(r + 1) * width]);
                    }
                    for body in bodies() {
                        let mut got = ys0.clone();
                        // SAFETY: every row is below `ROWS`.
                        unsafe { scatter_on(body, x, terms(rows, alphas), &mut got) };
                        if let Err(why) = same_bits(&got, &want) {
                            prop_assert!(false, "{body:?}, width {width}, {n} terms: {why}");
                        }
                    }
                }
            }
        }

        #[test]
        fn exp_bodies_are_the_portable_exp(
            seeded in prop::collection::vec(
                (any::<bool>(), any::<u32>(), -110.0f32..95.0)
                    .prop_map(|(raw, bits, x)| if raw { f32::from_bits(bits) } else { x }),
                0..70,
            ),
        ) {
            let mut xs = exp_edges();
            xs.extend(seeded);
            let want: Vec<f32> = xs.iter().map(|&x| exp(x)).collect();
            // Every suffix length, so each body's tail handling is hit.
            for from in 0..16.min(xs.len()) {
                for (name, body) in exp::bodies() {
                    let mut got = xs[from..].to_vec();
                    // SAFETY: `bodies` lists only what the host runs.
                    unsafe { body(&mut got) };
                    for (i, (g, w)) in got.iter().zip(&want[from..]).enumerate() {
                        let x = xs[from + i];
                        prop_assert!(g.to_bits() == w.to_bits(), "{name} exp({x:e}): {g:e}, want {w:e}");
                    }
                }
            }
        }

        #[test]
        fn walk_attention_is_the_per_span_path(
            keys in prop::collection::vec(walk_element(), ROWS * MAX_WIDTH),
            queries in prop::collection::vec(walk_element(), ROWS * MAX_WIDTH),
            q_is_keys in any::<bool>(),
            poison in (0usize..10, 0usize..ROWS * MAX_WIDTH),
            pieces in prop::collection::vec(piece(), 2..10),
            rows in prop::collection::vec(0usize..ROWS, 64),
            scale in (0usize..3).prop_map(|pick| [0.088f32, 0.5, 4.0][pick]),
        ) {
            // `f32::MAX` times an ordinary value overflows a score.
            let mut keys = keys;
            let poisons = [f32::MAX, f32::NAN, f32::INFINITY];
            keys[poison.1] = poisons.get(poison.0).copied().unwrap_or(keys[poison.1]);
            let (spans, walks, positions) = layout(&pieces);
            let k_rows: Vec<usize> = (0..positions).map(|p| rows[p % rows.len()]).collect();
            let q_rows: Vec<usize> = (0..spans.len()).map(|i| rows[(7 * i + 3) % rows.len()]).collect();
            let width = crate::tensor::padded_width(&spans);
            for d in WIDTHS {
                let keys = narrow(&keys, d);
                let queries = if q_is_keys { keys.clone() } else { narrow(&queries, d) };
                let want: Vec<Vec<f32>> = spans
                    .iter()
                    .zip(&q_rows)
                    .map(|(&(start, len), &q)| {
                        let k = &k_rows[start..start + len];
                        attention_row(&queries[q * d..(q + 1) * d], &keys, k, scale, width)
                    })
                    .collect();
                let check = |got: &[f32], i: usize, path: &str| -> Result<(), proptest::test_runner::TestCaseError> {
                    if let Err(why) = same_bits(got, &want[i]) {
                        prop_assert!(false, "{path}, width {d}, span {i} {:?}: {why}", spans[i]);
                    }
                    Ok(())
                };
                let (qt, kt) = (Tensor::from_vec(ROWS, d, queries.clone()), Tensor::from_vec(ROWS, d, keys.clone()));
                let dispatched = qt.segment_attention(&q_rows, &kt, &k_rows, &spans, scale);
                for i in 0..spans.len() {
                    check(dispatched.row(i), i, "dispatched")?;
                    let mut row = vec![f32::NAN; width];
                    // SAFETY: every key row is below `ROWS`.
                    unsafe { qt.span_attention(q_rows[i], &kt, &k_rows, spans[i], None, scale, &mut row) };
                    check(&row, i, "per span")?;
                }
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx512f") {
                    for &(i, len) in &walks {
                        let (q, k) = (&q_rows[i..i + len], &k_rows[spans[i].0..][..len]);
                        let finite = (0..len).all(|r| {
                            let q = &queries[q[r] * d..(q[r] + 1) * d];
                            k[r..].iter().all(|&c| (dot(q, &keys[c * d..(c + 1) * d]) * scale).is_finite())
                        });
                        let mut rows = vec![f32::NAN; len * width];
                        // SAFETY: every row is below `ROWS`.
                        let ran = unsafe { walk_avx512(&queries, q, &keys, k, d, scale, &mut rows) };
                        prop_assert_eq!(ran, len <= WALK_MAX && d % DOT_LANES == 0 && finite);
                        if ran {
                            for (r, row) in rows.chunks(width).enumerate() {
                                check(row, i + r, "avx512 walk")?;
                            }
                        } else {
                            prop_assert!(rows.iter().all(|x| x.is_nan()), "a declined walk wrote");
                        }
                    }
                }
            }
        }
    }
}
