//! Packed, register-tiled GEMM backend.
//!
//! The [`Reference`] `A·B` kernel streams the whole output row through
//! memory once per inner-dimension step (`n` loads + `n` stores per `p`);
//! the kernels here instead hold an output tile in registers for the full
//! `k` sweep. `A·B` computes an `MR × NR` tile — `MR` query rows share
//! every load of a B panel row — from B repacked into contiguous
//! `NR`-wide panels (one cache line per `p`) through the thread-local
//! scratch arena in `pool.rs`, with the `k` loop monomorphised for the hot
//! inner dimensions (`d = 128` at paper scale, 64 and 32 for the small
//! configs). `A·Bᵀ` packs `Bᵀ` into the same panels and runs the same
//! kernel. `Aᵀ·B`, the weight-gradient product, keeps a `TN_ROWS × NR`
//! tile of `out` itself in registers (see [`tn_tile`]).
//!
//! ## Parity contract
//!
//! Per output element the `A·B` tile accumulates `a[i][p]·b[p][j]` in the
//! same increasing-`p`, single-accumulator order as [`Reference`] — the
//! differences are exactly two:
//!
//! 1. no `+0.0` skip: terms the reference kernel elides are summed here
//!    (so where Reference produces NaN/∞, Optimized does too — it sums a
//!    superset of the reference's terms);
//! 2. accumulation into a non-zero `out` rounds once at the end
//!    (`out += Σ terms`) instead of per term.
//!
//! Both effects are bounded by the standard GEMM error model — see the
//! `backend_parity` proptests for the enforced tolerance. `A·Bᵀ` is
//! bit-for-bit this backend's `A·B` on the transposed operand, whatever
//! the row count, so it stands under the same two terms against
//! [`Reference`]'s lane-split `A·Bᵀ`. `Aᵀ·B` and `dot` replicate the
//! reference arithmetic element for element: every non-NaN result is
//! bit-identical, and a NaN on one backend is a NaN on the other. NaN
//! *payloads* carry no guarantee anywhere — x86 returns the first NaN
//! operand, and a compiler may commute a vector add.
//!
//! ## Runtime SIMD dispatch
//!
//! The workspace compiles for baseline x86-64 (SSE2), so the wide-vector
//! inner loops here are explicit intrinsics behind
//! `is_x86_feature_detected!` probes — AVX-512F first, then AVX2, then a
//! portable scalar body. Every SIMD variant vectorises **across output
//! elements** (tile columns or rows) and uses separate multiply and add —
//! never FMA — so each element sees the identical correctly-rounded
//! operation sequence: all variants of a kernel are bit-identical, and
//! the parity contract holds on any host.

use super::{dot, nonzero, KernelBackend};
use crate::pool::with_pack_scratch;

/// Packed, register-tiled GEMM backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct Optimized;

/// Rows per register tile: each B-panel load is reused across `MR` rows.
const MR: usize = 4;

/// Columns per register tile / packed-panel width. On the SIMD paths the
/// `MR × NR` accumulator tile is 4 ZMM (AVX-512) or 8 YMM (AVX2)
/// registers — well inside the register file, no spills.
const NR: usize = 16;

/// Rows per `Aᵀ·B` register tile — the vector lanes of its transposed
/// accumulators (one ZMM, two YMM): at every `p` a tile consumes one
/// cache line of `A` and one of `B`.
const TN_ROWS: usize = 16;

/// Pack B only once there are enough output rows to amortise the extra
/// pass over B (below this, the tile kernel reads B in place).
const PACK_MIN_M: usize = 2 * MR;

impl KernelBackend for Optimized {
    fn name(&self) -> &'static str {
        "optimized"
    }

    fn gemm_nn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        if m >= PACK_MIN_M {
            let panels = n.div_ceil(NR);
            with_pack_scratch(panels * k * NR, |packed| {
                pack_b(k, n, b, packed);
                nn_block(m, k, n, a, BSource::Packed(packed), out);
            });
        } else {
            nn_block(m, k, n, a, BSource::Raw(b), out);
        }
    }

    fn gemm_nt_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        // Always the packed tile kernel, whatever `m`: an output row must
        // not depend on how many other rows share its batch.
        with_pack_scratch(n.div_ceil(NR) * k * NR, |packed| {
            pack_bt(k, n, b, packed);
            nn_block(m, k, n, a, BSource::Packed(packed), out);
        });
    }

    fn gemm_tn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        tn_block(m, k, n, a, b, out);
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        dot(a, b)
    }
}

/// B operand view for the tile kernel: packed panels or the raw matrix.
#[derive(Clone, Copy)]
enum BSource<'a> {
    /// Panel-major repack: panel `j` holds columns `j·NR ..`, element
    /// `(p, c)` at `j·k·NR + p·NR + c`, short final panel zero-padded.
    Packed(&'a [f32]),
    /// Row-major B as handed to the kernel (small-`m` calls).
    Raw(&'a [f32]),
}

fn pack_b(k: usize, n: usize, b: &[f32], packed: &mut [f32]) {
    let panels = n.div_ceil(NR);
    for panel in 0..panels {
        let j0 = panel * NR;
        let w = (n - j0).min(NR);
        let dst = &mut packed[panel * k * NR..(panel + 1) * k * NR];
        for p in 0..k {
            let src = &b[p * n + j0..p * n + j0 + w];
            let d = &mut dst[p * NR..(p + 1) * NR];
            d[..w].copy_from_slice(src);
            d[w..].fill(0.0);
        }
    }
}

/// [`pack_b`] for a transposed operand: `bt` is `n × k` row-major and
/// panel element `(p, c)` is `bt[j·NR + c][p]`, so the tile kernel reads
/// `A·Bᵀ` as it reads `A·B`.
fn pack_bt(k: usize, n: usize, bt: &[f32], packed: &mut [f32]) {
    for (panel, dst) in packed.chunks_exact_mut(k * NR).enumerate() {
        let j0 = panel * NR;
        let w = (n - j0).min(NR);
        for (p, d) in dst.chunks_exact_mut(NR).enumerate() {
            for (c, x) in d[..w].iter_mut().enumerate() {
                *x = bt[(j0 + c) * k + p];
            }
            d[w..].fill(0.0);
        }
    }
}

/// Tiles `out += A·B` into `MR`-high bands of output rows.
fn nn_block(m: usize, k: usize, n: usize, a: &[f32], b: BSource<'_>, out: &mut [f32]) {
    let mut i = 0;
    while i < m {
        let mra = (m - i).min(MR);
        let a_sub = &a[i * k..(i + mra) * k];
        let o_sub = &mut out[i * n..(i + mra) * n];
        match mra {
            4 => row_band::<4>(k, n, a_sub, b, o_sub),
            3 => row_band::<3>(k, n, a_sub, b, o_sub),
            2 => row_band::<2>(k, n, a_sub, b, o_sub),
            _ => row_band::<1>(k, n, a_sub, b, o_sub),
        }
        i += mra;
    }
}

/// One `MRA`-row band: sweeps the NR-wide panels of B.
fn row_band<const MRA: usize>(
    k: usize,
    n: usize,
    a_sub: &[f32],
    b: BSource<'_>,
    o_sub: &mut [f32],
) {
    match b {
        BSource::Packed(packed) => {
            let mut j0 = 0;
            let mut panel = 0;
            while j0 < n {
                let w = (n - j0).min(NR);
                let bp = &packed[panel * k * NR..(panel + 1) * k * NR];
                micro::<MRA>(k, a_sub, bp, NR, o_sub, n, j0, w);
                j0 += NR;
                panel += 1;
            }
        }
        BSource::Raw(raw) => {
            let mut j0 = 0;
            while j0 + NR <= n {
                micro::<MRA>(k, a_sub, &raw[j0..], n, o_sub, n, j0, NR);
                j0 += NR;
            }
            // Ragged tail columns: plain single-accumulator dots, still
            // increasing-`p` order.
            for j in j0..n {
                for r in 0..MRA {
                    let a_row = &a_sub[r * k..(r + 1) * k];
                    let mut acc = 0.0f32;
                    for (p, &av) in a_row.iter().enumerate() {
                        acc += av * raw[p * n + j];
                    }
                    o_sub[r * n + j] += acc;
                }
            }
        }
    }
}

/// `MRA × NR` register tile, dispatching to a fixed-`k` instantiation for
/// the hot inner dimensions (paper `d = 128`; 64/32 for small configs).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro<const MRA: usize>(
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    o_sub: &mut [f32],
    n: usize,
    j0: usize,
    w: usize,
) {
    match k {
        32 => micro_k::<MRA, 32>(a_sub, b_panel, b_stride, o_sub, n, j0, w),
        64 => micro_k::<MRA, 64>(a_sub, b_panel, b_stride, o_sub, n, j0, w),
        128 => micro_k::<MRA, 128>(a_sub, b_panel, b_stride, o_sub, n, j0, w),
        _ => micro_dyn::<MRA>(k, a_sub, b_panel, b_stride, o_sub, n, j0, w),
    }
}

#[inline(always)]
fn micro_k<const MRA: usize, const K: usize>(
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    o_sub: &mut [f32],
    n: usize,
    j0: usize,
    w: usize,
) {
    micro_dyn::<MRA>(K, a_sub, b_panel, b_stride, o_sub, n, j0, w)
}

/// The tile body: every output element keeps a single register
/// accumulator swept over increasing `p` — the reference accumulation
/// order, minus the `+0.0` skip.
///
/// The accumulator fill dispatches at runtime to an AVX-512F or AVX2
/// variant when the CPU has one (the compile target is baseline x86-64,
/// so the compiler cannot emit wide vectors on its own). The SIMD
/// variants vectorise **across the `NR` output columns** and use separate
/// multiply and add (never FMA), so each output element sees exactly the
/// scalar sequence `acc += a[i][p] · b[p][j]` in increasing-`p` order —
/// all three fills are bit-identical, on NaN and subnormal inputs too.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_dyn<const MRA: usize>(
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    o_sub: &mut [f32],
    n: usize,
    j0: usize,
    w: usize,
) {
    let mut acc = [[0.0f32; NR]; MRA];
    fill_tile::<MRA>(k, a_sub, b_panel, b_stride, &mut acc);
    for (r, lanes) in acc.iter().enumerate() {
        let o_row = &mut o_sub[r * n + j0..r * n + j0 + w];
        for (o, &v) in o_row.iter_mut().zip(&lanes[..w]) {
            *o += v;
        }
    }
}

/// Fills the `MRA × NR` accumulator tile, dispatching on the widest
/// vector extension the CPU reports (`is_x86_feature_detected!` caches
/// the CPUID probe in a static, so the steady-state cost is one relaxed
/// atomic load per tile).
#[inline(always)]
fn fill_tile<const MRA: usize>(
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    acc: &mut [[f32; NR]; MRA],
) {
    debug_assert!(a_sub.len() >= MRA * k);
    debug_assert!(k == 0 || b_panel.len() >= (k - 1) * b_stride + NR);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature probed above; slice bounds asserted above
            // (every `p` reads `NR` floats at `p · b_stride`).
            unsafe { fill_tile_avx512::<MRA>(k, a_sub, b_panel, b_stride, acc) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            unsafe { fill_tile_avx2::<MRA>(k, a_sub, b_panel, b_stride, acc) };
            return;
        }
    }
    fill_tile_scalar::<MRA>(k, a_sub, b_panel, b_stride, acc);
}

/// Portable fill: single accumulator per element, increasing `p`.
#[inline(always)]
fn fill_tile_scalar<const MRA: usize>(
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    acc: &mut [[f32; NR]; MRA],
) {
    for p in 0..k {
        let bp = &b_panel[p * b_stride..p * b_stride + NR];
        for r in 0..MRA {
            let av = a_sub[r * k + p];
            for l in 0..NR {
                acc[r][l] += av * bp[l];
            }
        }
    }
}

/// AVX-512F fill: one ZMM accumulator per tile row (`NR = 16` lanes),
/// broadcast `a`, separate `mul`/`add` — lane `l` of row `r` performs the
/// scalar fill's exact operation sequence for element `(r, l)`.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F, `a_sub` holds
/// `MRA · k` floats and `b_panel` holds `(k-1) · b_stride + NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fill_tile_avx512<const MRA: usize>(
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    acc: &mut [[f32; NR]; MRA],
) {
    use std::arch::x86_64::*;
    let ap = a_sub.as_ptr();
    let bp = b_panel.as_ptr();
    let mut va = [_mm512_setzero_ps(); MRA];
    for p in 0..k {
        let b = _mm512_loadu_ps(bp.add(p * b_stride));
        for (r, v) in va.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*ap.add(r * k + p));
            *v = _mm512_add_ps(*v, _mm512_mul_ps(a, b));
        }
    }
    for (r, v) in va.iter().enumerate() {
        _mm512_storeu_ps(acc[r].as_mut_ptr(), *v);
    }
}

/// AVX2 fill: two YMM accumulators per tile row, same contract as
/// [`fill_tile_avx512`].
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, `a_sub` holds `MRA · k`
/// floats and `b_panel` holds `(k-1) · b_stride + NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_tile_avx2<const MRA: usize>(
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    acc: &mut [[f32; NR]; MRA],
) {
    use std::arch::x86_64::*;
    let ap = a_sub.as_ptr();
    let bp = b_panel.as_ptr();
    let mut lo = [_mm256_setzero_ps(); MRA];
    let mut hi = [_mm256_setzero_ps(); MRA];
    for p in 0..k {
        let b0 = _mm256_loadu_ps(bp.add(p * b_stride));
        let b1 = _mm256_loadu_ps(bp.add(p * b_stride + 8));
        for r in 0..MRA {
            let a = _mm256_set1_ps(*ap.add(r * k + p));
            lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(a, b0));
            hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(a, b1));
        }
    }
    for r in 0..MRA {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), lo[r]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), hi[r]);
    }
}

/// Tiles `out += Aᵀ·B` into `TN_ROWS × NR` register tiles.
fn tn_block(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in (0..m).step_by(TN_ROWS) {
        let mra = (m - i).min(TN_ROWS);
        let a_cols = &a[i..];
        let o_band = &mut out[i * n..(i + mra) * n];
        let mut j0 = 0;
        while j0 + NR <= n {
            tn_tile(k, mra, a_cols, m, &b[j0..], n, &mut o_band[j0..]);
            j0 += NR;
        }
        // Ragged tail columns: the reference update, one element at a time.
        for j in j0..n {
            for r in 0..mra {
                let mut acc = o_band[r * n + j];
                for p in 0..k {
                    let av = a_cols[p * m + r];
                    if nonzero(av) {
                        acc += av * b[p * n + j];
                    }
                }
                o_band[r * n + j] = acc;
            }
        }
    }
}

/// One `mra × NR` tile of `Aᵀ·B` (`mra ≤ TN_ROWS`): accumulators seeded
/// from `out`, one term added per increasing `p`, exact-`+0.0`
/// multipliers skipped — the reference order with `out` held in registers
/// for the whole `k` sweep, so every non-NaN element is bit-identical to
/// [`super::Reference`].
///
/// The tile is held transposed, `acc[c][r]`: a vector is one output
/// *column*, its lanes the tile's rows. At each `p` those rows' multipliers
/// are one contiguous run of `A`, so the `+0.0` test is a single compare
/// whose mask gates every add of that `p`, and a short edge band is the
/// same body under a lane mask.
#[inline(always)]
fn tn_tile(
    k: usize,
    mra: usize,
    a_cols: &[f32],
    a_stride: usize,
    b_cols: &[f32],
    n: usize,
    o_tile: &mut [f32],
) {
    // What the unsafe sweeps rely on — checked in release builds too: once
    // per tile is nothing beside its `k` sweep.
    assert!((1..=TN_ROWS).contains(&mra));
    assert!(k == 0 || a_cols.len() >= (k - 1) * a_stride + mra);
    assert!(k == 0 || b_cols.len() >= (k - 1) * n + NR);
    assert!(o_tile.len() >= (mra - 1) * n + NR);
    let mut acc = [[0.0f32; TN_ROWS]; NR];
    for r in 0..mra {
        for (c, col) in acc.iter_mut().enumerate() {
            col[r] = o_tile[r * n + c];
        }
    }
    tn_fill(k, mra, a_cols, a_stride, b_cols, n, &mut acc);
    for r in 0..mra {
        for (c, col) in acc.iter().enumerate() {
            o_tile[r * n + c] = col[r];
        }
    }
}

/// Sweeps `k` over the transposed tile, dispatching as [`fill_tile`] does.
#[inline(always)]
fn tn_fill(
    k: usize,
    mra: usize,
    a_cols: &[f32],
    a_stride: usize,
    b_cols: &[f32],
    n: usize,
    acc: &mut [[f32; TN_ROWS]; NR],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature probed; `tn_tile` asserted the bounds (every
            // `p` reads `mra ≤ TN_ROWS` floats at `p · a_stride` and `NR`
            // at `p · n`).
            unsafe { tn_fill_avx512(k, mra, a_cols, a_stride, b_cols, n, acc) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            unsafe { tn_fill_avx2(k, mra, a_cols, a_stride, b_cols, n, acc) };
            return;
        }
    }
    for p in 0..k {
        let bp = &b_cols[p * n..p * n + NR];
        for (r, &av) in a_cols[p * a_stride..][..mra].iter().enumerate() {
            if nonzero(av) {
                for (col, &bv) in acc.iter_mut().zip(bp) {
                    col[r] += av * bv;
                }
            }
        }
    }
}

/// AVX-512F sweep: one ZMM per tile column; lanes past `mra` load as
/// `+0.0` and so never add.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F, `1 ≤ mra ≤ TN_ROWS`,
/// `a_cols` holds `(k-1) · a_stride + mra` floats and `b_cols` holds
/// `(k-1) · n + NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tn_fill_avx512(
    k: usize,
    mra: usize,
    a_cols: &[f32],
    a_stride: usize,
    b_cols: &[f32],
    n: usize,
    acc: &mut [[f32; TN_ROWS]; NR],
) {
    use std::arch::x86_64::*;
    let (ap, bp) = (a_cols.as_ptr(), b_cols.as_ptr());
    let rows: __mmask16 = u16::MAX >> (TN_ROWS - mra);
    let mut v = [_mm512_setzero_ps(); NR];
    for (v, col) in v.iter_mut().zip(acc.iter()) {
        *v = _mm512_loadu_ps(col.as_ptr());
    }
    for p in 0..k {
        let a = _mm512_maskz_loadu_ps(rows, ap.add(p * a_stride));
        let live = _mm512_cmpneq_epi32_mask(_mm512_castps_si512(a), _mm512_setzero_si512());
        for (c, v) in v.iter_mut().enumerate() {
            let term = _mm512_mul_ps(a, _mm512_set1_ps(*bp.add(p * n + c)));
            *v = _mm512_mask_add_ps(*v, live, *v, term);
        }
    }
    for (v, col) in v.iter().zip(acc.iter_mut()) {
        _mm512_storeu_ps(col.as_mut_ptr(), *v);
    }
}

/// AVX2 sweep: the tile in four `8 × 8` quarters (eight YMM accumulators
/// each), a skipped lane blended back to its old value.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, `1 ≤ mra ≤ TN_ROWS`, `a_cols`
/// holds `(k-1) · a_stride + mra` floats and `b_cols` holds
/// `(k-1) · n + NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tn_fill_avx2(
    k: usize,
    mra: usize,
    a_cols: &[f32],
    a_stride: usize,
    b_cols: &[f32],
    n: usize,
    acc: &mut [[f32; TN_ROWS]; NR],
) {
    use std::arch::x86_64::*;
    let (ap, bp) = (a_cols.as_ptr(), b_cols.as_ptr());
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for r0 in (0..mra).step_by(8) {
        let rows = _mm256_cmpgt_epi32(_mm256_set1_epi32((mra - r0) as i32), iota);
        for c0 in (0..NR).step_by(8) {
            let mut v = [_mm256_setzero_ps(); 8];
            for (c, v) in v.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(acc[c0 + c].as_ptr().add(r0));
            }
            for p in 0..k {
                let a = _mm256_maskload_ps(ap.add(p * a_stride + r0), rows);
                let skip = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                    _mm256_castps_si256(a),
                    _mm256_setzero_si256(),
                ));
                for (c, v) in v.iter_mut().enumerate() {
                    let term = _mm256_mul_ps(a, _mm256_set1_ps(*bp.add(p * n + c0 + c)));
                    *v = _mm256_blendv_ps(_mm256_add_ps(*v, term), *v, skip);
                }
            }
            for (c, v) in v.iter().enumerate() {
                _mm256_storeu_ps(acc[c0 + c].as_mut_ptr().add(r0), *v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Reference;

    #[test]
    fn tn_is_bitwise_the_reference() {
        // Zeros of both signs, subnormals and ordinary values; 70 rows of
        // 37 × 45 operands: whole tiles, a 5-row edge band, 13 tail columns.
        let (m, k, n) = (37, 70, 45);
        let hostile = |i: usize| match i % 11 {
            0 | 5 => 0.0,
            3 => -0.0,
            7 => f32::MIN_POSITIVE / 2.0,
            _ => ((i * 37 % 101) as f32 - 50.0) * 0.03,
        };
        let a: Vec<f32> = (0..k * m).map(hostile).collect();
        let b: Vec<f32> = (0..k * n).map(|i| hostile(i * 7 + 3)).collect();
        let seed: Vec<f32> = (0..m * n).map(|i| -hostile(i * 5 + 1)).collect();
        let mut want = seed.clone();
        Reference.gemm_tn_acc(m, k, n, &a, &b, &mut want);
        let mut got = seed;
        Optimized.gemm_tn_acc(m, k, n, &a, &b, &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}
