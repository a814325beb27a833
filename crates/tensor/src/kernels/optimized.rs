//! Packed, register-tiled GEMM backend.
//!
//! The [`Reference`] `A·B` kernel streams the whole output row through
//! memory once per inner-dimension step (`n` loads + `n` stores per `p`);
//! the kernels here instead hold an output tile in registers for the full
//! `k` sweep. `A·B` computes an `MR × NR` tile — `MR` query rows share
//! every load of a B panel row — from B repacked into contiguous
//! `NR`-wide panels (two cache lines per `p`) through the thread-local
//! scratch arena in `pool.rs`. `A·Bᵀ` packs `Bᵀ` into the same panels and
//! runs the same kernel. `Aᵀ·B`, the weight-gradient product, keeps a
//! `TN_ROWS × TN_COLS` tile of `out` itself in registers (see
//! [`tn_tile`]).
//!
//! ## One rounding per term
//!
//! Every body of every product is a fused multiply-add chain: an element's
//! accumulator takes `fma(a[i][p], b[p][j], acc)` for increasing `p`,
//! rounding once per term. `A·B` and `A·Bᵀ` start the accumulator at
//! `+0.0` and add it to `out` once, at the end; `Aᵀ·B` seeds it from `out`
//! and skips exact-`+0.0` multipliers.
//!
//! ## Parity contract
//!
//! [`Reference`] runs the same fused chains in its own loop orders, so
//! against it the `A·B` tile differs in exactly two ways:
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
//! the row count, so it stands under the same two terms. `Aᵀ·B` and `dot`
//! replicate the reference arithmetic element for element: every non-NaN
//! result is bit-identical, and a NaN on one backend is a NaN on the other.
//! NaN *payloads* carry no guarantee anywhere — x86 returns the first NaN
//! operand, and a compiler may commute a vector add.
//!
//! ## Runtime SIMD dispatch
//!
//! The workspace compiles for baseline x86-64 (SSE2), so the wide-vector
//! inner loops here are explicit intrinsics behind
//! `is_x86_feature_detected!` probes — AVX-512F first, then AVX2 + FMA,
//! then a portable body on `f32::mul_add`. Every SIMD body vectorises
//! **across output elements** (tile columns or rows) and each element
//! sees the portable body's fused sequence, so all bodies of a kernel are
//! bit-identical on any host (`gemm_body_contract` calls each one).

use super::{dot, nonzero, KernelBackend};
use crate::pool::with_pack_scratch;

/// Packed, register-tiled GEMM backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct Optimized;

/// Rows per register tile: each B-panel load is reused across `MR` rows.
const MR: usize = 8;

/// Columns per register tile / packed-panel width. On AVX-512 the
/// `MR × NR` accumulator tile is 16 ZMM registers — sixteen independent
/// FMA chains, half the register file, no spills.
const NR: usize = 32;

/// Rows per `Aᵀ·B` register tile — the vector lanes of its transposed
/// accumulators (one ZMM, two YMM): at every `p` a tile consumes one
/// cache line of `A` and one of `B`.
const TN_ROWS: usize = 16;

/// Columns per `Aᵀ·B` register tile: one transposed accumulator each.
const TN_COLS: usize = 16;

/// Pack B only once there is a whole `MR` band to amortise the extra pass
/// over B (below this, the tile kernel reads B in place).
const PACK_MIN_M: usize = MR;

impl KernelBackend for Optimized {
    fn name(&self) -> &'static str {
        "optimized"
    }

    fn gemm_nn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_nn(Body::widest(), m, k, n, a, b, out);
    }

    fn gemm_nt_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_nt(Body::widest(), m, k, n, a, b, out);
    }

    fn gemm_tn_acc(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_tn(Body::widest(), m, k, n, a, b, out);
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        dot(a, b)
    }
}

/// Which tile bodies a GEMM call runs: the portable one, or a SIMD one the
/// CPU was probed for. Only [`Body::widest`] and the contract tests' probe
/// name a SIMD variant, so holding one proves its features.
#[derive(Clone, Copy, Debug)]
enum Body {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Body {
    /// The widest body the CPU supports, probed once per GEMM call
    /// (`is_x86_feature_detected!` caches the CPUID probe in a static).
    fn widest() -> Body {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Body::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Body::Avx2Fma;
            }
        }
        Body::Portable
    }
}

fn gemm_nn(body: Body, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m >= PACK_MIN_M {
        with_pack_scratch(n.div_ceil(NR) * k * NR, |packed| {
            pack_b(k, n, b, packed);
            nn_block(body, m, k, n, a, BSource::Packed(packed), out);
        });
    } else {
        nn_block(body, m, k, n, a, BSource::Raw(b), out);
    }
}

fn gemm_nt(body: Body, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Always the packed tile kernel, whatever `m`: an output row must not
    // depend on how many other rows share its batch.
    with_pack_scratch(n.div_ceil(NR) * k * NR, |packed| {
        pack_bt(k, n, b, packed);
        nn_block(body, m, k, n, a, BSource::Packed(packed), out);
    });
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
    for (panel, dst) in packed.chunks_exact_mut(k * NR).enumerate() {
        let j0 = panel * NR;
        let w = (n - j0).min(NR);
        for (p, d) in dst.chunks_exact_mut(NR).enumerate() {
            d[..w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
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
fn nn_block(body: Body, m: usize, k: usize, n: usize, a: &[f32], b: BSource<'_>, out: &mut [f32]) {
    for i in (0..m).step_by(MR) {
        let mra = (m - i).min(MR);
        let a_sub = &a[i * k..(i + mra) * k];
        let o_sub = &mut out[i * n..(i + mra) * n];
        match mra {
            8 => row_band::<8>(body, k, n, a_sub, b, o_sub),
            7 => row_band::<7>(body, k, n, a_sub, b, o_sub),
            6 => row_band::<6>(body, k, n, a_sub, b, o_sub),
            5 => row_band::<5>(body, k, n, a_sub, b, o_sub),
            4 => row_band::<4>(body, k, n, a_sub, b, o_sub),
            3 => row_band::<3>(body, k, n, a_sub, b, o_sub),
            2 => row_band::<2>(body, k, n, a_sub, b, o_sub),
            _ => row_band::<1>(body, k, n, a_sub, b, o_sub),
        }
    }
}

/// One `MRA`-row band: one tile per `NR`-wide column panel of B, the last
/// one `n mod NR` wide when `NR` does not divide `n`.
fn row_band<const MRA: usize>(
    body: Body,
    k: usize,
    n: usize,
    a_sub: &[f32],
    b: BSource<'_>,
    o_sub: &mut [f32],
) {
    for (panel, j0) in (0..n).step_by(NR).enumerate() {
        let w = (n - j0).min(NR);
        let (b_panel, b_stride) = match b {
            BSource::Packed(packed) => (&packed[panel * k * NR..(panel + 1) * k * NR], NR),
            BSource::Raw(raw) => (&raw[j0..], n),
        };
        nn_tile::<MRA>(body, k, a_sub, b_panel, b_stride, w, &mut o_sub[j0..], n);
    }
}

/// One `MRA × w` tile (`w ≤ NR`): `o[r][c] += Σ_p a[r][p] · b[p][c]`, the
/// sum one fused chain from `+0.0` in increasing `p`, added to `o` once.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn nn_tile<const MRA: usize>(
    body: Body,
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    w: usize,
    o: &mut [f32],
    n: usize,
) {
    // What the unsafe bodies rely on — checked in release builds too: once
    // per tile is nothing beside its `k` sweep.
    assert!((1..=NR).contains(&w) && k > 0);
    assert!(a_sub.len() >= MRA * k);
    assert!(b_panel.len() >= (k - 1) * b_stride + w);
    assert!(o.len() >= (MRA - 1) * n + w);
    match body {
        Body::Portable => nn_tile_portable::<MRA>(k, a_sub, b_panel, b_stride, w, o, n),
        // SAFETY: a SIMD `Body` exists only where its features were probed;
        // bounds asserted above (every `p` reads `w` floats at
        // `p · b_stride`, every row `r` writes `w` at `r · n`), and the
        // second half only where `w > 16`.
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 if w > 16 => unsafe {
            nn_tile_avx512::<MRA, 2>(k, a_sub, b_panel, b_stride, w, o, n)
        },
        // SAFETY: as above, `w ≤ 16`.
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => unsafe { nn_tile_avx512::<MRA, 1>(k, a_sub, b_panel, b_stride, w, o, n) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Body::Avx2Fma => unsafe { nn_tile_avx2::<MRA>(k, a_sub, b_panel, b_stride, w, o, n) },
    }
}

/// Portable tile: `p` outer, the `w` lanes of each row inner, one
/// `f32::mul_add` per term into a per-element accumulator from `+0.0`,
/// added to `o` once — the lane loop vectorises where FMA is native.
#[inline(always)]
fn nn_tile_portable<const MRA: usize>(
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    w: usize,
    o: &mut [f32],
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MRA];
    for p in 0..k {
        let bp = &b_panel[p * b_stride..p * b_stride + w];
        for (r, acc) in acc.iter_mut().enumerate() {
            let av = a_sub[r * k + p];
            for (acc, &bv) in acc[..w].iter_mut().zip(bp) {
                *acc = av.mul_add(bv, *acc);
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (o, &acc) in o[r * n..r * n + w].iter_mut().zip(&acc[..w]) {
            *o += acc;
        }
    }
}

/// The lowest `w` lanes of a 16-lane mask (all of them from `w = 16` on).
#[cfg(target_arch = "x86_64")]
fn lanes16(w: usize) -> u16 {
    ((1u32 << w.min(16)) - 1) as u16
}

/// AVX-512F tile: `H` ZMM accumulators per row (`H = 2` covers `NR = 32`
/// lanes; a tile at most 16 wide takes `H = 1`), broadcast `a`, one
/// `vfmadd231ps` per term — lane `c` of row `r` performs the portable
/// body's sequence for element `(r, c)`. Columns past `w` load as `+0.0`
/// and are never stored.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F, `16 · (H-1) < w ≤ 16 · H`,
/// `k ≥ 1`, `a_sub` holds `MRA · k` floats, `b_panel` holds
/// `(k-1) · b_stride + w` and `o` holds `(MRA-1) · n + w`. Every pointer
/// the body forms then lies inside its slice: half `h` starts at lane
/// `16 · h < w`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn nn_tile_avx512<const MRA: usize, const H: usize>(
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    w: usize,
    o: &mut [f32],
    n: usize,
) {
    use std::arch::x86_64::*;
    let (ap, bp, op) = (a_sub.as_ptr(), b_panel.as_ptr(), o.as_mut_ptr());
    let mut mask = [0u16; H];
    for (h, mask) in mask.iter_mut().enumerate() {
        *mask = lanes16(w - 16 * h);
    }
    let mut acc = [[_mm512_setzero_ps(); H]; MRA];
    let mut b = [_mm512_setzero_ps(); H];
    for p in 0..k {
        for (h, b) in b.iter_mut().enumerate() {
            *b = _mm512_maskz_loadu_ps(mask[h], bp.add(p * b_stride + 16 * h));
        }
        for (r, acc) in acc.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*ap.add(r * k + p));
            for (acc, &b) in acc.iter_mut().zip(&b) {
                *acc = _mm512_fmadd_ps(a, b, *acc);
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (h, &acc) in acc.iter().enumerate() {
            let o = op.add(r * n + 16 * h);
            let sum = _mm512_add_ps(_mm512_maskz_loadu_ps(mask[h], o), acc);
            _mm512_mask_storeu_ps(o, mask[h], sum);
        }
    }
}

/// AVX2 + FMA tile: the `NR` columns in four 8-lane slices, one YMM
/// accumulator per row each, same contract as [`nn_tile_avx512`].
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA; operands as for
/// [`nn_tile_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn nn_tile_avx2<const MRA: usize>(
    k: usize,
    a_sub: &[f32],
    b_panel: &[f32],
    b_stride: usize,
    w: usize,
    o: &mut [f32],
    n: usize,
) {
    use std::arch::x86_64::*;
    let (ap, bp, op) = (a_sub.as_ptr(), b_panel.as_ptr(), o.as_mut_ptr());
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for c0 in (0..w).step_by(8) {
        let cols = _mm256_cmpgt_epi32(_mm256_set1_epi32((w - c0) as i32), iota);
        let mut acc = [_mm256_setzero_ps(); MRA];
        for p in 0..k {
            let b = _mm256_maskload_ps(bp.add(p * b_stride + c0), cols);
            for (r, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(r * k + p)), b, *acc);
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let o = op.add(r * n + c0);
            _mm256_maskstore_ps(o, cols, _mm256_add_ps(_mm256_maskload_ps(o, cols), *acc));
        }
    }
}

/// Tiles `out += Aᵀ·B` into `TN_ROWS`-high bands of `TN_COLS`-wide tiles,
/// the columns past the last whole tile one single-column tile each.
fn gemm_tn(body: Body, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for i in (0..m).step_by(TN_ROWS) {
        let mra = (m - i).min(TN_ROWS);
        let a_cols = &a[i..];
        let o_band = &mut out[i * n..(i + mra) * n];
        let whole = n - n % TN_COLS;
        for j0 in (0..whole).step_by(TN_COLS) {
            tn_tile::<TN_COLS>(body, k, mra, a_cols, m, &b[j0..], n, &mut o_band[j0..]);
        }
        for j in whole..n {
            tn_tile::<1>(body, k, mra, a_cols, m, &b[j..], n, &mut o_band[j..]);
        }
    }
}

/// One `mra × C` tile of `Aᵀ·B` (`mra ≤ TN_ROWS`): accumulators seeded
/// from `out`, one fused term per increasing `p`, exact-`+0.0`
/// multipliers skipped — the reference order with `out` held in registers
/// for the whole `k` sweep, so every non-NaN element is bit-identical to
/// [`super::Reference`].
///
/// The tile is held transposed, `acc[c][r]`: a vector is one output
/// *column*, its lanes the tile's rows. At each `p` those rows' multipliers
/// are one contiguous run of `A`, so the `+0.0` test is a single compare
/// whose mask gates every term of that `p`, and a short edge band is the
/// same body under a lane mask.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_tile<const C: usize>(
    body: Body,
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
    assert!((1..=TN_ROWS).contains(&mra) && k > 0);
    assert!(a_cols.len() >= (k - 1) * a_stride + mra);
    assert!(b_cols.len() >= (k - 1) * n + C);
    assert!(o_tile.len() >= (mra - 1) * n + C);
    let mut acc = [[0.0f32; TN_ROWS]; C];
    for r in 0..mra {
        for (c, col) in acc.iter_mut().enumerate() {
            col[r] = o_tile[r * n + c];
        }
    }
    let acc_ref = &mut acc;
    match body {
        Body::Portable => tn_fill_portable::<C>(k, mra, a_cols, a_stride, b_cols, n, acc_ref),
        // SAFETY: a SIMD `Body` exists only where its features were probed;
        // bounds asserted above (every `p` reads `mra ≤ TN_ROWS` floats at
        // `p · a_stride` and `C` at `p · n`).
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => unsafe {
            tn_fill_avx512::<C>(k, mra, a_cols, a_stride, b_cols, n, acc_ref)
        },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Body::Avx2Fma => unsafe { tn_fill_avx2::<C>(k, mra, a_cols, a_stride, b_cols, n, acc_ref) },
    }
    for r in 0..mra {
        for (c, col) in acc.iter().enumerate() {
            o_tile[r * n + c] = col[r];
        }
    }
}

/// Portable sweep: per row, the `+0.0` test, then one `f32::mul_add` per
/// column.
#[inline(always)]
fn tn_fill_portable<const C: usize>(
    k: usize,
    mra: usize,
    a_cols: &[f32],
    a_stride: usize,
    b_cols: &[f32],
    n: usize,
    acc: &mut [[f32; TN_ROWS]; C],
) {
    for p in 0..k {
        let bp = &b_cols[p * n..p * n + C];
        for (r, &av) in a_cols[p * a_stride..][..mra].iter().enumerate() {
            if nonzero(av) {
                for (col, &bv) in acc.iter_mut().zip(bp) {
                    col[r] = av.mul_add(bv, col[r]);
                }
            }
        }
    }
}

/// AVX-512F sweep: one ZMM per tile column; lanes past `mra` load as
/// `+0.0` and so never take a term.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F, `1 ≤ mra ≤ TN_ROWS`,
/// `a_cols` holds `(k-1) · a_stride + mra` floats and `b_cols` holds
/// `(k-1) · n + C`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tn_fill_avx512<const C: usize>(
    k: usize,
    mra: usize,
    a_cols: &[f32],
    a_stride: usize,
    b_cols: &[f32],
    n: usize,
    acc: &mut [[f32; TN_ROWS]; C],
) {
    use std::arch::x86_64::*;
    let (ap, bp) = (a_cols.as_ptr(), b_cols.as_ptr());
    let rows: __mmask16 = lanes16(mra);
    let mut v = [_mm512_setzero_ps(); C];
    for (v, col) in v.iter_mut().zip(acc.iter()) {
        *v = _mm512_loadu_ps(col.as_ptr());
    }
    for p in 0..k {
        let a = _mm512_maskz_loadu_ps(rows, ap.add(p * a_stride));
        let live = _mm512_cmpneq_epi32_mask(_mm512_castps_si512(a), _mm512_setzero_si512());
        // Opaque to the optimiser, which would otherwise invert the compare
        // and turn each masked FMA into an FMA, a blend and a register copy
        // (the 1 213-deep `Aᵀ·B` of a paper-width chunk took ≈ 1.5× as
        // long). Only speed rests on it: the bits are the same either way.
        let live = std::hint::black_box(live);
        for (c, v) in v.iter_mut().enumerate() {
            *v = _mm512_mask3_fmadd_ps(a, _mm512_set1_ps(*bp.add(p * n + c)), *v, live);
        }
    }
    for (v, col) in v.iter().zip(acc.iter_mut()) {
        _mm512_storeu_ps(col.as_mut_ptr(), *v);
    }
}

/// AVX2 + FMA sweep: the tile in `8 × 8` quarters (up to eight YMM
/// accumulators each), a skipped lane blended back to its old value.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA; operands as for
/// [`tn_fill_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tn_fill_avx2<const C: usize>(
    k: usize,
    mra: usize,
    a_cols: &[f32],
    a_stride: usize,
    b_cols: &[f32],
    n: usize,
    acc: &mut [[f32; TN_ROWS]; C],
) {
    use std::arch::x86_64::*;
    let (ap, bp) = (a_cols.as_ptr(), b_cols.as_ptr());
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for r0 in (0..mra).step_by(8) {
        let rows = _mm256_cmpgt_epi32(_mm256_set1_epi32((mra - r0) as i32), iota);
        for c0 in (0..C).step_by(8) {
            let mut v = [_mm256_setzero_ps(); 8];
            let v = &mut v[..(C - c0).min(8)];
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
                    let b = _mm256_set1_ps(*bp.add(p * n + c0 + c));
                    *v = _mm256_blendv_ps(_mm256_fmadd_ps(a, b, *v), *v, skip);
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

/// Every GEMM body the host supports against the portable one, bit for bit
/// (NaN ⇔ NaN, payloads aside): an AVX-512 host never runs the AVX2 or
/// portable bodies otherwise. Edge bands `m` 1–17 and 60, partial panels
/// and tiles in `n`, short and paper-width `k`, hostile operands
/// accumulated into a hostile `out`.
#[cfg(test)]
mod gemm_body_contract {
    use super::*;

    const NS: [usize; 5] = [3, 16, 17, 33, 128];
    const KS: [usize; 5] = [1, 7, 32, 96, 128];

    type Gemm = fn(Body, usize, usize, usize, &[f32], &[f32], &mut [f32]);

    fn simd_bodies() -> Vec<Body> {
        #[allow(unused_mut)]
        let mut bodies = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                bodies.push(Body::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                bodies.push(Body::Avx2Fma);
            }
        }
        bodies
    }

    /// Zeros of both signs, subnormals, ±1e30 (whose products overflow)
    /// and 1e-30 (whose products underflow), one in nine elements, among
    /// ordinary values, and a NaN about once in 1 500, in an order fixed
    /// by `seed`.
    fn operand(seed: u64, len: usize) -> Vec<f32> {
        const SPECIAL: [f32; 7] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 4.0,
            1.0e30,
            -1.0e30,
            1.0e-30,
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match (state % 1536, state % 63) {
                    (0, _) => f32::NAN,
                    (_, pick @ 0..=6) => SPECIAL[pick as usize],
                    (_, ordinary) => (ordinary as f32 - 31.0) * 0.0625,
                }
            })
            .collect()
    }

    fn check(name: &str, gemm: Gemm) {
        let bodies = simd_bodies();
        for k in KS {
            for n in NS {
                let b = operand((k * 1000 + n) as u64, k * n);
                for m in (1..=17).chain([60]) {
                    let a = operand((m * 7 + k * 131 + n) as u64, m * k);
                    let seed = operand((m * n + 5) as u64, m * n);
                    let mut want = seed.clone();
                    gemm(Body::Portable, m, k, n, &a, &b, &mut want);
                    for &body in &bodies {
                        let mut got = seed.clone();
                        gemm(body, m, k, n, &a, &b, &mut got);
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                "{name} {body:?}, m={m} k={k} n={n}, element {i}: {g:e} vs {w:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nn_every_body_is_the_portable_body() {
        check("nn", gemm_nn);
    }

    #[test]
    fn nt_every_body_is_the_portable_body() {
        check("nt", gemm_nt);
    }

    #[test]
    fn tn_every_body_is_the_portable_body() {
        check("tn", gemm_tn);
    }
}
