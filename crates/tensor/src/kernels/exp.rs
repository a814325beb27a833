//! The crate's one `exp`: glibc's `expf` algorithm (a 32-entry `2^(i/32)`
//! table and a cubic on the remainder, all in `f64`) with the fused steps
//! of its x86-64 FMA variant:
//!
//! * `kd + S = fma(InvLn2N, x, S)`, `r = fma(InvLn2N, x, −kd)`;
//! * `s = T[ki & 31] + (ki << 47)` as `f64` bits;
//! * `y = fma(fma(C₀, r, C₁), r², fma(C₂, r, 1)) · s`, rounded to `f32`;
//!
//! and glibc's special cases for `|x| ≥ 88`, `±∞` and NaN. Two bodies —
//! AVX-512F and a portable one on `f64::mul_add` — so the SIMD body is
//! bitwise the portable one on any host; on a glibc host whose
//! `expf` is the FMA variant (any x86-64 with FMA) both are bitwise
//! `f32::exp`, on every one of the 2³² inputs (the ignored
//! `exp_is_expf_on_every_bit_pattern` test walks them).

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2⁵²`: adding it rounds to an integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic's coefficients, scaled for a remainder in units of `ln 2 / 32`.
const C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// Above `log(2¹²⁸)` the result overflows to `+∞`.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below `log(2⁻¹⁵⁰)` it underflows to `+0.0`.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// `(bits >> 20) & 0x7ff` above this — `|x| ≥ 88`, `±∞`, NaN — may need a
/// special case.
const SPECIAL_TOP: u32 = 0x42a;

/// `T[i] = bits(2^(i/32)) − (i << 47)`: adding `ki << 47` puts `ki / 32`
/// into the exponent (glibc's `__exp2f_data.tab`).
#[repr(C, align(64))]
struct Table([u64; 32]);

static T: Table = Table([
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
]);

/// `eˣ`, the portable body: each step above on `f64::mul_add`.
pub(crate) fn exp(x: f32) -> f32 {
    if (x.to_bits() >> 20) & 0x7ff > SPECIAL_TOP {
        if x.is_nan() {
            return x + x;
        }
        if x > OVERFLOW {
            return f32::INFINITY;
        }
        if x < UNDERFLOW {
            return 0.0;
        }
    }
    let xd = f64::from(x);
    let kds = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kds.to_bits();
    let kd = kds - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(T.0[(ki & 31) as usize].wrapping_add(ki << 47));
    let y = C[0].mul_add(r, C[1]).mul_add(r * r, C[2].mul_add(r, 1.0)) * s;
    y as f32
}

/// `x ← eˣ` for every element, dispatched once per call.
pub(crate) fn exp_inplace(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the body needs only the feature probed for it.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return unsafe { exp_inplace_avx512(xs) };
        }
    }
    exp_inplace_portable(xs)
}

/// [`exp_inplace`]'s portable body.
pub(super) fn exp_inplace_portable(xs: &mut [f32]) {
    for x in xs {
        *x = exp(*x);
    }
}

/// [`exp_inplace`] 16 lanes at a time, the tail under a mask.
///
/// # Safety
/// The host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn exp_inplace_avx512(xs: &mut [f32]) {
    for chunk in xs.chunks_mut(16) {
        let (p, mask) = (
            chunk.as_mut_ptr(),
            (1u32 << chunk.len()).wrapping_sub(1) as u16,
        );
        _mm512_mask_storeu_ps(p, mask, exp16_avx512(_mm512_maskz_loadu_ps(mask, p)));
    }
}

/// [`exp`] on 16 lanes: two halves of 8 × `f64`, the table read through
/// two two-source permutes.
///
/// # Safety
/// The host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
pub(super) unsafe fn exp16_avx512(x: __m512) -> __m512 {
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x)));
    let lo = _mm512_castps_pd(_mm512_castps256_ps512(exp8_avx512(_mm512_castps512_ps256(
        x,
    ))));
    let y = _mm512_castpd_ps(_mm512_insertf64x4::<1>(
        lo,
        _mm256_castps_pd(exp8_avx512(hi)),
    ));
    let top = _mm512_srli_epi32::<20>(_mm512_castps_si512(x));
    let top = _mm512_and_si512(top, _mm512_set1_epi32(0x7ff));
    if _mm512_cmpgt_epi32_mask(top, _mm512_set1_epi32(SPECIAL_TOP as i32)) == 0 {
        return y;
    }
    let over = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, _mm512_set1_ps(OVERFLOW));
    let y = _mm512_mask_mov_ps(y, over, _mm512_set1_ps(f32::INFINITY));
    let under = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_set1_ps(UNDERFLOW));
    let y = _mm512_mask_mov_ps(y, under, _mm512_setzero_ps());
    _mm512_mask_add_ps(y, _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x), x, x)
}

/// [`exp`]'s main path on 8 lanes in `f64`, special cases aside.
///
/// # Safety
/// The host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn exp8_avx512(x: __m256) -> __m256 {
    let (inv, shift) = (_mm512_set1_pd(INV_LN2_N), _mm512_set1_pd(SHIFT));
    let xd = _mm512_cvtps_pd(x);
    let kds = _mm512_fmadd_pd(inv, xd, shift);
    let ki = _mm512_castpd_si512(kds);
    let r = _mm512_fmsub_pd(inv, xd, _mm512_sub_pd(kds, shift));
    let t = T.0.as_ptr() as *const __m512i;
    let low = _mm512_permutex2var_epi64(_mm512_load_si512(t), ki, _mm512_load_si512(t.add(1)));
    let high =
        _mm512_permutex2var_epi64(_mm512_load_si512(t.add(2)), ki, _mm512_load_si512(t.add(3)));
    let t = _mm512_mask_mov_epi64(low, _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), high);
    let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
    let z = _mm512_fmadd_pd(_mm512_set1_pd(C[0]), r, _mm512_set1_pd(C[1]));
    let y = _mm512_fmadd_pd(_mm512_set1_pd(C[2]), r, _mm512_set1_pd(1.0));
    let y = _mm512_fmadd_pd(z, _mm512_mul_pd(r, r), y);
    _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
}

/// An [`exp_inplace`] body.
#[cfg(test)]
pub(super) type Body = unsafe fn(&mut [f32]);

/// Every [`exp_inplace`] body the host can run, by name.
#[cfg(test)]
pub(super) fn bodies() -> Vec<(&'static str, Body)> {
    let mut bodies: Vec<(&'static str, Body)> = vec![("portable", exp_inplace_portable)];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            bodies.push(("avx512", exp_inplace_avx512));
        }
    }
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All 2³² inputs, in blocks of 2¹⁶ split over two threads: every body
    /// bit-equal to the portable one, and the portable one to `f32::exp`
    /// (glibc's FMA `expf`, NaN payloads included).
    #[test]
    #[ignore = "walks all 2³² inputs, ≈ 1–2 min in release"]
    fn exp_is_expf_on_every_bit_pattern() {
        const BLOCKS: u32 = 1 << 16;
        std::thread::scope(|scope| {
            for part in 0..2 {
                scope.spawn(move || {
                    let bodies = bodies();
                    let (mut want, mut got) = (vec![0.0f32; 1 << 16], vec![0.0f32; 1 << 16]);
                    for block in (part..BLOCKS).step_by(2) {
                        let xs = (0..1 << 16).map(|low| f32::from_bits(block << 16 | low));
                        want.iter_mut().zip(xs).for_each(|(w, x)| *w = x);
                        let inputs = want.clone();
                        exp_inplace_portable(&mut want);
                        for (&x, &w) in inputs.iter().zip(&want) {
                            let libm = x.exp();
                            assert_eq!(w.to_bits(), libm.to_bits(), "portable exp({x:e}) vs expf");
                        }
                        for &(name, body) in &bodies[1..] {
                            got.copy_from_slice(&inputs);
                            // SAFETY: `bodies` lists only what the host runs.
                            unsafe { body(&mut got) };
                            for ((&x, &g), &w) in inputs.iter().zip(&got).zip(&want) {
                                assert_eq!(g.to_bits(), w.to_bits(), "{name} exp({x:e})");
                            }
                        }
                    }
                });
            }
        });
    }
}
