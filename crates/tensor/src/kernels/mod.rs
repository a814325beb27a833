//! Swappable GEMM / dot kernel backends.
//!
//! Every dense matrix product in the crate funnels through the
//! [`KernelBackend`] trait: `tensor.rs` keeps shape checks and dispatch,
//! the raw slice arithmetic lives here. Two backends exist:
//!
//! * [`Reference`] — the scalar oracle. Bit-compatible with the kernels
//!   that historically lived inline in `tensor.rs`; every bitwise-parity
//!   guarantee in the workspace (batched vs per-node engines, striped
//!   `tn`, checkpoint restore) is stated against this backend.
//! * [`Optimized`] — an output tile held in registers for the whole `k`
//!   sweep in all three products: `A·B` on packed panels of `B`, `A·Bᵀ` on
//!   the same panels packed from `Bᵀ` (so the two are one arithmetic), and
//!   `Aᵀ·B` on a tile seeded from `out`. Hot inner loops dispatch at
//!   runtime to AVX-512F / AVX2 intrinsics (the compile target is baseline
//!   x86-64). `Aᵀ·B` keeps the reference element order and `+0.0` skip, so
//!   weight gradients are bit-identical across backends (NaN payloads
//!   aside); `A·B` and `A·Bᵀ` differ from [`Reference`] only by the
//!   documented tolerance contract (see `DESIGN.md`).
//!
//! The ragged attention ops (`segment_attention`, `segment_weighted_sum`,
//! `segment_mean_rows`, the row gather and their adjoints) are not behind
//! the trait: like `spmm` they have one implementation, built on
//! `dot_wide` / `axpy_wide` below, whatever the backend.
//!
//! The active backend is a per-[`crate::Tape`] property
//! ([`crate::Tape::set_backend`]); tensors' plain `matmul*` methods use
//! the process-wide default, initialised lazily from the
//! `WIDEN_KERNEL_BACKEND` environment variable (`reference` |
//! `optimized`, defaulting to `reference`).

pub(crate) mod optimized;
pub(crate) mod reference;

pub use optimized::Optimized;
pub use reference::Reference;

use std::sync::atomic::{AtomicU8, Ordering};

/// Work threshold (`m·k·n`) above which GEMM kernels parallelise via rayon.
pub(crate) const PAR_MATMUL_THRESHOLD: usize = 64 * 64 * 64;

/// Target byte footprint for one `gemm_tn_acc` output stripe (~half a
/// typical L2 slice), so the accumulating block stays cache-resident.
pub(crate) const TN_BLOCK_BYTES: usize = 256 * 1024;

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
/// Implementations must be deterministic for a given input (including
/// across thread counts) and *row-deterministic*: the value written to an
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
/// formats for free. [`BackendKind::Reference`] is the default everywhere
/// a value is constructed without consulting [`default_backend`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BackendKind {
    /// Scalar oracle, bit-compatible with the historical inline kernels.
    #[default]
    Reference = 0,
    /// Packed, register-tiled GEMM (tolerance-bounded vs
    /// [`BackendKind::Reference`] on `A·B` and `A·Bᵀ`; bit-identical on
    /// `Aᵀ·B` and `dot`).
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

    /// Parses a backend name as accepted by `WIDEN_KERNEL_BACKEND`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "reference" => Some(BackendKind::Reference),
            "optimized" => Some(BackendKind::Optimized),
            _ => None,
        }
    }

    /// Reads `WIDEN_KERNEL_BACKEND`; unset means [`BackendKind::Reference`].
    ///
    /// # Panics
    /// Panics on an unrecognised value — a typo in CI must fail loudly,
    /// not silently fall back to the oracle.
    pub fn from_env() -> Self {
        match std::env::var("WIDEN_KERNEL_BACKEND") {
            Ok(v) => Self::from_name(&v).unwrap_or_else(|| {
                panic!("unknown WIDEN_KERNEL_BACKEND value `{v}` (expected `reference` or `optimized`)")
            }),
            Err(_) => BackendKind::Reference,
        }
    }

    /// Both backends, for parameterised tests.
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Reference, BackendKind::Optimized]
    }
}

const DEFAULT_UNSET: u8 = u8::MAX;
static DEFAULT_BACKEND: AtomicU8 = AtomicU8::new(DEFAULT_UNSET);

/// The process-wide default backend used by tensors' plain `matmul*`
/// methods and freshly created tapes.
///
/// Lazily initialised from `WIDEN_KERNEL_BACKEND` on first read (so a CI
/// matrix can flip a whole test binary per run); overridable with
/// [`set_default_backend`].
pub fn default_backend() -> BackendKind {
    match DEFAULT_BACKEND.load(Ordering::Relaxed) {
        0 => BackendKind::Reference,
        1 => BackendKind::Optimized,
        _ => {
            let kind = BackendKind::from_env();
            DEFAULT_BACKEND.store(kind as u8, Ordering::Relaxed);
            kind
        }
    }
}

/// Overrides the process-wide default backend (see [`default_backend`]).
pub fn set_default_backend(kind: BackendKind) {
    DEFAULT_BACKEND.store(kind as u8, Ordering::Relaxed);
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
/// [`KernelBackend::dot`] of both backends, [`Reference`]'s `A·Bᵀ`, and
/// the body [`dot_wide`] recompiles for wider vectors.
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

/// Shortest slice the `*_wide` helpers hand to a wide-vector copy. Such a
/// copy cannot inline into its baseline caller, and below four lane chunks
/// the call costs more than the wide lanes save (dispatching at one chunk
/// ran `d = 16` fits ≈ 1.5× slower).
const WIDE_MIN_LEN: usize = 4 * DOT_LANES;

/// [`dot`] with runtime dispatch to copies of itself compiled for
/// AVX-512F and AVX2 (the workspace targets baseline x86-64, so the
/// compiler cannot use wide vectors on its own) — what the ragged
/// attention ops call, on either backend. The copies are the same source:
/// same lanes, same order, nothing fused or reassociated, so every variant
/// is bit-identical to [`dot`].
#[inline]
pub(crate) fn dot_wide(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if a.len() >= WIDE_MIN_LEN {
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512(a: &[f32], b: &[f32]) -> f32 {
            dot(a, b)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn avx2(a: &[f32], b: &[f32]) -> f32 {
            dot(a, b)
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU feature, the copy's one requirement, was
            // probed; its body is safe code.
            return unsafe { avx512(a, b) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            return unsafe { avx2(a, b) };
        }
    }
    dot(a, b)
}

/// [`axpy`] with the runtime dispatch of [`dot_wide`], bit-identical to
/// [`axpy`] for the same reason.
#[inline]
pub(crate) fn axpy_wide(alpha: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if x.len() >= WIDE_MIN_LEN {
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512(alpha: f32, x: &[f32], y: &mut [f32]) {
            axpy(alpha, x, y)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
            axpy(alpha, x, y)
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature probed; the body is safe code.
            return unsafe { avx512(alpha, x, y) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            return unsafe { avx2(alpha, x, y) };
        }
    }
    axpy(alpha, x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_names() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.dispatch().name(), kind.name());
        }
        assert_eq!(
            BackendKind::from_name(" Optimized \n"),
            Some(BackendKind::Optimized)
        );
        assert_eq!(BackendKind::from_name("simd"), None);
    }

    #[test]
    fn set_default_backend_overrides_env_choice() {
        let before = default_backend();
        set_default_backend(BackendKind::Optimized);
        assert_eq!(default_backend(), BackendKind::Optimized);
        set_default_backend(before);
        assert_eq!(default_backend(), before);
    }
}
