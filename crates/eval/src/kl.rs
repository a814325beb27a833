//! Kullback–Leibler divergence between attention distributions — the
//! downsampling trigger of Eq. 9.

/// Additive smoothing mass applied to every slot before renormalisation.
///
/// Chosen so that a vanished slot (`q_i = 0` against `p_i > 0`) yields a
/// *large but finite* divergence (≈ `p_i · ln(p_i/ε)` ≈ 13·p_i), orders of
/// magnitude above any realistic Eq. 9 threshold `r` (the paper uses
/// `1e-3`) — the "no overlap ⇒ never downsample" semantics survive without
/// ever producing `inf`/`NaN`.
pub const KL_SMOOTHING_EPS: f64 = 1e-6;

/// `KL(p ‖ q) = Σ p̃_i ln(p̃_i / q̃_i)` over ε-smoothed, renormalised
/// copies of the inputs.
///
/// Matches Eq. 9's convention: `p` is the *previous* epoch's attention
/// distribution, `q` the current one. Robustness contract (the Eq. 9
/// trigger compares the result against a threshold every epoch, so it must
/// never be poisoned):
///
/// * **always finite** — every slot gets [`KL_SMOOTHING_EPS`] added before
///   renormalising, so `q_i = 0` never divides by zero; it contributes a
///   large positive term,
/// * **never negative** — both sides are renormalised to proper
///   distributions first (so unnormalised inputs cannot drive the sum
///   below zero), and the result is clamped at `0` against f32
///   round-off,
/// * **tolerant of garbage** — negative, `NaN` or infinite entries are
///   treated as empty slots (mass 0) rather than propagating.
///
/// Two all-zero inputs smooth to uniform and give `KL = 0`.
///
/// # Panics
/// Panics if the distributions have different lengths.
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    if p.is_empty() {
        return 0.0;
    }
    let clamp = |x: f32| {
        let v = f64::from(x);
        if v.is_finite() && v > 0.0 {
            v
        } else {
            0.0
        }
    };
    let n = p.len() as f64;
    let p_norm: f64 = p.iter().map(|&x| clamp(x)).sum::<f64>() + KL_SMOOTHING_EPS * n;
    let q_norm: f64 = q.iter().map(|&x| clamp(x)).sum::<f64>() + KL_SMOOTHING_EPS * n;
    let mut total = 0.0f64;
    for (&pi, &qi) in p.iter().zip(q) {
        let ps = (clamp(pi) + KL_SMOOTHING_EPS) / p_norm;
        let qs = (clamp(qi) + KL_SMOOTHING_EPS) / q_norm;
        total += ps * (ps / qs).ln();
    }
    total.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_zero_kl() {
        let p = [0.25, 0.25, 0.5];
        assert_eq!(kl_divergence(&p, &p), 0.0);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        let kl = kl_divergence(&p, &q);
        assert!(kl > 0.0);
        // Hand computation: 0.9 ln(1.8) + 0.1 ln(0.2) ≈ 0.368.
        assert!((kl - 0.3680).abs() < 1e-3);
    }

    #[test]
    fn kl_is_asymmetric() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        assert!((kl_divergence(&p, &q) - kl_divergence(&q, &p)).abs() > 1e-3);
    }

    #[test]
    fn zero_q_support_is_large_but_finite() {
        // Regression: this used to return +∞, which poisoned every
        // downstream mean/min aggregate. The smoothed value must stay far
        // above any plausible Eq. 9 threshold so the trigger still never
        // fires on disjoint support.
        let kl = kl_divergence(&[0.5, 0.5], &[1.0, 0.0]);
        assert!(kl.is_finite());
        assert!(kl > 1.0, "smoothed no-overlap KL should be large, got {kl}");
    }

    #[test]
    fn one_hot_distributions_are_finite_both_ways() {
        // Regression: p one-hot vs q one-hot on a different slot has zero
        // overlap in both directions.
        let p = [1.0, 0.0, 0.0];
        let q = [0.0, 0.0, 1.0];
        let ab = kl_divergence(&p, &q);
        let ba = kl_divergence(&q, &p);
        assert!(ab.is_finite() && ab > 1.0);
        assert!(ba.is_finite() && ba > 1.0);
        assert_eq!(kl_divergence(&p, &p), 0.0);
    }

    #[test]
    fn zero_mass_distributions_give_zero_kl() {
        // Regression: all-zero attention (a fully masked or degenerate
        // slot) used to hit 0/0 = NaN paths; both sides smooth to uniform.
        let z = [0.0, 0.0, 0.0];
        assert_eq!(kl_divergence(&z, &z), 0.0);
        assert!(kl_divergence(&z, &[0.2, 0.3, 0.5]).is_finite());
        assert!(kl_divergence(&[0.2, 0.3, 0.5], &z).is_finite());
    }

    #[test]
    fn unnormalised_inputs_never_go_negative() {
        // Regression: KL computed on raw (unnormalised) inputs could come
        // out negative, silently satisfying `kl < r` and mis-triggering
        // downsampling. Renormalisation restores Gibbs' inequality.
        let p = [2.0, 2.0];
        let q = [1.0, 3.0];
        let kl = kl_divergence(&p, &q);
        assert!(kl >= 0.0);
        assert!(kl.is_finite());
        // Scale invariance up to smoothing: 10× inputs agree closely.
        let scaled = kl_divergence(&[20.0, 20.0], &[10.0, 30.0]);
        assert!((kl - scaled).abs() < 1e-4);
    }

    #[test]
    fn garbage_entries_are_treated_as_empty_slots() {
        let kl = kl_divergence(&[f32::NAN, 1.0], &[0.5, f32::INFINITY]);
        assert!(kl.is_finite());
        assert!(kl >= 0.0);
        let kl = kl_divergence(&[-3.0, 1.0], &[0.5, 0.5]);
        assert!(kl.is_finite() && kl >= 0.0);
    }

    #[test]
    fn empty_distributions_have_zero_kl() {
        assert_eq!(kl_divergence(&[], &[]), 0.0);
    }

    #[test]
    fn zero_p_terms_are_harmless() {
        let kl = kl_divergence(&[0.0, 1.0], &[0.5, 0.5]);
        assert!((kl - std::f64::consts::LN_2).abs() < 1e-4);
    }

    #[test]
    fn near_identical_distributions_small_kl() {
        // The trigger regime: after the model stabilises, consecutive-epoch
        // attention barely moves and KL drops below r = 1e-3.
        let p = [0.30, 0.30, 0.40];
        let q = [0.301, 0.299, 0.40];
        assert!(kl_divergence(&p, &q) < 1e-3);
    }
}
