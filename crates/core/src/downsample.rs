//! Active downsampling (§3.3–3.4): Algorithms 1–2, the contextualized
//! relay edge (Eq. 8) and the KL-divergence trigger (Eq. 9).

use rand::Rng;

use crate::ablation::DownsampleStrategy;

// Single source of truth for Eq. 9's divergence: the smoothed, always-finite
// implementation in `widen-eval` (an unchanged-set comparison can still see
// vanished slots when attention collapses to one-hot mid-training).
pub use widen_eval::kl_divergence;

/// What to do with a neighbour set after this epoch's attention pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Keep the set unchanged.
    Keep,
    /// Drop the entry at this local index (0-based, target excluded).
    Drop(usize),
}

/// Decides whether to shrink a neighbour set, per Algorithm 3 lines 9–14,
/// and returns the Eq. 9 divergence when one was actually evaluated
/// (`Attentive` strategy with comparable history), so the trainer can
/// surface per-epoch KL trigger values without recomputing them.
///
/// * `attention` — this epoch's distribution over `[m_t ; packs]`
///   (`len + 1` values, target at index 0).
/// * `prev_attention` — last epoch's distribution over the *same* set, if
///   the set is unchanged since (otherwise Eq. 9 treats the divergence as
///   unbounded and no downsampling triggers).
/// * `len` — current number of neighbour entries (`|W|` or `|D|`).
/// * `k` — downsampling lower bound (`k∘` / `k▷`).
/// * `r` — KL threshold (`r∘` / `r▷`).
/// * `epoch` — 1-based epoch counter; Algorithm 3 requires `z > 1`.
/// * `rng` — the node's per-epoch stream. The `Random` strategy draws its
///   victim from it, and Algorithms 1–2 break an exact tie for the minimum
///   weight with it, uniformly among the tied entries. A unique minimum
///   draws nothing.
///
/// Eq. 9 measures only how far the distribution moved since last epoch, so
/// it cannot tell a converged attention from a collapsed (uniform) one:
/// both read KL ≈ 0 and trigger a drop. Under a uniform row every
/// neighbour ties for the minimum, and the tie rule spreads those drops
/// over the set instead of always taking the first walk step.
#[allow(clippy::too_many_arguments)]
pub fn decide_with_kl<R: Rng + ?Sized>(
    strategy: DownsampleStrategy,
    attention: &[f32],
    prev_attention: Option<&[f32]>,
    len: usize,
    k: usize,
    r: f64,
    epoch: usize,
    rng: &mut R,
) -> (Decision, Option<f64>) {
    debug_assert_eq!(
        attention.len(),
        len + 1,
        "attention covers target + neighbours"
    );
    if len <= k || epoch <= 1 {
        return (Decision::Keep, None);
    }
    match strategy {
        DownsampleStrategy::Off => (Decision::Keep, None),
        DownsampleStrategy::Random => {
            // Ablation: drop one uniformly random neighbour each epoch,
            // KL trigger removed (§4.8).
            (Decision::Drop(rng.gen_range(0..len)), None)
        }
        DownsampleStrategy::Attentive => {
            let Some(prev) = prev_attention else {
                // Set changed since last epoch ⇒ divergence is undefined
                // over mismatched supports; never trigger.
                return (Decision::Keep, None);
            };
            if prev.len() != attention.len() {
                return (Decision::Keep, None);
            }
            let kl = kl_divergence(prev, attention);
            if kl >= r {
                return (Decision::Keep, Some(kl));
            }
            // Algorithm 1/2 line 3–4: argmin over neighbour weights,
            // excluding the target's own weight a_{t,t}.
            let mut best = 0usize;
            let mut ties = 1usize;
            for i in 1..len {
                if attention[i + 1] < attention[best + 1] {
                    best = i;
                    ties = 1;
                } else if attention[i + 1] == attention[best + 1] {
                    ties += 1;
                }
            }
            if ties > 1 {
                let min = attention[best + 1];
                let pick = rng.gen_range(0..ties);
                best = (best..len)
                    .filter(|&i| attention[i + 1] == min)
                    .nth(pick)
                    .expect("pick < ties");
            }
            (Decision::Drop(best), Some(kl))
        }
    }
}

/// Eq. 8's contextualized relay edge: binds the deprecated pack `m_{s'}`
/// into its successor's edge representation via element-wise max-pooling,
/// so deleting `v_{s'}` does not break the walk's semantics (Figure 2).
pub fn relay_edge(successor_edge: &[f32], deprecated_pack: &[f32]) -> Vec<f32> {
    debug_assert_eq!(successor_edge.len(), deprecated_pack.len());
    successor_edge
        .iter()
        .zip(deprecated_pack)
        .map(|(&e, &m)| e.max(m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn keeps_when_at_lower_bound() {
        let attn = vec![0.25; 4];
        let (d, _) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            Some(&attn.clone()),
            3,
            3,
            1e-1,
            5,
            &mut rng(),
        );
        assert_eq!(d, Decision::Keep);
    }

    #[test]
    fn keeps_in_first_epoch() {
        let attn = vec![0.2; 5];
        let (d, _) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            Some(&attn.clone()),
            4,
            2,
            1e-1,
            1,
            &mut rng(),
        );
        assert_eq!(d, Decision::Keep);
    }

    #[test]
    fn attentive_drops_argmin_when_kl_small() {
        // Target weight 0.4, neighbours [0.3, 0.05, 0.25]; argmin = local 1.
        let attn = vec![0.4, 0.3, 0.05, 0.25];
        let prev = attn.clone();
        let (d, _) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            Some(&prev),
            3,
            1,
            1e-3,
            3,
            &mut rng(),
        );
        assert_eq!(d, Decision::Drop(1));
    }

    #[test]
    fn a_uniform_row_spreads_its_drops_over_every_tied_index() {
        // A collapsed attention: target and all five neighbours at 1/6, so
        // every neighbour ties for the minimum and Eq. 9 reads KL = 0.
        let attn = vec![1.0 / 6.0; 6];
        let mut hits = [0usize; 5];
        for seed in 0..200 {
            let (d, _) = decide_with_kl(
                DownsampleStrategy::Attentive,
                &attn,
                Some(&attn),
                5,
                1,
                1e-3,
                3,
                &mut StdRng::seed_from_u64(seed),
            );
            match d {
                Decision::Drop(i) => hits[i] += 1,
                Decision::Keep => panic!("KL 0 is below r, so the set shrinks"),
            }
        }
        assert!(hits.iter().all(|&n| n > 0), "drops per index: {hits:?}");
        assert!(hits[0] < 100, "index 0 took {} of 200 drops", hits[0]);
        // Only the tied entries compete: the unique larger weight at local
        // index 1 is never dropped.
        let attn = vec![0.2, 0.15, 0.35, 0.15, 0.15];
        let mut hits = [0usize; 4];
        for seed in 0..100 {
            if let (Decision::Drop(i), _) = decide_with_kl(
                DownsampleStrategy::Attentive,
                &attn,
                Some(&attn),
                4,
                1,
                1e-3,
                3,
                &mut StdRng::seed_from_u64(seed),
            ) {
                hits[i] += 1;
            }
        }
        assert_eq!(hits[1], 0, "drops per index: {hits:?}");
        assert!(
            [0, 2, 3].iter().all(|&i| hits[i] > 0),
            "drops per index: {hits:?}"
        );
    }

    #[test]
    fn a_unique_minimum_draws_nothing_from_the_rng() {
        let attn = vec![0.4, 0.3, 0.05, 0.25];
        let mut used = rng();
        let untouched = used.clone();
        let (d, _) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            Some(&attn),
            3,
            1,
            1e-3,
            3,
            &mut used,
        );
        assert_eq!(d, Decision::Drop(1));
        assert_eq!(used.gen::<u64>(), untouched.clone().gen::<u64>());
    }

    #[test]
    fn attentive_keeps_when_kl_large() {
        let attn = vec![0.4, 0.3, 0.05, 0.25];
        let prev = vec![0.1, 0.1, 0.4, 0.4];
        let (d, _) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            Some(&prev),
            3,
            1,
            1e-3,
            3,
            &mut rng(),
        );
        assert_eq!(d, Decision::Keep);
    }

    #[test]
    fn attentive_keeps_without_history() {
        let attn = vec![0.4, 0.3, 0.05, 0.25];
        let (d, _) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            None,
            3,
            1,
            1e-3,
            3,
            &mut rng(),
        );
        assert_eq!(d, Decision::Keep);
    }

    #[test]
    fn random_drops_without_kl() {
        let attn = vec![0.25; 5];
        let (d, _) = decide_with_kl(
            DownsampleStrategy::Random,
            &attn,
            None,
            4,
            2,
            1e-9, // threshold irrelevant for Random
            2,
            &mut rng(),
        );
        match d {
            Decision::Drop(i) => assert!(i < 4),
            Decision::Keep => panic!("random strategy should drop"),
        }
    }

    #[test]
    fn off_never_drops() {
        let attn = vec![0.2; 6];
        let (d, _) = decide_with_kl(
            DownsampleStrategy::Off,
            &attn,
            Some(&attn.clone()),
            5,
            1,
            1e3,
            9,
            &mut rng(),
        );
        assert_eq!(d, Decision::Keep);
    }

    #[test]
    fn relay_edge_is_elementwise_max() {
        let relay = relay_edge(&[1.0, -2.0, 0.5], &[0.5, 3.0, 0.5]);
        assert_eq!(relay, vec![1.0, 3.0, 0.5]);
    }

    #[test]
    fn kl_matches_hand_computation() {
        let kl = kl_divergence(&[0.9, 0.1], &[0.5, 0.5]);
        assert!((kl - 0.3680).abs() < 1e-3);
        // Regression: a vanished slot used to return +∞ and poison any
        // aggregate built from trigger values; it must now be large (far
        // above the paper's r = 1e-3, so disjoint support still never
        // triggers downsampling) but finite.
        let no_overlap = kl_divergence(&[0.5, 0.5], &[1.0, 0.0]);
        assert!(no_overlap.is_finite());
        assert!(no_overlap > 1.0);
    }

    #[test]
    fn decide_with_kl_reports_trigger_value() {
        let attn = vec![0.4, 0.3, 0.05, 0.25];
        let prev = attn.clone();
        let (d, kl) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            Some(&prev),
            3,
            1,
            1e-3,
            3,
            &mut rng(),
        );
        assert_eq!(d, Decision::Drop(1));
        let kl = kl.expect("attentive path with history evaluates Eq. 9");
        assert!(kl.is_finite() && kl < 1e-3);
        // Keep path still reports the divergence it compared.
        let far = vec![0.1, 0.1, 0.4, 0.4];
        let (d, kl) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            Some(&far),
            3,
            1,
            1e-3,
            3,
            &mut rng(),
        );
        assert_eq!(d, Decision::Keep);
        assert!(kl.expect("evaluated").is_finite());
        // No history ⇒ no KL evaluated.
        let (_, kl) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            None,
            3,
            1,
            1e-3,
            3,
            &mut rng(),
        );
        assert!(kl.is_none());
    }

    #[test]
    fn attentive_survives_one_hot_collapse() {
        // Regression for the Eq. 9 trigger: attention collapsing to one-hot
        // between epochs used to make KL infinite (or NaN through 0·ln 0),
        // wedging the trigger. The smoothed divergence is huge ⇒ Keep.
        let prev = vec![0.25, 0.25, 0.25, 0.25];
        let attn = vec![0.0, 1.0, 0.0, 0.0];
        let (d, _) = decide_with_kl(
            DownsampleStrategy::Attentive,
            &attn,
            Some(&prev),
            3,
            1,
            1e-3,
            4,
            &mut rng(),
        );
        assert_eq!(d, Decision::Keep);
    }
}
