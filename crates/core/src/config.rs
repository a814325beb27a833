//! Hyperparameter configuration (§4.4).

use widen_tensor::BackendKind;

use crate::ablation::Variant;

/// All WIDEN hyperparameters.
///
/// [`WidenConfig::paper`] reproduces the unified setting of §4.4:
/// `d = 128, N_w = 20, N_d = 20, Φ = 10`, learning rate `τ = 1e-4`,
/// downsampling thresholds `r∘ = r▷ = 1e-3`, lower bounds `k∘ = k▷ = 5`,
/// and L2 strength `γ = 0.01` on every dataset.
#[derive(Clone, Debug)]
pub struct WidenConfig {
    /// Latent dimension `d`.
    pub d: usize,
    /// Initial wide neighbour sample size `N_w`.
    pub n_w: usize,
    /// Deep walk length `N_d`.
    pub n_d: usize,
    /// Number of deep walks per node `Φ` (the paper's `N_t`).
    pub phi: usize,
    /// Learning rate `τ`.
    pub learning_rate: f32,
    /// L2 regularisation strength `γ`.
    pub weight_decay: f32,
    /// Wide downsampling KL threshold `r∘`.
    pub r_wide: f64,
    /// Deep downsampling KL threshold `r▷`.
    pub r_deep: f64,
    /// Wide downsampling lower bound `k∘`.
    pub k_wide: usize,
    /// Deep downsampling lower bound `k▷`.
    pub k_deep: usize,
    /// Mini-batch size `B`.
    pub batch_size: usize,
    /// Maximum training epochs `Z`.
    pub epochs: usize,
    /// Base RNG seed (weights, sampling, batching).
    pub seed: u64,
    /// Architectural variant (Table 4 ablations); default is the full model.
    pub variant: Variant,
    /// Dense GEMM kernel backend every tape this config spawns dispatches
    /// through ([`BackendKind::Optimized`] unless a test pins the oracle).
    pub backend: BackendKind,
}

impl WidenConfig {
    /// The paper's unified hyperparameter set (§4.4).
    pub fn paper() -> Self {
        Self {
            d: 128,
            n_w: 20,
            n_d: 20,
            phi: 10,
            learning_rate: 1e-4,
            weight_decay: 0.01,
            r_wide: 1e-3,
            r_deep: 1e-3,
            k_wide: 5,
            k_deep: 5,
            batch_size: 64,
            epochs: 30,
            seed: 0,
            variant: Variant::full(),
            backend: BackendKind::default(),
        }
    }

    /// A scaled-down configuration for CPU-friendly runs and tests:
    /// `d = 32, N_w = 8, N_d = 8, Φ = 2`, higher learning rate, few epochs.
    pub fn small() -> Self {
        Self {
            d: 32,
            n_w: 8,
            n_d: 8,
            phi: 2,
            learning_rate: 5e-3,
            weight_decay: 1e-4,
            r_wide: 1e-3,
            r_deep: 1e-3,
            k_wide: 3,
            k_deep: 3,
            batch_size: 32,
            epochs: 12,
            seed: 0,
            variant: Variant::full(),
            backend: BackendKind::default(),
        }
    }

    /// Returns `self` with a different seed (multi-run aggregation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns `self` with a different variant (ablations).
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Returns `self` with a different dense GEMM kernel backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics on degenerate settings.
    pub fn validate(&self) {
        assert!(self.d > 0, "latent dimension must be positive");
        assert!(self.phi >= 1, "Φ ≥ 1 deep walks required (Eq. 7)");
        assert!(
            self.k_wide >= 1 && self.k_deep >= 1,
            "lower bounds must be ≥ 1 (§3.4)"
        );
        assert!(self.batch_size >= 1 && self.epochs >= 1);
        assert!(
            self.variant.use_wide || self.variant.use_deep,
            "at least one of wide/deep passing must be enabled"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_4_4() {
        let c = WidenConfig::paper();
        assert_eq!(c.d, 128);
        assert_eq!(c.n_w, 20);
        assert_eq!(c.n_d, 20);
        assert_eq!(c.phi, 10);
        assert_eq!(c.learning_rate, 1e-4);
        assert_eq!(c.weight_decay, 0.01);
        assert_eq!(c.r_wide, 1e-3);
        assert_eq!(c.k_wide, 5);
        c.validate();
    }

    #[test]
    fn builders_chain() {
        let c = WidenConfig::small().with_seed(9);
        assert_eq!(c.seed, 9);
        c.validate();
    }

    #[test]
    fn backend_knob_chains_and_defaults_to_optimized() {
        let c = WidenConfig::small();
        assert_eq!(c.backend, BackendKind::Optimized);
        let c = c.with_backend(BackendKind::Reference);
        assert_eq!(c.backend, BackendKind::Reference);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one of wide/deep")]
    fn rejects_no_passing_at_all() {
        let mut v = Variant::full();
        v.use_wide = false;
        v.use_deep = false;
        WidenConfig::small().with_variant(v).validate();
    }
}
