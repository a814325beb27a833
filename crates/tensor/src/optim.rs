//! First-order optimizers over a [`ParamStore`].

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// A gradient set keyed by parameter id, as produced by a training step.
pub type GradMap = Vec<(ParamId, Tensor)>;

/// Common optimizer interface.
pub trait Optimizer {
    /// Applies one update step given gradients for (a subset of) parameters.
    ///
    /// Parameters without a gradient this step are left untouched (their
    /// Adam moments do not advance either, matching sparse-update practice
    /// for embedding tables).
    fn step(&mut self, params: &mut ParamStore, grads: &GradMap);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (sweeps / schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain SGD with optional L2 weight decay (the paper's γ regularisation).
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// SGD with learning rate `lr` and L2 strength `weight_decay`.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self { lr, weight_decay }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamStore, grads: &GradMap) {
        for (id, grad) in grads {
            let p = params.get_mut(*id);
            assert_eq!(p.shape(), grad.shape(), "gradient shape mismatch");
            if self.weight_decay > 0.0 {
                let decay = self.lr * self.weight_decay;
                let current = p.clone();
                p.add_scaled(-decay, &current);
            }
            p.add_scaled(-self.lr, grad);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate τ (paper default `1e-4` for WIDEN).
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    /// L2 regularisation strength γ, coupled: `γ·w` is added to the
    /// gradient before the moments (§4.4 uses `0.01`).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam (Kingma & Ba) with decoupled parameter-wise moments.
pub struct Adam {
    cfg: AdamConfig,
    /// Per-parameter (m, v, t) lazily allocated on first gradient.
    state: Vec<Option<(Tensor, Tensor, u64)>>,
}

impl Adam {
    /// Adam with the given configuration.
    pub fn new(cfg: AdamConfig) -> Self {
        Self {
            cfg,
            state: Vec::new(),
        }
    }

    /// Adam with default moments and the given learning rate / decay.
    pub fn with_lr(lr: f32, weight_decay: f32) -> Self {
        Self::new(AdamConfig {
            lr,
            weight_decay,
            ..AdamConfig::default()
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore, grads: &GradMap) {
        if self.state.len() < params.len() {
            self.state.resize_with(params.len(), || None);
        }
        for (id, grad) in grads {
            let p = params.get_mut(*id);
            assert_eq!(p.shape(), grad.shape(), "gradient shape mismatch");
            let (rows, cols) = p.shape();
            let slot = &mut self.state[id.index()];
            if slot.is_none() {
                *slot = Some((Tensor::zeros(rows, cols), Tensor::zeros(rows, cols), 0));
            }
            let (m, v, t) = slot.as_mut().expect("just initialised");
            *t += 1;
            let (b1, b2) = (self.cfg.beta1, self.cfg.beta2);
            let bias1 = 1.0 - b1.powi(*t as i32);
            let bias2 = 1.0 - b2.powi(*t as i32);
            let g = grad.as_slice();
            let ms = m.as_mut_slice();
            let vs = v.as_mut_slice();
            let ps = p.as_mut_slice();
            for i in 0..g.len() {
                // L2 decay folded into the gradient (classic Adam-L2).
                let gi = g[i] + self.cfg.weight_decay * ps[i];
                ms[i] = b1 * ms[i] + (1.0 - b1) * gi;
                vs[i] = b2 * vs[i] + (1.0 - b2) * gi * gi;
                let m_hat = ms[i] / bias1;
                let v_hat = vs[i] / bias2;
                ps[i] -= self.cfg.lr * m_hat / (v_hat.sqrt() + self.cfg.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.cfg.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(params: &ParamStore, id: ParamId) -> GradMap {
        // f(w) = ½‖w‖² ⇒ ∇f = w.
        vec![(id, params.get(id).clone())]
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::row_vector(&[4.0, -2.0]));
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..100 {
            let g = quadratic_grad(&params, w);
            opt.step(&mut params, &g);
        }
        assert!(params.get(w).frobenius_norm() < 1e-3);
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::row_vector(&[4.0, -2.0]));
        let mut opt = Adam::with_lr(0.1, 0.0);
        for _ in 0..300 {
            let g = quadratic_grad(&params, w);
            opt.step(&mut params, &g);
        }
        assert!(params.get(w).frobenius_norm() < 1e-2);
    }

    #[test]
    fn weight_decay_shrinks_untouched_direction() {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::row_vector(&[1.0]));
        let mut opt = Sgd::new(0.1, 0.5);
        // Zero task gradient: only decay acts.
        let g = vec![(w, Tensor::row_vector(&[0.0]))];
        opt.step(&mut params, &g);
        assert!((params.get(w).get(0, 0) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn params_without_grads_untouched() {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::row_vector(&[1.0]));
        let frozen = params.register("frozen", Tensor::row_vector(&[7.0]));
        let mut opt = Adam::with_lr(0.1, 0.0);
        let g = vec![(w, Tensor::row_vector(&[1.0]))];
        opt.step(&mut params, &g);
        assert_eq!(params.get(frozen).as_slice(), &[7.0]);
        assert!(params.get(w).get(0, 0) < 1.0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::with_lr(0.01, 0.0);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
    }
}
