//! # widen-eval
//!
//! The evaluation toolkit behind the paper's experiment section:
//!
//! * [`f1`] — micro/macro-averaged F1 and confusion matrices (the metric of
//!   Tables 2–4).
//! * [`ttest`] — paired Student t-tests (the significance underscores of
//!   Tables 2–3), built on a regularised-incomplete-beta CDF.
//! * [`kl`] — Kullback–Leibler divergence between attention distributions
//!   (Eq. 9's downsampling trigger).
//! * [`mod@tsne`] — exact t-SNE with PCA initialisation (Figure 3).
//! * [`silhouette`] — cluster-separation score used to quantify Figure 3's
//!   qualitative claim.
//! * [`timing`] — least-squares linear fit with R² (Figure 5).
//! * [`aggregate`] — mean ± std over repeated seeded runs (§4.4's
//!   "averaged over 5 executions").

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod f1;
pub mod kl;
pub mod silhouette;
pub mod timing;
pub mod tsne;
pub mod ttest;

pub use aggregate::RunAggregate;
pub use f1::{confusion_matrix, macro_f1, micro_f1};
pub use kl::kl_divergence;
pub use silhouette::silhouette_score;
pub use tsne::{tsne, TsneConfig};
pub use ttest::{paired_t_test, TTestResult};
