//! # widen-core
//!
//! The paper's primary contribution: the **Wide and Deep Message Passing
//! Network (WIDEN)** for heterogeneous, inductive, efficient node
//! representation learning.
//!
//! Pipeline (one message-passing step for a target node `v_t`):
//!
//! 1. **Heterogeneous message packaging** ([`packaging`]) — Eq. 1/2:
//!    `m = v ⊙ e` stacks node ⊙ edge-type interactions into the wide pack
//!    matrix `M∘` and the deep pack matrix `M▷` (one per sampled walk).
//! 2. **Wide attentive passing** ([`model`]) — Eq. 3: one-query
//!    self-attention with the target's own pack as the query.
//! 3. **Successive self-attention** — Eq. 4–6: causally masked
//!    self-attention along the walk, then a second one-query attention
//!    (Eq. 5) gathering the refined packs into `h▷`.
//! 4. **Fusion** — Eq. 7: `v_t' = normalize(ReLU(W[h∘ ; mean_φ h▷] + b))`.
//! 5. **Active downsampling** ([`downsample`]) — Algorithms 1–2 with
//!    contextualized relay edges (Eq. 8), triggered by the KL-divergence
//!    rule (Eq. 9).
//! 6. **Training** ([`trainer`]) — Algorithm 3: mini-batch semi-supervised
//!    cross-entropy (Eq. 10) with Adam; one loop over the one graph, each
//!    batch one step on the caller's thread.
//!
//! Ablation variants ([`ablation::Variant`]) reproduce every row of the
//! paper's Table 4. Inductive inference ([`WidenModel::embed_nodes`])
//! embeds nodes that never appeared during training (RQ2).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ablation;
pub mod config;
pub mod downsample;
pub mod model;
pub mod packaging;
pub mod state;
pub mod trainer;

pub use ablation::{DownsampleStrategy, Variant};
pub use config::WidenConfig;
pub use model::{InferState, WidenModel};
pub use state::{DeepState, NodeState};
pub use trainer::{EpochStats, TrainReport, Trainer};
