//! # widen — umbrella crate
//!
//! Re-exports every sub-crate of the WIDEN reproduction so applications can
//! depend on a single crate:
//!
//! * [`tensor`] — dense 2-D tensors + reverse-mode autograd + optimizers.
//! * [`graph`] — heterogeneous graph storage, subgraphs.
//! * [`sampling`] — wide neighbour sets and deep random walks.
//! * [`data`] — synthetic ACM/DBLP/Yelp-like dataset generators and splits.
//! * [`core`] — the WIDEN model, downsampling and trainer.
//! * [`baselines`] — Node2Vec, GCN, FastGCN, GraphSAGE, GAT, GTN, HAN, HGT.
//! * [`eval`] — F1, paired t-tests, t-SNE, silhouette, linear fit.
//! * [`serve`] — concurrent micro-batched TCP inference service.
//! * [`obs`] — metrics registries, span tracing, flight recorder, JSON reader.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough.

#![deny(missing_docs)]

pub use widen_baselines as baselines;
pub use widen_core as core;
pub use widen_data as data;
pub use widen_eval as eval;
pub use widen_graph as graph;
pub use widen_obs as obs;
pub use widen_sampling as sampling;
pub use widen_serve as serve;
pub use widen_tensor as tensor;
