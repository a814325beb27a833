//! Unsupervised training of WIDEN embeddings.
//!
//! §3.4 introduces WIDEN as "a versatile and generic heterogeneous graph
//! embedding model \[that\] can be optimized for different downstream tasks"
//! and then picks semi-supervised classification for the paper. This module
//! supplies the canonical alternative: a contrastive (InfoNCE) objective
//! over random-walk co-occurrence — positives are walk neighbours
//! (GraphSAGE's unsupervised loss family), negatives come from the batch.
//!
//! One step: embed a batch of anchors `u₁…u_B` and their walk-sampled
//! positives `v₁…v_B`, form the `B × B` similarity matrix
//! `S = Z_u · Z_vᵀ / τ`, and minimise row-wise cross-entropy against the
//! diagonal. The embeddings are already L2-normalised (Eq. 7), so `S`
//! contains cosine similarities.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use widen_graph::{HeteroGraph, NodeId};
use widen_sampling::{hash_seed, sample_deep};
use widen_tensor::{Adam, Optimizer};

use crate::model::WidenModel;
use crate::trainer::TrainReport;

/// Hyperparameters of the contrastive objective.
#[derive(Clone, Copy, Debug)]
pub struct UnsupervisedConfig {
    /// Length of the positive-sampling walk from each anchor.
    pub positive_walk_length: usize,
    /// Softmax temperature `τ` (lower = harder contrast).
    pub temperature: f32,
    /// Training epochs (overrides the model config's epoch count).
    pub epochs: usize,
}

impl Default for UnsupervisedConfig {
    fn default() -> Self {
        Self {
            positive_walk_length: 3,
            temperature: 0.2,
            epochs: 10,
        }
    }
}

/// Trains `model` contrastively over `nodes` (labels are never read).
/// Returns per-epoch losses; the trained weights live in `model`.
///
/// # Panics
/// Panics if `nodes` is empty or the batch size in the model config is 0.
pub fn fit_unsupervised(
    model: &mut WidenModel,
    graph: &HeteroGraph,
    nodes: &[NodeId],
    config: &UnsupervisedConfig,
) -> TrainReport {
    assert!(!nodes.is_empty(), "need at least one training node");
    let model_config = model.config.clone();
    let mut report = TrainReport::default();
    let mut optimizer = Adam::with_lr(model_config.learning_rate, model_config.weight_decay);
    let mut order: Vec<NodeId> = nodes.to_vec();

    for epoch in 1..=config.epochs {
        let start = std::time::Instant::now();
        let mut rng = StdRng::seed_from_u64(hash_seed(model_config.seed, &[50, epoch as u64]));
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;

        for batch in order.chunks(model_config.batch_size.max(2)) {
            if batch.len() < 2 {
                continue; // InfoNCE needs in-batch negatives.
            }
            let mut tape = model.new_tape();
            let pv = model.insert_params(&mut tape);

            // Sample anchor/positive states first (rng order fixed), then
            // run one forward pass over all of them.
            let mut anchor_states = Vec::with_capacity(batch.len());
            let mut positive_states = Vec::with_capacity(batch.len());
            for &u in batch {
                let positive = sample_positive(graph, u, config.positive_walk_length, &mut rng);
                anchor_states.push(model.sample_state(
                    graph,
                    u,
                    hash_seed(model_config.seed, &[51, epoch as u64]),
                ));
                positive_states.push(model.sample_state(
                    graph,
                    positive,
                    hash_seed(model_config.seed, &[52, epoch as u64]),
                ));
            }

            // One fused forward over anchors then positives; the first `B`
            // embedding rows are Z_u, the rest Z_v.
            let states: Vec<&crate::state::NodeState> =
                anchor_states.iter().chain(positive_states.iter()).collect();
            let fw = model.forward_batch(&mut tape, &pv, graph, &states);
            let anchor_rows: Vec<usize> = (0..batch.len()).collect();
            let positive_rows: Vec<usize> = (batch.len()..2 * batch.len()).collect();
            let z_u = tape.select_rows(fw.embeddings, &anchor_rows);
            let z_v = tape.select_rows(fw.embeddings, &positive_rows);
            let sims = tape.matmul_nt(z_u, z_v);
            let scaled = tape.scale(sims, 1.0 / config.temperature);
            let labels: Vec<usize> = (0..batch.len()).collect();
            let loss = tape.softmax_cross_entropy(scaled, &labels);
            tape.backward(loss);

            let grads: Vec<_> = pv
                .pairs(model.ids())
                .into_iter()
                .filter_map(|(id, var)| tape.grad(var).cloned().map(|g| (id, g)))
                .collect();
            optimizer.step(&mut model.params, &grads);
            epoch_loss += f64::from(tape.value(loss).get(0, 0));
            batches += 1;
        }
        report.epoch_losses.push(epoch_loss / batches.max(1) as f64);
        report.epoch_secs.push(start.elapsed().as_secs_f64());
    }
    report
}

/// Draws a positive partner: a uniformly chosen node from a short random
/// walk starting at `anchor` (falling back to the anchor itself for
/// isolated nodes — a degenerate but harmless pair).
fn sample_positive<R: Rng + ?Sized>(
    graph: &HeteroGraph,
    anchor: NodeId,
    walk_length: usize,
    rng: &mut R,
) -> NodeId {
    let walk = sample_deep(graph, anchor, walk_length, rng);
    if walk.is_empty() {
        anchor
    } else {
        walk.entries[rng.gen_range(0..walk.entries.len())].node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WidenConfig;
    use widen_data::{acm_like, Scale};

    fn small_model(graph: &HeteroGraph, seed: u64) -> WidenModel {
        let mut cfg = WidenConfig::small();
        cfg.d = 16;
        cfg.n_w = 6;
        cfg.n_d = 6;
        cfg.phi = 2;
        cfg.batch_size = 24;
        cfg.learning_rate = 5e-3;
        cfg.seed = seed;
        WidenModel::for_graph(graph, cfg)
    }

    #[test]
    fn contrastive_loss_decreases() {
        let dataset = acm_like(Scale::Smoke, 61);
        let nodes: Vec<u32> = dataset.graph.labeled_nodes();
        let mut model = small_model(&dataset.graph, 1);
        let report = fit_unsupervised(
            &mut model,
            &dataset.graph,
            &nodes[..120],
            &UnsupervisedConfig {
                epochs: 6,
                ..Default::default()
            },
        );
        assert_eq!(report.epoch_losses.len(), 6);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(
            last < first * 0.97,
            "contrastive loss should drop: {first} -> {last}"
        );
    }

    #[test]
    fn unsupervised_embeddings_carry_class_signal() {
        // Never shows a label during training; embeddings must still
        // separate classes because classes drive the wiring.
        let dataset = acm_like(Scale::Smoke, 62);
        let nodes: Vec<u32> = dataset.graph.labeled_nodes();
        let mut model = small_model(&dataset.graph, 2);
        fit_unsupervised(
            &mut model,
            &dataset.graph,
            &nodes,
            &UnsupervisedConfig {
                epochs: 8,
                ..Default::default()
            },
        );
        let probe: Vec<u32> = nodes[..90].to_vec();
        let emb = model.embed_nodes(&dataset.graph, &probe, 3);
        let labels: Vec<usize> = probe
            .iter()
            .map(|&v| dataset.graph.label(v).unwrap() as usize)
            .collect();
        // 1-NN same-class rate: with 3 classes random is ~1/3.
        let mut hits = 0;
        for i in 0..emb.rows() {
            let mut best = usize::MAX;
            let mut best_d = f32::INFINITY;
            for j in 0..emb.rows() {
                if i == j {
                    continue;
                }
                let d: f32 = emb
                    .row(i)
                    .iter()
                    .zip(emb.row(j))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            if labels[best] == labels[i] {
                hits += 1;
            }
        }
        let knn_acc = hits as f64 / emb.rows() as f64;
        assert!(
            knn_acc > 0.45,
            "1-NN same-class rate {knn_acc} barely above chance"
        );
    }

    #[test]
    fn positive_sampling_stays_on_graph() {
        let dataset = acm_like(Scale::Smoke, 63);
        let mut rng = StdRng::seed_from_u64(1);
        for &anchor in &dataset.graph.labeled_nodes()[..20] {
            let pos = sample_positive(&dataset.graph, anchor, 3, &mut rng);
            assert!((pos as usize) < dataset.graph.num_nodes());
        }
    }
}
