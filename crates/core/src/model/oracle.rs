//! The reference forward pass: one tape subgraph per node, one `PACK` call
//! per neighbour set, an explicit causal mask Θ. It is the original
//! implementation of Eq. 1–7 + 10 and exists only so tests can pin
//! [`WidenModel::forward_batch`] against it — logits, embeddings, attention
//! rows, relay overrides and all 14 parameter gradients
//! (`assert_engines_agree` in `model.rs`) and the batched `PACK` layouts
//! (`packaging.rs`). Nothing outside `cfg(test)` can name it.

use std::sync::Arc;

use rustc_hash::FxHashMap;
use widen_graph::HeteroGraph;
use widen_sampling::WideSet;
use widen_tensor::{Tape, Tensor, Var};

use super::{zeros_leaf, ParamVars, WidenModel};
use crate::packaging::{edge_index, features_leaf, self_loop_index};
use crate::state::{DeepState, NodeState};

/// Intermediate results of a per-set `PACK` call.
pub(crate) struct Packed {
    /// The pack matrix `M` (`(|set|+1) × d`): row 0 is `m_t`.
    pub packs: Var,
    /// The edge-representation matrix `E` used to build `M` (same shape);
    /// row `s+1` is the edge representation of local position `s`.
    pub edges: Var,
}

/// `PACK∘` (Eq. 1): the wide pack matrix for one target and its sampled
/// wide neighbours.
pub(crate) fn pack_wide(
    tape: &mut Tape,
    graph: &HeteroGraph,
    wide: &WideSet,
    g_node: Var,
    g_edge: Var,
    num_edge_types: usize,
) -> Packed {
    let ids: Vec<u32> = std::iter::once(wide.target)
        .chain(wide.entries.iter().map(|e| e.node))
        .collect();
    let edge_rows: Vec<usize> = std::iter::once(self_loop_index(
        num_edge_types,
        graph.node_type(wide.target).0,
    ))
    .chain(wide.entries.iter().map(|e| edge_index(e.edge_type)))
    .collect();
    let x = features_leaf(tape, graph, &ids);
    let v = tape.matmul(x, g_node);
    let edges = tape.select_rows(g_edge, &edge_rows);
    let packs = tape.mul(v, edges);
    Packed { packs, edges }
}

/// `PACK▷` (Eq. 2): the deep pack matrix for one walk, honouring
/// relay-edge overrides left behind by Algorithm 2.
pub(crate) fn pack_deep(
    tape: &mut Tape,
    graph: &HeteroGraph,
    deep: &DeepState,
    g_node: Var,
    g_edge: Var,
    num_edge_types: usize,
) -> Packed {
    let ids: Vec<u32> = std::iter::once(deep.set.target)
        .chain(deep.set.entries.iter().map(|e| e.node))
        .collect();
    let x = features_leaf(tape, graph, &ids);
    let v = tape.matmul(x, g_node);

    let self_loop = self_loop_index(num_edge_types, graph.node_type(deep.set.target).0);
    let edges = if deep.edge_override.iter().any(Option::is_some) {
        // Mixed rows: trainable edge-type embeddings where no relay exists,
        // constant relay vectors elsewhere.
        let mut rows: Vec<Var> = vec![tape.select_rows(g_edge, &[self_loop])];
        for (s, entry) in deep.set.entries.iter().enumerate() {
            rows.push(match &deep.edge_override[s] {
                Some(relay) => tape.leaf_with(1, relay.len(), |t| t.set_row(0, relay)),
                None => tape.select_rows(g_edge, &[edge_index(entry.edge_type)]),
            });
        }
        tape.vstack(&rows)
    } else {
        let edge_rows: Vec<usize> = std::iter::once(self_loop)
            .chain(deep.set.entries.iter().map(|e| edge_index(e.edge_type)))
            .collect();
        tape.select_rows(g_edge, &edge_rows)
    };
    let packs = tape.mul(v, edges);
    Packed { packs, edges }
}

/// Caches the causal attention masks Θ (Eq. 6) by matrix size.
#[derive(Default)]
pub(crate) struct MaskCache {
    masks: FxHashMap<usize, Arc<Tensor>>,
}

impl MaskCache {
    /// The `n × n` mask with `θ = 0` for `row ≤ col`, `−∞` otherwise.
    pub fn get(&mut self, n: usize) -> Arc<Tensor> {
        self.masks
            .entry(n)
            .or_insert_with(|| {
                let mut m = Tensor::zeros(n, n);
                for row in 0..n {
                    for col in 0..row {
                        m.set(row, col, f32::NEG_INFINITY);
                    }
                }
                Arc::new(m)
            })
            .clone()
    }
}

/// Outputs of one node's forward pass.
pub(crate) struct NodeForward {
    /// Updated node embedding `v_t'` (`1 × d`, Eq. 7).
    pub embedding: Var,
    /// Class logits `v_t'·C` (`1 × c`).
    pub logits: Var,
    /// Wide attention distribution (`1 × (|W|+1)`, Eq. 3), when the wide
    /// branch is enabled.
    pub wide_attention: Option<Var>,
    /// Per-φ deep-branch artefacts.
    pub deep: Vec<DeepForward>,
}

/// Deep-branch forward artefacts for one walk.
pub(crate) struct DeepForward {
    /// Attention distribution over `[m_t ; packs]` from Eq. 5.
    pub attention: Var,
    /// The pack matrix `M▷`.
    pub packs: Var,
    /// The edge-representation matrix `E▷`.
    pub edges: Var,
}

impl WidenModel {
    /// One full wide-and-deep message-passing step for a target node
    /// (Eq. 1–7 + classification head), honouring the configured
    /// [`crate::ablation::Variant`].
    pub(crate) fn forward_node(
        &self,
        tape: &mut Tape,
        pv: &ParamVars,
        graph: &HeteroGraph,
        state: &NodeState,
        masks: &mut MaskCache,
    ) -> NodeForward {
        let d = self.config.d;
        let variant = self.config.variant;
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();

        // Wide branch (Eq. 1, 3).
        let mut wide_attention = None;
        let h_wide = if variant.use_wide {
            let Packed { packs, .. } = pack_wide(
                tape,
                graph,
                &state.wide,
                pv.g_node,
                pv.g_edge,
                self.num_edge_types,
            );
            let m_t = tape.select_rows(packs, &[0]);
            let q = tape.matmul(m_t, pv.wide_q);
            let k = tape.matmul(packs, pv.wide_k);
            let scores = tape.matmul_nt(q, k);
            let scaled = tape.scale(scores, inv_sqrt_d);
            let attn = tape.softmax_rows(scaled);
            wide_attention = Some(attn);
            let values = tape.matmul(packs, pv.wide_v);
            tape.matmul(attn, values)
        } else {
            zeros_leaf(tape, 1, d)
        };

        // Deep branch (Eq. 2, 4–6), one pass per sampled walk.
        let mut deep_outputs = Vec::new();
        let h_deep = if variant.use_deep && !state.deeps.is_empty() {
            let mut h_phis = Vec::with_capacity(state.deeps.len());
            for deep_state in &state.deeps {
                let Packed { packs, edges } = pack_deep(
                    tape,
                    graph,
                    deep_state,
                    pv.g_node,
                    pv.g_edge,
                    self.num_edge_types,
                );
                let rows = deep_state.len() + 1;

                // Eq. 4: successive self-attention with the causal mask Θ.
                let refined = if variant.successive_attention {
                    let q1 = tape.matmul(packs, pv.deep_q1);
                    let k1 = tape.matmul(packs, pv.deep_k1);
                    let scores = tape.matmul_nt(q1, k1);
                    let scaled = tape.scale(scores, inv_sqrt_d);
                    let att = tape.masked_softmax_rows(scaled, masks.get(rows));
                    let v1 = tape.matmul(packs, pv.deep_v1);
                    tape.matmul(att, v1)
                } else {
                    packs
                };

                // Eq. 5: gather into the target. The query is the target's
                // own pack m_t▷, keys come from the refined sequence H▷,
                // values from the raw packs M▷ (as written in the paper).
                let m_t = tape.select_rows(packs, &[0]);
                let q2 = tape.matmul(m_t, pv.deep_q2);
                let k2 = tape.matmul(refined, pv.deep_k2);
                let scores2 = tape.matmul_nt(q2, k2);
                let scaled2 = tape.scale(scores2, inv_sqrt_d);
                let attn = tape.softmax_rows(scaled2);
                let v2 = tape.matmul(packs, pv.deep_v2);
                h_phis.push(tape.matmul(attn, v2));
                deep_outputs.push(DeepForward {
                    attention: attn,
                    packs,
                    edges,
                });
            }
            // Average pooling over the Φ walks (Eq. 7).
            if h_phis.len() == 1 {
                h_phis[0]
            } else {
                let stacked = tape.vstack(&h_phis);
                tape.mean_rows(stacked)
            }
        } else {
            zeros_leaf(tape, 1, d)
        };

        // Eq. 7: fuse, feed-forward, L2 normalise.
        let concat = tape.hstack(&[h_wide, h_deep]);
        let ff = tape.matmul(concat, pv.fuse_w);
        let biased = tape.add_row_broadcast(ff, pv.fuse_b);
        let activated = tape.relu(biased);
        let embedding = tape.l2_normalize_rows(activated);

        // Eq. 10 head.
        let logits = tape.matmul(embedding, pv.classifier);

        NodeForward {
            embedding,
            logits,
            wide_attention,
            deep: deep_outputs,
        }
    }
}

#[test]
fn causal_mask_blocks_backward_attention() {
    let mut cache = MaskCache::default();
    let m = cache.get(4);
    for row in 0..4 {
        for col in 0..4 {
            let want = if row <= col { 0.0 } else { f32::NEG_INFINITY };
            assert_eq!(m.get(row, col), want);
        }
    }
    // Cache hit returns the same allocation.
    assert!(Arc::ptr_eq(&m, &cache.get(4)));
}
