//! The WIDEN model: parameters, the wide/deep attentive forward pass
//! (Eq. 3–7), the classification head (Eq. 10) and inductive inference.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use widen_graph::{HeteroGraph, NodeId};
use widen_sampling::{hash_seed, sample_deep_multi, sample_wide};
use widen_tensor::{
    he_normal, xavier_uniform, zeros_init, CheckpointError, ParamId, ParamStore, Tape, Tensor, Var,
};

use crate::config::WidenConfig;
use crate::packaging::{edge_vocab_size, pack_deep_batch, pack_wide_batch};
use crate::state::NodeState;

mod infer;
use infer::FrozenChunk;
use infer::InferOutput;
pub use infer::InferState;

/// Handles of every trainable tensor.
#[derive(Clone, Copy)]
pub struct ParamIds {
    /// Node feature projection `G_node` (`d₀ × d`).
    pub g_node: ParamId,
    /// Edge-type embedding table `G_edge` (`(|E types| + |V types|) × d`,
    /// self-loop rows appended).
    pub g_edge: ParamId,
    /// Wide attention query projection `W_Q∘`.
    pub wide_q: ParamId,
    /// Wide attention key projection `W_K∘`.
    pub wide_k: ParamId,
    /// Wide attention value projection `W_V∘`.
    pub wide_v: ParamId,
    /// Successive attention query projection `W_Q▷` (Eq. 4).
    pub deep_q1: ParamId,
    /// Successive attention key projection `W_K▷`.
    pub deep_k1: ParamId,
    /// Successive attention value projection `W_V▷`.
    pub deep_v1: ParamId,
    /// Deep gather query projection `W_Q▷′` (Eq. 5).
    pub deep_q2: ParamId,
    /// Deep gather key projection `W_K▷′`.
    pub deep_k2: ParamId,
    /// Deep gather value projection `W_V▷′`.
    pub deep_v2: ParamId,
    /// Fusion weight `W` (`2d × d`, Eq. 7).
    pub fuse_w: ParamId,
    /// Fusion bias `b` (`1 × d`).
    pub fuse_b: ParamId,
    /// Classifier projection `C` (`d × c`, Eq. 10).
    pub classifier: ParamId,
}

/// Tape-local variables for the parameters, inserted once per tape.
#[derive(Clone, Copy)]
pub struct ParamVars {
    g_node: Var,
    g_edge: Var,
    wide_q: Var,
    wide_k: Var,
    wide_v: Var,
    deep_q1: Var,
    deep_k1: Var,
    deep_v1: Var,
    deep_q2: Var,
    deep_k2: Var,
    deep_v2: Var,
    fuse_w: Var,
    fuse_b: Var,
    classifier: Var,
}

impl ParamVars {
    /// `(ParamId, Var)` pairs for gradient extraction after backward.
    pub fn pairs(&self, ids: &ParamIds) -> Vec<(ParamId, Var)> {
        vec![
            (ids.g_node, self.g_node),
            (ids.g_edge, self.g_edge),
            (ids.wide_q, self.wide_q),
            (ids.wide_k, self.wide_k),
            (ids.wide_v, self.wide_v),
            (ids.deep_q1, self.deep_q1),
            (ids.deep_k1, self.deep_k1),
            (ids.deep_v1, self.deep_v1),
            (ids.deep_q2, self.deep_q2),
            (ids.deep_k2, self.deep_k2),
            (ids.deep_v2, self.deep_v2),
            (ids.fuse_w, self.fuse_w),
            (ids.fuse_b, self.fuse_b),
            (ids.classifier, self.classifier),
        ]
    }
}

/// Outputs of one batched forward pass over a chunk of nodes
/// ([`WidenModel::forward_batch`]). Row `i` of every per-node tensor
/// corresponds to the `i`-th state handed in.
pub struct BatchForward {
    /// Updated node embeddings (`B × d`, Eq. 7).
    pub embeddings: Var,
    /// Class logits (`B × c`, Eq. 10).
    pub logits: Var,
    /// Wide-branch artefacts, when the wide branch is enabled.
    pub wide: Option<WideBatch>,
    /// Deep-branch artefacts, when the deep branch ran for ≥ 1 walk.
    pub deep: Option<DeepBatch>,
}

/// Batched wide-attention artefacts (Eq. 3).
pub struct WideBatch {
    /// Padded attention matrix (`B × L_max`); row `i`'s valid prefix has
    /// `lens[i]` entries (`|W_i| + 1`, self pack first), the rest is
    /// exactly zero.
    pub attention: Var,
    /// Per-node valid attention lengths.
    pub lens: Vec<usize>,
}

/// Batched deep-branch artefacts (Eq. 4–6), plus the node→range maps that
/// keep downsampling outcomes (Algorithms 1–2, Eq. 8 relays) extractable
/// per node from the batched tensors.
pub struct DeepBatch {
    /// Padded Eq. 5 attention matrix (`#walks × L_max`); row `w`'s valid
    /// prefix has `walk_spans[w].1` entries.
    pub attention: Var,
    /// Deduplicated raw pack matrix: row `flat_index[r]` is the `M▷` row at
    /// position `r` (all walks concatenated).
    pub unique_packs: Var,
    /// Deduplicated edge-representation matrix: row `flat_index[r]` is the
    /// `E▷` row at position `r`. `None` on a frozen pair table
    /// ([`PackedBatch::unique_edges`](crate::packaging::PackedBatch)).
    pub unique_edges: Option<Var>,
    /// Position → row of `unique_packs` / `unique_edges`.
    pub flat_index: Arc<[usize]>,
    /// Walk → `(start, len)` range of positions into `flat_index`.
    pub walk_spans: Arc<[(usize, usize)]>,
    /// Node → `(first walk index, walk count)`; a node's walks are
    /// consecutive in `walk_spans` / `attention` rows.
    pub node_walks: Vec<(usize, usize)>,
}

/// The WIDEN model: configuration, graph metadata and trainable parameters.
pub struct WidenModel {
    /// Hyperparameters.
    pub config: WidenConfig,
    /// Trainable parameters.
    pub params: ParamStore,
    ids: ParamIds,
    feature_dim: usize,
    num_edge_types: usize,
    num_classes: usize,
}

impl WidenModel {
    /// Initialises a model sized for `graph` (feature dimensionality, edge
    /// vocabulary, class count) with Xavier/He weights seeded from
    /// `config.seed`.
    ///
    /// # Panics
    /// Panics if the graph has no classes or the config is invalid.
    pub fn for_graph(graph: &HeteroGraph, config: WidenConfig) -> Self {
        config.validate();
        assert!(graph.num_classes() >= 2, "classification needs ≥ 2 classes");
        let mut rng = StdRng::seed_from_u64(hash_seed(config.seed, &[0xC0FFEE]));
        let d = config.d;
        let d0 = graph.feature_dim();
        let vocab = edge_vocab_size(graph.num_edge_types(), graph.num_node_types());
        let c = graph.num_classes();

        let mut params = ParamStore::new();
        let g_node = params.register("g_node", xavier_uniform(d0, d, &mut rng));
        // Edge embeddings start near one so early packs `v ⊙ e ≈ v` and
        // training can differentiate relations gradually.
        let mut edge_init = Tensor::full(vocab, d, 1.0);
        edge_init.add_scaled(1.0, &Tensor::randn(vocab, d, 0.1, &mut rng));
        let g_edge = params.register("g_edge", edge_init);
        let wide_q = params.register("wide_q", xavier_uniform(d, d, &mut rng));
        let wide_k = params.register("wide_k", xavier_uniform(d, d, &mut rng));
        let wide_v = params.register("wide_v", xavier_uniform(d, d, &mut rng));
        let deep_q1 = params.register("deep_q1", xavier_uniform(d, d, &mut rng));
        let deep_k1 = params.register("deep_k1", xavier_uniform(d, d, &mut rng));
        let deep_v1 = params.register("deep_v1", xavier_uniform(d, d, &mut rng));
        let deep_q2 = params.register("deep_q2", xavier_uniform(d, d, &mut rng));
        let deep_k2 = params.register("deep_k2", xavier_uniform(d, d, &mut rng));
        let deep_v2 = params.register("deep_v2", xavier_uniform(d, d, &mut rng));
        let fuse_w = params.register("fuse_w", he_normal(2 * d, d, &mut rng));
        let fuse_b = params.register("fuse_b", zeros_init(1, d));
        let classifier = params.register("classifier", xavier_uniform(d, c, &mut rng));

        Self {
            config,
            params,
            ids: ParamIds {
                g_node,
                g_edge,
                wide_q,
                wide_k,
                wide_v,
                deep_q1,
                deep_k1,
                deep_v1,
                deep_q2,
                deep_k2,
                deep_v2,
                fuse_w,
                fuse_b,
                classifier,
            },
            feature_dim: d0,
            num_edge_types: graph.num_edge_types(),
            num_classes: c,
        }
    }

    /// Parameter handles.
    pub fn ids(&self) -> &ParamIds {
        &self.ids
    }

    /// Number of classes the classifier head produces.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total trainable scalar count.
    pub fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    /// Serialises the trained weights into a checkpoint buffer
    /// (hyperparameters and graph metadata live in code/config, weights in
    /// the checkpoint).
    pub fn save_weights(&self) -> Vec<u8> {
        widen_tensor::save_params(&self.params)
    }

    /// Restores weights from a checkpoint produced by
    /// [`WidenModel::save_weights`]. The model must have been constructed
    /// with the same configuration and graph metadata.
    ///
    /// Validation is all-or-nothing: the checkpoint is fully checked
    /// (decode, parameter count, names, shapes) before any parameter is
    /// written, so a failed load leaves the model untouched.
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] when the buffer is malformed or does
    /// not match this model's parameter layout. Never panics on bad input —
    /// this is the path servers load untrusted checkpoints through.
    pub fn try_load_weights(&mut self, checkpoint: &[u8]) -> Result<(), CheckpointError> {
        let loaded = widen_tensor::load_params(checkpoint)?;
        if loaded.len() != self.params.len() {
            return Err(CheckpointError::CountMismatch {
                expected: self.params.len(),
                found: loaded.len(),
            });
        }
        let mut targets = Vec::with_capacity(loaded.len());
        for (_, name, tensor) in loaded.iter() {
            let target = self
                .params
                .id(name)
                .ok_or_else(|| CheckpointError::UnknownParam(name.to_string()))?;
            if self.params.get(target).shape() != tensor.shape() {
                return Err(CheckpointError::ShapeMismatch {
                    name: name.to_string(),
                    expected: self.params.get(target).shape(),
                    found: tensor.shape(),
                });
            }
            targets.push(target);
        }
        for ((_, _, tensor), target) in loaded.iter().zip(targets) {
            *self.params.get_mut(target) = tensor.clone();
        }
        Ok(())
    }

    /// Panicking convenience wrapper around
    /// [`WidenModel::try_load_weights`] for offline tooling.
    ///
    /// # Panics
    /// Panics if the checkpoint is malformed or its parameter names or
    /// shapes do not match this model.
    pub fn load_weights(&mut self, checkpoint: &[u8]) {
        if let Err(err) = self.try_load_weights(checkpoint) {
            panic!("valid WIDEN checkpoint: {err}");
        }
    }

    /// A fresh tape pinned to this model's configured kernel backend
    /// ([`WidenConfig::backend`]). Every forward/backward pass the model or
    /// trainer runs should obtain its tape here so GEMM dispatch matches
    /// the config knob rather than the process default.
    pub fn new_tape(&self) -> Tape {
        Tape::with_backend(self.config.backend)
    }

    /// Copies the current parameter values onto a tape (once per tape).
    pub fn insert_params(&self, tape: &mut Tape) -> ParamVars {
        self.insert_params_with(|t| tape.leaf_copy(t))
    }

    /// The 14 parameters as `insert` puts them on a tape, in declaration
    /// order.
    fn insert_params_with(&self, mut insert: impl FnMut(&Tensor) -> Var) -> ParamVars {
        let p = &self.params;
        let i = &self.ids;
        ParamVars {
            g_node: insert(p.get(i.g_node)),
            g_edge: insert(p.get(i.g_edge)),
            wide_q: insert(p.get(i.wide_q)),
            wide_k: insert(p.get(i.wide_k)),
            wide_v: insert(p.get(i.wide_v)),
            deep_q1: insert(p.get(i.deep_q1)),
            deep_k1: insert(p.get(i.deep_k1)),
            deep_v1: insert(p.get(i.deep_v1)),
            deep_q2: insert(p.get(i.deep_q2)),
            deep_k2: insert(p.get(i.deep_k2)),
            deep_v2: insert(p.get(i.deep_v2)),
            fuse_w: insert(p.get(i.fuse_w)),
            fuse_b: insert(p.get(i.fuse_b)),
            classifier: insert(p.get(i.classifier)),
        }
    }

    /// The forward pass over a whole chunk of nodes (Eq. 1–7 + head) — the
    /// one implementation training, evaluation and serving all run.
    ///
    /// One pack assembly per branch and one fused ragged attention
    /// ([`Tape::segment_attention`]) per softmax for the whole chunk, which
    /// reads the *unique* pack rows in place — as keys and as values —
    /// through the batch's position → unique-row index: nothing is ever
    /// gathered into a flat per-position matrix. Eq. 3–5 are bilinear in
    /// the packs and their value paths linear, so every projection sits on
    /// the short side: the only GEMM on the `U` unique rows is Eq. 4's
    /// query `packs · (W_Q▷ W_K▷ᵀ)`; every other `W_K` is folded into a
    /// one-row-per-node query, every `W_V` applied to a one-row-per-node
    /// sum, and Eq. 4's refined rows — only ever Eq. 5's keys — exist as
    /// attention weights alone, which Eq. 5's scalar scores pass through
    /// ([`Tape::segment_attention_through`]): no value on the tape is both
    /// per-position and `d` wide. The test-only per-node reference
    /// (`model/oracle.rs`) keeps the paper's unfolded form; the two agree
    /// to f32 round-off (the differential tests pin this).
    ///
    /// The Eq. 4 causal mask needs no mask tensor here: each position's
    /// key span simply *starts at itself* and runs to the end of its walk,
    /// which encodes `θ = −∞` for earlier positions structurally.
    ///
    /// # Panics
    /// Panics if `states` is empty or the graph's feature width changed.
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        pv: &ParamVars,
        graph: &HeteroGraph,
        states: &[&NodeState],
    ) -> BatchForward {
        self.forward_chunk(tape, pv, None, graph, states)
    }

    /// [`WidenModel::forward_batch`], reading every pack and every query
    /// that depends on one `(node, edge-row)` pair alone from a frozen
    /// state's table ([`InferState`]) when it has one — then only the four
    /// one-row-per-node GEMMs (`W_V∘`, `W_V▷′`, `W`, `C`) run.
    fn forward_chunk(
        &self,
        tape: &mut Tape,
        pv: &ParamVars,
        frozen: Option<FrozenChunk<'_>>,
        graph: &HeteroGraph,
        states: &[&NodeState],
    ) -> BatchForward {
        assert!(!states.is_empty(), "forward_batch needs at least one node");
        assert_eq!(
            graph.feature_dim(),
            self.feature_dim,
            "graph feature dimensionality changed"
        );
        let b = states.len();
        let d = self.config.d;
        let variant = self.config.variant;
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        let net = self.num_edge_types;
        let table = frozen.as_ref().map(|f| f.table);

        // Wide branch (Eq. 1, 3): per-node position spans over the unique
        // pack rows.
        let mut wide_batch = None;
        let h_wide = if variant.use_wide {
            let wides: Vec<&widen_sampling::WideSet> = states.iter().map(|s| &s.wide).collect();
            let batch = match &frozen {
                Some(frozen) => frozen.wide.clone(),
                None => pack_wide_batch(tape, graph, &wides, pv.g_node, pv.g_edge, net),
            };
            let (packs, rows, spans) = (batch.unique_packs, batch.flat_index, batch.spans);
            let lens: Vec<usize> = spans.iter().map(|&(_, len)| len).collect();
            // Scores are the bilinear form `(m_t W_Q)(M W_K)ᵀ =
            // ((m_t W_Q) W_Kᵀ) Mᵀ` and the output `(a M) W_V`: both
            // projections run on the one row per node, keys and values are
            // the raw packs.
            let (q, q_rows) = match table {
                Some(table) => {
                    let q_rows = wides.iter().map(|w| table.target_row(w.target));
                    (table.eq3, q_rows.collect())
                }
                None => {
                    let m_rows: Vec<usize> = spans.iter().map(|&(start, _)| rows[start]).collect();
                    let m_t = tape.select_rows(packs, &m_rows);
                    let q = tape.matmul(m_t, pv.wide_q);
                    (tape.matmul_nt(q, pv.wide_k), (0..b).collect())
                }
            };
            let attn =
                tape.segment_attention(q, q_rows, packs, rows.clone(), spans.clone(), inv_sqrt_d);
            let gathered = tape.segment_weighted_sum(attn, packs, rows, spans);
            wide_batch = Some(WideBatch {
                attention: attn,
                lens,
            });
            tape.matmul(gathered, pv.wide_v)
        } else {
            zeros_leaf(tape, b, d)
        };

        // Deep branch (Eq. 2, 4–6): all walks of all nodes as one run of
        // positions, walk-major and grouped by node.
        let mut deep_batch = None;
        let h_deep = if variant.use_deep && states.iter().any(|s| !s.deeps.is_empty()) {
            let mut walks: Vec<&crate::state::DeepState> = Vec::new();
            let mut node_walks = Vec::with_capacity(b);
            for s in states {
                node_walks.push((walks.len(), s.deeps.len()));
                walks.extend(s.deeps.iter());
            }
            let batch = match &frozen {
                Some(frozen) => frozen.deep.clone(),
                None => pack_deep_batch(tape, graph, &walks, pv.g_node, pv.g_edge, net),
            };
            let (packs, rows, walk_spans) = (batch.unique_packs, batch.flat_index, batch.spans);

            // Eq. 4: causal successive attention. Every position queries
            // the suffix of its own walk (itself + later positions) with
            // `p_i (W_Q W_Kᵀ) p_jᵀ` — one d×d product of the parameters,
            // then the one projection of the unique rows (a frozen pair
            // table holds both); keys are the raw packs under the same
            // index. Its output is kept as weights only: the refined rows
            // `H = A M W_V` are only ever Eq. 5's keys, so they are never
            // formed (below).
            let att = variant.successive_attention.then(|| {
                // Walk by walk, so the tensor crate's whole-walk kernel takes
                // every span (pinned by widen-tensor's
                // `eq4_row_spans_are_whole_walks_the_walk_kernel_takes`).
                let row_spans: Arc<[(usize, usize)]> = walk_spans
                    .iter()
                    .flat_map(|&(start, len)| (0..len).map(move |r| (start + r, len - r)))
                    .collect();
                let q1 = match table {
                    Some(table) => table.eq4,
                    None => {
                        let qk = tape.matmul_nt(pv.deep_q1, pv.deep_k1);
                        tape.matmul(packs, qk)
                    }
                };
                let (q_rows, k_rows) = (rows.clone(), rows.clone());
                tape.segment_attention(q1, q_rows, packs, k_rows, row_spans, inv_sqrt_d)
            });

            // Eq. 5: gather into each walk's target. A node's walks share
            // its m_t▷ row, so the query is projected once per node that
            // has walks and every walk names its node's row. Scores are
            // `(m_t W_Q′)(H W_K′)ᵀ = (((m_t W_Q′) W_K′ᵀ) W_Vᵀ)(A M)ᵀ`: the
            // key-side projections are applied to the query, and `A` to
            // the query's scalar scores against the raw packs (`⟨q, Σ a·p⟩
            // = Σ a·⟨q, p⟩`) — one dot per position on the unique rows, no
            // position-specific row. With successive attention off the keys
            // are the raw packs themselves. Values are the raw packs M▷;
            // `W_V▷′` is applied after the Φ-average (Eq. 7; both are
            // linear), one row per node, and nodes without walks get zero
            // rows.
            let (q2, q_rows) = match table {
                Some(table) => {
                    let q_rows = walks.iter().map(|w| table.target_row(w.set.target));
                    (table.eq5, q_rows.collect())
                }
                None => {
                    let with_walks = || node_walks.iter().filter(|&&(_, count)| count > 0);
                    let m_rows: Vec<usize> = with_walks()
                        .map(|&(first, _)| rows[walk_spans[first].0])
                        .collect();
                    let q_rows: Arc<[usize]> = with_walks()
                        .enumerate()
                        .flat_map(|(i, &(_, count))| (0..count).map(move |_| i))
                        .collect();
                    let m_t = tape.select_rows(packs, &m_rows);
                    let q2 = tape.matmul(m_t, pv.deep_q2);
                    let q2 = tape.matmul_nt(q2, pv.deep_k2);
                    match att {
                        Some(_) => (tape.matmul_nt(q2, pv.deep_v1), q_rows),
                        None => (q2, q_rows),
                    }
                }
            };
            let (k_rows, spans, scale) = (rows.clone(), walk_spans.clone(), inv_sqrt_d);
            let attn = match att {
                Some(att) => {
                    tape.segment_attention_through(q2, q_rows, packs, k_rows, spans, att, scale)
                }
                None => tape.segment_attention(q2, q_rows, packs, k_rows, spans, scale),
            };
            let h_phi = tape.segment_weighted_sum(attn, packs, rows.clone(), walk_spans.clone());
            let phi_spans: Arc<[(usize, usize)]> = node_walks.clone().into();
            let pooled = tape.segment_mean_rows(h_phi, phi_spans);
            deep_batch = Some(DeepBatch {
                attention: attn,
                unique_packs: packs,
                unique_edges: batch.unique_edges,
                flat_index: rows,
                walk_spans,
                node_walks,
            });
            tape.matmul(pooled, pv.deep_v2)
        } else {
            zeros_leaf(tape, b, d)
        };

        // Eq. 7: fuse, feed-forward, L2 normalise — already row-wise, so
        // the per-node ops batch as-is.
        let concat = tape.hstack(&[h_wide, h_deep]);
        let ff = tape.matmul(concat, pv.fuse_w);
        let biased = tape.add_row_broadcast(ff, pv.fuse_b);
        let activated = tape.relu(biased);
        let embeddings = tape.l2_normalize_rows(activated);

        // Eq. 10 head.
        let logits = tape.matmul(embeddings, pv.classifier);

        BatchForward {
            embeddings,
            logits,
            wide: wide_batch,
            deep: deep_batch,
        }
    }

    /// Samples fresh neighbourhoods for a node at inference time (no
    /// downsampling) — this is what makes WIDEN inductive: unseen nodes are
    /// embedded purely from their sampled context and the trained weights.
    pub fn sample_state(&self, graph: &HeteroGraph, node: NodeId, seed: u64) -> NodeState {
        let mut rng = StdRng::seed_from_u64(hash_seed(seed, &[u64::from(node)]));
        let wide = sample_wide(graph, node, self.config.n_w, &mut rng);
        let deeps = sample_deep_multi(graph, node, self.config.n_d, self.config.phi, &mut rng);
        NodeState::new(wide, deeps)
    }

    /// Embeds the listed nodes (`len × d`), sampling fresh neighbourhoods
    /// with `seed`. Runs in chunks of [`WidenConfig::batch_size`] nodes;
    /// each chunk is one fused [`WidenModel::forward_batch`] through one
    /// frozen inference state ([`InferState`]) for the whole call.
    pub fn embed_nodes(&self, graph: &HeteroGraph, nodes: &[NodeId], seed: u64) -> Tensor {
        let items = seeded(nodes, seed);
        self.infer(&mut self.freeze(), graph, &items, InferOutput::Embedding)
    }

    /// Predicts class labels for the listed nodes.
    pub fn predict(&self, graph: &HeteroGraph, nodes: &[NodeId], seed: u64) -> Vec<usize> {
        let items = seeded(nodes, seed);
        argmax_rows(&self.infer(&mut self.freeze(), graph, &items, InferOutput::Logits))
    }

    /// Predicts by averaging logits over `rounds` independently sampled
    /// neighbourhoods per node. Since the forward pass is stochastic in its
    /// neighbourhood sample, averaging reduces inference variance — the
    /// usual test-time practice for sampling-based GNNs.
    pub fn predict_ensemble(
        &self,
        graph: &HeteroGraph,
        nodes: &[NodeId],
        seed: u64,
        rounds: usize,
    ) -> Vec<usize> {
        let items = seeded(nodes, seed);
        argmax_rows(&self.ensemble_sums(&mut self.freeze(), graph, &items, rounds))
    }

    /// Embeds a coalesced batch of serving requests in one fused forward
    /// pass. Unlike [`WidenModel::embed_nodes`], every item carries its own
    /// sampling seed, so requests from different clients (different seeds)
    /// can share one [`WidenModel::forward_batch`] chunk. Item `i`'s row is
    /// bit-identical to `embed_nodes(graph, &[node_i], seed_i)` regardless
    /// of what else is in the batch: every batched op is row- or
    /// segment-local.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn embed_requests(&self, graph: &HeteroGraph, items: &[(NodeId, u64)]) -> Tensor {
        self.embed_requests_with(&mut self.freeze(), graph, items)
    }

    /// [`WidenModel::embed_requests`] through a long-lived frozen state of
    /// this model ([`WidenModel::freeze`]) — bitwise the same rows.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn embed_requests_with(
        &self,
        state: &mut InferState,
        graph: &HeteroGraph,
        items: &[(NodeId, u64)],
    ) -> Tensor {
        assert!(!items.is_empty(), "embed_requests needs at least one item");
        self.infer(state, graph, items, InferOutput::Embedding)
    }

    /// Ensemble logits for a coalesced batch of serving requests: per item,
    /// the logits summed over `rounds` independently sampled neighbourhoods
    /// — the accumulation behind [`WidenModel::predict_ensemble`], so
    /// [`argmax`] of row `i` equals
    /// `predict_ensemble(graph, &[node_i], seed_i, rounds)[0]`.
    ///
    /// # Panics
    /// Panics if `items` is empty or `rounds` is zero.
    pub fn ensemble_logits(
        &self,
        graph: &HeteroGraph,
        items: &[(NodeId, u64)],
        rounds: usize,
    ) -> Tensor {
        self.ensemble_logits_with(&mut self.freeze(), graph, items, rounds)
    }

    /// [`WidenModel::ensemble_logits`] through a long-lived frozen state of
    /// this model ([`WidenModel::freeze`]) — bitwise the same rows.
    ///
    /// # Panics
    /// Panics if `items` is empty or `rounds` is zero.
    pub fn ensemble_logits_with(
        &self,
        state: &mut InferState,
        graph: &HeteroGraph,
        items: &[(NodeId, u64)],
        rounds: usize,
    ) -> Tensor {
        assert!(!items.is_empty(), "ensemble_logits needs at least one item");
        self.ensemble_sums(state, graph, items, rounds)
    }

    /// Logits summed over `rounds` sampling rounds, round `r` drawing item
    /// seeds from `hash_seed(seed, &[40, r])`.
    fn ensemble_sums(
        &self,
        state: &mut InferState,
        graph: &HeteroGraph,
        items: &[(NodeId, u64)],
        rounds: usize,
    ) -> Tensor {
        assert!(rounds >= 1, "need at least one round");
        let mut sums = Tensor::zeros(items.len(), self.num_classes);
        for r in 0..rounds as u64 {
            let round_items: Vec<(NodeId, u64)> = items
                .iter()
                .map(|&(node, seed)| (node, hash_seed(seed, &[40, r])))
                .collect();
            let logits = self.infer(state, graph, &round_items, InferOutput::Logits);
            sums.add_scaled(1.0, &logits);
        }
        sums
    }
}

/// `(node, seed)` items sharing one seed.
fn seeded(nodes: &[NodeId], seed: u64) -> Vec<(NodeId, u64)> {
    nodes.iter().map(|&node| (node, seed)).collect()
}

/// An all-zero `rows × cols` constant in a pooled buffer (a disabled
/// branch's contribution to Eq. 7).
fn zeros_leaf(tape: &mut Tape, rows: usize, cols: usize) -> Var {
    tape.constant_with(rows, cols, |t| t.as_mut_slice().fill(0.0))
}

/// Row-wise [`argmax`].
fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    (0..logits.rows()).map(|r| argmax(logits.row(r))).collect()
}

/// Index of the largest entry — the class a logit row predicts, offline
/// ([`WidenModel::predict`], [`WidenModel::predict_ensemble`]) and on the
/// wire (`Classify`). Among equal maxima the **last** index wins. NaN
/// entries never win; a row with nothing else (or no entries) yields 0, so a
/// checkpoint carrying a NaN weight degrades an answer instead of panicking
/// the worker that serves it.
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .filter(|(_, x)| !x.is_nan())
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::infer::INFER_ARENA;
    use super::*;
    use crate::ablation::Variant;
    use widen_graph::{EdgeTypeId, GraphBuilder, NodeTypeId};
    use widen_tensor::BackendKind;

    fn toy_graph() -> HeteroGraph {
        let mut b = GraphBuilder::new(&["a", "b"], &["ab", "bb"]).with_classes(2);
        let ta = b.node_type("a").unwrap();
        let tb = b.node_type("b").unwrap();
        let eab = b.edge_type("ab").unwrap();
        let ebb = b.edge_type("bb").unwrap();
        let mut ids = Vec::new();
        for i in 0..6 {
            let t = if i % 2 == 0 { ta } else { tb };
            let label = (i % 2 == 0).then_some((i / 3) as u16);
            ids.push(b.add_node(t, vec![i as f32 * 0.1, 1.0 - i as f32 * 0.1, 0.5], label));
        }
        b.add_edge(ids[0], ids[1], eab);
        b.add_edge(ids[2], ids[1], eab);
        b.add_edge(ids[1], ids[3], ebb);
        b.add_edge(ids[3], ids[5], ebb);
        b.add_edge(ids[4], ids[5], eab);
        b.add_edge(ids[0], ids[5], eab);
        b.build()
    }

    fn small_config() -> WidenConfig {
        let mut c = WidenConfig::small();
        c.d = 8;
        c.n_w = 3;
        c.n_d = 4;
        c.phi = 2;
        c
    }

    /// The ACM-like cases' configuration (3 epochs when trained).
    fn tiny_config() -> WidenConfig {
        let mut c = WidenConfig::small();
        c.d = 16;
        c.n_w = 5;
        c.n_d = 5;
        c.phi = 2;
        c.epochs = 3;
        c.batch_size = 16;
        c
    }

    /// One node through the forward pass, on a fresh tape.
    fn forward_one(model: &WidenModel, g: &HeteroGraph, state: &NodeState) -> (Tape, BatchForward) {
        let mut tape = Tape::new();
        let pv = model.insert_params(&mut tape);
        let fw = model.forward_batch(&mut tape, &pv, g, &[state]);
        (tape, fw)
    }

    #[test]
    fn forward_produces_unit_norm_embedding() {
        let g = toy_graph();
        let model = WidenModel::for_graph(&g, small_config());
        let state = model.sample_state(&g, 0, 7);
        let (tape, fw) = forward_one(&model, &g, &state);
        let emb = tape.value(fw.embeddings);
        assert_eq!(emb.shape(), (1, 8));
        let norm: f32 = emb.row(0).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4 || norm == 0.0, "norm = {norm}");
        let logits = tape.value(fw.logits);
        assert_eq!(logits.shape(), (1, 2));
    }

    #[test]
    fn attention_distributions_are_probabilities() {
        let g = toy_graph();
        let model = WidenModel::for_graph(&g, small_config());
        let state = model.sample_state(&g, 1, 3);
        let (tape, fw) = forward_one(&model, &g, &state);
        let wide = fw.wide.unwrap();
        assert_eq!(wide.lens, vec![state.wide.len() + 1]);
        let row = tape.value(wide.attention).row(0);
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        let deep = fw.deep.unwrap();
        assert_eq!(deep.node_walks, vec![(0, state.deeps.len())]);
        for walk in 0..state.deeps.len() {
            let row = tape.value(deep.attention).row(walk);
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn variant_no_wide_omits_wide_attention() {
        let g = toy_graph();
        let cfg = small_config().with_variant(Variant::no_wide());
        let model = WidenModel::for_graph(&g, cfg);
        let state = model.sample_state(&g, 0, 1);
        let (_, fw) = forward_one(&model, &g, &state);
        assert!(fw.wide.is_none());
        assert!(fw.deep.is_some());
    }

    #[test]
    fn variant_no_deep_omits_deep_outputs() {
        let g = toy_graph();
        let cfg = small_config().with_variant(Variant::no_deep());
        let model = WidenModel::for_graph(&g, cfg);
        let state = model.sample_state(&g, 0, 1);
        let (_, fw) = forward_one(&model, &g, &state);
        assert!(fw.wide.is_some());
        assert!(fw.deep.is_none());
    }

    #[test]
    fn embed_and_predict_shapes() {
        let g = toy_graph();
        let model = WidenModel::for_graph(&g, small_config());
        let nodes: Vec<u32> = (0..6).collect();
        let emb = model.embed_nodes(&g, &nodes, 11);
        assert_eq!(emb.shape(), (6, 8));
        assert!(emb.all_finite());
        let preds = model.predict(&g, &nodes, 11);
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn inference_is_seed_deterministic() {
        let g = toy_graph();
        let model = WidenModel::for_graph(&g, small_config());
        let nodes: Vec<u32> = (0..6).collect();
        let a = model.embed_nodes(&g, &nodes, 5);
        let b = model.embed_nodes(&g, &nodes, 5);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn embeddings_differ_across_nodes() {
        let g = toy_graph();
        let model = WidenModel::for_graph(&g, small_config());
        let emb = model.embed_nodes(&g, &[0, 3], 2);
        let diff: f32 = emb
            .row(0)
            .iter()
            .zip(emb.row(1))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "distinct nodes should embed differently");
    }

    #[test]
    fn parameter_count_is_reported() {
        let g = toy_graph();
        let model = WidenModel::for_graph(&g, small_config());
        // d0=3, d=8, vocab=2+2, c=2:
        // g_node 24 + g_edge 32 + 9·64 + fuse 128+8 + clf 16 = 784.
        assert_eq!(model.parameter_count(), 784);
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let g = toy_graph();
        let model = WidenModel::for_graph(&g, small_config());
        let mut tape = Tape::new();
        let pv = model.insert_params(&mut tape);
        let state = model.sample_state(&g, 0, 1);
        let fw = model.forward_batch(&mut tape, &pv, &g, &[&state]);
        let loss = tape.softmax_cross_entropy(fw.logits, &[0]);
        tape.backward(loss);
        for (id, var) in pv.pairs(model.ids()) {
            let name = model.params.name(id);
            let grad = tape.grad(var);
            assert!(grad.is_some(), "no gradient for `{name}`");
            // ReLU can zero out some paths, but most parameters must
            // receive non-trivial gradient signal — `deep_k2` through its
            // only path, the folded Eq. 5 query.
            if ["classifier", "fuse_w", "g_node", "deep_k2"].contains(&name) {
                assert!(
                    grad.unwrap().frobenius_norm() > 0.0,
                    "zero gradient for `{name}`"
                );
            }
        }
    }

    #[test]
    fn argmax_takes_the_last_maximum_and_never_panics() {
        assert_eq!(argmax(&[0.5, 2.0, -1.0]), 1);
        // Equal maxima: the last index wins (`Iterator::max_by`), which the
        // wire ≡ offline parity suites rely on.
        assert_eq!(argmax(&[1.0, 1.0]), 1);
        assert_eq!(argmax(&[3.0, f32::NAN, 3.0, 1.0]), 2);
        // NaN never wins; with nothing else to pick the answer is 0.
        assert_eq!(argmax(&[f32::NAN, -2.0]), 1);
        assert_eq!(argmax(&[f32::NAN, f32::NAN]), 0);
        assert_eq!(argmax(&[f32::NEG_INFINITY, f32::INFINITY]), 1);
    }

    /// Runs the forward pass and the per-node reference over the same
    /// states and asserts logits, embeddings, attention rows and the loss
    /// agree to `1e-5` and every parameter gradient (under an identical
    /// cross-entropy loss) to `1e-4`.
    fn assert_engines_agree(g: &HeteroGraph, cfg: WidenConfig, states: &[NodeState]) {
        let model = WidenModel::for_graph(g, cfg);
        let refs: Vec<&NodeState> = states.iter().collect();
        let labels: Vec<usize> = (0..states.len()).map(|i| i % 2).collect();

        // Oracle: per-node forward passes, logits vstacked for the loss.
        let mut tape_a = model.new_tape();
        let pv_a = model.insert_params(&mut tape_a);
        let mut masks = oracle::MaskCache::default();
        let mut logit_vars = Vec::new();
        let mut emb_rows = Vec::new();
        let mut wide_rows: Vec<Option<Vec<f32>>> = Vec::new();
        let mut deep_rows: Vec<Vec<Vec<f32>>> = Vec::new();
        let mut deep_walks = Vec::new();
        for state in &refs {
            let fw = model.forward_node(&mut tape_a, &pv_a, g, state, &mut masks);
            logit_vars.push(fw.logits);
            emb_rows.push(tape_a.value(fw.embedding).row(0).to_vec());
            wide_rows.push(fw.wide_attention.map(|v| tape_a.value(v).row(0).to_vec()));
            deep_rows.push(
                fw.deep
                    .iter()
                    .map(|d| tape_a.value(d.attention).row(0).to_vec())
                    .collect(),
            );
            deep_walks.extend(fw.deep);
        }
        let stacked = tape_a.vstack(&logit_vars);
        let loss_a = tape_a.softmax_cross_entropy(stacked, &labels);
        tape_a.backward(loss_a);

        // Batched engine under the identical loss.
        let mut tape_b = model.new_tape();
        let pv_b = model.insert_params(&mut tape_b);
        let fw = model.forward_batch(&mut tape_b, &pv_b, g, &refs);
        let loss_b = tape_b.softmax_cross_entropy(fw.logits, &labels);
        tape_b.backward(loss_b);

        let logits_a = tape_a.value(stacked);
        let logits_b = tape_b.value(fw.logits);
        assert!(
            logits_a.max_abs_diff(logits_b) <= 1e-5,
            "logits diverge: {}",
            logits_a.max_abs_diff(logits_b)
        );
        let loss_gap = (tape_a.value(loss_a).get(0, 0) - tape_b.value(loss_b).get(0, 0)).abs();
        assert!(loss_gap <= 1e-5, "losses diverge by {loss_gap}");
        let emb_b = tape_b.value(fw.embeddings);
        for (i, row) in emb_rows.iter().enumerate() {
            for (j, (a, b)) in row.iter().zip(emb_b.row(i)).enumerate() {
                assert!((a - b).abs() <= 1e-5, "embedding [{i},{j}]: {a} vs {b}");
            }
        }

        // The downsampling inputs — attention rows — must agree too.
        for (i, want) in wide_rows.iter().enumerate() {
            match (want, &fw.wide) {
                (Some(row), Some(wb)) => {
                    let got = &tape_b.value(wb.attention).row(i)[..wb.lens[i]];
                    assert_eq!(row.len(), got.len());
                    for (a, b) in row.iter().zip(got) {
                        assert!((a - b).abs() <= 1e-5, "wide attn: {a} vs {b}");
                    }
                }
                (None, None) => {}
                _ => panic!("wide branch presence differs between engines"),
            }
        }
        if let Some(db) = &fw.deep {
            for (i, walks) in deep_rows.iter().enumerate() {
                let (first, count) = db.node_walks[i];
                assert_eq!(walks.len(), count);
                for (phi, row) in walks.iter().enumerate() {
                    let (_, wlen) = db.walk_spans[first + phi];
                    let got = &tape_b.value(db.attention).row(first + phi)[..wlen];
                    assert_eq!(row.len(), got.len());
                    for (a, b) in row.iter().zip(got) {
                        assert!((a - b).abs() <= 1e-5, "deep attn: {a} vs {b}");
                    }
                }
            }
            // So must what Eq. 8 reads when a drop installs a relay: walk
            // row `r`'s pack and edge rows, through the dedup index.
            let unique_packs = tape_b.value(db.unique_packs);
            let unique_edges = tape_b.value(db.unique_edges.unwrap());
            let close = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-5);
            for (walk, &(start, len)) in deep_walks.iter().zip(db.walk_spans.iter()) {
                let packs = tape_a.value(walk.packs);
                let edges = tape_a.value(walk.edges);
                assert_eq!(packs.rows(), len);
                for r in 0..len {
                    let unique_row = db.flat_index[start + r];
                    assert!(
                        close(packs.row(r), unique_packs.row(unique_row)),
                        "pack {r}"
                    );
                    assert!(
                        close(edges.row(r), unique_edges.row(unique_row)),
                        "edge {r}"
                    );
                }
            }
        }

        let mut checked = 0;
        for ((id, var_a), (_, var_b)) in pv_a
            .pairs(model.ids())
            .into_iter()
            .zip(pv_b.pairs(model.ids()))
        {
            let name = model.params.name(id);
            let shape = model.params.get(id).shape();
            let zero = Tensor::zeros(shape.0, shape.1);
            let ga = tape_a.grad(var_a).unwrap_or(&zero);
            let gb = tape_b.grad(var_b).unwrap_or(&zero);
            let diff = ga.max_abs_diff(gb);
            assert!(diff <= 1e-4, "gradient for `{name}` diverges by {diff}");
            checked += 1;
        }
        assert_eq!(checked, 14);
    }

    fn sampled_states(g: &HeteroGraph, model_cfg: &WidenConfig, seed: u64) -> Vec<NodeState> {
        let model = WidenModel::for_graph(g, model_cfg.clone());
        (0..g.num_nodes() as u32)
            .map(|v| model.sample_state(g, v, seed))
            .collect()
    }

    #[test]
    fn batched_engine_matches_per_node_oracle_full_variant() {
        let g = toy_graph();
        let cfg = small_config();
        let states = sampled_states(&g, &cfg, 7);
        assert_engines_agree(&g, cfg, &states);

        // A realistic chunk: 24 labelled nodes of the ACM-like graph, with
        // heavy `(node, edge)` pair reuse across the batch.
        let dataset = widen_data::acm_like(widen_data::Scale::Smoke, 21);
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let states: Vec<NodeState> = dataset.graph.labeled_nodes()[..24]
            .iter()
            .map(|&v| model.sample_state(&dataset.graph, v, 5))
            .collect();
        assert_engines_agree(&dataset.graph, tiny_config(), &states);
    }

    #[test]
    fn batched_engine_matches_oracle_at_paper_width_on_the_optimized_backend() {
        // The width and backend the benchmark and the serving registry
        // run: at d = 128 the folded Eq. 5 query and the tile kernels
        // round differently from the oracle's unfolded, per-node products.
        // Paper-length sets and walks (21 keys per softmax); 3 walks per
        // node instead of 10 keep the debug-build oracle to a few seconds.
        let dataset = widen_data::acm_like(widen_data::Scale::Smoke, 21);
        let g = &dataset.graph;
        for variant in [Variant::full(), Variant::no_successive_attention()] {
            let mut cfg = WidenConfig::paper()
                .with_backend(BackendKind::Optimized)
                .with_variant(variant);
            cfg.phi = 3;
            let model = WidenModel::for_graph(g, cfg.clone());
            let states: Vec<NodeState> = g.labeled_nodes()[..12]
                .iter()
                .map(|&v| model.sample_state(g, v, 5))
                .collect();
            assert_engines_agree(g, cfg, &states);
        }
    }

    #[test]
    fn inference_after_training_matches_per_node_oracle() {
        // `embed_nodes` / `predict` on trained weights and unseen nodes
        // answer what the reference forward computes node by node.
        let dataset = widen_data::acm_like(widen_data::Scale::Smoke, 22);
        let g = &dataset.graph;
        let train: Vec<u32> = dataset.transductive.train[..32].to_vec();
        let mut trainer = crate::Trainer::new(WidenModel::for_graph(g, tiny_config()), g, &train);
        trainer.fit(&train);
        let model = trainer.into_model();

        let probe: Vec<u32> = dataset.transductive.test[..24].to_vec();
        let preds = model.predict(g, &probe, 9);
        let emb = model.embed_nodes(g, &probe, 9);

        let mut tape = Tape::new();
        let pv = model.insert_params(&mut tape);
        let mut masks = oracle::MaskCache::default();
        for (i, &node) in probe.iter().enumerate() {
            let state = model.sample_state(g, node, 9);
            let fw = model.forward_node(&mut tape, &pv, g, &state, &mut masks);
            assert_eq!(
                preds[i],
                argmax(tape.value(fw.logits).row(0)),
                "node {node}"
            );
            for (a, b) in tape.value(fw.embedding).row(0).iter().zip(emb.row(i)) {
                assert!((a - b).abs() <= 1e-5, "embedding of {node}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_engine_matches_oracle_without_successive_attention() {
        let g = toy_graph();
        let cfg = small_config().with_variant(Variant::no_successive_attention());
        let states = sampled_states(&g, &cfg, 8);
        assert_engines_agree(&g, cfg, &states);
    }

    #[test]
    fn batched_engine_matches_oracle_wide_only_and_deep_only() {
        let g = toy_graph();
        for variant in [Variant::no_deep(), Variant::no_wide()] {
            let cfg = small_config().with_variant(variant);
            let states = sampled_states(&g, &cfg, 9);
            assert_engines_agree(&g, cfg, &states);
        }
    }

    #[test]
    fn batched_engine_matches_oracle_with_relay_overrides() {
        let g = toy_graph();
        let cfg = small_config();
        let mut states = sampled_states(&g, &cfg, 10);
        // Install a relay override (Eq. 8 outcome) on every walk that has
        // at least one hop, like downsampling would.
        let d = g.feature_dim().max(cfg.d);
        let mut installed = 0;
        for state in &mut states {
            for deep in &mut state.deeps {
                if !deep.is_empty() {
                    let relay: Vec<f32> = (0..cfg.d).map(|k| 0.1 + k as f32 / d as f32).collect();
                    deep.edge_override[0] = Some(relay);
                    installed += 1;
                }
            }
        }
        assert!(installed > 0, "toy graph must produce at least one walk");
        assert_engines_agree(&g, cfg, &states);
    }

    /// Prunes every walk to `k▷`, each prune leaving a relay override on
    /// the successor (what Algorithm 2 + Eq. 8 leave behind late in a fit);
    /// every walk ends with at least one override. Returns their count `R`.
    fn prune_with_relays(states: &mut [NodeState], cfg: &WidenConfig) -> usize {
        prune_ragged_with_relays(states, cfg, |_| 0)
    }

    /// [`prune_with_relays`] with the `w`-th walk left `extra(w)` packs
    /// above `k▷`, so walk lengths differ within one chunk.
    fn prune_ragged_with_relays(
        states: &mut [NodeState],
        cfg: &WidenConfig,
        extra: impl Fn(usize) -> usize,
    ) -> usize {
        let mut stamp = 0.0f32;
        let walks = states.iter_mut().flat_map(|s| s.deeps.iter_mut());
        for (w, walk) in walks.enumerate() {
            while walk.len() > cfg.k_deep + extra(w) {
                let s = walk.len() % 2;
                stamp += 1.0;
                let relay = (0..cfg.d)
                    .map(|k| 0.5 + (stamp + k as f32) * 1e-4)
                    .collect();
                walk.edge_override[s + 1] = Some(relay);
                walk.prune(s);
            }
        }
        let overrides = |w: &crate::state::DeepState| w.edge_override.iter().flatten().count();
        assert!(states
            .iter()
            .flat_map(|s| &s.deeps)
            .all(|w| overrides(w) > 0));
        states.iter().flat_map(|s| &s.deeps).map(overrides).sum()
    }

    /// `rows` (Σ left-operand rows over the GEMMs of one step) is within
    /// `budget`, and the slack left is too small for a second GEMM on the
    /// `u_deep` unique rows to hide in.
    fn assert_one_u_row_gemm(rows: usize, u_deep: usize, budget: usize) {
        assert!(
            u_deep <= rows && rows <= budget,
            "{rows} GEMM rows for a budget of {budget}"
        );
        assert!(rows + u_deep > budget, "the budget fits two U-row GEMMs");
    }

    #[test]
    fn gemm_rows_stay_on_the_short_side() {
        // The benchmark's chunk: the 60 training nodes of the ACM-like
        // smoke graph at `WidenConfig::paper()`, forward + backward under
        // the profiler. The only GEMM allowed on the `U` unique deep rows
        // is Eq. 4's query; a projection that drifts back onto them breaks
        // the row budget (and the FLOP ceiling), a `refined` that drifts
        // back fails by name — no clock involved.
        let dataset = widen_data::acm_like(widen_data::Scale::Smoke, 7);
        let g = &dataset.graph;
        let cfg = WidenConfig::paper().with_backend(BackendKind::Optimized);
        let model = WidenModel::for_graph(g, cfg.clone());
        let train = &dataset.transductive.train;
        assert_eq!(train.len(), 60);
        let mut states: Vec<NodeState> =
            train.iter().map(|&v| model.sample_state(g, v, 1)).collect();
        let labels: Vec<usize> = train
            .iter()
            .map(|&v| g.label(v).unwrap() as usize)
            .collect();

        let distinct = |ids: &mut Vec<u32>| {
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        // `(profile, U_deep, row budget, F, wide positions)` of one
        // training step.
        let step = |states: &[NodeState]| {
            let mut tape = model.new_tape();
            tape.enable_profiling();
            let pv = model.insert_params(&mut tape);
            let refs: Vec<&NodeState> = states.iter().collect();
            let fw = model.forward_batch(&mut tape, &pv, g, &refs);
            let loss = tape.softmax_cross_entropy(fw.logits, &labels);
            tape.backward(loss);
            let deep = fw.deep.unwrap();
            let u_deep = tape.value(deep.unique_packs).rows();
            let positions = deep.flat_index.len();
            let wide_positions: usize = fw.wide.unwrap().lens.iter().sum();
            let mut wide_ids: Vec<u32> = states
                .iter()
                .flat_map(|s| {
                    std::iter::once(s.wide.target).chain(s.wide.entries.iter().map(|e| e.node))
                })
                .collect();
            let mut deep_ids: Vec<u32> = states
                .iter()
                .flat_map(|s| &s.deeps)
                .flat_map(|w| {
                    std::iter::once(w.set.target).chain(w.set.entries.iter().map(|e| e.node))
                })
                .collect();
            let budget = u_deep
                + distinct(&mut deep_ids)
                + distinct(&mut wide_ids)
                + 2 * cfg.d
                + 12 * states.len();
            let report = tape.take_profile().unwrap();
            (report, u_deep, budget, positions, wide_positions)
        };
        let op = |report: &widen_tensor::ProfileReport, name: &str| {
            report.ops.iter().find(|o| o.name == name).cloned()
        };
        let gemm_rows = |report: &widen_tensor::ProfileReport| {
            let rows = |name| op(report, name).map_or(0, |o| o.lhs_rows as usize);
            rows("matmul") + rows("matmul_nt")
        };

        // No flat `d`-wide value either: Eq. 4's refined rows would be an
        // `F × d` output (`F` positions) and `2·d` FLOPs per (position,
        // later position) pair of `segment_weighted_sum`, which now only
        // runs the two one-row-per-node/-walk sums.
        let d = cfg.d;
        let assert_no_flat_rows = |report: &widen_tensor::ProfileReport, f: usize, wide: usize| {
            for o in &report.ops {
                assert_ne!(o.largest_out, (f, d), "`{}` put an F × d value", o.name);
            }
            let sums = op(report, "segment_weighted_sum").unwrap();
            assert_eq!((sums.count, sums.flops), (2, (2 * d * (wide + f)) as u64));
            sums.flops
        };

        let (report, u_deep, budget, f, wide) = step(&states);
        assert_one_u_row_gemm(gemm_rows(&report), u_deep, budget);
        let gflop = report.total_flops() as f64 / 1e9;
        assert!(gflop <= 0.15, "{gflop} GFLOP per dense step");
        let sums = assert_no_flat_rows(&report, f, wide);
        // Dense walks hold n_d + 1 positions, so the refined rows alone
        // cost `2·d` FLOPs for each of F·(n_d + 2)/2 pairs.
        let refined = (d * f * (cfg.n_d + 2)) as f64;
        assert!(sums as f64 <= 0.15 * (sums as f64 + refined));

        // Late in a pruning fit: every walk at k▷ with relay overrides, so
        // `U` is mostly private relay rows. Still one U-row GEMM; the
        // relays cost one R-row constant, one stack and the gather — no
        // mask (`mul`), no re-fill (`add`).
        let relays = prune_with_relays(&mut states, &cfg);
        let (report, u_deep, budget, f, wide) = step(&states);
        assert!(u_deep > relays);
        assert_one_u_row_gemm(gemm_rows(&report), u_deep, budget);
        let gflop = report.total_flops() as f64 / 1e9;
        assert!(gflop <= 0.15, "{gflop} GFLOP per pruned step");
        assert_no_flat_rows(&report, f, wide);
        assert!(op(&report, "add").is_none());
        // One `v ⊙ e` per branch and nothing else.
        assert_eq!(op(&report, "mul").unwrap().count, 2);
        let vocab = edge_vocab_size(g.num_edge_types(), g.num_node_types());
        let stack = op(&report, "vstack").unwrap();
        assert_eq!(stack.count, 1);
        assert_eq!(
            stack.last_shape,
            format!("{vocab}×{d}·{relays}×{d}→{}×{d}", vocab + relays, d = cfg.d)
        );
    }

    /// The graph of the paper-width cases below.
    fn paper_width_graph() -> HeteroGraph {
        widen_data::acm_like(widen_data::Scale::Smoke, 21).graph
    }

    /// Paper width, 3 walks per node, 6 labelled nodes of the ACM-like
    /// graph: small enough for the debug-build oracle, wide enough (21 keys
    /// per softmax, d = 128) that the reassociated products round
    /// differently from it.
    fn paper_width_case(
        g: &HeteroGraph,
        backend: BackendKind,
        variant: Variant,
    ) -> (WidenConfig, Vec<NodeState>) {
        let mut cfg = WidenConfig::paper()
            .with_backend(backend)
            .with_variant(variant);
        cfg.phi = 3;
        let model = WidenModel::for_graph(g, cfg.clone());
        let states = g.labeled_nodes()[..6]
            .iter()
            .map(|&v| model.sample_state(g, v, 5))
            .collect();
        (cfg, states)
    }

    #[test]
    fn per_node_query_skips_walkless_nodes() {
        // Eq. 5's query has one row per node *that has walks*; a walk-less
        // node between two others must not shift their rows, and its own
        // deep contribution is exactly zero — its output is bitwise what it
        // is alone, where the deep branch never runs.
        let g = paper_width_graph();
        for backend in BackendKind::all() {
            let (cfg, mut states) = paper_width_case(&g, backend, Variant::full());
            states[1].deeps.clear();
            states[4].deeps.clear();
            assert_engines_agree(&g, cfg.clone(), &states);

            let model = WidenModel::for_graph(&g, cfg);
            let embed = |states: &[&NodeState]| {
                let mut tape = model.new_tape();
                let pv = model.insert_params(&mut tape);
                let fw = model.forward_batch(&mut tape, &pv, &g, states);
                tape.value(fw.embeddings).clone()
            };
            let together = embed(&states.iter().collect::<Vec<_>>());
            for i in [1, 4] {
                let alone = embed(&[&states[i]]);
                assert_eq!(together.row(i), alone.row(0), "{backend:?}: node {i}");
            }
        }
    }

    #[test]
    fn scores_through_eq4_match_oracle_on_dense_ragged_and_walkless_chunks() {
        // Eq. 5's scores reach their softmax through Eq. 4's attention as
        // scalars; the oracle forms the refined rows and projects them. At
        // d = 128 on both backends, all 14 gradients: the dense chunk, then
        // walks pruned to k▷ … k▷ + 2 with relay overrides on every walk (a
        // different `L` from walk to walk) around a walk-less node.
        let g = paper_width_graph();
        for backend in BackendKind::all() {
            let (cfg, mut states) = paper_width_case(&g, backend, Variant::full());
            assert_engines_agree(&g, cfg.clone(), &states);

            prune_ragged_with_relays(&mut states, &cfg, |w| w % 3);
            states[2].deeps.clear();
            assert_engines_agree(&g, cfg.clone(), &states);

            // What Algorithms 1–3 read: every walk's row is a distribution
            // over its valid prefix, the padding exact `+0.0`.
            let model = WidenModel::for_graph(&g, cfg);
            let mut tape = model.new_tape();
            let pv = model.insert_params(&mut tape);
            let refs: Vec<&NodeState> = states.iter().collect();
            let deep = model.forward_batch(&mut tape, &pv, &g, &refs).deep.unwrap();
            let attention = tape.value(deep.attention);
            let lens: Vec<usize> = deep.walk_spans.iter().map(|&(_, len)| len).collect();
            assert!(lens.iter().min() < lens.iter().max());
            assert_eq!(attention.cols(), *lens.iter().max().unwrap());
            for (w, &len) in lens.iter().enumerate() {
                let (valid, padding) = attention.row(w).split_at(len);
                assert!((valid.iter().sum::<f32>() - 1.0).abs() <= 1e-5, "walk {w}");
                assert!(padding.iter().all(|x| x.to_bits() == 0), "walk {w}");
            }
        }
    }

    #[test]
    fn stacked_relay_gather_matches_oracle_at_paper_width() {
        // Relay overrides on every walk: every override position reads its
        // own constant row under the table, every other position a table
        // row — bit for bit — and all 14 gradients agree with the oracle's
        // per-walk vstack of 1-row leaves.
        let g = paper_width_graph();
        for backend in BackendKind::all() {
            let (cfg, mut states) = paper_width_case(&g, backend, Variant::full());
            let relays = prune_with_relays(&mut states, &cfg);
            assert_engines_agree(&g, cfg.clone(), &states);

            let model = WidenModel::for_graph(&g, cfg);
            let mut tape = model.new_tape();
            let pv = model.insert_params(&mut tape);
            let refs: Vec<&NodeState> = states.iter().collect();
            let deep = model.forward_batch(&mut tape, &pv, &g, &refs).deep.unwrap();
            let edges = tape.value(deep.unique_edges.unwrap());
            let table = tape.value(pv.g_edge);
            let walks = states.iter().flat_map(|s| &s.deeps);
            let mut seen = 0;
            for (walk, &(start, _)) in walks.zip(deep.walk_spans.iter()) {
                for (s, entry) in walk.set.entries.iter().enumerate() {
                    let got = edges.row(deep.flat_index[start + s + 1]);
                    match &walk.edge_override[s] {
                        Some(relay) => {
                            assert_eq!(got, &relay[..]);
                            seen += 1;
                        }
                        None => assert_eq!(got, table.row(entry.edge_type as usize)),
                    }
                }
            }
            assert_eq!(seen, relays);
        }
    }

    #[test]
    fn successive_attention_off_leaves_eq4_parameters_out() {
        // With Eq. 4 off the keys are the raw packs: `W_V▷` must not join
        // Eq. 5's query chain, and `W_Q▷` / `W_K▷` / `W_V▷` take no
        // gradient at all (`extract_grads` supplies their zero tensors).
        let g = paper_width_graph();
        for backend in BackendKind::all() {
            let (cfg, states) = paper_width_case(&g, backend, Variant::no_successive_attention());
            assert_engines_agree(&g, cfg.clone(), &states);

            let model = WidenModel::for_graph(&g, cfg);
            let mut tape = model.new_tape();
            let pv = model.insert_params(&mut tape);
            let refs: Vec<&NodeState> = states.iter().collect();
            let fw = model.forward_batch(&mut tape, &pv, &g, &refs);
            let loss = tape.softmax_cross_entropy(fw.logits, &[0, 1, 0, 1, 0, 1]);
            tape.backward(loss);
            for var in [pv.deep_q1, pv.deep_k1, pv.deep_v1] {
                assert!(tape.grad(var).is_none());
            }
            assert!(tape.grad(pv.deep_k2).unwrap().frobenius_norm() > 0.0);
        }
    }

    #[test]
    fn try_load_weights_round_trips_and_validates() {
        let g = toy_graph();
        let mut model = WidenModel::for_graph(&g, small_config());
        let checkpoint = model.save_weights();
        let mut other = WidenModel::for_graph(&g, small_config().with_seed(99));
        other.try_load_weights(&checkpoint).expect("valid load");
        for (id, name, tensor) in model.params.iter() {
            let _ = id;
            let oid = other.params.id(name).unwrap();
            assert_eq!(other.params.get(oid).as_slice(), tensor.as_slice());
        }

        // Structural garbage is an error, not a panic.
        assert!(matches!(
            model.try_load_weights(b"not a checkpoint"),
            Err(CheckpointError::BadMagic)
        ));
        assert!(model
            .try_load_weights(&checkpoint[..checkpoint.len() / 2])
            .is_err());

        // A layout mismatch (differently-sized model) is an error, and a
        // failed load leaves the target parameters untouched.
        let mut big_cfg = small_config();
        big_cfg.d = 16;
        let mut big = WidenModel::for_graph(&g, big_cfg);
        let before = big.params.snapshot();
        assert!(matches!(
            big.try_load_weights(&checkpoint),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
        for ((_, _, t), old) in big.params.iter().zip(&before) {
            assert_eq!(t.as_slice(), old.as_slice(), "failed load must not mutate");
        }
    }

    #[test]
    #[should_panic(expected = "valid WIDEN checkpoint")]
    fn load_weights_wrapper_panics_on_garbage() {
        let g = toy_graph();
        let mut model = WidenModel::for_graph(&g, small_config());
        model.load_weights(b"garbage");
    }

    /// `small_config` at d = 32 on `backend`: wide enough that a lane-split
    /// and a sequential reduction differ (at d ≤ 16 they coincide), so a
    /// kernel whose arithmetic depends on the row count cannot hide.
    fn serving_config(backend: BackendKind) -> WidenConfig {
        let mut cfg = small_config().with_backend(backend);
        cfg.d = 32;
        cfg
    }

    #[test]
    fn request_rows_are_invariant_to_batch_composition() {
        // The serving batcher coalesces jobs from unrelated requests into
        // one forward_batch; a node's output must not depend on its batch
        // neighbours, bit for bit. At phi = 2 one item alone is 2 Eq. 5
        // query rows, a batch of 4 is 8 and a batch of 8 is 16: below, at
        // and above the optimized backend's packing threshold.
        let g = toy_graph();
        for backend in BackendKind::all() {
            let model = WidenModel::for_graph(&g, serving_config(backend));
            let items: Vec<(u32, u64)> = vec![
                (0, 7),
                (3, 9),
                (5, 7),
                (1, 1234),
                (2, 7),
                (4, 11),
                (0, 8),
                (3, 1),
            ];
            for batch in [&items[..4], &items[..]] {
                let together = model.embed_requests(&g, batch);
                let logits_together = model.ensemble_logits(&g, batch, 3);
                for (i, &item) in batch.iter().enumerate() {
                    let alone = model.embed_requests(&g, &[item]);
                    assert_eq!(
                        together.row(i),
                        alone.row(0),
                        "{backend:?}: row {i} of {} changed with batch composition",
                        batch.len()
                    );
                    let alone = model.ensemble_logits(&g, &[item], 3);
                    assert_eq!(logits_together.row(i), alone.row(0), "{backend:?}");
                }
            }
        }
    }

    #[test]
    fn dirty_arena_never_leaks_into_another_requests_rows() {
        // One thread (one arena) serves batches of 32, 1, 8 and 32 items,
        // every parked buffer poisoned with NaN in between; each batch's
        // rows must equal, bit for bit, the same batch served on a thread
        // of its own, whose arena starts empty.
        let ds = widen_data::acm_like(widen_data::Scale::Smoke, 5);
        let g = &ds.graph;
        for backend in BackendKind::all() {
            dirty_arena_case(g, &WidenModel::for_graph(g, serving_config(backend)));
        }
    }

    fn dirty_arena_case(g: &HeteroGraph, model: &WidenModel) {
        let nodes = g.labeled_nodes();
        let mut next = 0;
        let batches: Vec<Vec<(u32, u64)>> = [32, 1, 8, 32]
            .iter()
            .map(|&len| {
                let items = (next..next + len)
                    .map(|i| (nodes[i % nodes.len()], 1000 + i as u64))
                    .collect();
                next += len;
                items
            })
            .collect();
        let serve = |items: &[(u32, u64)]| {
            (
                model.embed_requests(g, items),
                model.ensemble_logits(g, items, 2),
            )
        };
        let (fresh, warm) = std::thread::scope(|s| {
            let fresh: Vec<_> = batches
                .iter()
                .map(|items| s.spawn(|| serve(items)).join().unwrap())
                .collect();
            let warm = s
                .spawn(|| {
                    let served: Vec<_> = batches
                        .iter()
                        .map(|items| {
                            let out = serve(items);
                            INFER_ARENA.with_borrow_mut(|arena| arena.fill_parked(f32::NAN));
                            out
                        })
                        .collect();
                    let stats = INFER_ARENA.with_borrow(|arena| arena.stats());
                    assert!(stats.hits > stats.misses, "the arena must be reused");
                    served
                })
                .join()
                .unwrap();
            (fresh, warm)
        });
        for (i, (fresh, warm)) in fresh.iter().zip(&warm).enumerate() {
            assert_eq!(fresh.0.as_slice(), warm.0.as_slice(), "embeddings {i}");
            assert_eq!(fresh.1.as_slice(), warm.1.as_slice(), "logits {i}");
        }
    }

    #[test]
    fn ensemble_logits_argmax_matches_predict_ensemble() {
        let g = toy_graph();
        let model = WidenModel::for_graph(&g, small_config());
        let nodes: Vec<u32> = (0..6).collect();
        for seed in [3u64, 11] {
            let serial = model.predict_ensemble(&g, &nodes, seed, 2);
            let items: Vec<(u32, u64)> = nodes.iter().map(|&n| (n, seed)).collect();
            let logits = model.ensemble_logits(&g, &items, 2);
            let via_requests: Vec<usize> =
                (0..items.len()).map(|i| argmax(logits.row(i))).collect();
            assert_eq!(serial, via_requests);
        }
    }

    /// Whether `state`'s sample reads `node` anywhere.
    fn reads(state: &NodeState, node: u32) -> bool {
        let wide =
            std::iter::once(state.wide.target).chain(state.wide.entries.iter().map(|e| e.node));
        let deep = state.deeps.iter().flat_map(|w| {
            std::iter::once(w.set.target).chain(w.set.entries.iter().map(|e| e.node))
        });
        wide.chain(deep).any(|n| n == node)
    }

    #[test]
    fn a_long_lived_frozen_state_serves_the_one_call_rows_across_graph_growth() {
        // One state over many calls — the serving worker's life — answers
        // bitwise what a fresh one-call state does: on both backends, for
        // embeddings and ensemble logits, and after the graph grew under
        // it: the new node itself, and an old node whose sample now reads
        // it (its table row is projected by the chunk that first reads it).
        let ds = widen_data::acm_like(widen_data::Scale::Smoke, 5);
        for backend in BackendKind::all() {
            let mut g = ds.graph.clone();
            let model = WidenModel::for_graph(&g, serving_config(backend));
            let mut state = model.freeze();
            let nodes = g.labeled_nodes();
            for (round, len) in [32usize, 1, 8, 32].into_iter().enumerate() {
                let items: Vec<(u32, u64)> = (0..len)
                    .map(|i| (nodes[(7 * round + i) % nodes.len()], 1000 + i as u64))
                    .collect();
                let rows = model.embed_requests_with(&mut state, &g, &items);
                assert_eq!(rows.as_slice(), model.embed_requests(&g, &items).as_slice());
                let logits = model.ensemble_logits_with(&mut state, &g, &items, 2);
                assert_eq!(
                    logits.as_slice(),
                    model.ensemble_logits(&g, &items, 2).as_slice()
                );
            }

            let peers = [(nodes[0], EdgeTypeId(0)), (nodes[1], EdgeTypeId(0))];
            let features = vec![0.25; g.feature_dim()];
            let new = g
                .add_node_with_edges(NodeTypeId(0), features, None, &peers)
                .unwrap();
            let reader = (0..new)
                .flat_map(|v| (0..16u64).map(move |seed| (v, seed)))
                .find(|&(v, seed)| reads(&model.sample_state(&g, v, seed), new))
                .expect("an old node's sample reaches the new one");
            for items in [vec![(new, 3)], vec![reader], vec![reader, (new, 3)]] {
                let rows = model.embed_requests_with(&mut state, &g, &items);
                assert_eq!(rows.as_slice(), model.embed_requests(&g, &items).as_slice());
            }
        }
    }

    #[test]
    fn one_state_shares_its_table_across_the_chunks_of_a_call() {
        // `embed_nodes` over 2.5 chunks runs one state: later chunks read
        // rows earlier chunks projected. Every row is still the row of its
        // chunk alone, and of its node alone.
        let ds = widen_data::acm_like(widen_data::Scale::Smoke, 5);
        let g = &ds.graph;
        let mut cfg = serving_config(BackendKind::Optimized);
        cfg.batch_size = 16;
        let model = WidenModel::for_graph(g, cfg);
        let nodes = &g.labeled_nodes()[..40];
        let all = model.embed_nodes(g, nodes, 9);
        for (c, chunk) in nodes.chunks(16).enumerate() {
            let alone = model.embed_nodes(g, chunk, 9);
            assert_eq!(
                &all.as_slice()[c * 16 * 32..][..alone.len()],
                alone.as_slice()
            );
        }
        for (i, &node) in nodes.iter().enumerate() {
            assert_eq!(all.row(i), model.embed_nodes(g, &[node], 9).row(0));
        }
    }

    /// Item rows as the training engine computes them — `insert_params` +
    /// `forward_batch` on a fresh tape per chunk of `batch_size` items:
    /// `(embeddings, logits summed over rounds as ensemble_logits does)`.
    fn engine_rows(
        model: &WidenModel,
        g: &HeteroGraph,
        items: &[(u32, u64)],
        rounds: u64,
    ) -> (Tensor, Tensor) {
        let forward = |items: &[(u32, u64)]| {
            let (mut emb, mut logits) = (Vec::new(), Vec::new());
            for chunk in items.chunks(model.config.batch_size) {
                let states: Vec<NodeState> = chunk
                    .iter()
                    .map(|&(node, seed)| model.sample_state(g, node, seed))
                    .collect();
                let mut tape = model.new_tape();
                let pv = model.insert_params(&mut tape);
                let fw = model.forward_batch(&mut tape, &pv, g, &states.iter().collect::<Vec<_>>());
                emb.extend_from_slice(tape.value(fw.embeddings).as_slice());
                logits.extend_from_slice(tape.value(fw.logits).as_slice());
            }
            let c = model.num_classes();
            let logits = Tensor::from_vec(items.len(), c, logits);
            (Tensor::from_vec(items.len(), model.config.d, emb), logits)
        };
        let mut sums = Tensor::zeros(items.len(), model.num_classes());
        for r in 0..rounds {
            let round: Vec<(u32, u64)> = items
                .iter()
                .map(|&(node, seed)| (node, hash_seed(seed, &[40, r])))
                .collect();
            sums.add_scaled(1.0, &forward(&round).1);
        }
        (forward(items).0, sums)
    }

    #[test]
    fn served_rows_are_the_training_engines_rows_bitwise() {
        // Every other frozen-state test compares one state with another, so
        // a drift both shared would pass them. Here a warm, long-lived state
        // answers what training's own engine computes, row for row: on both
        // backends, under four variants, over chunks whose rows were filled
        // by earlier chunks and calls, and after the graph grew by a node
        // with no neighbours (every walk empty) and one wired to old nodes.
        let ds = widen_data::acm_like(widen_data::Scale::Smoke, 5);
        let variants = [
            Variant::full(),
            Variant::no_successive_attention(),
            Variant::no_wide(),
            Variant::no_deep(),
        ];
        for backend in BackendKind::all() {
            for variant in variants {
                let mut g = ds.graph.clone();
                let mut cfg = serving_config(backend).with_variant(variant);
                cfg.batch_size = 8;
                let model = WidenModel::for_graph(&g, cfg);
                let mut state = model.freeze();
                let check = |state: &mut InferState, g: &HeteroGraph, items: &[(u32, u64)]| {
                    let (emb, sums) = engine_rows(&model, g, items, 2);
                    let served = model.embed_requests_with(state, g, items);
                    assert_eq!(served.as_slice(), emb.as_slice(), "{backend:?} {variant:?}");
                    let served = model.ensemble_logits_with(state, g, items, 2);
                    assert_eq!(
                        served.as_slice(),
                        sums.as_slice(),
                        "{backend:?} {variant:?}"
                    );
                };
                let nodes = g.labeled_nodes();
                let items: Vec<(u32, u64)> = (0..20)
                    .map(|i| (nodes[3 * i % nodes.len()], 100 + i as u64))
                    .collect();
                check(&mut state, &g, &items);
                check(&mut state, &g, &items[5..]);

                let features = vec![0.5; g.feature_dim()];
                let lonely = g
                    .add_node_with_edges(NodeTypeId(0), features.clone(), None, &[])
                    .unwrap();
                let peers = [(nodes[0], EdgeTypeId(0)), (nodes[1], EdgeTypeId(0))];
                let wired = g
                    .add_node_with_edges(NodeTypeId(0), features, None, &peers)
                    .unwrap();
                let model_state = model.sample_state(&g, lonely, 3);
                assert!(model_state.deeps.iter().all(|w| w.is_empty()));
                check(
                    &mut state,
                    &g,
                    &[(nodes[2], 7), (lonely, 3), (wired, 4), (nodes[0], 5)],
                );
            }
        }
    }

    #[test]
    fn a_warm_chunk_runs_four_gemms_on_b_rows_and_reads_its_pairs_in_place() {
        // The benchmark's serving shape: 32 requests at `WidenConfig::paper()`
        // on the ACM-like smoke graph. Once a state has filled the chunk's
        // pairs, the chunk records `W_V∘`, `W_V▷′`, `W` and `C` on its `b`
        // rows and nothing else that multiplies: no `G_node` projection, no
        // pack gather or `v ⊙ e`, no Eq. 3–5 query GEMM, no op with the
        // chunk's `U` unique pair rows — by name and shape, no clock.
        let ds = widen_data::acm_like(widen_data::Scale::Smoke, 7);
        let g = &ds.graph;
        let model = WidenModel::for_graph(g, WidenConfig::paper());
        let b = 32;
        let items: Vec<(u32, u64)> = g.labeled_nodes()[..b].iter().map(|&v| (v, 1)).collect();
        let mut state = model.freeze();
        let cold = model.embed_requests_with(&mut state, g, &items);
        state.tape.enable_profiling();
        let warm = model.embed_requests_with(&mut state, g, &items);
        assert_eq!(cold.as_slice(), warm.as_slice());
        let report = state.tape.take_profile().unwrap();

        let mut names: Vec<&str> = report.ops.iter().map(|o| o.name).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "add_row_broadcast",
                "hstack",
                "l2_normalize_rows",
                "matmul",
                "relu",
                "segment_attention",
                "segment_attention_through",
                "segment_mean_rows",
                "segment_weighted_sum",
            ]
        );
        let matmul = report.ops.iter().find(|o| o.name == "matmul").unwrap();
        assert_eq!((matmul.count, matmul.lhs_rows), (4, 4 * b as u64));

        // The chunk's unique pair rows, as a training tape assembles them.
        let states: Vec<NodeState> = items
            .iter()
            .map(|&(v, seed)| model.sample_state(g, v, seed))
            .collect();
        let mut tape = model.new_tape();
        let pv = model.insert_params(&mut tape);
        let fw = model.forward_batch(&mut tape, &pv, g, &states.iter().collect::<Vec<_>>());
        let u_deep = tape.value(fw.deep.unwrap().unique_packs).rows();
        let wides: Vec<_> = states.iter().map(|s| &s.wide).collect();
        let net = g.num_edge_types();
        let wide =
            crate::packaging::pack_wide_batch(&mut tape, g, &wides, pv.g_node, pv.g_edge, net);
        let u_wide = tape.value(wide.unique_packs).rows();
        for o in &report.ops {
            assert!(
                ![u_deep, u_wide].contains(&o.largest_out.0),
                "`{}` put a {:?} value on a warm chunk",
                o.name,
                o.largest_out
            );
        }
    }

    #[test]
    fn embed_requests_matches_embed_nodes() {
        let g = toy_graph();
        let model = WidenModel::for_graph(&g, small_config());
        let nodes: Vec<u32> = vec![0, 2, 4];
        let bulk = model.embed_nodes(&g, &nodes, 13);
        let items: Vec<(u32, u64)> = nodes.iter().map(|&n| (n, 13)).collect();
        let via_requests = model.embed_requests(&g, &items);
        assert_eq!(bulk.max_abs_diff(&via_requests), 0.0);
    }
}
