//! Checkpoint-backed model registry: the bundle of graph, configuration
//! and restored weights the batcher reads and grows.
//!
//! Since the streaming-graph work the registry is no longer immutable: the
//! `Ingest` wire op grows the served graph online, and
//! [`ModelRegistry::hot_swap`] replaces the weights with a new checkpoint
//! without restarting the server. Both go through one `RwLock` over the
//! whole [`ServingState`], so a batch that takes a single read guard sees
//! a consistent `(model, graph, digest)` snapshot — a swap can never land
//! between reading the digest and running the forward pass.

use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use widen_core::{WidenConfig, WidenModel};
use widen_graph::{EdgeTypeId, HeteroGraph, MutationError, NodeTypeId};
use widen_tensor::{digest64, CheckpointError};

/// The consistent snapshot a read guard exposes: model, graph, the
/// checkpoint digest identifying the model generation, and the graph
/// version identifying the mutation generation.
pub struct ServingState {
    model: WidenModel,
    graph: HeteroGraph,
    checkpoint_hash: u64,
    graph_version: u64,
}

impl ServingState {
    /// The serving model.
    pub fn model(&self) -> &WidenModel {
        &self.model
    }

    /// The graph requests resolve node ids against.
    pub fn graph(&self) -> &HeteroGraph {
        &self.graph
    }

    /// FNV-1a digest of the checkpoint bytes — the cache-key generation id.
    pub fn checkpoint_hash(&self) -> u64 {
        self.checkpoint_hash
    }

    /// Monotone mutation counter, bumped by every successful graph
    /// mutation (never by a weight swap). Part of the embedding cache key:
    /// a mutation anywhere in the graph can change the sampling stream of
    /// any node within the walk radius, so rows computed on an older graph
    /// version must never be served — versioning the key makes them
    /// unreachable without computing receptive fields.
    pub fn graph_version(&self) -> u64 {
        self.graph_version
    }
}

/// What a successful [`ModelRegistry::ingest`] hands back: the assigned
/// node id, its embedding under the requested seed, and the generation
/// the embedding was computed under (for cache insertion).
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// Id of the freshly added node.
    pub node: u32,
    /// The node's embedding, computed on the post-mutation graph.
    pub embedding: Vec<f32>,
    /// Checkpoint digest of the model that produced the embedding.
    pub checkpoint_hash: u64,
    /// Graph version the embedding was computed under (post-mutation).
    pub graph_version: u64,
}

/// A shareable serving bundle: graph + configuration + weights restored
/// through the fallible checkpoint path, behind one `RwLock` so the graph
/// can grow and the weights can be hot-swapped while requests are served.
pub struct ModelRegistry {
    state: RwLock<ServingState>,
}

impl ModelRegistry {
    /// Builds a registry by constructing a model for `graph`/`config` and
    /// restoring `checkpoint` through
    /// [`WidenModel::try_load_weights`].
    ///
    /// # Errors
    /// Returns the [`CheckpointError`] when the checkpoint is corrupt or
    /// does not match the model layout — malformed input never panics the
    /// server.
    pub fn from_checkpoint(
        graph: HeteroGraph,
        config: WidenConfig,
        checkpoint: &[u8],
    ) -> Result<Self, CheckpointError> {
        let mut model = WidenModel::for_graph(&graph, config);
        model.try_load_weights(checkpoint)?;
        Ok(Self {
            state: RwLock::new(ServingState {
                checkpoint_hash: digest64(checkpoint),
                model,
                graph,
                graph_version: 0,
            }),
        })
    }

    /// Wraps an already-built model (e.g. freshly trained in-process). The
    /// checkpoint hash is derived from the model's serialised weights so
    /// cache keys stay consistent with
    /// [`ModelRegistry::from_checkpoint`].
    pub fn from_model(graph: HeteroGraph, model: WidenModel) -> Self {
        let checkpoint_hash = digest64(&model.save_weights());
        Self {
            state: RwLock::new(ServingState {
                model,
                graph,
                checkpoint_hash,
                graph_version: 0,
            }),
        }
    }

    /// A consistent `(model, graph, digest)` snapshot. Workers take one
    /// guard per batch: everything computed under it belongs to a single
    /// model generation and graph version.
    pub fn read(&self) -> RwLockReadGuard<'_, ServingState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// FNV-1a digest of the current checkpoint bytes.
    pub fn checkpoint_hash(&self) -> u64 {
        self.read().checkpoint_hash
    }

    /// Current graph mutation counter (see
    /// [`ServingState::graph_version`]).
    pub fn graph_version(&self) -> u64 {
        self.read().graph_version
    }

    /// Streams one never-seen node into the served graph and embeds it in
    /// the same critical section: the node, its typed edges, and the
    /// returned embedding all belong to one graph version, and the
    /// embedding is bit-identical to what an `Embed` request for the new
    /// id would compute afterwards (same graph, same weights, same seed).
    ///
    /// # Errors
    /// Returns the graph's typed [`MutationError`] (bad node/edge type,
    /// feature-dimension mismatch, non-finite feature, out-of-range peer,
    /// …); the graph is untouched on error.
    pub fn ingest(
        &self,
        node_type: NodeTypeId,
        features: Vec<f32>,
        label: Option<u16>,
        edges: &[(u32, EdgeTypeId)],
        seed: u64,
    ) -> Result<IngestOutcome, MutationError> {
        let mut st = self.state.write().unwrap_or_else(PoisonError::into_inner);
        let node = st
            .graph
            .add_node_with_edges(node_type, features, label, edges)?;
        // Bump before embedding so the outcome's version is exactly the
        // version the embedding was computed under.
        st.graph_version += 1;
        let rows = st.model.embed_requests(&st.graph, &[(node, seed)]);
        Ok(IngestOutcome {
            node,
            embedding: rows.row(0).to_vec(),
            checkpoint_hash: st.checkpoint_hash,
            graph_version: st.graph_version,
        })
    }

    /// Replaces the serving weights with `checkpoint`, keyed by its
    /// digest, without restarting the server. The new model is built and
    /// validated against the *current* graph before the old one is
    /// dropped; in-flight batches holding a read guard finish on the old
    /// generation, later batches see the new one. Returns the new digest
    /// so the caller can flush caches keyed by generation.
    ///
    /// # Errors
    /// Returns the [`CheckpointError`] and leaves the registry serving the
    /// old weights when the checkpoint is corrupt or mismatched.
    pub fn hot_swap(&self, checkpoint: &[u8]) -> Result<u64, CheckpointError> {
        let mut st = self.state.write().unwrap_or_else(PoisonError::into_inner);
        let config = st.model.config.clone();
        let mut model = WidenModel::for_graph(&st.graph, config);
        model.try_load_weights(checkpoint)?;
        st.model = model;
        st.checkpoint_hash = digest64(checkpoint);
        Ok(st.checkpoint_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widen_data::{acm_like, Scale};

    fn tiny_config() -> WidenConfig {
        let mut c = WidenConfig::small();
        c.d = 8;
        c.n_w = 4;
        c.n_d = 4;
        c.phi = 1;
        c
    }

    #[test]
    fn checkpoint_round_trip_through_registry() {
        let dataset = acm_like(Scale::Smoke, 3);
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let checkpoint = model.save_weights();
        let registry =
            ModelRegistry::from_checkpoint(dataset.graph.clone(), tiny_config(), &checkpoint)
                .expect("valid checkpoint");
        assert_eq!(registry.checkpoint_hash(), digest64(&checkpoint));
        // Weights actually restored: embeddings agree bit-for-bit.
        let a = model.embed_nodes(&dataset.graph, &[0, 1], 5);
        let st = registry.read();
        let b = st.model().embed_nodes(st.graph(), &[0, 1], 5);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert_eq!(st.graph().num_nodes(), dataset.graph.num_nodes());
    }

    #[test]
    fn malformed_checkpoint_is_an_error_not_a_panic() {
        let dataset = acm_like(Scale::Smoke, 3);
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let mut checkpoint = model.save_weights().to_vec();
        checkpoint[20] ^= 0xFF;
        let result = ModelRegistry::from_checkpoint(dataset.graph, tiny_config(), &checkpoint);
        assert!(result.is_err());
    }

    #[test]
    fn from_model_hash_matches_from_checkpoint() {
        let dataset = acm_like(Scale::Smoke, 4);
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let checkpoint = model.save_weights();
        let via_model = ModelRegistry::from_model(dataset.graph.clone(), model);
        let via_ckpt =
            ModelRegistry::from_checkpoint(dataset.graph, tiny_config(), &checkpoint).unwrap();
        assert_eq!(via_model.checkpoint_hash(), via_ckpt.checkpoint_hash());
    }

    #[test]
    fn ingest_grows_graph_and_matches_post_hoc_embed() {
        let dataset = acm_like(Scale::Smoke, 3);
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let registry = ModelRegistry::from_model(dataset.graph.clone(), model);
        let before = dataset.graph.num_nodes() as u32;
        let peers: Vec<(u32, EdgeTypeId)> = vec![(0, EdgeTypeId(0)), (1, EdgeTypeId(0))];
        let out = registry
            .ingest(
                NodeTypeId(0),
                vec![0.25; dataset.graph.feature_dim()],
                None,
                &peers,
                42,
            )
            .expect("valid ingest");
        assert_eq!(out.node, before);
        assert_eq!(registry.read().graph().num_nodes(), before as usize + 1);
        // Bit-identical to embedding the node again on the mutated graph.
        let st = registry.read();
        let again = st.model().embed_requests(st.graph(), &[(out.node, 42)]);
        assert_eq!(out.embedding.as_slice(), again.row(0));
        assert_eq!(out.checkpoint_hash, st.checkpoint_hash());
        assert_eq!(out.graph_version, st.graph_version());
    }

    #[test]
    fn ingest_bumps_graph_version_only_on_success() {
        let dataset = acm_like(Scale::Smoke, 3);
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let registry = ModelRegistry::from_model(dataset.graph.clone(), model);
        assert_eq!(registry.graph_version(), 0);
        let feat = vec![0.1; dataset.graph.feature_dim()];
        let out = registry
            .ingest(NodeTypeId(0), feat.clone(), None, &[(0, EdgeTypeId(0))], 1)
            .expect("valid ingest");
        assert_eq!(out.graph_version, 1);
        assert_eq!(registry.graph_version(), 1);
        // A rejected mutation leaves the version (and the graph) untouched.
        registry
            .ingest(NodeTypeId(0), feat, None, &[(u32::MAX, EdgeTypeId(0))], 1)
            .unwrap_err();
        assert_eq!(registry.graph_version(), 1);
        // A weight swap changes the digest, not the graph version.
        let ckpt = registry.read().model().save_weights();
        registry.hot_swap(&ckpt).expect("valid checkpoint");
        assert_eq!(registry.graph_version(), 1);
    }

    #[test]
    fn a_panic_while_holding_the_write_guard_does_not_wedge_the_registry() {
        let dataset = acm_like(Scale::Smoke, 3);
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let registry = ModelRegistry::from_model(dataset.graph.clone(), model);
        let n = dataset.graph.num_nodes();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let _guard = registry.state.write();
                panic!("writer dies holding the registry lock");
            });
            assert!(writer.join().is_err());
        });
        assert!(registry.state.is_poisoned());
        assert_eq!(registry.read().graph().num_nodes(), n);
        assert_eq!(registry.graph_version(), 0);
        let out = registry
            .ingest(
                NodeTypeId(0),
                vec![0.1; dataset.graph.feature_dim()],
                None,
                &[(0, EdgeTypeId(0))],
                1,
            )
            .expect("valid ingest");
        assert_eq!(out.node, n as u32);
        assert_eq!(registry.graph_version(), 1);
    }

    #[test]
    fn ingest_rejects_bad_input_without_mutating() {
        let dataset = acm_like(Scale::Smoke, 3);
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let registry = ModelRegistry::from_model(dataset.graph.clone(), model);
        let n = dataset.graph.num_nodes();
        let err = registry
            .ingest(
                NodeTypeId(0),
                vec![0.0; dataset.graph.feature_dim()],
                None,
                &[(u32::MAX, EdgeTypeId(0))],
                1,
            )
            .unwrap_err();
        assert!(matches!(err, MutationError::EndpointOutOfRange { .. }));
        let mut poisoned = vec![0.0; dataset.graph.feature_dim()];
        poisoned[2] = f32::NAN;
        let err = registry
            .ingest(NodeTypeId(0), poisoned, None, &[(0, EdgeTypeId(0))], 1)
            .unwrap_err();
        assert_eq!(err, MutationError::NonFiniteFeature { index: 2 });
        assert_eq!(registry.read().graph().num_nodes(), n);
        assert_eq!(registry.graph_version(), 0);
    }

    #[test]
    fn hot_swap_changes_generation_and_weights() {
        let dataset = acm_like(Scale::Smoke, 3);
        let mut cfg_b = tiny_config();
        cfg_b.seed = 999; // different init → different weights
        let model_a = WidenModel::for_graph(&dataset.graph, tiny_config());
        let model_b = WidenModel::for_graph(&dataset.graph, cfg_b);
        let ckpt_b = model_b.save_weights();
        let registry = ModelRegistry::from_model(dataset.graph.clone(), model_a);
        let gen_a = registry.checkpoint_hash();
        let embed_a = {
            let st = registry.read();
            st.model().embed_requests(st.graph(), &[(0, 7)])
        };
        let gen_b = registry.hot_swap(&ckpt_b).expect("valid checkpoint");
        assert_ne!(gen_a, gen_b);
        assert_eq!(registry.checkpoint_hash(), gen_b);
        let st = registry.read();
        let embed_b = st.model().embed_requests(st.graph(), &[(0, 7)]);
        assert!(
            embed_a.max_abs_diff(&embed_b) > 0.0,
            "swap must change output"
        );
        // The swapped generation serves exactly model_b's answers.
        let want = model_b.embed_requests(st.graph(), &[(0, 7)]);
        assert_eq!(embed_b.max_abs_diff(&want), 0.0);
    }

    #[test]
    fn hot_swap_rejects_bad_checkpoint_and_keeps_serving() {
        let dataset = acm_like(Scale::Smoke, 3);
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let good = model.save_weights();
        let registry = ModelRegistry::from_model(dataset.graph, model);
        let generation = registry.checkpoint_hash();
        let mut bad = good.to_vec();
        bad[16] ^= 0xFF;
        assert!(registry.hot_swap(&bad).is_err());
        assert_eq!(registry.checkpoint_hash(), generation);
    }
}
