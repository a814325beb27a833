//! What the one training loop ([`crate::Trainer`]) iterates over: shards.
//! A shard is a graph, the persistent wide/deep states of the training
//! nodes it owns, and a warm tape-buffer pool. Which sub-graph a batch
//! came from is a property of this data feed, not of the loop. Several
//! shards run each step on scoped threads, one per shard; a lone shard
//! runs inline on the caller's thread.
//!
//! `Shard::borrowed` wraps the caller's graph as the only shard, with
//! identity ids and no copy. `partition` cuts the graph with
//! [`widen_graph::greedy_bfs_weighted`] (balancing training-node weight)
//! and expands each part into a halo subgraph wide enough that every deep
//! walk of length `N_d` stays shard-local; the distributed half of the
//! paper's efficiency claim.
//!
//! Determinism contract: for a fixed seed **and** fixed shard count, runs
//! are bitwise identical on any host — each shard's sub-batch is one
//! chunk, shard threads are joined and reduced in shard order, and
//! every random stream (state sampling, epoch shuffle, downsampling) is
//! keyed by the node's *global* id via [`WidenModel::sample_state_as`],
//! not its shard-local index. One partitioned shard therefore trains
//! bitwise like the borrowed graph (pinned by the `shard_parity`
//! differential suite): same code path, two data paths.

use std::borrow::Cow;

use rustc_hash::FxHashMap;
use widen_graph::{greedy_bfs_weighted, HeteroGraph, NodeId};
use widen_sampling::hash_seed;
use widen_tensor::BufferPool;

use crate::model::WidenModel;
use crate::state::NodeState;

/// Refinement passes handed to [`greedy_bfs_weighted`] when building the shard map.
const REFINEMENT_PASSES: usize = 2;

/// One shard of the training set.
pub(crate) struct Shard<'g> {
    /// The caller's graph (shard-local ids are the global ids) or an owned
    /// halo-expanded induced subgraph (ids remapped to `0..kept`).
    pub graph: Cow<'g, HeteroGraph>,
    /// Persistent wide/deep states of the shard's core training nodes,
    /// keyed by *shard-local* id.
    pub states: FxHashMap<NodeId, NodeState>,
    /// Warm tape-buffer pool (forward values, leaves and gradients): moved
    /// into the shard's chunk each step and back out holding its buffers,
    /// so it is never larger than the biggest chunk the shard has run.
    pub pool: BufferPool,
    /// Core (pre-halo) member count, for telemetry.
    pub core_size: usize,
}

/// Training node (global id) → `(owning shard, shard-local id)`.
pub(crate) type Homes = FxHashMap<NodeId, (usize, NodeId)>;

impl<'g> Shard<'g> {
    /// The whole of `graph` as one shard, borrowed: samples every training
    /// node's initial wide/deep neighbourhoods (Algorithm 3 line 3).
    pub fn borrowed(
        model: &WidenModel,
        graph: &'g HeteroGraph,
        train_nodes: &[NodeId],
    ) -> (Self, Homes) {
        let seed = hash_seed(model.config.seed, &[1]);
        let mut states = FxHashMap::default();
        let mut homes = Homes::default();
        for &node in train_nodes {
            states.insert(node, model.sample_state(graph, node, seed));
            homes.insert(node, (0, node));
        }
        let shard = Self {
            graph: Cow::Borrowed(graph),
            states,
            pool: BufferPool::default(),
            core_size: graph.num_nodes(),
        };
        (shard, homes)
    }
}

/// Partitions `graph` into `k` shards (greedy BFS edge-cut weighted to
/// balance training nodes, halo radius `max(N_d, 1)` so deep walks stay
/// local) and samples every training node's initial wide/deep
/// neighbourhoods *inside its shard*, keyed by its global id.
///
/// # Panics
/// Panics if `k` is zero, exceeds the node count, or if a shard ends up
/// empty.
pub(crate) fn partition(
    model: &WidenModel,
    graph: &HeteroGraph,
    train_nodes: &[NodeId],
    k: usize,
) -> (Vec<Shard<'static>>, Homes) {
    let seed = hash_seed(model.config.seed, &[1]);
    let radius = model.config.n_d.max(1);
    // Balance *training* nodes across shards, not raw node counts: the
    // per-step critical path is the busiest shard's sub-batch, so a
    // shard hoarding labelled nodes caps the achievable speedup at
    // |T| / max_p |T_p| no matter how even the subgraphs are. A train
    // node outweighs the whole unlabelled graph; plain nodes act as
    // the tiebreaker toward even subgraph (memory) sizes.
    let mut weights = vec![1u64; graph.num_nodes()];
    let boost = graph.num_nodes() as u64;
    for &node in train_nodes {
        weights[node as usize] = 1 + boost;
    }
    let partition = greedy_bfs_weighted(graph, k, REFINEMENT_PASSES, &weights);

    let mut homes = Homes::default();
    let mut shards = Vec::with_capacity(k);
    for p in 0..k {
        let keep = partition.halo(graph, p as u32, radius);
        assert!(!keep.is_empty(), "shard {p} is empty");
        let sub = graph.induced_subgraph(&keep);
        let mut states = FxHashMap::default();
        for &global in train_nodes {
            if partition.assignment[global as usize] as usize != p {
                continue;
            }
            let local = sub
                .mapping
                .to_new(global)
                .expect("core training node must be inside its own shard");
            states.insert(
                local,
                model.sample_state_as(&sub.graph, local, global, seed),
            );
            homes.insert(global, (p, local));
        }
        shards.push(Shard {
            graph: Cow::Owned(sub.graph),
            states,
            pool: BufferPool::default(),
            core_size: partition.part(p as u32).len(),
        });
    }
    (shards, homes)
}
