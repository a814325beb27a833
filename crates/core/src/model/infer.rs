//! Frozen inference (DESIGN.md, "Inference"): every inference entry point
//! runs its chunks through one [`InferState`].

use std::cell::RefCell;
use std::iter::once;

use widen_graph::{HeteroGraph, NodeId};
use widen_tensor::{BufferPool, Tape, Tensor, Var};

use super::{ParamVars, WidenModel};
use crate::packaging::{features_leaf, NodeRows};
use crate::state::NodeState;

thread_local! {
    /// The thread's one inference buffer pool, held by the thread's live
    /// [`InferState`]: repeated calls stop allocating after a few chunks.
    pub(super) static INFER_ARENA: RefCell<BufferPool> = RefCell::new(BufferPool::new());
}

/// Which tensor [`WidenModel::infer`] extracts per item.
#[derive(Clone, Copy)]
pub(super) enum InferOutput {
    Embedding,
    Logits,
}

/// The frozen inference state of one model generation: a tape whose
/// *prefix* holds the 14 parameters, Eq. 4's `W_Q▷ W_K▷ᵀ` and the
/// node-projection table `X·G_node`. Every chunk is recorded after the
/// prefix and truncated back to it, its buffers returned to the pool; the
/// prefix never enters the pool and is freed with the state.
///
/// The table is lazy and append-only: a node's row is projected by the
/// first chunk that reads it and kept, and graph features only ever grow,
/// so an ingest invalidates no row. A GEMM row does not depend on the other
/// rows of its call, so every row served is bitwise what a fresh tape
/// computes. A state answers for the model that froze it and one graph.
pub struct InferState {
    tape: Tape,
    pv: ParamVars,
    table: Var,
    prefix: usize,
    /// Node id → its table row holds `x·G_node`.
    projected: Vec<bool>,
}

impl WidenModel {
    /// A frozen inference state of this model ([`InferState`]).
    pub fn freeze(&self) -> InferState {
        let mut tape = self.new_tape();
        tape.install_pool(INFER_ARENA.take());
        let mut pv = self.insert_params_with(|t| tape.leaf(t.clone()));
        let variant = self.config.variant;
        if variant.use_deep && variant.successive_attention {
            let (q1, k1) = (tape.value(pv.deep_q1), tape.value(pv.deep_k1));
            let qk = q1.matmul_nt_with(k1, tape.backend());
            pv.qk = Some(tape.leaf(qk));
        }
        let table = tape.leaf(Tensor::zeros(0, self.config.d));
        pv.node_rows = NodeRows::Table(table);
        InferState {
            prefix: tape.len(),
            tape,
            pv,
            table,
            projected: Vec::new(),
        }
    }

    /// The one inference worker behind every entry point: one
    /// [`WidenModel::forward_batch`] per chunk of up to
    /// [`WidenConfig::batch_size`](crate::WidenConfig::batch_size) items,
    /// one output row per item.
    pub(super) fn infer(
        &self,
        state: &mut InferState,
        graph: &HeteroGraph,
        items: &[(NodeId, u64)],
        output: InferOutput,
    ) -> Tensor {
        let width = match output {
            InferOutput::Embedding => self.config.d,
            InferOutput::Logits => self.num_classes,
        };
        let mut out = Tensor::zeros(items.len(), width);
        let chunk_len = self.config.batch_size.max(1);
        let out_chunks = out.as_mut_slice().chunks_mut(chunk_len * width);
        for (chunk, out_rows) in items.chunks(chunk_len).zip(out_chunks) {
            let states: Vec<NodeState> = chunk
                .iter()
                .map(|&(node, seed)| self.sample_state(graph, node, seed))
                .collect();
            let refs: Vec<&NodeState> = states.iter().collect();
            state.project(graph, &refs);
            let fw = self.forward_batch(&mut state.tape, &state.pv, graph, &refs);
            let var = match output {
                InferOutput::Embedding => fw.embeddings,
                InferOutput::Logits => fw.logits,
            };
            out_rows.copy_from_slice(state.tape.value(var).as_slice());
            state.tape.truncate(state.prefix);
        }
        out
    }
}

impl InferState {
    /// Fills the table rows of the nodes `states` read that no earlier
    /// chunk did, with one `G_node` GEMM recorded in the chunk.
    fn project(&mut self, graph: &HeteroGraph, states: &[&NodeState]) {
        let n = graph.num_nodes();
        self.projected.resize(n, false);
        let mut fresh = Vec::new();
        for s in states {
            let wide = once(s.wide.target).chain(s.wide.entries.iter().map(|e| e.node));
            let deep = s
                .deeps
                .iter()
                .flat_map(|w| once(w.set.target).chain(w.set.entries.iter().map(|e| e.node)));
            for node in wide.chain(deep) {
                if !std::mem::replace(&mut self.projected[node as usize], true) {
                    fresh.push(node);
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        let x = features_leaf(&mut self.tape, graph, &fresh);
        let rows = self.tape.matmul(x, self.pv.g_node);
        let mut table = std::mem::replace(self.tape.leaf_mut(self.table), Tensor::zeros(0, 0));
        if table.rows() < n {
            let mut grown = Tensor::zeros(n, table.cols());
            grown.as_mut_slice()[..table.len()].copy_from_slice(table.as_slice());
            table = grown;
        }
        for (i, &node) in fresh.iter().enumerate() {
            table.set_row(node as usize, self.tape.value(rows).row(i));
        }
        *self.tape.leaf_mut(self.table) = table;
    }
}

impl Drop for InferState {
    /// Hands the pool back to the thread; the prefix goes with the tape.
    fn drop(&mut self) {
        self.tape.truncate(self.prefix);
        let pool = self.tape.install_pool(BufferPool::new());
        let _ = INFER_ARENA.try_with(|arena| arena.replace(pool));
    }
}
