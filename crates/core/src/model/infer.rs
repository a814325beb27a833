//! Frozen inference (DESIGN.md, "Inference"): every inference entry point
//! runs its chunks through one [`InferState`].

use std::iter::once;
use std::sync::Arc;

use widen_graph::{HeteroGraph, NodeId};
use widen_tensor::{BufferPool, PoolStats, Tape, Tensor, Var};

use super::{ParamVars, WidenModel};
use crate::arena;
use crate::packaging::{assemble_batch, deep_pairs, self_pair, wide_pairs, PackedBatch, Pair};
use crate::state::NodeState;

/// Which tensor [`WidenModel::infer`] extracts per item.
#[derive(Clone, Copy)]
pub(super) enum InferOutput {
    Embedding,
    Logits,
}

/// The frozen inference state of one model generation: a tape whose
/// *prefix* holds the 14 parameters, Eq. 4's `W_Q▷ W_K▷ᵀ` and a
/// [`PairTable`]. Every chunk is recorded after the prefix and truncated
/// back to it, its buffers returned to the pool; the prefix never enters
/// the pool and is freed with the state. A state answers for the model that
/// froze it and one graph.
pub struct InferState {
    pub(super) tape: Tape,
    pv: ParamVars,
    /// Eq. 4's `W_Q▷ W_K▷ᵀ`, with successive attention on.
    qk: Option<Var>,
    table: PairTable,
    prefix: usize,
}

/// Every row of the forward pass that depends only on the model generation
/// and one `(node, edge-row)` pair, held in leaves of an [`InferState`]'s
/// prefix. Per pair: its pack `v ⊙ e` and, with successive attention on,
/// Eq. 4's query `(v ⊙ e)·(W_Q▷ W_K▷ᵀ)`, both under the pair's row. Per
/// target node, from its self-loop pack `m_t`, under the target's row:
/// Eq. 3's query `(m_t W_Q∘) W_K∘ᵀ` and Eq. 5's `((m_t W_Q▷′) W_K▷′ᵀ)
/// W_V▷ᵀ` (`W_V▷ᵀ` only with successive attention on).
///
/// Lazy and append-only: a chunk fills the rows it reads first, in one GEMM
/// chain, and no row is ever recomputed. Features are append-only and a
/// node's type never changes, so an ingest invalidates no row. A GEMM row
/// and an element-wise row do not depend on the other rows of their call,
/// so every row is bitwise what a fresh tape computes inside the chunk.
pub(crate) struct PairTable {
    /// Pack rows.
    packs: Var,
    /// Eq. 4 query rows, in the pack rows' order.
    pub(crate) eq4: Var,
    /// Eq. 3 query rows, in the target rows' order.
    pub(crate) eq3: Var,
    /// Eq. 5 query rows, in the target rows' order.
    pub(crate) eq5: Var,
    /// Edge-vocabulary size (`G_edge` rows).
    vocab: usize,
    /// `node · vocab + edge_row` → pack row; `u32::MAX` until filled.
    slots: Vec<u32>,
    /// Filled pack rows.
    len: usize,
    /// Node → target row; `u32::MAX` until filled.
    targets: Vec<u32>,
    /// Filled target rows.
    queried: usize,
}

/// One chunk's reads of a filled [`PairTable`]: the table, and each
/// branch's packs as table rows.
pub(crate) struct FrozenChunk<'a> {
    pub(crate) table: &'a PairTable,
    pub(crate) wide: PackedBatch,
    pub(crate) deep: PackedBatch,
}

impl WidenModel {
    /// A frozen inference state of this model ([`InferState`]).
    pub fn freeze(&self) -> InferState {
        let mut tape = self.new_tape();
        tape.install_pool(arena::take());
        let pv = self.insert_params_with(|t| tape.leaf(t.clone()));
        let variant = self.config.variant;
        let qk = (variant.use_deep && variant.successive_attention).then(|| {
            let (q1, k1) = (tape.value(pv.deep_q1), tape.value(pv.deep_k1));
            let qk = q1.matmul_nt_with(k1, tape.backend());
            tape.leaf(qk)
        });
        let mut empty = || tape.leaf(Tensor::zeros(0, self.config.d));
        let table = PairTable {
            packs: empty(),
            eq4: empty(),
            eq3: empty(),
            eq5: empty(),
            vocab: tape.value(pv.g_edge).rows(),
            slots: Vec::new(),
            len: 0,
            targets: Vec::new(),
            queried: 0,
        };
        InferState {
            prefix: tape.len(),
            tape,
            pv,
            qk,
            table,
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
            let [wide, deep] = state.fill(self, graph, &refs);
            let frozen = Some(FrozenChunk {
                table: &state.table,
                wide,
                deep,
            });
            let fw = self.forward_chunk(&mut state.tape, &state.pv, frozen, graph, &refs);
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
    /// Counters of the state's buffer pool: the thread's arena, while the
    /// state lives.
    pub fn pool_stats(&self) -> PoolStats {
        self.tape.pool_stats()
    }

    /// Fills the table rows `states` read that no earlier chunk did — their
    /// fresh pairs through packaging's own assembly and Eq. 4's query GEMM,
    /// their fresh targets' queries from the targets' packs — and returns
    /// the chunk's wide and deep packs as table rows.
    fn fill(
        &mut self,
        model: &WidenModel,
        graph: &HeteroGraph,
        states: &[&NodeState],
    ) -> [PackedBatch; 2] {
        let variant = model.config.variant;
        let net = model.num_edge_types;
        let (tape, pv, table) = (&mut self.tape, &self.pv, &mut self.table);
        let n = graph.num_nodes();
        table.slots.resize(n * table.vocab, u32::MAX);
        table.targets.resize(n, u32::MAX);

        let mut targets = Vec::new();
        for s in states {
            for node in once(s.wide.target).chain(s.deeps.iter().map(|w| w.set.target)) {
                let next = table.queried + targets.len();
                if claim(&mut table.targets[node as usize], next) {
                    targets.push(node);
                }
            }
        }
        let wides: Vec<_> = states.iter().map(|s| &s.wide).collect();
        let (wide, wide_spans) = wide_pairs(graph, &wides, net);
        let walks: Vec<_> = states.iter().flat_map(|s| &s.deeps).collect();
        let (deep, relays, deep_spans) = deep_pairs(graph, &walks, net, table.vocab);
        assert!(relays.is_empty(), "a frozen pair table holds no relay rows");

        let mut fresh = Vec::new();
        let (slots, vocab, len) = (&mut table.slots, table.vocab, table.len);
        let mut row = |pair @ (node, edge_row): Pair| {
            let slot = &mut slots[node as usize * vocab + edge_row];
            if claim(slot, len + fresh.len()) {
                fresh.push(pair);
            }
            *slot as usize
        };
        // The targets' own packs first: a branch may read none of them.
        let m_rows: Vec<usize> = targets
            .iter()
            .map(|&t| row(self_pair(graph, net, t)))
            .collect();
        let mut rows_if = |on: bool, pairs: Vec<_>| -> Arc<[usize]> {
            pairs.into_iter().filter(|_| on).map(&mut row).collect()
        };
        let wide_rows = rows_if(variant.use_wide, wide);
        let deep_rows = rows_if(variant.use_deep, deep);

        if !fresh.is_empty() {
            // The pairs are distinct, so unique row `i` is `fresh[i]`.
            let batch = assemble_batch(tape, graph, &fresh, &[], pv.g_node, pv.g_edge, Vec::new());
            store(tape, table.packs, batch.unique_packs, table.len);
            if let Some(qk) = self.qk {
                let q = tape.matmul(batch.unique_packs, qk);
                store(tape, table.eq4, q, table.len);
            }
            table.len += fresh.len();
        }
        if !targets.is_empty() {
            let m_t = tape.select_rows(table.packs, &m_rows);
            if variant.use_wide {
                let q = tape.matmul(m_t, pv.wide_q);
                let q = tape.matmul_nt(q, pv.wide_k);
                store(tape, table.eq3, q, table.queried);
            }
            if variant.use_deep {
                let q = tape.matmul(m_t, pv.deep_q2);
                let mut q = tape.matmul_nt(q, pv.deep_k2);
                if variant.successive_attention {
                    q = tape.matmul_nt(q, pv.deep_v1);
                }
                store(tape, table.eq5, q, table.queried);
            }
            table.queried += targets.len();
        }
        let packs = |flat_index, spans: Vec<_>| PackedBatch {
            unique_packs: table.packs,
            edges: None,
            flat_index,
            spans: spans.into(),
        };
        [packs(wide_rows, wide_spans), packs(deep_rows, deep_spans)]
    }
}

impl PairTable {
    /// The query row of a filled target.
    pub(crate) fn target_row(&self, node: u32) -> usize {
        let row = self.targets[node as usize];
        assert!(row != u32::MAX, "target {node} read unfilled");
        row as usize
    }
}

/// Gives an unfilled slot (`u32::MAX`) row `next`; whether it was unfilled.
fn claim(slot: &mut u32, next: usize) -> bool {
    let unfilled = *slot == u32::MAX;
    if unfilled {
        *slot = u32::try_from(next).expect("fewer than u32::MAX table rows");
    }
    unfilled
}

/// Copies `src`'s rows into the table leaf `dst` from row `start` on,
/// growing it (doubling, zero-filled) to hold them.
fn store(tape: &mut Tape, dst: Var, src: Var, start: usize) {
    let mut table = std::mem::replace(tape.leaf_mut(dst), Tensor::zeros(0, 0));
    let src = tape.value(src);
    let (end, cols) = (start + src.rows(), src.cols());
    if table.rows() < end {
        let mut grown = Tensor::zeros(end.max(2 * table.rows()), cols);
        grown.as_mut_slice()[..table.len()].copy_from_slice(table.as_slice());
        table = grown;
    }
    table.as_mut_slice()[start * cols..end * cols].copy_from_slice(src.as_slice());
    *tape.leaf_mut(dst) = table;
}

impl Drop for InferState {
    /// Hands the pool back to the thread; the prefix goes with the tape.
    fn drop(&mut self) {
        self.tape.truncate(self.prefix);
        arena::give_back(self.tape.install_pool(BufferPool::new()));
    }
}
