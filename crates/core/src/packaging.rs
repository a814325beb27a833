//! Heterogeneous message packaging (Eq. 1–2) — `PACK∘` and `PACK▷`.
//!
//! A *message pack* is the element-wise interaction `m = v ⊙ e` between a
//! node representation and the embedding of the edge connecting it towards
//! the target. The pack matrix stacks the target's own self-loop pack
//! `m_t = v_t ⊙ e_{t,t}` on top of all neighbour packs.

use std::sync::{Arc, OnceLock};

use rustc_hash::FxHashMap;
use widen_graph::HeteroGraph;
use widen_obs::{Counter, Stopwatch};
use widen_tensor::{Tape, Var};

use crate::state::DeepState;
use widen_sampling::WideSet;

/// Packaging-phase wall clock, accumulated on [`widen_obs::Registry::global`]
/// because `PACK` runs deep inside the forward pass, where no owned registry
/// is threaded through. Chunks run in parallel, so the total can exceed
/// elapsed wall time — it is CPU-time-shaped, which is what the per-epoch
/// phase breakdown wants anyway.
fn packaging_counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static HANDLES: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let reg = widen_obs::Registry::global();
        (
            reg.counter("core_packaging_nanos_total"),
            reg.counter("core_packaging_calls_total"),
        )
    })
}

/// Current value of the global packaging-nanos counter; the trainer diffs
/// this across an epoch to report the packaging phase.
pub fn packaging_nanos_total() -> u64 {
    packaging_counters().0.get()
}

fn record_packaging(sw: &Stopwatch) {
    let (nanos, calls) = packaging_counters();
    sw.record_nanos(nanos);
    calls.inc();
}

/// Edge-vocabulary index of a graph edge type.
///
/// The model's edge-embedding table `G_edge` holds one row per graph edge
/// type followed by one learned **self-loop** row per node type (§3.1: "we
/// also learn a self-loop edge embedding `e_{t,t}` between the same type of
/// nodes").
pub fn edge_index(edge_type: u16) -> usize {
    edge_type as usize
}

/// Edge-vocabulary index of the self-loop edge for a node type.
pub fn self_loop_index(num_edge_types: usize, node_type: u16) -> usize {
    num_edge_types + node_type as usize
}

/// Size of the model's edge vocabulary.
pub fn edge_vocab_size(num_edge_types: usize, num_node_types: usize) -> usize {
    num_edge_types + num_node_types
}

/// Batched `PACK` output for many wide sets or deep walks: each distinct
/// pack row once, plus the index and the per-unit position spans that
/// address it.
///
/// A pack row is fully determined by its `(node, edge-vocab-row)` pair, and
/// those pairs repeat heavily inside a chunk, so `unique_packs` holds each
/// distinct pair once and **no flat matrix is assembled**: a unit's rows are
/// *positions* `start..start + len` of `flat_index`, which names the unique
/// row at each position. The ragged attention ops of the forward pass read
/// `unique_packs` in place through `flat_index`, as keys and as values; the
/// only projection that runs on its `U` rows is Eq. 4's query (every `W_K`
/// and `W_V` is applied on the one-row-per-node side instead) — that is
/// where batching saves FLOPs and memory traffic over packing one neighbour
/// set at a time.
pub struct PackedBatch {
    /// Deduplicated pack matrix (`U × d`): one row per distinct
    /// `(node, edge-row)` pair (a relay override is an edge row of its own,
    /// so relay-overridden rows are never shared).
    pub unique_packs: Var,
    /// Deduplicated edge-representation matrix (`U × d`, same row order as
    /// `unique_packs`): position `r`'s edge representation — unit-local
    /// position `s+1` is that of local position `s` (Eq. 8 relays) — is row
    /// `flat_index[r]`.
    pub unique_edges: Var,
    /// Position → unique row (`Σ(|set_i|+1)` entries): the pack at
    /// position `r` is `unique_packs[flat_index[r]]`. Shared, as it stands,
    /// by every ragged attention op of the forward pass.
    pub flat_index: Arc<[usize]>,
    /// Per-unit `(start, len)` position ranges into `flat_index`, each
    /// unit's own `m_t` first. This is the node→range (or walk→range) map
    /// that keeps downsampling outcomes extractable per node from the
    /// batched tensors.
    pub spans: Arc<[(usize, usize)]>,
}

/// Where packaging reads a node's row `v = x·G_node` (Eq. 1–2).
#[derive(Clone, Copy)]
pub(crate) enum NodeRows {
    /// Project the batch's distinct nodes through this `G_node`.
    Project(Var),
    /// Row `node` of a frozen inference state's node table.
    Table(Var),
}

/// Batched `PACK∘` (Eq. 1): assembles the wide packs of a whole chunk — a
/// single feature gather and one `G_node` projection matmul over the
/// *unique* `(node, edge-row)` pairs, addressed per node through
/// [`PackedBatch::flat_index`].
pub fn pack_wide_batch(
    tape: &mut Tape,
    graph: &HeteroGraph,
    wides: &[&WideSet],
    g_node: Var,
    g_edge: Var,
    num_edge_types: usize,
) -> PackedBatch {
    let node_rows = NodeRows::Project(g_node);
    pack_wide_with(tape, graph, wides, node_rows, g_edge, num_edge_types)
}

/// [`pack_wide_batch`] with the node rows read as `node_rows` says.
pub(crate) fn pack_wide_with(
    tape: &mut Tape,
    graph: &HeteroGraph,
    wides: &[&WideSet],
    node_rows: NodeRows,
    g_edge: Var,
    num_edge_types: usize,
) -> PackedBatch {
    let sw = Stopwatch::start();
    let total: usize = wides.iter().map(|w| w.entries.len() + 1).sum();
    let mut ids = Vec::with_capacity(total);
    let mut edge_rows = Vec::with_capacity(total);
    let mut spans = Vec::with_capacity(wides.len());
    for wide in wides {
        spans.push((ids.len(), wide.entries.len() + 1));
        ids.push(wide.target);
        edge_rows.push(self_loop_index(
            num_edge_types,
            graph.node_type(wide.target).0,
        ));
        for e in &wide.entries {
            ids.push(e.node);
            edge_rows.push(edge_index(e.edge_type));
        }
    }
    let batch = assemble_batch(tape, graph, &ids, &edge_rows, &[], node_rows, g_edge, spans);
    record_packaging(&sw);
    batch
}

/// Batched `PACK▷` (Eq. 2) over many walks (typically walk-major, grouped
/// by target node). Relay-edge overrides are honoured without splitting
/// the batch: the `R` relay vectors are stacked under the `G_edge` table as
/// constant rows `vocab..vocab + R`, and an overridden position gathers its
/// own row there instead of a table row — so no gradient reaches the table
/// from it.
pub fn pack_deep_batch(
    tape: &mut Tape,
    graph: &HeteroGraph,
    deeps: &[&DeepState],
    g_node: Var,
    g_edge: Var,
    num_edge_types: usize,
) -> PackedBatch {
    let node_rows = NodeRows::Project(g_node);
    pack_deep_with(tape, graph, deeps, node_rows, g_edge, num_edge_types)
}

/// [`pack_deep_batch`] with the node rows read as `node_rows` says.
pub(crate) fn pack_deep_with(
    tape: &mut Tape,
    graph: &HeteroGraph,
    deeps: &[&DeepState],
    node_rows: NodeRows,
    g_edge: Var,
    num_edge_types: usize,
) -> PackedBatch {
    let sw = Stopwatch::start();
    let total: usize = deeps.iter().map(|d| d.len() + 1).sum();
    let mut ids = Vec::with_capacity(total);
    let mut edge_rows = Vec::with_capacity(total);
    let mut spans = Vec::with_capacity(deeps.len());
    let vocab = tape.value(g_edge).rows();
    let mut relays: Vec<&[f32]> = Vec::new();
    for deep in deeps {
        spans.push((ids.len(), deep.len() + 1));
        ids.push(deep.set.target);
        edge_rows.push(self_loop_index(
            num_edge_types,
            graph.node_type(deep.set.target).0,
        ));
        for (s, entry) in deep.set.entries.iter().enumerate() {
            if let Some(relay) = &deep.edge_override[s] {
                edge_rows.push(vocab + relays.len());
                relays.push(relay);
            } else {
                edge_rows.push(edge_index(entry.edge_type));
            }
            ids.push(entry.node);
        }
    }

    let batch = assemble_batch(
        tape, graph, &ids, &edge_rows, &relays, node_rows, g_edge, spans,
    );
    record_packaging(&sw);
    batch
}

/// Shared batch assembly with two-level deduplication.
///
/// The pack at position `r` is `v(ids[r]) ⊙ e(edge_rows[r])`, so it is fully
/// determined by its `(node, edge-row)` pair, where edge row `vocab + j`
/// names `relays[j]` — a walk-specific constant, one per relay-override
/// position. The assembler therefore computes each distinct pair once
/// (`unique_packs`; an override position's pair is its own, so its unique
/// row is private) and records which unique row each position reads
/// (`flat_index`). Node features repeat even more than pairs do, so the
/// `d₀`-wide `G_node` projection additionally runs on the distinct node set
/// only — or not at all, when a table already holds every node's row.
/// Every unique row is bitwise the value the undeduplicated assembly would
/// produce at its positions: identical inputs flow through the identical
/// kernels, just once per distinct row (a GEMM row does not depend on the
/// other rows of its call, so a table row is the row this batch's own
/// projection would give).
#[allow(clippy::too_many_arguments)]
fn assemble_batch(
    tape: &mut Tape,
    graph: &HeteroGraph,
    ids: &[u32],
    edge_rows: &[usize],
    relays: &[&[f32]],
    node_rows: NodeRows,
    g_edge: Var,
    spans: Vec<(usize, usize)>,
) -> PackedBatch {
    let mut slot: FxHashMap<(u32, usize), usize> = FxHashMap::default();
    let mut u_ids: Vec<u32> = Vec::new();
    let mut u_edge_rows: Vec<usize> = Vec::new();
    let flat_index: Vec<usize> = ids
        .iter()
        .zip(edge_rows)
        .map(|(&id, &edge_row)| {
            *slot.entry((id, edge_row)).or_insert_with(|| {
                u_ids.push(id);
                u_edge_rows.push(edge_row);
                u_ids.len() - 1
            })
        })
        .collect();

    let v = match node_rows {
        NodeRows::Table(table) => {
            let rows: Vec<usize> = u_ids.iter().map(|&id| id as usize).collect();
            tape.select_rows(table, &rows)
        }
        NodeRows::Project(g_node) => {
            let mut node_slot: FxHashMap<u32, usize> = FxHashMap::default();
            let mut unique_nodes: Vec<u32> = Vec::new();
            let node_of: Vec<usize> = u_ids
                .iter()
                .map(|&id| {
                    *node_slot.entry(id).or_insert_with(|| {
                        unique_nodes.push(id);
                        unique_nodes.len() - 1
                    })
                })
                .collect();
            let x = features_leaf(tape, graph, &unique_nodes);
            let projected = tape.matmul(x, g_node);
            tape.select_rows(projected, &node_of)
        }
    };

    // Eq. 8 relays ride under the table as `R` constant rows: one gather
    // serves table and relay positions alike, and a relay row's gradient
    // ends at the constant.
    let edge_table = if relays.is_empty() {
        g_edge
    } else {
        let d = tape.value(g_edge).cols();
        let relay_rows = tape.constant_with(relays.len(), d, |rows| {
            for (j, relay) in relays.iter().enumerate() {
                rows.set_row(j, relay);
            }
        });
        tape.vstack(&[g_edge, relay_rows])
    };
    let unique_edges = tape.select_rows(edge_table, &u_edge_rows);
    let unique_packs = tape.mul(v, unique_edges);
    PackedBatch {
        unique_packs,
        unique_edges,
        flat_index: flat_index.into(),
        spans: spans.into(),
    }
}

/// Gathers raw feature rows for the listed nodes into a `(len, d₀)`
/// constant.
pub(crate) fn features_leaf(tape: &mut Tape, graph: &HeteroGraph, ids: &[u32]) -> Var {
    tape.constant_with(ids.len(), graph.feature_dim(), |out| {
        for (i, &id) in ids.iter().enumerate() {
            out.set_row(i, graph.feature_row(id));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::oracle::{pack_deep, pack_wide};
    use widen_graph::GraphBuilder;
    use widen_sampling::{DeepEntry, DeepSet, WideEntry};
    use widen_tensor::Tensor;

    fn toy_graph() -> HeteroGraph {
        let mut b = GraphBuilder::new(&["a", "b"], &["ab"]);
        let ta = b.node_type("a").unwrap();
        let tb = b.node_type("b").unwrap();
        let e = b.edge_type("ab").unwrap();
        let n0 = b.add_node(ta, vec![1.0, 2.0], None);
        let n1 = b.add_node(tb, vec![3.0, 4.0], None);
        let n2 = b.add_node(tb, vec![5.0, 6.0], None);
        b.add_edge(n0, n1, e);
        b.add_edge(n0, n2, e);
        b.build()
    }

    #[test]
    fn edge_vocabulary_layout() {
        assert_eq!(edge_index(3), 3);
        assert_eq!(self_loop_index(4, 2), 6);
        assert_eq!(edge_vocab_size(4, 3), 7);
    }

    #[test]
    fn wide_pack_is_v_odot_e() {
        let g = toy_graph();
        let wide = WideSet {
            target: 0,
            entries: vec![WideEntry {
                node: 1,
                edge_type: 0,
            }],
        };
        let mut tape = Tape::new();
        // d = 2, identity node projection, distinguishable edge rows.
        let g_node = tape.leaf(Tensor::eye(2));
        // Edge vocab: [ab, selfloop-a, selfloop-b].
        let g_edge = tape.leaf(Tensor::from_rows(&[
            &[10.0, 10.0], // ab
            &[1.0, 1.0],   // self-loop a
            &[2.0, 2.0],   // self-loop b
        ]));
        let packed = pack_wide(&mut tape, &g, &wide, g_node, g_edge, 1);
        let m = tape.value(packed.packs);
        assert_eq!(m.shape(), (2, 2));
        // Row 0: v_0 ⊙ selfloop-a = [1,2] ⊙ [1,1].
        assert_eq!(m.row(0), &[1.0, 2.0]);
        // Row 1: v_1 ⊙ e_ab = [3,4] ⊙ [10,10].
        assert_eq!(m.row(1), &[30.0, 40.0]);
    }

    #[test]
    fn deep_pack_respects_overrides() {
        let g = toy_graph();
        let set = DeepSet {
            target: 0,
            entries: vec![
                DeepEntry {
                    node: 1,
                    edge_type: 0,
                },
                DeepEntry {
                    node: 2,
                    edge_type: 0,
                },
            ],
        };
        let mut deep = DeepState::new(set);
        deep.edge_override[1] = Some(vec![100.0, 100.0]);

        let mut tape = Tape::new();
        let g_node = tape.leaf(Tensor::eye(2));
        let g_edge = tape.leaf(Tensor::from_rows(&[
            &[10.0, 10.0],
            &[1.0, 1.0],
            &[2.0, 2.0],
        ]));
        let packed = pack_deep(&mut tape, &g, &deep, g_node, g_edge, 1);
        let m = tape.value(packed.packs);
        assert_eq!(m.shape(), (3, 2));
        // Position 0 uses the trainable edge row.
        assert_eq!(m.row(1), &[30.0, 40.0]);
        // Position 1 uses the relay override.
        assert_eq!(m.row(2), &[500.0, 600.0]);
        // The edge matrix exposes the same representations.
        let e = tape.value(packed.edges);
        assert_eq!(e.row(2), &[100.0, 100.0]);
    }

    #[test]
    fn wide_batch_matches_per_node_packs() {
        let g = toy_graph();
        let w0 = WideSet {
            target: 0,
            entries: vec![
                WideEntry {
                    node: 1,
                    edge_type: 0,
                },
                WideEntry {
                    node: 2,
                    edge_type: 0,
                },
            ],
        };
        let w1 = WideSet {
            target: 2,
            entries: vec![],
        };
        let mut tape = Tape::new();
        let g_node = tape.leaf(Tensor::eye(2));
        let g_edge = tape.leaf(Tensor::from_rows(&[
            &[10.0, 10.0],
            &[1.0, 1.0],
            &[2.0, 2.0],
        ]));
        let batch = pack_wide_batch(&mut tape, &g, &[&w0, &w1], g_node, g_edge, 1);
        assert_eq!(batch.spans[..], [(0, 3), (3, 1)]);
        let flat = tape
            .value(batch.unique_packs)
            .select_rows(&batch.flat_index);
        assert_eq!(flat.shape(), (4, 2));
        for (wide, &(start, len)) in [&w0, &w1].iter().zip(batch.spans.iter()) {
            let single = pack_wide(&mut tape, &g, wide, g_node, g_edge, 1);
            let m = tape.value(single.packs);
            assert_eq!(m.rows(), len);
            for r in 0..len {
                assert_eq!(flat.row(start + r), m.row(r), "row {r} of span {start}");
            }
        }
    }

    #[test]
    fn deep_batch_matches_per_walk_packs_with_overrides() {
        let g = toy_graph();
        let set = |entries: Vec<DeepEntry>| DeepSet { target: 0, entries };
        let mut d0 = DeepState::new(set(vec![
            DeepEntry {
                node: 1,
                edge_type: 0,
            },
            DeepEntry {
                node: 2,
                edge_type: 0,
            },
        ]));
        d0.edge_override[1] = Some(vec![100.0, 100.0]);
        let d1 = DeepState::new(set(vec![DeepEntry {
            node: 2,
            edge_type: 0,
        }]));

        let mut tape = Tape::new();
        let g_node = tape.leaf(Tensor::eye(2));
        let g_edge = tape.leaf(Tensor::from_rows(&[
            &[10.0, 10.0],
            &[1.0, 1.0],
            &[2.0, 2.0],
        ]));
        let batch = pack_deep_batch(&mut tape, &g, &[&d0, &d1], g_node, g_edge, 1);
        assert_eq!(batch.spans[..], [(0, 3), (3, 2)]);
        let flat_packs = tape
            .value(batch.unique_packs)
            .select_rows(&batch.flat_index);
        let flat_edges = tape
            .value(batch.unique_edges)
            .select_rows(&batch.flat_index);
        for (deep, &(start, len)) in [&d0, &d1].iter().zip(batch.spans.iter()) {
            let single = pack_deep(&mut tape, &g, deep, g_node, g_edge, 1);
            let m = tape.value(single.packs);
            let e = tape.value(single.edges);
            for r in 0..len {
                assert_eq!(flat_packs.row(start + r), m.row(r));
                assert_eq!(flat_edges.row(start + r), e.row(r));
            }
        }
        // The override row shows the relay vector, not the table row.
        assert_eq!(flat_edges.row(2), &[100.0, 100.0]);
    }

    #[test]
    fn deep_batch_override_blocks_gradient_to_edge_table() {
        let g = toy_graph();
        let mut d0 = DeepState::new(DeepSet {
            target: 0,
            entries: vec![DeepEntry {
                node: 1,
                edge_type: 0,
            }],
        });
        d0.edge_override[0] = Some(vec![2.0, 2.0]);
        let mut tape = Tape::new();
        let g_node = tape.leaf(Tensor::eye(2));
        let g_edge = tape.leaf(Tensor::from_rows(&[
            &[10.0, 10.0],
            &[1.0, 1.0],
            &[2.0, 2.0],
        ]));
        let batch = pack_deep_batch(&mut tape, &g, &[&d0], g_node, g_edge, 1);
        let loss = tape.sum(batch.unique_packs);
        tape.backward(loss);
        let de = tape.grad(g_edge).unwrap();
        // Row 0 is the table row the overridden position would have read —
        // no gradient may reach it; the self-loop row (1) must still
        // receive gradient.
        assert_eq!(de.row(0), &[0.0, 0.0]);
        assert!(de.row(1).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn empty_sets_pack_only_the_self_message() {
        let g = toy_graph();
        let wide = WideSet {
            target: 2,
            entries: vec![],
        };
        let mut tape = Tape::new();
        let g_node = tape.leaf(Tensor::eye(2));
        let g_edge = tape.leaf(Tensor::from_rows(&[
            &[10.0, 10.0],
            &[1.0, 1.0],
            &[2.0, 2.0],
        ]));
        let packed = pack_wide(&mut tape, &g, &wide, g_node, g_edge, 1);
        let m = tape.value(packed.packs);
        assert_eq!(m.shape(), (1, 2));
        // v_2 ⊙ selfloop-b = [5,6] ⊙ [2,2].
        assert_eq!(m.row(0), &[10.0, 12.0]);
    }
}
