//! The chunk-execution engine under [`crate::Trainer`]'s loop: forward +
//! backward + downsampling decisions over one chunk — one part of a
//! step's nodes — gradient extraction in canonical [`ParamVars::pairs`]
//! order, the deterministic part-ordered reduction, gradient-health
//! evaluation, and the sequential application of downsampling outcomes to
//! persistent per-node states.
//!
//! Everything here is context-parameterised rather than `&self`-bound so
//! the k parts of a step run on their own threads against the one graph
//! and state table, which they only read.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use widen_graph::{HeteroGraph, NodeId};
use widen_obs::{SpanId, Stopwatch, TraceId, Tracer};
use widen_sampling::hash_seed;
use widen_tensor::{BufferPool, ParamId, ProfileReport, Tensor};

use crate::downsample::{decide_with_kl, relay_edge, Decision};
use crate::model::WidenModel;
use crate::state::NodeState;
use crate::trainer::{EpochStats, TrainReport};

/// Outcome of one node's epoch visit, produced inside a chunk (on its
/// part's thread) and applied to the persistent state sequentially.
pub(crate) struct NodeOutcome {
    pub node: NodeId,
    pub wide_attention: Option<Vec<f32>>,
    pub wide_decision: Decision,
    /// Eq. 9 value evaluated for the wide set, when the trigger ran.
    pub wide_kl: Option<f64>,
    pub deep: Vec<DeepOutcome>,
}

pub(crate) struct DeepOutcome {
    pub attention: Vec<f32>,
    pub decision: Decision,
    /// Eq. 9 value evaluated for this walk, when the trigger ran.
    pub kl: Option<f64>,
    /// `(position, relay vector)` to install before pruning.
    pub relay: Option<(usize, Vec<f32>)>,
}

/// Phase wall-nanos measured inside one chunk, returned to the caller so
/// the trainer folds them into its counters.
#[derive(Clone, Copy, Default)]
pub(crate) struct ChunkTimings {
    pub forward_nanos: u64,
    pub backward_nanos: u64,
    pub downsample_nanos: u64,
}

pub(crate) struct ChunkResult {
    pub loss: f64,
    pub grads: Vec<(ParamId, Tensor)>,
    pub outcomes: Vec<NodeOutcome>,
    /// Per-chunk op profile when profiling is on.
    pub profile: Option<ProfileReport>,
    pub timings: ChunkTimings,
}

/// Where an epoch's child spans go, when the fit is traced: `(tracer,
/// trace, parent)`. Parenting is explicit, not thread-local, so part
/// threads can open children of the epoch span.
pub(crate) type TraceCtx<'a> = Option<(&'a Tracer, TraceId, SpanId)>;

/// Everything a chunk needs, borrowed from the trainer.
pub(crate) struct ChunkCtx<'a> {
    pub model: &'a WidenModel,
    pub graph: &'a HeteroGraph,
    pub states: &'a FxHashMap<NodeId, NodeState>,
    pub profiling: bool,
    pub trace: TraceCtx<'a>,
}

impl ChunkCtx<'_> {
    fn trace_span(&self, name: &'static str) -> Option<widen_obs::Span> {
        self.trace
            .map(|(t, trace, parent)| t.child_span(trace, parent, name))
    }
}

/// Forward + backward over one chunk on its own tape: one fused
/// [`WidenModel::forward_batch`] for the whole chunk; each node's
/// downsampling rng stream is keyed by its id. The chunk's loss is scaled
/// by `chunk.len() / batch_len` so summing chunk losses across the step's
/// parts yields the step mean.
///
/// Downsampling still sees exactly the per-node artefacts it needs —
/// attention rows come out of the padded matrices via the node→range maps,
/// and relay packs/edges (Eq. 8) are read from the deduplicated `M▷` and
/// `E▷` through each walk's span and the dedup index.
pub(crate) fn run_chunk(
    ctx: &ChunkCtx<'_>,
    chunk: &[NodeId],
    epoch: usize,
    batch_len: usize,
    pool: BufferPool,
) -> (ChunkResult, BufferPool) {
    let config = &ctx.model.config;
    let mut timings = ChunkTimings::default();
    let span = ctx.trace_span("core.trainer.forward");
    let sw = Stopwatch::start();
    let mut tape = ctx.model.new_tape();
    if ctx.profiling {
        tape.enable_profiling();
    }
    tape.install_pool(pool);
    let pv = ctx.model.insert_params(&mut tape);

    let states: Vec<&NodeState> = chunk.iter().map(|&node| &ctx.states[&node]).collect();
    let labels: Vec<usize> = chunk
        .iter()
        .map(|&node| ctx.graph.label(node).expect("labelled") as usize)
        .collect();
    let fw = ctx.model.forward_batch(&mut tape, &pv, ctx.graph, &states);

    let ce = tape.softmax_cross_entropy(fw.logits, &labels);
    // Scale so that summing chunk losses yields the batch mean.
    let weight = chunk.len() as f32 / batch_len as f32;
    let loss = tape.scale(ce, weight);
    timings.forward_nanos = sw.elapsed_nanos();
    drop(span);

    let span = ctx.trace_span("core.trainer.backward");
    let sw = Stopwatch::start();
    tape.backward(loss);
    let grads = extract_grads(ctx.model, &tape, &pv);
    timings.backward_nanos = sw.elapsed_nanos();
    drop(span);

    // Downsampling decisions (Algorithm 3 lines 9–14), computed here so
    // the pack/edge values needed for relay edges are still on the tape.
    let span = ctx.trace_span("core.trainer.downsample");
    let sw = Stopwatch::start();
    let mut outcomes = Vec::with_capacity(chunk.len());
    for (i, &node) in chunk.iter().enumerate() {
        let state = states[i];
        let mut rng =
            StdRng::seed_from_u64(hash_seed(config.seed, &[3, epoch as u64, u64::from(node)]));

        let (wide_attention, wide_decision, wide_kl) = match &fw.wide {
            Some(wb) => {
                let attn = tape.value(wb.attention).row(i)[..wb.lens[i]].to_vec();
                let (decision, kl) = decide_with_kl(
                    config.variant.wide_downsampling,
                    &attn,
                    state.prev_wide_attention.as_deref(),
                    state.wide.len(),
                    config.k_wide,
                    config.r_wide,
                    epoch,
                    &mut rng,
                );
                (Some(attn), decision, kl)
            }
            None => (None, Decision::Keep, None),
        };

        let mut deep = Vec::new();
        if let Some(db) = &fw.deep {
            let (first_walk, walk_count) = db.node_walks[i];
            deep.reserve(walk_count);
            for phi in 0..walk_count {
                let walk = first_walk + phi;
                let (wstart, wlen) = db.walk_spans[walk];
                let deep_state = &state.deeps[phi];
                let attn = tape.value(db.attention).row(walk)[..wlen].to_vec();
                let (decision, kl) = decide_with_kl(
                    config.variant.deep_downsampling,
                    &attn,
                    deep_state.prev_attention.as_deref(),
                    deep_state.len(),
                    config.k_deep,
                    config.r_deep,
                    epoch,
                    &mut rng,
                );
                let relay = match decision {
                    Decision::Drop(s) if config.variant.relay_edges && s + 1 < deep_state.len() => {
                        // Eq. 8: maxpool(e_{s'+1,s'}, m_{s'}); within the
                        // walk, pack row s+1 and edge row s+2 (row 0 is
                        // the target's self loop) — offset by the walk's
                        // start position, both read through the dedup
                        // index.
                        let packs = tape.value(db.unique_packs);
                        let edges = db.unique_edges.expect("a training tape assembles edges");
                        let edges = tape.value(edges);
                        let relay_vec = relay_edge(
                            edges.row(db.flat_index[wstart + s + 2]),
                            packs.row(db.flat_index[wstart + s + 1]),
                        );
                        Some((s + 1, relay_vec))
                    }
                    _ => None,
                };
                deep.push(DeepOutcome {
                    attention: attn,
                    decision,
                    kl,
                    relay,
                });
            }
        }
        outcomes.push(NodeOutcome {
            node,
            wide_attention,
            wide_decision,
            wide_kl,
            deep,
        });
    }
    timings.downsample_nanos = sw.elapsed_nanos();
    drop(span);

    // Read the loss first: handing the pool on ends the tape.
    let loss = f64::from(tape.value(loss).get(0, 0));
    (
        ChunkResult {
            loss,
            grads,
            outcomes,
            profile: tape.take_profile(),
            timings,
        },
        tape.take_pool(),
    )
}

/// Pulls every parameter gradient off the tape in the canonical
/// [`crate::model::ParamVars::pairs`] order (zero tensors where a
/// parameter was unused, e.g. ablated branches).
fn extract_grads(
    model: &WidenModel,
    tape: &widen_tensor::Tape,
    pv: &crate::model::ParamVars,
) -> Vec<(ParamId, Tensor)> {
    pv.pairs(model.ids())
        .into_iter()
        .map(|(id, var)| {
            let shape = model.params.get(id).shape();
            let g = tape
                .grad(var)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(shape.0, shape.1));
            (id, g)
        })
        .collect()
}

/// Deterministic gradient reduction: folds `next` into `acc` in place,
/// relying on (and debug-asserting) the identical canonical ParamId order
/// every chunk extracts with. The first contribution is moved, not
/// copied. Callers control determinism by calling this in a fixed order —
/// part order.
pub(crate) fn accumulate_grads(acc: &mut Vec<(ParamId, Tensor)>, next: Vec<(ParamId, Tensor)>) {
    if acc.is_empty() {
        *acc = next;
        return;
    }
    debug_assert_eq!(acc.len(), next.len());
    for ((acc_id, a), (g_id, g)) in acc.iter_mut().zip(&next) {
        debug_assert_eq!(
            acc_id, g_id,
            "gradient reduction requires identical ParamId order across chunks"
        );
        a.add_scaled(1.0, g);
    }
}

/// Gradient health evaluated on the reduced gradients — the same pass and
/// order of work as the optimizer step it guards.
pub(crate) struct GradHealth {
    /// Global L2 norm (√Σg²).
    pub norm: f64,
    pub max_abs: f32,
    /// Parameter holding `max_abs`.
    pub max_param: Option<ParamId>,
    pub finite: bool,
}

pub(crate) fn grad_health(grads: &[(ParamId, Tensor)]) -> GradHealth {
    let mut sq_sum = 0.0f64;
    let mut max_abs = 0.0f32;
    let mut max_param: Option<ParamId> = None;
    let mut finite = true;
    for (id, g) in grads {
        let mut local_max = 0.0f32;
        for &v in g.as_slice() {
            if !v.is_finite() {
                finite = false;
            }
            let a = v.abs();
            if a > local_max {
                local_max = a;
            }
            sq_sum += f64::from(v) * f64::from(v);
        }
        if local_max > max_abs {
            max_abs = local_max;
            max_param = Some(*id);
        }
    }
    GradHealth {
        norm: sq_sum.sqrt(),
        max_abs,
        max_param,
        finite,
    }
}

/// Applies downsampling outcomes to the persistent per-node states,
/// folding each decision (and any evaluated Eq. 9 value) into the epoch's
/// telemetry. `outcomes[i].node` indexes `states`.
pub(crate) fn apply_outcomes(
    states: &mut FxHashMap<NodeId, NodeState>,
    outcomes: Vec<NodeOutcome>,
    report: &mut TrainReport,
    stats: &mut EpochStats,
) {
    for outcome in outcomes {
        let state = states.get_mut(&outcome.node).expect("state exists");
        stats.observe_kl(outcome.wide_kl);
        match outcome.wide_decision {
            Decision::Drop(n) => {
                state.prune_wide(n);
                report.wide_drops += 1;
                stats.wide_drops += 1;
            }
            Decision::Keep => {
                state.prev_wide_attention = outcome.wide_attention;
                stats.wide_keeps += 1;
            }
        }
        for (phi, deep_outcome) in outcome.deep.into_iter().enumerate() {
            let deep_state = &mut state.deeps[phi];
            stats.observe_kl(deep_outcome.kl);
            match deep_outcome.decision {
                Decision::Drop(s) => {
                    if let Some((pos, relay)) = deep_outcome.relay {
                        deep_state.edge_override[pos] = Some(relay);
                        report.relay_edges += 1;
                        stats.relay_edges += 1;
                    }
                    deep_state.prune(s);
                    report.deep_drops += 1;
                    stats.deep_drops += 1;
                }
                Decision::Keep => {
                    deep_state.prev_attention = Some(deep_outcome.attention);
                    stats.deep_keeps += 1;
                }
            }
        }
    }
}
