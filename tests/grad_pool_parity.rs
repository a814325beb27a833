//! Differential tests pinning the tape's buffer pool: a tape with a warm
//! pool must produce bit-identical forward values and gradients to a
//! pool-disabled tape — also on ragged shapes and over recycled buffers
//! poisoned with NaN — reuse must actually happen across backward passes,
//! and `Tape::reset` must not grow the pool.

use widen::core::{NodeState, WidenConfig, WidenModel};
use widen::data::{acm_like, Scale};
use widen::graph::HeteroGraph;
use widen::tensor::{Tape, Tensor};

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

fn sample_states(model: &WidenModel, graph: &HeteroGraph, nodes: &[u32]) -> Vec<NodeState> {
    nodes
        .iter()
        .map(|&v| model.sample_state(graph, v, 5))
        .collect()
}

/// Runs the batched forward+backward on `tape`, returning per-parameter
/// gradients in canonical order.
fn grads_on(
    tape: &mut Tape,
    model: &WidenModel,
    graph: &HeteroGraph,
    states: &[NodeState],
    labels: &[usize],
) -> Vec<Tensor> {
    let (_, grads) = values_and_grads_on(tape, model, graph, states, labels);
    grads
}

/// Like [`grads_on`], also returning the forward values the trainer and
/// the serving path read off the tape: embeddings, logits, both padded
/// attention matrices and the loss.
fn values_and_grads_on(
    tape: &mut Tape,
    model: &WidenModel,
    graph: &HeteroGraph,
    states: &[NodeState],
    labels: &[usize],
) -> (Vec<Tensor>, Vec<Tensor>) {
    let refs: Vec<&NodeState> = states.iter().collect();
    let pv = model.insert_params(tape);
    let fw = model.forward_batch(tape, &pv, graph, &refs);
    let loss = tape.softmax_cross_entropy(fw.logits, labels);
    tape.backward(loss);
    let wide = fw.wide.expect("full variant runs the wide branch");
    let deep = fw.deep.expect("full variant runs the deep branch");
    let values = [
        fw.embeddings,
        fw.logits,
        wide.attention,
        deep.attention,
        loss,
    ]
    .map(|var| tape.value(var).clone())
    .to_vec();
    let grads = pv
        .pairs(model.ids())
        .into_iter()
        .map(|(id, var)| {
            let shape = model.params.get(id).shape();
            tape.grad(var)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(shape.0, shape.1))
        })
        .collect();
    (values, grads)
}

#[test]
fn pooled_gradients_match_pool_disabled_path_across_two_passes() {
    let dataset = acm_like(Scale::Smoke, 21);
    let nodes: Vec<u32> = dataset.graph.labeled_nodes()[..24].to_vec();
    let labels: Vec<usize> = nodes
        .iter()
        .map(|&v| dataset.graph.label(v).unwrap() as usize)
        .collect();
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    let states = sample_states(&model, &dataset.graph, &nodes);

    // Reference: pool pinned off — every gradient heap-allocates.
    let mut tape_ref = Tape::new();
    tape_ref.disable_pool();
    let grads_ref = grads_on(&mut tape_ref, &model, &dataset.graph, &states, &labels);
    let ref_stats = tape_ref.pool_stats();
    assert_eq!(ref_stats.hits, 0, "disabled pool must never serve a buffer");
    assert_eq!(ref_stats.resident_buffers, 0);

    // Pass 1 on a pooled tape fills the free lists (all misses); pass 2 on
    // a fresh tape inheriting that pool runs warm (dirty buffers zeroed and
    // reused). Both must be bit-identical to the reference.
    let mut tape1 = Tape::new();
    let grads_cold = grads_on(&mut tape1, &model, &dataset.graph, &states, &labels);
    let pool = tape1.take_pool();

    let mut tape2 = Tape::new();
    tape2.install_pool(pool);
    let grads_warm = grads_on(&mut tape2, &model, &dataset.graph, &states, &labels);
    let warm_stats = tape2.pool_stats();
    assert!(
        warm_stats.hits > 0,
        "second pass on a warm pool must reuse buffers"
    );
    assert!(
        warm_stats.bytes_reused > 0,
        "reuse must be visible in the byte counter"
    );

    for ((cold, warm), reference) in grads_cold.iter().zip(&grads_warm).zip(&grads_ref) {
        assert_eq!(
            cold.as_slice(),
            reference.as_slice(),
            "cold pooled gradients must equal the pool-disabled path"
        );
        assert_eq!(
            warm.as_slice(),
            reference.as_slice(),
            "warm pooled gradients must equal the pool-disabled path"
        );
    }
}

#[test]
fn pooled_values_and_gradients_survive_ragged_shapes_and_poisoned_buffers() {
    let dataset = acm_like(Scale::Smoke, 22);
    let labelled = dataset.graph.labeled_nodes();
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    // Two batches of different size over different nodes: every ragged
    // shape (flat pack rows, unique rows, padded widths) differs.
    let batches: Vec<(Vec<NodeState>, Vec<usize>)> = [&labelled[..24], &labelled[30..49]]
        .iter()
        .map(|nodes| {
            let labels = nodes
                .iter()
                .map(|&v| dataset.graph.label(v).unwrap() as usize)
                .collect();
            (sample_states(&model, &dataset.graph, nodes), labels)
        })
        .collect();

    let reference: Vec<_> = batches
        .iter()
        .map(|(states, labels)| {
            let mut tape = Tape::new();
            tape.disable_pool();
            values_and_grads_on(&mut tape, &model, &dataset.graph, states, labels)
        })
        .collect();

    // One pool threaded through both tapes and back to the first batch,
    // every parked buffer overwritten with NaN in between: an op that read
    // what its recycled buffer last held — instead of zeroing its padding
    // or overwriting every element — would put NaN into a value here.
    let mut pool = Tape::new().take_pool();
    for (round, &batch) in [0usize, 1, 0].iter().enumerate() {
        let (states, labels) = &batches[batch];
        let mut tape = Tape::new();
        tape.install_pool(pool);
        let got = values_and_grads_on(&mut tape, &model, &dataset.graph, states, labels);
        if round > 0 {
            assert!(
                tape.pool_stats().hits > 0,
                "round {round} must reuse buffers"
            );
        }
        for (kind, got, want) in [
            ("value", &got.0, &reference[batch].0),
            ("gradient", &got.1, &reference[batch].1),
        ] {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.shape(), w.shape(), "round {round} {kind} {i}");
                assert_eq!(
                    g.as_slice(),
                    w.as_slice(),
                    "round {round}: pooled {kind} {i} differs from the pool-disabled path"
                );
            }
        }
        pool = tape.take_pool();
        pool.fill_parked(f32::NAN);
    }
}

#[test]
fn repeated_backward_on_one_tape_is_allocation_free_and_stable() {
    let mut tape = Tape::new();
    let a = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    let b = tape.leaf(Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]));
    let c = tape.matmul(a, b);
    let r = tape.relu(c);
    let loss = tape.sum(r);

    tape.backward(loss);
    let first = tape.grad(a).unwrap().as_slice().to_vec();
    let after_first = tape.pool_stats();

    tape.backward(loss);
    let second = tape.grad(a).unwrap().as_slice().to_vec();
    let after_second = tape.pool_stats();

    assert_eq!(first, second, "re-running backward must be deterministic");
    assert_eq!(
        after_second.misses, after_first.misses,
        "second backward on the same tape must allocate nothing"
    );
    assert!(after_second.hits > after_first.hits);
}

#[test]
fn reset_recycles_every_buffer_without_growing_the_pool() {
    let mut tape = Tape::new();
    for round in 0..72 {
        let a = tape.leaf(Tensor::full(4, 4, round as f32 + 1.0));
        let loss = tape.sum(a);
        tape.backward(loss);
        assert!(tape.grad(a).is_some());
        tape.reset();
        assert_eq!(tape.len(), 0, "reset must clear recorded nodes");
        assert!(tape.grad(a).is_none(), "reset must clear gradients");
    }
    let stats = tape.pool_stats();
    // Steady state: each round checks its 1×1 loss, its 4×4 gradient and
    // its 1×1 loss seed back in at reset and the next round reuses them;
    // the caller-built leaf joins the pool too, and whatever a round
    // leaves untouched is freed as it ends — residency stays O(shapes)
    // however many rounds ran.
    assert!(
        stats.resident_buffers <= 4,
        "pool must not grow across Tape::reset (resident: {})",
        stats.resident_buffers
    );
    assert!(stats.hits > 0, "rounds after the first must run warm");
    assert_eq!(stats.misses, 3, "only the first round may allocate");
}
