//! Pins the stable ParamId order the positional chunk-gradient reduction
//! relies on. The differential tests of the forward pass against the
//! per-node reference (logits, embeddings, attention rows, gradients,
//! post-training inference) live next to the reference itself, in
//! `widen-core`'s unit tests — it only compiles under `cfg(test)` there.

use widen::core::{WidenConfig, WidenModel};
use widen::data::{acm_like, Scale};
use widen::tensor::Tape;

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

#[test]
fn chunk_gradient_param_order_is_stable_across_tapes() {
    // The trainer's chunk-gradient reduction zips gradient vectors from
    // different tapes positionally; this pins the contract that
    // `ParamVars::pairs` yields the same ParamId sequence on every tape.
    let dataset = acm_like(Scale::Smoke, 24);
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    let mut tape_a = Tape::new();
    let mut tape_b = Tape::new();
    let pv_a = model.insert_params(&mut tape_a);
    let pv_b = model.insert_params(&mut tape_b);
    let ids_a: Vec<_> = pv_a
        .pairs(model.ids())
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    let ids_b: Vec<_> = pv_b
        .pairs(model.ids())
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    assert_eq!(ids_a, ids_b);
    assert_eq!(ids_a.len(), 14, "every trainable parameter participates");
}
