//! Stop-watches around direct calls into each layer's public functions,
//! on the same 60-node training batch and 8-node request the workloads
//! use. Every probe repeats and reports its quiet quartile, like the
//! end-to-end times. A probe times one layer in isolation: read it beside
//! the workload that exercises the layer, not instead of it.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use widen_core::downsample::decide_with_kl;
use widen_core::packaging::{pack_deep_batch, pack_wide_batch};
use widen_core::{DeepState, DownsampleStrategy, NodeState, Variant, WidenConfig, WidenModel};
use widen_data::Dataset;
use widen_sampling::hash_seed;
use widen_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use widen_serve::{EmbedCache, EmbedKey, ModelRegistry};
use widen_tensor::{Adam, BackendKind, BufferPool, Optimizer, ParamId, Tape, Tensor, Var};

use crate::serve::{authors, NODES_PER_REQUEST, PAPER, PAPER_AUTHOR};
use crate::stats::{lower_quartile, upper_quartile};
use crate::train;
use crate::Metrics;

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Quiet quartile of `reps` samples of `sample()`.
fn quiet(reps: usize, mut sample: impl FnMut() -> f64) -> f64 {
    lower_quartile(&(0..reps).map(|_| sample()).collect::<Vec<_>>())
}

/// Quiet microseconds per call of a sub-microsecond-to-microsecond call.
fn per_call_us(mut call: impl FnMut()) -> f64 {
    const CALLS: usize = 1_000;
    quiet(9, || secs(|| (0..CALLS).for_each(|_| call()))) * 1e6 / CALLS as f64
}

/// A tape holding the model's parameters, and the `G_node` / `G_edge`
/// variables packaging needs (the first two of the canonical pair order).
fn tape_with_params(model: &WidenModel) -> (Tape, widen_core::model::ParamVars, Var, Var) {
    let mut tape = model.new_tape();
    let pv = model.insert_params(&mut tape);
    let pairs = pv.pairs(model.ids());
    (tape, pv, pairs[0].1, pairs[1].1)
}

/// States as late training sees them: every walk pruned to `k▷` at seeded
/// positions, each prune leaving a relay override on its successor.
fn pruned(states: &[NodeState], config: &WidenConfig, rng: &mut StdRng) -> Vec<NodeState> {
    let mut states = states.to_vec();
    for walk in states.iter_mut().flat_map(|s| s.deeps.iter_mut()) {
        while walk.len() > config.k_deep {
            let s = rng.gen_range(0..walk.len());
            if s + 1 < walk.len() {
                walk.edge_override[s + 1] = Some(vec![0.5; config.d]);
            }
            walk.prune(s);
        }
    }
    states
}

/// Runs every probe; returns notes (shapes, sizes) for the span file.
pub fn run(
    ds: &Dataset,
    seed: u64,
    checkpoint: &[u8],
    metrics: &mut Metrics,
) -> Vec<(&'static str, String)> {
    let graph = &ds.graph;
    let config = train::config(seed, Variant::full(), WidenConfig::paper().epochs);
    let mut model = WidenModel::for_graph(graph, config.clone());
    model.load_weights(checkpoint);
    let batch = &ds.transductive.train;
    let edge_types = graph.num_edge_types();
    let mut rng = StdRng::seed_from_u64(hash_seed(seed, &[0x9120BE]));

    // sampling
    let state_seed = hash_seed(seed, &[1]);
    let sample_all = |model: &WidenModel| -> Vec<NodeState> {
        batch
            .iter()
            .map(|&node| model.sample_state(graph, node, state_seed))
            .collect()
    };
    let per_batch = quiet(20, || secs(|| drop(black_box(sample_all(&model)))));
    metrics.set(
        "sampling.sample_state_us",
        per_batch * 1e6 / batch.len() as f64,
    );
    let states = sample_all(&model);
    let packs: usize = states
        .iter()
        .map(|s| s.wide.len() + s.deeps.iter().map(DeepState::len).sum::<usize>())
        .sum();
    metrics.set("sampling.packs_per_node", packs as f64 / batch.len() as f64);

    // core::packaging
    let wides: Vec<_> = states.iter().map(|s| &s.wide).collect();
    let walks: Vec<&DeepState> = states.iter().flat_map(|s| s.deeps.iter()).collect();
    let late = pruned(&states, &config, &mut rng);
    let late_walks: Vec<&DeepState> = late.iter().flat_map(|s| s.deeps.iter()).collect();
    let pack_deep_ms = |walks: &[&DeepState]| {
        quiet(9, || {
            let (mut tape, _, g_node, g_edge) = tape_with_params(&model);
            secs(|| {
                drop(pack_deep_batch(
                    &mut tape, graph, walks, g_node, g_edge, edge_types,
                ))
            })
        }) * 1e3
    };
    let pack_wide_ms = quiet(9, || {
        let (mut tape, _, g_node, g_edge) = tape_with_params(&model);
        secs(|| {
            drop(pack_wide_batch(
                &mut tape, graph, &wides, g_node, g_edge, edge_types,
            ))
        })
    }) * 1e3;
    metrics.set("core.packaging.pack_wide_ms", pack_wide_ms);
    metrics.set("core.packaging.pack_deep_ms", pack_deep_ms(&walks));
    metrics.set(
        "core.packaging.pack_deep_pruned_ms",
        pack_deep_ms(&late_walks),
    );
    let (mut tape, _, g_node, g_edge) = tape_with_params(&model);
    let wide = pack_wide_batch(&mut tape, graph, &wides, g_node, g_edge, edge_types);
    let deep = pack_deep_batch(&mut tape, graph, &walks, g_node, g_edge, edge_types);
    let unique_deep = tape.value(deep.unique_packs).rows();
    let unique = tape.value(wide.unique_packs).rows() + unique_deep;
    let flat = wide.flat_index.len() + deep.flat_index.len();
    metrics.set(
        "core.packaging.unique_pack_share",
        unique as f64 / flat as f64,
    );
    drop(tape);

    // core::model forward, tensor::tape loss + backward, tensor::optim
    let refs: Vec<&NodeState> = states.iter().collect();
    let labels: Vec<usize> = batch
        .iter()
        .map(|&node| graph.label(node).expect("training nodes are labelled") as usize)
        .collect();
    let mut adam = Adam::with_lr(config.learning_rate, config.weight_decay);
    let mut pool = BufferPool::new();
    let (mut forward, mut loss_s, mut backward, mut step) = (vec![], vec![], vec![], vec![]);
    for _ in 0..7 {
        let (mut tape, pv, ..) = tape_with_params(&model);
        tape.install_pool(std::mem::take(&mut pool));
        let packaging = widen_core::packaging::packaging_nanos_total();
        let start = Instant::now();
        let fw = model.forward_batch(&mut tape, &pv, graph, &refs);
        let total = start.elapsed().as_secs_f64();
        let packaging = widen_core::packaging::packaging_nanos_total() - packaging;
        forward.push(total - packaging as f64 / 1e9);
        let mut loss = None;
        loss_s.push(secs(|| {
            loss = Some(tape.softmax_cross_entropy(fw.logits, &labels))
        }));
        backward.push(secs(|| tape.backward(loss.expect("loss recorded"))));
        let grads: Vec<(ParamId, Tensor)> = pv
            .pairs(model.ids())
            .into_iter()
            .filter_map(|(id, var)| tape.grad(var).map(|g| (id, g.clone())))
            .collect();
        step.push(secs(|| adam.step(&mut model.params, &grads)));
        pool = tape.take_pool();
    }
    metrics.set("core.model.forward_ms", lower_quartile(&forward) * 1e3);
    metrics.set("tensor.tape.loss_ms", lower_quartile(&loss_s) * 1e3);
    metrics.set("tensor.tape.backward_ms", lower_quartile(&backward) * 1e3);
    metrics.set("tensor.optim.adam_step_ms", lower_quartile(&step) * 1e3);

    // core::model inference at three batch sizes: the fixed per-batch cost
    // (fresh tape, parameter re-insert) is what separates them.
    for (name, rows) in [
        ("core.model.embed_rows_per_s_b1", 1),
        ("core.model.embed_rows_per_s_b8", NODES_PER_REQUEST),
        ("core.model.embed_rows_per_s_b32", 32),
    ] {
        let items: Vec<(u32, u64)> = batch[..rows].iter().map(|&n| (n, seed)).collect();
        let rates: Vec<f64> = (0..9)
            .map(|_| rows as f64 / secs(|| drop(black_box(model.embed_requests(graph, &items)))))
            .collect();
        metrics.set(name, upper_quartile(&rates));
    }

    // tensor::kernels at the two hottest GEMM shapes of an epoch: the
    // deep-branch projection of the unique pack rows (forward, A·B) and
    // its weight gradient (backward, Aᵀ·B).
    let (u, d) = (unique_deep, config.d);
    let kernels = BackendKind::Optimized.dispatch();
    let a = Tensor::randn(u, d, 1.0, &mut rng);
    let w = Tensor::randn(d, d, 1.0, &mut rng);
    let gflop = 2.0 * (u * d * d) as f64 / 1e9;
    let nn = quiet(15, || {
        let mut out = vec![0.0f32; u * d];
        secs(|| kernels.gemm_nn_acc(u, d, d, a.as_slice(), w.as_slice(), black_box(&mut out)))
    });
    let tn = quiet(15, || {
        let mut out = vec![0.0f32; d * d];
        secs(|| kernels.gemm_tn_acc(d, u, d, a.as_slice(), a.as_slice(), black_box(&mut out)))
    });
    metrics.set("tensor.kernels.gemm_nn_gflops_hot", gflop / nn);
    metrics.set("tensor.kernels.gemm_tn_gflops_hot", gflop / tn);
    // Computed from the shapes, not measured: operands read once, result
    // written once.
    metrics.set(
        "tensor.kernels.gemm_computed_mb_hot",
        4.0 * (2 * u * d + d * d) as f64 / 1e6,
    );

    // core::downsample: the Eq. 9 trigger on full-length attention rows.
    let len = config.n_d;
    let rows: Vec<(Vec<f32>, Vec<f32>)> = (0..600)
        .map(|_| {
            let mut now: Vec<f32> = (0..=len).map(|_| rng.gen_range(0.1f32..1.0)).collect();
            let total: f32 = now.iter().sum();
            now.iter_mut().for_each(|v| *v /= total);
            let before = now
                .iter()
                .map(|v| v * rng.gen_range(0.999f32..1.001))
                .collect();
            (now, before)
        })
        .collect();
    let decide = quiet(20, || {
        secs(|| {
            for (now, before) in &rows {
                black_box(decide_with_kl(
                    DownsampleStrategy::Attentive,
                    now,
                    Some(before),
                    len,
                    config.k_deep,
                    config.r_deep,
                    2,
                    &mut rng,
                ));
            }
        })
    });
    metrics.set(
        "core.downsample.decide_us",
        decide * 1e6 / rows.len() as f64,
    );

    // serve::protocol on one 8-node request and its 8 × d response.
    let request = Request::Embed {
        id: 7,
        seed,
        nodes: batch[..NODES_PER_REQUEST].to_vec(),
    };
    let response = Response::Embeddings {
        id: 7,
        dim: d as u32,
        values: a.as_slice()[..NODES_PER_REQUEST * d].to_vec(),
    };
    let request_frame = encode_request(&request);
    let response_frame = encode_response(&response);
    metrics.set(
        "serve.protocol.encode_request_us",
        per_call_us(|| drop(black_box(encode_request(&request)))),
    );
    metrics.set(
        "serve.protocol.decode_request_us",
        per_call_us(|| drop(black_box(decode_request(&request_frame[4..])))),
    );
    metrics.set(
        "serve.protocol.encode_response_us",
        per_call_us(|| drop(black_box(encode_response(&response)))),
    );
    metrics.set(
        "serve.protocol.decode_response_us",
        per_call_us(|| drop(black_box(decode_response(&response_frame[4..])))),
    );

    // serve::cache at the default capacity, full.
    const KEYS: u32 = 4_096;
    let key = |node: u32| EmbedKey {
        node,
        checkpoint_hash: 1,
        graph_version: 0,
        seed,
    };
    let row = vec![0.25f32; d];
    let per_key_ns = |secs: f64| secs * 1e9 / f64::from(KEYS);
    let mut cache = EmbedCache::new(KEYS as usize);
    let insert = quiet(9, || {
        cache = EmbedCache::new(KEYS as usize);
        secs(|| (0..KEYS).for_each(|n| cache.insert(key(n), row.clone())))
    });
    let hit = quiet(9, || {
        secs(|| (0..KEYS).for_each(|n| drop(black_box(cache.get(&key(n))))))
    });
    let miss = quiet(9, || {
        secs(|| (KEYS..2 * KEYS).for_each(|n| drop(black_box(cache.get(&key(n))))))
    });
    metrics.set("serve.cache.insert_ns", per_key_ns(insert));
    metrics.set("serve.cache.get_hit_ns", per_key_ns(hit));
    metrics.set("serve.cache.get_miss_ns", per_key_ns(miss));

    // serve::registry ingest (mutation + embedding in one critical
    // section) and the graph mutation alone.
    let (paper, paper_author) = (PAPER, PAPER_AUTHOR);
    let author = authors(graph)[0];
    let features = vec![0.1f32; graph.feature_dim()];
    let registry = ModelRegistry::from_checkpoint(graph.clone(), config.clone(), checkpoint)
        .expect("the checkpoint fits the model");
    let ingest = quiet(9, || {
        secs(|| {
            registry
                .ingest(
                    paper,
                    features.clone(),
                    None,
                    &[(author, paper_author)],
                    seed,
                )
                .expect("valid ingest");
        })
    });
    metrics.set("serve.registry.ingest_ms", ingest * 1e3);
    const ADDS: usize = 64;
    let mut grown = graph.clone();
    let add = quiet(9, || {
        secs(|| {
            for _ in 0..ADDS {
                grown
                    .add_node_with_edges(paper, features.clone(), None, &[(author, paper_author)])
                    .expect("valid mutation");
            }
        })
    });
    metrics.set("graph.add_node_with_edges_us", add * 1e6 / ADDS as f64);

    vec![
        (
            "gemm_hot_shapes",
            format!("{{\"nn\": \"{u}x{d}.{d}x{d}\", \"tn\": \"({u}x{d})T.{u}x{d}\"}}"),
        ),
        (
            "probe_batch",
            format!(
                "{{\"nodes\": {}, \"flat_pack_rows\": {flat}, \"unique_pack_rows\": {unique}}}",
                batch.len()
            ),
        ),
    ]
}
