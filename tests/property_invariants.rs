//! Cross-crate property-based tests (proptest) on the library's core
//! invariants: sampling structure, downsampling index bookkeeping,
//! attention normalisation and graph round-trips under random inputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use widen::core::{Trainer, WidenConfig, WidenModel};
use widen::data::{EdgeTypeSpec, HeteroSbmConfig, NodeTypeSpec};
use widen::graph::HeteroGraph;
use widen::sampling::{sample_deep, sample_wide};

fn arbitrary_graph(nodes: usize, classes: usize, seed: u64) -> HeteroGraph {
    HeteroSbmConfig {
        node_types: vec![
            NodeTypeSpec::new("a", nodes / 2 + 2, true),
            NodeTypeSpec::new("b", nodes / 2 + 2, false),
        ],
        edge_types: vec![
            EdgeTypeSpec::new("ab", 0, 1, 2.0, 0.6),
            EdgeTypeSpec::new("bb", 1, 1, 1.5, 0.5),
        ],
        num_classes: classes,
        feature_dim: 8,
        feature_signal_labeled: 0.3,
        feature_signal_unlabeled: 0.5,
        feature_noise: 1.0,
        hub_fraction: 0.1,
        informative_fraction: 0.8,
    }
    .generate(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_samples_are_genuine_neighbors(
        seed in 0u64..500,
        n_w in 1usize..24,
        node_pick in 0usize..1000,
    ) {
        let graph = arbitrary_graph(40, 2, seed);
        let node = (node_pick % graph.num_nodes()) as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let wide = sample_wide(&graph, node, n_w, &mut rng);
        // Size contract.
        if graph.degree(node) == 0 {
            prop_assert!(wide.is_empty());
        } else {
            prop_assert_eq!(wide.len(), n_w);
        }
        // Every entry is a real neighbour with the right edge type.
        for e in &wide.entries {
            let pos = graph
                .neighbors(node)
                .iter()
                .position(|&u| u == e.node);
            prop_assert!(pos.is_some());
            // The (neighbour, edge type) pair must exist among the node's
            // incident edges (parallel edges of different types allowed).
            let found = graph
                .neighbors(node)
                .iter()
                .zip(graph.edge_types_of(node))
                .any(|(&u, &t)| u == e.node && t == e.edge_type);
            prop_assert!(found);
        }
    }

    #[test]
    fn deep_walks_are_connected_paths(
        seed in 0u64..500,
        n_d in 1usize..30,
        node_pick in 0usize..1000,
    ) {
        let graph = arbitrary_graph(40, 2, seed);
        let node = (node_pick % graph.num_nodes()) as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD);
        let walk = sample_deep(&graph, node, n_d, &mut rng);
        prop_assert!(walk.len() <= n_d);
        let mut prev = node;
        for e in &walk.entries {
            let found = graph
                .neighbors(prev)
                .iter()
                .zip(graph.edge_types_of(prev))
                .any(|(&u, &t)| u == e.node && t == e.edge_type);
            prop_assert!(found, "walk step not an edge");
            prev = e.node;
        }
    }

    #[test]
    fn induced_subgraph_preserves_node_payloads(
        seed in 0u64..200,
        keep_ratio in 0.2f64..0.9,
    ) {
        let graph = arbitrary_graph(40, 2, seed);
        let keep: Vec<u32> = (0..graph.num_nodes() as u32)
            .filter(|&v| (u64::from(v).wrapping_mul(2654435761) % 1000) as f64 / 1000.0 < keep_ratio)
            .collect();
        prop_assume!(!keep.is_empty());
        let sub = graph.induced_subgraph(&keep);
        for (new, &old) in keep.iter().enumerate() {
            prop_assert_eq!(sub.graph.feature_row(new as u32), graph.feature_row(old));
            prop_assert_eq!(sub.graph.label(new as u32), graph.label(old));
            prop_assert_eq!(sub.graph.node_type(new as u32), graph.node_type(old));
        }
        // Degrees never grow.
        for (new, &old) in keep.iter().enumerate() {
            prop_assert!(sub.graph.degree(new as u32) <= graph.degree(old));
        }
    }

    #[test]
    fn forward_embeddings_are_unit_or_zero_norm(
        seed in 0u64..100,
    ) {
        let graph = arbitrary_graph(30, 2, seed);
        let mut config = WidenConfig::small();
        config.d = 8;
        config.n_w = 4;
        config.n_d = 4;
        config.phi = 2;
        config.seed = seed;
        let model = WidenModel::for_graph(&graph, config);
        let nodes: Vec<u32> = (0..graph.num_nodes().min(6) as u32).collect();
        let emb = model.embed_nodes(&graph, &nodes, seed);
        for r in 0..emb.rows() {
            let norm: f32 = emb.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(
                norm < 1.0 + 1e-3,
                "row norm {} exceeds 1 (Eq. 7 normalises)", norm
            );
        }
    }

    #[test]
    fn indexed_attention_ignores_source_row_order_and_puts_zero_mass_on_padding(
        seed in 0u64..500,
        rows in 1usize..8,
        cols in 1usize..12,
        sources in 1usize..10,
    ) {
        // The batched attention engine addresses its unique projection
        // rows by index instead of gathering them flat. That is the same
        // computation only if the output depends on *which* row an index
        // names, never on where the row sits: permuting the source matrix
        // and remapping the index lists must not move one bit. Padding
        // columns must carry *bit-exact* zero weight so padded rows reduce
        // identically to their per-node counterparts.
        use rand::seq::SliceRandom;
        use rand::Rng;
        use widen::tensor::Tensor;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = 24;
        let q = Tensor::randn(sources, d, 1.0, &mut rng);
        let keys = Tensor::randn(sources, d, 1.0, &mut rng);
        let values = Tensor::randn(sources, d, 1.0, &mut rng);
        let positions = 2 * cols;
        let q_rows: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..sources)).collect();
        let k_rows: Vec<usize> = (0..positions).map(|_| rng.gen_range(0..sources)).collect();
        // Overlapping spans, a zero-length one whenever the pattern hits it.
        let spans: Vec<(usize, usize)> = (0..rows)
            .map(|r| ((seed as usize + r) % cols, (seed as usize + 3 * r) % (cols + 1)))
            .collect();
        let attn = q.segment_attention(&q_rows, &keys, &k_rows, &spans, 0.5);
        let mixed = attn.segment_weighted_sum(&values, &k_rows, &spans);
        for (r, &(_, len)) in spans.iter().enumerate() {
            let row = attn.row(r);
            // Valid prefix: a probability distribution (nothing at all
            // for an empty span).
            let mass: f32 = row[..len].iter().sum();
            let want = if len == 0 { 0.0 } else { 1.0 };
            prop_assert!((mass - want).abs() < 1e-5, "valid mass {mass} ≠ {want}");
            prop_assert!(row[..len].iter().all(|&p| p >= 0.0));
            // Padding: exactly +0.0, not merely small.
            for (c, &p) in row.iter().enumerate().skip(len) {
                prop_assert!(
                    p == 0.0 && p.is_sign_positive(),
                    "padding [{r},{c}] carries mass {p}"
                );
            }
        }

        // Source row `i` moves to row `perm[i]`; the index lists follow.
        let mut perm: Vec<usize> = (0..sources).collect();
        perm.shuffle(&mut rng);
        let mut inverse = vec![0; sources];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        let remap = |index: &[usize]| -> Vec<usize> { index.iter().map(|&i| perm[i]).collect() };
        let (q_p, keys_p, values_p) = (
            q.select_rows(&inverse),
            keys.select_rows(&inverse),
            values.select_rows(&inverse),
        );
        let attn_p = q_p.segment_attention(&remap(&q_rows), &keys_p, &remap(&k_rows), &spans, 0.5);
        let mixed_p = attn_p.segment_weighted_sum(&values_p, &remap(&k_rows), &spans);
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|x| x.to_bits()).collect() };
        prop_assert_eq!(bits(&attn), bits(&attn_p));
        prop_assert_eq!(bits(&mixed), bits(&mixed_p));

        // And it is the flat gather it replaces: the gathered copies under
        // the identity index give the same bits.
        let identity: Vec<usize> = (0..positions).collect();
        let rows_identity: Vec<usize> = (0..rows).collect();
        let attn_flat = q.select_rows(&q_rows).segment_attention(
            &rows_identity,
            &keys.select_rows(&k_rows),
            &identity,
            &spans,
            0.5,
        );
        let mixed_flat = attn_flat.segment_weighted_sum(&values.select_rows(&k_rows), &identity, &spans);
        prop_assert_eq!(bits(&attn), bits(&attn_flat));
        prop_assert_eq!(bits(&mixed), bits(&mixed_flat));
    }
}

#[test]
fn training_respects_downsampling_floor_under_aggressive_thresholds() {
    // Deterministic stress of Algorithm 3's lower bounds: with r = ∞-like
    // thresholds, every epoch prunes until k is reached but never below.
    let graph = arbitrary_graph(60, 2, 9);
    let train: Vec<u32> = graph.labeled_nodes().into_iter().take(20).collect();
    let mut config = WidenConfig::small();
    config.d = 8;
    config.n_w = 6;
    config.n_d = 6;
    config.phi = 2;
    config.epochs = 15;
    config.r_wide = f64::MAX;
    config.r_deep = f64::MAX;
    config.k_wide = 2;
    config.k_deep = 2;
    let model = WidenModel::for_graph(&graph, config);
    let mut trainer = Trainer::new(model, &graph, &train);
    trainer.fit(&train);
    let (wide_total, deep_total) = trainer.neighbor_volume();
    // 20 nodes × k=2 minimum (isolated nodes may hold less).
    assert!(wide_total <= 20 * 6);
    assert!(deep_total <= 20 * 2 * 6);
    // With 15 epochs and aggressive triggering, most sets must be at floor.
    assert!(
        wide_total <= 20 * 3,
        "wide sets should be near the k=2 floor: {wide_total}"
    );
}
