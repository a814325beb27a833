//! Differential parity tests for sampling on a graph that mutates.
//!
//! The wide/deep walk samplers draw identical streams from a mutated
//! `HeteroGraph` and a scratch-built one — their "incremental structure"
//! is the graph's span-arena adjacency itself, so graph mutation parity
//! must carry through to sampled sets.

use rand::rngs::StdRng;
use rand::SeedableRng;
use widen_graph::{EdgeTypeId, GraphBuilder, NodeTypeId};
use widen_sampling::{hash_seed, sample_deep, sample_wide};

/// Builds a small three-type graph, returning (scratch, mutated): the
/// scratch graph gets every node and edge through the builder, the
/// mutated one starts from the first `split` nodes and streams the rest
/// through the mutation API.
fn build_pair(split: usize) -> (widen_graph::HeteroGraph, widen_graph::HeteroGraph) {
    let nodes: Vec<u16> = (0..30).map(|i| (i % 3) as u16).collect();
    let edges: Vec<(u32, u32, u16)> = (0..nodes.len() as u32)
        .flat_map(|i| {
            (0..i)
                .filter(move |j| (i + j) % 3 != 0 || j + 1 == i)
                .map(move |j| (i, j, ((i * 7 + j) % 2) as u16))
        })
        .collect();

    let build = |n: usize, es: &[(u32, u32, u16)]| {
        let mut b = GraphBuilder::new(&["a", "b", "c"], &["e0", "e1"]).with_classes(2);
        for &t in &nodes[..n] {
            b.add_node(NodeTypeId(t), vec![t as f32], None);
        }
        for &(x, y, t) in es {
            b.add_edge(x, y, EdgeTypeId(t));
        }
        b.build()
    };

    let scratch = build(nodes.len(), &edges);

    let prefix: Vec<_> = edges
        .iter()
        .copied()
        .filter(|&(x, y, _)| (x as usize) < split && (y as usize) < split)
        .collect();
    let mut mutated = build(split, &prefix);
    for (i, &ty) in nodes.iter().enumerate().skip(split) {
        let attached: Vec<(u32, EdgeTypeId)> = edges
            .iter()
            .filter(|&&(x, y, _)| x as usize == i && (y as usize) < i)
            .map(|&(_, y, t)| (y, EdgeTypeId(t)))
            .collect();
        mutated
            .add_node_with_edges(NodeTypeId(ty), vec![ty as f32], None, &attached)
            .expect("valid ingest");
    }
    (scratch, mutated)
}

#[test]
fn wide_and_deep_streams_survive_graph_mutation() {
    let (scratch, mutated) = build_pair(9);
    scratch.validate();
    mutated.validate();
    assert_eq!(scratch.num_directed_edges(), mutated.num_directed_edges());
    for v in 0..scratch.num_nodes() as u32 {
        for stream_id in 0..4u64 {
            let seed = hash_seed(97, &[u64::from(v), stream_id]);
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            assert_eq!(
                sample_wide(&scratch, v, 6, &mut rng_a),
                sample_wide(&mutated, v, 6, &mut rng_b),
                "wide stream diverged at node {v}, stream {stream_id}"
            );
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0xDEAD);
            let mut rng_b = StdRng::seed_from_u64(seed ^ 0xDEAD);
            assert_eq!(
                sample_deep(&scratch, v, 8, &mut rng_a),
                sample_deep(&mutated, v, 8, &mut rng_b),
                "deep stream diverged at node {v}, stream {stream_id}"
            );
        }
    }
}

#[test]
fn wide_and_deep_streams_survive_compaction() {
    let (_, mut mutated) = build_pair(5);
    let before: Vec<_> = (0..mutated.num_nodes() as u32)
        .map(|v| {
            let mut rng = StdRng::seed_from_u64(hash_seed(7, &[u64::from(v)]));
            sample_wide(&mutated, v, 5, &mut rng)
        })
        .collect();
    mutated.compact();
    for (v, want) in before.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(hash_seed(7, &[v as u64]));
        assert_eq!(&sample_wide(&mutated, v as u32, 5, &mut rng), want);
    }
}
