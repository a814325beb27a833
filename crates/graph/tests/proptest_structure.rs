//! Property-based tests of graph construction and induced subgraphs.

use proptest::prelude::*;
use widen_graph::{GraphBuilder, HeteroGraph};

/// Builds a random two-type graph from generated edge pairs.
fn build(n_a: usize, n_b: usize, pairs: &[(usize, usize)]) -> HeteroGraph {
    let mut b = GraphBuilder::new(&["a", "b"], &["ab"]).with_classes(2);
    let ta = b.node_type("a").unwrap();
    let tb = b.node_type("b").unwrap();
    let e = b.edge_type("ab").unwrap();
    let mut ids = Vec::new();
    for i in 0..n_a {
        ids.push(b.add_node(ta, vec![i as f32], Some((i % 2) as u16)));
    }
    for _ in 0..n_b {
        ids.push(b.add_node(tb, vec![-1.0], None));
    }
    for &(x, y) in pairs {
        let u = ids[x % ids.len()];
        let v = ids[y % ids.len()];
        if u != v {
            b.add_edge(u, v, e);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adjacency_is_symmetric_for_undirected_builds(
        pairs in prop::collection::vec((0usize..20, 0usize..20), 0..40),
    ) {
        let g = build(8, 8, &pairs);
        for v in 0..g.num_nodes() as u32 {
            for &u in g.neighbors(v) {
                prop_assert!(
                    g.neighbors(u).contains(&v),
                    "edge {v}->{u} missing its reverse"
                );
            }
        }
        // Handshake: directed edge count is even.
        prop_assert_eq!(g.num_directed_edges() % 2, 0);
    }

    #[test]
    fn degree_sums_match_edge_count(
        pairs in prop::collection::vec((0usize..16, 0usize..16), 0..30),
    ) {
        let g = build(6, 6, &pairs);
        let degree_sum: usize = (0..g.num_nodes() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, g.num_directed_edges());
    }

    #[test]
    fn typed_adjacencies_partition_the_edges(
        pairs in prop::collection::vec((0usize..16, 0usize..16), 0..30),
    ) {
        let g = build(6, 6, &pairs);
        let total: usize = (0..g.num_edge_types())
            .map(|t| g.adjacency_of_type(widen_graph::EdgeTypeId(t as u16)).nnz())
            .sum();
        prop_assert_eq!(total, g.num_directed_edges());
    }

    #[test]
    fn induced_subgraph_edge_monotonicity(
        pairs in prop::collection::vec((0usize..16, 0usize..16), 0..30),
        keep_mask in prop::collection::vec(any::<bool>(), 12),
    ) {
        let g = build(6, 6, &pairs);
        let keep: Vec<u32> = (0..g.num_nodes() as u32)
            .filter(|&v| keep_mask[v as usize % keep_mask.len()])
            .collect();
        prop_assume!(!keep.is_empty());
        let sub = g.induced_subgraph(&keep);
        prop_assert!(sub.graph.num_edges() <= g.num_edges());
        sub.graph.validate();
    }
}
