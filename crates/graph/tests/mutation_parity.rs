//! Differential tests for the streaming mutation API: a graph grown with
//! `add_node` / `add_edge` / `add_node_with_edges` must be observationally
//! identical to one built from scratch with the final node and edge lists.
//!
//! "Observationally identical" is the contract every downstream consumer
//! leans on: same accessor outputs (adjacency slices, degrees, type
//! indexes, labels, features) means the samplers draw identical streams
//! from a mutated graph and a rebuilt one under the same seed.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use widen_graph::{EdgeTypeId, GraphBuilder, HeteroGraph, MutationError, NodeTypeId};

const NODE_TYPES: [&str; 2] = ["a", "b"];
const EDGE_TYPES: [&str; 2] = ["e0", "e1"];
const CLASSES: usize = 3;

/// A generated node: (type, label, feature value).
type NodeSpec = (u16, Option<u16>, f32);
/// A generated edge: endpoints as indices into the node list, plus type.
type EdgeSpec = (usize, usize, u16);

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    // The vendored proptest has no `prop::option`; CLASSES maps to None.
    (0u16..2, 0u16..CLASSES as u16 + 1, -2.0f32..2.0).prop_map(|(t, l, f)| {
        let label = (l < CLASSES as u16).then_some(l);
        (t, label, f)
    })
}

fn edge_spec(n: usize) -> impl Strategy<Value = EdgeSpec> {
    (0..n, 0..n, 0u16..2)
}

/// Builds the oracle: every node and edge through `GraphBuilder`.
fn scratch(nodes: &[NodeSpec], edges: &[EdgeSpec], directed: bool) -> HeteroGraph {
    let mut b = GraphBuilder::new(&NODE_TYPES, &EDGE_TYPES).with_classes(CLASSES);
    if directed {
        b = b.directed();
    }
    let ids: Vec<_> = nodes
        .iter()
        .map(|&(t, l, f)| b.add_node(NodeTypeId(t), vec![f, -f], l))
        .collect();
    for &(x, y, t) in edges {
        if x != y {
            b.add_edge(ids[x], ids[y], EdgeTypeId(t));
        }
    }
    b.build()
}

/// Asserts the full observable surface of two graphs matches.
fn assert_observationally_equal(got: &HeteroGraph, want: &HeteroGraph) {
    got.validate();
    assert_eq!(got.num_nodes(), want.num_nodes(), "node count");
    assert_eq!(
        got.num_directed_edges(),
        want.num_directed_edges(),
        "half-edge count"
    );
    assert_eq!(got.node_type_counts(), want.node_type_counts());
    assert_eq!(got.edge_type_counts(), want.edge_type_counts());
    assert_eq!(got.labeled_nodes(), want.labeled_nodes());
    for t in 0..want.num_node_types() as u16 {
        assert_eq!(
            got.nodes_of_type(NodeTypeId(t)),
            want.nodes_of_type(NodeTypeId(t)),
            "type index {t}"
        );
    }
    for v in 0..want.num_nodes() as u32 {
        assert_eq!(got.degree(v), want.degree(v), "degree of {v}");
        assert_eq!(got.neighbors(v), want.neighbors(v), "neighbors of {v}");
        assert_eq!(
            got.edge_types_of(v),
            want.edge_types_of(v),
            "edge types of {v}"
        );
        assert_eq!(got.node_type(v), want.node_type(v));
        assert_eq!(got.label(v), want.label(v));
        assert_eq!(got.feature_row(v), want.feature_row(v));
    }
}

/// Grows a graph from a seed prefix via the mutation API and checks it
/// against the scratch-built oracle, including after forced compaction.
fn run_differential(
    nodes: &[NodeSpec],
    edges: &[EdgeSpec],
    split: usize,
    directed: bool,
) -> Result<(), TestCaseError> {
    let split = split.clamp(1, nodes.len());
    let oracle = scratch(nodes, edges, directed);

    // Seed graph: the first `split` nodes plus the generated edges that fit
    // entirely inside the prefix and carry an even index (odd-indexed
    // prefix edges arrive later as mutations — an interleaving, not a
    // clean prefix/suffix split).
    let mut b = GraphBuilder::new(&NODE_TYPES, &EDGE_TYPES).with_classes(CLASSES);
    if directed {
        b = b.directed();
    }
    for &(t, l, f) in &nodes[..split] {
        b.add_node(NodeTypeId(t), vec![f, -f], l);
    }
    for (k, &(x, y, t)) in edges.iter().enumerate() {
        if x < split && y < split && x != y && k % 2 == 0 {
            b.add_edge(x as u32, y as u32, EdgeTypeId(t));
        }
    }
    let mut g = b.build();

    // Late prefix-internal edges arrive through add_edge.
    for (k, &(x, y, t)) in edges.iter().enumerate() {
        if x < split && y < split && x != y && k % 2 == 1 {
            g.add_edge(x as u32, y as u32, EdgeTypeId(t))
                .expect("validated edge");
        }
    }

    // Stream the remaining nodes. Outgoing edges whose source is the
    // arriving node go through add_node_with_edges (even index) or a later
    // add_edge (odd index); incoming edges (peer → new, which matters for
    // directed graphs) always go through add_edge once the node exists.
    for (i, &(t, l, f)) in nodes.iter().enumerate().skip(split) {
        let attached: Vec<(u32, EdgeTypeId)> = edges
            .iter()
            .enumerate()
            .filter(|&(k, &(x, y, _))| x == i && y < i && k % 2 == 0)
            .map(|(_, &(_, y, et))| (y as u32, EdgeTypeId(et)))
            .collect();
        let id = g
            .add_node_with_edges(NodeTypeId(t), vec![f, -f], l, &attached)
            .expect("validated ingest");
        prop_assert_eq!(id, i as u32);
        for (k, &(x, y, et)) in edges.iter().enumerate() {
            let arrives_now = x.max(y) == i && x != y;
            let via_atomic = x == i && y < i && k % 2 == 0;
            if arrives_now && !via_atomic {
                g.add_edge(x as u32, y as u32, EdgeTypeId(et))
                    .expect("validated edge");
            }
        }
    }

    assert_observationally_equal(&g, &oracle);
    // Compaction rewrites the arenas dense; nothing observable may change.
    g.compact();
    prop_assert_eq!(g.dead_slots(), 0);
    assert_observationally_equal(&g, &oracle);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_graph_matches_scratch_build(
        nodes in prop::collection::vec(node_spec(), 2..18),
        raw_edges in prop::collection::vec(edge_spec(18), 0..60),
        split in 1usize..18,
    ) {
        let n = nodes.len();
        let edges: Vec<EdgeSpec> = raw_edges
            .into_iter()
            .map(|(x, y, t)| (x % n, y % n, t))
            .collect();
        run_differential(&nodes, &edges, split, false)?;
    }

    #[test]
    fn mutated_directed_graph_matches_scratch_build(
        nodes in prop::collection::vec(node_spec(), 2..12),
        raw_edges in prop::collection::vec(edge_spec(12), 0..40),
        split in 1usize..12,
    ) {
        let n = nodes.len();
        let edges: Vec<EdgeSpec> = raw_edges
            .into_iter()
            .map(|(x, y, t)| (x % n, y % n, t))
            .collect();
        run_differential(&nodes, &edges, split, true)?;
    }

    #[test]
    fn duplicate_adds_leave_the_graph_unchanged(
        nodes in prop::collection::vec(node_spec(), 2..10),
        raw_edges in prop::collection::vec(edge_spec(10), 1..20),
    ) {
        let n = nodes.len();
        let edges: Vec<EdgeSpec> = raw_edges
            .into_iter()
            .map(|(x, y, t)| (x % n, y % n, t))
            .filter(|&(x, y, _)| x != y)
            .collect();
        prop_assume!(!edges.is_empty());
        let mut g = scratch(&nodes, &edges, false);
        let before_edges = g.num_directed_edges();
        for &(x, y, t) in &edges {
            // Every edge already exists (possibly via its reverse).
            prop_assert_eq!(g.add_edge(x as u32, y as u32, EdgeTypeId(t)).unwrap(), false);
            prop_assert_eq!(g.add_edge(y as u32, x as u32, EdgeTypeId(t)).unwrap(), false);
        }
        prop_assert_eq!(g.num_directed_edges(), before_edges);
        assert_observationally_equal(&g, &scratch(&nodes, &edges, false));
    }
}

fn two_node_graph() -> HeteroGraph {
    let mut b = GraphBuilder::new(&NODE_TYPES, &EDGE_TYPES).with_classes(CLASSES);
    b.add_node(NodeTypeId(0), vec![0.0, 0.0], Some(0));
    b.add_node(NodeTypeId(1), vec![1.0, 1.0], None);
    b.build()
}

#[test]
fn mutation_errors_are_typed_and_leave_graph_untouched() {
    let mut g = two_node_graph();
    assert_eq!(
        g.add_node(NodeTypeId(7), vec![0.0, 0.0], None),
        Err(MutationError::NodeTypeOutOfRange {
            got: 7,
            num_types: 2
        })
    );
    assert_eq!(
        g.add_node(NodeTypeId(0), vec![0.0], None),
        Err(MutationError::FeatureDimMismatch {
            expected: 2,
            got: 1
        })
    );
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        assert_eq!(
            g.add_node_with_edges(NodeTypeId(0), vec![0.0, bad], None, &[(1, EdgeTypeId(0))]),
            Err(MutationError::NonFiniteFeature { index: 1 })
        );
    }
    assert_eq!(
        g.add_node(NodeTypeId(0), vec![0.0, 0.0], Some(9)),
        Err(MutationError::LabelOutOfRange {
            got: 9,
            num_classes: CLASSES
        })
    );
    assert_eq!(
        g.add_edge(0, 5, EdgeTypeId(0)),
        Err(MutationError::EndpointOutOfRange {
            got: 5,
            num_nodes: 2
        })
    );
    assert_eq!(
        g.add_edge(1, 1, EdgeTypeId(0)),
        Err(MutationError::SelfLoop(1))
    );
    assert_eq!(
        g.add_edge(0, 1, EdgeTypeId(4)),
        Err(MutationError::EdgeTypeOutOfRange {
            got: 4,
            num_types: 2
        })
    );
    // Atomicity: a bad edge in the batch rejects the whole ingest.
    let err = g
        .add_node_with_edges(NodeTypeId(0), vec![0.5, 0.5], None, &[(9, EdgeTypeId(0))])
        .unwrap_err();
    assert_eq!(
        err,
        MutationError::EndpointOutOfRange {
            got: 9,
            num_nodes: 2
        }
    );
    assert_eq!(g.num_nodes(), 2);
    assert_eq!(g.num_directed_edges(), 0);
    g.validate();
}

#[test]
fn heavy_fanout_relocations_accumulate_then_compact() {
    // Hub node keeps outgrowing its span: each relocation doubles its
    // capacity and abandons the old window. dead_slots tracks the garbage
    // and compact() reclaims it without observable change.
    let mut b = GraphBuilder::new(&NODE_TYPES, &EDGE_TYPES).with_classes(CLASSES);
    b.add_node(NodeTypeId(0), vec![0.0, 0.0], None);
    let mut g = b.build();
    for i in 0..200u32 {
        let peer = g
            .add_node(NodeTypeId(1), vec![i as f32, 0.0], None)
            .unwrap();
        assert!(g.add_edge(0, peer, EdgeTypeId((i % 2) as u16)).unwrap());
    }
    assert_eq!(g.degree(0), 200);
    assert!(g.dead_slots() > 0, "hub relocations must leave dead slots");
    let before: Vec<u32> = g.neighbors(0).to_vec();
    g.compact();
    assert_eq!(g.dead_slots(), 0);
    assert_eq!(g.neighbors(0), &before[..]);
    g.validate();
}
