//! Induced subgraphs and node masking — the machinery behind the paper's
//! inductive evaluation protocol (§4.3: 20 % of labelled nodes are removed
//! from the graph during training and embedded only at test time).

use rustc_hash::FxHashSet;
use widen_tensor::Tensor;

use crate::graph::{HeteroGraph, NodeId};

/// Bidirectional id mapping between a subgraph and its parent.
#[derive(Clone, Debug)]
pub struct NodeMapping {
    /// `new_to_old[new] = old`.
    pub new_to_old: Vec<NodeId>,
    /// `old_to_new[old] = Some(new)` for kept nodes.
    pub old_to_new: Vec<Option<NodeId>>,
}

impl NodeMapping {
    /// Maps a parent-graph id into the subgraph, if kept.
    pub fn to_new(&self, old: NodeId) -> Option<NodeId> {
        self.old_to_new[old as usize]
    }
}

/// A subgraph together with its id mapping.
pub struct InducedSubgraph {
    /// The subgraph (ids remapped to `0..kept`).
    pub graph: HeteroGraph,
    /// Mapping between subgraph and parent ids.
    pub mapping: NodeMapping,
}

impl HeteroGraph {
    /// The subgraph induced by `keep` (order-preserving: the i-th distinct
    /// kept id becomes node `i`). Edges with either endpoint outside `keep`
    /// are dropped; surviving runs are re-sorted by remapped
    /// `(neighbor, edge_type)` — the canonical invariant every
    /// `HeteroGraph` carries.
    ///
    /// # Panics
    /// Panics if `keep` is empty or contains out-of-range / duplicate ids.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> InducedSubgraph {
        assert!(!keep.is_empty(), "cannot induce an empty subgraph");
        let n_old = self.num_nodes();
        let mut old_to_new: Vec<Option<NodeId>> = vec![None; n_old];
        for (new, &old) in keep.iter().enumerate() {
            assert!((old as usize) < n_old, "keep id out of range");
            assert!(
                old_to_new[old as usize].is_none(),
                "duplicate keep id {old}"
            );
            old_to_new[old as usize] = Some(new as NodeId);
        }

        let n_new = keep.len();
        let mut half = Vec::new();
        for (new, &old) in keep.iter().enumerate() {
            let types = self.edge_types_of(old);
            for (k, &u) in self.neighbors(old).iter().enumerate() {
                if let Some(new_u) = old_to_new[u as usize] {
                    half.push((new as NodeId, new_u, types[k]));
                }
            }
        }

        let mut features = Tensor::zeros(n_new, self.feature_dim());
        let mut node_types = Vec::with_capacity(n_new);
        let mut labels = Vec::with_capacity(n_new);
        for (new, &old) in keep.iter().enumerate() {
            features.set_row(new, self.feature_row(old));
            node_types.push(self.node_types[old as usize]);
            labels.push(self.labels[old as usize]);
        }

        let graph = HeteroGraph::from_parts(
            node_types,
            self.node_type_names.clone(),
            self.edge_type_names.clone(),
            half,
            features,
            labels,
            self.num_classes,
            self.undirected,
        );
        InducedSubgraph {
            graph,
            mapping: NodeMapping {
                new_to_old: keep.to_vec(),
                old_to_new,
            },
        }
    }

    /// Convenience wrapper: keeps everything *except* `remove` — the
    /// inductive training graph.
    pub fn without_nodes(&self, remove: &[NodeId]) -> InducedSubgraph {
        let removed: FxHashSet<NodeId> = remove.iter().copied().collect();
        let keep: Vec<NodeId> = (0..self.num_nodes() as NodeId)
            .filter(|v| !removed.contains(v))
            .collect();
        self.induced_subgraph(&keep)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::graph::HeteroGraph;

    fn path_graph(n: usize) -> HeteroGraph {
        let mut b = GraphBuilder::new(&["x"], &["e"]).with_classes(2);
        let x = b.node_type("x").unwrap();
        let e = b.edge_type("e").unwrap();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node(x, vec![i as f32], Some((i % 2) as u16)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], e);
        }
        b.build()
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = path_graph(5); // 0-1-2-3-4
        let sub = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.graph.num_nodes(), 3);
        // Only the 1-2 edge survives.
        assert_eq!(sub.graph.num_edges(), 1);
        assert_eq!(sub.graph.neighbors(0), &[1]); // new 0 = old 1
        assert_eq!(sub.graph.neighbors(2), &[] as &[u32]); // new 2 = old 4, isolated
    }

    #[test]
    fn mapping_round_trips() {
        let g = path_graph(5);
        let sub = g.induced_subgraph(&[3, 0]);
        assert_eq!(sub.mapping.new_to_old, [3, 0]);
        assert_eq!(sub.mapping.to_new(3), Some(0));
        assert_eq!(sub.mapping.to_new(0), Some(1));
        assert_eq!(sub.mapping.to_new(2), None);
    }

    #[test]
    fn features_and_labels_follow_nodes() {
        let g = path_graph(4);
        let sub = g.induced_subgraph(&[2, 3]);
        assert_eq!(sub.graph.feature_row(0), &[2.0]);
        assert_eq!(sub.graph.label(1), Some(1));
    }

    #[test]
    fn without_nodes_complements() {
        let g = path_graph(6);
        let sub = g.without_nodes(&[0, 5]);
        assert_eq!(sub.graph.num_nodes(), 4);
        assert_eq!(sub.mapping.new_to_old, vec![1, 2, 3, 4]);
        // Path interior is intact.
        assert_eq!(sub.graph.num_edges(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate keep id")]
    fn duplicate_keep_rejected() {
        let g = path_graph(3);
        let _ = g.induced_subgraph(&[1, 1]);
    }
}
