//! Validated construction of [`HeteroGraph`]s.

use rustc_hash::FxHashSet;
use widen_tensor::Tensor;

use crate::graph::{EdgeTypeId, HeteroGraph, NodeId, NodeTypeId};

/// A name lookup against the builder's declared type vocabularies failed.
///
/// An unknown name is an error, not a panic: callers that parse external
/// data (TSV readers, presets) surface the offending name intact instead
/// of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuilderError {
    /// The node type name was not declared in [`GraphBuilder::new`].
    UnknownNodeType(String),
    /// The edge type name was not declared in [`GraphBuilder::new`].
    UnknownEdgeType(String),
}

impl std::fmt::Display for BuilderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownNodeType(name) => write!(f, "unknown node type `{name}`"),
            Self::UnknownEdgeType(name) => write!(f, "unknown edge type `{name}`"),
        }
    }
}

impl std::error::Error for BuilderError {}

/// Incremental, validated builder for [`HeteroGraph`].
///
/// Declares type vocabularies up front, then nodes, then edges; `build()`
/// sorts and deduplicates adjacency and runs the full structural validation.
pub struct GraphBuilder {
    node_type_names: Vec<String>,
    edge_type_names: Vec<String>,
    node_types: Vec<u16>,
    feature_rows: Vec<Vec<f32>>,
    labels: Vec<Option<u16>>,
    edges: Vec<(NodeId, NodeId, u16)>,
    feature_dim: Option<usize>,
    num_classes: usize,
    undirected: bool,
}

impl GraphBuilder {
    /// A builder with the given node/edge type vocabularies.
    pub fn new<S: Into<String> + Clone>(node_type_names: &[S], edge_type_names: &[S]) -> Self {
        Self {
            node_type_names: node_type_names.iter().cloned().map(Into::into).collect(),
            edge_type_names: edge_type_names.iter().cloned().map(Into::into).collect(),
            node_types: Vec::new(),
            feature_rows: Vec::new(),
            labels: Vec::new(),
            edges: Vec::new(),
            feature_dim: None,
            num_classes: 0,
            undirected: true,
        }
    }

    /// Switches to directed edge storage (default is undirected: each added
    /// edge is stored in both directions).
    pub fn directed(mut self) -> Self {
        self.undirected = false;
        self
    }

    /// Declares the number of classification classes.
    pub fn with_classes(mut self, num_classes: usize) -> Self {
        self.num_classes = num_classes;
        self
    }

    /// Handle for a node type name.
    ///
    /// # Errors
    /// [`BuilderError::UnknownNodeType`] if the name was not declared.
    pub fn node_type(&self, name: &str) -> Result<NodeTypeId, BuilderError> {
        self.node_type_names
            .iter()
            .position(|n| n == name)
            .map(|idx| NodeTypeId(idx as u16))
            .ok_or_else(|| BuilderError::UnknownNodeType(name.to_string()))
    }

    /// Handle for an edge type name.
    ///
    /// # Errors
    /// [`BuilderError::UnknownEdgeType`] if the name was not declared.
    pub fn edge_type(&self, name: &str) -> Result<EdgeTypeId, BuilderError> {
        self.edge_type_names
            .iter()
            .position(|n| n == name)
            .map(|idx| EdgeTypeId(idx as u16))
            .ok_or_else(|| BuilderError::UnknownEdgeType(name.to_string()))
    }

    /// Adds a node; returns its id. Feature rows must share one length.
    ///
    /// # Panics
    /// Panics on inconsistent feature dims, unknown types, or out-of-range
    /// labels.
    pub fn add_node(
        &mut self,
        node_type: NodeTypeId,
        features: Vec<f32>,
        label: Option<u16>,
    ) -> NodeId {
        assert!(
            (node_type.0 as usize) < self.node_type_names.len(),
            "node type out of range"
        );
        match self.feature_dim {
            Some(d) => assert_eq!(features.len(), d, "feature dim mismatch"),
            None => self.feature_dim = Some(features.len()),
        }
        if let Some(l) = label {
            assert!((l as usize) < self.num_classes, "label out of range");
        }
        let id = self.node_types.len() as NodeId;
        self.node_types.push(node_type.0);
        self.feature_rows.push(features);
        self.labels.push(label);
        id
    }

    /// Adds an edge of the given type. Self-loops are rejected (the model
    /// supplies its own learned self-loop embedding `e_{t,t}`).
    ///
    /// # Panics
    /// Panics on unknown endpoints/types or self-loops.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, edge_type: EdgeTypeId) {
        let n = self.node_types.len() as NodeId;
        assert!(a < n && b < n, "edge endpoint out of range");
        assert_ne!(a, b, "explicit self-loops are not allowed");
        assert!(
            (edge_type.0 as usize) < self.edge_type_names.len(),
            "edge type out of range"
        );
        self.edges.push((a, b, edge_type.0));
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_types.len()
    }

    /// Finalises the graph: dedups edges, builds CSR, validates.
    ///
    /// # Panics
    /// Panics if no nodes were added or validation fails.
    pub fn build(self) -> HeteroGraph {
        let n = self.node_types.len();
        assert!(n > 0, "graph needs at least one node");
        let d0 = self.feature_dim.unwrap_or(0);

        // Expand to directed half-edges, dedup on (src, dst, type).
        let mut seen: FxHashSet<(NodeId, NodeId, u16)> = FxHashSet::default();
        let mut half: Vec<(NodeId, NodeId, u16)> =
            Vec::with_capacity(self.edges.len() * if self.undirected { 2 } else { 1 });
        for &(a, b, t) in &self.edges {
            if seen.insert((a, b, t)) {
                half.push((a, b, t));
            }
            if self.undirected && seen.insert((b, a, t)) {
                half.push((b, a, t));
            }
        }
        let mut features = Tensor::zeros(n, d0);
        for (i, row) in self.feature_rows.iter().enumerate() {
            features.set_row(i, row);
        }

        HeteroGraph::from_parts(
            self.node_types,
            self.node_type_names,
            self.edge_type_names,
            half,
            features,
            self.labels,
            self.num_classes,
            self.undirected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HeteroGraph {
        // author0 — paper1 — conf2, author3 — paper1
        let mut b = GraphBuilder::new(&["author", "paper", "conf"], &["writes", "appears-in"])
            .with_classes(2);
        let author = b.node_type("author").unwrap();
        let paper = b.node_type("paper").unwrap();
        let conf = b.node_type("conf").unwrap();
        let writes = b.edge_type("writes").unwrap();
        let appears = b.edge_type("appears-in").unwrap();
        let a0 = b.add_node(author, vec![1.0, 0.0], Some(0));
        let p1 = b.add_node(paper, vec![0.0, 1.0], None);
        let c2 = b.add_node(conf, vec![0.5, 0.5], None);
        let a3 = b.add_node(author, vec![1.0, 1.0], Some(1));
        b.add_edge(a0, p1, writes);
        b.add_edge(p1, c2, appears);
        b.add_edge(a3, p1, writes);
        b.build()
    }

    #[test]
    fn builds_undirected_csr() {
        let g = tiny();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        // Paper node sees both authors and the conference.
        assert_eq!(g.degree(1), 3);
        let mut nbrs = g.neighbors(1).to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![0, 2, 3]);
    }

    #[test]
    fn edge_types_parallel_to_neighbors() {
        let g = tiny();
        let writes = 0u16;
        let appears = 1u16;
        for (k, &u) in g.neighbors(1).iter().enumerate() {
            let t = g.edge_types_of(1)[k];
            if u == 2 {
                assert_eq!(t, appears);
            } else {
                assert_eq!(t, writes);
            }
        }
    }

    #[test]
    fn duplicate_edges_are_deduped() {
        let mut b = GraphBuilder::new(&["x"], &["e"]).with_classes(1);
        let x = b.node_type("x").unwrap();
        let e = b.edge_type("e").unwrap();
        let n0 = b.add_node(x, vec![0.0], Some(0));
        let n1 = b.add_node(x, vec![0.0], Some(0));
        b.add_edge(n0, n1, e);
        b.add_edge(n0, n1, e);
        b.add_edge(n1, n0, e); // reverse of an existing undirected edge
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn labels_and_type_queries() {
        let g = tiny();
        assert_eq!(g.label(0), Some(0));
        assert_eq!(g.label(1), None);
        assert_eq!(g.labeled_nodes(), vec![0, 3]);
        assert_eq!(g.nodes_of_type(NodeTypeId(0)), vec![0, 3]);
        assert_eq!(g.node_type_counts(), vec![2, 1, 1]);
    }

    #[test]
    fn typed_adjacency_extraction() {
        let g = tiny();
        let writes = g.adjacency_of_type(EdgeTypeId(0)).to_dense();
        assert_eq!(writes.get(0, 1), 1.0);
        assert_eq!(writes.get(1, 0), 1.0);
        assert_eq!(writes.get(1, 2), 0.0);
        let all = g.adjacency();
        assert_eq!(all.nnz(), 6);
    }

    #[test]
    fn unknown_type_names_return_typed_errors() {
        // Regression: these lookups used to panic, so a single bad type
        // name in user-supplied data aborted the whole process.
        let b = GraphBuilder::new(&["author"], &["writes"]);
        assert_eq!(
            b.node_type("reviewer"),
            Err(BuilderError::UnknownNodeType("reviewer".into()))
        );
        assert_eq!(
            b.edge_type("cites"),
            Err(BuilderError::UnknownEdgeType("cites".into()))
        );
        let err = b.node_type("reviewer").unwrap_err();
        assert_eq!(err.to_string(), "unknown node type `reviewer`");
        assert_eq!(
            b.edge_type("cites").unwrap_err().to_string(),
            "unknown edge type `cites`"
        );
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut b = GraphBuilder::new(&["x"], &["e"]);
        let x = b.node_type("x").unwrap();
        let e = b.edge_type("e").unwrap();
        let n0 = b.add_node(x, vec![], None);
        b.add_edge(n0, n0, e);
    }

    #[test]
    #[should_panic(expected = "feature dim mismatch")]
    fn ragged_features_rejected() {
        let mut b = GraphBuilder::new(&["x"], &["e"]);
        let x = b.node_type("x").unwrap();
        b.add_node(x, vec![1.0], None);
        b.add_node(x, vec![1.0, 2.0], None);
    }

    #[test]
    fn directed_mode_stores_single_direction() {
        let mut b = GraphBuilder::new(&["x"], &["e"]).directed();
        let x = b.node_type("x").unwrap();
        let e = b.edge_type("e").unwrap();
        let n0 = b.add_node(x, vec![], None);
        let n1 = b.add_node(x, vec![], None);
        b.add_edge(n0, n1, e);
        let g = b.build();
        assert_eq!(g.num_directed_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 0);
    }
}
