//! The core heterogeneous graph type.

use widen_tensor::{CsrMatrix, Tensor};

/// Global node index (Definition 2's `i ∈ [1, |V|]`, zero-based here).
pub type NodeId = u32;

/// Identifier of a node type (e.g. *paper*, *author*, *conference*).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeTypeId(pub u16);

/// Identifier of an edge type / relation (e.g. *paper-author*).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EdgeTypeId(pub u16);

/// A rejected streaming mutation ([`HeteroGraph::add_node`] /
/// [`HeteroGraph::add_edge`]).
///
/// Mutations run the same checks [`crate::GraphBuilder`] applies at build
/// time, but as typed errors instead of panics: the serve path feeds them
/// straight from untrusted wire input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// The node type id is outside the graph's declared vocabulary.
    NodeTypeOutOfRange {
        /// Offending type id.
        got: u16,
        /// Number of declared node types.
        num_types: usize,
    },
    /// The edge type id is outside the graph's declared vocabulary.
    EdgeTypeOutOfRange {
        /// Offending type id.
        got: u16,
        /// Number of declared edge types.
        num_types: usize,
    },
    /// The feature row length does not match the graph's feature dim.
    FeatureDimMismatch {
        /// The graph's `d₀`.
        expected: usize,
        /// Length of the supplied row.
        got: usize,
    },
    /// A feature value is NaN or ±∞. One such row would turn every forward
    /// pass that samples the node — its own and its neighbours' — non-finite.
    NonFiniteFeature {
        /// Position of the first offending value in the row.
        index: usize,
    },
    /// The label is outside `0..num_classes`.
    LabelOutOfRange {
        /// Offending label.
        got: u16,
        /// Number of declared classes.
        num_classes: usize,
    },
    /// An edge endpoint names a node that does not exist.
    EndpointOutOfRange {
        /// Offending node id.
        got: NodeId,
        /// Current node count.
        num_nodes: usize,
    },
    /// Self-loops are rejected (the model supplies its own learned
    /// self-loop embedding `e_{t,t}`).
    SelfLoop(NodeId),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NodeTypeOutOfRange { got, num_types } => {
                write!(f, "node type {got} out of range (have {num_types})")
            }
            Self::EdgeTypeOutOfRange { got, num_types } => {
                write!(f, "edge type {got} out of range (have {num_types})")
            }
            Self::FeatureDimMismatch { expected, got } => {
                write!(f, "feature dim mismatch: expected {expected}, got {got}")
            }
            Self::NonFiniteFeature { index } => {
                write!(f, "feature {index} is not a finite number")
            }
            Self::LabelOutOfRange { got, num_classes } => {
                write!(f, "label {got} out of range (have {num_classes} classes)")
            }
            Self::EndpointOutOfRange { got, num_nodes } => {
                write!(
                    f,
                    "edge endpoint {got} out of range (have {num_nodes} nodes)"
                )
            }
            Self::SelfLoop(v) => write!(f, "self-loop on node {v} is not allowed"),
        }
    }
}

impl std::error::Error for MutationError {}

/// One node's window into the shared adjacency arenas.
///
/// Live entries occupy `off..off + len`; `off + len..off + cap` is slack
/// reserved for future inserts. When `len == cap` an insert relocates the
/// run to the arena tail with doubled capacity and the old window becomes
/// dead (reclaimed by [`HeteroGraph::compact`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdjSpan {
    pub(crate) off: usize,
    pub(crate) len: usize,
    pub(crate) cap: usize,
}

/// Minimum capacity a relocated adjacency run reserves.
const MIN_SPAN_CAP: usize = 4;
/// Dead arena slots tolerated before an insert auto-compacts. Kept well
/// above typical streaming bursts so compaction amortises; `compact()` is
/// public for callers that want it eagerly.
const COMPACT_DEAD_FLOOR: usize = 4096;

/// A heterogeneous graph `G = {V, E}` (Definition 1).
///
/// Nodes carry a type, a dense feature row and an optional class label;
/// edges carry a type. Adjacency is CSR-like with parallel neighbour /
/// edge-type arenas, so a node's typed neighbourhood is two contiguous
/// slices — exactly what the wide/deep samplers need on their hot path.
///
/// Unlike a textbook CSR, each node owns an [`AdjSpan`] window into the
/// arenas with amortised slack, so the streaming mutation API
/// ([`HeteroGraph::add_node`], [`HeteroGraph::add_edge`]) appends without
/// reallocating the whole structure. Per-node runs are kept sorted by
/// `(neighbor, edge_type)` — the invariant that makes a mutated graph
/// *observationally identical* (every accessor, hence every downstream
/// sampler stream) to one built from scratch with the final edge list.
#[derive(Clone)]
pub struct HeteroGraph {
    pub(crate) node_types: Vec<u16>,
    pub(crate) node_type_names: Vec<String>,
    pub(crate) edge_type_names: Vec<String>,
    pub(crate) spans: Vec<AdjSpan>,
    pub(crate) neighbors: Vec<NodeId>,
    pub(crate) edge_types: Vec<u16>,
    /// Live half-edge count (arena length minus slack and dead slots).
    pub(crate) num_half_edges: usize,
    /// Arena slots abandoned by span relocations, pending [`Self::compact`].
    pub(crate) dead: usize,
    /// Whether [`Self::add_edge`] stores both directions.
    pub(crate) undirected: bool,
    pub(crate) features: Tensor,
    pub(crate) labels: Vec<Option<u16>>,
    pub(crate) num_classes: usize,
}

impl HeteroGraph {
    /// Canonical constructor shared by [`crate::GraphBuilder`] and the
    /// subgraph machinery: takes deduplicated directed half-edges, sorts
    /// them into per-node `(neighbor, edge_type)` runs and lays the arenas
    /// out dense (`cap == len`, no dead slots) — byte-for-byte the layout
    /// [`Self::compact`] restores.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        node_types: Vec<u16>,
        node_type_names: Vec<String>,
        edge_type_names: Vec<String>,
        mut half_edges: Vec<(NodeId, NodeId, u16)>,
        features: Tensor,
        labels: Vec<Option<u16>>,
        num_classes: usize,
        undirected: bool,
    ) -> Self {
        let n = node_types.len();
        half_edges.sort_unstable();
        let mut counts = vec![0usize; n];
        for &(a, _, _) in &half_edges {
            counts[a as usize] += 1;
        }
        let mut spans = Vec::with_capacity(n);
        let mut off = 0usize;
        for &len in &counts {
            spans.push(AdjSpan { off, len, cap: len });
            off += len;
        }
        let neighbors: Vec<NodeId> = half_edges.iter().map(|&(_, b, _)| b).collect();
        let edge_types: Vec<u16> = half_edges.iter().map(|&(_, _, t)| t).collect();
        let graph = Self {
            node_types,
            node_type_names,
            edge_type_names,
            spans,
            num_half_edges: neighbors.len(),
            neighbors,
            edge_types,
            dead: 0,
            undirected,
            features,
            labels,
            num_classes,
        };
        graph.validate();
        graph
    }

    /// Number of nodes `|V|`.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of *stored directed* edges. For the default undirected
    /// construction this is twice the logical edge count.
    pub fn num_directed_edges(&self) -> usize {
        self.num_half_edges
    }

    /// Number of logical (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.num_half_edges / 2
    }

    /// Number of node types.
    pub fn num_node_types(&self) -> usize {
        self.node_type_names.len()
    }

    /// Number of edge types.
    pub fn num_edge_types(&self) -> usize {
        self.edge_type_names.len()
    }

    /// Number of classification classes (0 if unlabelled).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Raw feature dimensionality `d₀`.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Type of node `v`.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        NodeTypeId(self.node_types[v as usize])
    }

    /// Human-readable name of a node type.
    pub fn node_type_name(&self, t: NodeTypeId) -> &str {
        &self.node_type_names[t.0 as usize]
    }

    /// Human-readable name of an edge type.
    pub fn edge_type_name(&self, t: EdgeTypeId) -> &str {
        &self.edge_type_names[t.0 as usize]
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.spans[v as usize].len
    }

    /// Neighbour ids of `v` (parallel to [`HeteroGraph::edge_types_of`]),
    /// sorted by `(neighbor, edge_type)`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let s = self.spans[v as usize];
        &self.neighbors[s.off..s.off + s.len]
    }

    /// Edge types of `v`'s incident edges (parallel to
    /// [`HeteroGraph::neighbors`]).
    #[inline]
    pub fn edge_types_of(&self, v: NodeId) -> &[u16] {
        let s = self.spans[v as usize];
        &self.edge_types[s.off..s.off + s.len]
    }

    /// Whether the half-edge `a → b` with type `t` is stored.
    pub fn has_edge(&self, a: NodeId, b: NodeId, t: EdgeTypeId) -> bool {
        let s = self.spans[a as usize];
        self.run_search(s, b, t.0).is_ok()
    }

    /// Raw feature row of node `v`.
    #[inline]
    pub fn feature_row(&self, v: NodeId) -> &[f32] {
        self.features.row(v as usize)
    }

    /// Full `|V| × d₀` feature matrix.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// Class label of node `v`, if labelled.
    #[inline]
    pub fn label(&self, v: NodeId) -> Option<u16> {
        self.labels[v as usize]
    }

    /// All labelled node ids, in ascending order.
    pub fn labeled_nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes() as NodeId)
            .filter(|&v| self.labels[v as usize].is_some())
            .collect()
    }

    /// Node ids of the given type, ascending.
    pub fn nodes_of_type(&self, t: NodeTypeId) -> Vec<NodeId> {
        (0..self.num_nodes() as NodeId)
            .filter(|&v| self.node_types[v as usize] == t.0)
            .collect()
    }

    /// Counts of nodes per type.
    pub fn node_type_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_node_types()];
        for &t in &self.node_types {
            counts[t as usize] += 1;
        }
        counts
    }

    /// Counts of stored directed edges per edge type.
    pub fn edge_type_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_edge_types()];
        for v in 0..self.num_nodes() as NodeId {
            for &t in self.edge_types_of(v) {
                counts[t as usize] += 1;
            }
        }
        counts
    }

    /// Homogeneous binary adjacency (all edge types collapsed) as CSR.
    pub fn adjacency(&self) -> CsrMatrix {
        let n = self.num_nodes();
        let mut triplets = Vec::with_capacity(self.num_half_edges);
        for v in 0..n {
            for &u in self.neighbors(v as NodeId) {
                triplets.push((v, u as usize, 1.0));
            }
        }
        CsrMatrix::from_coo(n, n, &triplets)
    }

    /// `|V| × |V|` binary adjacency restricted to one edge type
    /// (GTN's relation-specific adjacency stack, HAN's meta-path factors).
    pub fn adjacency_of_type(&self, t: EdgeTypeId) -> CsrMatrix {
        let n = self.num_nodes();
        let mut triplets = Vec::new();
        for v in 0..n {
            let types = self.edge_types_of(v as NodeId);
            for (k, &u) in self.neighbors(v as NodeId).iter().enumerate() {
                if types[k] == t.0 {
                    triplets.push((v, u as usize, 1.0));
                }
            }
        }
        CsrMatrix::from_coo(n, n, &triplets)
    }

    /// Mean degree across all nodes.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_half_edges as f64 / self.num_nodes() as f64
        }
    }

    // ------------------------------------------------------------------
    // Streaming mutation API
    // ------------------------------------------------------------------

    /// Appends a node with the given type, feature row and optional label;
    /// returns the new node id. The node starts isolated — wire it up with
    /// [`Self::add_edge`] or use [`Self::add_node_with_edges`] for the
    /// atomic combined form.
    ///
    /// Runs the same validation as [`crate::GraphBuilder::add_node`], but
    /// as typed [`MutationError`]s: a rejected mutation leaves the graph
    /// untouched.
    ///
    /// # Errors
    /// [`MutationError::NodeTypeOutOfRange`],
    /// [`MutationError::FeatureDimMismatch`],
    /// [`MutationError::NonFiniteFeature`] or
    /// [`MutationError::LabelOutOfRange`].
    pub fn add_node(
        &mut self,
        node_type: NodeTypeId,
        features: Vec<f32>,
        label: Option<u16>,
    ) -> Result<NodeId, MutationError> {
        self.check_node(node_type, &features, label)?;
        Ok(self.push_node(node_type, &features, label))
    }

    /// Inserts an edge of the given type; for undirected graphs both
    /// half-edges are stored. Returns `Ok(false)` (graph unchanged) when
    /// the edge already exists — the same dedup `GraphBuilder::build`
    /// applies.
    ///
    /// Cost is O(log d) to locate the slot plus O(d) to shift the run; a
    /// full run relocates to the arena tail with doubled capacity
    /// (amortised O(1) arena growth, never a whole-CSR rebuild).
    ///
    /// # Errors
    /// [`MutationError::EndpointOutOfRange`], [`MutationError::SelfLoop`]
    /// or [`MutationError::EdgeTypeOutOfRange`].
    pub fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        edge_type: EdgeTypeId,
    ) -> Result<bool, MutationError> {
        self.check_edge(a, b, edge_type)?;
        if self.has_edge(a, b, edge_type) {
            return Ok(false);
        }
        self.insert_half(a, b, edge_type.0);
        if self.undirected && !self.has_edge(b, a, edge_type) {
            self.insert_half(b, a, edge_type.0);
        }
        self.maybe_compact();
        Ok(true)
    }

    /// Atomic ingest: appends a node and connects it to `edges`
    /// (`(peer, edge_type)` pairs) in one call. Everything is validated up
    /// front, so on error the graph is untouched — this is the operation
    /// the serve-side `Ingest` op maps to. Duplicate pairs in `edges` are
    /// deduplicated. Returns the new node id.
    ///
    /// # Errors
    /// Any [`MutationError`] the node or one of the edges would produce.
    pub fn add_node_with_edges(
        &mut self,
        node_type: NodeTypeId,
        features: Vec<f32>,
        label: Option<u16>,
        edges: &[(NodeId, EdgeTypeId)],
    ) -> Result<NodeId, MutationError> {
        self.check_node(node_type, &features, label)?;
        let n = self.num_nodes();
        for &(peer, t) in edges {
            if (peer as usize) >= n {
                return Err(MutationError::EndpointOutOfRange {
                    got: peer,
                    num_nodes: n,
                });
            }
            if (t.0 as usize) >= self.edge_type_names.len() {
                return Err(MutationError::EdgeTypeOutOfRange {
                    got: t.0,
                    num_types: self.edge_type_names.len(),
                });
            }
        }
        let id = self.push_node(node_type, &features, label);
        for &(peer, t) in edges {
            // Validated above; the only remaining failure is a duplicate
            // pair, which add_edge absorbs as Ok(false).
            let _ = self.add_edge(id, peer, t);
        }
        Ok(id)
    }

    /// Dead arena slots awaiting [`Self::compact`] (observability hook for
    /// tests and serving stats).
    pub fn dead_slots(&self) -> usize {
        self.dead
    }

    /// Rewrites the adjacency arenas dense (`cap == len`, zero dead
    /// slots) — byte-for-byte the layout a from-scratch build produces.
    /// Runs automatically once relocation garbage passes a threshold;
    /// public for callers that want the memory back eagerly.
    pub fn compact(&mut self) {
        let n = self.num_nodes();
        let mut neighbors = Vec::with_capacity(self.num_half_edges);
        let mut edge_types = Vec::with_capacity(self.num_half_edges);
        let mut spans = Vec::with_capacity(n);
        for v in 0..n {
            let s = self.spans[v];
            let off = neighbors.len();
            neighbors.extend_from_slice(&self.neighbors[s.off..s.off + s.len]);
            edge_types.extend_from_slice(&self.edge_types[s.off..s.off + s.len]);
            spans.push(AdjSpan {
                off,
                len: s.len,
                cap: s.len,
            });
        }
        self.neighbors = neighbors;
        self.edge_types = edge_types;
        self.spans = spans;
        self.dead = 0;
    }

    fn maybe_compact(&mut self) {
        // Slack inside live spans is working capacity, not garbage; only
        // relocation corpses count. Compact when they dominate the arena.
        if self.dead >= COMPACT_DEAD_FLOOR && self.dead * 2 >= self.neighbors.len() {
            self.compact();
        }
    }

    fn check_node(
        &self,
        node_type: NodeTypeId,
        features: &[f32],
        label: Option<u16>,
    ) -> Result<(), MutationError> {
        if (node_type.0 as usize) >= self.node_type_names.len() {
            return Err(MutationError::NodeTypeOutOfRange {
                got: node_type.0,
                num_types: self.node_type_names.len(),
            });
        }
        if features.len() != self.feature_dim() {
            return Err(MutationError::FeatureDimMismatch {
                expected: self.feature_dim(),
                got: features.len(),
            });
        }
        if let Some(index) = features.iter().position(|x| !x.is_finite()) {
            return Err(MutationError::NonFiniteFeature { index });
        }
        if let Some(l) = label {
            if (l as usize) >= self.num_classes {
                return Err(MutationError::LabelOutOfRange {
                    got: l,
                    num_classes: self.num_classes,
                });
            }
        }
        Ok(())
    }

    fn check_edge(&self, a: NodeId, b: NodeId, edge_type: EdgeTypeId) -> Result<(), MutationError> {
        let n = self.num_nodes();
        for v in [a, b] {
            if (v as usize) >= n {
                return Err(MutationError::EndpointOutOfRange {
                    got: v,
                    num_nodes: n,
                });
            }
        }
        if a == b {
            return Err(MutationError::SelfLoop(a));
        }
        if (edge_type.0 as usize) >= self.edge_type_names.len() {
            return Err(MutationError::EdgeTypeOutOfRange {
                got: edge_type.0,
                num_types: self.edge_type_names.len(),
            });
        }
        Ok(())
    }

    fn push_node(&mut self, node_type: NodeTypeId, features: &[f32], label: Option<u16>) -> NodeId {
        let id = self.node_types.len() as NodeId;
        self.node_types.push(node_type.0);
        self.features.push_row(features);
        self.labels.push(label);
        self.spans.push(AdjSpan {
            off: self.neighbors.len(),
            len: 0,
            cap: 0,
        });
        id
    }

    /// Binary search for `(b, t)` within `a`'s sorted run.
    fn run_search(&self, s: AdjSpan, b: NodeId, t: u16) -> Result<usize, usize> {
        let nbrs = &self.neighbors[s.off..s.off + s.len];
        let types = &self.edge_types[s.off..s.off + s.len];
        let mut lo = 0usize;
        let mut hi = s.len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match (nbrs[mid], types[mid]).cmp(&(b, t)) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Inserts the half-edge `a → b` at its sorted position, relocating
    /// the run to the arena tail when its capacity window is full.
    fn insert_half(&mut self, a: NodeId, b: NodeId, t: u16) {
        let s = self.spans[a as usize];
        let pos = match self.run_search(s, b, t) {
            Ok(_) => unreachable!("caller checks for duplicates"),
            Err(pos) => pos,
        };
        if s.len < s.cap {
            // Shift the tail of the live run right by one inside the span.
            self.neighbors
                .copy_within(s.off + pos..s.off + s.len, s.off + pos + 1);
            self.edge_types
                .copy_within(s.off + pos..s.off + s.len, s.off + pos + 1);
            self.neighbors[s.off + pos] = b;
            self.edge_types[s.off + pos] = t;
            self.spans[a as usize].len += 1;
        } else {
            // Relocate to the arena tail with doubled capacity; the old
            // window becomes dead until the next compaction.
            let new_cap = (s.cap * 2).max(MIN_SPAN_CAP);
            let new_off = self.neighbors.len();
            self.neighbors.reserve(new_cap);
            self.edge_types.reserve(new_cap);
            for k in 0..pos {
                self.neighbors.push(self.neighbors[s.off + k]);
                self.edge_types.push(self.edge_types[s.off + k]);
            }
            self.neighbors.push(b);
            self.edge_types.push(t);
            for k in pos..s.len {
                self.neighbors.push(self.neighbors[s.off + k]);
                self.edge_types.push(self.edge_types[s.off + k]);
            }
            // Slack padding so the capacity window is materialised.
            self.neighbors.resize(new_off + new_cap, 0);
            self.edge_types.resize(new_off + new_cap, 0);
            self.dead += s.cap;
            self.spans[a as usize] = AdjSpan {
                off: new_off,
                len: s.len + 1,
                cap: new_cap,
            };
        }
        self.num_half_edges += 1;
    }

    /// Internal consistency check (used by tests and debug builds).
    ///
    /// # Panics
    /// Panics on any structural violation.
    pub fn validate(&self) {
        let n = self.num_nodes();
        assert_eq!(self.spans.len(), n, "span table length");
        assert_eq!(
            self.neighbors.len(),
            self.edge_types.len(),
            "parallel arrays"
        );
        assert_eq!(self.features.rows(), n, "feature rows");
        assert_eq!(self.labels.len(), n, "label rows");
        let mut live = 0usize;
        let mut cap_total = 0usize;
        for v in 0..n {
            let s = self.spans[v];
            assert!(s.len <= s.cap, "span len within cap");
            assert!(s.off + s.cap <= self.neighbors.len(), "span in arena");
            live += s.len;
            cap_total += s.cap;
            let nbrs = self.neighbors(v as NodeId);
            let types = self.edge_types_of(v as NodeId);
            for k in 0..s.len {
                assert!((nbrs[k] as usize) < n, "neighbour in range");
                assert!(
                    (types[k] as usize) < self.edge_type_names.len(),
                    "edge type in range"
                );
                if k > 0 {
                    assert!(
                        (nbrs[k - 1], types[k - 1]) < (nbrs[k], types[k]),
                        "run sorted and duplicate-free at node {v}"
                    );
                }
            }
        }
        assert_eq!(live, self.num_half_edges, "half-edge count");
        assert_eq!(
            cap_total + self.dead,
            self.neighbors.len(),
            "arena fully accounted (capacity + dead)"
        );
        for &t in &self.node_types {
            assert!(
                (t as usize) < self.node_type_names.len(),
                "node type in range"
            );
        }
        for l in self.labels.iter().flatten() {
            assert!((*l as usize) < self.num_classes, "label in range");
        }
    }
}

impl std::fmt::Debug for HeteroGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeteroGraph")
            .field("nodes", &self.num_nodes())
            .field("directed_edges", &self.num_directed_edges())
            .field("node_types", &self.node_type_names)
            .field("edge_types", &self.edge_type_names)
            .field("feature_dim", &self.feature_dim())
            .field("classes", &self.num_classes)
            .finish()
    }
}
