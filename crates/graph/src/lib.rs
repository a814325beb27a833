//! # widen-graph
//!
//! Heterogeneous graph storage for the WIDEN reproduction: typed nodes and
//! edges in CSR form (Definition 1 of the paper), dense node features,
//! optional class labels, induced subgraphs for the inductive protocol and
//! the Fig. 5 subsamples, and typed adjacency extraction for the meta-path
//! baselines (GTN / HAN).
//!
//! The representation is undirected-by-convention: builders insert both edge
//! directions (with the same edge type) unless told otherwise, matching how
//! the paper treats citation/review graphs during message passing.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod builder;
mod graph;
pub mod io;
mod subgraph;

pub use builder::{BuilderError, GraphBuilder};
pub use graph::{EdgeTypeId, HeteroGraph, MutationError, NodeId, NodeTypeId};
pub use io::{read_tsv, write_tsv, GraphIoError};
pub use subgraph::{InducedSubgraph, NodeMapping};
