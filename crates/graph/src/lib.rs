//! Graph substrate for the Afforest reproduction.
//!
//! This crate provides everything the connectivity algorithms need from a
//! graph library, built from scratch:
//!
//! - [`CsrGraph`]: an immutable Compressed-Sparse-Row graph, the
//!   representation used by the paper's CPU implementation (and by the GAP
//!   benchmark suite it extends).
//! - [`EdgeList`] / [`GraphBuilder`]: mutable edge accumulation and parallel
//!   CSR construction (symmetrize + sort + dedup), an atomic-free two-pass
//!   partition of the arcs by source bucket.
//! - [`generators`]: synthetic workloads reproducing the structural classes
//!   of the paper's datasets — uniform random (`urand`), Kronecker/RMAT
//!   (`kron`, `twitter` stand-in), 2-D grid road networks (`road`,
//!   `osm-eur` stand-ins), a locality-biased web-graph model (`web`
//!   stand-in), and the component-fraction model of Fig. 8c.
//! - [`io`]: plain-text and binary edge-list serialization.
//! - [`stats`]: the graph statistics reported in Table III (degrees,
//!   approximate diameter, component structure).
//!
//! # Example
//!
//! ```
//! use afforest_graph::{GraphBuilder, CsrGraph};
//!
//! // A triangle plus an isolated edge.
//! let g: CsrGraph = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]).build();
//! assert_eq!(g.num_vertices(), 5);
//! assert_eq!(g.num_edges(), 4);          // undirected edge count
//! assert_eq!(g.degree(1), 2);
//! assert_eq!(g.neighbors(3), &[4]);
//! ```

// The CSR builder writes every slot through a `split_at_mut` range its
// writer owns, so this crate, like every other workspace crate outside
// `vendor/`, needs no unsafe code.
#![forbid(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod degrees;
pub mod edgelist;
pub mod error;
pub mod generators;
pub mod io;
pub mod io_formats;
pub mod ops;
pub mod perm;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use degrees::DegreeDistribution;
pub use edgelist::EdgeList;
pub use error::Error;
pub use stats::GraphStats;

/// Vertex identifier.
///
/// The paper (and GAPBS) use 32-bit vertex ids; all evaluated graphs fit
/// comfortably. Keeping ids at 32 bits halves the memory traffic on the
/// parent array, which matters for the locality arguments of Section V-C.
pub type Node = u32;

/// An undirected edge as a pair of endpoints.
pub type Edge = (Node, Node);
