//! # Afforest — parallel connected components via subgraph sampling
//!
//! From-scratch Rust implementation of the algorithm from *"Optimizing
//! Parallel Graph Connectivity Computation via Subgraph Sampling"*
//! (Sutton, Ben-Nun, Barak — IPDPS 2018).
//!
//! Afforest extends the Shiloach–Vishkin tree-hooking algorithm with two
//! ideas:
//!
//! 1. **Local convergence** ([`link`]): each edge is processed exactly once
//!    by a lock-free procedure that walks both endpoints' component trees
//!    upward and merges their roots with a compare-and-swap, always hooking
//!    the higher-index root under the lower (Invariant 1: `π(x) ≤ x`,
//!    which rules out cycles).
//! 2. **Subgraph sampling** ([`afforest`]): because `link` never needs to
//!    revisit an edge, the edge set can be processed in arbitrary disjoint
//!    batches. Afforest first links a constant number of *neighbor rounds*
//!    (the `i`-th neighbor of every vertex), compressing between rounds;
//!    then identifies the emerging giant component by random sampling and
//!    **skips** every remaining edge incident to it (sound by the paper's
//!    Theorem 3), processing only the leftovers.
//!
//! ```
//! use afforest_graph::generators::uniform_random;
//! use afforest_core::{afforest, AfforestConfig};
//!
//! let g = uniform_random(10_000, 80_000, 42);
//! let labels = afforest(&g, &AfforestConfig::default());
//! assert!(labels.num_components() >= 1);
//! ```
//!
//! Beyond the production entry points, this crate ships the research
//! tooling used by the paper's analysis sections:
//!
//! - [`strategies`]: the four subgraph-partitioning strategies of Fig. 6
//!   (row sampling, uniform edge sampling, neighbor sampling, spanning
//!   forest).
//! - [`metrics`]: the Linkage and Coverage convergence measures of
//!   Section V-B.
//! - [`instrument`]: per-edge local-iteration counts and tree-depth probes
//!   (Table II) and π access traces (Fig. 7).
//! - [`spanning_forest`]: spanning-forest extraction via merge-edge
//!   tracking (Section IV-A duality).

#![forbid(unsafe_code)]

pub mod afforest;
pub mod batched;
pub mod cachesim;
pub mod compress;
pub mod incremental;
pub mod instrument;
pub mod labels;
pub mod link;
pub mod metrics;
pub mod parents;
pub mod sampling;
pub mod sampling_theory;
pub mod spanning_forest;
pub mod strategies;
pub mod worst_case;

pub use crate::afforest::{
    afforest, afforest_with_stats, AfforestConfig, AfforestConfigBuilder, ConfigError, Phase,
    PhaseTiming, RunStats,
};
pub use crate::batched::{afforest_batched, BatchedConfig, BatchedStats};
pub use crate::compress::{compress, compress_all};
pub use crate::incremental::{BatchDelta, IncrementalCc, InvalidParents};
pub use crate::labels::ComponentLabels;
pub use crate::link::link;
pub use crate::parents::ParentArray;
pub use crate::sampling::sample_frequent_element;
pub use crate::spanning_forest::spanning_forest;
