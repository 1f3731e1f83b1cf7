//! Bipartite click-graph substrate for the Simrank++ reproduction.
//!
//! §2 of the paper defines the click graph: an undirected, weighted, bipartite
//! graph `G = (Q, A, E)` with queries on one side, ads on the other, and an
//! edge `(q, α)` whenever at least one user who issued `q` clicked on `α`
//! during the collection period. Each edge carries three weights:
//!
//! 1. **impressions** — how many times `α` was displayed for `q`;
//! 2. **clicks** — how many of those displays were clicked (≤ impressions);
//! 3. **expected click rate** — a position-adjusted clicks/impressions ratio
//!    computed by the sponsored-search back-end.
//!
//! This crate provides:
//!
//! * typed dense node ids ([`QueryId`], [`AdId`], [`NodeRef`]);
//! * per-edge weight data ([`EdgeData`], [`WeightKind`]);
//! * an accumulating [`builder::ClickGraphBuilder`];
//! * the immutable CSR [`ClickGraph`] with adjacency in both directions;
//! * string interning for query/ad display names ([`interner::Interner`]);
//! * connected components, induced subgraphs, degree statistics;
//! * component [`Block`]s — groups of whole components with monotone id
//!   maps: the segmented store's segments and the dirty blocks an
//!   incremental refresh recomputes ([`dirty_blocks`]);
//! * incremental updates ([`delta::GraphDelta`]): batched edge
//!   upserts/removals with dirty-component analysis for exact
//!   component-local recompute;
//! * TSV + serde I/O;
//! * the paper's worked-example graphs ([`fixtures`]): Figure 3's sample click
//!   graph and the complete bipartite graphs of Figure 4.

pub mod block;
pub mod builder;
pub mod components;
pub mod delta;
pub mod edge;
pub mod fixtures;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod io;
pub mod segments;
pub mod stats;
pub mod subgraph;
pub mod window;

pub use block::{dirty_blocks, Block};
pub use builder::ClickGraphBuilder;
pub use delta::{
    dirty_for_endpoints, ClickLogRecord, DeltaOp, DirtyComponents, GraphDelta, NamedOp,
};
pub use edge::{EdgeData, WeightKind};
pub use graph::ClickGraph;
pub use ids::{AdId, NodeRef, QueryId};
pub use interner::Interner;
pub use segments::{
    component_segments, write_segmented, SegmentInfo, SegmentWriter, SegmentedStore,
};
pub use stats::{DegreeHistogram, GraphStats};
pub use window::SlidingWindowGraph;
