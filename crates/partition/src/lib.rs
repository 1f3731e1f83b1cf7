//! Local graph partitioning substrate (§9.2's dataset preparation).
//!
//! The paper's evaluation graph is produced by "the subgraph extraction
//! method described in \[1\]" — Andersen, Chung & Lang, *Local graph
//! partitioning using PageRank vectors* (FOCS 2006) — run "iteratively in
//! order to discover big enough, distinct subgraphs" from the giant
//! component of the Yahoo! click graph. The authors used Kevin Lang's code;
//! this crate is a from-scratch reimplementation:
//!
//! * [`flat`] — a unified (query+ad) node view of the bipartite click graph;
//! * [`mod@pagerank`] — global PageRank by power iteration (seed selection);
//! * [`ppr`] — approximate personalized PageRank via the ACL push algorithm;
//! * [`sweep`] — conductance and the sweep-cut search;
//! * [`extract`] — the iterative driver that carves k disjoint subgraphs.
//!
//! Its one consumer is that dataset preparation (`eval`, `bench`, the
//! facade): nothing in the similarity engine or the serving layer cuts
//! edges.

pub mod extract;
pub mod flat;
pub mod pagerank;
pub mod ppr;
pub mod sweep;

pub use extract::{extract_subgraphs, ExtractConfig};
pub use flat::FlatView;
pub use pagerank::{pagerank, PagerankConfig};
pub use ppr::{approximate_ppr, PprConfig};
pub use sweep::{conductance, sweep_cut, SweepResult};
