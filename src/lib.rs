//! # Simrank++ — query rewriting through link analysis of the click graph
//!
//! A full Rust reproduction of Antonellis, Garcia-Molina & Chang,
//! *Simrank++: Query rewriting through link analysis of the click graph*
//! (VLDB 2008), including every substrate its evaluation depends on.
//!
//! ## Crates (re-exported here as modules)
//!
//! | module | contents |
//! |--------|----------|
//! | [`graph`] | the §2 weighted bipartite click graph (CSR storage, builders, fixtures, I/O), plus incremental [`GraphDelta`](graph::GraphDelta) batches with dirty-component analysis |
//! | [`core`] | SimRank (§4), evidence-based SimRank (§7), weighted SimRank (§8), Pearson baseline (§9.1), the rewriting front-end and its §9.3 funnel (Fig. 2), single-source rows |
//! | [`core::engine`] | the unified sparse propagation engine the recursive variants run on: one `Walk` value for the per-edge walk factor (`Walk::Uniform` §4 / `Walk::Weighted` §8.2), one loop over one chain of half-steps ending on the side asked for, one row-parallel pull kernel, threshold pruning, per-iteration `pair_counts`, and a `SimrankConfig::tolerance` early exit that compares same-chain iterates |
//! | [`partition`] | PageRank, Andersen–Chung–Lang push + sweep cuts, five-subgraph extraction (§9.2) |
//! | [`text`] | Porter stemmer, query normalization, stem-dedup (§9.3) |
//! | [`synth`] | synthetic click-graph generator, position-bias click model, simulated editorial judge (Table 6), bids, traffic sampling, click-spam injection |
//! | [`eval`] | §9.4 metrics: coverage, 11-pt precision/recall, P@X, depth bands, desirability prediction (Figures 8–12) |
//! | [`serve`] | the online half of Fig. 2: precomputed top-k [`RewriteIndex`](serve::RewriteIndex), versioned binary snapshots, incremental rebuilds hot-swapped through an `ArcSwap`-style handle, line-protocol `serve` binary |
//! | [`util`] | fast hashing, top-k selection, online statistics |
//!
//! Engine convergence knobs on [`SimrankConfig`](prelude::SimrankConfig):
//! `iterations` (Jacobi budget), `prune_threshold` (sparsity/accuracy
//! trade-off; `0.0` = exact), `tolerance` (early exit once the max per-pair
//! change between query-side iterates two half-steps apart falls to/below
//! it), and `threads` (chunked parallelism). The engine has two entry
//! points: [`core::engine::run`] returns both sides as an
//! [`EngineRun`](core::engine::EngineRun) that reports `iterations_run`,
//! `converged`, `pair_counts`, and `max_deltas` with one entry per check,
//! and [`Method`](prelude::Method) computes one ranked query side with the
//! evidence factor applied at read-out.
//!
//! ## Quickstart
//!
//! ```
//! use simrankpp::prelude::*;
//!
//! // The paper's Figure 3 sample click graph.
//! let graph = simrankpp::graph::fixtures::figure3_graph();
//!
//! // Weighted SimRank (the paper's best method), 7 iterations, C1=C2=0.8.
//! let config = SimrankConfig::paper().with_weight_kind(WeightKind::Clicks);
//! let method = Method::compute(MethodKind::WeightedSimrank, &graph, &config);
//!
//! // Rewrite "camera": the front-end pipeline of Figure 2.
//! let rewriter = Rewriter::new(&graph, method, RewriterConfig::default());
//! let camera = graph.query_by_name("camera").unwrap();
//! let rewrites = rewriter.rewrites(camera, None);
//! assert_eq!(rewrites[0].name.as_deref(), Some("digital camera"));
//! ```

pub use simrankpp_core as core;
pub use simrankpp_eval as eval;
pub use simrankpp_graph as graph;
pub use simrankpp_partition as partition;
pub use simrankpp_serve as serve;
pub use simrankpp_synth as synth;
pub use simrankpp_text as text;
pub use simrankpp_util as util;

/// The most commonly used items in one import.
pub mod prelude {
    pub use simrankpp_core::evidence::EvidenceKind;
    pub use simrankpp_core::{
        Method, MethodKind, Rewrite, Rewriter, RewriterConfig, SimrankConfig,
    };
    pub use simrankpp_eval::{run_experiment, ExperimentConfig};
    pub use simrankpp_graph::{
        AdId, ClickGraph, ClickGraphBuilder, EdgeData, NodeRef, QueryId, WeightKind,
    };
    pub use simrankpp_synth::{GeneratorConfig, Grade, World};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let graph = crate::graph::fixtures::figure3_graph();
        let config = SimrankConfig::paper().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::WeightedSimrank, &graph, &config);
        let rewriter = Rewriter::new(&graph, method, RewriterConfig::default());
        let camera = graph.query_by_name("camera").unwrap();
        let rewrites = rewriter.rewrites(camera, None);
        assert!(!rewrites.is_empty());
    }
}
