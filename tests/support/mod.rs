//! Helpers the differential suites share: one synthetic graph generator,
//! one paper configuration and one way to add the components no block
//! covers. Each suite includes this file with `mod support;`.

use simrankpp::prelude::*;
use simrankpp::synth::generator::{generate, GeneratorConfig};

/// A seeded `tiny`-preset world's click graph with `n_queries` queries over
/// `n_topics` topics; `dense` allows up to 12 ads per query instead of 4.
pub fn synth_graph(n_topics: usize, n_queries: usize, seed: u64, dense: bool) -> ClickGraph {
    let mut gen = GeneratorConfig::tiny().with_seed(seed);
    gen.n_topics = n_topics;
    gen.n_queries = n_queries;
    gen.n_ads = (n_queries * 2 / 3).max(4);
    gen.max_ads_per_query = if dense { 12 } else { 4 };
    generate(&gen).graph
}

/// The paper configuration at `k` iterations over click weights.
pub fn cfg(k: usize) -> SimrankConfig {
    SimrankConfig::paper()
        .with_iterations(k)
        .with_weight_kind(WeightKind::Clicks)
}

/// `g` plus what no component block covers: a 1×1 edge component and
/// isolated nodes on both sides.
pub fn with_trivial_components(g: &ClickGraph) -> ClickGraph {
    let (nq, na) = (g.n_queries() as u32, g.n_ads() as u32);
    let mut b = ClickGraphBuilder::new();
    for (q, a, e) in g.edges() {
        b.add_edge(q, a, *e);
    }
    b.add_edge(QueryId(nq), AdId(na), EdgeData::from_clicks(3));
    b.reserve_queries(nq + 3);
    b.reserve_ads(na + 2);
    b.build()
}
