//! Accumulating click-graph builder.
//!
//! The back-end observes (query, ad, click/impression) events over a
//! collection window; repeated observations of the same edge accumulate via
//! [`EdgeData::merge`]. `build()` freezes everything into the immutable CSR
//! [`ClickGraph`].

use crate::edge::EdgeData;
use crate::graph::ClickGraph;
use crate::ids::{AdId, QueryId};
use crate::interner::Interner;
use simrankpp_util::FxHashMap;
use std::sync::Arc;

/// Mutable accumulator for click-graph edges.
#[derive(Debug, Default, Clone)]
pub struct ClickGraphBuilder {
    edges: FxHashMap<(u32, u32), EdgeData>,
    n_queries: u32,
    n_ads: u32,
    query_names: Option<Arc<Interner>>,
    ad_names: Option<Arc<Interner>>,
}

impl ClickGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the edge accumulator.
    pub fn with_capacity(edges: usize) -> Self {
        let mut b = Self::default();
        b.edges.reserve(edges);
        b
    }

    /// A builder over an existing name universe: one node per name, in id
    /// order, with the tables shared rather than copied (interning a new
    /// name copies them first).
    pub(crate) fn with_names(query_names: Arc<Interner>, ad_names: Arc<Interner>) -> Self {
        ClickGraphBuilder {
            n_queries: query_names.len() as u32,
            n_ads: ad_names.len() as u32,
            query_names: Some(query_names),
            ad_names: Some(ad_names),
            ..Self::default()
        }
    }

    /// Thaws an immutable graph back into a builder: same node counts, names
    /// and edges, ready for further mutation. This is the substrate of
    /// [`crate::delta::GraphDelta::apply`] — a delta replays on top of the
    /// thawed builder and refreezes. `build()` on an untouched thaw
    /// reproduces the graph exactly (CSR order is id-sorted either way).
    pub fn from_graph(g: &ClickGraph) -> ClickGraphBuilder {
        let mut b = ClickGraphBuilder::with_capacity(g.n_edges());
        b.n_queries = g.n_queries() as u32;
        b.n_ads = g.n_ads() as u32;
        b.query_names = g.query_names.clone();
        b.ad_names = g.ad_names.clone();
        for (q, a, e) in g.edges() {
            b.edges.insert((q.0, a.0), *e);
        }
        b
    }

    /// Removes the accumulated edge `(q, α)`, returning whether it existed.
    /// Node counts never shrink: ids stay dense and stable, the endpoints
    /// simply become lower-degree (possibly isolated) nodes.
    pub fn remove_edge(&mut self, q: QueryId, a: AdId) -> bool {
        self.edges.remove(&(q.0, a.0)).is_some()
    }

    /// Looks up an interned query name without inserting.
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.query_names.as_ref()?.get(name).map(QueryId)
    }

    /// Looks up an interned ad name without inserting.
    pub fn ad_id(&self, name: &str) -> Option<AdId> {
        self.ad_names.as_ref()?.get(name).map(AdId)
    }

    /// Adds (or accumulates onto) the edge `(q, α)` using explicit ids.
    /// Node counts grow to cover the largest id seen.
    pub fn add_edge(&mut self, q: QueryId, a: AdId, data: EdgeData) {
        self.n_queries = self.n_queries.max(q.0 + 1);
        self.n_ads = self.n_ads.max(a.0 + 1);
        self.edges
            .entry((q.0, a.0))
            .and_modify(|e| e.merge(&data))
            .or_insert(data);
    }

    /// Adds an edge by display names, interning them. Mixing `add_named` and
    /// raw `add_edge` in one builder is allowed only if the raw ids were
    /// produced by [`ClickGraphBuilder::intern_query`] / [`ClickGraphBuilder::intern_ad`].
    pub fn add_named(&mut self, query: &str, ad: &str, data: EdgeData) -> (QueryId, AdId) {
        let q = self.intern_query(query);
        let a = self.intern_ad(ad);
        self.add_edge(q, a, data);
        (q, a)
    }

    /// Interns a query name (creating an isolated node if no edge follows).
    pub fn intern_query(&mut self, name: &str) -> QueryId {
        let id =
            Interner::intern_shared(self.query_names.get_or_insert_with(Default::default), name);
        self.n_queries = self.n_queries.max(id + 1);
        QueryId(id)
    }

    /// Interns an ad name (creating an isolated node if no edge follows).
    pub fn intern_ad(&mut self, name: &str) -> AdId {
        let id = Interner::intern_shared(self.ad_names.get_or_insert_with(Default::default), name);
        self.n_ads = self.n_ads.max(id + 1);
        AdId(id)
    }

    /// Ensures the graph has at least `n` query nodes (isolated nodes allowed).
    pub fn reserve_queries(&mut self, n: u32) {
        self.n_queries = self.n_queries.max(n);
    }

    /// Ensures the graph has at least `n` ad nodes.
    pub fn reserve_ads(&mut self, n: u32) {
        self.n_ads = self.n_ads.max(n);
    }

    /// Number of distinct edges accumulated so far.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freezes into the immutable CSR graph.
    pub fn build(self) -> ClickGraph {
        // Sort edges query-major then ad for the forward CSR.
        let mut fwd: Vec<((u32, u32), EdgeData)> = self.edges.into_iter().collect();
        fwd.sort_unstable_by_key(|&(key, _)| key);
        lay_out(
            self.n_queries as usize,
            self.n_ads as usize,
            &fwd,
            self.query_names,
            self.ad_names,
        )
    }
}

/// Lays out both CSR directions over `nq` queries and `na` ads from edges
/// sorted by `(query, ad)` without duplicates: the one place a
/// [`ClickGraph`]'s arrays are built.
pub(crate) fn lay_out(
    nq: usize,
    na: usize,
    fwd: &[((u32, u32), EdgeData)],
    query_names: Option<Arc<Interner>>,
    ad_names: Option<Arc<Interner>>,
) -> ClickGraph {
    let mut q_offsets = vec![0u32; nq + 1];
    for &((q, _), _) in fwd {
        q_offsets[q as usize + 1] += 1;
    }
    for i in 0..nq {
        q_offsets[i + 1] += q_offsets[i];
    }
    let q_nbrs: Vec<AdId> = fwd.iter().map(|&((_, a), _)| AdId(a)).collect();
    let q_edges: Vec<EdgeData> = fwd.iter().map(|&(_, e)| e).collect();

    // Transpose for the backward CSR (counting sort by ad id keeps the
    // query-major order stable, so neighbor lists stay sorted).
    let mut a_offsets = vec![0u32; na + 1];
    for &((_, a), _) in fwd {
        a_offsets[a as usize + 1] += 1;
    }
    for i in 0..na {
        a_offsets[i + 1] += a_offsets[i];
    }
    let mut cursor = a_offsets.clone();
    let mut a_nbrs = vec![QueryId(0); fwd.len()];
    let mut a_edges = vec![EdgeData::default(); fwd.len()];
    for &((q, a), e) in fwd {
        let slot = cursor[a as usize] as usize;
        a_nbrs[slot] = QueryId(q);
        a_edges[slot] = e;
        cursor[a as usize] += 1;
    }

    ClickGraph {
        q_offsets,
        q_nbrs,
        q_edges,
        a_offsets,
        a_nbrs,
        a_edges,
        query_names,
        ad_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_accumulate() {
        let mut b = ClickGraphBuilder::new();
        b.add_edge(QueryId(0), AdId(0), EdgeData::new(10, 1, 0.1));
        b.add_edge(QueryId(0), AdId(0), EdgeData::new(10, 3, 0.3));
        let g = b.build();
        assert_eq!(g.n_edges(), 1);
        let e = g.edge(QueryId(0), AdId(0)).unwrap();
        assert_eq!(e.impressions, 20);
        assert_eq!(e.clicks, 4);
        assert!((e.expected_click_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edges_saturate_instead_of_wrapping() {
        // Two lines for one edge with impressions = u64::MAX (every parser
        // accepts it): a wrapping sum panics in debug and, in release,
        // leaves impressions = MAX - 1 below clicks = MAX on the frozen edge.
        let mut b = ClickGraphBuilder::new();
        b.add_named("q", "a", EdgeData::new(u64::MAX, u64::MAX, 0.5));
        b.add_named("q", "a", EdgeData::new(u64::MAX, 0, 0.5));
        let g = b.build();
        g.validate().unwrap();
        let e = g.edge(QueryId(0), AdId(0)).unwrap();
        assert_eq!((e.impressions, e.clicks), (u64::MAX, u64::MAX));
        assert!(e.expected_click_rate.is_finite() && e.expected_click_rate >= 0.0);
    }

    #[test]
    fn isolated_nodes_survive() {
        let mut b = ClickGraphBuilder::new();
        b.reserve_queries(5);
        b.reserve_ads(3);
        b.add_edge(QueryId(1), AdId(1), EdgeData::from_clicks(1));
        let g = b.build();
        assert_eq!(g.n_queries(), 5);
        assert_eq!(g.n_ads(), 3);
        assert_eq!(g.query_degree(QueryId(4)), 0);
        g.validate().unwrap();
    }

    #[test]
    fn named_nodes_resolve() {
        let mut b = ClickGraphBuilder::new();
        let (q, a) = b.add_named("flower", "teleflora.com", EdgeData::from_clicks(2));
        let g = b.build();
        assert_eq!(g.query_name(q), Some("flower"));
        assert_eq!(g.ad_name(a), Some("teleflora.com"));
        assert_eq!(g.query_by_name("flower"), Some(q));
    }

    #[test]
    fn transpose_is_consistent_on_random_graph() {
        // Deterministic scatter of 500 edges over 40x30 nodes.
        let mut b = ClickGraphBuilder::new();
        let mut x: u64 = 12345;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let q = ((x >> 33) % 40) as u32;
            let a = ((x >> 13) % 30) as u32;
            b.add_edge(QueryId(q), AdId(a), EdgeData::from_clicks(1 + (x % 5)));
        }
        let g = b.build();
        g.validate().unwrap();
        // Spot-check both directions agree.
        for (q, a, e) in g.edges() {
            let (qs, es) = g.queries_of(a);
            let idx = qs.binary_search(&q).unwrap();
            assert_eq!(&es[idx], e);
        }
    }

    #[test]
    fn with_capacity_builds_same_graph() {
        let mut b = ClickGraphBuilder::with_capacity(16);
        b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1));
        assert_eq!(b.n_edges(), 1);
        let g = b.build();
        assert_eq!(g.n_edges(), 1);
    }
}
