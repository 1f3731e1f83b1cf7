//! The sponsored-search front-end (Figure 2): query → ranked rewrites.
//!
//! §9.3's pipeline, reproduced stage by stage:
//!
//! 1. score candidates with the chosen method and keep the **top 100**;
//! 2. **stem-dedup**: drop candidates whose stemmed token multiset duplicates
//!    the original query or an earlier candidate;
//! 3. **bid-term filter**: drop candidates not in the list of queries that
//!    saw at least one bid during the collection window;
//! 4. keep at most **5** rewrites. The number that survive is the method's
//!    *depth* for that query.

use crate::method::Method;
use simrankpp_graph::{ClickGraph, QueryId};
use simrankpp_text::StemDeduper;
use simrankpp_util::FxHashSet;

/// Pipeline parameters (§9.3 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriterConfig {
    /// Candidates recorded per query before filtering (paper: 100).
    pub max_candidates: usize,
    /// Rewrites kept after filtering (paper: 5).
    pub max_rewrites: usize,
    /// Apply the stemming duplicate filter (needs query names).
    pub stem_dedup: bool,
}

impl Default for RewriterConfig {
    fn default() -> Self {
        RewriterConfig {
            max_candidates: 100,
            max_rewrites: 5,
            stem_dedup: true,
        }
    }
}

/// Orders `(id, final score, raw walk score)` candidates by
/// `(final desc, raw desc, id asc)` and keeps the first `limit`. The raw
/// walk score only matters when final scores tie — in particular when the
/// evidence factor zeroes both candidates (no common ad), where the paper's
/// Figure 12 behaviour shows the underlying SimRank ordering taking over
/// (evidence-based predicts exactly as plain SimRank there).
pub(crate) fn rank_candidates(candidates: &mut Vec<(QueryId, f64, f64)>, limit: usize) {
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
            .then_with(|| a.0.cmp(&b.0))
    });
    candidates.truncate(limit);
}

/// The §9.3 funnel — the one implementation every producer of served rows
/// runs, whether its candidates come from an all-pairs matrix
/// ([`Rewriter::rewrite_ids_into`]) or a single-source row (the serving
/// layer's live miss path): rank by `(final desc, raw desc, id asc)` and cap at
/// `max_candidates` → drop `q` itself → stem-dedup seeded with `q`'s name →
/// bid filter → cap at `max_rewrites`. Writes the surviving
/// `(target, final score)` pairs into `out` (cleared first); `candidates` is
/// left ranked and capped.
pub fn funnel(
    graph: &ClickGraph,
    config: &RewriterConfig,
    q: QueryId,
    candidates: &mut Vec<(QueryId, f64, f64)>,
    bid_terms: Option<&FxHashSet<QueryId>>,
    out: &mut Vec<(QueryId, f64)>,
) {
    out.clear();
    rank_candidates(candidates, config.max_candidates);

    // An unnamed source query has no signature to seed, but named
    // candidates must still be deduplicated against each other —
    // skipping the deduper entirely let duplicates reach the top-5.
    let mut deduper = if config.stem_dedup {
        Some(match graph.query_name(q) {
            Some(name) => StemDeduper::seeded_with(name),
            None => StemDeduper::new(),
        })
    } else {
        None
    };

    for &(candidate, score, _raw) in candidates.iter() {
        if candidate == q {
            continue;
        }
        if let Some(d) = deduper.as_mut() {
            if let Some(name) = graph.query_name(candidate) {
                if !d.admit(name) {
                    continue;
                }
            }
        }
        if let Some(bids) = bid_terms {
            if !bids.contains(&candidate) {
                continue;
            }
        }
        out.push((candidate, score));
        if out.len() >= config.max_rewrites {
            break;
        }
    }
}

/// One produced rewrite.
#[derive(Debug, Clone, PartialEq)]
pub struct Rewrite {
    /// The rewritten-to query.
    pub query: QueryId,
    /// The method's (final) similarity score.
    pub score: f64,
    /// Display name, when the graph has names.
    pub name: Option<String>,
}

/// The front-end: a computed method plus the filtering pipeline.
#[derive(Debug)]
pub struct Rewriter<'g> {
    graph: &'g ClickGraph,
    method: Method,
    config: RewriterConfig,
}

impl<'g> Rewriter<'g> {
    /// Wraps a computed method over `graph`.
    pub fn new(graph: &'g ClickGraph, method: Method, config: RewriterConfig) -> Self {
        Rewriter {
            graph,
            method,
            config,
        }
    }

    /// The wrapped method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The click graph this rewriter serves.
    pub fn graph(&self) -> &ClickGraph {
        self.graph
    }

    /// The pipeline parameters.
    pub fn config(&self) -> &RewriterConfig {
        &self.config
    }

    /// Produces rewrites for `q`. `bid_terms`, when given, is the §9.3 bid
    /// filter: the set of queries that saw at least one bid.
    pub fn rewrites(&self, q: QueryId, bid_terms: Option<&FxHashSet<QueryId>>) -> Vec<Rewrite> {
        let mut ids = Vec::with_capacity(self.config.max_rewrites);
        self.rewrite_ids_into(q, bid_terms, &mut ids);
        ids.into_iter()
            .map(|(query, score)| Rewrite {
                query,
                score,
                name: self.graph.query_name(query).map(str::to_owned),
            })
            .collect()
    }

    /// The pipeline core: writes `q`'s surviving `(target, score)` pairs into
    /// `out` (cleared first), without materializing display names.
    /// [`Rewriter::rewrites`] and the serving-index build share this single
    /// implementation; reusing `out` across calls keeps the batched offline
    /// build allocation-lean.
    pub fn rewrite_ids_into(
        &self,
        q: QueryId,
        bid_terms: Option<&FxHashSet<QueryId>>,
        out: &mut Vec<(QueryId, f64)>,
    ) {
        let mut candidates = Vec::new();
        self.method.candidates_into(q, &mut candidates);
        funnel(self.graph, &self.config, q, &mut candidates, bid_terms, out);
    }

    /// The §9.4 *depth* of the method for `q`: how many rewrites survive
    /// the pipeline (≤ `max_rewrites`).
    pub fn depth(&self, q: QueryId, bid_terms: Option<&FxHashSet<QueryId>>) -> usize {
        self.rewrites(q, bid_terms).len()
    }

    /// §9.4 *coverage* over a query sample: the fraction with ≥ 1 rewrite.
    pub fn coverage(&self, queries: &[QueryId], bid_terms: Option<&FxHashSet<QueryId>>) -> f64 {
        if queries.is_empty() {
            return 0.0;
        }
        let covered = queries
            .iter()
            .filter(|&&q| !self.rewrites(q, bid_terms).is_empty())
            .count();
        covered as f64 / queries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimrankConfig;
    use crate::method::{Method, MethodKind};
    use simrankpp_graph::fixtures::figure3_graph;

    fn rewriter(g: &ClickGraph, kind: MethodKind) -> Rewriter<'_> {
        let cfg = SimrankConfig::default().with_weight_kind(simrankpp_graph::WeightKind::Clicks);
        Rewriter::new(g, Method::compute(kind, g, &cfg), RewriterConfig::default())
    }

    #[test]
    fn camera_rewrites_ranked() {
        let g = figure3_graph();
        let r = rewriter(&g, MethodKind::WeightedSimrank);
        let camera = g.query_by_name("camera").unwrap();
        let rewrites = r.rewrites(camera, None);
        assert!(!rewrites.is_empty());
        assert_eq!(rewrites[0].name.as_deref(), Some("digital camera"));
    }

    #[test]
    fn self_is_never_a_rewrite() {
        let g = figure3_graph();
        let r = rewriter(&g, MethodKind::Simrank);
        for q in g.queries() {
            assert!(r.rewrites(q, None).iter().all(|rw| rw.query != q));
        }
    }

    #[test]
    fn bid_filter_drops_unbidden() {
        let g = figure3_graph();
        let r = rewriter(&g, MethodKind::Simrank);
        let camera = g.query_by_name("camera").unwrap();
        let dc = g.query_by_name("digital camera").unwrap();
        let mut bids = FxHashSet::default();
        bids.insert(dc);
        let rewrites = r.rewrites(camera, Some(&bids));
        assert_eq!(rewrites.len(), 1);
        assert_eq!(rewrites[0].query, dc);
    }

    #[test]
    fn empty_bid_list_gives_zero_depth() {
        let g = figure3_graph();
        let r = rewriter(&g, MethodKind::Simrank);
        let camera = g.query_by_name("camera").unwrap();
        let bids = FxHashSet::default();
        assert_eq!(r.depth(camera, Some(&bids)), 0);
    }

    #[test]
    fn coverage_on_figure3() {
        let g = figure3_graph();
        let r = rewriter(&g, MethodKind::Simrank);
        let queries: Vec<QueryId> = g.queries().collect();
        // flower has no rewrites; the other four do → 4/5.
        let cov = r.coverage(&queries, None);
        assert!((cov - 0.8).abs() < 1e-12, "coverage {cov}");
    }

    #[test]
    fn pearson_coverage_lower_than_simrank() {
        // The Figure 8 shape on the toy graph: Pearson ≤ SimRank coverage.
        let g = figure3_graph();
        let queries: Vec<QueryId> = g.queries().collect();
        let sr = rewriter(&g, MethodKind::Simrank).coverage(&queries, None);
        let pe = rewriter(&g, MethodKind::Pearson).coverage(&queries, None);
        assert!(pe <= sr);
    }

    #[test]
    fn max_rewrites_respected() {
        let g = figure3_graph();
        let cfg = RewriterConfig {
            max_rewrites: 1,
            ..RewriterConfig::default()
        };
        let scfg = SimrankConfig::default();
        let r = Rewriter::new(&g, Method::compute(MethodKind::Simrank, &g, &scfg), cfg);
        let camera = g.query_by_name("camera").unwrap();
        assert!(r.rewrites(camera, None).len() <= 1);
    }

    /// Three named queries (two of them stem-duplicates), one unnamed query,
    /// all clicking the same ad. `intern_query` assigns ids 0..3 to the named
    /// queries; `QueryId(3)` stays outside the interner so it has no name.
    fn mixed_named_graph() -> ClickGraph {
        use simrankpp_graph::{ClickGraphBuilder, EdgeData};
        let mut b = ClickGraphBuilder::new();
        let shoe = b.intern_query("shoe");
        let shoes = b.intern_query("shoes");
        let boots = b.intern_query("boots");
        let store = b.intern_ad("shoestore");
        b.add_edge(shoe, store, EdgeData::from_clicks(4));
        b.add_edge(shoes, store, EdgeData::from_clicks(2));
        b.add_edge(boots, store, EdgeData::from_clicks(3));
        b.add_edge(QueryId(3), store, EdgeData::from_clicks(5));
        b.build()
    }

    #[test]
    fn unnamed_source_still_dedups_named_candidates() {
        // Regression: an unnamed source query used to disable stem-dedup
        // entirely, so "shoe" and "shoes" could both reach the served top-5.
        let g = mixed_named_graph();
        let unnamed = QueryId(3);
        assert_eq!(g.query_name(unnamed), None);
        let r = rewriter(&g, MethodKind::Simrank);
        let rewrites = r.rewrites(unnamed, None);
        let names: Vec<_> = rewrites.iter().filter_map(|rw| rw.name.clone()).collect();
        assert!(
            !(names.iter().any(|n| n == "shoe") && names.iter().any(|n| n == "shoes")),
            "shoe/shoes both served to an unnamed query: {names:?}"
        );
        // The non-duplicate candidates still come through.
        assert!(names.iter().any(|n| n == "boots"), "{names:?}");
    }

    #[test]
    fn unnamed_candidates_survive_dedup() {
        // A candidate without a name has no signature; it must pass through
        // the deduper rather than be dropped (or crash).
        let g = mixed_named_graph();
        let boots = g.query_by_name("boots").unwrap();
        let r = rewriter(&g, MethodKind::Simrank);
        let rewrites = r.rewrites(boots, None);
        assert!(
            rewrites.iter().any(|rw| rw.query == QueryId(3)),
            "unnamed candidate missing: {rewrites:?}"
        );
    }

    #[test]
    fn stem_dedup_removes_inflections() {
        use simrankpp_graph::{ClickGraphBuilder, EdgeData};
        // "shoe" and "shoes" both similar to "boots" via one ad — only the
        // first (higher-ranked) survives dedup.
        let mut b = ClickGraphBuilder::new();
        b.add_named("boots", "shoestore", EdgeData::from_clicks(4));
        b.add_named("shoe", "shoestore", EdgeData::from_clicks(4));
        b.add_named("shoes", "shoestore", EdgeData::from_clicks(2));
        let g = b.build();
        let r = rewriter(&g, MethodKind::Simrank);
        let boots = g.query_by_name("boots").unwrap();
        let rewrites = r.rewrites(boots, None);
        let names: Vec<_> = rewrites.iter().filter_map(|r| r.name.clone()).collect();
        assert_eq!(names.len(), 1, "dedup must collapse shoe/shoes: {names:?}");
    }
}
