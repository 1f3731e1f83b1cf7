//! The sponsored-search front-end (Figure 2): query → ranked rewrites.
//!
//! §9.3's pipeline, reproduced stage by stage:
//!
//! 1. score candidates with the chosen method and keep the **top 100** (a
//!    selection, not a sort of the whole row);
//! 2. **stem-dedup**: drop candidates whose stemmed token multiset duplicates
//!    the original query or an earlier candidate — compared as one signature
//!    id per query, interned once per graph ([`stem_classes`]), so no name is
//!    stemmed while a row is being served;
//! 3. **bid-term filter**: drop candidates not in the list of queries that
//!    saw at least one bid during the collection window;
//! 4. keep at most **5** rewrites. The number that survive is the method's
//!    *depth* for that query (§9.4's depth and coverage are computed by the
//!    evaluation crate from the judged rewrites).

use crate::evidence::EvidenceKind;
use crate::method::Method;
use simrankpp_graph::{ClickGraph, QueryId};
use simrankpp_util::FxHashSet;
use std::cmp::Ordering;
use std::sync::{Mutex, OnceLock};

pub use simrankpp_text::StemClasses;

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

/// One `(id, final score, raw walk score)` rewrite candidate.
pub type Candidate = (QueryId, f64, f64);

/// `(final desc, raw desc, id asc)`. Candidate ids are distinct, so this is
/// a total order: any selection or sort under it has exactly one result.
/// `total_cmp` agrees with the numeric order on the non-negative finite
/// scores every producer emits, and stays an order if anything else arrives.
fn rank_order(a: &Candidate, b: &Candidate) -> Ordering {
    b.1.total_cmp(&a.1)
        .then_with(|| b.2.total_cmp(&a.2))
        .then_with(|| a.0.cmp(&b.0))
}

/// The stem-class table [`funnel`] dedups `graph`'s queries with under
/// `config`: one signature id per query, each name stemmed once. Empty —
/// nothing is stemmed — when `config.stem_dedup` is off and the funnel will
/// not read it.
pub fn stem_classes(graph: &ClickGraph, config: &RewriterConfig) -> StemClasses {
    if !config.stem_dedup {
        return StemClasses::default();
    }
    StemClasses::from_names((0..graph.n_queries()).map(|q| graph.query_name(QueryId(q as u32))))
}

/// The buffers one [`candidates`] and [`funnel`] pass works in, reusable
/// across calls: whoever drives the funnel over many rows (an index-build
/// worker, the live miss path) owns one and drops it with the job.
#[derive(Debug, Default)]
pub struct FunnelScratch {
    /// In: the row's unranked candidates. Out: non-finite scores dropped,
    /// and only the prefix the filters read ranked — at most
    /// `max_candidates`, often far fewer; the rest follow in no set order.
    pub candidates: Vec<Candidate>,
    /// Stem classes admitted so far in the row being filtered.
    seen: Vec<u32>,
    /// Per query id, the ads it shares with the source query of the row
    /// [`candidates`] is forming; all zero between rows.
    common: Vec<u32>,
    /// Set while `common` holds counts: a row that panicked between filling
    /// and clearing them left it so, and the next row zeroes it whole.
    common_dirty: bool,
}

/// Fills `scratch.candidates` (cleared first) with `q`'s unranked
/// candidates from a row of walk scores (a stored [`Method`] row or a
/// single-source row) as `(id, evidence(common_ads(q, id)) · raw, raw)`
/// (Eq. 7.5), or `(id, raw, raw)` without evidence, skipping `q` and
/// `raw ≤ 0`. The one place a served row's final score is formed,
/// precomputed or live.
///
/// `common_ads(q, id)` is nonzero only on `q`'s co-click set, so the counts
/// come from one pass over `q`'s ads' query lists into a dense per-query
/// array, read once per candidate and cleared by a second pass: work
/// `Σ_{a ∈ E(q)} |E(a)|` a row, not `|E(q)|` searches a candidate.
pub fn candidates(
    g: &ClickGraph,
    q: QueryId,
    row: impl IntoIterator<Item = (QueryId, f64)>,
    evidence: Option<EvidenceKind>,
    scratch: &mut FunnelScratch,
) {
    let FunnelScratch {
        candidates: out,
        common,
        common_dirty,
        ..
    } = scratch;
    out.clear();
    let row = row.into_iter().filter(|&(id, raw)| id != q && raw > 0.0);
    let Some(kind) = evidence else {
        out.extend(row.map(|(id, raw)| (id, raw, raw)));
        return;
    };
    if common.len() < g.n_queries() {
        *common = vec![0; g.n_queries()];
    } else if *common_dirty {
        common.fill(0);
    }
    let (ads, _) = g.ads_of(q);
    *common_dirty = true;
    for &a in ads {
        for &other in g.queries_of(a).0 {
            common[other.0 as usize] += 1;
        }
    }
    // An id past the graph's queries shares no ad with `q`.
    let count = |id: QueryId| common.get(id.0 as usize).map_or(0, |&n| n as usize);
    out.extend(row.map(|(id, raw)| (id, kind.value(count(id)) * raw, raw)));
    for &a in ads {
        for &other in g.queries_of(a).0 {
            common[other.0 as usize] = 0;
        }
    }
    *common_dirty = false;
}

/// The §9.3 funnel — the one implementation every producer of served rows
/// runs, whether its [`candidates`] come from an all-pairs matrix
/// ([`Rewriter::rewrite_ids_into`]) or a single-source row (the serving
/// layer's live miss path): drop non-finite scores → rank by
/// `(final desc, raw desc, id asc)` and cap at `max_candidates` → drop `q`
/// itself → stem-dedup seeded with `q`'s class → bid filter → cap at
/// `max_rewrites`. `classes` is [`stem_classes`] of the graph the ids belong
/// to. Writes the surviving `(target, final score)` pairs into `out` (cleared
/// first).
///
/// Only the prefix the filters read is ranked: the next chunk of the order
/// is selected, sorted and filtered, chunks doubling from twice
/// `max_rewrites`, until `max_rewrites` survive or `max_candidates` have
/// been read. Under a total order that prefix is the fully ranked list's,
/// so the output is the same.
pub fn funnel(
    classes: &StemClasses,
    config: &RewriterConfig,
    q: QueryId,
    scratch: &mut FunnelScratch,
    bid_terms: Option<&FxHashSet<QueryId>>,
    out: &mut Vec<(QueryId, f64)>,
) {
    out.clear();
    let FunnelScratch {
        candidates, seen, ..
    } = scratch;
    candidates.retain(|c| c.1.is_finite() && c.2.is_finite());

    // An unnamed source query has no class to seed, but named candidates
    // are still deduplicated against each other.
    seen.clear();
    let source_class = classes.class(q.0);
    if config.stem_dedup && source_class != StemClasses::UNNAMED {
        seen.push(source_class);
    }

    let limit = config.max_candidates.min(candidates.len());
    let (mut read, mut chunk) = (0, 2 * config.max_rewrites);
    // Tested before each candidate, so `max_rewrites: 0` serves nothing.
    while read < limit && out.len() < config.max_rewrites {
        let end = limit.min(read + chunk);
        let rest = &mut candidates[read..];
        if end - read < rest.len() {
            rest.select_nth_unstable_by(end - read - 1, rank_order);
        }
        let ranked = &mut candidates[read..end];
        ranked.sort_unstable_by(rank_order);
        for &(candidate, score, _raw) in ranked.iter() {
            if out.len() >= config.max_rewrites {
                break;
            }
            if candidate == q {
                continue;
            }
            // A class is admitted before the bid filter looks at its
            // candidate: a duplicate of an unbidden candidate is still a
            // duplicate.
            if config.stem_dedup {
                let class = classes.class(candidate.0);
                if class != StemClasses::UNNAMED {
                    if seen.contains(&class) {
                        continue;
                    }
                    seen.push(class);
                }
            }
            if let Some(bids) = bid_terms {
                if !bids.contains(&candidate) {
                    continue;
                }
            }
            out.push((candidate, score));
        }
        read = end;
        chunk *= 2;
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
    /// [`stem_classes`] of `graph`, built by the first row that is served.
    classes: OnceLock<StemClasses>,
    /// The scratch [`Rewriter::rewrite_ids_into`] reuses across calls, so a
    /// caller serving one row at a time does not zero a count array the
    /// size of the graph for each.
    scratch: Mutex<FunnelScratch>,
}

impl<'g> Rewriter<'g> {
    /// Wraps a computed method over `graph`.
    pub fn new(graph: &'g ClickGraph, method: Method, config: RewriterConfig) -> Self {
        Rewriter {
            graph,
            method,
            config,
            classes: OnceLock::new(),
            // Sized here, not by the first row: allocated lazily, the array
            // read +10.8 MB of peak RSS on the 50 k-query offline build
            // (heap layout; 115.3 MB sized here, 115.4 MB before it existed).
            scratch: Mutex::new(FunnelScratch {
                common: vec![0; graph.n_queries()],
                ..FunnelScratch::default()
            }),
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
    /// implementation; a caller serving many rows keeps one `scratch` across
    /// them and the batched offline build allocates nothing per row.
    pub fn rewrite_ids_with(
        &self,
        q: QueryId,
        bid_terms: Option<&FxHashSet<QueryId>>,
        scratch: &mut FunnelScratch,
        out: &mut Vec<(QueryId, f64)>,
    ) {
        let classes = self
            .classes
            .get_or_init(|| stem_classes(self.graph, &self.config));
        let method = &self.method;
        candidates(self.graph, q, method.row(q), method.evidence(), scratch);
        funnel(classes, &self.config, q, scratch, bid_terms, out);
    }

    /// [`Rewriter::rewrite_ids_with`] on the rewriter's own scratch — for
    /// the caller with one row at a time to serve. A call that finds the
    /// scratch in use by another thread, or poisoned, works in a fresh one.
    pub fn rewrite_ids_into(
        &self,
        q: QueryId,
        bid_terms: Option<&FxHashSet<QueryId>>,
        out: &mut Vec<(QueryId, f64)>,
    ) {
        match self.scratch.try_lock() {
            Ok(mut scratch) => self.rewrite_ids_with(q, bid_terms, &mut scratch, out),
            Err(_) => self.rewrite_ids_with(q, bid_terms, &mut FunnelScratch::default(), out),
        }
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
        assert_eq!(r.rewrites(camera, Some(&bids)).len(), 0);
    }

    /// §9.4 coverage over every query of `g`: the fraction with ≥ 1 rewrite.
    fn coverage(r: &Rewriter, g: &ClickGraph) -> f64 {
        let covered = g.queries().filter(|&q| !r.rewrites(q, None).is_empty());
        covered.count() as f64 / g.n_queries() as f64
    }

    #[test]
    fn coverage_on_figure3() {
        let g = figure3_graph();
        let r = rewriter(&g, MethodKind::Simrank);
        // flower has no rewrites; the other four do → 4/5.
        let cov = coverage(&r, &g);
        assert!((cov - 0.8).abs() < 1e-12, "coverage {cov}");
    }

    #[test]
    fn pearson_coverage_lower_than_simrank() {
        // The Figure 8 shape on the toy graph: Pearson ≤ SimRank coverage.
        let g = figure3_graph();
        let sr = coverage(&rewriter(&g, MethodKind::Simrank), &g);
        let pe = coverage(&rewriter(&g, MethodKind::Pearson), &g);
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

    #[test]
    fn zero_caps_serve_nothing() {
        // `max_rewrites: 0` used to serve one rewrite (push, then test the
        // cap), and an index built that way failed its own `validate`.
        let g = figure3_graph();
        let camera = g.query_by_name("camera").unwrap();
        let method = Method::compute(MethodKind::Simrank, &g, &SimrankConfig::default());
        for cfg in [
            RewriterConfig {
                max_rewrites: 0,
                ..RewriterConfig::default()
            },
            RewriterConfig {
                max_candidates: 0,
                ..RewriterConfig::default()
            },
        ] {
            let r = Rewriter::new(&g, method.clone(), cfg);
            assert!(r.rewrites(camera, None).is_empty(), "{cfg:?}");
        }
    }

    #[test]
    fn non_finite_candidates_are_dropped_not_ranked() {
        // `candidates` passes an infinite raw score, and any producer may
        // hand the funnel a NaN; under `partial_cmp(..).unwrap_or(Equal)` its
        // rank depended on input order and the sort was entitled to panic.
        let classes = StemClasses::default();
        let cfg = RewriterConfig::default();
        let finite = [
            (QueryId(1), 0.5, 0.5),
            (QueryId(2), 0.7, 0.7),
            (QueryId(3), 0.5, 0.6),
        ];
        let poison = [
            (QueryId(4), f64::NAN, 0.9),
            (QueryId(5), 0.9, f64::NAN),
            (QueryId(6), f64::INFINITY, 1.0),
        ];
        let mut expected = Vec::new();
        let mut scratch = FunnelScratch::default();
        scratch.candidates.extend(finite);
        funnel(
            &classes,
            &cfg,
            QueryId(0),
            &mut scratch,
            None,
            &mut expected,
        );
        assert_eq!(
            expected,
            [(QueryId(2), 0.7), (QueryId(3), 0.5), (QueryId(1), 0.5)]
        );
        // Every interleaving of the poisoned entries serves the same row.
        for rotate in 0..6 {
            let mut mixed: Vec<Candidate> = finite.iter().chain(&poison).copied().collect();
            mixed.rotate_left(rotate);
            scratch.candidates = mixed;
            let mut out = Vec::new();
            funnel(&classes, &cfg, QueryId(0), &mut scratch, None, &mut out);
            assert_eq!(out, expected);
            assert_eq!(scratch.candidates.len(), finite.len());
        }
    }

    /// The string-based funnel this module shipped before stem classes were
    /// interned — full sort under `partial_cmp`, a `stem_signature` and a
    /// `String` per candidate — kept, the way `engine::reference::run_hashmap`
    /// is, as the independent oracle the funnel is compared against.
    fn funnel_by_strings(
        names: &[Option<&str>],
        config: &RewriterConfig,
        q: QueryId,
        candidates: &mut Vec<Candidate>,
        bid_terms: Option<&FxHashSet<QueryId>>,
        out: &mut Vec<(QueryId, f64)>,
    ) {
        use simrankpp_text::stem_signature;
        out.clear();
        candidates.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| b.2.partial_cmp(&a.2).unwrap_or(Ordering::Equal))
                .then_with(|| a.0.cmp(&b.0))
        });
        candidates.truncate(config.max_candidates);
        let mut seen: Option<FxHashSet<String>> = config
            .stem_dedup
            .then(|| names[q.index()].iter().map(|n| stem_signature(n)).collect());
        for &(candidate, score, _raw) in candidates.iter() {
            if candidate == q {
                continue;
            }
            if let (Some(seen), Some(name)) = (seen.as_mut(), names[candidate.index()]) {
                if !seen.insert(stem_signature(name)) {
                    continue;
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

    /// Inflected, reordered and re-punctuated spellings of a few intents,
    /// so random draws collide on stem signature often.
    const NAME_POOL: [&str; 14] = [
        "camera",
        "cameras",
        "digital camera",
        "digital cameras",
        "camera digital",
        "Digital, CAMERAS!",
        "shoe",
        "shoes",
        "running shoes",
        "shoe running",
        "flower",
        "flowers",
        "pc",
        "tv",
    ];
    /// Few distinct values, so final and raw scores tie often.
    const SCORE_POOL: [f64; 6] = [0.0, 1e-4, 0.25, 0.250_000_000_000_000_06, 0.5, 1.0];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn funnel_equals_the_string_oracle(
            // Per query: a name (index ≥ pool size: unnamed) and a bid bit.
            queries in proptest::collection::vec((0usize..18, 0u8..2), 2..40),
            draws in proptest::collection::vec((0u32..40, 0usize..6, 0usize..6), 0..60),
            // source query, max_candidates regime, max_rewrites, dedup × bids
            knobs in (0u32..40, 0u8..3, 1usize..7, 0u8..4),
        ) {
            let n = queries.len() as u32;
            let names: Vec<Option<&str>> =
                queries.iter().map(|&(i, _)| NAME_POOL.get(i).copied()).collect();
            let mut candidates: Vec<Candidate> = Vec::new();
            for &(id, f, r) in &draws {
                let id = QueryId(id % n);
                if candidates.iter().all(|c| c.0 != id) {
                    candidates.push((id, SCORE_POOL[f], SCORE_POOL[r]));
                }
            }
            let (q, cap, max_rewrites, switches) = knobs;
            let config = RewriterConfig {
                max_candidates: match cap {
                    0 => 1,
                    1 => (candidates.len() / 2).max(1),
                    _ => candidates.len() + 3,
                },
                max_rewrites,
                stem_dedup: switches & 1 == 1,
            };
            let bids: Option<FxHashSet<QueryId>> = (switches & 2 == 2).then(|| {
                (0..n).filter(|&i| queries[i as usize].1 == 1).map(QueryId).collect()
            });
            let q = QueryId(q % n);

            let mut old_candidates = candidates.clone();
            let mut old = Vec::new();
            funnel_by_strings(&names, &config, q, &mut old_candidates, bids.as_ref(), &mut old);

            // An empty table when dedup is off, as `stem_classes` hands out.
            let classes = if config.stem_dedup {
                StemClasses::from_names(names.iter().copied())
            } else {
                StemClasses::default()
            };
            let mut scratch = FunnelScratch {
                candidates,
                seen: vec![7; 3],
                ..FunnelScratch::default()
            };
            let mut new = vec![(QueryId(9), 9.0)];
            funnel(&classes, &config, q, &mut scratch, bids.as_ref(), &mut new);

            let bits = |row: &[(QueryId, f64)]| -> Vec<(u32, u64)> {
                row.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
            };
            proptest::prop_assert_eq!(bits(&new), bits(&old), "{:?} q={:?}", config, q);
            // Only the prefix the filters read comes out ranked: at least
            // through the last served candidate, the oracle's ranked list.
            let ranked = |c: &[Candidate]| -> Vec<(u32, u64, u64)> {
                c.iter().map(|&(id, f, r)| (id.0, f.to_bits(), r.to_bits())).collect()
            };
            let read = new.last().map_or(0, |last| {
                old_candidates.iter().position(|c| c.0 == last.0).unwrap() + 1
            });
            proptest::prop_assert_eq!(
                ranked(&scratch.candidates[..read]),
                ranked(&old_candidates[..read])
            );
        }
    }

    /// The funnel as it ranked before it ranked only a prefix: every finite
    /// candidate sorted under `rank_order` and capped at `max_candidates`,
    /// then the filters over the whole ranked list.
    fn funnel_rank_everything(
        classes: &StemClasses,
        config: &RewriterConfig,
        q: QueryId,
        candidates: &mut Vec<Candidate>,
        bid_terms: Option<&FxHashSet<QueryId>>,
        out: &mut Vec<(QueryId, f64)>,
    ) {
        out.clear();
        candidates.retain(|c| c.1.is_finite() && c.2.is_finite());
        candidates.sort_unstable_by(rank_order);
        candidates.truncate(config.max_candidates);
        let mut seen = Vec::new();
        let source_class = classes.class(q.0);
        if config.stem_dedup && source_class != StemClasses::UNNAMED {
            seen.push(source_class);
        }
        for &(candidate, score, _raw) in candidates.iter() {
            if out.len() >= config.max_rewrites {
                break;
            }
            if candidate == q {
                continue;
            }
            if config.stem_dedup {
                let class = classes.class(candidate.0);
                if class != StemClasses::UNNAMED {
                    if seen.contains(&class) {
                        continue;
                    }
                    seen.push(class);
                }
            }
            if bid_terms.is_some_and(|bids| !bids.contains(&candidate)) {
                continue;
            }
            out.push((candidate, score));
        }
    }

    /// Scores with ties on both keys, and the non-finite values the funnel
    /// drops.
    const HOSTILE_POOL: [f64; 9] = [
        0.0,
        0.25,
        0.25,
        0.5,
        1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn prefix_ranking_serves_what_ranking_everything_did(
            // Per query: a stem class from a small pool (repeats are stem
            // duplicates; ≥ 6 is unnamed) and a bid bit.
            queries in proptest::collection::vec((0usize..9, 0u8..2), 2..60),
            draws in proptest::collection::vec((0u32..60, 0usize..9, 0usize..9), 0..120),
            knobs in (0u32..60, 0u8..4, 0u8..4, 0u8..4),
        ) {
            let n = queries.len() as u32;
            let names: Vec<Option<&str>> = queries
                .iter()
                .map(|&(i, _)| ["shoe", "shoes", "boot", "boots", "pc", "tv"].get(i).copied())
                .collect();
            let mut candidates: Vec<Candidate> = Vec::new();
            for &(id, f, r) in &draws {
                let id = QueryId(id % n);
                if candidates.iter().all(|c| c.0 != id) {
                    candidates.push((id, HOSTILE_POOL[f], HOSTILE_POOL[r]));
                }
            }
            let (q, cap, rewrites, switches) = knobs;
            let len = candidates.len();
            let config = RewriterConfig {
                max_candidates: [len / 3, len.saturating_sub(1), len, len + 4][cap as usize],
                max_rewrites: [0, 1, 5, len + 1][rewrites as usize],
                stem_dedup: switches & 1 == 1,
            };
            let bids: Option<FxHashSet<QueryId>> = (switches & 2 == 2).then(|| {
                (0..n).filter(|&i| queries[i as usize].1 == 1).map(QueryId).collect()
            });
            let q = QueryId(q % n);
            let classes = StemClasses::from_names(names.iter().copied());

            let mut want = Vec::new();
            let mut all = candidates.clone();
            funnel_rank_everything(&classes, &config, q, &mut all, bids.as_ref(), &mut want);
            let mut scratch = FunnelScratch {
                candidates,
                seen: vec![3; 2],
                ..FunnelScratch::default()
            };
            let mut got = vec![(QueryId(7), 7.0)];
            funnel(&classes, &config, q, &mut scratch, bids.as_ref(), &mut got);

            let bits = |row: &[(QueryId, f64)]| -> Vec<(u32, u64)> {
                row.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
            };
            proptest::prop_assert_eq!(bits(&got), bits(&want), "{:?} q={:?}", config, q);
        }
    }

    /// [`candidates`] as it formed evidence before the co-click counts: one
    /// binary search into an ad's query list per ad of `q` per candidate.
    /// The oracle the dense count array is pinned against.
    fn candidates_by_search(
        g: &ClickGraph,
        q: QueryId,
        row: &[(QueryId, f64)],
        evidence: Option<EvidenceKind>,
        out: &mut Vec<Candidate>,
    ) {
        out.clear();
        let row = row.iter().filter(|&&(id, raw)| id != q && raw > 0.0);
        let Some(kind) = evidence else {
            out.extend(row.map(|&(id, raw)| (id, raw, raw)));
            return;
        };
        let (ads, _) = g.ads_of(q);
        out.extend(row.map(|&(id, raw)| {
            let common = ads
                .iter()
                .filter(|&&a| g.queries_of(a).0.binary_search(&id).is_ok())
                .count();
            (id, kind.value(common) * raw, raw)
        }));
    }

    /// Raw scores with ties, zero and negative ones `candidates` skips, and a
    /// denormal an evidence factor < 1 rounds to zero.
    const RAW_TIES: [f64; 6] = [0.5, 0.5, 0.0, -0.25, 1e-310, 0.125];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn co_click_counts_equal_a_search_per_candidate(
            n in 1u32..24,
            // Few ads: many queries share several (counts above 1), many
            // share none, and some click nothing (an empty co-click set).
            // A repeated edge merges into one.
            edges in proptest::collection::vec((0u32..24, 0u32..6), 0..50),
            // Per row: its source, whether it lists the source itself, and
            // entries with ids up to two past the graph (no ad of any
            // query) and repeated ids; rows may be empty.
            rows in proptest::collection::vec(
                (0u32..24, 0u8..2, proptest::collection::vec((0u32..26, 0usize..6), 0..30)),
                1..8,
            ),
        ) {
            let mut b = simrankpp_graph::ClickGraphBuilder::new();
            b.reserve_queries(n);
            for &(q, a) in &edges {
                b.add_edge(QueryId(q % n), simrankpp_graph::AdId(a), simrankpp_graph::EdgeData::from_clicks(1));
            }
            let g = b.build();
            // One scratch across every row and evidence kind, as a worker
            // keeps it; it starts with stale candidates.
            let mut scratch = FunnelScratch::default();
            scratch.candidates.push((QueryId(9), 9.0, 9.0));
            let mut want = Vec::new();
            for (source, with_self, entries) in &rows {
                let q = QueryId(source % n);
                let mut row: Vec<(QueryId, f64)> =
                    entries.iter().map(|&(id, r)| (QueryId(id % (n + 2)), RAW_TIES[r])).collect();
                if *with_self == 1 {
                    row.insert(row.len() / 2, (q, 1.0));
                }
                for evidence in [None, Some(EvidenceKind::Geometric), Some(EvidenceKind::Exponential)] {
                    candidates(&g, q, row.iter().copied(), evidence, &mut scratch);
                    candidates_by_search(&g, q, &row, evidence, &mut want);
                    let bits = |c: &[Candidate]| -> Vec<(u32, u64, u64)> {
                        c.iter().map(|&(id, f, r)| (id.0, f.to_bits(), r.to_bits())).collect()
                    };
                    proptest::prop_assert_eq!(bits(&scratch.candidates), bits(&want), "q {:?} {:?}", q, evidence);
                    proptest::prop_assert!(scratch.common.iter().all(|&c| c == 0), "counts left behind");
                }
            }
        }
    }

    #[test]
    fn a_row_that_panics_leaves_no_counts_behind() {
        let g = figure3_graph();
        let camera = g.query_by_name("camera").unwrap();
        let dc = g.query_by_name("digital camera").unwrap();
        let ev = Some(EvidenceKind::Geometric);
        let mut scratch = FunnelScratch::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let row = [(dc, 0.5)]
                .into_iter()
                .chain(std::iter::from_fn(|| panic!("row")));
            candidates(&g, camera, row, ev, &mut scratch);
        }));
        assert!(panicked.is_err());
        // The next row, of another source, reads counts of its own only.
        let pc = g.query_by_name("pc").unwrap();
        let row = [(camera, 0.5), (dc, 0.25)];
        let mut want = Vec::new();
        candidates(&g, pc, row, ev, &mut scratch);
        candidates_by_search(&g, pc, &row, ev, &mut want);
        assert_eq!(scratch.candidates, want);
        assert!(scratch.common.iter().all(|&c| c == 0));
    }
}
