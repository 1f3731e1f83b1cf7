//! Integration properties for the serving layer: a snapshotted index must be
//! indistinguishable from the live pipeline — build → save → load → identical
//! rewrites for every query, on randomized graphs — and the compute-on-miss
//! path must answer with the lines of an index built offline over the same
//! graph and config.

// The vendored proptest! macro expands recursively per doc-commented test.
#![recursion_limit = "256"]

use proptest::prelude::*;
use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::{ClickGraph, ClickGraphBuilder, EdgeData, QueryId, WeightKind};
use simrankpp_serve::{serve_session, LiveContext, RewriteIndex, ServeState};
use simrankpp_util::FxHashSet;

/// A random small *named* click graph; names include stem-duplicates
/// ("shoe N"/"shoes N") so the dedup stage is exercised, plus a tail of
/// unnamed queries added by raw id so partial name coverage is exercised too.
fn arb_named_graph() -> impl Strategy<Value = ClickGraph> {
    (
        proptest::collection::vec(((0u32..24), (0u32..12), (1u64..40)), 1..80),
        0u32..3,
    )
        .prop_map(|(edges, unnamed)| {
            // Every "shoe N"/"shoes N" pair is a stem-duplicate, so the
            // dedup stage of the pipeline actually fires on these graphs.
            let query_name = |q: u32| match q % 4 {
                0 => format!("shoe {}", q / 4),
                1 => format!("shoes {}", q / 4),
                _ => format!("query {q}"),
            };
            let mut b = ClickGraphBuilder::new();
            for (q, a, w) in &edges {
                b.add_named(
                    &query_name(*q),
                    &format!("ad{a}"),
                    EdgeData::from_clicks(*w),
                );
            }
            // Unnamed tail queries (raw ids past the interner) reusing the
            // ad/weight of an existing edge.
            for u in 0..unnamed {
                let (_, a, w) = edges[u as usize % edges.len()];
                b.add_edge(
                    QueryId(60 + u),
                    simrankpp_graph::AdId(a),
                    EdgeData::from_clicks(w),
                );
            }
            b.build()
        })
}

fn rewriter_for(g: &ClickGraph, kind: MethodKind) -> Rewriter<'_> {
    let cfg = SimrankConfig::default()
        .with_iterations(5)
        .with_weight_kind(WeightKind::Clicks);
    Rewriter::new(g, Method::compute(kind, g, &cfg), RewriterConfig::default())
}

fn assert_index_matches_live(
    index: &RewriteIndex,
    rewriter: &Rewriter<'_>,
    bid_terms: Option<&FxHashSet<QueryId>>,
) {
    assert_eq!(index.n_queries(), rewriter.graph().n_queries());
    for q in rewriter.graph().queries() {
        let live = rewriter.rewrites(q, bid_terms);
        let served = index.rewrites_of(q);
        assert_eq!(served.len(), live.len(), "depth mismatch for {q:?}");
        for (got, want) in served.iter().zip(&live) {
            assert_eq!(got.0, want.query, "target mismatch for {q:?}");
            assert_eq!(got.1.to_bits(), want.score.to_bits(), "score for {q:?}");
            assert_eq!(got.2, want.name.as_deref(), "name for {q:?}");
        }
    }
}

/// The `(target, rendered score)` pairs of a one-request session, in served
/// order; unnamed targets render as `#<id>`.
fn served_rewrites(state: &ServeState, g: &ClickGraph, name: &str) -> Vec<(QueryId, String)> {
    let mut out = Vec::new();
    serve_session(state, format!("rewrite {name}\n").as_bytes(), &mut out).unwrap();
    let line = String::from_utf8(out).unwrap();
    let fields: Vec<&str> = line.trim_end().split('\t').collect();
    assert_eq!(fields[..2], ["ok", name], "{line}");
    fields[3..]
        .chunks(2)
        .map(|pair| {
            let target = match pair[0].strip_prefix('#') {
                Some(id) => QueryId(id.parse().unwrap()),
                None => g.query_by_name(pair[0]).unwrap(),
            };
            (target, pair[1].to_owned())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Precomputed row == live row, on the wire: a single-source server and
    // a server over `RewriteIndex::build` of the same graph and config answer
    // every named query with the same line — the live row is the engine's
    // `S^(k)` row and both run the one §9.3 funnel, through evidence-zeroed
    // candidates (final 0, ranked by raw), stem-duplicates and unnamed `#id`
    // targets. Every rendered score is equal; two targets may trade places
    // only when their scores tie to rounding (structurally symmetric nodes,
    // which the index orders by id and the live row by its last bit).
    #[test]
    fn live_lines_equal_precomputed_lines(g in arb_named_graph()) {
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        for kind in [
            MethodKind::Simrank,
            MethodKind::EvidenceSimrank,
            MethodKind::WeightedSimrank,
        ] {
            let rewriter =
                Rewriter::new(&g, Method::compute(kind, &g, &cfg), RewriterConfig::default());
            let index = RewriteIndex::build(&rewriter, None, 2);
            let meta = *index.meta();
            let indexed = ServeState::fixed(index);
            let live = LiveContext::new(g.clone(), kind, cfg, RewriterConfig::default()).unwrap();
            let live = ServeState::fixed(RewriteIndex::empty(meta)).with_live(live, 4);
            for q in g.queries() {
                let Some(name) = g.query_name(q) else { continue };
                let want = served_rewrites(&indexed, &g, name);
                let got = served_rewrites(&live, &g, name);
                prop_assert_eq!(got.len(), want.len(), "{:?} depth for {:?}", kind, name);
                for ((l, l_score), (i, i_score)) in got.iter().zip(&want) {
                    prop_assert_eq!(l_score, i_score, "{:?} {:?}", kind, name);
                    let (lf, lr) = rewriter.method().score_with_tiebreak(q, *l);
                    let (wf, wr) = rewriter.method().score_with_tiebreak(q, *i);
                    prop_assert!(
                        l == i || ((lf - wf).abs() < 1e-9 && (lr - wr).abs() < 1e-9),
                        "{:?} {:?}: live serves {:?}, index {:?}", kind, name, got, want
                    );
                }
            }
        }
    }

    // Served lookups equal fresh `Rewriter::rewrites` calls for every query
    // and every evaluated method.
    #[test]
    fn index_equals_live_pipeline(g in arb_named_graph()) {
        for kind in [MethodKind::Simrank, MethodKind::WeightedSimrank] {
            let rewriter = rewriter_for(&g, kind);
            let index = RewriteIndex::build(&rewriter, None, 2);
            index.validate().unwrap();
            assert_index_matches_live(&index, &rewriter, None);
        }
    }

    // build → save → load → identical rewrites (binary format).
    #[test]
    fn binary_snapshot_roundtrips(g in arb_named_graph()) {
        let rewriter = rewriter_for(&g, MethodKind::WeightedSimrank);
        let index = RewriteIndex::build(&rewriter, None, 1);
        let mut buf = Vec::new();
        index.write_snapshot(&mut buf).unwrap();
        let loaded = RewriteIndex::read_snapshot(buf.as_slice()).unwrap();
        loaded.validate().unwrap();
        assert_index_matches_live(&loaded, &rewriter, None);
    }

    // The bid filter survives the precompute + snapshot round-trip.
    #[test]
    fn bid_filtered_index_roundtrips(g in arb_named_graph(), picks in proptest::collection::vec(0u32..24, 1..8)) {
        let mut bids = FxHashSet::default();
        for p in picks {
            if (p as usize) < g.n_queries() {
                bids.insert(QueryId(p));
            }
        }
        let rewriter = rewriter_for(&g, MethodKind::WeightedSimrank);
        let index = RewriteIndex::build(&rewriter, Some(&bids), 2);
        let mut buf = Vec::new();
        index.write_snapshot(&mut buf).unwrap();
        let loaded = RewriteIndex::read_snapshot(buf.as_slice()).unwrap();
        assert!(loaded.meta().bid_filtered);
        assert_index_matches_live(&loaded, &rewriter, Some(&bids));
    }
}
