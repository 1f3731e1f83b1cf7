//! Property-based tests (proptest) over the paper's theorems and the core
//! invariants of all engines, run on randomized graphs and parameters.

use proptest::prelude::*;
use simrankpp::core::complete_bipartite::{
    km2_evidence_pair_iterates, km2_pair_iterates, km2_pair_limit,
};
use simrankpp::core::engine::{self, EngineRun, UniformTransition};
use simrankpp::core::evidence::EvidenceKind;
use simrankpp::core::pearson::pearson_similarity;
use simrankpp::core::simrank::simrank_dense;
use simrankpp::graph::fixtures::complete_bipartite;
use simrankpp::prelude::*;
use simrankpp::text::{normalize_query, stem, stem_signature};

/// Plain SimRank (§4), both sides.
fn plain(g: &ClickGraph, config: &SimrankConfig) -> EngineRun {
    engine::run(g, config, &UniformTransition)
}

/// A random small click graph from an edge list strategy.
fn arb_graph() -> impl Strategy<Value = ClickGraph> {
    proptest::collection::vec(((0u32..20), (0u32..15), (1u64..50)), 1..60).prop_map(|edges| {
        let mut b = ClickGraphBuilder::new();
        for (q, a, w) in edges {
            b.add_edge(QueryId(q), AdId(a), EdgeData::from_clicks(w));
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- SimRank invariants -------------------------------------

    #[test]
    fn simrank_scores_in_unit_interval(g in arb_graph(), k in 1usize..6) {
        let r = plain(&g, &SimrankConfig::paper().with_iterations(k));
        for (_, _, v) in r.queries.iter() {
            prop_assert!(v > 0.0 && v <= 1.0 + 1e-12);
        }
        for (_, _, v) in r.ads.iter() {
            prop_assert!(v > 0.0 && v <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn simrank_sparse_equals_dense(g in arb_graph(), k in 1usize..5) {
        let cfg = SimrankConfig::paper().with_iterations(k);
        let s = plain(&g, &cfg);
        let (dq, da) = simrank_dense(&g, &cfg);
        prop_assert!(s.queries.max_abs_diff(&dq) < 1e-9);
        prop_assert!(s.ads.max_abs_diff(&da) < 1e-9);
    }

    #[test]
    fn simrank_monotone_in_iterations(g in arb_graph()) {
        let prev = plain(&g, &SimrankConfig::paper().with_iterations(2));
        let next = plain(&g, &SimrankConfig::paper().with_iterations(3));
        for (a, b, v) in next.queries.iter() {
            prop_assert!(v + 1e-12 >= prev.queries.get(a, b));
        }
        for (a, b, v) in next.ads.iter() {
            prop_assert!(v + 1e-12 >= prev.ads.get(a, b));
        }
    }

    #[test]
    fn simrank_decay_monotone(g in arb_graph(), c_low in 0.2f64..0.5, c_high in 0.6f64..0.95) {
        // Higher decay factors can only increase scores.
        let low = plain(&g, &SimrankConfig::paper().with_decay(c_low, c_low).with_iterations(4));
        let high = plain(&g, &SimrankConfig::paper().with_decay(c_high, c_high).with_iterations(4));
        for (a, b, v) in low.queries.iter() {
            prop_assert!(high.queries.get(a, b) + 1e-12 >= v);
        }
    }

    // ---------- Evidence invariants -------------------------------------

    #[test]
    fn evidence_bounded_and_monotone(n in 0usize..200) {
        let g = EvidenceKind::Geometric.value(n);
        let e = EvidenceKind::Exponential.value(n);
        prop_assert!((0.0..=1.0).contains(&g));
        prop_assert!((0.0..=1.0).contains(&e));
        if n > 0 {
            prop_assert!(EvidenceKind::Geometric.value(n + 1) >= g);
            prop_assert!(EvidenceKind::Exponential.value(n + 1) >= e);
        }
    }

    #[test]
    fn evidence_scores_never_exceed_raw(g in arb_graph(), k in 1usize..5) {
        let cfg = SimrankConfig::paper().with_iterations(k);
        let m = Method::compute(MethodKind::EvidenceSimrank, &g, &cfg);
        for (a, b, v) in m.final_scores(&g).iter() {
            prop_assert!(v <= m.stored_scores().get(a, b) + 1e-12);
        }
    }

    // ---------- Weighted SimRank invariants ------------------------------

    #[test]
    fn weighted_scores_in_unit_interval(g in arb_graph(), k in 1usize..5) {
        let cfg = SimrankConfig::paper()
            .with_iterations(k)
            .with_weight_kind(WeightKind::Clicks);
        let m = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        for (_, _, v) in m.final_scores(&g).iter() {
            prop_assert!(v > 0.0 && v <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn weighted_reduces_to_simrank_on_uniform_weights(k in 1usize..5) {
        // Any complete bipartite graph with equal weights: the weighted walk
        // must equal plain SimRank.
        let g = complete_bipartite(3, 4, EdgeData::from_clicks(7));
        let cfg = SimrankConfig::paper()
            .with_iterations(k)
            .with_weight_kind(WeightKind::Clicks);
        let uniform = plain(&g, &cfg);
        let weighted = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        prop_assert!(uniform.queries.max_abs_diff(weighted.stored_scores()) < 1e-12);
    }

    // ---------- Theorems 6.1 / 6.2 / 7.1 on random parameters ------------

    #[test]
    fn theorem_6_1(c1 in 0.05f64..1.0, c2 in 0.05f64..1.0, k in 1usize..30) {
        // K1,2 pair score ≥ K2,2 pair score at every iteration.
        let k12 = *km2_pair_iterates(1, c1, c2, k).last().unwrap();
        let k22 = *km2_pair_iterates(2, c1, c2, k).last().unwrap();
        prop_assert!(k12 + 1e-12 >= k22);
    }

    #[test]
    fn theorem_6_2_strict_ordering(m in 1usize..6, extra in 1usize..5, c in 0.1f64..0.99, k in 1usize..25) {
        let n = m + extra;
        let pm = *km2_pair_iterates(m, c, c, k).last().unwrap();
        let pn = *km2_pair_iterates(n, c, c, k).last().unwrap();
        prop_assert!(pm > pn, "K_{{{m},2}} ({pm}) must beat K_{{{n},2}} ({pn})");
    }

    #[test]
    fn theorem_6_2_limits(c in 0.1f64..0.999) {
        // With C < 1 the limits differ; they agree only at C = 1.
        let l1 = km2_pair_limit(1, c, c);
        let l2 = km2_pair_limit(2, c, c);
        prop_assert!(l1 > l2);
        let e1 = km2_pair_limit(1, 1.0, 1.0);
        let e2 = km2_pair_limit(2, 1.0, 1.0);
        prop_assert!((e1 - e2).abs() < 1e-12);
    }

    #[test]
    fn theorem_7_1_proved_case(c in 0.51f64..1.0, k in 2usize..25) {
        // Evidence reverses K1,2 vs K2,2 for C1,C2 > 1/2 and k > 1.
        let p1 = *km2_evidence_pair_iterates(1, c, c, k, EvidenceKind::Geometric).last().unwrap();
        let p2 = *km2_evidence_pair_iterates(2, c, c, k, EvidenceKind::Geometric).last().unwrap();
        prop_assert!(p2 > p1);
    }

    #[test]
    fn km2_recurrence_matches_engine(m in 1usize..5, k in 1usize..5) {
        let g = complete_bipartite(m, 2, EdgeData::from_clicks(1));
        let cfg = SimrankConfig::paper().with_iterations(k);
        let engine = plain(&g, &cfg).ads.get(0, 1);
        let closed = *km2_pair_iterates(m, 0.8, 0.8, k).last().unwrap();
        prop_assert!((engine - closed).abs() < 1e-12);
    }

    // ---------- Pearson invariants ---------------------------------------

    #[test]
    fn pearson_bounded_and_symmetric(g in arb_graph()) {
        for q1 in g.queries() {
            for q2 in g.queries() {
                let v = pearson_similarity(&g, q1, q2, WeightKind::Clicks);
                prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&v));
                let w = pearson_similarity(&g, q2, q1, WeightKind::Clicks);
                prop_assert!((v - w).abs() < 1e-12);
            }
        }
    }

    // ---------- Text invariants -------------------------------------------

    #[test]
    fn stemmer_never_grows_words(word in "[a-z]{3,20}") {
        prop_assert!(stem(&word).len() <= word.len() + 1, "stem may add at most the 1b 'e'");
    }

    #[test]
    fn stemmer_idempotent(word in "[a-z]{3,15}") {
        let once = stem(&word);
        prop_assert_eq!(stem(&once), once.clone(), "stem(stem(w)) != stem(w) for {}", word);
    }

    #[test]
    fn plural_s_collapses(word in "[a-z]{4,12}") {
        // For words not already ending in s/e oddities, w and w+"s" share a
        // signature.
        prop_assume!(!word.ends_with('s') && !word.ends_with('e') && !word.ends_with('y'));
        prop_assert_eq!(stem_signature(&word), stem_signature(&format!("{word}s")));
    }

    #[test]
    fn normalization_idempotent(raw in "[ a-zA-Z0-9,.!-]{0,40}") {
        let once = normalize_query(&raw);
        prop_assert_eq!(normalize_query(&once), once.clone());
    }

    // ---------- Graph invariants -------------------------------------------

    #[test]
    fn graph_always_validates(g in arb_graph()) {
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn common_ads_symmetric_and_bounded(g in arb_graph()) {
        for q1 in g.queries() {
            for q2 in g.queries() {
                let c = g.common_ads(q1, q2);
                prop_assert_eq!(c, g.common_ads(q2, q1));
                prop_assert!(c <= g.query_degree(q1).min(g.query_degree(q2)));
            }
        }
    }
}
