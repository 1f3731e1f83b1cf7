//! Differential harness for the engine's one propagation kernel.
//!
//! The engine runs the pull kernel (row-parallel Gustavson SpGEMM,
//! `engine::pull`). This suite pins its contracts:
//!
//! * pull agrees with the independent sparse reference
//!   `engine::reference::run_hashmap` (push into a hash map — no code shared
//!   with pull beyond the transition factors) on every generated graph:
//!   identical stored pair sets and scores to rounding at
//!   `prune_threshold = 0` (summation *orders* differ, so equality is to f64
//!   rounding, not bits), for uniform and weighted transitions;
//! * with pruning the two agree on every co-stored pair, and any pair-set
//!   difference is confined to knife-edge values at the threshold (a
//!   per-value `v > t` decision on values that differ only in rounding);
//! * the pull kernel is **bit-deterministic across thread counts** — worker
//!   chunk boundaries never touch a row's accumulation order;
//! * the incremental index refresh (per-dirty-component pull runs) equals a
//!   from-scratch build bit for bit, and thread-count invariance holds
//!   **above 2²⁰ scatter contributions per half-step** — the scale at which
//!   a buffer-sort-merge kernel has to flush partial runs and so
//!   reassociates a pair's partial sums differently per chunking. The pull
//!   kernel materializes no contributions; this is the regression test that
//!   chunking changes nothing at that scale either.

#[allow(dead_code)]
mod support;

use proptest::prelude::*;
use simrankpp::core::engine::reference::run_hashmap;
use simrankpp::core::engine::{self, DiagonalCorrection, Walk, WeightedTransition};
use simrankpp::core::weighted::SpreadMode;
use simrankpp::core::ScoreMatrix;
use simrankpp::graph::delta::GraphDelta;
use simrankpp::prelude::*;
use simrankpp::serve::RewriteIndex;
use support::{cfg, synth_graph};

fn assert_bit_identical(a: &ScoreMatrix, b: &ScoreMatrix, what: &str) {
    assert_eq!(a.n_pairs(), b.n_pairs(), "{what}: pair count");
    for ((a1, b1, v1), (a2, b2, v2)) in a.iter().zip(b.iter()) {
        assert_eq!((a1, b1), (a2, b2), "{what}: pair set diverged");
        assert_eq!(
            v1.to_bits(),
            v2.to_bits(),
            "{what}: pair ({a1}, {b1}) drifted: {v1:e} vs {v2:e}"
        );
    }
}

/// Same pair set, scores equal to `tol` — the pull-vs-reference contract at
/// `prune_threshold = 0`, where no knife-edge drops are possible.
fn assert_same_support_close(a: &ScoreMatrix, b: &ScoreMatrix, tol: f64, what: &str) {
    assert_eq!(a.n_pairs(), b.n_pairs(), "{what}: pair count");
    for ((a1, b1, v1), (a2, b2, v2)) in a.iter().zip(b.iter()) {
        assert_eq!((a1, b1), (a2, b2), "{what}: pair set diverged");
        assert!(
            (v1 - v2).abs() < tol,
            "{what}: pair ({a1}, {b1}) drifted by {:e}",
            (v1 - v2).abs()
        );
    }
}

/// With pruning, pull and the reference may disagree only on knife-edge pairs: co-stored
/// pairs match to `tol`, union-only pairs sit within rounding of the
/// threshold itself.
fn assert_close_modulo_prune(a: &ScoreMatrix, b: &ScoreMatrix, prune: f64, tol: f64, what: &str) {
    for (x, y, v) in a.iter() {
        let other = b.get(x, y);
        if other == 0.0 {
            assert!(
                (v - prune).abs() < prune * 1e-9 + tol,
                "{what}: pair ({x}, {y}) = {v:e} missing from other side, not knife-edge"
            );
        } else {
            assert!((v - other).abs() < tol, "{what}: pair ({x}, {y}) drifted");
        }
    }
    for (x, y, v) in b.iter() {
        if a.get(x, y) == 0.0 {
            assert!(
                (v - prune).abs() < prune * 1e-9 + tol,
                "{what}: pair ({x}, {y}) = {v:e} missing from other side, not knife-edge"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pull_matches_hashmap_reference_unpruned(
        n_topics in 1usize..5,
        n_queries in 30usize..110,
        seed in 0u64..1_000_000,
        dense_sel in 0u8..2,
    ) {
        let g = synth_graph(n_topics, n_queries, seed, dense_sel == 1);
        let t = Walk::Weighted(WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential });
        let c = cfg(5);
        let (pull_u, ref_u) = (engine::run(&g, &c, &Walk::Uniform), run_hashmap(&g, &c, &Walk::Uniform));
        assert_same_support_close(&pull_u.queries, &ref_u.queries, 1e-12, "uniform queries");
        assert_same_support_close(&pull_u.ads, &ref_u.ads, 1e-12, "uniform ads");
        let (pull_w, ref_w) = (engine::run(&g, &c, &t), run_hashmap(&g, &c, &t));
        assert_same_support_close(&pull_w.queries, &ref_w.queries, 1e-12, "weighted queries");
        assert_same_support_close(&pull_w.ads, &ref_w.ads, 1e-12, "weighted ads");
    }

    #[test]
    fn kernels_agree_modulo_knife_edge_when_pruned(
        n_queries in 40usize..120,
        seed in 0u64..1_000_000,
    ) {
        // "Kernels": the pull kernel and the reference's hash-map half-step.
        let g = synth_graph(3, n_queries, seed, true);
        let prune = 1e-4;
        let c = cfg(6).with_prune_threshold(prune);
        let pull = engine::run(&g, &c, &Walk::Uniform);
        let reference = run_hashmap(&g, &c, &Walk::Uniform);
        assert_close_modulo_prune(&pull.queries, &reference.queries, prune, 1e-12, "pruned queries");
        assert_close_modulo_prune(&pull.ads, &reference.ads, prune, 1e-12, "pruned ads");
    }

    #[test]
    fn pull_is_bit_deterministic_across_thread_counts(
        n_queries in 60usize..140,
        seed in 0u64..1_000_000,
        pruned_sel in 0u8..2,
    ) {
        let g = synth_graph(3, n_queries, seed, true);
        let prune = if pruned_sel == 1 { 1e-5 } else { 0.0 };
        let base = cfg(5).with_prune_threshold(prune);
        let t = Walk::Weighted(WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential });
        let serial_u = engine::run(&g, &base, &Walk::Uniform);
        let serial_w = engine::run(&g, &base, &t);
        for threads in [2usize, 5] {
            let par_u = engine::run(&g, &base.with_threads(threads), &Walk::Uniform);
            assert_bit_identical(&serial_u.queries, &par_u.queries, "uniform queries");
            assert_bit_identical(&serial_u.ads, &par_u.ads, "uniform ads");
            prop_assert_eq!(&serial_u.pair_counts, &par_u.pair_counts);
            let par_w = engine::run(&g, &base.with_threads(threads), &t);
            assert_bit_identical(&serial_w.queries, &par_w.queries, "weighted queries");
        }
    }

    #[test]
    fn pull_incremental_refresh_stays_bitwise(
        n_topics in 2usize..5,
        n_queries in 40usize..100,
        seed in 0u64..1_000_000,
    ) {
        // Incremental index refresh == from-scratch build, bit for bit, on
        // the same generated graphs the cases above use (the dedicated
        // suite, `incremental_equivalence`, exercises this path in depth).
        let g = synth_graph(n_topics, n_queries, seed, false);
        let c = cfg(5);
        let mut d = GraphDelta::new();
        d.upsert(QueryId(0), AdId(1), EdgeData::from_clicks(3));
        let g1 = d.apply(&g);
        let dirty = d.dirty_components(&g1);
        let build = |g: &ClickGraph| {
            let method = Method::compute(MethodKind::Simrank, g, &c);
            RewriteIndex::build(&Rewriter::new(g, method, RewriterConfig::default()), None, 1)
        };
        let (inc, _) = build(&g)
            .rebuild_incremental(&g1, &dirty, &c, &RewriterConfig::default(), None)
            .unwrap();
        let scratch = build(&g1);
        for q in g1.queries() {
            let (got, want) = (inc.rewrites_of(q), scratch.rewrites_of(q));
            prop_assert_eq!(got.ids(), want.ids(), "incremental targets of {}", q);
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got.scores()), bits(want.scores()), "incremental scores of {}", q);
        }
    }
}

/// Seeded multi-blob bipartite graph dense enough that one Jacobi half-step
/// generates more than 2²⁰ scatter contributions.
fn dense_blobs(blocks: u32, q_per: u32, a_per: u32, deg: u32, seed: u64) -> ClickGraph {
    let mut b = ClickGraphBuilder::new();
    let mut x = seed | 1;
    for blk in 0..blocks {
        let (qo, ao) = (blk * q_per, blk * a_per);
        for q in 0..q_per {
            for _ in 0..deg {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b.add_edge(
                    QueryId(qo + q),
                    AdId(ao + ((x >> 33) % a_per as u64) as u32),
                    EdgeData::from_clicks(1 + (x % 7)),
                );
            }
        }
    }
    b.build()
}

/// Exact scatter-contribution count of the next query-side half-step:
/// `Σ_{(i,j) stored ad pairs} N(i)·N(j) + Σ_i C(N(i), 2)` — what a scatter
/// kernel would have to buffer, sort, and merge.
fn query_side_contributions(g: &ClickGraph, ads: &ScoreMatrix) -> usize {
    let stored: usize = ads
        .iter()
        .map(|(i, j, _)| g.ad_degree(AdId(i)) * g.ad_degree(AdId(j)))
        .sum();
    let diagonal: usize = (0..g.n_ads())
        .map(|a| {
            let d = g.ad_degree(AdId(a as u32));
            d * (d - 1) / 2
        })
        .sum();
    stored + diagonal
}

#[test]
fn pull_kernel_is_thread_count_free_above_the_old_flush_threshold() {
    // Two components, each alone pushing a half-step past 2^20
    // contributions — the regime where a buffer-sort-merge kernel flushes
    // partial runs whose boundaries move with thread count, reassociating a
    // pair's partial sums. The pull kernel never materializes contributions,
    // so chunking must change nothing: bit-identical across thread counts.
    let g = dense_blobs(2, 220, 70, 12, 0xC0FFEE);
    let c = SimrankConfig::paper().with_iterations(3);
    let serial = engine::run(&g, &c, &Walk::Uniform);
    assert!(
        query_side_contributions(&g, &serial.ads) > 1 << 20,
        "fixture must exceed 2^20 contributions, got {}",
        query_side_contributions(&g, &serial.ads)
    );

    for threads in [3usize, 8] {
        let par = engine::run(&g, &c.with_threads(threads), &Walk::Uniform);
        assert_bit_identical(&serial.queries, &par.queries, "threads queries");
        assert_bit_identical(&serial.ads, &par.ads, "threads ads");
    }
}

/// Rows that share their one neighbor and its factor, interleaved with
/// rows that do not, laid out so that worker chunks split every class.
///
/// Query `i` of 1 040 clicks hub ad `i mod 208` alone, except every fourth
/// (`i ≡ 3 mod 4`), which clicks the hub below its own and four private ads
/// `208 + i/4 + 260·m` (`m < 4`) that no other query clicks. So each hub's
/// single-ad queries sit 208 ids apart and each query's private ads 260
/// apart. With one worker every later member of a class copies an earlier
/// one; five workers' chunks (208 query rows, 250 ad rows) hold one member
/// of a class each, so those rows are computed; two workers mix the two.
/// The kernel splits rows into chunks only from 1 024 rows up, hence the
/// size.
fn shared_rows_graph() -> ClickGraph {
    let (hubs, queries, multi) = (208u32, 1040u32, 260u32);
    let mut b = ClickGraphBuilder::new();
    for i in 0..queries {
        let clicks = |m: u32| EdgeData::from_clicks(1 + u64::from((i * 7 + m) % 5));
        if i % 4 != 3 {
            b.add_edge(QueryId(i), AdId(i % hubs), clicks(0));
            continue;
        }
        b.add_edge(QueryId(i), AdId((i - 1) % hubs), clicks(0));
        for m in 0..4 {
            b.add_edge(QueryId(i), AdId(hubs + i / 4 + multi * m), clicks(m + 1));
        }
    }
    b.build()
}

#[test]
fn shared_rows_are_bit_identical_copied_or_computed() {
    let g = shared_rows_graph();
    assert_eq!((g.n_queries(), g.n_ads()), (1040, 1248));
    let weighted = Walk::Weighted(WeightedTransition {
        kind: WeightKind::Clicks,
        spread: SpreadMode::Exponential,
    });
    for walk in [Walk::Uniform, weighted] {
        for prune in [0.0, 1e-4] {
            let c = cfg(7).with_prune_threshold(prune);
            let serial = engine::run(&g, &c, &walk);
            let serial_d = DiagonalCorrection::whole_graph(&g, &c, &walk);
            assert!(serial.queries.n_pairs() > 0 && serial.ads.n_pairs() > 0);
            for threads in [2usize, 5] {
                let what = format!("{walk:?} prune {prune} threads {threads}");
                let c = c.with_threads(threads);
                let par = engine::run(&g, &c, &walk);
                assert_bit_identical(&serial.queries, &par.queries, &format!("{what}: queries"));
                assert_bit_identical(&serial.ads, &par.ads, &format!("{what}: ads"));
                assert_eq!(serial.pair_counts, par.pair_counts, "{what}");
                let par_d = DiagonalCorrection::whole_graph(&g, &c, &walk);
                assert_eq!(serial_d.levels.len(), par_d.levels.len(), "{what}");
                for (j, (a, b)) in serial_d.levels.iter().zip(&par_d.levels).enumerate() {
                    let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&a.d_query),
                        bits(&b.d_query),
                        "{what}: level {j} queries"
                    );
                    assert_eq!(bits(&a.d_ad), bits(&b.d_ad), "{what}: level {j} ads");
                }
            }
        }
    }
}
