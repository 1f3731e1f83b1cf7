//! Differential harness for the on-demand single-source engine (ISSUE 6).
//!
//! The all-pairs engine is the oracle. The suite pins five contracts:
//!
//! * **Linearized row == all-pairs row.** With the diagonal correction read
//!   off a converged all-pairs run the linearized series reproduces every
//!   row of the converged matrix to series-truncation accuracy, for the
//!   uniform and the weighted transition alike — whether the test reads the
//!   correction itself or the production constructor
//!   (`SingleSourceEngine::new`, block-local) does.
//! * **A live row errs less than the index row it replaces.** At the
//!   `k`-iteration, pruned config production runs, the correction is
//!   `D^(k) ≥ D`: the live row over-estimates the converged score by no more
//!   than the offline index's `S^(k)` row under-estimates it, and by less
//!   than 0.02 at `k = 7`.
//! * **Monte-Carlo top-k tracks the exact scores.** The batched coupled-walk
//!   estimator (`mc_topk_into`) is unbiased for the random-surfer model, so
//!   with enough walks each reported estimate lands within a statistical
//!   bound of the converged engine score.
//! * **Top-k sets agree off knife edges.** Single-source and all-pairs
//!   top-k may legitimately swap candidates whose scores differ by less
//!   than the approximation error; any disagreement must be confined to
//!   that regime, and the sorted score sequences must match throughout.
//! * **Cache hits are byte-identical to cache misses, across generations.**
//!   The serve-side row cache stores rendered responses, so a warm answer
//!   can never drift from the cold answer that populated it — before or
//!   after an `update` hot-swap bumps the cache generation.

use proptest::prelude::*;
use simrankpp::core::engine::{self, Transition, UniformTransition, WeightedTransition};
use simrankpp::core::montecarlo::{mc_topk_into, McConfig};
use simrankpp::core::weighted::SpreadMode;
use simrankpp::core::{DiagonalCorrection, RowWorkspace, SingleSourceEngine};
use simrankpp::prelude::*;
use simrankpp::synth::generator::{generate, GeneratorConfig};

fn synth_graph(n_topics: usize, n_queries: usize, seed: u64, dense: bool) -> ClickGraph {
    let mut gen = GeneratorConfig::tiny().with_seed(seed);
    gen.n_topics = n_topics;
    gen.n_queries = n_queries;
    gen.n_ads = (n_queries * 2 / 3).max(4);
    gen.max_ads_per_query = if dense { 12 } else { 4 };
    generate(&gen).graph
}

/// A (near-)converged all-pairs configuration: the oracle every property
/// compares against. Unpruned, so no knife-edge pair drops.
fn oracle_cfg() -> SimrankConfig {
    SimrankConfig::paper()
        .with_iterations(60)
        .with_weight_kind(WeightKind::Clicks)
}

/// Asserts one single-source row equals the matrix row of a converged run,
/// in both directions (no spurious entries, none missing), to `tol`.
fn assert_row_close(
    oracle: &simrankpp::core::ScoreMatrix,
    q: QueryId,
    row: &[(QueryId, f64)],
    tol: f64,
    what: &str,
) {
    for &(other, score) in row {
        let want = oracle.get(q.0, other.0);
        assert!(
            (score - want).abs() < tol,
            "{what}: S({}, {}) = {score:.8}, oracle {want:.8}",
            q.0,
            other.0
        );
    }
    let (ids, scores) = oracle.row(q.0);
    for (&other, &want) in ids.iter().zip(scores) {
        let got = row
            .iter()
            .find(|&&(id, _)| id.0 == other)
            .map(|&(_, s)| s)
            .unwrap_or(0.0);
        assert!(
            (got - want).abs() < tol,
            "{what}: oracle pair ({}, {other}) = {want:.8} missing/drifted ({got:.8})",
            q.0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn linearized_rows_match_converged_all_pairs(
        n_topics in 1usize..4,
        n_queries in 24usize..72,
        seed in 0u64..1_000_000,
        weighted_sel in 0u8..2,
    ) {
        let g = synth_graph(n_topics, n_queries, seed, false);
        let c = oracle_cfg();
        let (run, factors) = if weighted_sel == 1 {
            let t = WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential };
            (engine::run(&g, &c, &t), t.factors(&g))
        } else {
            (engine::run(&g, &c, &UniformTransition), UniformTransition.factors(&g))
        };

        // Exact correction: the linearized series must reproduce the
        // converged matrix to series-truncation accuracy.
        let exact = DiagonalCorrection::from_scores(
            &g, &factors, c.c1, c.c2, &run.queries, &run.ads);
        let eng = SingleSourceEngine::with_correction(&c, factors, exact);
        let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
        let mut row = Vec::new();
        for q in g.queries() {
            eng.row_into(&g, q, &mut ws, &mut row);
            assert_row_close(&run.queries, q, &row, 1e-6, "exact-correction row");
        }

        // The production precompute, at the same converged config: its
        // block-local runs are that run, so it sits in the same envelope.
        let eng = if weighted_sel == 1 {
            let t = WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential };
            SingleSourceEngine::new(&g, &c, &t)
        } else {
            SingleSourceEngine::new(&g, &c, &UniformTransition)
        };
        for q in g.queries() {
            eng.row_into(&g, q, &mut ws, &mut row);
            assert_row_close(&run.queries, q, &row, 0.02, "engine-correction row");
        }
    }

    #[test]
    fn mc_topk_estimates_within_statistical_bounds(
        n_queries in 24usize..60,
        seed in 0u64..1_000_000,
        source in 0u32..24,
    ) {
        let g = synth_graph(2, n_queries, seed, false);
        let c = oracle_cfg();
        let run = engine::run(&g, &c, &UniformTransition);
        let q = QueryId(source % g.n_queries() as u32);
        let mc = McConfig { walks: 20_000, ..McConfig::default() };
        let mut top = Vec::new();
        mc_topk_into(&g, q, 10, &c, &mc, &mut top);
        // 20k coupled walks put the standard error well under 0.01; 0.05
        // also absorbs the max_steps truncation tail.
        for &(other, est) in &top {
            let want = run.queries.get(q.0, other.0);
            prop_assert!(
                (est - want).abs() < 0.05,
                "MC S({}, {}) = {est:.4}, oracle {want:.4}", q.0, other.0
            );
        }
    }

    #[test]
    fn top_k_sets_agree_off_knife_edges(
        n_topics in 1usize..4,
        n_queries in 24usize..72,
        seed in 0u64..1_000_000,
    ) {
        let g = synth_graph(n_topics, n_queries, seed, true);
        let c = oracle_cfg();
        let run = engine::run(&g, &c, &UniformTransition);
        let eng = SingleSourceEngine::new(&g, &c, &UniformTransition);
        let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
        let tol = 0.02;
        let k = 5;
        let mut ss = Vec::new();
        for q in g.queries() {
            eng.top_k_into(&g, q, k, &mut ws, &mut ss);
            let ap = run.queries.top_k(q.0, k);
            // Sorted score sequences must match even where near-ties swap ids.
            for (i, (&(_, s_ss), &(_, s_ap))) in ss.iter().zip(&ap).enumerate() {
                prop_assert!(
                    (s_ss - s_ap).abs() < tol,
                    "query {}: rank {i} score {s_ss:.6} vs oracle {s_ap:.6}", q.0
                );
            }
            // Any membership difference must be a knife edge: the oracle
            // score of the disputed id within `tol` of the k-th score.
            let threshold = ap.last().map(|&(_, s)| s).unwrap_or(0.0);
            for &(id, _) in &ss {
                if !ap.iter().any(|&(other, _)| other == id.0) {
                    let oracle_score = run.queries.get(q.0, id.0);
                    prop_assert!(
                        (oracle_score - threshold).abs() < tol,
                        "query {}: single-source pick {} (oracle {oracle_score:.6}) is \
                         not knife-edge vs k-th score {threshold:.6}", q.0, id.0
                    );
                }
            }
        }
    }
}

/// Largest `|row[other] − oracle[q, other]|` over every entry either side
/// stores, for every query `q`, with `row_of(q)` supplying the rows.
fn max_error_against(
    g: &ClickGraph,
    oracle: &simrankpp::core::ScoreMatrix,
    mut row_of: impl FnMut(QueryId) -> Vec<(QueryId, f64)>,
) -> f64 {
    let mut worst = 0.0f64;
    for q in g.queries() {
        let row = row_of(q);
        for &(other, got) in &row {
            worst = worst.max((got - oracle.get(q.0, other.0)).abs());
        }
        let (ids, scores) = oracle.row(q.0);
        for (&other, &want) in ids.iter().zip(scores) {
            if !row.iter().any(|&(id, _)| id.0 == other) {
                worst = worst.max(want);
            }
        }
    }
    worst
}

/// The accuracy envelope of the production correction `D^(k)`: against the
/// 60-iteration unpruned oracle a live row is never further off than the
/// `S^(k)` row the same config puts in the offline index, and within 0.02
/// at the benchmark's `k = 7`.
#[test]
fn live_rows_err_less_than_the_index_rows_they_replace() {
    fn check<T: Transition>(g: &ClickGraph, t: &T, what: &str) {
        let oracle = engine::run(g, &oracle_cfg(), t).queries;
        for k in [5usize, 7] {
            let c = oracle_cfg().with_iterations(k).with_prune_threshold(1e-4);
            let index = engine::run(g, &c, t).queries;
            let index_err = max_error_against(g, &oracle, |q| {
                let (ids, scores) = index.row(q.0);
                ids.iter()
                    .map(|&i| QueryId(i))
                    .zip(scores.iter().copied())
                    .collect()
            });
            let live = SingleSourceEngine::new(g, &c, t);
            let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
            let live_err = max_error_against(g, &oracle, |q| {
                let mut row = Vec::new();
                live.row_into(g, q, &mut ws, &mut row);
                row.retain(|&(other, _)| other != q);
                row
            });
            // 1e-6 is the series-truncation accuracy of the exact-correction
            // contract above: where every score is ~0 (exp(−variance) spread
            // on wildly varying clicks) both errors sit at that floor.
            assert!(
                live_err <= index_err + 1e-6,
                "{what}, k = {k}: live rows off by {live_err:.6}, S^({k}) rows by {index_err:.6}"
            );
            if k == 7 {
                assert!(
                    live_err < 0.02,
                    "{what}, k = 7: live rows off by {live_err:.6}"
                );
            }
        }
    }
    for (n_topics, n_queries) in [(2, 40), (3, 72)] {
        for seed in [11u64, 0xBEEF, 777_777] {
            for dense in [false, true] {
                let g = synth_graph(n_topics, n_queries, seed, dense);
                let what =
                    format!("{n_topics} topics, {n_queries} queries, seed {seed}, dense {dense}");
                check(&g, &UniformTransition, &format!("uniform, {what}"));
                for kind in [WeightKind::Clicks, WeightKind::ExpectedClickRate] {
                    let t = WeightedTransition {
                        kind,
                        spread: SpreadMode::Exponential,
                    };
                    check(&g, &t, &format!("weighted {kind:?}, {what}"));
                }
            }
        }
    }
}

mod serve_cache {
    use super::*;
    use simrankpp::serve::{serve_session, IndexMeta, LiveContext, RewriteIndex, ServeState};

    /// Cold answer == warm answer, byte for byte, in the starting generation
    /// AND in the generation an `update` hot-swap creates.
    #[test]
    fn cache_hits_are_byte_identical_across_generations() {
        let g = synth_graph(2, 40, 0xBEEF, false);
        let cfg = SimrankConfig::paper().with_weight_kind(WeightKind::Clicks);
        let meta = IndexMeta {
            method: MethodKind::WeightedSimrank,
            max_rewrites: 5,
            bid_filtered: false,
            approx_sharding: false,
            kernel: cfg.kernel,
            segments: 0,
        };
        let names: Vec<String> = g
            .queries()
            .take(6)
            .filter_map(|q| g.query_name(q).map(str::to_owned))
            .collect();
        assert!(!names.is_empty(), "synthetic graph must carry query names");
        let q0 = g.query_name(QueryId(0)).unwrap().to_owned();
        let a0 = g.ad_name(AdId(0)).unwrap_or("fresh-ad").to_owned();
        let live = LiveContext::new(
            g,
            MethodKind::WeightedSimrank,
            cfg,
            RewriterConfig::default(),
        )
        .unwrap();
        let state = ServeState::fixed(RewriteIndex::empty(meta)).with_live(live, 64);

        let serve = |input: &str| -> Vec<String> {
            let mut out = Vec::new();
            serve_session(&state, input.as_bytes(), &mut out).unwrap();
            String::from_utf8(out)
                .unwrap()
                .lines()
                .map(str::to_owned)
                .collect()
        };

        // Generation 0: every query cold, then warm — identical lines.
        for name in &names {
            let req = format!("rewrite {name}\nrewrite {name}\n");
            let lines = serve(&req);
            assert_eq!(lines[0], lines[1], "gen 0: warm answer drifted for {name}");
            assert!(lines[0].starts_with("ok\t"), "{}", lines[0]);
        }

        // Hot-swap a delta in; the cache generation bumps and the new
        // generation upholds the same byte-identity.
        let delta_path = std::env::temp_dir().join("simrankpp_ss_equiv_delta.tsv");
        std::fs::write(&delta_path, format!("+\t{q0}\t{a0}\t50\t40\t0.8\n")).unwrap();
        let lines = serve(&format!("update {}\n", delta_path.display()));
        std::fs::remove_file(&delta_path).ok();
        assert!(lines[0].starts_with("updated\t"), "{}", lines[0]);

        for name in &names {
            let req = format!("rewrite {name}\nrewrite {name}\n");
            let lines = serve(&req);
            assert_eq!(lines[0], lines[1], "gen 1: warm answer drifted for {name}");
        }
    }
}
