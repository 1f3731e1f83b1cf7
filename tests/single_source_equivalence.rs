//! Differential harness for the on-demand single-source engine (ISSUE 6).
//!
//! The all-pairs engine is the oracle. The suite pins four contracts:
//!
//! * **Live row == engine row at the same config.** A row of
//!   `SingleSourceEngine::new(g, config, t)` is the row
//!   `engine::run(g, config, t).queries` stores for that query: to `1e-12`
//!   unpruned, for every `k ∈ 1..=8` (both parities of the unrolled series),
//!   the uniform and the weighted transitions, graphs with isolated nodes
//!   and 1×1 components included; to `1e-3` at the production
//!   `prune_threshold = 1e-4`, where engine and row truncate the same sum
//!   differently.
//! * **Live row bits are recorded.** An FNV digest of every row's
//!   `(id, score bits)` per graph × transition × `k` × prune cell, so a
//!   change of summation order fails even where it stays within tolerance.
//! * **Top-k ids are the matrix's off exact ties.** Single-source and
//!   all-pairs top-k carry the same scores rank for rank; two ids may trade
//!   places only where their scores tie to rounding.
//! * **Cache hits are byte-identical to cache misses, across generations.**
//!   The serve-side row cache stores rendered responses, so a warm answer
//!   can never drift from the cold answer that populated it — before or
//!   after an `update` hot-swap bumps the cache generation.

use proptest::prelude::*;
use simrankpp::core::engine::{self, Transition, UniformTransition, WeightedTransition};
use simrankpp::core::weighted::SpreadMode;
use simrankpp::core::{RowWorkspace, ScoreMatrix, SingleSourceEngine};
use simrankpp::prelude::*;
use simrankpp::synth::generator::{generate, GeneratorConfig};
use simrankpp::util::arena::{fnv1a, fnv1a_seeded};

fn synth_graph(n_topics: usize, n_queries: usize, seed: u64, dense: bool) -> ClickGraph {
    let mut gen = GeneratorConfig::tiny().with_seed(seed);
    gen.n_topics = n_topics;
    gen.n_queries = n_queries;
    gen.n_ads = (n_queries * 2 / 3).max(4);
    gen.max_ads_per_query = if dense { 12 } else { 4 };
    generate(&gen).graph
}

/// `g` plus what no component block covers: a 1×1 edge component and
/// isolated nodes on both sides.
fn with_trivial_components(g: &ClickGraph) -> ClickGraph {
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

/// The unpruned paper configuration at `k` iterations.
fn cfg(k: usize) -> SimrankConfig {
    SimrankConfig::paper()
        .with_iterations(k)
        .with_weight_kind(WeightKind::Clicks)
}

fn weighted_clicks() -> WeightedTransition {
    WeightedTransition {
        kind: WeightKind::Clicks,
        spread: SpreadMode::Exponential,
    }
}

/// Largest `|live row[other] − oracle[q, other]|` over every entry either
/// side stores (the self entry included), for every query `q`.
fn max_row_error(g: &ClickGraph, oracle: &ScoreMatrix, live: &SingleSourceEngine) -> f64 {
    let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
    let mut row = Vec::new();
    let mut worst = 0.0f64;
    for q in g.queries() {
        live.row_into(g, q, &mut ws, &mut row);
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

/// `max_row_error` of the production constructor against the engine run at
/// the same config.
fn live_vs_engine<T: Transition>(g: &ClickGraph, c: &SimrankConfig, t: &T) -> f64 {
    let run = engine::run(g, c, t);
    max_row_error(g, &run.queries, &SingleSourceEngine::new(g, c, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn live_rows_equal_engine_rows_at_the_same_config(
        n_topics in 1usize..4,
        n_queries in 24usize..72,
        seed in 0u64..1_000_000,
        k in 1usize..9,
        weighted_sel in 0u8..2,
    ) {
        let g = synth_graph(n_topics, n_queries, seed, false);
        let err = if weighted_sel == 1 {
            live_vs_engine(&g, &cfg(k), &weighted_clicks())
        } else {
            live_vs_engine(&g, &cfg(k), &UniformTransition)
        };
        prop_assert!(err <= 1e-12, "k = {}: live rows off by {:e}", k, err);
    }

    #[test]
    fn top_k_sets_agree_off_knife_edges(
        n_topics in 1usize..4,
        n_queries in 24usize..72,
        seed in 0u64..1_000_000,
    ) {
        let g = synth_graph(n_topics, n_queries, seed, true);
        let c = cfg(7);
        let run = engine::run(&g, &c, &UniformTransition);
        let eng = SingleSourceEngine::new(&g, &c, &UniformTransition);
        let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
        let tie = 1e-12;
        let mut ss = Vec::new();
        for q in g.queries() {
            eng.top_k_into(&g, q, 5, &mut ws, &mut ss);
            let ap = run.queries.top_k(q.0, 5);
            prop_assert_eq!(ss.len(), ap.len(), "query {}: depth", q.0);
            for (rank, (&(id_ss, s_ss), &(id_ap, s_ap))) in ss.iter().zip(&ap).enumerate() {
                prop_assert!(
                    (s_ss - s_ap).abs() <= tie,
                    "query {}: rank {} score {:.6} vs matrix {:.6}", q.0, rank, s_ss, s_ap
                );
                // A different id at the same rank must be an exact tie in
                // the matrix, which it breaks by id and the row by rounding.
                prop_assert!(
                    id_ss.0 == id_ap || (run.queries.get(q.0, id_ss.0) - s_ap).abs() <= tie,
                    "query {}: rank {} holds {} (matrix: {})", q.0, rank, id_ss.0, id_ap
                );
            }
        }
    }
}

/// The contract over the issue's 36 graph × transition cases, each graph
/// extended with a 1×1 component and isolated nodes: a live row is the index
/// row — `S^(k)` to `1e-12` unpruned for every `k ∈ 1..=8`, and within `1e-3`
/// of it at the pruned configs production runs.
#[test]
fn live_rows_equal_the_index_rows_they_replace() {
    fn check<T: Transition>(g: &ClickGraph, t: &T, what: &str) {
        for k in 1..=8 {
            let err = live_vs_engine(g, &cfg(k), t);
            assert!(err <= 1e-12, "{what}, k = {k}: live rows off by {err:e}");
        }
        for k in [5, 7] {
            let err = live_vs_engine(g, &cfg(k).with_prune_threshold(1e-4), t);
            assert!(
                err <= 1e-3,
                "{what}, k = {k}, pruned: live rows off by {err:e}"
            );
        }
    }
    for (n_topics, n_queries) in [(2, 40), (3, 72)] {
        for seed in [11u64, 0xBEEF, 777_777] {
            for dense in [false, true] {
                let g = with_trivial_components(&synth_graph(n_topics, n_queries, seed, dense));
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

/// FNV-1a over every query's live row, in query order: each row's length,
/// then its `(id, score bits)` entries in the order `row_into` returns them.
fn rows_digest<T: Transition>(g: &ClickGraph, c: &SimrankConfig, t: &T) -> u64 {
    let live = SingleSourceEngine::new(g, c, t);
    let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
    let mut row = Vec::new();
    let mut h = fnv1a(&[]);
    for q in g.queries() {
        live.row_into(g, q, &mut ws, &mut row);
        h = fnv1a_seeded(h, &(row.len() as u64).to_le_bytes());
        for &(id, score) in &row {
            h = fnv1a_seeded(h, &id.0.to_le_bytes());
            h = fnv1a_seeded(h, &score.to_bits().to_le_bytes());
        }
    }
    h
}

/// A recorded live-row cell: graph, uniform (else weighted expected click
/// rate) transition, `k`, prune and [`rows_digest`].
type RowPin = (&'static str, bool, usize, f64, u64);

/// Row bits recorded before the sweeps' accumulator changed: tolerances
/// alone would let a new summation order through. `sparse` and `dense` are
/// the small graphs of the contract test below; `wide` has 1 200 queries, so
/// its rows span both short and long runs of 64-id words.
#[rustfmt::skip]
const ROW_PINS: [RowPin; 24] = [
    ("sparse", true, 5, 0.0, 0x07d3ae032a8a3ba9),
    ("sparse", true, 5, 1e-4, 0x197e81f66d20a530),
    ("sparse", true, 7, 0.0, 0x6ba4261ce56a1581),
    ("sparse", true, 7, 1e-4, 0xfcd9d47c1e6859b8),
    ("sparse", false, 5, 0.0, 0xdda004bc730cda7e),
    ("sparse", false, 5, 1e-4, 0x05436d22af550579),
    ("sparse", false, 7, 0.0, 0x03d85dc0dbb30c11),
    ("sparse", false, 7, 1e-4, 0xa65045833dcde60b),
    ("dense", true, 5, 0.0, 0xec0de1aaa02d9927),
    ("dense", true, 5, 1e-4, 0xac8d9de8cecfd020),
    ("dense", true, 7, 0.0, 0x778ad01d2d65b8e2),
    ("dense", true, 7, 1e-4, 0x2246dad728852754),
    ("dense", false, 5, 0.0, 0xd9da390f75843a43),
    ("dense", false, 5, 1e-4, 0xf480d94ec4ffd1ef),
    ("dense", false, 7, 0.0, 0x6c852a849f6adc1b),
    ("dense", false, 7, 1e-4, 0x468336d0c75b132e),
    ("wide", true, 5, 0.0, 0x31b8e0a8484111d1),
    ("wide", true, 5, 1e-4, 0x7da6b2eaf2d60fd3),
    ("wide", true, 7, 0.0, 0xa85a97b247fe6967),
    ("wide", true, 7, 1e-4, 0xd9ae1d1a81f2b6ad),
    ("wide", false, 5, 0.0, 0x26625f79a02420ab),
    ("wide", false, 5, 1e-4, 0x782c273acb9f33a4),
    ("wide", false, 7, 0.0, 0x178ada51ed41804f),
    ("wide", false, 7, 1e-4, 0x6505fefcce3f2e49),
];

#[test]
fn live_row_bits_are_pinned() {
    let ecr = WeightedTransition {
        kind: WeightKind::ExpectedClickRate,
        spread: SpreadMode::Exponential,
    };
    let sparse = with_trivial_components(&synth_graph(2, 40, 11, false));
    let dense = with_trivial_components(&synth_graph(3, 72, 0xBEEF, true));
    let wide = synth_graph(6, 1200, 5, false);
    for (name, uniform, k, prune, digest) in ROW_PINS {
        let g = match name {
            "sparse" => &sparse,
            "dense" => &dense,
            _ => &wide,
        };
        let c = cfg(k).with_prune_threshold(prune);
        let got = if uniform {
            rows_digest(g, &c, &UniformTransition)
        } else {
            rows_digest(g, &c, &ecr)
        };
        assert_eq!(got, digest, "{name} uniform={uniform} k={k} prune={prune}");
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
