//! Sparse-engine ⇔ dense-oracle equivalence for every transition the unified
//! kernel supports, with `prune_threshold = 0` (the exactness contract).
//!
//! Fixtures: the paper's Figure 3 graph, the K2,2 complete-bipartite fixture,
//! and a seeded `synth` random graph — plain and weighted, spread on and off.

use simrankpp::core::engine::{
    self, reference, DiagonalCorrection, UniformTransition, WeightedTransition,
};
use simrankpp::core::evidence::evidence_simrank;
use simrankpp::core::simrank::{simrank, simrank_dense};
use simrankpp::core::weighted::{
    weighted_simrank, weighted_simrank_dense, weighted_simrank_with_spread, SpreadMode,
};
use simrankpp::core::{EvidenceKind, ScoreMatrix};
use simrankpp::graph::fixtures::{figure3_graph, figure4_k22};
use simrankpp::prelude::*;
use simrankpp::synth::generator::{generate, GeneratorConfig};

fn fixtures() -> Vec<(&'static str, ClickGraph)> {
    let synth = generate(&GeneratorConfig::tiny()).graph;
    vec![
        ("figure3", figure3_graph()),
        ("k22", figure4_k22()),
        ("synth_tiny", synth),
    ]
}

fn cfg(k: usize) -> SimrankConfig {
    SimrankConfig::paper()
        .with_iterations(k)
        .with_prune_threshold(0.0)
        .with_weight_kind(WeightKind::Clicks)
}

#[test]
fn plain_sparse_matches_dense_on_all_fixtures() {
    for (name, g) in fixtures() {
        for k in [1, 3, 6] {
            let s = simrank(&g, &cfg(k));
            let d = simrank_dense(&g, &cfg(k));
            let dq = s.queries.max_abs_diff(&d.queries);
            let da = s.ads.max_abs_diff(&d.ads);
            assert!(dq < 1e-10, "{name} k={k}: query drift {dq}");
            assert!(da < 1e-10, "{name} k={k}: ad drift {da}");
        }
    }
}

#[test]
fn weighted_sparse_matches_dense_spread_on_and_off() {
    for (name, g) in fixtures() {
        for spread in [SpreadMode::Exponential, SpreadMode::Off] {
            for k in [1, 4] {
                let s = weighted_simrank_with_spread(&g, &cfg(k), EvidenceKind::Geometric, spread);
                let (dq_mat, da_mat) = weighted_simrank_dense(&g, &cfg(k), spread);
                let dq = s.raw.queries.max_abs_diff(&dq_mat);
                let da = s.raw.ads.max_abs_diff(&da_mat);
                assert!(dq < 1e-10, "{name} {spread:?} k={k}: query drift {dq}");
                assert!(da < 1e-10, "{name} {spread:?} k={k}: ad drift {da}");
            }
        }
    }
}

#[test]
fn weighted_with_uniform_weights_equals_plain_engine() {
    // Equal edge weights collapse W(q,i) to 1/N(q): the two transitions must
    // produce identical scores on the complete-bipartite fixture.
    let g = figure4_k22();
    let plain = simrank(&g, &cfg(5));
    let weighted = weighted_simrank_with_spread(
        &g,
        &cfg(5),
        EvidenceKind::Geometric,
        SpreadMode::Exponential,
    );
    assert!(plain.queries.max_abs_diff(&weighted.raw.queries) < 1e-14);
    assert!(plain.ads.max_abs_diff(&weighted.raw.ads) < 1e-14);
}

#[test]
fn engine_matches_hashmap_reference_on_all_fixtures() {
    // The engine (pull kernel) and the independent hash-map reference must
    // agree to rounding for both transitions on every fixture.
    for (name, g) in fixtures() {
        let c = cfg(5);
        let engine_u = engine::run(&g, &c, &UniformTransition);
        let hash_u = reference::run_hashmap(&g, &c, &UniformTransition);
        assert!(
            engine_u.queries.max_abs_diff(&hash_u.queries) < 1e-12,
            "{name}: uniform drift {}",
            engine_u.queries.max_abs_diff(&hash_u.queries)
        );
        let t = WeightedTransition {
            kind: WeightKind::Clicks,
            spread: SpreadMode::Exponential,
        };
        let engine_w = engine::run(&g, &c, &t);
        let hash_w = reference::run_hashmap(&g, &c, &t);
        assert!(
            engine_w.queries.max_abs_diff(&hash_w.queries) < 1e-12,
            "{name}: weighted drift {}",
            engine_w.queries.max_abs_diff(&hash_w.queries)
        );
        assert!(engine_w.ads.max_abs_diff(&hash_w.ads) < 1e-12);
    }
}

#[test]
fn diagnostics_shape_is_uniform_across_variants() {
    // Both variants run the same engine, so their diagnostics have the same
    // shape: one (pair_counts, max_delta) entry per executed iteration.
    let g = figure3_graph();
    let plain = simrank(&g, &cfg(6));
    let weighted = weighted_simrank_with_spread(
        &g,
        &cfg(6),
        EvidenceKind::Geometric,
        SpreadMode::Exponential,
    )
    .raw;
    for r in [&plain, &weighted] {
        assert_eq!(r.pair_counts.len(), 6);
        assert_eq!(r.max_deltas.len(), 6);
        assert_eq!(r.iterations_run, 6);
        assert!(
            r.max_deltas.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "deltas grow"
        );
    }
    // Uniform weights on Figure 3: the two variants see identical pair
    // support, so the stored-pair trajectories coincide.
    assert_eq!(plain.pair_counts, weighted.pair_counts);
}

/// A banded click graph: query `q` clicks two ads near `q·11/12`, with
/// varying clicks. One long component whose rows stay narrow at any `k`, and
/// more than 1024 nodes on each side, so a 3-thread half-step splits its rows.
fn banded_graph() -> ClickGraph {
    let mut b = ClickGraphBuilder::new();
    let mut x: u64 = 41;
    for q in 0..1200u32 {
        for _ in 0..2 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (q * 11 / 12 + (x >> 60) as u32 % 3).min(1099);
            b.add_edge(
                QueryId(q),
                AdId(a),
                EdgeData::from_clicks(1 + (x >> 33) % 4),
            );
        }
    }
    b.build()
}

fn bits(m: &ScoreMatrix) -> Vec<(u64, u64)> {
    m.sorted_pairs()
        .map(|(k, v)| (k.raw(), v.to_bits()))
        .collect()
}

fn level_bits(d: &DiagonalCorrection) -> Vec<(Vec<u64>, Vec<u64>)> {
    let side = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    d.levels
        .iter()
        .map(|l| (side(&l.d_query), side(&l.d_ad)))
        .collect()
}

/// `k ∈ 0..=8` × prune `{0, 1e-4}` × threads `{1, 3}` × tolerance
/// `{0, 1e-3}`.
fn query_side_grid() -> Vec<SimrankConfig> {
    let mut grid = Vec::new();
    for k in 0..=8 {
        for (prune, threads) in [(0.0, 1), (0.0, 3), (1e-4, 1), (1e-4, 3)] {
            for tolerance in [0.0, 1e-3] {
                let c = cfg(k).with_prune_threshold(prune).with_threads(threads);
                grid.push(c.with_tolerance(tolerance));
            }
        }
    }
    grid
}

#[test]
fn query_side_callers_equal_the_both_sides_run_bit_for_bit() {
    // `Method::compute` and `DiagonalCorrection::whole_graph` run only the
    // query chain of half-steps at tolerance 0 (both chains under a
    // tolerance); what they return must be the bits the both-sides run gives.
    // `simrank(..).queries` is `engine::run(.., &UniformTransition).queries`
    // and `weighted_simrank(..).raw.queries` the weighted run's, so these are
    // also the query-side scores against `engine::run`, both transitions.
    let weighted = WeightedTransition {
        kind: WeightKind::Clicks,
        spread: SpreadMode::Exponential,
    };
    for (name, g) in [("figure3", figure3_graph()), ("banded", banded_graph())] {
        for c in query_side_grid() {
            let cell = format!(
                "{name} k={} prune={} threads={} tol={}",
                c.iterations, c.prune_threshold, c.threads, c.tolerance
            );
            let m = Method::compute(MethodKind::Simrank, &g, &c);
            assert_eq!(bits(m.scores()), bits(&simrank(&g, &c).queries), "{cell}");
            assert!(m.raw_scores().is_none(), "{cell}");
            for (kind, both) in [
                (
                    MethodKind::EvidenceSimrank,
                    evidence_simrank(&g, &c, EvidenceKind::Geometric),
                ),
                (
                    MethodKind::WeightedSimrank,
                    weighted_simrank(&g, &c, EvidenceKind::Geometric),
                ),
            ] {
                let m = Method::compute(kind, &g, &c);
                let raw = m.raw_scores().expect("evidence kinds keep raw scores");
                assert_eq!(bits(m.scores()), bits(&both.queries), "{cell} {kind:?}");
                assert_eq!(bits(raw), bits(&both.raw.queries), "{cell} {kind:?}");
            }

            // Under a tolerance `whole_graph` records the both-sides run's
            // history; one below every nonzero delta never stops the run
            // early, so its levels are the full history's at this `k`.
            if c.tolerance == 0.0 {
                let full = c.with_tolerance(f64::MIN_POSITIVE);
                let uniform = DiagonalCorrection::whole_graph(&g, &c, &UniformTransition);
                let uniform_full = DiagonalCorrection::whole_graph(&g, &full, &UniformTransition);
                assert_eq!(level_bits(&uniform), level_bits(&uniform_full), "{cell}");
                let w = DiagonalCorrection::whole_graph(&g, &c, &weighted);
                let w_full = DiagonalCorrection::whole_graph(&g, &full, &weighted);
                assert_eq!(level_bits(&w), level_bits(&w_full), "{cell} weighted");
            }
        }
    }
}

#[test]
fn parallel_engine_matches_serial_on_synth_graph() {
    let mut gen = GeneratorConfig::tiny();
    gen.n_queries = 300;
    gen.n_ads = 200;
    let g = generate(&gen).graph;
    let serial = simrank(&g, &cfg(4));
    let parallel = simrank(&g, &cfg(4).with_threads(4));
    let drift = serial.queries.max_abs_diff(&parallel.queries);
    assert!(drift < 1e-9, "parallel drifted by {drift}");
    assert_eq!(serial.pair_counts, parallel.pair_counts);
}
