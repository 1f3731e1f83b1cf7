//! Sparse-engine ⇔ dense-oracle equivalence for every transition the unified
//! kernel supports, with `prune_threshold = 0` (the exactness contract).
//!
//! Fixtures: the paper's Figure 3 graph, the K2,2 complete-bipartite fixture,
//! and a seeded `synth` random graph — plain and weighted, spread on and off.

use simrankpp::core::engine::{self, reference, UniformTransition, WeightedTransition};
use simrankpp::core::simrank::{simrank, simrank_dense};
use simrankpp::core::weighted::{weighted_simrank_dense, weighted_simrank_with_spread, SpreadMode};
use simrankpp::core::EvidenceKind;
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
