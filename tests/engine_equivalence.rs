//! Sparse-engine ⇔ dense-oracle equivalence for every transition the unified
//! kernel supports, with `prune_threshold = 0` (the exactness contract).
//!
//! Fixtures: the paper's Figure 3 graph, the K2,2 complete-bipartite fixture,
//! and a seeded `synth` random graph — plain and weighted, spread on and off.

use simrankpp::core::engine::{
    self, reference, DiagonalCorrection, EngineRun, Walk, WeightedTransition,
};
use simrankpp::core::evidence::evidence_multiply;
use simrankpp::core::simrank::simrank_dense;
use simrankpp::core::weighted::{weighted_simrank_dense, SpreadMode};
use simrankpp::core::{EvidenceKind, ScoreMatrix};
use simrankpp::graph::fixtures::{figure3_graph, figure4_k22};
use simrankpp::prelude::*;
use simrankpp::synth::generator::{generate, GeneratorConfig};
use simrankpp::util::arena::{fnv1a, fnv1a_seeded};

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

/// Both sides of the uniform walk (§4).
fn uniform(g: &ClickGraph, c: &SimrankConfig) -> EngineRun {
    engine::run(g, c, &Walk::Uniform)
}

/// Both sides of the weighted walk (§8.2) over `c.weight_kind`.
fn weighted(g: &ClickGraph, c: &SimrankConfig, spread: SpreadMode) -> EngineRun {
    let kind = c.weight_kind;
    engine::run(g, c, &Walk::Weighted(WeightedTransition { kind, spread }))
}

#[test]
fn plain_sparse_matches_dense_on_all_fixtures() {
    for (name, g) in fixtures() {
        for k in [1, 3, 6] {
            let s = uniform(&g, &cfg(k));
            let (dq_mat, da_mat) = simrank_dense(&g, &cfg(k));
            let dq = s.queries.max_abs_diff(&dq_mat);
            let da = s.ads.max_abs_diff(&da_mat);
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
                let s = weighted(&g, &cfg(k), spread);
                let (dq_mat, da_mat) = weighted_simrank_dense(&g, &cfg(k), spread);
                let dq = s.queries.max_abs_diff(&dq_mat);
                let da = s.ads.max_abs_diff(&da_mat);
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
    let plain = uniform(&g, &cfg(5));
    let weighted = weighted(&g, &cfg(5), SpreadMode::Exponential);
    assert!(plain.queries.max_abs_diff(&weighted.queries) < 1e-14);
    assert!(plain.ads.max_abs_diff(&weighted.ads) < 1e-14);
}

#[test]
fn engine_matches_hashmap_reference_on_all_fixtures() {
    // The engine (pull kernel) and the independent hash-map reference must
    // agree to rounding for both transitions on every fixture.
    for (name, g) in fixtures() {
        let c = cfg(5);
        let engine_u = engine::run(&g, &c, &Walk::Uniform);
        let hash_u = reference::run_hashmap(&g, &c, &Walk::Uniform);
        assert!(
            engine_u.queries.max_abs_diff(&hash_u.queries) < 1e-12,
            "{name}: uniform drift {}",
            engine_u.queries.max_abs_diff(&hash_u.queries)
        );
        let t = Walk::Weighted(WeightedTransition {
            kind: WeightKind::Clicks,
            spread: SpreadMode::Exponential,
        });
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
    // shape: one pair_counts entry per executed iteration, and under a
    // tolerance one max_delta per query-side check (t = 2, 4, 6).
    let g = figure3_graph();
    let config = cfg(6).with_tolerance(1e-15);
    let plain = uniform(&g, &config);
    let weighted = weighted(&g, &config, SpreadMode::Exponential);
    for r in [&plain, &weighted] {
        assert_eq!(r.pair_counts.len(), 6);
        assert_eq!(r.max_deltas.len(), 3);
        assert_eq!(r.iterations_run, 6);
        assert!(
            r.max_deltas.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "deltas grow"
        );
    }
    assert!(uniform(&g, &cfg(6)).max_deltas.is_empty());
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

/// `k ∈ 0..=8` × prune `{0, 1e-4}` × threads `{1, 3}`.
fn query_side_grid() -> Vec<SimrankConfig> {
    let mut grid = Vec::new();
    for k in 0..=8 {
        for (prune, threads) in [(0.0, 1), (0.0, 3), (1e-4, 1), (1e-4, 3)] {
            grid.push(cfg(k).with_prune_threshold(prune).with_threads(threads));
        }
    }
    grid
}

fn cell(name: &str, c: &SimrankConfig) -> String {
    format!(
        "{name} k={} prune={} threads={} tol={}",
        c.iterations, c.prune_threshold, c.threads, c.tolerance
    )
}

#[test]
fn query_side_callers_equal_the_both_sides_run_bit_for_bit() {
    // `Method` runs only the query chain of half-steps; what it stores must
    // be the query side of `engine::run` over the same walk, and what it
    // reads out the query side of `evidence_multiply` over that run. The
    // paper's kinds go through `Method::compute`; the spread-off walk and
    // the Eq. 7.4 evidence formula (the `ablation-spread` and
    // `ablation-evidence` cells) through `Method::compute_with`.
    use EvidenceKind::{Exponential, Geometric};
    for (name, g) in [("figure3", figure3_graph()), ("banded", banded_graph())] {
        for c in query_side_grid() {
            let cell = cell(name, &c);
            let plain = uniform(&g, &c);
            let m = Method::compute(MethodKind::Simrank, &g, &c);
            assert_eq!(bits(m.stored_scores()), bits(&plain.queries), "{cell}");
            assert_eq!(m.evidence(), None, "{cell}");
            let spread_on = weighted(&g, &c, SpreadMode::Exponential);
            let spread_off = weighted(&g, &c, SpreadMode::Off);
            for (kind, evidence, spread, run) in [
                (
                    MethodKind::EvidenceSimrank,
                    Geometric,
                    SpreadMode::Exponential,
                    &plain,
                ),
                (
                    MethodKind::WeightedSimrank,
                    Geometric,
                    SpreadMode::Exponential,
                    &spread_on,
                ),
                (
                    MethodKind::WeightedSimrank,
                    Geometric,
                    SpreadMode::Off,
                    &spread_off,
                ),
                (
                    MethodKind::EvidenceSimrank,
                    Exponential,
                    SpreadMode::Exponential,
                    &plain,
                ),
            ] {
                let cell = format!("{cell} {kind:?} {evidence:?} {spread:?}");
                let m = if (evidence, spread) == (Geometric, SpreadMode::Exponential) {
                    Method::compute(kind, &g, &c)
                } else {
                    Method::compute_with(kind, &g, &c, evidence, spread)
                };
                assert_eq!(m.evidence(), Some(evidence), "{cell}");
                assert_eq!(bits(m.stored_scores()), bits(&run.queries), "{cell}");
                let (finals, _) = evidence_multiply(&g, &run.queries, &run.ads, evidence);
                assert_eq!(bits(&m.final_scores(&g)), bits(&finals), "{cell}");
            }
        }
    }
}

#[test]
fn early_exit_compares_same_chain_iterates() {
    // Under a tolerance the query chain checks only at its query-side steps,
    // against the query-side iterate two half-steps back. A run that stops at
    // `t` therefore has `t ≡ k (mod 2)`, and every query-side path over the
    // same transition returns the tolerance-0 run's bits at `k = t`.
    let weighted = Walk::Weighted(WeightedTransition {
        kind: WeightKind::Clicks,
        spread: SpreadMode::Exponential,
    });
    let mut stopped_early = 0;
    for (name, g) in [("figure3", figure3_graph()), ("banded", banded_graph())] {
        // Per transition: the `Method` kinds it serves, and its run and
        // correction at a config.
        let uniform_at = |c: &SimrankConfig| {
            let run = uniform(&g, c);
            (run, DiagonalCorrection::whole_graph(&g, c, &Walk::Uniform))
        };
        let weighted_at = |c: &SimrankConfig| {
            let run = engine::run(&g, c, &weighted);
            (run, DiagonalCorrection::whole_graph(&g, c, &weighted))
        };
        type At<'a> = &'a dyn Fn(&SimrankConfig) -> (EngineRun, DiagonalCorrection);
        let transitions: [(&str, &[MethodKind], At); 2] = [
            (
                "uniform",
                &[MethodKind::Simrank, MethodKind::EvidenceSimrank],
                &uniform_at,
            ),
            ("weighted", &[MethodKind::WeightedSimrank], &weighted_at),
        ];
        for base in query_side_grid() {
            for tolerance in [1e-1, 1e-2, 1e-3] {
                let c = base.with_tolerance(tolerance);
                for (transition, kinds, at) in transitions {
                    let cell = format!("{} {transition}", cell(name, &c));
                    let (run, correction) = at(&c);
                    let t = run.iterations_run;
                    assert!(t <= c.iterations, "{cell}");
                    assert_eq!(t % 2, c.iterations % 2, "{cell}");
                    stopped_early += usize::from(t < c.iterations);

                    let exact = c.with_iterations(t).with_tolerance(0.0);
                    let (want, want_correction) = at(&exact);
                    assert_eq!(bits(&run.queries), bits(&want.queries), "{cell}");
                    for &kind in kinds {
                        let m = Method::compute(kind, &g, &c);
                        let want = Method::compute(kind, &g, &exact);
                        let stored = |m: &Method| bits(m.stored_scores());
                        assert_eq!(stored(&m), stored(&want), "{cell} {kind:?}");
                    }

                    // Levels align from the top and are zero below the depth
                    // run.
                    let (got, want) = (level_bits(&correction), level_bits(&want_correction));
                    assert_eq!(got[..want.len()], want, "{cell}");
                    let zero = |side: &Vec<u64>| side.iter().all(|&b| b == 0);
                    assert!(got[want.len()..].iter().all(|(q, a)| zero(q) && zero(a)));

                    // One delta per query-side check; the last is at or below
                    // the tolerance exactly when the run converged.
                    assert_eq!(run.max_deltas.len(), t.div_ceil(2), "{cell}");
                    let last = run.max_deltas.last().copied();
                    assert_eq!(
                        run.converged,
                        last.is_some_and(|d| d <= tolerance),
                        "{cell}"
                    );
                }
            }
        }
    }
    assert!(
        stopped_early > 0,
        "no cell exits early: the grid is vacuous"
    );
}

/// FNV-1a over both frozen matrices' `(pair key, score bits)`, queries first,
/// each side prefixed by its pair count.
fn run_digest(run: &engine::EngineRun) -> u64 {
    let mut h = fnv1a(&[]);
    for m in [&run.queries, &run.ads] {
        h = fnv1a_seeded(h, &(m.n_pairs() as u64).to_le_bytes());
        for (k, v) in m.sorted_pairs() {
            h = fnv1a_seeded(h, &k.raw().to_le_bytes());
            h = fnv1a_seeded(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

/// A recorded `engine::run` cell: graph, uniform (else weighted) transition,
/// `k`, prune, [`run_digest`], `pair_counts` and `iterations_run`.
type Pin = (
    &'static str,
    bool,
    usize,
    f64,
    u64,
    &'static [(usize, usize)],
    usize,
);

/// Values recorded from the Jacobi both-sides loop, before it became two
/// chains of half-steps. Figure 3's clicks are uniform, so its weighted
/// cells equal the uniform ones.
#[rustfmt::skip]
const PINNED: [Pin; 32] = [
    ("figure3", true, 0, 0.0, 0x88201fb960ff6465, &[], 0),
    ("figure3", true, 0, 1e-4, 0x88201fb960ff6465, &[], 0),
    ("figure3", true, 1, 0.0, 0x61e2737192859411, &[(5, 2)], 1),
    ("figure3", true, 1, 1e-4, 0x61e2737192859411, &[(5, 2)], 1),
    ("figure3", true, 2, 0.0, 0xbbf078f2c5efef5e, &[(5, 2), (6, 2)], 2),
    ("figure3", true, 2, 1e-4, 0xbbf078f2c5efef5e, &[(5, 2), (6, 2)], 2),
    ("figure3", true, 7, 0.0, 0xc2e6396967701d8c, &[(5, 2), (6, 2), (6, 2), (6, 2), (6, 2), (6, 2), (6, 2)], 7),
    ("figure3", true, 7, 1e-4, 0xc2e6396967701d8c, &[(5, 2), (6, 2), (6, 2), (6, 2), (6, 2), (6, 2), (6, 2)], 7),
    ("figure3", false, 0, 0.0, 0x88201fb960ff6465, &[], 0),
    ("figure3", false, 0, 1e-4, 0x88201fb960ff6465, &[], 0),
    ("figure3", false, 1, 0.0, 0x61e2737192859411, &[(5, 2)], 1),
    ("figure3", false, 1, 1e-4, 0x61e2737192859411, &[(5, 2)], 1),
    ("figure3", false, 2, 0.0, 0xbbf078f2c5efef5e, &[(5, 2), (6, 2)], 2),
    ("figure3", false, 2, 1e-4, 0xbbf078f2c5efef5e, &[(5, 2), (6, 2)], 2),
    ("figure3", false, 7, 0.0, 0xc2e6396967701d8c, &[(5, 2), (6, 2), (6, 2), (6, 2), (6, 2), (6, 2), (6, 2)], 7),
    ("figure3", false, 7, 1e-4, 0xc2e6396967701d8c, &[(5, 2), (6, 2), (6, 2), (6, 2), (6, 2), (6, 2), (6, 2)], 7),
    ("banded", true, 0, 0.0, 0x88201fb960ff6465, &[], 0),
    ("banded", true, 0, 1e-4, 0x88201fb960ff6465, &[], 0),
    ("banded", true, 1, 0.0, 0xbac718050e8a3dfd, &[(1189, 725)], 1),
    ("banded", true, 1, 1e-4, 0xbac718050e8a3dfd, &[(1189, 725)], 1),
    ("banded", true, 2, 0.0, 0xb41493e97cb1f702, &[(1189, 725), (1968, 1262)], 2),
    ("banded", true, 2, 1e-4, 0xb41493e97cb1f702, &[(1189, 725), (1968, 1262)], 2),
    ("banded", true, 7, 0.0, 0x35f008bba245debf, &[(1189, 725), (1968, 1262), (2440, 1604), (2711, 1807), (2867, 1913), (2940, 1970), (2975, 1998)], 7),
    ("banded", true, 7, 1e-4, 0x3c674714f70f2381, &[(1189, 725), (1968, 1262), (2440, 1604), (2711, 1807), (2863, 1899), (2872, 1919), (2914, 1948)], 7),
    ("banded", false, 0, 0.0, 0x88201fb960ff6465, &[], 0),
    ("banded", false, 0, 1e-4, 0x88201fb960ff6465, &[], 0),
    ("banded", false, 1, 0.0, 0xec1b4744edae5f64, &[(1189, 725)], 1),
    ("banded", false, 1, 1e-4, 0x0cc85c1feca42731, &[(1074, 725)], 1),
    ("banded", false, 2, 0.0, 0x1c3b84bf8d4507f7, &[(1189, 725), (1968, 1262)], 2),
    ("banded", false, 2, 1e-4, 0xcdfc6a2d9396963e, &[(1074, 725), (1709, 1204)], 2),
    ("banded", false, 7, 0.0, 0x6119f3a1e3f22d1e, &[(1189, 725), (1968, 1262), (2440, 1604), (2711, 1807), (2867, 1913), (2940, 1970), (2975, 1998)], 7),
    ("banded", false, 7, 1e-4, 0x3d5a0d7f4f2791ff, &[(1074, 725), (1709, 1204), (1893, 1378), (1948, 1424), (1969, 1434), (1977, 1440), (1984, 1445)], 7),
];

#[test]
fn both_sides_bits_and_pair_counts_are_pinned() {
    let weighted = Walk::Weighted(WeightedTransition {
        kind: WeightKind::Clicks,
        spread: SpreadMode::Exponential,
    });
    let (figure3, banded) = (figure3_graph(), banded_graph());
    for (name, uniform, k, prune, digest, pair_counts, iterations_run) in PINNED {
        let g = if name == "figure3" { &figure3 } else { &banded };
        for threads in [1, 3] {
            let c = cfg(k).with_prune_threshold(prune).with_threads(threads);
            let run = if uniform {
                engine::run(g, &c, &Walk::Uniform)
            } else {
                engine::run(g, &c, &weighted)
            };
            let cell = format!("{name} uniform={uniform} k={k} prune={prune} threads={threads}");
            assert_eq!(run_digest(&run), digest, "{cell}");
            assert_eq!(run.pair_counts, pair_counts, "{cell}");
            assert_eq!(run.iterations_run, iterations_run, "{cell}");
        }
    }
}

#[test]
fn parallel_engine_matches_serial_on_synth_graph() {
    let mut gen = GeneratorConfig::tiny();
    gen.n_queries = 300;
    gen.n_ads = 200;
    let g = generate(&gen).graph;
    let serial = uniform(&g, &cfg(4));
    let parallel = uniform(&g, &cfg(4).with_threads(4));
    let drift = serial.queries.max_abs_diff(&parallel.queries);
    assert!(drift < 1e-9, "parallel drifted by {drift}");
    assert_eq!(serial.pair_counts, parallel.pair_counts);
}
