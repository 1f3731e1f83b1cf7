//! Integration tests: the paper's worked examples, digit for digit, through
//! the public facade API.

use simrankpp::core::complete_bipartite::{km2_evidence_pair_iterates, km2_pair_iterates};
use simrankpp::core::engine::{self, EngineRun, Walk};
use simrankpp::core::naive::naive_scores;
use simrankpp::graph::fixtures::{figure3_graph, figure4_k12, figure4_k22};
use simrankpp::prelude::*;

fn paper_cfg(iterations: usize) -> SimrankConfig {
    SimrankConfig::paper()
        .with_iterations(iterations)
        .with_weight_kind(WeightKind::Clicks)
}

/// Plain SimRank (§4), both sides.
fn plain(g: &ClickGraph, config: &SimrankConfig) -> EngineRun {
    engine::run(g, config, &Walk::Uniform)
}

/// Evidence-based SimRank (§7, Eq. 7.3) of the pair `(0, 1)`.
fn evidence_pair(g: &ClickGraph, config: &SimrankConfig) -> f64 {
    Method::compute(MethodKind::EvidenceSimrank, g, config).score(g, QueryId(0), QueryId(1))
}

#[test]
fn table1_common_ad_counts() {
    let g = figure3_graph();
    let m = naive_scores(&g);
    let q = |n: &str| g.query_by_name(n).unwrap().0;
    let rows = [
        (
            "pc",
            &[
                ("camera", 1.0),
                ("digital camera", 1.0),
                ("tv", 0.0),
                ("flower", 0.0),
            ][..],
        ),
        (
            "camera",
            &[("digital camera", 2.0), ("tv", 1.0), ("flower", 0.0)][..],
        ),
        ("digital camera", &[("tv", 1.0), ("flower", 0.0)][..]),
        ("tv", &[("flower", 0.0)][..]),
    ];
    for (a, pairs) in rows {
        for (b, want) in pairs {
            assert_eq!(m.get(q(a), q(b)), *want, "naive({a},{b})");
        }
    }
}

#[test]
fn table2_simrank_converged() {
    let g = figure3_graph();
    let r = plain(&g, &paper_cfg(100));
    let q = |n: &str| g.query_by_name(n).unwrap().0;
    assert!((r.queries.get(q("pc"), q("camera")) - 0.619).abs() < 5e-4);
    assert!((r.queries.get(q("pc"), q("tv")) - 0.437).abs() < 5e-4);
    assert!((r.queries.get(q("camera"), q("digital camera")) - 0.619).abs() < 5e-4);
    assert_eq!(r.queries.get(q("flower"), q("pc")), 0.0);
}

#[test]
fn table3_iteration_columns() {
    let k22 = figure4_k22();
    let k12 = figure4_k12();
    let want_k22 = [0.4, 0.56, 0.624, 0.6496, 0.65984, 0.663936, 0.6655744];
    for (k, want) in want_k22.iter().enumerate() {
        let engine = plain(&k22, &paper_cfg(k + 1)).queries.get(0, 1);
        assert!((engine - want).abs() < 1e-9, "k22 iteration {}", k + 1);
        let closed = *km2_pair_iterates(2, 0.8, 0.8, k + 1).last().unwrap();
        assert!((closed - want).abs() < 1e-9);
        let k12_score = plain(&k12, &paper_cfg(k + 1)).queries.get(0, 1);
        assert!((k12_score - 0.8).abs() < 1e-12);
    }
}

#[test]
fn table4_evidence_columns() {
    let k22 = figure4_k22();
    let want = [0.3, 0.42, 0.468, 0.4872, 0.49488, 0.497952, 0.4991808];
    for (k, want) in want.iter().enumerate() {
        let engine = evidence_pair(&k22, &paper_cfg(k + 1));
        assert!((engine - want).abs() < 1e-9, "iteration {}", k + 1);
        let closed = *km2_evidence_pair_iterates(2, 0.8, 0.8, k + 1, EvidenceKind::Geometric)
            .last()
            .unwrap();
        assert!((closed - want).abs() < 1e-9);
    }
}

#[test]
fn section6_crossover_complaint_and_fix() {
    // §6: plain SimRank ranks pc-camera above camera-digital camera forever;
    // §7: evidence reverses that from iteration 2.
    let k22 = figure4_k22();
    let k12 = figure4_k12();
    for k in 1..=10 {
        let plain22 = plain(&k22, &paper_cfg(k)).queries.get(0, 1);
        let plain12 = plain(&k12, &paper_cfg(k)).queries.get(0, 1);
        assert!(plain12 > plain22, "plain SimRank must prefer K1,2 at k={k}");
    }
    for k in 2..=10 {
        let ev22 = evidence_pair(&k22, &paper_cfg(k));
        let ev12 = evidence_pair(&k12, &paper_cfg(k));
        assert!(ev22 > ev12, "evidence must prefer K2,2 at k={k}");
    }
}
