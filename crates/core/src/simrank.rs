//! Bipartite SimRank (§4, Eq. 4.1/4.2).
//!
//! For `q ≠ q'`:
//! ```text
//! s(q,q') = C1 / (N(q)·N(q')) · Σ_{i∈E(q)} Σ_{j∈E(q')} s(i,j)
//! s(α,α') = C2 / (N(α)·N(α')) · Σ_{i∈E(α)} Σ_{j∈E(α')} s(i,j)
//! ```
//! with `s(x,x) = 1`. Iteration is simultaneous (Jacobi) from `s⁰ = I`,
//! matching the per-iteration numbers in the paper's Tables 3–4 and the
//! Appendix A derivations.
//!
//! The sparse engine is [`crate::engine::run`] with the uniform `1/N`
//! transition ([`crate::engine::UniformTransition`]): work proportional to
//! `Σ_{(i,j)∈support} N(i)·N(j)` rather than `|Q|²`, exact when
//! `config.prune_threshold == 0`, with pruning and the `config.tolerance`
//! early exit making 10⁵-node graphs feasible. This module keeps
//! [`simrank_dense`], a straightforward O(n²·d²) reference used to
//! cross-validate the sparse engine and for the paper's small examples.

use crate::config::SimrankConfig;
use crate::scores::{ScoreMatrix, ScoreMatrixBuilder};
use simrankpp_graph::{AdId, ClickGraph, QueryId};

/// Dense reference implementation (O((|Q|² + |A|²)·d²) per iteration).
///
/// Exact Jacobi iteration over full matrices; intended for graphs up to a
/// few thousand nodes (tests, paper tables, cross-validation of the sparse
/// engine). Returns the (query-side, ad-side) scores.
pub fn simrank_dense(g: &ClickGraph, config: &SimrankConfig) -> (ScoreMatrix, ScoreMatrix) {
    config.validate().expect("invalid SimRank configuration");
    let nq = g.n_queries();
    let na = g.n_ads();
    let mut q_mat = identity(nq);
    let mut a_mat = identity(na);

    for _ in 0..config.iterations {
        let mut next_q = identity(nq);
        for q1 in 0..nq {
            let (ads1, _) = g.ads_of(QueryId(q1 as u32));
            for q2 in (q1 + 1)..nq {
                let (ads2, _) = g.ads_of(QueryId(q2 as u32));
                if ads1.is_empty() || ads2.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &i in ads1 {
                    for &j in ads2 {
                        sum += a_mat[i.index() * na + j.index()];
                    }
                }
                let v = config.c1 * sum / (ads1.len() as f64 * ads2.len() as f64);
                next_q[q1 * nq + q2] = v;
                next_q[q2 * nq + q1] = v;
            }
        }
        let mut next_a = identity(na);
        for a1 in 0..na {
            let (qs1, _) = g.queries_of(AdId(a1 as u32));
            for a2 in (a1 + 1)..na {
                let (qs2, _) = g.queries_of(AdId(a2 as u32));
                if qs1.is_empty() || qs2.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &i in qs1 {
                    for &j in qs2 {
                        sum += q_mat[i.index() * nq + j.index()];
                    }
                }
                let v = config.c2 * sum / (qs1.len() as f64 * qs2.len() as f64);
                next_a[a1 * na + a2] = v;
                next_a[a2 * na + a1] = v;
            }
        }
        q_mat = next_q;
        a_mat = next_a;
    }

    let mut qb = ScoreMatrixBuilder::new(nq);
    for q1 in 0..nq {
        for q2 in (q1 + 1)..nq {
            let v = q_mat[q1 * nq + q2];
            if v > 0.0 {
                qb.set(q1 as u32, q2 as u32, v);
            }
        }
    }
    let mut ab = ScoreMatrixBuilder::new(na);
    for a1 in 0..na {
        for a2 in (a1 + 1)..na {
            let v = a_mat[a1 * na + a2];
            if v > 0.0 {
                ab.set(a1 as u32, a2 as u32, v);
            }
        }
    }
    (qb.build(), ab.build())
}

/// Flat n x n identity matrix (shared with the weighted dense oracle).
pub(crate) fn identity(n: usize) -> Vec<f64> {
    let mut m = vec![0.0; n * n];
    for i in 0..n {
        m[i * n + i] = 1.0;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, EngineRun, UniformTransition};
    use simrankpp_graph::fixtures::{complete_bipartite, figure3_graph, figure4_k12, figure4_k22};
    use simrankpp_graph::EdgeData;

    fn cfg(k: usize) -> SimrankConfig {
        SimrankConfig::default().with_iterations(k)
    }

    fn run(g: &ClickGraph, config: &SimrankConfig) -> EngineRun {
        engine::run(g, config, &UniformTransition)
    }

    #[test]
    fn table3_k22_iterations() {
        // Table 3, column sim("camera", "digital camera") on K2,2, C=0.8.
        let g = figure4_k22();
        let expected = [0.4, 0.56, 0.624, 0.6496, 0.65984, 0.663936, 0.6655744];
        for (k, &want) in expected.iter().enumerate() {
            let r = run(&g, &cfg(k + 1));
            let got = r.queries.get(0, 1);
            assert!(
                (got - want).abs() < 1e-9,
                "iteration {}: got {got}, want {want}",
                k + 1
            );
        }
    }

    #[test]
    fn table3_k12_constant() {
        // Table 3, column sim("pc", "camera") = 0.8 at every iteration.
        let g = figure4_k12();
        for k in 1..=7 {
            let r = run(&g, &cfg(k));
            assert!((r.queries.get(0, 1) - 0.8).abs() < 1e-12, "iteration {k}");
        }
    }

    #[test]
    fn table2_figure3_converged() {
        // Table 2: converged scores on the Figure 3 graph with C1=C2=0.8.
        let g = figure3_graph();
        let r = run(&g, &cfg(100));
        let q = |name: &str| g.query_by_name(name).unwrap().0;

        let cases = [
            ("pc", "camera", 0.619),
            ("pc", "digital camera", 0.619),
            ("pc", "tv", 0.437),
            ("pc", "flower", 0.0),
            ("camera", "digital camera", 0.619),
            ("camera", "tv", 0.619),
            ("camera", "flower", 0.0),
            ("digital camera", "tv", 0.619),
            ("digital camera", "flower", 0.0),
            ("tv", "flower", 0.0),
        ];
        for (a, b, want) in cases {
            let got = r.queries.get(q(a), q(b));
            assert!(
                (got - want).abs() < 5e-4,
                "sim({a}, {b}) = {got}, paper says {want}"
            );
        }
    }

    #[test]
    fn scores_are_symmetric_and_bounded() {
        let g = figure3_graph();
        let r = run(&g, &cfg(10));
        for (a, b, v) in r.queries.iter() {
            assert!(v > 0.0 && v <= 1.0, "score out of range: {v}");
            assert_eq!(r.queries.get(a, b), r.queries.get(b, a));
        }
        for (a, b, v) in r.ads.iter() {
            assert!(v > 0.0 && v <= 1.0);
            assert_eq!(r.ads.get(a, b), r.ads.get(b, a));
        }
    }

    #[test]
    fn scores_monotone_in_iterations() {
        // For basic SimRank from s⁰=I, iterates are non-decreasing per pair.
        let g = figure3_graph();
        let mut prev = run(&g, &cfg(1));
        for k in 2..=8 {
            let cur = run(&g, &cfg(k));
            for (a, b, v) in cur.queries.iter() {
                assert!(
                    v + 1e-12 >= prev.queries.get(a, b),
                    "pair ({a},{b}) decreased at iteration {k}"
                );
            }
            prev = cur;
        }
    }

    #[test]
    fn sparse_matches_dense() {
        let g = figure3_graph();
        let s = run(&g, &cfg(6));
        let (dq, da) = simrank_dense(&g, &cfg(6));
        assert!(s.queries.max_abs_diff(&dq) < 1e-12);
        assert!(s.ads.max_abs_diff(&da) < 1e-12);
    }

    #[test]
    fn sparse_matches_dense_on_random_graph() {
        use simrankpp_graph::ClickGraphBuilder;
        let mut b = ClickGraphBuilder::new();
        let mut x: u64 = 99;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let q = ((x >> 33) % 30) as u32;
            let a = ((x >> 13) % 25) as u32;
            b.add_edge(QueryId(q), AdId(a), EdgeData::from_clicks(1));
        }
        let g = b.build();
        let s = run(&g, &cfg(5));
        let (dq, da) = simrank_dense(&g, &cfg(5));
        assert!(
            s.queries.max_abs_diff(&dq) < 1e-10,
            "query-side mismatch {}",
            s.queries.max_abs_diff(&dq)
        );
        assert!(s.ads.max_abs_diff(&da) < 1e-10);
    }

    #[test]
    fn parallel_matches_serial() {
        use simrankpp_graph::ClickGraphBuilder;
        let mut b = ClickGraphBuilder::new();
        let mut x: u64 = 7;
        for _ in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let q = ((x >> 33) % 400) as u32;
            let a = ((x >> 13) % 300) as u32;
            b.add_edge(QueryId(q), AdId(a), EdgeData::from_clicks(1));
        }
        let g = b.build();
        let serial = run(&g, &cfg(4));
        let parallel = run(&g, &cfg(4).with_threads(4));
        assert!(
            serial.queries.max_abs_diff(&parallel.queries) < 1e-9,
            "parallel drifted by {}",
            serial.queries.max_abs_diff(&parallel.queries)
        );
    }

    #[test]
    fn pruning_only_loses_small_scores() {
        let g = figure3_graph();
        let exact = run(&g, &cfg(8));
        let pruned = run(&g, &cfg(8).with_prune_threshold(0.05));
        for (a, b, v) in exact.queries.iter() {
            let p = pruned.queries.get(a, b);
            // Pruned scores are never larger, and large scores survive.
            assert!(p <= v + 1e-12);
            if v > 0.3 {
                assert!(p > 0.0, "large score ({a},{b})={v} was pruned away");
            }
        }
    }

    #[test]
    fn disconnected_pairs_score_zero() {
        let g = figure3_graph();
        let r = run(&g, &cfg(20));
        let flower = g.query_by_name("flower").unwrap().0;
        for other in ["pc", "camera", "digital camera", "tv"] {
            let o = g.query_by_name(other).unwrap().0;
            assert_eq!(r.queries.get(flower, o), 0.0);
        }
    }

    #[test]
    fn zero_iterations_gives_identity() {
        let g = figure3_graph();
        let r = run(&g, &cfg(0));
        assert_eq!(r.queries.n_pairs(), 0);
        assert_eq!(r.queries.get(0, 0), 1.0);
    }

    #[test]
    fn complete_bipartite_uniform_scores() {
        // In K_{m,n} all same-side pairs have identical scores by symmetry.
        let g = complete_bipartite(4, 3, EdgeData::from_clicks(1));
        let r = run(&g, &cfg(6));
        let first = r.queries.get(0, 1);
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                assert!((r.queries.get(a, b) - first).abs() < 1e-12);
            }
        }
        let first_ad = r.ads.get(0, 1);
        for a in 0..3u32 {
            for b in (a + 1)..3u32 {
                assert!((r.ads.get(a, b) - first_ad).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pair_counts_recorded() {
        let g = figure3_graph();
        let r = run(&g, &cfg(3));
        assert_eq!(r.pair_counts.len(), 3);
        assert!(r.pair_counts[2].0 >= r.pair_counts[0].0);
    }

    #[test]
    fn convergence_diagnostics_recorded() {
        // One delta per query-side check (t = 2, 4, 6, 8), and only under a
        // tolerance.
        let g = figure3_graph();
        let r = run(&g, &cfg(8));
        assert!(r.max_deltas.is_empty());
        let r = run(&g, &cfg(8).with_tolerance(1e-15));
        assert_eq!(r.max_deltas.len(), 4);
        assert_eq!(r.iterations_run, 8);
        assert!(!r.converged);
        // Geometric decay: late deltas are below early ones.
        assert!(r.max_deltas[3] < r.max_deltas[0]);
    }

    #[test]
    fn tolerance_early_exit_matches_full_run() {
        let g = figure3_graph();
        let full = run(&g, &cfg(60));
        let tol = run(&g, &cfg(60).with_tolerance(1e-9));
        assert!(tol.converged);
        assert!(tol.iterations_run < 60);
        assert_eq!(tol.iterations_run % 2, 0);
        assert!(full.queries.max_abs_diff(&tol.queries) < 1e-7);
        assert_eq!(tol.pair_counts.len(), tol.iterations_run);
        assert_eq!(tol.max_deltas.len(), tol.iterations_run / 2);
        assert!(*tol.max_deltas.last().unwrap() <= 1e-9);
    }
}
