//! Weighted SimRank (§8).
//!
//! §8.2 replaces the uniform random walk with transition probabilities that
//! respect the click weights:
//!
//! ```text
//! W(q,i) = spread(i) · normalized_weight(q,i)
//!        = e^(−variance(i)) · w(q,i) / Σ_{j∈E(q)} w(q,j)
//!
//! s_w(q,q') = evidence(q,q') · C1 · Σ_{i∈E(q)} Σ_{j∈E(q')} W(q,i)·W(q',j)·s_w(i,j)
//! s_w(α,α') = evidence(α,α') · C2 · Σ_{i∈E(α)} Σ_{j∈E(α')} W(α,i)·W(α',j)·s_w(i,j)
//! ```
//!
//! `variance(i)` is the population variance of the weights on edges incident
//! to node `i`, so a node whose incident weights are all equal has
//! `spread = 1`, and high-variance nodes transmit less similarity — this is
//! what enforces Definition 8.1's consistency (Theorem 8.1). Note there is no
//! `1/(N·N')` prefactor: the `W` factors already normalize the walk, and the
//! leftover probability mass `1 − Σ_i p(α,i)` is the self-transition.
//!
//! The walk recursion itself runs on the unified kernel in [`crate::engine`]
//! as `Walk::Weighted` ([`crate::engine::Walk`]), whose
//! [`crate::engine::Walk::factors`] computes the `W` tables — this module
//! holds the spread mode and the dense oracle. The evidence factor is
//! applied at read-out ([`crate::MethodKind::evidence`]),
//! and the raw walk scores are kept for tie-breaking (see `evidence.rs` for
//! why the paper's Figure 12 requires this).
//!
//! A practical note the paper's §9.2 choice of edge weight quietly depends
//! on: `spread = e^(−variance)` is *scale sensitive*. With raw click counts a
//! popular ad's incident weights can have variance in the thousands and
//! `spread` underflows to 0; with the expected click rate (a rate in `[0, 1]`)
//! variances stay small. `repro_all ablation-weights` reproduces this.

use crate::config::SimrankConfig;
use crate::engine::{Walk, WeightedTransition};
use crate::scores::{ScoreMatrix, ScoreMatrixBuilder};
use simrankpp_graph::{AdId, ClickGraph, QueryId};
use simrankpp_util::population_variance;

/// Whether the walk uses the §8.2 `spread = e^(−variance)` factor.
///
/// `Off` is an ablation knob (`repro_all ablation-spread`): it keeps only the
/// normalized weights, i.e. a plain weighted random walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpreadMode {
    /// The paper's `e^(−variance)` (default).
    #[default]
    Exponential,
    /// No spread factor (spread ≡ 1).
    Off,
}

/// Dense O(n²·d²) reference for the weighted walk (no evidence factor):
/// exact Jacobi iteration of the §8.2 equations over full matrices. Used to
/// cross-validate the sparse engine; intended for small graphs only.
pub fn weighted_simrank_dense(
    g: &ClickGraph,
    config: &SimrankConfig,
    spread: SpreadMode,
) -> (ScoreMatrix, ScoreMatrix) {
    config.validate().expect("invalid SimRank configuration");
    let kind = config.weight_kind;
    let f = Walk::Weighted(WeightedTransition { kind, spread }).factors(g);
    let nq = g.n_queries();
    let na = g.n_ads();
    let mut q_mat = crate::simrank::identity(nq);
    let mut a_mat = crate::simrank::identity(na);

    for _ in 0..config.iterations {
        let mut next_q = crate::simrank::identity(nq);
        for q1 in 0..nq {
            let (ads1, _) = g.ads_of(QueryId(q1 as u32));
            let w1 = f.of_query(g, QueryId(q1 as u32));
            for q2 in (q1 + 1)..nq {
                let (ads2, _) = g.ads_of(QueryId(q2 as u32));
                let w2 = f.of_query(g, QueryId(q2 as u32));
                let mut sum = 0.0;
                for (x, &i) in ads1.iter().enumerate() {
                    for (y, &j) in ads2.iter().enumerate() {
                        sum += w1[x] * w2[y] * a_mat[i.index() * na + j.index()];
                    }
                }
                let v = config.c1 * sum;
                next_q[q1 * nq + q2] = v;
                next_q[q2 * nq + q1] = v;
            }
        }
        let mut next_a = crate::simrank::identity(na);
        for a1 in 0..na {
            let (qs1, _) = g.queries_of(AdId(a1 as u32));
            let w1 = f.of_ad(g, AdId(a1 as u32));
            for a2 in (a1 + 1)..na {
                let (qs2, _) = g.queries_of(AdId(a2 as u32));
                let w2 = f.of_ad(g, AdId(a2 as u32));
                let mut sum = 0.0;
                for (x, &i) in qs1.iter().enumerate() {
                    for (y, &j) in qs2.iter().enumerate() {
                        sum += w1[x] * w2[y] * q_mat[i.index() * nq + j.index()];
                    }
                }
                let v = config.c2 * sum;
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

/// One-iteration weighted-walk score of two queries sharing a single ad with
/// incident weights `weights` (each query's only edge). Used by the
/// Theorem 8.1 / Figure 5 demonstrations: `C1 · spread(ad)²`.
pub fn star_pair_score(weights: (f64, f64), c1: f64) -> f64 {
    let (w1, w2) = weights;
    let var = population_variance(&[w1, w2]);
    let spread = (-var).exp();
    // Single-edge queries have normalized weight 1, so W = spread.
    c1 * spread * spread
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, EngineRun};
    use crate::{Method, MethodKind};
    use simrankpp_graph::fixtures::{figure3_graph, figure4_k22, figure5_graphs, figure6_graphs};
    use simrankpp_graph::{ClickGraphBuilder, EdgeData, WeightKind};

    fn cfg(k: usize) -> SimrankConfig {
        SimrankConfig::default()
            .with_iterations(k)
            .with_weight_kind(WeightKind::Clicks)
    }

    /// The weighted walk over clicks.
    fn clicks(spread: SpreadMode) -> Walk {
        let kind = WeightKind::Clicks;
        Walk::Weighted(WeightedTransition { kind, spread })
    }

    /// Both sides of the weighted walk, no evidence factor.
    fn walk(g: &ClickGraph, config: &SimrankConfig, spread: SpreadMode) -> EngineRun {
        let kind = config.weight_kind;
        engine::run(
            g,
            config,
            &Walk::Weighted(WeightedTransition { kind, spread }),
        )
    }

    /// Weighted SimRank's final query-side scores (evidence at read-out).
    fn finals(g: &ClickGraph, config: &SimrankConfig) -> ScoreMatrix {
        Method::compute(MethodKind::WeightedSimrank, g, config).final_scores(g)
    }

    #[test]
    fn walk_factors_on_a_uniform_graph() {
        // All weights equal → variance 0 → spread 1 → W = 1/deg.
        let g = figure4_k22();
        let f = clicks(SpreadMode::Exponential).factors(&g);
        for q in g.queries() {
            for v in f.of_query(&g, q) {
                assert!((v - 0.5).abs() < 1e-12);
            }
        }
        for a in g.ads() {
            for v in f.of_ad(&g, a) {
                assert!((v - 0.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transition_probabilities_sum_at_most_one() {
        // Without spread every clicked row is a probability distribution;
        // with it, the step into node i is scaled by e^(−variance(i)), so no
        // row carries more than unit mass.
        let (left, right) = figure5_graphs();
        for g in [&left, &right] {
            let off = clicks(SpreadMode::Off).factors(g);
            let on = clicks(SpreadMode::Exponential).factors(g);
            let spread = |edges: &[EdgeData]| {
                let weights: Vec<f64> =
                    edges.iter().map(|e| e.weight(WeightKind::Clicks)).collect();
                (-population_variance(&weights)).exp()
            };
            for q in g.queries() {
                let total: f64 = on.of_query(g, q).iter().sum();
                assert!(total <= 1.0 + 1e-12, "outgoing mass {total} > 1");
                let total: f64 = off.of_query(g, q).iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "row mass {total}");
                let (ads, _) = g.ads_of(q);
                let steps = on.of_query(g, q).iter().zip(off.of_query(g, q));
                for (&a, (&w_on, &w_off)) in ads.iter().zip(steps) {
                    assert_eq!(w_on, spread(g.queries_of(a).1) * w_off);
                }
            }
            for a in g.ads() {
                let total: f64 = on.of_ad(g, a).iter().sum();
                assert!(total <= 1.0 + 1e-12);
                let total: f64 = off.of_ad(g, a).iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "row mass {total}");
                let (qs, _) = g.queries_of(a);
                let steps = on.of_ad(g, a).iter().zip(off.of_ad(g, a));
                for (&q, (&w_on, &w_off)) in qs.iter().zip(steps) {
                    assert_eq!(w_on, spread(g.ads_of(q).1) * w_off);
                }
            }
        }
    }

    #[test]
    fn figure5_balanced_pair_wins() {
        // Figure 5: equal-click pair (flower, orchids) must beat the skewed
        // pair (flower, teleflora) — Def 8.1 rule (ii).
        let (left, right) = figure5_graphs();
        let sl = finals(&left, &cfg(5)).get(0, 1);
        let sr = finals(&right, &cfg(5)).get(0, 1);
        assert!(sl > sr, "left {sl} must exceed right {sr}");
    }

    #[test]
    fn figure6_same_spread_does_not_invert() {
        // Figure 6: both graphs have zero variance at the ad, so the §8.2
        // equations — which are scale-invariant through the normalized
        // weights — tie the two pairs. (The intuitive "more clicks wins"
        // ordering of §8.1 needs differing spreads or an embedding; see
        // rule_i_in_embedded_graph.) The important property: the heavier
        // pair never scores *lower*.
        let (left, right) = figure6_graphs();
        let sl = finals(&left, &cfg(5)).get(0, 1);
        let sr = finals(&right, &cfg(5)).get(0, 1);
        assert!(sl >= sr - 1e-12);
    }

    #[test]
    fn rule_i_in_embedded_graph() {
        // Definition 8.1 rule (i): equal variance at the two ads, but the
        // first pair reaches its ad with heavier clicks. Each query also has
        // a weight-1 edge to a shared background ad, so the heavier absolute
        // weight translates into a larger normalized share:
        //   h1, h2 →(10)→ v1;  l1, l2 →(2)→ v2;  everyone →(1)→ bg.
        // variance(v1) = variance(v2) = 0, w(h1,v1)=10 > w(l1,v2)=2
        // ⇒ sim(h1,h2) > sim(l1,l2) must hold at every iteration count.
        let mut b = ClickGraphBuilder::new();
        for (name, ad, w) in [
            ("h1", "v1", 10u64),
            ("h2", "v1", 10),
            ("l1", "v2", 2),
            ("l2", "v2", 2),
        ] {
            b.add_named(name, ad, EdgeData::from_clicks(w));
            b.add_named(name, "bg", EdgeData::from_clicks(1));
        }
        let g = b.build();
        let q = |n: &str| g.query_by_name(n).unwrap().0;
        for k in 1..=8 {
            let r = finals(&g, &cfg(k));
            let heavy = r.get(q("h1"), q("h2"));
            let light = r.get(q("l1"), q("l2"));
            assert!(
                heavy > light,
                "k={k}: heavy pair {heavy} must exceed light pair {light}"
            );
        }
    }

    #[test]
    fn evidence_applied_at_readout() {
        let g = figure4_k22();
        let m = Method::compute(MethodKind::WeightedSimrank, &g, &cfg(3));
        let (q0, q1) = (simrankpp_graph::QueryId(0), simrankpp_graph::QueryId(1));
        let (finals, raw) = m.score_with_tiebreak(&g, q0, q1);
        // Uniform K2,2: weighted walk == plain SimRank; evidence = 3/4.
        let plain = engine::run(&g, &cfg(3), &Walk::Uniform).queries;
        assert!((raw - plain.get(0, 1)).abs() < 1e-12);
        assert!((finals - 0.75 * plain.get(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn uniform_weights_reduce_to_simrank() {
        // On an equal-weight graph W(q,i) = 1/N(q), so raw weighted scores
        // coincide with plain SimRank.
        let g = figure3_graph();
        let plain = engine::run(&g, &cfg(6), &Walk::Uniform);
        let weighted = walk(&g, &cfg(6), SpreadMode::Exponential);
        assert!(
            plain.queries.max_abs_diff(&weighted.queries) < 1e-12,
            "diff = {}",
            plain.queries.max_abs_diff(&weighted.queries)
        );
        assert!(plain.ads.max_abs_diff(&weighted.ads) < 1e-12);
    }

    #[test]
    fn scores_bounded() {
        let (left, _) = figure5_graphs();
        for (_, _, v) in finals(&left, &cfg(10)).iter() {
            assert!(v > 0.0 && v <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn sparse_matches_weighted_dense() {
        let (left, _) = figure5_graphs();
        for spread in [SpreadMode::Exponential, SpreadMode::Off] {
            let sparse = walk(&left, &cfg(5), spread);
            let (dense_q, dense_a) = weighted_simrank_dense(&left, &cfg(5), spread);
            assert!(
                sparse.queries.max_abs_diff(&dense_q) < 1e-12,
                "spread {spread:?}: drift {}",
                sparse.queries.max_abs_diff(&dense_q)
            );
            assert!(sparse.ads.max_abs_diff(&dense_a) < 1e-12);
        }
    }

    #[test]
    fn diagnostics_reported_for_weighted_variant() {
        let g = figure3_graph();
        let r = walk(&g, &cfg(5), SpreadMode::Exponential);
        assert_eq!(r.pair_counts.len(), 5);
        assert!(r.max_deltas.is_empty());
        assert_eq!(r.iterations_run, 5);
        assert!(r.pair_counts[4].0 >= r.pair_counts[0].0);
        let tol = walk(&g, &cfg(5).with_tolerance(1e-15), SpreadMode::Exponential);
        assert_eq!(tol.max_deltas.len(), 3);
        assert!(tol.max_deltas.iter().all(|&d| d >= 0.0));
    }

    #[test]
    fn star_pair_score_monotone_in_balance() {
        let balanced = star_pair_score((50.0, 50.0), 0.8);
        let skewed = star_pair_score((40.0, 60.0), 0.8);
        let very_skewed = star_pair_score((1.0, 99.0), 0.8);
        assert!(balanced > skewed && skewed > very_skewed);
        assert!((balanced - 0.8).abs() < 1e-12); // variance 0 → C1
    }

    #[test]
    fn ecr_weights_avoid_spread_underflow() {
        // With raw clicks, a popular ad's weight variance can be huge and
        // spread underflows; with ECR (a rate) it stays usable. Reproduce
        // the contrast on a two-query star with clicks {200, 2}.
        let mut b = ClickGraphBuilder::new();
        b.add_named("popular", "ad", EdgeData::new(1000, 200, 0.2));
        b.add_named("niche", "ad", EdgeData::new(10, 2, 0.2));
        let g = b.build();
        let clicks = finals(&g, &cfg(3).with_weight_kind(WeightKind::Clicks));
        let ecr = finals(&g, &cfg(3).with_weight_kind(WeightKind::ExpectedClickRate));
        assert_eq!(clicks.get(0, 1), 0.0, "spread underflow expected");
        assert!(ecr.get(0, 1) > 0.3, "ECR weights must survive");
    }
}
