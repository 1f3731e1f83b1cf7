//! The walk: per-edge transition factors, the only thing that distinguishes
//! the SimRank variants inside the unified kernel.
//!
//! [`Walk`] is the one walk type. §4's uniform walk and §8.2's weighted walk
//! are one recurrence with a different per-edge factor `F`, so each variant
//! is a value, and [`Walk::factors`] computes its factor tables once per
//! run as a [`TransitionFactors`], whose row accessors every reader slices
//! through.

use crate::weighted::SpreadMode;
use simrankpp_graph::{AdId, ClickGraph, QueryId, WeightKind};
use simrankpp_util::population_variance;

/// Precomputed per-edge factors in both CSR orders.
///
/// The pull kernel's first SpGEMM pass walks the output node's own neighbor
/// list (e.g. `F(q, a)` for `a ∈ E(q)`, query-major); its second pass
/// scatters through the inner node's list (`F(q', a)` for `q' ∈ E(a)`,
/// ad-major). So each of the two factor families is needed in both layouts.
/// A variant supplies each family **node-major** — every node's own row, the
/// layout it is computed in — and one counting transpose derives the other
/// two. The four accessors read one node's row of one layout, aligned with
/// that node's CSR neighbor list.
#[derive(Debug, Clone)]
pub struct TransitionFactors {
    /// `F(q, a)` per (ad → query) CSR edge, ad-major: the weight with which
    /// ad-side scores flow into query `q` through ad `a` (pass 2, query side).
    ad_to_query: Vec<f64>,
    /// `F(a, q)` per (query → ad) CSR edge, query-major (pass 2, ad side).
    query_to_ad: Vec<f64>,
    /// `F(q, a)` query-major (same values as `ad_to_query`, addressable per
    /// query row) — the pull kernel's query-side pass 1.
    ad_to_query_by_query: Vec<f64>,
    /// `F(a, q)` ad-major (same values as `query_to_ad`, addressable per ad
    /// row) — the pull kernel's ad-side pass 1.
    query_to_ad_by_ad: Vec<f64>,
}

impl TransitionFactors {
    /// Completes the factor set from the two node-major tables — `by_query`
    /// holds `F(q, a)` in query-CSR order, `by_ad` holds `F(a, q)` in ad-CSR
    /// order — deriving the transposed layouts. The transpose scans the
    /// source-major table in CSR order and writes through a per-target-row
    /// cursor; because both CSR directions keep neighbor lists ascending,
    /// each target row fills in exactly its own CSR order — a counting
    /// transpose, no sorting.
    fn from_node_major(g: &ClickGraph, by_query: Vec<f64>, by_ad: Vec<f64>) -> Self {
        let mut ad_to_query = vec![0.0; by_query.len()];
        let mut cur: Vec<usize> = g.ads().map(|a| g.ad_csr_offset(a)).collect();
        for q in g.queries() {
            let (ads, _) = g.ads_of(q);
            let lo = g.query_csr_offset(q);
            for (x, &a) in ads.iter().enumerate() {
                ad_to_query[cur[a.index()]] = by_query[lo + x];
                cur[a.index()] += 1;
            }
        }
        let mut query_to_ad = vec![0.0; by_ad.len()];
        let mut cur: Vec<usize> = g.queries().map(|q| g.query_csr_offset(q)).collect();
        for a in g.ads() {
            let (qs, _) = g.queries_of(a);
            let lo = g.ad_csr_offset(a);
            for (x, &q) in qs.iter().enumerate() {
                query_to_ad[cur[q.index()]] = by_ad[lo + x];
                cur[q.index()] += 1;
            }
        }
        TransitionFactors {
            ad_to_query,
            query_to_ad,
            ad_to_query_by_query: by_query,
            query_to_ad_by_ad: by_ad,
        }
    }
    /// `F(q, ·)`: query `q`'s own walk steps, aligned with `g.ads_of(q)`.
    #[inline]
    pub fn of_query(&self, g: &ClickGraph, q: QueryId) -> &[f64] {
        let lo = g.query_csr_offset(q);
        &self.ad_to_query_by_query[lo..lo + g.query_degree(q)]
    }

    /// `F(a, ·)`: ad `a`'s own walk steps, aligned with `g.queries_of(a)`.
    #[inline]
    pub fn of_ad(&self, g: &ClickGraph, a: AdId) -> &[f64] {
        let lo = g.ad_csr_offset(a);
        &self.query_to_ad_by_ad[lo..lo + g.ad_degree(a)]
    }

    /// `F(·, q)`: each neighbor ad's step toward query `q`, aligned with
    /// `g.ads_of(q)`.
    #[inline]
    pub fn toward_query(&self, g: &ClickGraph, q: QueryId) -> &[f64] {
        let lo = g.query_csr_offset(q);
        &self.query_to_ad[lo..lo + g.query_degree(q)]
    }

    /// `F(·, a)`: each neighbor query's step toward ad `a`, aligned with
    /// `g.queries_of(a)`.
    #[inline]
    pub fn toward_ad(&self, g: &ClickGraph, a: AdId) -> &[f64] {
        let lo = g.ad_csr_offset(a);
        &self.ad_to_query[lo..lo + g.ad_degree(a)]
    }
}

/// §8.2's weight-consistent walk, the payload of [`Walk::Weighted`]:
/// `F(q, a) = W(q, a) = spread(a) · normalized_weight(q, a)`.
#[derive(Debug, Clone, Copy)]
pub struct WeightedTransition {
    /// Which §2 edge weight feeds the normalized weights.
    pub kind: WeightKind,
    /// Whether the `e^(−variance)` spread factor applies (the ablation knob
    /// `repro_all ablation-spread` turns).
    pub spread: SpreadMode,
}

/// The walk a recursive SimRank variant propagates over, as
/// [`crate::MethodKind::walk`] picks it: the one walk type every engine
/// entry point takes.
#[derive(Debug, Clone, Copy)]
pub enum Walk {
    /// §4's uniform walk: `F(q, a) = 1/N(q)` and `F(a, q) = 1/N(a)` —
    /// equivalent to the classic `C/(N·N')` prefactor, applied per edge.
    Uniform,
    /// §8.2's weighted walk.
    Weighted(WeightedTransition),
}

impl Walk {
    /// Computes both factor tables for `g`: each variant's node-major
    /// tables, completed by the transpose.
    pub fn factors(&self, g: &ClickGraph) -> TransitionFactors {
        let (by_query, by_ad) = match *self {
            Walk::Uniform => {
                let mut by_query = Vec::with_capacity(g.n_edges());
                for q in g.queries() {
                    let n = g.query_degree(q);
                    by_query.resize(by_query.len() + n, 1.0 / n as f64);
                }
                let mut by_ad = Vec::with_capacity(g.n_edges());
                for a in g.ads() {
                    let n = g.ad_degree(a);
                    by_ad.resize(by_ad.len() + n, 1.0 / n as f64);
                }
                (by_query, by_ad)
            }
            Walk::Weighted(WeightedTransition { kind, spread: mode }) => {
                let spread = |weights: &[f64]| match mode {
                    SpreadMode::Exponential => (-population_variance(weights)).exp(),
                    SpreadMode::Off => 1.0,
                };
                let spread_ad: Vec<f64> = g
                    .ads()
                    .map(|a| {
                        let (_, edges) = g.queries_of(a);
                        let weights: Vec<f64> = edges.iter().map(|e| e.weight(kind)).collect();
                        spread(&weights)
                    })
                    .collect();
                let spread_query: Vec<f64> = g
                    .queries()
                    .map(|q| {
                        let (_, edges) = g.ads_of(q);
                        let weights: Vec<f64> = edges.iter().map(|e| e.weight(kind)).collect();
                        spread(&weights)
                    })
                    .collect();

                // W(q, a) = spread(a) · w(q,a)/Σ_j w(q,j), laid out in query-CSR order.
                let mut w_query_to_ad = Vec::with_capacity(g.n_edges());
                for q in g.queries() {
                    let (ads, edges) = g.ads_of(q);
                    let total: f64 = edges.iter().map(|e| e.weight(kind)).sum();
                    for (&a, e) in ads.iter().zip(edges) {
                        let nw = if total > 0.0 {
                            e.weight(kind) / total
                        } else {
                            0.0
                        };
                        w_query_to_ad.push(spread_ad[a.index()] * nw);
                    }
                }
                // W(a, q) = spread(q) · w(a,q)/Σ_j w(a,j), in ad-CSR order.
                let mut w_ad_to_query = Vec::with_capacity(g.n_edges());
                for a in g.ads() {
                    let (qs, edges) = g.queries_of(a);
                    let total: f64 = edges.iter().map(|e| e.weight(kind)).sum();
                    for (&q, e) in qs.iter().zip(edges) {
                        let nw = if total > 0.0 {
                            e.weight(kind) / total
                        } else {
                            0.0
                        };
                        w_ad_to_query.push(spread_query[q.index()] * nw);
                    }
                }
                (w_query_to_ad, w_ad_to_query)
            }
        };
        TransitionFactors::from_node_major(g, by_query, by_ad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_graph::fixtures::{figure3_graph, figure4_k22};

    const WEIGHTED: Walk = Walk::Weighted(WeightedTransition {
        kind: WeightKind::Clicks,
        spread: SpreadMode::Exponential,
    });

    #[test]
    fn uniform_factors_are_inverse_degrees() {
        let g = figure3_graph();
        let f = Walk::Uniform.factors(&g);
        assert_eq!(f.ad_to_query.len(), g.n_edges());
        assert_eq!(f.query_to_ad.len(), g.n_edges());
        // Spot-check one row per direction.
        let a0 = AdId(0);
        let (qs, _) = g.queries_of(a0);
        for (&q, &w) in qs.iter().zip(f.toward_ad(&g, a0)) {
            assert_eq!(w, 1.0 / g.query_degree(q) as f64);
        }
        let q0 = QueryId(0);
        let (ads, _) = g.ads_of(q0);
        for (&a, &w) in ads.iter().zip(f.toward_query(&g, q0)) {
            assert_eq!(w, 1.0 / g.ad_degree(a) as f64);
        }
    }

    #[test]
    fn transposed_layouts_agree_with_node_major_tables() {
        // Every edge's factor must be identical through both layouts, for
        // both the uniform and a genuinely non-uniform weighted walk, on the
        // paper fixture and on a scattered graph with isolated nodes.
        let mut b = simrankpp_graph::ClickGraphBuilder::new();
        let mut x: u64 = 99;
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.add_edge(
                QueryId(((x >> 33) % 90) as u32),
                AdId(((x >> 13) % 70) as u32),
                simrankpp_graph::EdgeData::from_clicks(1 + x % 7),
            );
        }
        b.reserve_queries(93);
        b.reserve_ads(72);
        for g in [figure3_graph(), b.build()] {
            for f in [Walk::Uniform.factors(&g), WEIGHTED.factors(&g)] {
                for q in g.queries() {
                    let (ads, _) = g.ads_of(q);
                    for (x, &a) in ads.iter().enumerate() {
                        let (qs, _) = g.queries_of(a);
                        let pos = qs.binary_search(&q).unwrap();
                        // F(q, a): query-major own row vs ad-major transpose.
                        assert_eq!(
                            f.toward_ad(&g, a)[pos].to_bits(),
                            f.of_query(&g, q)[x].to_bits()
                        );
                        // F(a, q): ad-major own row vs query-major transpose.
                        assert_eq!(
                            f.toward_query(&g, q)[x].to_bits(),
                            f.of_ad(&g, a)[pos].to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_factors_on_uniform_graph_match_uniform() {
        // Equal weights: W(q, a) = 1/N(q), so both walks agree exactly.
        let g = figure4_k22();
        let u = Walk::Uniform.factors(&g);
        let w = WEIGHTED.factors(&g);
        assert_eq!(u.ad_to_query, w.ad_to_query);
        assert_eq!(u.query_to_ad, w.query_to_ad);
    }
}
