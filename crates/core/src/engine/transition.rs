//! Per-edge transition factors — the only thing that distinguishes the
//! SimRank variants inside the unified kernel.

use crate::weighted::{SpreadMode, TransitionWeights};
use simrankpp_graph::{ClickGraph, WeightKind};

/// Precomputed per-edge factors in both CSR orders.
///
/// The pull kernel's first SpGEMM pass walks the output node's own neighbor
/// list (e.g. `F(q, a)` for `a ∈ E(q)`, query-major); its second pass
/// scatters through the inner node's list (`F(q', a)` for `q' ∈ E(a)`,
/// ad-major). So each of the two factor families is needed in both layouts.
/// A variant supplies each family **node-major** — every node's own row, the
/// layout it is computed in — and [`TransitionFactors::from_node_major`]
/// derives the other two with one counting transpose.
#[derive(Debug, Clone)]
pub struct TransitionFactors {
    /// `F(q, a)` per (ad → query) CSR edge, ad-major: the weight with which
    /// ad-side scores flow into query `q` through ad `a` (pass 2, query side).
    pub ad_to_query: Vec<f64>,
    /// `F(a, q)` per (query → ad) CSR edge, query-major (pass 2, ad side).
    pub query_to_ad: Vec<f64>,
    /// `F(q, a)` query-major (same values as `ad_to_query`, addressable per
    /// query row) — the pull kernel's query-side pass 1.
    pub ad_to_query_by_query: Vec<f64>,
    /// `F(a, q)` ad-major (same values as `query_to_ad`, addressable per ad
    /// row) — the pull kernel's ad-side pass 1.
    pub query_to_ad_by_ad: Vec<f64>,
}

impl TransitionFactors {
    /// Completes the factor set from the two node-major tables — `by_query`
    /// holds `F(q, a)` in query-CSR order, `by_ad` holds `F(a, q)` in ad-CSR
    /// order — deriving the transposed layouts. The transpose scans the
    /// source-major table in CSR order and writes through a per-target-row
    /// cursor; because both CSR directions keep neighbor lists ascending,
    /// each target row fills in exactly its own CSR order — a counting
    /// transpose, no sorting.
    pub fn from_node_major(g: &ClickGraph, by_query: Vec<f64>, by_ad: Vec<f64>) -> Self {
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
}

/// A SimRank variant's walk model: produces the per-edge factor tables.
pub trait Transition: Sync {
    /// Display name for diagnostics.
    fn name(&self) -> &'static str;

    /// Computes both factor tables for `g`.
    fn factors(&self, g: &ClickGraph) -> TransitionFactors;
}

/// §4's uniform walk: `F(q, a) = 1/N(q)` and `F(a, q) = 1/N(a)` — equivalent
/// to the classic `C/(N·N')` prefactor, applied per edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformTransition;

impl Transition for UniformTransition {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn factors(&self, g: &ClickGraph) -> TransitionFactors {
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
        TransitionFactors::from_node_major(g, by_query, by_ad)
    }
}

/// §8.2's weight-consistent walk:
/// `F(q, a) = W(q, a) = spread(a) · normalized_weight(q, a)`.
#[derive(Debug, Clone, Copy)]
pub struct WeightedTransition {
    /// Which §2 edge weight feeds the normalized weights.
    pub kind: WeightKind,
    /// Whether the `e^(−variance)` spread factor applies (the ablation knob
    /// `repro_all ablation-spread` turns).
    pub spread: SpreadMode,
}

impl Transition for WeightedTransition {
    fn name(&self) -> &'static str {
        "weighted"
    }

    fn factors(&self, g: &ClickGraph) -> TransitionFactors {
        let tw = TransitionWeights::compute_with_spread(g, self.kind, self.spread);
        TransitionFactors::from_node_major(g, tw.w_query_to_ad, tw.w_ad_to_query)
    }
}

/// The walk a recursive SimRank kind propagates over, as
/// [`crate::MethodKind::walk`] picks it.
#[derive(Debug, Clone, Copy)]
pub enum Walk {
    /// §4's uniform walk.
    Uniform,
    /// §8.2's weighted walk.
    Weighted(WeightedTransition),
}

impl Transition for Walk {
    fn name(&self) -> &'static str {
        match self {
            Walk::Uniform => UniformTransition.name(),
            Walk::Weighted(w) => w.name(),
        }
    }

    fn factors(&self, g: &ClickGraph) -> TransitionFactors {
        match self {
            Walk::Uniform => UniformTransition.factors(g),
            Walk::Weighted(w) => w.factors(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_graph::fixtures::{figure3_graph, figure4_k22};
    use simrankpp_graph::{AdId, QueryId};

    #[test]
    fn uniform_factors_are_inverse_degrees() {
        let g = figure3_graph();
        let f = UniformTransition.factors(&g);
        assert_eq!(f.ad_to_query.len(), g.n_edges());
        assert_eq!(f.query_to_ad.len(), g.n_edges());
        // Spot-check one row per direction.
        let a0 = AdId(0);
        let (qs, _) = g.queries_of(a0);
        let lo = g.ad_csr_offset(a0);
        for (x, &q) in qs.iter().enumerate() {
            assert_eq!(f.ad_to_query[lo + x], 1.0 / g.query_degree(q) as f64);
        }
        let q0 = QueryId(0);
        let (ads, _) = g.ads_of(q0);
        let lo = g.query_csr_offset(q0);
        for (x, &a) in ads.iter().enumerate() {
            assert_eq!(f.query_to_ad[lo + x], 1.0 / g.ad_degree(a) as f64);
        }
    }

    #[test]
    fn transposed_layouts_agree_with_node_major_tables() {
        // Every edge's factor must be identical through both layouts, for
        // both the uniform and a genuinely non-uniform weighted transition,
        // on the paper fixture and on a scattered graph with isolated nodes.
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
        let weighted = WeightedTransition {
            kind: simrankpp_graph::WeightKind::Clicks,
            spread: crate::weighted::SpreadMode::Exponential,
        };
        for g in [figure3_graph(), b.build()] {
            // The weighted node-major tables are `TransitionWeights`' own.
            let tw = TransitionWeights::compute_with_spread(&g, weighted.kind, weighted.spread);
            let w = weighted.factors(&g);
            assert_eq!(w.ad_to_query_by_query, tw.w_query_to_ad);
            assert_eq!(w.query_to_ad_by_ad, tw.w_ad_to_query);
            for f in [UniformTransition.factors(&g), w] {
                for q in g.queries() {
                    let (ads, _) = g.ads_of(q);
                    let qlo = g.query_csr_offset(q);
                    for (x, &a) in ads.iter().enumerate() {
                        let (qs, _) = g.queries_of(a);
                        let pos = qs.binary_search(&q).unwrap();
                        let alo = g.ad_csr_offset(a);
                        // F(q, a): query-major own row vs ad-major transpose.
                        assert_eq!(
                            f.ad_to_query[alo + pos].to_bits(),
                            f.ad_to_query_by_query[qlo + x].to_bits()
                        );
                        // F(a, q): ad-major own row vs query-major transpose.
                        assert_eq!(
                            f.query_to_ad[qlo + x].to_bits(),
                            f.query_to_ad_by_ad[alo + pos].to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_factors_on_uniform_graph_match_uniform() {
        // Equal weights: W(q, a) = 1/N(q), so both transitions agree exactly.
        let g = figure4_k22();
        let u = UniformTransition.factors(&g);
        let w = WeightedTransition {
            kind: WeightKind::Clicks,
            spread: SpreadMode::Exponential,
        }
        .factors(&g);
        assert_eq!(u.ad_to_query, w.ad_to_query);
        assert_eq!(u.query_to_ad, w.query_to_ad);
    }
}
