//! Per-edge transition factors — the only thing that distinguishes the
//! SimRank variants inside the unified kernel.

use crate::weighted::{SpreadMode, TransitionWeights};
use simrankpp_graph::{ClickGraph, WeightKind};

/// Precomputed per-edge factors in both CSR orders.
///
/// The scatter kernels walk *source* rows: when ad-pair scores propagate to
/// query pairs they iterate each ad's query list, so the factor attached to
/// edge `(q, a)` must be addressable per ad row — and symmetrically for the
/// other direction. The pull kernel additionally needs each table in the
/// *transposed* layout: its first SpGEMM pass walks the output node's own
/// neighbor list (e.g. `F(q, a)` for `a ∈ E(q)`, query-major), its second
/// pass scatters through the inner node's list (`F(q', a)` for
/// `q' ∈ E(a)`, ad-major). [`TransitionFactors::from_primary`] derives the
/// transposed copies with a counting transpose, so each variant still only
/// supplies the two primary tables.
#[derive(Debug, Clone)]
pub struct TransitionFactors {
    /// `F(q, a)` per (ad → query) CSR edge, ad-major: the weight with which
    /// ad-side scores flow into query `q` through ad `a`.
    pub ad_to_query: Vec<f64>,
    /// `F(a, q)` per (query → ad) CSR edge, query-major.
    pub query_to_ad: Vec<f64>,
    /// `F(q, a)` re-laid-out query-major (same values as `ad_to_query`,
    /// addressable per query row) — the pull kernel's query-side pass 1.
    pub ad_to_query_by_query: Vec<f64>,
    /// `F(a, q)` re-laid-out ad-major (same values as `query_to_ad`,
    /// addressable per ad row) — the pull kernel's ad-side pass 1.
    pub query_to_ad_by_ad: Vec<f64>,
}

impl TransitionFactors {
    /// Completes the factor set from the two primary tables, deriving the
    /// transposed layouts. The transpose scans the source-major table in CSR
    /// order and writes through a per-target-row cursor; because both CSR
    /// directions keep neighbor lists ascending, each target row fills in
    /// exactly its own CSR order — a counting transpose, no sorting.
    pub fn from_primary(g: &ClickGraph, ad_to_query: Vec<f64>, query_to_ad: Vec<f64>) -> Self {
        let mut ad_to_query_by_query = vec![0.0; ad_to_query.len()];
        let mut cur: Vec<usize> = g.queries().map(|q| g.query_csr_offset(q)).collect();
        for a in g.ads() {
            let (qs, _) = g.queries_of(a);
            let lo = g.ad_csr_offset(a);
            for (x, &q) in qs.iter().enumerate() {
                ad_to_query_by_query[cur[q.index()]] = ad_to_query[lo + x];
                cur[q.index()] += 1;
            }
        }
        let mut query_to_ad_by_ad = vec![0.0; query_to_ad.len()];
        let mut cur: Vec<usize> = g.ads().map(|a| g.ad_csr_offset(a)).collect();
        for q in g.queries() {
            let (ads, _) = g.ads_of(q);
            let lo = g.query_csr_offset(q);
            for (x, &a) in ads.iter().enumerate() {
                query_to_ad_by_ad[cur[a.index()]] = query_to_ad[lo + x];
                cur[a.index()] += 1;
            }
        }
        TransitionFactors {
            ad_to_query,
            query_to_ad,
            ad_to_query_by_query,
            query_to_ad_by_ad,
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
        let inv_q: Vec<f64> = g
            .queries()
            .map(|q| 1.0 / g.query_degree(q) as f64)
            .collect();
        let inv_a: Vec<f64> = g.ads().map(|a| 1.0 / g.ad_degree(a) as f64).collect();

        let mut ad_to_query = Vec::with_capacity(g.n_edges());
        for a in g.ads() {
            let (qs, _) = g.queries_of(a);
            ad_to_query.extend(qs.iter().map(|q| inv_q[q.index()]));
        }
        let mut query_to_ad = Vec::with_capacity(g.n_edges());
        for q in g.queries() {
            let (ads, _) = g.ads_of(q);
            query_to_ad.extend(ads.iter().map(|a| inv_a[a.index()]));
        }
        TransitionFactors::from_primary(g, ad_to_query, query_to_ad)
    }
}

/// §8.2's weight-consistent walk:
/// `F(q, a) = W(q, a) = spread(a) · normalized_weight(q, a)`.
#[derive(Debug, Clone, Copy)]
pub struct WeightedTransition {
    /// Which §2 edge weight feeds the normalized weights.
    pub kind: WeightKind,
    /// Whether the `e^(−variance)` spread factor applies (ablation knob).
    pub spread: SpreadMode,
}

impl Transition for WeightedTransition {
    fn name(&self) -> &'static str {
        "weighted"
    }

    fn factors(&self, g: &ClickGraph) -> TransitionFactors {
        let tw = TransitionWeights::compute_with_spread(g, self.kind, self.spread);
        TransitionFactors::from_primary(
            g,
            ad_csr_aligned_query_factors(g, &tw),
            query_csr_aligned_ad_factors(g, &tw),
        )
    }
}

/// `W(q, a)` values re-laid-out in ad-CSR order (entry per (a ← q) edge).
fn ad_csr_aligned_query_factors(g: &ClickGraph, tw: &TransitionWeights) -> Vec<f64> {
    let mut out = vec![0.0; g.n_edges()];
    let mut q_edge_idx = 0usize;
    for q in g.queries() {
        let (ads, _) = g.ads_of(q);
        for &a in ads {
            let (qs, _) = g.queries_of(a);
            let pos = qs.binary_search(&q).expect("edge present in transpose");
            out[g.ad_csr_offset(a) + pos] = tw.w_query_to_ad[q_edge_idx];
            q_edge_idx += 1;
        }
    }
    out
}

/// `W(a, q)` values re-laid-out in query-CSR order (entry per (q ← a) edge).
fn query_csr_aligned_ad_factors(g: &ClickGraph, tw: &TransitionWeights) -> Vec<f64> {
    let mut out = vec![0.0; g.n_edges()];
    let mut a_edge_idx = 0usize;
    for a in g.ads() {
        let (qs, _) = g.queries_of(a);
        for &q in qs {
            let (ads, _) = g.ads_of(q);
            let pos = ads.binary_search(&a).expect("edge present in transpose");
            out[g.query_csr_offset(q) + pos] = tw.w_ad_to_query[a_edge_idx];
            a_edge_idx += 1;
        }
    }
    out
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
    fn transposed_layouts_agree_with_primary_tables() {
        // Every edge's factor must be identical through both layouts, for
        // both the uniform and a genuinely non-uniform weighted transition.
        let g = figure3_graph();
        let weighted = WeightedTransition {
            kind: simrankpp_graph::WeightKind::Clicks,
            spread: crate::weighted::SpreadMode::Exponential,
        };
        for f in [UniformTransition.factors(&g), weighted.factors(&g)] {
            for q in g.queries() {
                let (ads, _) = g.ads_of(q);
                let qlo = g.query_csr_offset(q);
                for (x, &a) in ads.iter().enumerate() {
                    let (qs, _) = g.queries_of(a);
                    let pos = qs.binary_search(&q).unwrap();
                    let alo = g.ad_csr_offset(a);
                    // F(q, a): ad-major primary vs query-major transpose.
                    assert_eq!(
                        f.ad_to_query[alo + pos].to_bits(),
                        f.ad_to_query_by_query[qlo + x].to_bits()
                    );
                    // F(a, q): query-major primary vs ad-major transpose.
                    assert_eq!(
                        f.query_to_ad[qlo + x].to_bits(),
                        f.query_to_ad_by_ad[alo + pos].to_bits()
                    );
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
