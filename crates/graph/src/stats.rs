//! Degree statistics and power-law diagnostics.
//!
//! §9.2 reports Table 5 (per-subgraph query/ad/edge counts) and observes
//! "a number of power-law distributions, including ads-per-query,
//! queries-per-ad and number of clicks per query-ad pair". [`GraphStats`]
//! computes those counts and histograms, plus a discrete maximum-likelihood
//! power-law exponent so the synthetic generator can be checked against the
//! paper's observation.

use crate::graph::ClickGraph;
use serde::{Deserialize, Serialize};

/// A degree (or click-count) histogram: `counts[d]` = number of nodes with
/// degree exactly `d` (index 0 = isolated).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct DegreeHistogram {
    /// Frequency per degree.
    pub counts: Vec<u64>,
}

impl DegreeHistogram {
    /// Builds a histogram from raw degrees.
    pub fn from_degrees(degrees: impl Iterator<Item = usize>) -> Self {
        let mut counts: Vec<u64> = Vec::new();
        for d in degrees {
            if d >= counts.len() {
                counts.resize(d + 1, 0);
            }
            counts[d] += 1;
        }
        DegreeHistogram { counts }
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Maximum observed degree.
    pub fn max_degree(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Mean degree.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        sum as f64 / total as f64
    }

    /// Discrete MLE power-law exponent `α ≈ 1 + n / Σ ln(d / (d_min - ½))`
    /// over observations with degree ≥ `d_min` (Clauset–Shalizi–Newman).
    /// Returns `None` when fewer than two qualifying observations exist.
    pub fn powerlaw_alpha(&self, d_min: usize) -> Option<f64> {
        let d_min = d_min.max(1);
        let mut n = 0u64;
        let mut log_sum = 0.0f64;
        for (d, &c) in self.counts.iter().enumerate().skip(d_min) {
            if c == 0 {
                continue;
            }
            n += c;
            log_sum += c as f64 * (d as f64 / (d_min as f64 - 0.5)).ln();
        }
        if n < 2 || log_sum <= 0.0 {
            None
        } else {
            Some(1.0 + n as f64 / log_sum)
        }
    }
}

/// Summary statistics of a click graph (Table 5 rows plus distribution
/// diagnostics).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphStats {
    /// `|Q|`.
    pub n_queries: usize,
    /// `|A|`.
    pub n_ads: usize,
    /// `|E|`.
    pub n_edges: usize,
    /// Ads-per-query histogram.
    pub ads_per_query: DegreeHistogram,
    /// Queries-per-ad histogram.
    pub queries_per_ad: DegreeHistogram,
    /// Clicks-per-edge histogram.
    pub clicks_per_edge: DegreeHistogram,
    /// Total clicks over all edges.
    pub total_clicks: u64,
    /// Total impressions over all edges.
    pub total_impressions: u64,
}

impl GraphStats {
    /// Computes all statistics for `g`.
    pub fn compute(g: &ClickGraph) -> Self {
        let ads_per_query = DegreeHistogram::from_degrees(g.queries().map(|q| g.query_degree(q)));
        let queries_per_ad = DegreeHistogram::from_degrees(g.ads().map(|a| g.ad_degree(a)));
        let clicks_per_edge =
            DegreeHistogram::from_degrees(g.edges().map(|(_, _, e)| e.clicks as usize));
        let total_clicks = g.edges().map(|(_, _, e)| e.clicks).sum();
        let total_impressions = g.edges().map(|(_, _, e)| e.impressions).sum();
        GraphStats {
            n_queries: g.n_queries(),
            n_ads: g.n_ads(),
            n_edges: g.n_edges(),
            ads_per_query,
            queries_per_ad,
            clicks_per_edge,
            total_clicks,
            total_impressions,
        }
    }

    /// One row of Table 5: `(#queries, #ads, #edges)`.
    pub fn table5_row(&self) -> (usize, usize, usize) {
        (self.n_queries, self.n_ads, self.n_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClickGraphBuilder;
    use crate::edge::EdgeData;
    use crate::fixtures::figure3_graph;
    use crate::ids::{AdId, QueryId};

    #[test]
    fn figure3_stats() {
        let g = figure3_graph();
        let s = GraphStats::compute(&g);
        assert_eq!(s.table5_row(), (5, 4, 8));
        assert_eq!(s.total_clicks, 8);
        // Degrees: pc=1, camera=2, digital=2, tv=1, flower=2.
        assert_eq!(s.ads_per_query.counts, vec![0, 2, 3]);
        assert_eq!(s.ads_per_query.total(), 5);
        assert!((s.ads_per_query.mean() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_from_degrees() {
        let h = DegreeHistogram::from_degrees([0, 1, 1, 3].into_iter());
        assert_eq!(h.counts, vec![1, 2, 0, 1]);
        assert_eq!(h.max_degree(), 3);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn empty_histogram() {
        let h = DegreeHistogram::from_degrees(std::iter::empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.powerlaw_alpha(1).is_none());
    }

    #[test]
    fn powerlaw_alpha_recovers_exponent() {
        // Synthesize a perfect power law p(d) ∝ d^-2.5 over d=10..10000 and
        // check the MLE lands near 2.5. The CSN continuous approximation is
        // biased for d_min < ~6, so fit from d_min = 10.
        let alpha_true = 2.5f64;
        let d_min = 10usize;
        let mut counts = vec![0u64; d_min];
        let scale = 1e9;
        for d in d_min..=10_000usize {
            counts.push((scale * (d as f64).powf(-alpha_true)) as u64);
        }
        let h = DegreeHistogram { counts };
        let alpha = h.powerlaw_alpha(d_min).unwrap();
        assert!(
            (alpha - alpha_true).abs() < 0.05,
            "estimated {alpha}, wanted ~{alpha_true}"
        );
    }

    #[test]
    fn totals_sum_every_edge() {
        let mut b = ClickGraphBuilder::new();
        b.add_edge(QueryId(0), AdId(0), EdgeData::new(10, 2, 0.2));
        b.add_edge(QueryId(1), AdId(0), EdgeData::new(10, 4, 0.4));
        let s = GraphStats::compute(&b.build());
        assert_eq!((s.total_clicks, s.total_impressions), (6, 20));
    }
}
