//! Per-edge weight data.
//!
//! §2: each click-graph edge `(q, α)` has three associated weights —
//! impressions, clicks (≤ impressions), and the expected click rate (a
//! position-adjusted clicks/impressions ratio). §9.2: *"In all our experiments
//! that required the use of an edge weight we used the expected click rate."*
//! [`WeightKind`] lets every algorithm choose which weight to consume, and
//! `repro_all ablation-weights` sweeps all three.

use serde::{Deserialize, Serialize};

/// The three §2 edge weights for one `(query, ad)` edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EdgeData {
    /// Number of times the ad was displayed for the query.
    pub impressions: u64,
    /// Number of those displays that were clicked. Invariant: ≤ impressions.
    pub clicks: u64,
    /// Position-adjusted clicks/impressions ratio computed by the back-end.
    pub expected_click_rate: f64,
}

impl EdgeData {
    /// Creates edge data, checking the clicks ≤ impressions invariant.
    ///
    /// # Panics
    /// Panics if `clicks > impressions` or `expected_click_rate` is negative
    /// or non-finite.
    pub fn new(impressions: u64, clicks: u64, expected_click_rate: f64) -> Self {
        assert!(
            clicks <= impressions,
            "clicks ({clicks}) must not exceed impressions ({impressions})"
        );
        assert!(
            expected_click_rate.is_finite() && expected_click_rate >= 0.0,
            "expected click rate must be finite and non-negative, got {expected_click_rate}"
        );
        EdgeData {
            impressions,
            clicks,
            expected_click_rate,
        }
    }

    /// Parses the `impressions \t clicks \t ecr` field triple that ends an
    /// edge record in every text format (graph TSV, delta TSV, click log),
    /// enforcing `clicks ≤ impressions` and a finite non-negative ECR. The
    /// error is the message only; each reader prefixes its own format name
    /// and line number.
    pub(crate) fn parse_tsv_fields(impr: &str, clicks: &str, ecr: &str) -> Result<Self, String> {
        let impressions: u64 = impr
            .parse()
            .map_err(|_| format!("bad impressions field {impr:?}"))?;
        let clicks: u64 = clicks
            .parse()
            .map_err(|_| format!("bad clicks field {clicks:?}"))?;
        let expected_click_rate: f64 = ecr.parse().map_err(|_| format!("bad ECR field {ecr:?}"))?;
        if clicks > impressions || !expected_click_rate.is_finite() || expected_click_rate < 0.0 {
            return Err("edge data violates invariants".to_owned());
        }
        Ok(EdgeData {
            impressions,
            clicks,
            expected_click_rate,
        })
    }

    /// Edge data carrying only a click count (impressions = clicks, ECR =
    /// raw click-through 1.0). Used by the small worked examples where the
    /// paper only talks about clicks.
    pub fn from_clicks(clicks: u64) -> Self {
        EdgeData {
            impressions: clicks,
            clicks,
            expected_click_rate: if clicks > 0 { 1.0 } else { 0.0 },
        }
    }

    /// Raw (unadjusted) click-through rate; 0 when there were no impressions.
    pub fn raw_ctr(&self) -> f64 {
        if self.impressions == 0 {
            0.0
        } else {
            self.clicks as f64 / self.impressions as f64
        }
    }

    /// The weight of the chosen [`WeightKind`].
    #[inline]
    pub fn weight(&self, kind: WeightKind) -> f64 {
        match kind {
            WeightKind::Impressions => self.impressions as f64,
            WeightKind::Clicks => self.clicks as f64,
            WeightKind::ExpectedClickRate => self.expected_click_rate,
        }
    }

    /// Accumulates another observation window onto this edge.
    ///
    /// ECR combines as an impression-weighted average, matching how the
    /// back-end would recompute it over the union of the windows. The
    /// counters saturate at `u64::MAX`: every parser accepts that value, and
    /// a wrapped sum could leave `clicks > impressions` on the merged edge
    /// (each side has `clicks ≤ impressions`, so clicks can only saturate
    /// after impressions has).
    pub fn merge(&mut self, other: &EdgeData) {
        let total_impr = self.impressions.saturating_add(other.impressions);
        if total_impr > 0 {
            self.expected_click_rate = (self.expected_click_rate * self.impressions as f64
                + other.expected_click_rate * other.impressions as f64)
                / total_impr as f64;
        } else {
            self.expected_click_rate =
                (self.expected_click_rate + other.expected_click_rate).max(0.0) / 2.0;
        }
        self.impressions = total_impr;
        self.clicks = self.clicks.saturating_add(other.clicks);
    }
}

/// Which of the three §2 edge weights an algorithm should consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum WeightKind {
    /// Displays of the ad for the query.
    Impressions,
    /// Clicks the ad received for the query.
    Clicks,
    /// Position-adjusted clicks/impressions (the paper's experiments use this).
    #[default]
    ExpectedClickRate,
}

impl WeightKind {
    /// All weight kinds, for ablation sweeps.
    pub const ALL: [WeightKind; 3] = [
        WeightKind::Impressions,
        WeightKind::Clicks,
        WeightKind::ExpectedClickRate,
    ];

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            WeightKind::Impressions => "impressions",
            WeightKind::Clicks => "clicks",
            WeightKind::ExpectedClickRate => "expected-click-rate",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_invariants() {
        let e = EdgeData::new(10, 3, 0.35);
        assert_eq!(e.impressions, 10);
        assert_eq!(e.clicks, 3);
        assert!((e.raw_ctr() - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "clicks")]
    fn clicks_cannot_exceed_impressions() {
        EdgeData::new(2, 3, 0.1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn ecr_must_be_finite() {
        EdgeData::new(2, 1, f64::NAN);
    }

    #[test]
    fn from_clicks_shortcut() {
        let e = EdgeData::from_clicks(5);
        assert_eq!(e.clicks, 5);
        assert_eq!(e.impressions, 5);
        assert_eq!(e.expected_click_rate, 1.0);
        assert_eq!(EdgeData::from_clicks(0).expected_click_rate, 0.0);
    }

    #[test]
    fn weight_selection() {
        let e = EdgeData::new(100, 7, 0.09);
        assert_eq!(e.weight(WeightKind::Impressions), 100.0);
        assert_eq!(e.weight(WeightKind::Clicks), 7.0);
        assert_eq!(e.weight(WeightKind::ExpectedClickRate), 0.09);
    }

    #[test]
    fn merge_weighted_average_ecr() {
        let mut a = EdgeData::new(10, 2, 0.2);
        let b = EdgeData::new(30, 3, 0.4);
        a.merge(&b);
        assert_eq!(a.impressions, 40);
        assert_eq!(a.clicks, 5);
        // (0.2*10 + 0.4*30)/40 = 0.35
        assert!((a.expected_click_rate - 0.35).abs() < 1e-12);
    }

    #[test]
    fn zero_ctr_when_no_impressions() {
        let e = EdgeData::default();
        assert_eq!(e.raw_ctr(), 0.0);
    }
}
