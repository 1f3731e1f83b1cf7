//! Evidence-based SimRank (§7).
//!
//! The evidence that two same-side nodes are similar grows with their common
//! neighbor count `n = |E(a) ∩ E(b)|`:
//!
//! * Eq. 7.3 (geometric, used in the paper's experiments):
//!   `evidence(a,b) = Σ_{i=1..n} 2⁻ⁱ = 1 − 2⁻ⁿ`
//! * Eq. 7.4 (exponential alternative): `evidence(a,b) = 1 − e⁻ⁿ`
//!
//! Evidence-based scores multiply the `k`-iteration SimRank scores at
//! read-out (Eq. 7.5/7.6): `s_ev(q,q') = evidence(q,q') · s(q,q')`.
//!
//! Note a consequence the evaluation depends on: pairs with **no** common
//! neighbor have evidence 0, so their evidence-based score collapses to 0
//! regardless of the underlying SimRank score. The ranking code therefore
//! keeps the raw SimRank score as a tie-breaker, which reproduces the
//! paper's Figure 12 result where evidence-based SimRank predicts exactly
//! as plain SimRank does once direct evidence is removed (27/50 for both).
//!
//! (The paper's Appendix B.1 writes the K2,2 evidence factor as `(1/2 + 1/3)`;
//! Table 4's numbers use `1/2 + 1/4 = 3/4`, consistent with Eq. 7.3. We follow
//! Eq. 7.3 / Table 4 and flag the appendix constant as a typo.)

use crate::config::SimrankConfig;
use crate::scores::{ScoreMatrix, ScoreMatrixBuilder};
use crate::simrank::{simrank, SimrankResult};
use serde::{Deserialize, Serialize};
use simrankpp_graph::{AdId, ClickGraph, QueryId};

/// Which evidence formula to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum EvidenceKind {
    /// Eq. 7.3: `1 − 2⁻ⁿ` (the paper's experiments).
    #[default]
    Geometric,
    /// Eq. 7.4: `1 − e⁻ⁿ`.
    Exponential,
}

impl EvidenceKind {
    /// Evidence value for `n` common neighbors.
    #[inline]
    pub fn value(self, n: usize) -> f64 {
        match self {
            EvidenceKind::Geometric => evidence_geometric(n),
            EvidenceKind::Exponential => evidence_exponential(n),
        }
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EvidenceKind::Geometric => "geometric",
            EvidenceKind::Exponential => "exponential",
        }
    }
}

/// Eq. 7.3: `Σ_{i=1..n} 2⁻ⁱ = 1 − 2⁻ⁿ`.
#[inline]
pub fn evidence_geometric(n: usize) -> f64 {
    if n == 0 {
        0.0
    } else if n >= 64 {
        1.0
    } else {
        1.0 - 0.5f64.powi(n as i32)
    }
}

/// Eq. 7.4: `1 − e⁻ⁿ`.
#[inline]
pub fn evidence_exponential(n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        1.0 - (-(n as f64)).exp()
    }
}

/// Result of a walk with the evidence read-out — evidence-based SimRank (§7)
/// and weighted SimRank (§8): both the raw walk scores and the
/// evidence-multiplied scores.
#[derive(Debug, Clone)]
pub struct EvidenceSimrankResult {
    /// The underlying walk's result (uniform for §7, weighted for §8), no
    /// evidence factor applied.
    pub raw: SimrankResult,
    /// Evidence-multiplied query-side scores (Eq. 7.5).
    pub queries: ScoreMatrix,
    /// Evidence-multiplied ad-side scores (Eq. 7.6).
    pub ads: ScoreMatrix,
    /// Evidence formula used.
    pub kind: EvidenceKind,
}

/// Runs SimRank then applies evidence at read-out (Eq. 7.5/7.6).
pub fn evidence_simrank(
    g: &ClickGraph,
    config: &SimrankConfig,
    kind: EvidenceKind,
) -> EvidenceSimrankResult {
    let raw = simrank(g, config);
    apply_evidence(g, raw, kind)
}

/// Multiplies an existing SimRank result by evidence factors.
pub fn apply_evidence(
    g: &ClickGraph,
    raw: SimrankResult,
    kind: EvidenceKind,
) -> EvidenceSimrankResult {
    let (queries, ads) = evidence_multiply(g, &raw.queries, &raw.ads, kind);
    EvidenceSimrankResult {
        queries,
        ads,
        raw,
        kind,
    }
}

/// The Eq. 7.5/7.6 read-out on bare score matrices: every stored pair is
/// multiplied by its evidence factor, and zero-evidence pairs are dropped.
/// Shared by evidence-based SimRank (§7) and weighted SimRank (§8), which
/// apply the same read-out to different walks.
pub fn evidence_multiply(
    g: &ClickGraph,
    raw_queries: &ScoreMatrix,
    raw_ads: &ScoreMatrix,
    kind: EvidenceKind,
) -> (ScoreMatrix, ScoreMatrix) {
    let ads = evidence_side(g.n_ads(), raw_ads, kind, |a, b| {
        g.common_queries(AdId(a), AdId(b))
    });
    (query_evidence(g, raw_queries, kind), ads)
}

/// The Eq. 7.5 read-out alone: the query side of [`evidence_multiply`], for
/// callers that never read the ad side.
pub(crate) fn query_evidence(
    g: &ClickGraph,
    raw_queries: &ScoreMatrix,
    kind: EvidenceKind,
) -> ScoreMatrix {
    evidence_side(g.n_queries(), raw_queries, kind, |a, b| {
        g.common_ads(QueryId(a), QueryId(b))
    })
}

/// One side's read-out over its `n` nodes: every stored pair times the
/// evidence of its `common(a, b)` shared neighbors, zero-evidence pairs
/// dropped.
fn evidence_side(
    n: usize,
    raw: &ScoreMatrix,
    kind: EvidenceKind,
    common: impl Fn(u32, u32) -> usize,
) -> ScoreMatrix {
    let mut builder = ScoreMatrixBuilder::new(n);
    for (a, b, v) in raw.iter() {
        let ev = kind.value(common(a, b));
        if ev > 0.0 {
            builder.set(a, b, ev * v);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_graph::fixtures::{figure4_k12, figure4_k22};

    fn cfg(k: usize) -> SimrankConfig {
        SimrankConfig::default().with_iterations(k)
    }

    #[test]
    fn geometric_values() {
        assert_eq!(evidence_geometric(0), 0.0);
        assert_eq!(evidence_geometric(1), 0.5);
        assert_eq!(evidence_geometric(2), 0.75);
        assert_eq!(evidence_geometric(3), 0.875);
        assert_eq!(evidence_geometric(100), 1.0);
    }

    #[test]
    fn exponential_values() {
        assert_eq!(evidence_exponential(0), 0.0);
        assert!((evidence_exponential(1) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!(evidence_exponential(50) > 0.999999);
    }

    #[test]
    fn both_kinds_increase_towards_one() {
        for kind in [EvidenceKind::Geometric, EvidenceKind::Exponential] {
            let mut prev = 0.0;
            for n in 1..30 {
                let v = kind.value(n);
                assert!(v > prev, "{} not increasing at n={n}", kind.name());
                assert!(v < 1.0 + 1e-12);
                prev = v;
            }
        }
    }

    #[test]
    fn appendix_b1_typo_uses_eq_7_3() {
        // Appendix B.1 writes the K2,2 evidence factor as (1/2 + 1/3); the
        // numbers in Table 4 use Eq. 7.3's geometric sum 1/2 + 1/4 = 3/4.
        // This invariant pins the implementation to Eq. 7.3 / Table 4 so the
        // documented typo-handling cannot silently regress.
        assert_eq!(evidence_geometric(2), 0.75);
        assert_ne!(evidence_geometric(2), 0.5 + 1.0 / 3.0);
        // The factor actually applied on K2,2 (two common ads) is 3/4: the
        // evidence-based score is exactly 0.75 × the plain SimRank score.
        let g = figure4_k22();
        let r = evidence_simrank(&g, &cfg(3), EvidenceKind::Geometric);
        let plain = crate::simrank::simrank(&g, &cfg(3));
        assert_eq!(r.queries.get(0, 1), 0.75 * plain.queries.get(0, 1));
    }

    #[test]
    fn table4_k22_iterations() {
        // Table 4: evidence-based sim("camera","digital camera") on K2,2.
        let g = figure4_k22();
        let expected = [0.3, 0.42, 0.468, 0.4872, 0.49488, 0.497952, 0.4991808];
        for (k, &want) in expected.iter().enumerate() {
            let r = evidence_simrank(&g, &cfg(k + 1), EvidenceKind::Geometric);
            let got = r.queries.get(0, 1);
            assert!(
                (got - want).abs() < 1e-9,
                "iteration {}: got {got}, want {want}",
                k + 1
            );
        }
    }

    #[test]
    fn table4_k12_constant() {
        // Table 4: evidence-based sim("pc","camera") = 0.4 at every iteration.
        let g = figure4_k12();
        for k in 1..=7 {
            let r = evidence_simrank(&g, &cfg(k), EvidenceKind::Geometric);
            assert!((r.queries.get(0, 1) - 0.4).abs() < 1e-12, "iteration {k}");
        }
    }

    #[test]
    fn evidence_crossover_after_first_iteration() {
        // §7: after iteration 2, the K2,2 pair overtakes the K1,2 pair —
        // the fix the evidence score was designed for.
        let k22 = figure4_k22();
        let k12 = figure4_k12();
        let at = |g: &simrankpp_graph::ClickGraph, k: usize| {
            evidence_simrank(g, &cfg(k), EvidenceKind::Geometric)
                .queries
                .get(0, 1)
        };
        assert!(at(&k22, 1) < at(&k12, 1)); // 0.3 < 0.4
        for k in 2..=7 {
            assert!(at(&k22, k) > at(&k12, k), "no crossover at iteration {k}");
        }
    }

    #[test]
    fn no_common_neighbors_zeroes_score() {
        use simrankpp_graph::fixtures::figure3_graph;
        let g = figure3_graph();
        let r = evidence_simrank(&g, &cfg(10), EvidenceKind::Geometric);
        let pc = g.query_by_name("pc").unwrap().0;
        let tv = g.query_by_name("tv").unwrap().0;
        // pc and tv share no ad: evidence = 0 even though SimRank > 0.
        assert!(r.raw.queries.get(pc, tv) > 0.0);
        assert_eq!(r.queries.get(pc, tv), 0.0);
    }

    #[test]
    fn evidence_scores_bounded_by_raw() {
        use simrankpp_graph::fixtures::figure3_graph;
        let g = figure3_graph();
        let r = evidence_simrank(&g, &cfg(10), EvidenceKind::Geometric);
        for (a, b, v) in r.queries.iter() {
            assert!(v <= r.raw.queries.get(a, b) + 1e-12);
        }
    }
}
