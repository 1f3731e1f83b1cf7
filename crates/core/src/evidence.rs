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
//! [`evidence_multiply`] materialises it for both sides of an
//! [`crate::engine::run`], and [`crate::Method::final_scores`] for the query
//! side; serving never does: [`crate::rewriter::candidates`] applies the
//! factor per candidate when a row is read, index row or live row alike.
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

use crate::scores::{ScoreMatrix, ScoreMatrixBuilder};
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
    /// Evidence value for `n` common neighbors: 0 without one, else Eq. 7.3's
    /// `Σ_{i=1..n} 2⁻ⁱ = 1 − 2⁻ⁿ` or Eq. 7.4's `1 − e⁻ⁿ`.
    #[inline]
    pub fn value(self, n: usize) -> f64 {
        match self {
            _ if n == 0 => 0.0,
            EvidenceKind::Geometric if n >= 64 => 1.0,
            EvidenceKind::Geometric => 1.0 - 0.5f64.powi(n as i32),
            EvidenceKind::Exponential => 1.0 - (-(n as f64)).exp(),
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

/// The Eq. 7.5 read-out alone: the query side of [`evidence_multiply`],
/// materialised for [`crate::Method::final_scores`] (tests and paper tables).
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
    use crate::config::SimrankConfig;
    use crate::engine::{self, Walk};
    use simrankpp_graph::fixtures::{figure4_k12, figure4_k22};

    /// Evidence-based SimRank's query side after `k` iterations: the uniform
    /// walk's scores and their Eq. 7.3 read-out.
    fn raw_and_final(g: &ClickGraph, k: usize) -> (ScoreMatrix, ScoreMatrix) {
        let config = SimrankConfig::default().with_iterations(k);
        let raw = engine::run(g, &config, &Walk::Uniform).queries;
        let finals = query_evidence(g, &raw, EvidenceKind::Geometric);
        (raw, finals)
    }

    #[test]
    fn geometric_values() {
        assert_eq!(EvidenceKind::Geometric.value(0), 0.0);
        assert_eq!(EvidenceKind::Geometric.value(1), 0.5);
        assert_eq!(EvidenceKind::Geometric.value(2), 0.75);
        assert_eq!(EvidenceKind::Geometric.value(3), 0.875);
        assert_eq!(EvidenceKind::Geometric.value(100), 1.0);
    }

    #[test]
    fn exponential_values() {
        assert_eq!(EvidenceKind::Exponential.value(0), 0.0);
        assert!((EvidenceKind::Exponential.value(1) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!(EvidenceKind::Exponential.value(50) > 0.999999);
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
        assert_eq!(EvidenceKind::Geometric.value(2), 0.75);
        assert_ne!(EvidenceKind::Geometric.value(2), 0.5 + 1.0 / 3.0);
        // The factor actually applied on K2,2 (two common ads) is 3/4: the
        // evidence-based score is exactly 0.75 × the plain SimRank score.
        let g = figure4_k22();
        let (plain, finals) = raw_and_final(&g, 3);
        assert_eq!(finals.get(0, 1), 0.75 * plain.get(0, 1));
    }

    #[test]
    fn table4_k22_iterations() {
        // Table 4: evidence-based sim("camera","digital camera") on K2,2.
        let g = figure4_k22();
        let expected = [0.3, 0.42, 0.468, 0.4872, 0.49488, 0.497952, 0.4991808];
        for (k, &want) in expected.iter().enumerate() {
            let got = raw_and_final(&g, k + 1).1.get(0, 1);
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
            let got = raw_and_final(&g, k).1.get(0, 1);
            assert!((got - 0.4).abs() < 1e-12, "iteration {k}");
        }
    }

    #[test]
    fn evidence_crossover_after_first_iteration() {
        // §7: after iteration 2, the K2,2 pair overtakes the K1,2 pair —
        // the fix the evidence score was designed for.
        let k22 = figure4_k22();
        let k12 = figure4_k12();
        let at = |g: &ClickGraph, k: usize| raw_and_final(g, k).1.get(0, 1);
        assert!(at(&k22, 1) < at(&k12, 1)); // 0.3 < 0.4
        for k in 2..=7 {
            assert!(at(&k22, k) > at(&k12, k), "no crossover at iteration {k}");
        }
    }

    #[test]
    fn no_common_neighbors_zeroes_score() {
        use simrankpp_graph::fixtures::figure3_graph;
        let g = figure3_graph();
        let (raw, finals) = raw_and_final(&g, 10);
        let pc = g.query_by_name("pc").unwrap().0;
        let tv = g.query_by_name("tv").unwrap().0;
        // pc and tv share no ad: evidence = 0 even though SimRank > 0.
        assert!(raw.get(pc, tv) > 0.0);
        assert_eq!(finals.get(pc, tv), 0.0);
    }

    #[test]
    fn evidence_scores_bounded_by_raw() {
        use simrankpp_graph::fixtures::figure3_graph;
        let g = figure3_graph();
        let (raw, finals) = raw_and_final(&g, 10);
        for (a, b, v) in finals.iter() {
            assert!(v <= raw.get(a, b) + 1e-12);
        }
    }
}
