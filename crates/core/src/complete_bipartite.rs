//! Closed-form SimRank iterates on complete bipartite graphs `K_{m,2}`
//! (§6, Theorems 6.1–6.2 and 7.1; Appendices A and B).
//!
//! In `K_{m,2}` — `m` nodes on one side all connected to the pair `{A, B}`
//! on the other — symmetry collapses the Jacobi iteration to two scalars:
//!
//! ```text
//! p_k = (C_pair / m) · (1 + (m−1)·q_{k−1})   // score of the tracked pair (A,B)
//! q_k = (C_other / 2) · (1 + p_{k−1})        // score of any m-side pair (m ≥ 2)
//! ```
//!
//! where `C_pair` is the decay of the tracked pair's side and `C_other` the
//! other side's. These recurrences are exact and reproduce the paper's
//! Table 3 (and Table 4 after evidence multiplication) as well as the
//! Theorem A.1 series for `K_{2,2}`.

use crate::evidence::EvidenceKind;

/// Per-iteration scores `p_1..p_k` of the tracked 2-side pair `(A, B)` in
/// `K_{m,2}`.
///
/// * `m` — size of the other side (≥ 1).
/// * `c_pair` — decay factor of the tracked pair's SimRank equation.
/// * `c_other` — decay factor of the other side's equation.
pub fn km2_pair_iterates(m: usize, c_pair: f64, c_other: f64, iterations: usize) -> Vec<f64> {
    assert!(m >= 1, "K_{{m,2}} needs m >= 1");
    let mut out = Vec::with_capacity(iterations);
    let mut p = 0.0f64; // tracked pair score s(A,B)
    let mut q = 0.0f64; // other-side pair score (unused when m == 1)
    for _ in 0..iterations {
        let next_p = (c_pair / m as f64) * (1.0 + (m as f64 - 1.0) * q);
        let next_q = if m >= 2 {
            (c_other / 2.0) * (1.0 + p)
        } else {
            0.0
        };
        p = next_p;
        q = next_q;
        out.push(p);
    }
    out
}

/// Evidence-based iterates: `evidence(A,B) · p_k` where the tracked pair's
/// common-neighbor count is `m` (Theorem 7.1 / Table 4).
pub fn km2_evidence_pair_iterates(
    m: usize,
    c_pair: f64,
    c_other: f64,
    iterations: usize,
    kind: EvidenceKind,
) -> Vec<f64> {
    let ev = kind.value(m);
    km2_pair_iterates(m, c_pair, c_other, iterations)
        .into_iter()
        .map(|p| ev * p)
        .collect()
}

/// Theorem A.1(i): the explicit series for `K_{2,2}`,
/// `sim^k(A,B) = (C_pair/2) Σ_{i=1..k} 2^{1−i} C_other^{⌊i/2⌋} C_pair^{⌊(i−1)/2⌋}`.
///
/// Note: the paper prints the last exponent as `⌈(i−1)/2⌉`, but its own
/// expanded iterations (Appendix A.1, e.g. the `C1/2` term of iteration 2)
/// and Table 3 require the floor; we implement the floor and the test suite
/// pins this against Table 3 and the exact recurrence.
pub fn k22_series(c_pair: f64, c_other: f64, iterations: usize) -> f64 {
    let mut sum = 0.0;
    for i in 1..=iterations {
        let term = 0.5f64.powi(i as i32 - 1)
            * c_other.powi((i / 2) as i32)
            * c_pair.powi(((i - 1) / 2) as i32);
        sum += term;
    }
    c_pair / 2.0 * sum
}

/// Fixed point of the `K_{m,2}` recurrence (`k → ∞`), by solving the 2×2
/// linear system `p = (C_p/m)(1 + (m−1)q)`, `q = (C_o/2)(1 + p)`.
pub fn km2_pair_limit(m: usize, c_pair: f64, c_other: f64) -> f64 {
    assert!(m >= 1);
    if m == 1 {
        return c_pair;
    }
    let mf = m as f64;
    // Substituting q into p:  p = C_p/m · (1 + (m−1)·(C_o/2)·(1+p))
    //                           = C_p/m + a + a·p,  a = (C_p/m)(m−1)(C_o/2)
    // so p = (C_p/m + a) / (1 − a); a < 1 whenever C_p, C_o ≤ 1 and m ≥ 2.
    let a = (c_pair / mf) * (mf - 1.0) * (c_other / 2.0);
    (c_pair / mf + a) / (1.0 - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimrankConfig;
    use crate::engine::{self, UniformTransition};
    use simrankpp_graph::fixtures::complete_bipartite;
    use simrankpp_graph::EdgeData;

    const C: f64 = 0.8;

    #[test]
    fn table3_values() {
        // Table 3: K2,2 camera/digital-camera column.
        let got = km2_pair_iterates(2, C, C, 7);
        let want = [0.4, 0.56, 0.624, 0.6496, 0.65984, 0.663936, 0.6655744];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
        // K1,2 pc/camera column: constant 0.8.
        let got = km2_pair_iterates(1, C, C, 7);
        for g in got {
            assert!((g - 0.8).abs() < 1e-12);
        }
    }

    #[test]
    fn table4_values() {
        let got = km2_evidence_pair_iterates(2, C, C, 7, EvidenceKind::Geometric);
        let want = [0.3, 0.42, 0.468, 0.4872, 0.49488, 0.497952, 0.4991808];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
        let got = km2_evidence_pair_iterates(1, C, C, 7, EvidenceKind::Geometric);
        for g in got {
            assert!((g - 0.4).abs() < 1e-12);
        }
    }

    #[test]
    fn series_matches_recurrence_for_k22() {
        for k in 1..=12 {
            let series = k22_series(C, C, k);
            let rec = *km2_pair_iterates(2, C, C, k).last().unwrap();
            assert!(
                (series - rec).abs() < 1e-12,
                "k={k}: series {series} vs recurrence {rec}"
            );
        }
        // And with asymmetric decays.
        for k in 1..=12 {
            let series = k22_series(0.7, 0.9, k);
            let rec = *km2_pair_iterates(2, 0.7, 0.9, k).last().unwrap();
            assert!((series - rec).abs() < 1e-12);
        }
    }

    #[test]
    fn recurrence_matches_engine() {
        // Closed form vs the sparse engine on actual K_{m,2} graphs.
        for m in 1..=5usize {
            let g = complete_bipartite(m, 2, EdgeData::from_clicks(1));
            for k in 1..=6 {
                let cfg = SimrankConfig::default().with_iterations(k);
                let engine = engine::run(&g, &cfg, &UniformTransition).ads.get(0, 1);
                let closed = *km2_pair_iterates(m, C, C, k).last().unwrap();
                assert!(
                    (engine - closed).abs() < 1e-12,
                    "m={m}, k={k}: engine {engine} vs closed {closed}"
                );
            }
        }
    }

    #[test]
    fn theorem_6_1_k12_dominates_k22() {
        // sim^k(A,B) in K1,2 ≥ sim^k(C,D) in K2,2 for all k.
        for k in 1..=20 {
            let k12 = *km2_pair_iterates(1, C, C, k).last().unwrap();
            let k22 = *km2_pair_iterates(2, C, C, k).last().unwrap();
            assert!(k12 >= k22, "k={k}: {k12} < {k22}");
        }
    }

    #[test]
    fn theorem_6_2_m_less_than_n_dominates() {
        // K_{m,2} score > K_{n,2} score for m < n, every k.
        for (m, n) in [(1usize, 2usize), (2, 3), (2, 5), (3, 7)] {
            for k in 1..=15 {
                let pm = *km2_pair_iterates(m, C, C, k).last().unwrap();
                let pn = *km2_pair_iterates(n, C, C, k).last().unwrap();
                assert!(pm > pn, "m={m},n={n},k={k}: {pm} <= {pn}");
            }
        }
    }

    #[test]
    fn theorem_6_2_limits_equal_iff_c_is_one() {
        // With C1=C2=1 the limits agree; with C<1 they differ.
        let lim_m = km2_pair_limit(1, 1.0, 1.0);
        let lim_n = km2_pair_limit(2, 1.0, 1.0);
        assert!((lim_m - lim_n).abs() < 1e-12);
        let lim_m = km2_pair_limit(1, C, C);
        let lim_n = km2_pair_limit(2, C, C);
        assert!(lim_m > lim_n + 1e-6);
    }

    #[test]
    fn theorem_7_1_evidence_reverses_order() {
        // Theorem 7.1 / B.2 as literally proved (m=1 vs n=2): with
        // C1, C2 > 1/2 the evidence-based K_{2,2} pair beats the K_{1,2}
        // pair for every k > 1.
        for k in 2..=20 {
            let p1 = *km2_evidence_pair_iterates(1, C, C, k, EvidenceKind::Geometric)
                .last()
                .unwrap();
            let p2 = *km2_evidence_pair_iterates(2, C, C, k, EvidenceKind::Geometric)
                .last()
                .unwrap();
            assert!(p1 < p2, "k={k}: {p1} >= {p2}");
        }
    }

    #[test]
    fn theorem_b3_generalization_has_small_k_counterexample() {
        // Theorem B.3 asserts the same ordering for all m < n and k > 1 "by
        // similar arguments". Our exact recurrences find counterexamples at
        // small k with C1=C2=0.8: the K_{2,2} pair (evidence 3/4, walk 0.56)
        // scores 0.42 at k=2, above the K_{4,2} pair (evidence 15/16, walk
        // 0.44) at 0.4125; K_{1,2} (0.4) likewise beats K_{8,2} (0.379).
        // The ordering does hold in the limit and for large k.
        for (m, n) in [(2usize, 4usize), (1, 8)] {
            let pm = *km2_evidence_pair_iterates(m, C, C, 2, EvidenceKind::Geometric)
                .last()
                .unwrap();
            let pn = *km2_evidence_pair_iterates(n, C, C, 2, EvidenceKind::Geometric)
                .last()
                .unwrap();
            assert!(
                pm > pn,
                "expected the documented counterexample m={m},n={n}: {pm} vs {pn}"
            );
        }
        // Eventual ordering (and the limit ordering) still hold.
        for (m, n) in [(2usize, 4usize), (3, 5), (2, 3), (1, 8)] {
            let pm = *km2_evidence_pair_iterates(m, C, C, 50, EvidenceKind::Geometric)
                .last()
                .unwrap();
            let pn = *km2_evidence_pair_iterates(n, C, C, 50, EvidenceKind::Geometric)
                .last()
                .unwrap();
            assert!(pm < pn, "m={m},n={n} at k=50: {pm} >= {pn}");
            let lm = EvidenceKind::Geometric.value(m) * km2_pair_limit(m, C, C);
            let ln = EvidenceKind::Geometric.value(n) * km2_pair_limit(n, C, C);
            assert!(lm < ln, "limits: m={m} {lm} >= n={n} {ln}");
        }
    }

    #[test]
    fn limit_matches_long_iteration() {
        for m in [1usize, 2, 3, 8] {
            let lim = km2_pair_limit(m, C, C);
            let long = *km2_pair_iterates(m, C, C, 500).last().unwrap();
            assert!((lim - long).abs() < 1e-10, "m={m}: {lim} vs {long}");
        }
    }

    #[test]
    fn theorem_a1_limit_bound() {
        // Theorem A.1(ii): lim sim^k(A,B) ≤ C2 on K2,2.
        for c in [0.2, 0.5, 0.8, 1.0] {
            assert!(km2_pair_limit(2, c, c) <= c + 1e-12);
        }
    }
}
