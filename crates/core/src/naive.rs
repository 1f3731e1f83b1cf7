//! The §3 naive similarity: count of common ads (Table 1).
//!
//! "A naive way to measure the similarity of a pair of queries would be to
//! count the number of common ads that they are connected to." It sees only
//! one hop, so "pc"–"tv" score 0 even though the whole-graph structure links
//! them — the failure SimRank fixes.

use crate::scores::{ScoreMatrix, ScoreMatrixBuilder};
use simrankpp_graph::{AdId, ClickGraph};

/// All-pairs naive similarity as a score matrix (scores are raw counts, so
/// they are *not* bounded by 1).
///
/// Enumerates co-clicked pairs through each ad, which touches every pair at
/// most `common ads` times — linear in `Σ_α N(α)²` rather than `|Q|²`.
pub fn naive_scores(g: &ClickGraph) -> ScoreMatrix {
    let mut b = ScoreMatrixBuilder::new(g.n_queries());
    for ai in 0..g.n_ads() {
        let (qs, _) = g.queries_of(AdId(ai as u32));
        for (x, &qa) in qs.iter().enumerate() {
            for &qb in &qs[x + 1..] {
                b.add(qa.0, qb.0, 1.0);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_graph::fixtures::figure3_graph;

    #[test]
    fn table1_counts() {
        // Table 1 of the paper, digit for digit.
        let g = figure3_graph();
        let q = |name: &str| g.query_by_name(name).unwrap();
        let expected = [
            ("pc", "camera", 1.0),
            ("pc", "digital camera", 1.0),
            ("pc", "tv", 0.0),
            ("pc", "flower", 0.0),
            ("camera", "digital camera", 2.0),
            ("camera", "tv", 1.0),
            ("camera", "flower", 0.0),
            ("digital camera", "tv", 1.0),
            ("digital camera", "flower", 0.0),
            ("tv", "flower", 0.0),
        ];
        let m = naive_scores(&g);
        for (a, b, want) in expected {
            assert_eq!(m.get(q(a).0, q(b).0), want, "naive({a},{b})");
            assert_eq!(g.common_ads(q(a), q(b)) as f64, want);
        }
    }

    #[test]
    fn matrix_matches_pairwise_function() {
        let g = figure3_graph();
        let m = naive_scores(&g);
        for q1 in g.queries() {
            for q2 in g.queries() {
                if q1 < q2 {
                    assert_eq!(m.get(q1.0, q2.0), g.common_ads(q1, q2) as f64);
                }
            }
        }
    }

    #[test]
    fn self_similarity_is_identity() {
        let g = figure3_graph();
        let m = naive_scores(&g);
        assert_eq!(m.get(0, 0), 1.0);
    }
}
