//! A uniform interface over the paper's four query-rewriting methods.
//!
//! §9 compares Pearson (baseline), SimRank, evidence-based SimRank, and
//! weighted SimRank. [`Method`] computes any of them over a click graph and
//! answers the two questions the evaluation pipeline asks: the score of a
//! specific pair, and the ranked rewrite candidates of a query.
//!
//! Ranking is by `(final score desc, raw walk score desc, id asc)` — the
//! first stage of [`crate::rewriter::funnel`], the one place that order lives.

use crate::config::SimrankConfig;
use crate::engine::{self, Side, UniformTransition, WeightedTransition};
use crate::evidence::{query_evidence, EvidenceKind};
use crate::naive::naive_scores;
use crate::pearson::pearson_scores;
use crate::rewriter::{rank_candidates, Candidate};
use crate::scores::ScoreMatrix;
use crate::weighted::SpreadMode;
use serde::{Deserialize, Serialize};
use simrankpp_graph::{ClickGraph, QueryId};
use std::cmp::Ordering;

/// The similarity schemes compared in the paper's evaluation (§9) plus the
/// §3 naive counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MethodKind {
    /// §3: common-ad count.
    Naive,
    /// §9.1: Pearson correlation over common ads.
    Pearson,
    /// §4: plain bipartite SimRank.
    Simrank,
    /// §7: evidence-based SimRank.
    EvidenceSimrank,
    /// §8: weighted SimRank (evidence + weight-consistent walk).
    WeightedSimrank,
}

impl MethodKind {
    /// The four methods of the paper's evaluation, in the order its figures
    /// list them.
    pub const EVALUATED: [MethodKind; 4] = [
        MethodKind::Pearson,
        MethodKind::Simrank,
        MethodKind::EvidenceSimrank,
        MethodKind::WeightedSimrank,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Naive => "naive common-ads",
            MethodKind::Pearson => "Pearson",
            MethodKind::Simrank => "Simrank",
            MethodKind::EvidenceSimrank => "evidence-based Simrank",
            MethodKind::WeightedSimrank => "weighted Simrank",
        }
    }
}

/// A computed similarity method over one click graph: final (ranking) scores
/// plus optional raw tie-break scores.
#[derive(Debug, Clone)]
pub struct Method {
    kind: MethodKind,
    scores: ScoreMatrix,
    raw: Option<ScoreMatrix>,
}

impl Method {
    /// Computes `kind` over `g`. `config` controls decay factors, iteration
    /// count, pruning, the edge-weight kind (weighted SimRank and Pearson),
    /// and threading. The SimRank kinds run only the query chain of the
    /// engine's half-steps ([`crate::engine`]), so the scores are the
    /// query-side bits of [`crate::simrank::simrank`],
    /// [`crate::evidence::evidence_simrank`] and
    /// [`crate::weighted::weighted_simrank`] at half their work.
    pub fn compute(kind: MethodKind, g: &ClickGraph, config: &SimrankConfig) -> Method {
        Self::compute_with_evidence(kind, g, config, EvidenceKind::Geometric)
    }

    /// As [`Method::compute`] with an explicit evidence formula (the
    /// `ablation_evidence_fn` bench sweeps this).
    pub fn compute_with_evidence(
        kind: MethodKind,
        g: &ClickGraph,
        config: &SimrankConfig,
        evidence: EvidenceKind,
    ) -> Method {
        match kind {
            MethodKind::Naive => Method {
                kind,
                scores: naive_scores(g),
                raw: None,
            },
            MethodKind::Pearson => Method {
                kind,
                scores: pearson_scores(g, config.weight_kind),
                raw: None,
            },
            MethodKind::Simrank | MethodKind::EvidenceSimrank | MethodKind::WeightedSimrank => {
                let chain = if kind == MethodKind::WeightedSimrank {
                    let transition = WeightedTransition {
                        kind: config.weight_kind,
                        spread: SpreadMode::Exponential,
                    };
                    engine::iterate(g, config, &transition, Side::Query, None)
                } else {
                    engine::iterate(g, config, &UniformTransition, Side::Query, None)
                };
                let raw = ScoreMatrix::from_sorted_pairs(g.n_queries(), chain.pairs);
                let (scores, raw) = if kind == MethodKind::Simrank {
                    (raw, None)
                } else {
                    (query_evidence(g, &raw, evidence), Some(raw))
                };
                Method { kind, scores, raw }
            }
        }
    }

    /// Wraps precomputed matrices (used by the evaluation harness when the
    /// same underlying computation serves several read-outs).
    pub fn from_scores(kind: MethodKind, scores: ScoreMatrix, raw: Option<ScoreMatrix>) -> Method {
        Method { kind, scores, raw }
    }

    /// Which method this is.
    pub fn kind(&self) -> MethodKind {
        self.kind
    }

    /// The final (ranking) score matrix.
    pub fn scores(&self) -> &ScoreMatrix {
        &self.scores
    }

    /// The raw tie-break matrix, when the method has one.
    pub fn raw_scores(&self) -> Option<&ScoreMatrix> {
        self.raw.as_ref()
    }

    /// Final similarity of a query pair.
    pub fn score(&self, q1: QueryId, q2: QueryId) -> f64 {
        self.scores.get(q1.0, q2.0)
    }

    /// `(final, raw)` similarity of a pair; raw falls back to final.
    pub fn score_with_tiebreak(&self, q1: QueryId, q2: QueryId) -> (f64, f64) {
        let f = self.scores.get(q1.0, q2.0);
        let r = self.raw.as_ref().map(|m| m.get(q1.0, q2.0)).unwrap_or(f);
        (f, r)
    }

    /// Collects `q`'s rewrite candidates into `out` (cleared first), unranked:
    /// every query with a positive final or raw score, as
    /// `(id, final, raw)` with raw falling back to final when the method has
    /// no raw matrix. One merge over the two id-sorted rows; a pair only the
    /// raw matrix stores (evidence zeroed it) carries final `0.0`.
    pub(crate) fn candidates_into(&self, q: QueryId, out: &mut Vec<Candidate>) {
        out.clear();
        let (ids, finals) = self.scores.row(q.0);
        let Some(raw) = &self.raw else {
            out.extend(ids.iter().zip(finals).map(|(&id, &s)| (QueryId(id), s, s)));
            return;
        };
        let (raw_ids, raws) = raw.row(q.0);
        let (mut i, mut j) = (0, 0);
        while i < ids.len() && j < raw_ids.len() {
            match ids[i].cmp(&raw_ids[j]) {
                Ordering::Less => {
                    out.push((QueryId(ids[i]), finals[i], 0.0));
                    i += 1;
                }
                Ordering::Greater => {
                    out.push((QueryId(raw_ids[j]), 0.0, raws[j]));
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((QueryId(ids[i]), finals[i], raws[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend(
            ids[i..]
                .iter()
                .zip(&finals[i..])
                .map(|(&id, &s)| (QueryId(id), s, 0.0)),
        );
        out.extend(
            raw_ids[j..]
                .iter()
                .zip(&raws[j..])
                .map(|(&id, &r)| (QueryId(id), 0.0, r)),
        );
    }

    /// Ranks candidate rewrites for `q`: all queries with positive final or
    /// raw score, ordered by `(final desc, raw desc, id asc)`, truncated to
    /// `limit`.
    pub fn ranked_candidates(&self, q: QueryId, limit: usize) -> Vec<(QueryId, f64)> {
        let mut candidates = Vec::new();
        self.candidates_into(q, &mut candidates);
        rank_candidates(&mut candidates, limit);
        candidates
            .into_iter()
            .map(|(id, score, _raw)| (id, score))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_graph::fixtures::figure3_graph;

    fn cfg() -> SimrankConfig {
        SimrankConfig::default()
            .with_iterations(7)
            .with_weight_kind(simrankpp_graph::WeightKind::Clicks)
    }

    #[test]
    fn all_methods_compute_on_figure3() {
        let g = figure3_graph();
        for kind in MethodKind::EVALUATED {
            let m = Method::compute(kind, &g, &cfg());
            assert_eq!(m.kind(), kind);
            // Symmetry of the uniform interface.
            let a = g.query_by_name("camera").unwrap();
            let b = g.query_by_name("digital camera").unwrap();
            assert_eq!(m.score(a, b), m.score(b, a));
        }
    }

    #[test]
    fn simrank_covers_tv_pc_but_pearson_does_not() {
        // The paper's core coverage argument (§10.1).
        let g = figure3_graph();
        let pc = g.query_by_name("pc").unwrap();
        let tv = g.query_by_name("tv").unwrap();
        let sr = Method::compute(MethodKind::Simrank, &g, &cfg());
        let pe = Method::compute(MethodKind::Pearson, &g, &cfg());
        assert!(sr.score(pc, tv) > 0.0);
        assert_eq!(pe.score(pc, tv), 0.0);
    }

    #[test]
    fn evidence_ties_break_by_raw_simrank() {
        let g = figure3_graph();
        let m = Method::compute(MethodKind::EvidenceSimrank, &g, &cfg());
        let pc = g.query_by_name("pc").unwrap();
        let tv = g.query_by_name("tv").unwrap();
        // Evidence zeroes pc–tv but the candidate list still surfaces it
        // through the raw score.
        let (final_score, raw) = m.score_with_tiebreak(pc, tv);
        assert_eq!(final_score, 0.0);
        assert!(raw > 0.0);
        let candidates = m.ranked_candidates(pc, 10);
        assert!(
            candidates.iter().any(|&(q, _)| q == tv),
            "tv must appear via raw tie-break"
        );
    }

    #[test]
    fn ranked_candidates_ordering() {
        let g = figure3_graph();
        let m = Method::compute(MethodKind::EvidenceSimrank, &g, &cfg());
        let camera = g.query_by_name("camera").unwrap();
        let ranked = m.ranked_candidates(camera, 10);
        // digital camera (2 common ads) must outrank pc/tv (1 common ad each).
        let dc = g.query_by_name("digital camera").unwrap();
        assert_eq!(ranked[0].0, dc);
        // Scores descending.
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1 - 1e-15);
        }
    }

    #[test]
    fn limit_truncates() {
        let g = figure3_graph();
        let m = Method::compute(MethodKind::Simrank, &g, &cfg());
        let camera = g.query_by_name("camera").unwrap();
        assert!(m.ranked_candidates(camera, 1).len() <= 1);
    }

    #[test]
    fn flower_has_no_candidates() {
        let g = figure3_graph();
        let flower = g.query_by_name("flower").unwrap();
        for kind in MethodKind::EVALUATED {
            let m = Method::compute(kind, &g, &cfg());
            assert!(
                m.ranked_candidates(flower, 10).is_empty(),
                "{} gave flower a rewrite",
                kind.name()
            );
        }
    }

    /// `candidates_into` spelled the way it was before it was a merge: one
    /// `score_with_tiebreak` lookup per possible partner.
    fn candidates_by_lookup(m: &Method, q: QueryId, n: u32) -> Vec<(u32, u64, u64)> {
        (0..n)
            .filter(|&other| other != q.0)
            .map(|other| (other, m.score_with_tiebreak(q, QueryId(other))))
            .filter(|&(_, (f, r))| f > 0.0 || r > 0.0)
            .map(|(other, (f, r))| (other, f.to_bits(), r.to_bits()))
            .collect()
    }

    fn candidates_by_merge(m: &Method, q: QueryId) -> Vec<(u32, u64, u64)> {
        let mut out = vec![(QueryId(0), 0.0, 0.0)];
        m.candidates_into(q, &mut out);
        out.iter()
            .map(|&(id, f, r)| (id.0, f.to_bits(), r.to_bits()))
            .collect()
    }

    #[test]
    fn merged_candidates_equal_pairwise_lookups_on_figure3() {
        // Pearson and SimRank have no raw matrix; the evidence-carrying
        // kinds do, and evidence zeroes pc–tv out of their final one.
        let g = figure3_graph();
        for kind in MethodKind::EVALUATED {
            let m = Method::compute(kind, &g, &cfg());
            for q in g.queries() {
                assert_eq!(
                    candidates_by_merge(&m, q),
                    candidates_by_lookup(&m, q, g.n_queries() as u32),
                    "{} {q:?}",
                    kind.name()
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn merged_candidates_equal_pairwise_lookups(
            n in 2u32..24,
            finals in proptest::collection::vec((0u32..24, 0u32..24, 0.0f64..1.0), 0..80),
            // `None` below 1 draw in 4; otherwise pairs the final matrix may
            // lack (evidence zeroed them) or hold without a raw partner.
            raws in proptest::collection::vec((0u32..24, 0u32..24, 0.0f64..1.0), 0..80),
            with_raw in 0u8..4,
        ) {
            let matrix = |pairs: &[(u32, u32, f64)]| {
                let mut b = crate::scores::ScoreMatrixBuilder::new(n as usize);
                for &(x, y, v) in pairs {
                    if x % n != y % n {
                        b.set(x % n, y % n, v);
                    }
                }
                b.build()
            };
            let raw = (with_raw > 0).then(|| matrix(&raws));
            let m = Method::from_scores(MethodKind::EvidenceSimrank, matrix(&finals), raw);
            for q in 0..n {
                proptest::prop_assert_eq!(
                    candidates_by_merge(&m, QueryId(q)),
                    candidates_by_lookup(&m, QueryId(q), n)
                );
            }
        }
    }
}
