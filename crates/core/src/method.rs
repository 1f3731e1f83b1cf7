//! A uniform interface over the paper's four query-rewriting methods.
//!
//! §9 compares Pearson (baseline), SimRank, evidence-based SimRank, and
//! weighted SimRank. [`Method`] computes any of them over a click graph and
//! answers the score of a specific pair; a query's ranked rewrites are
//! [`crate::rewriter::Rewriter`]'s, which feeds the method's row through the
//! §9.3 funnel ([`crate::rewriter::funnel`], the one place a row is ranked).
//!
//! A method stores one score matrix: the final score for Naive and Pearson,
//! the walk's `S_Q^(k)` for the SimRank kinds, whose §7 evidence factor
//! ([`MethodKind::evidence`]) is applied when a score is read — so every
//! reader of a final score takes the graph.

use crate::config::SimrankConfig;
use crate::engine::{self, Side, Walk, WeightedTransition};
use crate::evidence::{query_evidence, EvidenceKind};
use crate::naive::naive_scores;
use crate::pearson::pearson_scores;
use crate::scores::ScoreMatrix;
use crate::weighted::SpreadMode;
use serde::{Deserialize, Serialize};
use simrankpp_graph::{ClickGraph, QueryId, WeightKind};

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

    /// The evidence factor (§7) this kind's walk scores are multiplied by at
    /// read-out (the paper's experiments use Eq. 7.3), or `None` when its
    /// stored score is final. Index rows, live rows and pair lookups read it.
    pub fn evidence(self) -> Option<EvidenceKind> {
        match self {
            MethodKind::EvidenceSimrank | MethodKind::WeightedSimrank => {
                Some(EvidenceKind::Geometric)
            }
            MethodKind::Naive | MethodKind::Pearson | MethodKind::Simrank => None,
        }
    }

    /// The walk this kind's scores propagate over — uniform for SimRank and
    /// evidence-based SimRank, §8.2's weighted walk over `weight` with the
    /// spread factor on for weighted SimRank — or `None` for Naive and
    /// Pearson, which do not walk. The one kind → walk mapping:
    /// [`Method::compute`] and the live single-source engine both read it.
    pub fn walk(self, weight: WeightKind) -> Option<Walk> {
        match self {
            MethodKind::Simrank | MethodKind::EvidenceSimrank => Some(Walk::Uniform),
            MethodKind::WeightedSimrank => Some(Walk::Weighted(WeightedTransition {
                kind: weight,
                spread: SpreadMode::Exponential,
            })),
            MethodKind::Naive | MethodKind::Pearson => None,
        }
    }
}

/// A computed similarity method over one click graph: one stored score
/// matrix plus the evidence factor applied to it at read-out.
#[derive(Debug, Clone)]
pub struct Method {
    kind: MethodKind,
    scores: ScoreMatrix,
    evidence: Option<EvidenceKind>,
}

impl Method {
    /// Computes `kind` over `g`. `config` controls decay factors, iteration
    /// count, pruning, the edge-weight kind (weighted SimRank and Pearson),
    /// and threading. The SimRank kinds run only the engine's query chain, so
    /// they store the query side of [`crate::engine::run`] over
    /// [`MethodKind::walk`]. This is [`Method::compute_with`] at the paper's
    /// Eq. 7.3 evidence and §8.2 spread factor.
    pub fn compute(kind: MethodKind, g: &ClickGraph, config: &SimrankConfig) -> Method {
        Method::compute_with(
            kind,
            g,
            config,
            EvidenceKind::Geometric,
            SpreadMode::Exponential,
        )
    }

    /// As [`Method::compute`] with an explicit evidence formula, for the
    /// kinds that carry one, and an explicit spread mode, for weighted
    /// SimRank's walk (`repro_all ablation-evidence` and `ablation-spread`
    /// sweep these). Other kinds ignore them.
    pub fn compute_with(
        kind: MethodKind,
        g: &ClickGraph,
        config: &SimrankConfig,
        evidence: EvidenceKind,
        spread: SpreadMode,
    ) -> Method {
        let walk = match kind.walk(config.weight_kind) {
            Some(Walk::Weighted(w)) => Some(Walk::Weighted(WeightedTransition { spread, ..w })),
            walk => walk,
        };
        let scores = match walk {
            Some(walk) => engine::iterate(g, config, &walk.factors(g), Side::Query, None).scores,
            None if kind == MethodKind::Naive => naive_scores(g),
            None => pearson_scores(g, config.weight_kind),
        };
        Method {
            kind,
            scores,
            evidence: kind.evidence().map(|_| evidence),
        }
    }

    /// Wraps precomputed matrices (the benchmark's traced build, which
    /// computes the walk and the evidence read-out as separate spans). The
    /// method stores `raw` when given, with `kind`'s evidence applied at
    /// read-out as [`Method::compute`] does; `scores` is used only when
    /// `raw` is `None`, and is then stored as the kind's walk scores.
    pub fn from_scores(kind: MethodKind, scores: ScoreMatrix, raw: Option<ScoreMatrix>) -> Method {
        Method {
            kind,
            scores: raw.unwrap_or(scores),
            evidence: kind.evidence(),
        }
    }

    /// Which method this is.
    pub fn kind(&self) -> MethodKind {
        self.kind
    }

    /// The evidence factor applied at read-out, if any.
    pub fn evidence(&self) -> Option<EvidenceKind> {
        self.evidence
    }

    /// The stored matrix (final for Naive and Pearson, else `S_Q^(k)`).
    pub fn stored_scores(&self) -> &ScoreMatrix {
        &self.scores
    }

    /// The final score matrix over `g`, materialised (Eq. 7.5, zero-evidence
    /// pairs dropped) — for tests and paper tables, not for serving.
    pub fn final_scores(&self, g: &ClickGraph) -> ScoreMatrix {
        match self.evidence {
            Some(kind) => query_evidence(g, &self.scores, kind),
            None => self.scores.clone(),
        }
    }

    /// Final similarity of a query pair of `g`.
    pub fn score(&self, g: &ClickGraph, q1: QueryId, q2: QueryId) -> f64 {
        self.score_with_tiebreak(g, q1, q2).0
    }

    /// `(final, raw)` similarity of a query pair of `g`; raw is the stored
    /// score, and final equals it for kinds without evidence.
    pub fn score_with_tiebreak(&self, g: &ClickGraph, q1: QueryId, q2: QueryId) -> (f64, f64) {
        let raw = self.scores.get(q1.0, q2.0);
        match self.evidence {
            Some(kind) if q1 != q2 => (kind.value(g.common_ads(q1, q2)) * raw, raw),
            _ => (raw, raw),
        }
    }

    /// `q`'s row of the stored matrix, ascending by id.
    pub(crate) fn row(&self, q: QueryId) -> impl Iterator<Item = (QueryId, f64)> + '_ {
        self.scores.partners(q.0).map(|(id, s)| (QueryId(id), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewriter::{candidates, Candidate, FunnelScratch, Rewriter, RewriterConfig};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::{AdId, ClickGraphBuilder, EdgeData};
    use std::cmp::Ordering;

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
            assert_eq!(m.score(&g, a, b), m.score(&g, b, a));
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
        assert!(sr.score(&g, pc, tv) > 0.0);
        assert_eq!(pe.score(&g, pc, tv), 0.0);
    }

    /// `q`'s served row: the method's row through the §9.3 funnel with no
    /// stem dedup and no bid filter, capped at `max_rewrites`.
    fn served(g: &ClickGraph, m: &Method, q: QueryId, max_rewrites: usize) -> Vec<(QueryId, f64)> {
        let config = RewriterConfig {
            max_rewrites,
            stem_dedup: false,
            ..RewriterConfig::default()
        };
        let mut out = Vec::new();
        Rewriter::new(g, m.clone(), config).rewrite_ids_into(q, None, &mut out);
        out
    }

    #[test]
    fn evidence_ties_break_by_raw_simrank() {
        let g = figure3_graph();
        let m = Method::compute(MethodKind::EvidenceSimrank, &g, &cfg());
        let pc = g.query_by_name("pc").unwrap();
        let tv = g.query_by_name("tv").unwrap();
        // Evidence zeroes pc–tv but the served row still surfaces it
        // through the raw score.
        let (final_score, raw) = m.score_with_tiebreak(&g, pc, tv);
        assert_eq!(final_score, 0.0);
        assert!(raw > 0.0);
        assert!(
            served(&g, &m, pc, 5).contains(&(tv, 0.0)),
            "tv must appear via raw tie-break"
        );
    }

    #[test]
    fn served_rows_rank_final_then_raw_then_id() {
        let g = figure3_graph();
        for kind in MethodKind::EVALUATED {
            let m = Method::compute(kind, &g, &cfg());
            for q in g.queries() {
                let row = served(&g, &m, q, 5);
                let key = |&(id, _): &(QueryId, f64)| {
                    let (f, r) = m.score_with_tiebreak(&g, q, id);
                    (f, r, id)
                };
                for w in row.windows(2) {
                    let ((f0, r0, id0), (f1, r1, id1)) = (key(&w[0]), key(&w[1]));
                    assert_eq!(w[0].1, f0);
                    let ranked = f0 > f1 || (f0 == f1 && (r0 > r1 || (r0 == r1 && id0 < id1)));
                    assert!(ranked, "{}: {:?} before {:?}", kind.name(), w[0], w[1]);
                }
            }
        }
        // digital camera (2 common ads) must outrank pc/tv (1 common ad each).
        let m = Method::compute(MethodKind::EvidenceSimrank, &g, &cfg());
        let camera = g.query_by_name("camera").unwrap();
        let dc = g.query_by_name("digital camera").unwrap();
        assert_eq!(served(&g, &m, camera, 5)[0].0, dc);
    }

    #[test]
    fn max_rewrites_truncates_the_ranked_row() {
        let g = figure3_graph();
        let m = Method::compute(MethodKind::Simrank, &g, &cfg());
        let camera = g.query_by_name("camera").unwrap();
        let full = served(&g, &m, camera, 5);
        assert!(full.len() > 1);
        assert_eq!(served(&g, &m, camera, 1), full[..1]);
        assert!(served(&g, &m, camera, 0).is_empty());
    }

    #[test]
    fn flower_has_no_candidates() {
        let g = figure3_graph();
        let flower = g.query_by_name("flower").unwrap();
        for kind in MethodKind::EVALUATED {
            let m = Method::compute(kind, &g, &cfg());
            assert!(
                served(&g, &m, flower, 5).is_empty(),
                "{} gave flower a rewrite",
                kind.name()
            );
        }
    }

    #[test]
    fn pair_lookups_equal_the_final_matrix_on_figure3() {
        let g = figure3_graph();
        for kind in MethodKind::EVALUATED {
            let m = Method::compute(kind, &g, &cfg());
            let (finals, raws) = (m.final_scores(&g), m.stored_scores());
            let bits = |(f, r): (f64, f64)| (f.to_bits(), r.to_bits());
            for q1 in g.queries() {
                for q2 in g.queries() {
                    let want = (finals.get(q1.0, q2.0), raws.get(q1.0, q2.0));
                    assert_eq!(bits(m.score_with_tiebreak(&g, q1, q2)), bits(want));
                }
            }
        }
    }

    /// How a candidate row was formed while a method stored two matrices —
    /// the final one (`query_evidence` of the walk scores) and the raw one —
    /// kept, the way `rewriter`'s `funnel_by_strings` is, as the oracle
    /// [`candidates`] is pinned against: one merge over the two id-sorted
    /// rows, a pair only the raw matrix stores (evidence zeroed it, or its
    /// product underflowed) carrying final `0.0`; raw falls back to final
    /// when there is no raw matrix.
    fn candidates_by_merge(
        scores: &ScoreMatrix,
        raw: Option<&ScoreMatrix>,
        q: QueryId,
        out: &mut Vec<Candidate>,
    ) {
        out.clear();
        let (ids, finals) = scores.row(q.0);
        let Some(raw) = raw else {
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

    fn bits(row: &[Candidate]) -> Vec<(u32, u64, u64)> {
        row.iter()
            .map(|&(id, f, r)| (id.0, f.to_bits(), r.to_bits()))
            .collect()
    }

    /// Walk scores that tie, stay ordinary, or sit at and below the normal
    /// range, where an evidence factor < 1 rounds the product to zero.
    const RAW_POOL: [f64; 7] = [
        1.0,
        0.5,
        0.25,
        1e-4,
        f64::MIN_POSITIVE,
        1e-310,
        f64::from_bits(1),
    ];

    proptest::proptest! {
        #[test]
        fn candidates_equal_the_two_matrix_merge(
            n in 2u32..20,
            // Sparse edges over few ads: many pairs share no ad (evidence
            // zero), some share several.
            edges in proptest::collection::vec((0u32..20, 0u32..6), 0..40),
            raws in proptest::collection::vec((0u32..20, 0u32..20, 0usize..7), 0..80),
        ) {
            let mut b = ClickGraphBuilder::new();
            b.reserve_queries(n);
            for &(q, a) in &edges {
                b.add_edge(QueryId(q % n), AdId(a), EdgeData::from_clicks(1));
            }
            let g = b.build();
            let mut walk = crate::scores::ScoreMatrixBuilder::new(n as usize);
            for &(x, y, v) in &raws {
                if x % n != y % n {
                    walk.set(x % n, y % n, RAW_POOL[v]);
                }
            }
            let walk = walk.build();
            let kinds = [
                MethodKind::Simrank,
                MethodKind::EvidenceSimrank,
                MethodKind::WeightedSimrank,
            ];
            let mut new = FunnelScratch::default();
            new.candidates.push((QueryId(9), 9.0, 9.0));
            let mut old = Vec::new();
            for kind in kinds {
                for ev in [EvidenceKind::Geometric, EvidenceKind::Exponential] {
                    let m = Method {
                        kind,
                        scores: walk.clone(),
                        evidence: kind.evidence().map(|_| ev),
                    };
                    let finals = m.evidence.map(|ev| query_evidence(&g, &walk, ev));
                    for q in (0..n).map(QueryId) {
                        candidates(&g, q, m.row(q), m.evidence(), &mut new);
                        let new = &new.candidates;
                        match &finals {
                            Some(finals) => candidates_by_merge(finals, Some(&walk), q, &mut old),
                            None => candidates_by_merge(&walk, None, q, &mut old),
                        }
                        proptest::prop_assert_eq!(bits(new), bits(&old), "{:?} {:?} {:?}", kind, ev, q);
                    }
                }
            }
        }
    }
}
