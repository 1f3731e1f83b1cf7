//! Simulated editorial evaluation (§9.3, Table 6).
//!
//! The paper's rewrites were graded 1–4 by Yahoo!'s professional editorial
//! team. The substitution: a deterministic rubric over the
//! planted ground truth, mirroring Table 6:
//!
//! | Grade | Table 6 meaning | Rubric here |
//! |-------|-----------------|-------------|
//! | 1 Precise | same user intent ("corvette car" → "chevrolet corvette") | same planted intent, or a shared core stem within the topic (a narrowed/broadened form of the same need) |
//! | 2 Approximate | narrowed/broadened/slightly shifted ("apple music player" → "ipod shuffle") | same topic (the generator's topics are fine-grained product categories) |
//! | 3 Possible | same broad category or complementary product ("glasses" → "contact lenses") | ring-adjacent (complementary) topic |
//! | 4 Mismatch | no clear relationship | everything else |
//!
//! "The judgment scores are solely based on the evaluator's knowledge, and
//! not on the contents of the click graph" — likewise the judge reads only
//! the world's ground truth, never the graph.

use crate::topics::{World, MODIFIERS};
use serde::{Deserialize, Serialize};
use simrankpp_graph::QueryId;
use simrankpp_text::{normalize_query, stem, tokenize};
use simrankpp_util::FxHashSet;

/// Table 6 grades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Grade {
    /// 1 — precise rewrite.
    Precise = 1,
    /// 2 — approximate rewrite.
    Approximate = 2,
    /// 3 — possible (marginal) rewrite.
    Possible = 3,
    /// 4 — clear mismatch.
    Mismatch = 4,
}

impl Grade {
    /// Numeric score as the paper reports it (1–4).
    pub fn score(self) -> u8 {
        self as u8
    }

    /// §9.4's first binary task: grades {1,2} are relevant.
    pub fn relevant_at_2(self) -> bool {
        matches!(self, Grade::Precise | Grade::Approximate)
    }

    /// §9.4's second binary task: only grade 1 is relevant.
    pub fn relevant_at_1(self) -> bool {
        matches!(self, Grade::Precise)
    }
}

/// The deterministic judge.
#[derive(Debug, Clone, Copy)]
pub struct EditorialJudge<'w> {
    world: &'w World,
}

impl<'w> EditorialJudge<'w> {
    /// Creates a judge over the world's ground truth.
    pub fn new(world: &'w World) -> Self {
        EditorialJudge { world }
    }

    /// Grades the rewrite `q → r` per the Table 6 rubric.
    pub fn judge(&self, q: QueryId, r: QueryId) -> Grade {
        if q == r {
            return Grade::Precise;
        }
        let w = self.world;
        if w.query_intent[q.index()] == w.query_intent[r.index()] {
            return Grade::Precise;
        }
        let tq = w.query_topic[q.index()];
        let tr = w.query_topic[r.index()];
        if tq == tr {
            // A shared core stem within a topic is a narrowed/broadened form
            // of the same need ("camera" ↔ "digital camera"): precise.
            if self.share_core_stem(q, r) {
                return Grade::Precise;
            }
            return Grade::Approximate;
        }
        if w.topics_related(tq, tr) {
            return Grade::Possible;
        }
        Grade::Mismatch
    }

    /// `true` when the queries share a stemmed core (non-modifier) term.
    fn share_core_stem(&self, q: QueryId, r: QueryId) -> bool {
        let sq = self.core_stems(q);
        let sr = self.core_stems(r);
        !sq.is_disjoint(&sr)
    }

    fn core_stems(&self, q: QueryId) -> FxHashSet<String> {
        let modifiers: FxHashSet<String> = MODIFIERS.iter().map(|m| stem(m)).collect();
        tokenize(&normalize_query(&self.world.query_name[q.index()]))
            .into_iter()
            .map(stem)
            .filter(|s| !modifiers.contains(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_util::FxHashSet as Set;

    fn world() -> World {
        World {
            n_topics: 5,
            //            q0 q1 q2 q3 q4 q5
            query_topic: vec![0, 0, 0, 0, 1, 3],
            query_intent: vec![0, 0, 1, 2, 3, 4],
            query_popularity: vec![1.0; 6],
            query_name: vec![
                "kamelu basi".into(),  // q0: intent 0
                "basis kamelu".into(), // q1: intent 0 (variant)
                "kamelu".into(),       // q2: intent 1, shares stem kamelu
                "droka".into(),        // q3: intent 2, same topic, no shared stem
                "nivo".into(),         // q4: topic 1 (related to 0)
                "zuma".into(),         // q5: topic 3 (unrelated to 0)
            ],
            ad_topic: vec![],
            ad_quality: vec![],
            bids: Set::default(),
        }
    }

    #[test]
    fn same_intent_is_precise() {
        let w = world();
        let j = EditorialJudge::new(&w);
        assert_eq!(j.judge(QueryId(0), QueryId(1)), Grade::Precise);
    }

    #[test]
    fn shared_stem_same_topic_is_precise() {
        // "kamelu basi" vs "kamelu": a narrowed form of the same need.
        let w = world();
        let j = EditorialJudge::new(&w);
        assert_eq!(j.judge(QueryId(0), QueryId(2)), Grade::Precise);
    }

    #[test]
    fn same_topic_no_overlap_is_approximate() {
        let w = world();
        let j = EditorialJudge::new(&w);
        assert_eq!(j.judge(QueryId(0), QueryId(3)), Grade::Approximate);
    }

    #[test]
    fn related_topic_is_possible() {
        let w = world();
        let j = EditorialJudge::new(&w);
        assert_eq!(j.judge(QueryId(0), QueryId(4)), Grade::Possible);
    }

    #[test]
    fn unrelated_topic_is_mismatch() {
        let w = world();
        let j = EditorialJudge::new(&w);
        assert_eq!(j.judge(QueryId(0), QueryId(5)), Grade::Mismatch);
    }

    #[test]
    fn judge_is_symmetric_here() {
        let w = world();
        let j = EditorialJudge::new(&w);
        for a in 0..6u32 {
            for b in 0..6u32 {
                assert_eq!(
                    j.judge(QueryId(a), QueryId(b)),
                    j.judge(QueryId(b), QueryId(a))
                );
            }
        }
    }

    #[test]
    fn grade_helpers() {
        assert_eq!(Grade::Precise.score(), 1);
        assert_eq!(Grade::Mismatch.score(), 4);
        assert!(Grade::Approximate.relevant_at_2());
        assert!(!Grade::Possible.relevant_at_2());
        assert!(Grade::Precise.relevant_at_1());
        assert!(!Grade::Approximate.relevant_at_1());
    }

    #[test]
    fn modifiers_do_not_create_overlap() {
        let mut w = world();
        w.query_name[3] = "cheap droka online".into();
        w.query_name[2] = "cheap kamelu".into();
        let j = EditorialJudge::new(&w);
        // Shared "cheap" must not count as a core stem — still only the
        // same-topic grade, not precise.
        assert_eq!(j.judge(QueryId(2), QueryId(3)), Grade::Approximate);
    }
}
