//! Every number the §9 experiment reports, as a function of its
//! [`Records`]: §9.4's coverage (Figure 8), precision/recall with pooled
//! relevance, 11-point interpolated precision-recall curves (Figures 9–10
//! top), precision after X rewrites (Figures 9–10 bottom), the depth bands
//! (Figure 11), and §9.3's desirability-prediction counts (Figure 12).
//! [`method_reports`] and [`figure12`] assemble them.
//!
//! Relevance is binary at one of two thresholds:
//! * **Grade12** — grades {1,2} positive, {3,4} negative (Figure 9);
//! * **Grade1** — grade {1} positive, {2,3,4} negative (Figure 10).
//!
//! Recall needs a base: per the paper, "the number of relevant rewrites for
//! q among all methods" — the pooled union of relevant rewrites any
//! evaluated method produced for `q`.

use crate::depth::DepthDistribution;
use crate::desirability::Prediction;
use crate::experiment::{MethodReport, Records};
use crate::judgments::QueryJudgments;
use serde::{Deserialize, Serialize};
use simrankpp_graph::QueryId;
use simrankpp_synth::Grade;
use simrankpp_util::{FxHashMap, FxHashSet};

/// Which binary relevance task is being scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelevanceThreshold {
    /// Grades {1,2} relevant (Figure 9).
    Grade12,
    /// Grade {1} relevant (Figure 10, "threshold 1").
    Grade1,
}

impl RelevanceThreshold {
    /// Is `grade` relevant under this threshold?
    pub fn is_relevant(self, grade: Grade) -> bool {
        match self {
            RelevanceThreshold::Grade12 => grade.relevant_at_2(),
            RelevanceThreshold::Grade1 => grade.relevant_at_1(),
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            RelevanceThreshold::Grade12 => "scores {1-2} positive",
            RelevanceThreshold::Grade1 => "score {1} positive",
        }
    }
}

/// Builds the pooled relevant-rewrite sets: for each query, the union of
/// relevant rewrites over all methods' judgment lists.
pub fn pooled_relevant(
    all_methods: &[&[QueryJudgments]],
    threshold: RelevanceThreshold,
) -> FxHashMap<QueryId, FxHashSet<QueryId>> {
    let mut pool: FxHashMap<QueryId, FxHashSet<QueryId>> = FxHashMap::default();
    for method in all_methods {
        for qj in *method {
            let set = pool.entry(qj.query).or_default();
            for r in &qj.rewrites {
                if threshold.is_relevant(r.grade) {
                    set.insert(r.rewrite);
                }
            }
        }
    }
    pool
}

/// Figure 8's coverage: the fraction of judged queries with ≥ 1 rewrite.
pub fn coverage(judgments: &[QueryJudgments]) -> f64 {
    let covered = judgments.iter().filter(|j| !j.rewrites.is_empty()).count();
    if judgments.is_empty() {
        0.0
    } else {
        covered as f64 / judgments.len() as f64
    }
}

/// Micro-averaged precision after X rewrites: of all rewrites the method
/// placed in ranks 1..=X (over all queries), the fraction that is relevant.
/// (Figure 9's caption reads P@2 = 93% as "93% of its rewrites in the top
/// two ranks were given scores of 1 or 2".)
pub fn precision_at_x(
    judgments: &[QueryJudgments],
    x: usize,
    threshold: RelevanceThreshold,
) -> f64 {
    let mut shown = 0usize;
    let mut relevant = 0usize;
    for qj in judgments {
        for r in qj.rewrites.iter().take(x) {
            shown += 1;
            if threshold.is_relevant(r.grade) {
                relevant += 1;
            }
        }
    }
    if shown == 0 {
        0.0
    } else {
        relevant as f64 / shown as f64
    }
}

/// An 11-point interpolated precision-recall curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrCurve {
    /// Interpolated precision at recall 0.0, 0.1, …, 1.0.
    pub precision_at_recall: [f64; 11],
    /// Number of queries that contributed (had a nonempty pooled set).
    pub queries_scored: usize,
}

/// Standard 11-point interpolated precision-recall, macro-averaged over
/// queries. The per-query recall base is the pooled relevant set.
pub fn interpolated_pr_curve(
    judgments: &[QueryJudgments],
    pool: &FxHashMap<QueryId, FxHashSet<QueryId>>,
    threshold: RelevanceThreshold,
) -> PrCurve {
    let mut sums = [0.0f64; 11];
    let mut scored = 0usize;

    for qj in judgments {
        let Some(relevant_set) = pool.get(&qj.query) else {
            continue;
        };
        if relevant_set.is_empty() {
            continue;
        }
        scored += 1;
        let base = relevant_set.len() as f64;

        // Precision/recall after each rank.
        let mut rel_so_far = 0usize;
        let mut points: Vec<(f64, f64)> = Vec::with_capacity(qj.rewrites.len());
        for (rank, r) in qj.rewrites.iter().enumerate() {
            if threshold.is_relevant(r.grade) && relevant_set.contains(&r.rewrite) {
                rel_so_far += 1;
            }
            let precision = rel_so_far as f64 / (rank + 1) as f64;
            let recall = rel_so_far as f64 / base;
            points.push((recall, precision));
        }
        // Interpolate: p_interp(r) = max precision at recall ≥ r.
        for (level_idx, sum) in sums.iter_mut().enumerate() {
            let level = level_idx as f64 / 10.0;
            let p = points
                .iter()
                .filter(|&&(r, _)| r + 1e-12 >= level)
                .map(|&(_, p)| p)
                .fold(0.0f64, f64::max);
            *sum += p;
        }
    }

    let mut precision_at_recall = [0.0f64; 11];
    if scored > 0 {
        for (i, s) in sums.iter().enumerate() {
            precision_at_recall[i] = s / scored as f64;
        }
    }
    PrCurve {
        precision_at_recall,
        queries_scored: scored,
    }
}

/// Macro-averaged plain precision (over queries that produced ≥1 rewrite).
pub fn mean_precision(judgments: &[QueryJudgments], threshold: RelevanceThreshold) -> f64 {
    let mut total = 0.0f64;
    let mut n = 0usize;
    for qj in judgments {
        if qj.rewrites.is_empty() {
            continue;
        }
        n += 1;
        total += qj.relevant_count(threshold) as f64 / qj.rewrites.len() as f64;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Macro-averaged recall against the pooled base.
pub fn mean_recall(
    judgments: &[QueryJudgments],
    pool: &FxHashMap<QueryId, FxHashSet<QueryId>>,
    threshold: RelevanceThreshold,
) -> f64 {
    let mut total = 0.0f64;
    let mut n = 0usize;
    for qj in judgments {
        let Some(relevant_set) = pool.get(&qj.query) else {
            continue;
        };
        if relevant_set.is_empty() {
            continue;
        }
        n += 1;
        let hit = qj
            .rewrites
            .iter()
            .filter(|r| threshold.is_relevant(r.grade) && relevant_set.contains(&r.rewrite))
            .count();
        total += hit as f64 / relevant_set.len() as f64;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Figures 8–11 for every method in `records.judged`, in its order. Recall's
/// pooled base spans all of those methods.
pub fn method_reports(records: &Records) -> Vec<MethodReport> {
    let all: Vec<&[QueryJudgments]> = records.judged.iter().map(|(_, j)| j.as_slice()).collect();
    let pool12 = pooled_relevant(&all, RelevanceThreshold::Grade12);
    let pool1 = pooled_relevant(&all, RelevanceThreshold::Grade1);
    records
        .judged
        .iter()
        .map(|(kind, judgments)| {
            let p_at = |t| std::array::from_fn(|x| precision_at_x(judgments, x + 1, t));
            let depth =
                DepthDistribution::compute(judgments, judgments.len(), records.max_rewrites);
            MethodReport {
                method: kind.name().to_owned(),
                coverage: coverage(judgments),
                p_at_x_grade12: p_at(RelevanceThreshold::Grade12),
                p_at_x_grade1: p_at(RelevanceThreshold::Grade1),
                pr_grade12: interpolated_pr_curve(judgments, &pool12, RelevanceThreshold::Grade12),
                pr_grade1: interpolated_pr_curve(judgments, &pool1, RelevanceThreshold::Grade1),
                mean_precision_grade12: mean_precision(judgments, RelevanceThreshold::Grade12),
                mean_recall_grade12: mean_recall(judgments, &pool12, RelevanceThreshold::Grade12),
                depth_bands: depth.figure11_bands(),
                mean_depth: depth.mean(),
            }
        })
        .collect()
}

/// One method's Figure 12 read-out: how its per-trial predictions split.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialSummary {
    /// Method (or variant) scored.
    pub method: String,
    /// Trials where it predicted the preferred candidate.
    pub correct: usize,
    /// Trials it left unresolved; neither correct nor wrong.
    pub ties: usize,
    /// All trials scored.
    pub trials: usize,
}

impl TrialSummary {
    /// Counts `predictions`, one per trial.
    pub fn from_predictions(method: &str, predictions: &[Prediction]) -> Self {
        let count = |p| predictions.iter().filter(|&&q| q == p).count();
        TrialSummary {
            method: method.to_owned(),
            correct: count(Prediction::Correct),
            ties: count(Prediction::Tie),
            trials: predictions.len(),
        }
    }

    /// Fraction correct (a tie counts against it).
    pub fn accuracy(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.correct as f64 / self.trials as f64
        }
    }
}

/// Figure 12 for every method in `records.trials`, in its order.
pub fn figure12(records: &Records) -> Vec<TrialSummary> {
    records
        .trials
        .iter()
        .map(|(kind, predictions)| TrialSummary::from_predictions(kind.name(), predictions))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judgments::JudgedRewrite;

    fn jr(id: u32, grade: Grade) -> JudgedRewrite {
        JudgedRewrite {
            rewrite: QueryId(id),
            score: 1.0 / (id + 1) as f64,
            grade,
        }
    }

    fn method_a() -> Vec<QueryJudgments> {
        vec![QueryJudgments {
            query: QueryId(0),
            rewrites: vec![
                jr(1, Grade::Precise),
                jr(2, Grade::Mismatch),
                jr(3, Grade::Approximate),
            ],
        }]
    }

    fn method_b() -> Vec<QueryJudgments> {
        vec![QueryJudgments {
            query: QueryId(0),
            rewrites: vec![jr(4, Grade::Approximate), jr(1, Grade::Precise)],
        }]
    }

    #[test]
    fn pool_unions_methods() {
        let a = method_a();
        let b = method_b();
        let pool = pooled_relevant(&[&a, &b], RelevanceThreshold::Grade12);
        let set = &pool[&QueryId(0)];
        // Relevant: 1 (precise), 3 (approx), 4 (approx).
        assert_eq!(set.len(), 3);
        assert!(
            set.contains(&QueryId(1)) && set.contains(&QueryId(3)) && set.contains(&QueryId(4))
        );
    }

    #[test]
    fn pool_respects_threshold() {
        let a = method_a();
        let b = method_b();
        let pool = pooled_relevant(&[&a, &b], RelevanceThreshold::Grade1);
        assert_eq!(pool[&QueryId(0)].len(), 1);
    }

    #[test]
    fn precision_at_x_micro_average() {
        let a = method_a();
        // Top-1: 1 relevant of 1 → 1.0. Top-2: 1 of 2 → 0.5. Top-3: 2/3.
        assert_eq!(precision_at_x(&a, 1, RelevanceThreshold::Grade12), 1.0);
        assert_eq!(precision_at_x(&a, 2, RelevanceThreshold::Grade12), 0.5);
        assert!((precision_at_x(&a, 3, RelevanceThreshold::Grade12) - 2.0 / 3.0).abs() < 1e-12);
        // X beyond depth: same as depth.
        assert!((precision_at_x(&a, 5, RelevanceThreshold::Grade12) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn precision_at_x_empty() {
        assert_eq!(precision_at_x(&[], 3, RelevanceThreshold::Grade12), 0.0);
    }

    #[test]
    fn coverage_counts_queries_with_a_rewrite() {
        let mut judged = method_a();
        judged.push(QueryJudgments::default());
        assert_eq!(coverage(&judged), 0.5);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn pr_curve_monotone_nonincreasing() {
        let a = method_a();
        let b = method_b();
        let pool = pooled_relevant(&[&a, &b], RelevanceThreshold::Grade12);
        let curve = interpolated_pr_curve(&a, &pool, RelevanceThreshold::Grade12);
        assert_eq!(curve.queries_scored, 1);
        for w in curve.precision_at_recall.windows(2) {
            assert!(
                w[0] + 1e-12 >= w[1],
                "interpolated precision must not increase"
            );
        }
        // Recall 0 level: best precision anywhere = 1.0 (first rewrite hit).
        assert_eq!(curve.precision_at_recall[0], 1.0);
    }

    #[test]
    fn pr_curve_perfect_method() {
        let perfect = vec![QueryJudgments {
            query: QueryId(0),
            rewrites: vec![jr(1, Grade::Precise), jr(2, Grade::Precise)],
        }];
        let pool = pooled_relevant(&[&perfect], RelevanceThreshold::Grade12);
        let curve = interpolated_pr_curve(&perfect, &pool, RelevanceThreshold::Grade12);
        for &p in &curve.precision_at_recall {
            assert_eq!(p, 1.0);
        }
    }

    #[test]
    fn mean_precision_recall() {
        let a = method_a();
        let b = method_b();
        let pool = pooled_relevant(&[&a, &b], RelevanceThreshold::Grade12);
        // A: 2 relevant of 3 produced → precision 2/3; recall 2 of pooled 3.
        assert!((mean_precision(&a, RelevanceThreshold::Grade12) - 2.0 / 3.0).abs() < 1e-12);
        assert!((mean_recall(&a, &pool, RelevanceThreshold::Grade12) - 2.0 / 3.0).abs() < 1e-12);
        // B: 2 of 2 → precision 1; recall 2/3.
        assert!((mean_precision(&b, RelevanceThreshold::Grade12) - 1.0).abs() < 1e-12);
        assert!((mean_recall(&b, &pool, RelevanceThreshold::Grade12) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn queries_without_pool_are_skipped() {
        let a = method_a();
        let pool = FxHashMap::default();
        let curve = interpolated_pr_curve(&a, &pool, RelevanceThreshold::Grade12);
        assert_eq!(curve.queries_scored, 0);
        assert_eq!(mean_recall(&a, &pool, RelevanceThreshold::Grade12), 0.0);
    }
}
