//! The §9.3 edge-removal desirability-prediction experiment (Figure 12).
//!
//! For each of `n` trial queries `q1`:
//!
//! 1. find queries sharing ≥ 1 ad with `q1`; pick two candidates `q2`, `q3`
//!    such that after removing the shared edges each still has a path to
//!    `q1` (otherwise no similarity could possibly be inferred);
//! 2. the ground truth preference is the higher `des(q1, ·)` on the
//!    *original* graph;
//! 3. remove from `q1` every edge to an ad shared with `q2` or `q3` (the
//!    red dashed edges of Figure 7);
//! 4. recompute each method on the remaining graph and check whether its
//!    similarity ordering matches the desirability ordering. Ties in the
//!    final score fall back to the raw walk score (see `core::method`); a
//!    tie remaining after that is a [`Prediction::Tie`], which is not
//!    correct and so lowers accuracy as a miss does.
//!
//! Pearson is excluded: with the shared edges removed it has no common ad
//! to work with, exactly as the paper notes.
//!
//! The ground truth is §9.3's desirability score
//!
//! ```text
//! des(q1, q2) = Σ_{i ∈ E(q1) ∩ E(q2)}  w(q2, i) / |E(q2)|
//! ```
//!
//! of a candidate `q2` that shares at least one ad with `q1`; the
//! higher-desirability candidate is the "right" rewrite.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simrankpp_core::{Method, SimrankConfig};
use simrankpp_graph::subgraph::remove_edges;
use simrankpp_graph::{AdId, ClickGraph, QueryId, WeightKind};
use std::collections::VecDeque;

/// `des(q1, q2)`: average weight that `q2` sends to the ads it shares with
/// `q1` (0 when they share no ad).
fn desirability(g: &ClickGraph, q1: QueryId, q2: QueryId, kind: WeightKind) -> f64 {
    let n2 = g.query_degree(q2);
    if n2 == 0 {
        return 0.0;
    }
    let shared_weight: f64 = g
        .common_ads_iter(q1, q2)
        .map(|(_, _, e2)| e2.weight(kind))
        .sum();
    shared_weight / n2 as f64
}

/// Which of two candidates is the ground-truth preferable rewrite for `q1`.
/// Returns `None` on a tie.
fn preferred_rewrite(
    g: &ClickGraph,
    q1: QueryId,
    q2: QueryId,
    q3: QueryId,
    kind: WeightKind,
) -> Option<QueryId> {
    let d2 = desirability(g, q1, q2, kind);
    let d3 = desirability(g, q1, q3, kind);
    if d2 > d3 {
        Some(q2)
    } else if d3 > d2 {
        Some(q3)
    } else {
        None
    }
}

/// One method's prediction on one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// The method scored the preferred candidate higher.
    Correct,
    /// The method scored the other candidate higher.
    Wrong,
    /// Both candidates scored the same `(final, raw)` pair: unresolved.
    Tie,
}

/// One prepared trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The query being rewritten.
    pub q1: QueryId,
    /// First candidate.
    pub q2: QueryId,
    /// Second candidate.
    pub q3: QueryId,
    /// The ground-truth preferred candidate (by desirability).
    pub preferred: QueryId,
    /// The edges removed from `q1`.
    pub removed: Vec<(QueryId, AdId)>,
}

/// Prepares up to `n_trials` valid trials from `g`.
pub fn prepare_trials(
    g: &ClickGraph,
    n_trials: usize,
    config: &SimrankConfig,
    seed: u64,
) -> Vec<Trial> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut trials = Vec::with_capacity(n_trials);
    let n_q = g.n_queries();
    if n_q < 3 {
        return trials;
    }
    let mut attempts = 0usize;
    let max_attempts = n_trials * 200;
    while trials.len() < n_trials && attempts < max_attempts {
        attempts += 1;
        let q1 = QueryId(rng.gen_range(0..n_q) as u32);
        // Queries sharing at least one ad with q1.
        let mut sharers: Vec<QueryId> = Vec::new();
        let (ads, _) = g.ads_of(q1);
        for &a in ads {
            let (qs, _) = g.queries_of(a);
            for &q in qs {
                if q != q1 && !sharers.contains(&q) {
                    sharers.push(q);
                }
            }
        }
        if sharers.len() < 2 {
            continue;
        }
        let i = rng.gen_range(0..sharers.len());
        let mut j = rng.gen_range(0..sharers.len());
        if i == j {
            j = (j + 1) % sharers.len();
        }
        let (q2, q3) = (sharers[i], sharers[j]);

        let Some(preferred) = preferred_rewrite(g, q1, q2, q3, config.weight_kind) else {
            continue; // desirability tie: no ground truth
        };

        // Edges to remove: q1's edges to ads shared with q2 or q3.
        let mut removed: Vec<(QueryId, AdId)> = Vec::new();
        for (a, _, _) in g.common_ads_iter(q1, q2) {
            removed.push((q1, a));
        }
        for (a, _, _) in g.common_ads_iter(q1, q3) {
            if !removed.contains(&(q1, a)) {
                removed.push((q1, a));
            }
        }
        // q1 must stay meaningfully embedded after removal. At the paper's
        // scale a random query keeps most of its neighborhood when the
        // shared edges go; on a small synthetic graph the removal can gut
        // q1 entirely, leaving nothing for any method to work with.
        if g.query_degree(q1) < removed.len() + 2 {
            continue;
        }
        // Connectivity requirement after removal.
        let pruned = remove_edges(g, &removed);
        if !connected(&pruned, q1, q2) || !connected(&pruned, q1, q3) {
            continue;
        }
        trials.push(Trial {
            q1,
            q2,
            q3,
            preferred,
            removed,
        });
    }
    trials
}

/// Scores `trials`, prepared on `g`, with each scorer: a method computed by
/// `scorer(ball, config)` predicts the candidate with the higher
/// `(final, raw)` score against `q1`. Returns, per scorer, one prediction per
/// trial in trial order.
///
/// Per-trial scores are computed on the radius-`k+1` BFS ball around
/// `{q1, q2, q3}` (where `k = config.iterations`): `s^k(q1,q2)` depends only
/// on nodes within `k` edges of the endpoints — the iteration at depth `d`
/// reads degrees/normalized weights of distance-`d` nodes and the identity
/// diagonal at distance `k` — plus, for weighted SimRank, the `spread`
/// (incident-weight variance) of distance-`k` nodes, which needs their
/// distance-`k+1` neighbors. Radius `k+1` therefore makes localization
/// exact (up to FP summation order) while keeping trials cheap on large
/// graphs.
pub fn score_trials<F: Fn(&ClickGraph, &SimrankConfig) -> Method>(
    g: &ClickGraph,
    trials: &[Trial],
    config: &SimrankConfig,
    scorers: &[F],
) -> Vec<Vec<Prediction>> {
    let mut predictions = vec![Vec::with_capacity(trials.len()); scorers.len()];
    for trial in trials {
        let pruned = remove_edges(g, &trial.removed);
        let (ball, q1, q2, q3) = local_ball(
            &pruned,
            [trial.q1, trial.q2, trial.q3],
            config.iterations + 1,
        );
        for (out, scorer) in predictions.iter_mut().zip(scorers) {
            let method = scorer(&ball, config);
            let s2 = method.score_with_tiebreak(&ball, q1, q2);
            let s3 = method.score_with_tiebreak(&ball, q1, q3);
            let predicted = if s2 > s3 {
                trial.q2
            } else if s3 > s2 {
                trial.q3
            } else {
                out.push(Prediction::Tie);
                continue;
            };
            out.push(if predicted == trial.preferred {
                Prediction::Correct
            } else {
                Prediction::Wrong
            });
        }
    }
    predictions
}

/// Induced subgraph of all nodes within `radius` edges of the seeds, plus
/// the seeds' ids remapped into it.
fn local_ball(
    g: &ClickGraph,
    seeds: [QueryId; 3],
    radius: usize,
) -> (ClickGraph, QueryId, QueryId, QueryId) {
    use simrankpp_graph::NodeRef;
    let mut depth_q: Vec<Option<u32>> = vec![None; g.n_queries()];
    let mut depth_a: Vec<Option<u32>> = vec![None; g.n_ads()];
    let mut queue: VecDeque<NodeRef> = VecDeque::new();
    for s in seeds {
        if depth_q[s.index()].is_none() {
            depth_q[s.index()] = Some(0);
            queue.push_back(NodeRef::Query(s));
        }
    }
    while let Some(node) = queue.pop_front() {
        let d = match node {
            NodeRef::Query(q) => depth_q[q.index()].unwrap(),
            NodeRef::Ad(a) => depth_a[a.index()].unwrap(),
        };
        if d as usize >= radius {
            continue;
        }
        match node {
            NodeRef::Query(q) => {
                let (ads, _) = g.ads_of(q);
                for &a in ads {
                    if depth_a[a.index()].is_none() {
                        depth_a[a.index()] = Some(d + 1);
                        queue.push_back(NodeRef::Ad(a));
                    }
                }
            }
            NodeRef::Ad(a) => {
                let (qs, _) = g.queries_of(a);
                for &q in qs {
                    if depth_q[q.index()].is_none() {
                        depth_q[q.index()] = Some(d + 1);
                        queue.push_back(NodeRef::Query(q));
                    }
                }
            }
        }
    }
    let mut nodes: Vec<NodeRef> = Vec::new();
    for (i, d) in depth_q.iter().enumerate() {
        if d.is_some() {
            nodes.push(NodeRef::Query(QueryId(i as u32)));
        }
    }
    for (i, d) in depth_a.iter().enumerate() {
        if d.is_some() {
            nodes.push(NodeRef::Ad(simrankpp_graph::AdId(i as u32)));
        }
    }
    let (ball, mapping) = simrankpp_graph::subgraph::induced_subgraph(g, &nodes);
    let map = |q: QueryId| mapping.to_sub_query(q).expect("seed inside its own ball");
    (ball, map(seeds[0]), map(seeds[1]), map(seeds[2]))
}

/// BFS connectivity between two queries.
fn connected(g: &ClickGraph, from: QueryId, to: QueryId) -> bool {
    if from == to {
        return true;
    }
    let mut seen_q = vec![false; g.n_queries()];
    let mut seen_a = vec![false; g.n_ads()];
    let mut queue = VecDeque::new();
    seen_q[from.index()] = true;
    queue.push_back(simrankpp_graph::NodeRef::Query(from));
    while let Some(node) = queue.pop_front() {
        match node {
            simrankpp_graph::NodeRef::Query(q) => {
                let (ads, _) = g.ads_of(q);
                for &a in ads {
                    if !seen_a[a.index()] {
                        seen_a[a.index()] = true;
                        queue.push_back(simrankpp_graph::NodeRef::Ad(a));
                    }
                }
            }
            simrankpp_graph::NodeRef::Ad(a) => {
                let (qs, _) = g.queries_of(a);
                for &q in qs {
                    if q == to {
                        return true;
                    }
                    if !seen_q[q.index()] {
                        seen_q[q.index()] = true;
                        queue.push_back(simrankpp_graph::NodeRef::Query(q));
                    }
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TrialSummary;
    use simrankpp_core::weighted::SpreadMode;
    use simrankpp_core::{EvidenceKind, MethodKind};
    use simrankpp_graph::{ClickGraphBuilder, EdgeData};
    use simrankpp_synth::{generator::generate, GeneratorConfig};

    fn cfg() -> SimrankConfig {
        SimrankConfig::default()
            .with_iterations(5)
            .with_weight_kind(WeightKind::ExpectedClickRate)
    }

    #[test]
    fn trials_are_well_formed() {
        let d = generate(&GeneratorConfig::tiny());
        let trials = prepare_trials(&d.graph, 10, &cfg(), 7);
        for t in &trials {
            assert_ne!(t.q1, t.q2);
            assert_ne!(t.q1, t.q3);
            assert_ne!(t.q2, t.q3);
            assert!(t.preferred == t.q2 || t.preferred == t.q3);
            assert!(!t.removed.is_empty(), "trial must remove direct evidence");
            // After removal, no common ads remain between q1 and q2/q3.
            let pruned = remove_edges(&d.graph, &t.removed);
            assert_eq!(pruned.common_ads(t.q1, t.q2), 0);
            assert_eq!(pruned.common_ads(t.q1, t.q3), 0);
            assert!(connected(&pruned, t.q1, t.q2));
        }
    }

    /// Figure 12's read-out of `kinds` on `n` trials prepared at `seed`.
    fn summaries(g: &ClickGraph, kinds: &[MethodKind], n: usize, seed: u64) -> Vec<TrialSummary> {
        let trials = prepare_trials(g, n, &cfg(), seed);
        let scorers: Vec<_> = kinds
            .iter()
            .map(|&kind| move |ball: &ClickGraph, c: &SimrankConfig| Method::compute(kind, ball, c))
            .collect();
        kinds
            .iter()
            .zip(score_trials(g, &trials, &cfg(), &scorers))
            .map(|(kind, predictions)| TrialSummary::from_predictions(kind.name(), &predictions))
            .collect()
    }

    #[test]
    fn experiment_runs_all_methods() {
        let d = generate(&GeneratorConfig::tiny());
        let methods = [
            MethodKind::Simrank,
            MethodKind::EvidenceSimrank,
            MethodKind::WeightedSimrank,
        ];
        let outcomes = summaries(&d.graph, &methods, 6, 11);
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(o.correct + o.ties <= o.trials);
            assert!((0.0..=1.0).contains(&o.accuracy()));
        }
    }

    #[test]
    fn weighted_beats_unweighted_on_synthetic_data() {
        // The Figure 12 shape: weighted SimRank predicts desirability far
        // better than the structure-only variants.
        let d = generate(&GeneratorConfig::tiny().with_seed(5));
        let methods = [MethodKind::Simrank, MethodKind::WeightedSimrank];
        let outcomes = summaries(&d.graph, &methods, 15, 23);
        assert!(outcomes[0].trials >= 5, "need enough valid trials");
        assert!(
            outcomes[1].correct >= outcomes[0].correct,
            "weighted ({}/{}) should be at least as good as plain ({}/{})",
            outcomes[1].correct,
            outcomes[1].trials,
            outcomes[0].correct,
            outcomes[0].trials
        );
    }

    #[test]
    fn ball_localization_is_exact() {
        // s^k on the radius-k ball must equal s^k on the whole graph for
        // the trial pairs, for every method and the spread-off walk.
        let d = generate(&GeneratorConfig::tiny());
        let cfg = cfg();
        let trials = prepare_trials(&d.graph, 4, &cfg, 3);
        assert!(!trials.is_empty());
        type Compute = fn(&ClickGraph, &SimrankConfig) -> Method;
        let inputs: [(&str, Compute); 4] = [
            ("Simrank", |g, c| Method::compute(MethodKind::Simrank, g, c)),
            ("evidence-based Simrank", |g, c| {
                Method::compute(MethodKind::EvidenceSimrank, g, c)
            }),
            ("weighted Simrank", |g, c| {
                Method::compute(MethodKind::WeightedSimrank, g, c)
            }),
            ("weighted walk, spread off", |g, c| {
                let kind = MethodKind::WeightedSimrank;
                Method::compute_with(kind, g, c, EvidenceKind::Geometric, SpreadMode::Off)
            }),
        ];
        for t in &trials {
            let pruned = remove_edges(&d.graph, &t.removed);
            let (ball, q1, q2, q3) =
                super::local_ball(&pruned, [t.q1, t.q2, t.q3], cfg.iterations + 1);
            for (name, compute) in inputs {
                let full = compute(&pruned, &cfg);
                let local = compute(&ball, &cfg);
                let (fs2, fr2) = full.score_with_tiebreak(&pruned, t.q1, t.q2);
                let (ls2, lr2) = local.score_with_tiebreak(&ball, q1, q2);
                assert!(
                    (fs2 - ls2).abs() < 1e-9 && (fr2 - lr2).abs() < 1e-9,
                    "{name}: ball score differs beyond FP reassociation tolerance: ({fs2},{fr2}) vs ({ls2},{lr2})"
                );
                let (fs3, fr3) = full.score_with_tiebreak(&pruned, t.q1, t.q3);
                let (ls3, lr3) = local.score_with_tiebreak(&ball, q1, q3);
                assert!((fs3 - ls3).abs() < 1e-9 && (fr3 - lr3).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn connectivity_helper() {
        use simrankpp_graph::fixtures::figure3_graph;
        let g = figure3_graph();
        let q = |n: &str| g.query_by_name(n).unwrap();
        assert!(connected(&g, q("pc"), q("tv")));
        assert!(!connected(&g, q("pc"), q("flower")));
        assert!(connected(&g, q("pc"), q("pc")));
    }

    #[test]
    fn tiny_graph_yields_no_trials() {
        use simrankpp_graph::{ClickGraphBuilder, EdgeData};
        let mut b = ClickGraphBuilder::new();
        b.add_named("a", "x", EdgeData::from_clicks(1));
        let g = b.build();
        assert!(prepare_trials(&g, 5, &cfg(), 1).is_empty());
    }

    fn w(clicks: u64) -> EdgeData {
        EdgeData::from_clicks(clicks)
    }

    #[test]
    fn desirability_basic() {
        // q2 shares ads a1, a2 with q1; w(q2,a1)=4, w(q2,a2)=2, |E(q2)|=3.
        let mut b = ClickGraphBuilder::new();
        b.add_named("q1", "a1", w(1));
        b.add_named("q1", "a2", w(1));
        b.add_named("q2", "a1", w(4));
        b.add_named("q2", "a2", w(2));
        b.add_named("q2", "a3", w(9));
        let g = b.build();
        let q1 = g.query_by_name("q1").unwrap();
        let q2 = g.query_by_name("q2").unwrap();
        let d = desirability(&g, q1, q2, WeightKind::Clicks);
        assert!((d - 2.0).abs() < 1e-12, "got {d}"); // (4+2)/3
    }

    #[test]
    fn desirability_no_shared_ads_is_zero() {
        let mut b = ClickGraphBuilder::new();
        b.add_named("q1", "a1", w(1));
        b.add_named("q2", "a2", w(5));
        let g = b.build();
        let q1 = g.query_by_name("q1").unwrap();
        let q2 = g.query_by_name("q2").unwrap();
        assert_eq!(desirability(&g, q1, q2, WeightKind::Clicks), 0.0);
    }

    #[test]
    fn desirability_is_asymmetric() {
        // des is normalized by the *candidate's* degree, not q1's.
        let mut b = ClickGraphBuilder::new();
        b.add_named("q1", "a1", w(2));
        b.add_named("q2", "a1", w(2));
        b.add_named("q2", "a2", w(2));
        let g = b.build();
        let q1 = g.query_by_name("q1").unwrap();
        let q2 = g.query_by_name("q2").unwrap();
        let d12 = desirability(&g, q1, q2, WeightKind::Clicks); // 2/2 = 1
        let d21 = desirability(&g, q2, q1, WeightKind::Clicks); // 2/1 = 2
        assert!((d12 - 1.0).abs() < 1e-12);
        assert!((d21 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn preferred_rewrite_picks_higher() {
        let mut b = ClickGraphBuilder::new();
        b.add_named("q1", "a1", w(1));
        b.add_named("q2", "a1", w(10)); // des = 10/1
        b.add_named("q3", "a1", w(2));
        b.add_named("q3", "a2", w(2)); // des = 2/2 = 1
        let g = b.build();
        let q = |n: &str| g.query_by_name(n).unwrap();
        assert_eq!(
            preferred_rewrite(&g, q("q1"), q("q2"), q("q3"), WeightKind::Clicks),
            Some(q("q2"))
        );
    }

    #[test]
    fn preferred_rewrite_tie_is_none() {
        let mut b = ClickGraphBuilder::new();
        b.add_named("q1", "a1", w(1));
        b.add_named("q2", "a1", w(3));
        b.add_named("q3", "a1", w(3));
        let g = b.build();
        let q = |n: &str| g.query_by_name(n).unwrap();
        assert_eq!(
            preferred_rewrite(&g, q("q1"), q("q2"), q("q3"), WeightKind::Clicks),
            None
        );
    }
}
