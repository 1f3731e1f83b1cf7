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
//!    tie remaining after that counts as a miss.
//!
//! Pearson is excluded: with the shared edges removed it has no common ad
//! to work with, exactly as the paper notes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simrankpp_core::desirability::preferred_rewrite;
use simrankpp_core::{Method, MethodKind, SimrankConfig};
use simrankpp_graph::subgraph::remove_edges;
use simrankpp_graph::{AdId, ClickGraph, QueryId};
use std::collections::VecDeque;

/// Result of the experiment for one method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesirabilityOutcome {
    /// Method evaluated.
    pub method: String,
    /// Trials where the method's ordering matched the desirability ordering.
    pub correct: usize,
    /// Total trials.
    pub trials: usize,
}

impl DesirabilityOutcome {
    /// Fraction correct.
    pub fn accuracy(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.correct as f64 / self.trials as f64
        }
    }
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

/// Runs the experiment for the given methods, returning one outcome each.
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
pub fn run_desirability_experiment(
    g: &ClickGraph,
    methods: &[MethodKind],
    n_trials: usize,
    config: &SimrankConfig,
    seed: u64,
) -> Vec<DesirabilityOutcome> {
    let trials = prepare_trials(g, n_trials, config, seed);
    let mut outcomes: Vec<DesirabilityOutcome> = methods
        .iter()
        .map(|m| DesirabilityOutcome {
            method: m.name().to_owned(),
            correct: 0,
            trials: trials.len(),
        })
        .collect();

    for trial in &trials {
        let pruned = remove_edges(g, &trial.removed);
        let (ball, q1, q2, q3) = local_ball(
            &pruned,
            [trial.q1, trial.q2, trial.q3],
            config.iterations + 1,
        );
        for (mi, &kind) in methods.iter().enumerate() {
            let method = Method::compute(kind, &ball, config);
            let (s2, r2) = method.score_with_tiebreak(&ball, q1, q2);
            let (s3, r3) = method.score_with_tiebreak(&ball, q1, q3);
            let predicted = if (s2, r2) > (s3, r3) {
                Some(trial.q2)
            } else if (s3, r3) > (s2, r2) {
                Some(trial.q3)
            } else {
                None // unresolved tie: a miss
            };
            if predicted == Some(trial.preferred) {
                outcomes[mi].correct += 1;
            }
        }
    }
    outcomes
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
    use simrankpp_graph::WeightKind;
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

    #[test]
    fn experiment_runs_all_methods() {
        let d = generate(&GeneratorConfig::tiny());
        let methods = [
            MethodKind::Simrank,
            MethodKind::EvidenceSimrank,
            MethodKind::WeightedSimrank,
        ];
        let outcomes = run_desirability_experiment(&d.graph, &methods, 6, &cfg(), 11);
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(o.correct <= o.trials);
            assert!((0.0..=1.0).contains(&o.accuracy()));
        }
    }

    #[test]
    fn weighted_beats_unweighted_on_synthetic_data() {
        // The Figure 12 shape: weighted SimRank predicts desirability far
        // better than the structure-only variants.
        let d = generate(&GeneratorConfig::tiny().with_seed(5));
        let methods = [MethodKind::Simrank, MethodKind::WeightedSimrank];
        let outcomes = run_desirability_experiment(&d.graph, &methods, 15, &cfg(), 23);
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
        // the trial pairs, for every method.
        let d = generate(&GeneratorConfig::tiny());
        let cfg = cfg();
        let trials = prepare_trials(&d.graph, 4, &cfg, 3);
        assert!(!trials.is_empty());
        for t in &trials {
            let pruned = remove_edges(&d.graph, &t.removed);
            let (ball, q1, q2, q3) =
                super::local_ball(&pruned, [t.q1, t.q2, t.q3], cfg.iterations + 1);
            for kind in [
                MethodKind::Simrank,
                MethodKind::EvidenceSimrank,
                MethodKind::WeightedSimrank,
            ] {
                let full = Method::compute(kind, &pruned, &cfg);
                let local = Method::compute(kind, &ball, &cfg);
                let (fs2, fr2) = full.score_with_tiebreak(&pruned, t.q1, t.q2);
                let (ls2, lr2) = local.score_with_tiebreak(&ball, q1, q2);
                assert!(
                    (fs2 - ls2).abs() < 1e-9 && (fr2 - lr2).abs() < 1e-9,
                    "{}: ball score differs beyond FP reassociation tolerance: ({fs2},{fr2}) vs ({ls2},{lr2})",
                    kind.name()
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
}
