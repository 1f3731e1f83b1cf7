//! The end-to-end §9 experiment driver.
//!
//! Reproduces the paper's pipeline:
//!
//! 1. **Dataset** — generate the synthetic click graph (stand-in for the
//!    two-week Yahoo! graph), extract five disjoint subgraphs with the ACL
//!    partitioner, and take their union as the evaluation graph (Table 5);
//! 2. **Evaluation queries** — sample `eval_sample_size` queries from
//!    traffic (popularity-weighted), keep those present in the evaluation
//!    graph (the paper's 1200 → 120 step);
//! 3. **Methods** — run Pearson, SimRank, evidence-based SimRank and
//!    weighted SimRank; produce ≤ 5 rewrites per query through the §9.3
//!    pipeline (top-100 → stem dedup → bid filter → top-5);
//! 4. **Judging** — grade every (query, rewrite) pair with the simulated
//!    editorial judge (Table 6 rubric on planted ground truth);
//! 5. **Metrics** — coverage (Figure 8), 11-point interpolated P/R and P@X
//!    at both relevance thresholds (Figures 9–10), depth bands (Figure 11),
//!    and the desirability experiment (Figure 12).

use crate::depth::DepthDistribution;
use crate::desirability::{run_desirability_experiment, DesirabilityOutcome};
use crate::judgments::{JudgedRewrite, QueryJudgments};
use crate::metrics::{
    coverage, interpolated_pr_curve, mean_precision, mean_recall, pooled_relevant, precision_at_x,
    PrCurve, RelevanceThreshold,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::subgraph::{induced_subgraph, SubgraphMapping};
use simrankpp_graph::{ClickGraph, GraphStats, NodeRef, QueryId};
use simrankpp_partition::{extract_subgraphs, ExtractConfig};
use simrankpp_synth::generator::{generate, GeneratorConfig, SynthDataset};
use simrankpp_synth::traffic::sample_eval_queries;
use simrankpp_synth::EditorialJudge;
use simrankpp_util::FxHashSet;

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Synthetic dataset parameters.
    pub generator: GeneratorConfig,
    /// Subgraph extraction parameters (five subgraphs in the paper).
    pub extract: ExtractConfig,
    /// SimRank parameters shared by all variants.
    pub simrank: SimrankConfig,
    /// Rewriting pipeline parameters.
    pub rewriter: RewriterConfig,
    /// Size of the traffic sample (1200 in the paper, pre-restriction).
    pub eval_sample_size: usize,
    /// Trials for the desirability experiment (50 in the paper).
    pub desirability_trials: usize,
    /// Seed for sampling steps.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A fast configuration for tests and the quickstart example.
    pub fn fast() -> Self {
        ExperimentConfig {
            generator: GeneratorConfig::tiny(),
            extract: ExtractConfig {
                n_subgraphs: 2,
                min_size: 6,
                max_size: 60,
                ..ExtractConfig::default()
            },
            simrank: SimrankConfig::default().with_iterations(5),
            rewriter: RewriterConfig::default(),
            eval_sample_size: 30,
            desirability_trials: 8,
            seed: 0x5EED,
        }
    }

    /// The paper-shaped configuration at example scale (~2k queries).
    pub fn paper_shaped() -> Self {
        ExperimentConfig {
            generator: GeneratorConfig::small(),
            extract: ExtractConfig {
                n_subgraphs: 5,
                min_size: 20,
                max_size: 1200,
                ..ExtractConfig::default()
            },
            simrank: SimrankConfig::default().with_iterations(7),
            rewriter: RewriterConfig::default(),
            eval_sample_size: 1200,
            desirability_trials: 50,
            seed: 0x5EED,
        }
    }
}

/// Per-method results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodReport {
    /// Method display name.
    pub method: String,
    /// Figure 8: fraction of evaluation queries with ≥ 1 rewrite.
    pub coverage: f64,
    /// Figures 9/10 bottom: micro-averaged P@1..=5, threshold {1,2}.
    pub p_at_x_grade12: [f64; 5],
    /// P@1..=5 with only grade 1 positive.
    pub p_at_x_grade1: [f64; 5],
    /// Figure 9 top: 11-point interpolated P/R, threshold {1,2}.
    pub pr_grade12: PrCurve,
    /// Figure 10 top: 11-point interpolated P/R, threshold {1}.
    pub pr_grade1: PrCurve,
    /// Mean plain precision / pooled recall at threshold {1,2}.
    pub mean_precision_grade12: f64,
    /// Mean pooled recall at threshold {1,2}.
    pub mean_recall_grade12: f64,
    /// Figure 11 bands `[5, 4–5, 3–5, 2–5, 1–5]`.
    pub depth_bands: [f64; 5],
    /// Mean rewrites per query.
    pub mean_depth: f64,
}

/// The whole experiment's outputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Table 5: per-subgraph (queries, ads, edges) plus the total row.
    pub table5: Vec<(usize, usize, usize)>,
    /// Size of the traffic sample drawn.
    pub sampled_queries: usize,
    /// Evaluation queries that landed in the evaluation graph.
    pub eval_queries: usize,
    /// Per-method §9.4 metrics (Figures 8–11).
    pub methods: Vec<MethodReport>,
    /// Figure 12 outcomes (methods that support it).
    pub desirability: Vec<DesirabilityOutcome>,
}

/// Runs the full experiment.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentReport {
    let dataset = generate(&config.generator);
    run_experiment_on(config, &dataset)
}

/// Runs the experiment on an existing dataset (lets callers reuse one
/// generation across ablations).
pub fn run_experiment_on(config: &ExperimentConfig, dataset: &SynthDataset) -> ExperimentReport {
    // --- 1. Extract subgraphs and build the evaluation graph. -------------
    let subs = extract_subgraphs(&dataset.graph, &config.extract);
    let mut table5: Vec<(usize, usize, usize)> = subs
        .iter()
        .map(|s| GraphStats::compute(&s.graph).table5_row())
        .collect();

    // Disjoint union of the subgraphs → one evaluation graph. The induced
    // subgraph over the union of node sets can contain edges *between*
    // subgraphs; the paper's five-subgraphs dataset is a true disjoint
    // union (Table 5's total row sums its parts), so those cross edges are
    // removed.
    let mut union_nodes: Vec<NodeRef> = Vec::new();
    let mut sub_of_query: simrankpp_util::FxHashMap<u32, usize> =
        simrankpp_util::FxHashMap::default();
    let mut sub_of_ad: simrankpp_util::FxHashMap<u32, usize> = simrankpp_util::FxHashMap::default();
    for (i, s) in subs.iter().enumerate() {
        for &q in &s.mapping.queries {
            union_nodes.push(NodeRef::Query(q));
            sub_of_query.insert(q.0, i);
        }
        for &a in &s.mapping.ads {
            union_nodes.push(NodeRef::Ad(a));
            sub_of_ad.insert(a.0, i);
        }
    }
    let (eval_graph, mapping): (ClickGraph, SubgraphMapping) = if union_nodes.is_empty() {
        // Degenerate fallback: evaluate on the whole graph.
        let all: Vec<NodeRef> = dataset.graph.nodes().collect();
        induced_subgraph(&dataset.graph, &all)
    } else {
        let (unioned, mapping) = induced_subgraph(&dataset.graph, &union_nodes);
        let cross: Vec<(QueryId, simrankpp_graph::AdId)> = unioned
            .edges()
            .filter(|&(q, a, _)| {
                let pq = mapping.to_parent_query(q);
                let pa = mapping.to_parent_ad(a);
                sub_of_query.get(&pq.0) != sub_of_ad.get(&pa.0)
            })
            .map(|(q, a, _)| (q, a))
            .collect();
        if cross.is_empty() {
            (unioned, mapping)
        } else {
            (
                simrankpp_graph::subgraph::remove_edges(&unioned, &cross),
                mapping,
            )
        }
    };
    let total = GraphStats::compute(&eval_graph).table5_row();
    table5.push(total);

    // --- 2. Sample evaluation queries from traffic. -----------------------
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let sample = sample_eval_queries(
        &dataset.world.query_popularity,
        config.eval_sample_size,
        &mut rng,
    );
    // Keep queries that exist in the evaluation graph with ≥1 edge.
    let eval_pairs: Vec<(QueryId, QueryId)> = sample
        .iter()
        .filter_map(|&parent| {
            mapping
                .to_sub_query(parent)
                .and_then(|sub| (eval_graph.query_degree(sub) > 0).then_some((parent, sub)))
        })
        .collect();

    // Bid list in evaluation-graph ids.
    let bid_terms: FxHashSet<QueryId> = dataset
        .world
        .bids
        .iter()
        .filter_map(|&parent| mapping.to_sub_query(parent))
        .collect();

    // --- 3+4. Run methods, produce and judge rewrites. ---------------------
    let judge = EditorialJudge::new(&dataset.world);
    let kinds = MethodKind::EVALUATED;
    let per_method_judgments: Vec<Vec<QueryJudgments>> = kinds
        .iter()
        .map(|&kind| {
            let method = Method::compute(kind, &eval_graph, &config.simrank);
            let rewriter = Rewriter::new(&eval_graph, method, config.rewriter);
            judge_rewrites(&rewriter, &eval_pairs, &bid_terms, &judge, |q| {
                mapping.to_parent_query(q)
            })
        })
        .collect();

    // --- 5. Metrics. --------------------------------------------------------
    let judgment_refs: Vec<&[QueryJudgments]> =
        per_method_judgments.iter().map(|v| v.as_slice()).collect();
    let pool12 = pooled_relevant(&judgment_refs, RelevanceThreshold::Grade12);
    let pool1 = pooled_relevant(&judgment_refs, RelevanceThreshold::Grade1);

    let n_eval = eval_pairs.len();
    let mut methods = Vec::with_capacity(kinds.len());
    for (kind, judgments) in kinds.iter().zip(&per_method_judgments) {
        let p_at = |t| std::array::from_fn(|x| precision_at_x(judgments, x + 1, t));
        let depth = DepthDistribution::compute(judgments, n_eval, config.rewriter.max_rewrites);
        methods.push(MethodReport {
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
        });
    }

    // --- Figure 12. ----------------------------------------------------------
    let desirability = run_desirability_experiment(
        &eval_graph,
        &[
            MethodKind::Simrank,
            MethodKind::EvidenceSimrank,
            MethodKind::WeightedSimrank,
        ],
        config.desirability_trials,
        &config.simrank,
        config.seed ^ 0xD5,
    );

    ExperimentReport {
        table5,
        sampled_queries: sample.len(),
        eval_queries: n_eval,
        methods,
        desirability,
    }
}

/// Steps 3+4 for one method: each query's rewrites through `rewriter`'s
/// §9.3 pipeline, restricted to `bid_terms` and graded by `judge`. Each of
/// `queries` pairs a query's id in the judge's world with its id in the
/// rewriter's graph; `to_world` maps a rewrite's graph id back.
pub fn judge_rewrites(
    rewriter: &Rewriter,
    queries: &[(QueryId, QueryId)],
    bid_terms: &FxHashSet<QueryId>,
    judge: &EditorialJudge,
    to_world: impl Fn(QueryId) -> QueryId,
) -> Vec<QueryJudgments> {
    queries
        .iter()
        .map(|&(world_q, graph_q)| QueryJudgments {
            query: graph_q,
            rewrites: rewriter
                .rewrites(graph_q, Some(bid_terms))
                .into_iter()
                .map(|rw| JudgedRewrite {
                    rewrite: rw.query,
                    score: rw.score,
                    grade: judge.judge(world_q, to_world(rw.query)),
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> ExperimentConfig {
        ExperimentConfig {
            generator: GeneratorConfig::tiny(),
            extract: ExtractConfig {
                n_subgraphs: 2,
                min_size: 6,
                max_size: 60,
                ..ExtractConfig::default()
            },
            simrank: SimrankConfig::default().with_iterations(5),
            rewriter: RewriterConfig::default(),
            eval_sample_size: 30,
            desirability_trials: 5,
            seed: 0x5EED,
        }
    }

    #[test]
    fn experiment_end_to_end() {
        let report = run_experiment(&fast_config());
        assert_eq!(report.methods.len(), 4);
        // Table 5 has per-subgraph rows plus the total.
        assert!(report.table5.len() >= 2);
        let total = report.table5.last().unwrap();
        let sum_edges: usize = report.table5[..report.table5.len() - 1]
            .iter()
            .map(|r| r.2)
            .sum();
        assert_eq!(total.2, sum_edges, "total row must sum subgraph edges");
        for m in &report.methods {
            assert!((0.0..=1.0).contains(&m.coverage));
            for p in m.p_at_x_grade12.iter().chain(&m.p_at_x_grade1) {
                assert!((0.0..=1.0).contains(p));
            }
            // Depth bands are cumulative.
            for w in m.depth_bands.windows(2) {
                assert!(w[1] + 1e-12 >= w[0]);
            }
        }
    }

    #[test]
    fn simrank_coverage_at_least_pearson() {
        // The Figure 8 shape.
        let report = run_experiment(&fast_config());
        let cov = |name: &str| {
            report
                .methods
                .iter()
                .find(|m| m.method == name)
                .unwrap()
                .coverage
        };
        assert!(cov("Simrank") >= cov("Pearson"));
    }

    #[test]
    fn deterministic() {
        let a = run_experiment(&fast_config());
        let b = run_experiment(&fast_config());
        assert_eq!(a.eval_queries, b.eval_queries);
        for (x, y) in a.methods.iter().zip(&b.methods) {
            assert_eq!(x.coverage, y.coverage);
            assert_eq!(x.p_at_x_grade12, y.p_at_x_grade12);
        }
    }
}
