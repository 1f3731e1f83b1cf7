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
//! 5. **Desirability** — score every method on the §9.3 edge-removal
//!    trials (Figure 12);
//! 6. **Metrics** — the judged rewrites of step 4 and the per-trial
//!    predictions of step 5 are the experiment's [`Records`]; every number
//!    it reports is computed from them by [`crate::metrics`]: coverage
//!    (Figure 8), 11-point interpolated P/R and P@X at both relevance
//!    thresholds (Figures 9–10), depth bands (Figure 11) and the
//!    correct / tie counts of Figure 12.

use crate::desirability::{prepare_trials, score_trials, Prediction};
use crate::judgments::{JudgedRewrite, QueryJudgments};
use crate::metrics::{figure12, method_reports, PrCurve, TrialSummary};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::subgraph::{induced_subgraph, SubgraphMapping};
use simrankpp_graph::{ClickGraph, GraphStats, NodeRef, QueryId};
use simrankpp_partition::{extract_subgraphs, ExtractConfig};
use simrankpp_synth::generator::{generate, GeneratorConfig, SynthDataset};
use simrankpp_synth::traffic::{restrict_to_graph, sample_eval_queries};
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
    /// The preset for a scale name (`repro_all`'s `SIMRANKPP_SCALE`);
    /// `None` for an unknown one:
    ///
    /// * `tiny` — seconds; smoke-testing the harness;
    /// * `small` — the example scale (~2k queries);
    /// * `paper` — the bench scale (~50k queries, the Table 5 shape scaled
    ///   to a laptop); its whole `repro_all` takes ≈ 1–2 s on a 2-core
    ///   x86-64 VM, since the evaluation graph it extracts holds only
    ///   ≈ 1 400 queries.
    ///
    /// Scale changes the dataset size, the extraction bounds, the sample
    /// and trial counts, and (at `paper`) pruning and threads; seeds and
    /// the evaluation pipeline stay fixed, so results are deterministic per
    /// scale.
    pub fn at_scale(scale: &str) -> Option<Self> {
        let (generator, n_subgraphs, min_size, max_size, sample, trials) = match scale {
            "tiny" => (GeneratorConfig::tiny(), 2, 6, 60, 30, 8),
            "small" => (GeneratorConfig::small(), 5, 20, 1200, 1200, 50),
            "paper" => (GeneratorConfig::paper_scale(), 5, 200, 30_000, 1200, 50),
            _ => return None,
        };
        let paper = scale == "paper";
        Some(ExperimentConfig {
            generator,
            extract: ExtractConfig {
                n_subgraphs,
                min_size,
                max_size,
                ..ExtractConfig::default()
            },
            simrank: SimrankConfig::default()
                .with_iterations(7)
                .with_prune_threshold(if paper { 1e-4 } else { 0.0 })
                .with_threads(if paper { 0 } else { 1 }),
            rewriter: RewriterConfig::default(),
            eval_sample_size: sample,
            desirability_trials: trials,
            seed: 0x5EED,
        })
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
    /// Per-method §9.4 metrics (Figures 8–11), from `records.judged`.
    pub methods: Vec<MethodReport>,
    /// Figure 12 read-outs (methods that support it), from `records.trials`.
    pub desirability: Vec<TrialSummary>,
    /// The units `methods` and `desirability` average.
    #[serde(skip)]
    pub records: Records,
}

/// Every unit the experiment's figures average.
#[derive(Debug, Clone, Default)]
pub struct Records {
    /// The rewrite cap per query (Figure 11's deepest band).
    pub max_rewrites: usize,
    /// Per evaluated method: each evaluation query's judged rewrites, in
    /// sample order.
    pub judged: Vec<(MethodKind, Vec<QueryJudgments>)>,
    /// Per Figure 12 method: each trial's prediction, in trial order.
    pub trials: Vec<(MethodKind, Vec<Prediction>)>,
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
    let eval_pairs = restrict_to_graph(&sample, |parent| {
        mapping
            .to_sub_query(parent)
            .filter(|&sub| eval_graph.query_degree(sub) > 0)
    });

    // Bid list in evaluation-graph ids.
    let bid_terms: FxHashSet<QueryId> = dataset
        .world
        .bids
        .iter()
        .filter_map(|&parent| mapping.to_sub_query(parent))
        .collect();

    // --- 3+4. Run methods, produce and judge rewrites. ---------------------
    let judge = EditorialJudge::new(&dataset.world);
    let judged = MethodKind::EVALUATED
        .iter()
        .map(|&kind| {
            let method = Method::compute(kind, &eval_graph, &config.simrank);
            let rewriter = Rewriter::new(&eval_graph, method, config.rewriter);
            let judgments = judge_rewrites(&rewriter, &eval_pairs, &bid_terms, &judge, |q| {
                mapping.to_parent_query(q)
            });
            (kind, judgments)
        })
        .collect();

    // --- 5. Figure 12's trials. ----------------------------------------------
    let trials = prepare_trials(
        &eval_graph,
        config.desirability_trials,
        &config.simrank,
        config.seed ^ 0xD5,
    );
    let kinds = [
        MethodKind::Simrank,
        MethodKind::EvidenceSimrank,
        MethodKind::WeightedSimrank,
    ];
    let scorers = kinds
        .map(|kind| move |ball: &ClickGraph, c: &SimrankConfig| Method::compute(kind, ball, c));
    let predictions = score_trials(&eval_graph, &trials, &config.simrank, &scorers);

    // --- 6. Metrics. --------------------------------------------------------
    let records = Records {
        max_rewrites: config.rewriter.max_rewrites,
        judged,
        trials: kinds.into_iter().zip(predictions).collect(),
    };
    ExperimentReport {
        table5,
        sampled_queries: sample.len(),
        eval_queries: eval_pairs.len(),
        methods: method_reports(&records),
        desirability: figure12(&records),
        records,
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
        let mut c = ExperimentConfig::at_scale("tiny").unwrap();
        c.simrank = c.simrank.with_iterations(5);
        c
    }

    #[test]
    fn scales_resolve() {
        let queries = |s| ExperimentConfig::at_scale(s).unwrap().generator.n_queries;
        assert_eq!(queries("tiny"), 60);
        assert_eq!(queries("small"), 2_000);
        assert_eq!(queries("paper"), 50_000);
        assert!(ExperimentConfig::at_scale("papr").is_none());
    }

    #[test]
    fn experiment_configs_are_consistent() {
        for s in ["tiny", "small", "paper"] {
            let c = ExperimentConfig::at_scale(s).unwrap();
            assert!(c.extract.n_subgraphs >= 2);
            assert!(c.simrank.validate().is_ok());
        }
    }

    #[test]
    fn records_determine_the_report() {
        use crate::depth::DepthDistribution;
        use crate::metrics::{
            coverage, interpolated_pr_curve, mean_precision, mean_recall, pooled_relevant,
            precision_at_x,
            RelevanceThreshold::{Grade1, Grade12},
        };
        let report = run_experiment(&ExperimentConfig::at_scale("tiny").unwrap());
        let records = &report.records;
        assert_eq!(records.judged.len(), report.methods.len());
        let all: Vec<&[QueryJudgments]> =
            records.judged.iter().map(|(_, j)| j.as_slice()).collect();
        let pool12 = pooled_relevant(&all, Grade12);
        let pool1 = pooled_relevant(&all, Grade1);
        for ((kind, judged), m) in records.judged.iter().zip(&report.methods) {
            assert_eq!(m.method, kind.name());
            assert_eq!(judged.len(), report.eval_queries);
            assert_eq!(m.coverage.to_bits(), coverage(judged).to_bits());
            for x in 1..=5 {
                let p12 = precision_at_x(judged, x, Grade12);
                let p1 = precision_at_x(judged, x, Grade1);
                assert_eq!(m.p_at_x_grade12[x - 1].to_bits(), p12.to_bits());
                assert_eq!(m.p_at_x_grade1[x - 1].to_bits(), p1.to_bits());
            }
            let pr12 = interpolated_pr_curve(judged, &pool12, Grade12);
            let pr1 = interpolated_pr_curve(judged, &pool1, Grade1);
            let bits = |c: &PrCurve| (c.precision_at_recall.map(f64::to_bits), c.queries_scored);
            assert_eq!(bits(&m.pr_grade12), bits(&pr12));
            assert_eq!(bits(&m.pr_grade1), bits(&pr1));
            let precision = mean_precision(judged, Grade12);
            let recall = mean_recall(judged, &pool12, Grade12);
            assert_eq!(m.mean_precision_grade12.to_bits(), precision.to_bits());
            assert_eq!(m.mean_recall_grade12.to_bits(), recall.to_bits());
            let depth = DepthDistribution::compute(judged, judged.len(), records.max_rewrites);
            assert_eq!(
                m.depth_bands.map(f64::to_bits),
                depth.figure11_bands().map(f64::to_bits)
            );
            assert_eq!(m.mean_depth.to_bits(), depth.mean().to_bits());
        }
        assert_eq!(records.trials.len(), report.desirability.len());
        for ((kind, predictions), o) in records.trials.iter().zip(&report.desirability) {
            let count = |p| predictions.iter().filter(|&&q| q == p).count();
            assert_eq!(o.method, kind.name());
            assert_eq!(o.trials, predictions.len());
            assert_eq!(o.correct, count(Prediction::Correct));
            assert_eq!(o.ties, count(Prediction::Tie));
            assert_eq!(o.trials, o.correct + o.ties + count(Prediction::Wrong));
        }
        // A tie is neither correct nor wrong, and still a trial.
        let mixed = [Prediction::Correct, Prediction::Wrong, Prediction::Tie];
        let summary = TrialSummary::from_predictions("m", &mixed);
        assert_eq!((summary.correct, summary.ties, summary.trials), (1, 1, 3));
        assert_eq!(summary.accuracy(), 1.0 / 3.0);
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
