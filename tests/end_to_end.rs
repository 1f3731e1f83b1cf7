//! Integration tests: the full pipeline across crates — generator →
//! partitioner → methods → rewriter → judge → metrics.

use simrankpp::eval::report::render_full;
use simrankpp::eval::{run_experiment, ExperimentConfig};
use simrankpp::partition::{extract_subgraphs, ExtractConfig};
use simrankpp::prelude::*;
use simrankpp::synth::generator::generate;
use simrankpp::synth::EditorialJudge;

fn fast_experiment() -> ExperimentConfig {
    let mut c = ExperimentConfig::at_scale("tiny").unwrap();
    c.simrank = c.simrank.with_iterations(5);
    c
}

#[test]
fn full_experiment_produces_paper_shape() {
    let report = run_experiment(&fast_experiment());
    assert_eq!(report.methods.len(), 4);
    assert!(report.eval_queries > 0, "evaluation set must be nonempty");

    let m = |name: &str| {
        report
            .methods
            .iter()
            .find(|m| m.method == name)
            .unwrap_or_else(|| panic!("missing method {name}"))
    };
    // Figure 8 shape: SimRank-family coverage at least Pearson's.
    assert!(m("Simrank").coverage >= m("Pearson").coverage);
    assert!(m("evidence-based Simrank").coverage >= m("Pearson").coverage);
    // Figure 11 shape: SimRank-family depth at least Pearson's.
    assert!(m("Simrank").mean_depth >= m("Pearson").mean_depth);
    // Figure 12 ran with three methods.
    assert_eq!(report.desirability.len(), 3);
    // Simrank and evidence-based are identical in the desirability
    // experiment (evidence zeroes both candidates; raw breaks the tie).
    assert_eq!(
        report.desirability[0].correct, report.desirability[1].correct,
        "Simrank and evidence-based must agree on every trial"
    );
}

#[test]
fn report_renders_without_panic() {
    let report = run_experiment(&fast_experiment());
    let text = render_full(&report);
    for needle in [
        "Table 5",
        "Figure 8",
        "Figure 9",
        "Figure 10",
        "Figure 11",
        "Figure 12",
    ] {
        assert!(text.contains(needle), "report missing {needle}");
    }
}

#[test]
fn report_serializes_to_json() {
    let report = run_experiment(&fast_experiment());
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("coverage"));
    assert!(json.contains("desirability"));
}

#[test]
fn generated_rewrites_are_judgeable_and_mostly_on_topic() {
    // Weighted SimRank on the raw synthetic graph should put most of its
    // top rewrites within grade 1-3 (not mismatches) for popular queries.
    let dataset = generate(&GeneratorConfig::tiny());
    let judge = EditorialJudge::new(&dataset.world);
    let config = SimrankConfig::paper().with_iterations(5);
    let method = Method::compute(MethodKind::WeightedSimrank, &dataset.graph, &config);
    let rewriter = Rewriter::new(&dataset.graph, method, RewriterConfig::default());

    let mut graded = 0usize;
    let mut ok = 0usize;
    for q in dataset.graph.queries() {
        for r in rewriter.rewrites(q, None) {
            graded += 1;
            if judge.judge(q, r.query) != Grade::Mismatch {
                ok += 1;
            }
        }
    }
    assert!(graded > 10, "need a meaningful number of rewrites");
    assert!(
        ok as f64 / graded as f64 > 0.5,
        "too many mismatches: {ok}/{graded}"
    );
}

#[test]
fn extraction_plus_rewriting_composes() {
    // Rewrites computed on an extracted subgraph map back to parent ids.
    let dataset = generate(&GeneratorConfig::tiny());
    let subs = extract_subgraphs(
        &dataset.graph,
        &ExtractConfig {
            n_subgraphs: 1,
            min_size: 8,
            max_size: 60,
            ..ExtractConfig::default()
        },
    );
    assert!(!subs.is_empty());
    let sub = &subs[0];
    let config = SimrankConfig::paper().with_iterations(5);
    let method = Method::compute(MethodKind::Simrank, &sub.graph, &config);
    let rewriter = Rewriter::new(&sub.graph, method, RewriterConfig::default());
    let mut any = false;
    for q in sub.graph.queries() {
        for r in rewriter.rewrites(q, None) {
            let parent = sub.mapping.to_parent_query(r.query);
            // Parent id resolves to the same display name.
            assert_eq!(
                dataset.graph.query_name(parent),
                sub.graph.query_name(r.query)
            );
            any = true;
        }
    }
    assert!(any, "subgraph must produce at least one rewrite");
}

#[test]
fn tsv_roundtrip_preserves_method_scores() {
    // Serialize the graph, read it back, recompute — identical scores.
    use simrankpp::graph::io::{read_tsv, write_tsv};
    let dataset = generate(&GeneratorConfig::tiny());
    let mut buf = Vec::new();
    write_tsv(&dataset.graph, &mut buf).unwrap();
    let reloaded = read_tsv(buf.as_slice()).unwrap();

    let config = SimrankConfig::paper().with_iterations(4);
    let a = Method::compute(MethodKind::Simrank, &dataset.graph, &config);
    let b = Method::compute(MethodKind::Simrank, &reloaded, &config);
    // Compare through names (ids may permute across the roundtrip).
    for q1 in dataset.graph.queries() {
        for (q2, score) in a.ranked_candidates(&dataset.graph, q1, 3) {
            let r1 = reloaded
                .query_by_name(dataset.graph.query_name(q1).unwrap())
                .unwrap();
            let r2 = reloaded
                .query_by_name(dataset.graph.query_name(q2).unwrap())
                .unwrap();
            assert!(
                (b.score(&reloaded, r1, r2) - score).abs() < 1e-9,
                "score mismatch after TSV roundtrip"
            );
        }
    }
}
