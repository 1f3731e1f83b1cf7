//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Figure 3 sample click graph, reproduces Table 1 (naive
//! common-ad counts) and Table 2 (converged SimRank scores), then produces
//! rewrites for every query with all four methods.
//!
//! Run with: `cargo run --release --example quickstart`

use simrankpp::core::engine::{self, UniformTransition};
use simrankpp::core::naive::naive_scores;
use simrankpp::graph::fixtures::{figure3_graph, FIGURE3_QUERIES};
use simrankpp::prelude::*;

fn main() {
    let graph = figure3_graph();
    println!(
        "Figure 3 click graph: {} queries, {} ads, {} edges\n",
        graph.n_queries(),
        graph.n_ads(),
        graph.n_edges()
    );

    // --- Table 1: naive common-ad similarity -------------------------------
    println!("Table 1: common-ad counts");
    let naive = naive_scores(&graph);
    print_matrix(&graph, |a, b| naive.get(a.0, b.0));

    // --- Table 2: converged SimRank, C1 = C2 = 0.8 -------------------------
    println!("\nTable 2: SimRank scores (C1 = C2 = 0.8, converged)");
    let config = SimrankConfig::paper()
        .with_iterations(100)
        .with_weight_kind(WeightKind::Clicks);
    let sr = engine::run(&graph, &config, &UniformTransition);
    print_matrix(&graph, |a, b| sr.queries.get(a.0, b.0));

    // --- Rewrites from each method -----------------------------------------
    let config = SimrankConfig::paper().with_weight_kind(WeightKind::Clicks);
    for kind in MethodKind::EVALUATED {
        println!("\nRewrites by {}:", kind.name());
        let method = Method::compute(kind, &graph, &config);
        let rewriter = Rewriter::new(&graph, method, RewriterConfig::default());
        for q in graph.queries() {
            let rewrites = rewriter.rewrites(q, None);
            let list: Vec<String> = rewrites
                .iter()
                .map(|r| format!("{} ({:.3})", r.name.clone().unwrap_or_default(), r.score))
                .collect();
            println!(
                "  {:<16} -> {}",
                graph.query_name(q).unwrap_or("?"),
                if list.is_empty() {
                    "(no rewrites)".to_owned()
                } else {
                    list.join(", ")
                }
            );
        }
    }
}

fn print_matrix(_graph: &ClickGraph, score: impl Fn(QueryId, QueryId) -> f64) {
    print!("{:<16}", "");
    for name in FIGURE3_QUERIES {
        print!("{name:>16}");
    }
    println!();
    for (i, a) in FIGURE3_QUERIES.iter().enumerate() {
        print!("{a:<16}");
        for (j, _) in FIGURE3_QUERIES.iter().enumerate() {
            if i == j {
                print!("{:>16}", "-");
            } else {
                print!("{:>16.3}", score(QueryId(i as u32), QueryId(j as u32)));
            }
        }
        println!();
    }
}
