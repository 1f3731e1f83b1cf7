//! Sponsored search front-end on a realistic synthetic workload.
//!
//! Generates a ~2 000-query click graph with the workload generator (the
//! stand-in for the Yahoo! graph), runs the complete §9
//! evaluation — five-subgraph extraction, traffic-sampled evaluation
//! queries, all four methods, simulated editorial judging — and prints the
//! paper-style report (Table 5, Figures 8–12). Then shows concrete rewrites
//! with their grades for a few popular queries.
//!
//! Run with: `cargo run --release --example sponsored_search`

use simrankpp::eval::experiment::run_experiment_on;
use simrankpp::eval::report::render_full;
use simrankpp::eval::ExperimentConfig;
use simrankpp::prelude::*;
use simrankpp::synth::generator::generate;
use simrankpp::synth::EditorialJudge;

fn main() {
    // Full paper-shaped experiment at example scale.
    let config = ExperimentConfig::at_scale("small").expect("a known scale");
    println!("Generating synthetic click graph and running the §9 evaluation…\n");
    let dataset = generate(&config.generator);
    let report = run_experiment_on(&config, &dataset);
    println!("{}", render_full(&report));

    // Concrete rewrites for the most popular queries, with grades.
    println!("\nSample rewrites (weighted SimRank, grades from the simulated editorial judge):");
    let judge = EditorialJudge::new(&dataset.world);
    let method = Method::compute(MethodKind::WeightedSimrank, &dataset.graph, &config.simrank);
    let rewriter = Rewriter::new(&dataset.graph, method, RewriterConfig::default());

    let mut by_pop: Vec<usize> = (0..dataset.world.n_queries()).collect();
    by_pop.sort_by(|&a, &b| {
        dataset.world.query_popularity[b]
            .partial_cmp(&dataset.world.query_popularity[a])
            .unwrap()
    });
    let mut shown = 0;
    for &qi in &by_pop {
        let q = QueryId(qi as u32);
        let rewrites = rewriter.rewrites(q, Some(&dataset.world.bids));
        if rewrites.is_empty() {
            continue;
        }
        println!("  \"{}\":", dataset.world.query_name[qi]);
        for r in &rewrites {
            let grade = judge.judge(q, r.query);
            println!(
                "    {:<30} score {:.4}  grade {} ({:?})",
                r.name.clone().unwrap_or_default(),
                r.score,
                grade.score(),
                grade
            );
        }
        shown += 1;
        if shown >= 5 {
            break;
        }
    }
}
