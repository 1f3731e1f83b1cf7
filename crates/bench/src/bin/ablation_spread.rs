//! Ablation: does the §8.2 `spread = e^(−variance)` factor help?
//!
//! Runs the Figure 12 desirability experiment with the spread factor on
//! (the paper's definition) and off (pure normalized-weight walk), at the
//! chosen scale. Finding on synthetic data: the two are statistically
//! indistinguishable — the desirability signal comes from the normalized
//! weights, not the spread penalty (see EXPERIMENTS.md).

use simrankpp_core::evidence::EvidenceKind;
use simrankpp_core::weighted::{weighted_simrank_with_spread, SpreadMode};
use simrankpp_eval::desirability::prepare_trials;
use simrankpp_graph::subgraph::remove_edges;
use simrankpp_synth::generator::generate;

fn main() {
    let scale = simrankpp_bench::scale();
    simrankpp_bench::banner("ablation_spread", "the §8.2 spread design choice");
    let config = simrankpp_bench::experiment_config(&scale);
    let dataset = generate(&config.generator);
    let n_trials: usize = std::env::var("TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(config.desirability_trials);
    let trials = prepare_trials(
        &dataset.graph,
        n_trials,
        &config.simrank,
        config.seed ^ 0xD5,
    );
    println!("{} trials prepared\n", trials.len());

    println!("{:<22} {:>12} {:>8}", "spread mode", "correct", "ties");
    for mode in [SpreadMode::Exponential, SpreadMode::Off] {
        let mut correct = 0;
        let mut ties = 0;
        for t in &trials {
            let pruned = remove_edges(&dataset.graph, &t.removed);
            let r = weighted_simrank_with_spread(
                &pruned,
                &config.simrank,
                EvidenceKind::Geometric,
                mode,
            );
            let r2 = r.raw.queries.get(t.q1.0, t.q2.0);
            let r3 = r.raw.queries.get(t.q1.0, t.q3.0);
            let pred = if r2 > r3 {
                Some(t.q2)
            } else if r3 > r2 {
                Some(t.q3)
            } else {
                ties += 1;
                None
            };
            if pred == Some(t.preferred) {
                correct += 1;
            }
        }
        println!(
            "{:<22} {:>7}/{:<4} {:>8}",
            format!("{mode:?}"),
            correct,
            trials.len(),
            ties
        );
    }
}
