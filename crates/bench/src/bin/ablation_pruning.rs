//! Ablation: sparse-engine pruning threshold.
//!
//! The unified engine drops pair scores below a threshold after each
//! iteration — the knob that makes large graphs feasible. This sweep
//! measures the accuracy/work trade-off against the exact (threshold 0)
//! scores, and prints the engine's per-iteration stored pairs for both the
//! plain and the weighted variant. The max score delta is recorded only under
//! a tolerance, so only the early-exit row prints one.

use simrankpp_core::evidence::EvidenceKind;
use simrankpp_core::simrank::simrank;
use simrankpp_core::weighted::weighted_simrank;
use simrankpp_synth::generator::generate;
use std::time::Instant;

fn main() {
    let scale = simrankpp_bench::scale();
    simrankpp_bench::banner(
        "ablation_pruning",
        "the sparse-engine design choice (DESIGN.md §4)",
    );
    let config = simrankpp_bench::experiment_config(&scale);
    let dataset = generate(&config.generator);
    println!(
        "graph: {} queries, {} ads, {} edges\n",
        dataset.graph.n_queries(),
        dataset.graph.n_ads(),
        dataset.graph.n_edges()
    );

    let exact_cfg = config.simrank.with_prune_threshold(0.0);
    let t0 = Instant::now();
    let exact = simrank(&dataset.graph, &exact_cfg);
    let exact_time = t0.elapsed();

    // The same diagnostics come from the shared engine for the weighted walk.
    let weighted = weighted_simrank(&dataset.graph, &exact_cfg, EvidenceKind::Geometric).raw;
    for (variant, run) in [("plain", &exact), ("weighted", &weighted)] {
        println!("--- per-iteration engine diagnostics (exact, {variant} SimRank) ---");
        println!("{:<6} {:>14} {:>12}", "iter", "query pairs", "ad pairs");
        for (k, &(qp, ap)) in run.pair_counts.iter().enumerate() {
            println!("{:<6} {qp:>14} {ap:>12}", k + 1);
        }
        println!();
    }

    println!("--- pruning sweep (plain SimRank) ---");
    println!(
        "{:<12} {:>12} {:>14} {:>16} {:>12}",
        "threshold", "pairs", "time (ms)", "max |Δscore|", "vs exact"
    );
    println!(
        "{:<12} {:>12} {:>14.0} {:>16} {:>12}",
        "0 (exact)",
        exact.queries.n_pairs(),
        exact_time.as_secs_f64() * 1e3,
        "-",
        "1.00x"
    );
    for threshold in [1e-6, 1e-4, 1e-3, 1e-2] {
        let cfg = config.simrank.with_prune_threshold(threshold);
        let t0 = Instant::now();
        let pruned = simrank(&dataset.graph, &cfg);
        let dt = t0.elapsed();
        let delta = exact.queries.max_abs_diff(&pruned.queries);
        println!(
            "{:<12.0e} {:>12} {:>14.0} {:>16.2e} {:>11.2}x",
            threshold,
            pruned.queries.n_pairs(),
            dt.as_secs_f64() * 1e3,
            delta,
            exact_time.as_secs_f64() / dt.as_secs_f64().max(1e-9)
        );
    }

    // Convergence-based early exit: run far past the fixed iteration budget
    // and let the tolerance stop the loop.
    let tol_cfg = config.simrank.with_iterations(100).with_tolerance(1e-6);
    let t0 = Instant::now();
    let tol = simrank(&dataset.graph, &tol_cfg);
    println!(
        "\ntolerance 1e-6: stopped after {} iterations (converged = {}, last Δ = {:.2e}, {:.0} ms)",
        tol.iterations_run,
        tol.converged,
        tol.max_deltas.last().copied().unwrap_or(0.0),
        t0.elapsed().as_secs_f64() * 1e3
    );
    println!("\nExpected: orders-of-magnitude fewer pairs at threshold 1e-4 with max score\nerror around the threshold itself, and early exit well before 100 iterations.");
}
