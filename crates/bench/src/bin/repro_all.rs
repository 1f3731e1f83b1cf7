//! The paper's tables and figures, and the ablations of its design choices,
//! from one binary.
//!
//! ```text
//! repro_all [SECTION ...]     SECTION = table1..table6 | fig8..fig12 |
//!                                       ablation-pruning | ablation-evidence |
//!                                       ablation-spread | ablation-weights
//! ```
//!
//! With no section: Tables 1–5 and Figures 8–12 in one pass (the experiment
//! is computed once and every read-out printed). With sections: only those,
//! in paper order, each followed by the paper's own numbers to compare
//! against; the §9–§10 experiment runs only if Table 5 or a figure is asked
//! for. `table6` (the editorial rubric, demonstrated by the simulated judge)
//! and the ablations print only when named, each ablation followed by what
//! to expect. Whenever the experiment ran, the machine-readable report is
//! written to `repro_report.json`.
//!
//! `SIMRANKPP_SCALE` picks the preset (`ExperimentConfig::at_scale`): `tiny`,
//! `small` (the default) or `paper`; any other value exits 2.

use simrankpp_core::complete_bipartite::{km2_evidence_pair_iterates, km2_pair_iterates};
use simrankpp_core::engine::{self, UniformTransition, WeightedTransition};
use simrankpp_core::evidence::EvidenceKind;
use simrankpp_core::naive::naive_scores;
use simrankpp_core::weighted::SpreadMode;
use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_eval::desirability::{prepare_trials, score_trials, Trial};
use simrankpp_eval::experiment::{judge_rewrites, run_experiment_on};
use simrankpp_eval::metrics::coverage;
use simrankpp_eval::report::{
    render_fig11, render_fig12, render_fig8, render_fig9_or_10, render_full, render_table5,
};
use simrankpp_eval::{
    precision_at_x, ExperimentConfig, ExperimentReport, RelevanceThreshold, TrialSummary,
};
use simrankpp_graph::fixtures::{figure3_graph, FIGURE3_QUERIES};
use simrankpp_graph::{ClickGraph, QueryId, WeightKind};
use simrankpp_synth::generator::{generate, SynthDataset};
use simrankpp_synth::{EditorialJudge, Grade};
use std::time::Instant;

/// The scale-independent read-outs: id, printer, the paper's values.
const SMALL_TABLES: [(&str, fn(), &str); 4] = [
    (
        "table1",
        table1,
        "Paper: pc-camera 1, camera-digital 2, camera-tv 1, all flower pairs 0.",
    ),
    (
        "table2",
        table2,
        "Paper: 0.619 for connected non-tv-pc pairs, 0.437 for pc-tv, 0 for flower.",
    ),
    (
        "table3",
        table3,
        "Paper row 7: 0.6655744 vs 0.8 — the §6 complaint: K2,2 never catches up.\n\
         (engine == closed form is pinned by tests/paper_tables.rs::table3_iteration_columns.)",
    ),
    (
        "table4",
        table4,
        "Paper: the K2,2 pair overtakes from iteration 2 (0.42 > 0.4) — the fix evidence \
         was designed for.",
    ),
];

type Render = fn(&ExperimentReport) -> String;

/// The read-outs of the §9–§10 experiment: id, renderer, the paper's values.
const EVALUATION: [(&str, Render, &str); 6] = [
    (
        "table5",
        render_table5,
        "Paper (full Yahoo! scale): subgraphs of 585k/531k/322k/314k/91k queries, 1.84M total.\n\
         Shape to check: disjoint subgraphs of decreasing size whose rows sum to the Total row.",
    ),
    (
        "fig8",
        render_fig8,
        "Paper: Pearson 41%, Simrank 98%, evidence-based 99%, weighted 99%.\n\
         Shape to check: Pearson far below the SimRank family; evidence ≥ Simrank.",
    ),
    (
        "fig9",
        |r| render_fig9_or_10(r, false),
        "Paper P@5: Pearson < Simrank (75%) < evidence-based (80%) < weighted (86%);\n\
         P@1: 70% / 80% / 81% / 96%. Shape to check: the same ordering.",
    ),
    (
        "fig10",
        |r| render_fig9_or_10(r, true),
        "Paper: same method ordering as Figure 9 at much lower absolute precision\n\
         (grade-1-only is a hard target: ~0.1–0.6 band).",
    ),
    (
        "fig11",
        render_fig11,
        "Paper: the enhanced schemes provide the full 5 rewrites for >85% of queries\n\
         (Simrank 79%, evidence-based 89%); Pearson's depth is far lower.",
    ),
    (
        "fig12",
        render_fig12,
        "Paper: Simrank 54% (27/50), evidence-based 54% (identical — no weights used),\n\
         weighted 92% (46/50). Shape to check: weighted well above the structural\n\
         methods; Simrank and evidence-based identical (evidence is zero for every\n\
         trial pair once direct edges are removed, so the raw scores decide both).",
    ),
];

type Ablation = fn(&ExperimentConfig, &SynthDataset);

/// The ablations of the paper's design choices, printed only when named:
/// id, printer, what to expect.
const ABLATIONS: [(&str, Ablation, &str); 4] = [
    (
        "ablation-pruning",
        ablation_pruning,
        "Expected: orders-of-magnitude fewer pairs at threshold 1e-4 with max score\n\
         error around the threshold itself, and early exit well before 100 iterations.",
    ),
    (
        "ablation-evidence",
        ablation_evidence,
        "Expected: the two rows nearly identical (the paper's remark).",
    ),
    (
        "ablation-spread",
        ablation_spread,
        "Expected: the two rows statistically indistinguishable — the desirability\n\
         signal comes from the normalized weights, not the spread penalty.",
    ),
    (
        "ablation-weights",
        ablation_weights,
        "Expected: expected-click-rate retains the most pairs and predicts\n\
         desirability best; raw clicks/impressions lose pairs to spread underflow.",
    ),
];

fn main() {
    let asked: Vec<String> = std::env::args().skip(1).collect();
    let known = |id: &str| {
        id == "table6"
            || SMALL_TABLES.iter().any(|s| s.0 == id)
            || EVALUATION.iter().any(|s| s.0 == id)
            || ABLATIONS.iter().any(|s| s.0 == id)
    };
    if let Some(bad) = asked.iter().find(|id| !known(id)) {
        eprintln!("unknown section {bad:?}");
        eprintln!(
            "usage: repro_all [table1..table6 | fig8..fig12 | ablation-pruning | \
             ablation-evidence | ablation-spread | ablation-weights ...]"
        );
        std::process::exit(2);
    }
    let scale = std::env::var("SIMRANKPP_SCALE").unwrap_or_else(|_| "small".to_owned());
    let Some(config) = ExperimentConfig::at_scale(&scale) else {
        eprintln!("unknown scale {scale:?}");
        eprintln!("usage: SIMRANKPP_SCALE=tiny|small|paper repro_all [SECTION ...]");
        std::process::exit(2);
    };
    let everything = asked.is_empty();
    let named = |id: &str| asked.iter().any(|a| a == id);
    let wanted = |id: &str| everything || named(id);

    let target = if everything {
        "Tables 1-5, Figures 8-12".to_owned()
    } else {
        asked.join(", ")
    };
    println!("=== repro_all — reproduces {target} ===");
    println!("scale: {scale} (set SIMRANKPP_SCALE=tiny|small|paper)\n");
    // A blank line between read-outs, none before the first.
    let mut printed = false;
    let mut gap = || {
        if std::mem::replace(&mut printed, true) {
            println!();
        }
    };

    for (id, print, paper) in SMALL_TABLES {
        if wanted(id) {
            gap();
            print();
            if !everything {
                println!("\n{paper}");
            }
        }
    }
    let evaluate = EVALUATION.iter().any(|s| wanted(s.0));
    if !(evaluate || named("table6") || ABLATIONS.iter().any(|s| named(s.0))) {
        return;
    }

    let dataset = generate(&config.generator);
    if named("table6") {
        gap();
        table6(&dataset);
    }
    if evaluate {
        let report = run_experiment_on(&config, &dataset);
        gap();
        if everything {
            println!("--- Table 5 + Figures 8-12: full evaluation at scale '{scale}' ---\n");
            println!("{}", render_full(&report));
        } else {
            println!("--- Evaluation at scale '{scale}' ---");
            for (id, render, paper) in EVALUATION {
                if wanted(id) {
                    println!("\n{}\n{paper}", render(&report));
                }
            }
        }
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        simrankpp_util::atomic_write_bytes(
            std::path::Path::new("repro_report.json"),
            json.as_bytes(),
        )
        .expect("write repro_report.json");
        println!("\nMachine-readable report written to repro_report.json");
    }
    for (id, print, expected) in ABLATIONS {
        if named(id) {
            gap();
            print(&config, &dataset);
            println!("\n{expected}");
        }
    }
}

fn table1() {
    println!("--- Table 1: naive common-ad counts (Figure 3 graph) ---");
    let naive = naive_scores(&figure3_graph());
    matrix(|a, b| format!("{:.0}", naive.get(a, b)));
}

fn table2() {
    println!("--- Table 2: converged SimRank, C1=C2=0.8 ---");
    // The engine's tolerance early-exit decides when "converged" is reached
    // instead of a hardcoded iteration budget.
    let cfg = SimrankConfig::paper()
        .with_iterations(100)
        .with_tolerance(1e-10)
        .with_weight_kind(WeightKind::Clicks);
    let sr = engine::run(&figure3_graph(), &cfg, &UniformTransition);
    matrix(|a, b| format!("{:.3}", sr.queries.get(a, b)));
    println!(
        "engine: {} iterations to max |Δ| ≤ 1e-10 (converged = {}, {} query pairs stored)",
        sr.iterations_run,
        sr.converged,
        sr.queries.n_pairs()
    );
}

fn table3() {
    println!("--- Table 3: SimRank iterations on K2,2 vs K1,2 ---");
    iterates(
        &km2_pair_iterates(2, 0.8, 0.8, 7),
        &km2_pair_iterates(1, 0.8, 0.8, 7),
    );
}

fn table4() {
    println!("--- Table 4: evidence-based iterations ---");
    iterates(
        &km2_evidence_pair_iterates(2, 0.8, 0.8, 7, EvidenceKind::Geometric),
        &km2_evidence_pair_iterates(1, 0.8, 0.8, 7, EvidenceKind::Geometric),
    );
}

/// Table 6: the editorial scoring rubric, with one example pair per grade
/// from the simulated judge on a generated world.
fn table6(dataset: &SynthDataset) {
    println!("--- Table 6: editorial scoring rubric ---");
    println!("Score  Definition          Rubric on planted ground truth");
    println!("1      Precise rewrite     same intent, or shared core stem within a topic");
    println!("2      Approximate rewrite same (fine-grained) topic");
    println!("3      Possible rewrite    complementary (ring-adjacent) topic");
    println!("4      Clear mismatch      anything else\n");

    let judge = EditorialJudge::new(&dataset.world);
    let n = dataset.world.n_queries().min(400);
    let mut shown: Vec<Grade> = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let g = judge.judge(QueryId(a as u32), QueryId(b as u32));
            if !shown.contains(&g) {
                println!(
                    "grade {}  \"{}\"  ->  \"{}\"",
                    g.score(),
                    dataset.world.query_name[a],
                    dataset.world.query_name[b]
                );
                shown.push(g);
                if shown.len() == 4 {
                    return;
                }
            }
        }
    }
}

/// The sparse engine's pruning threshold: the accuracy/work trade-off
/// against the exact (threshold 0) scores, and the engine's per-iteration
/// stored pairs for the plain and the weighted walk. The max score delta is
/// recorded only under a tolerance, so only the early-exit row prints one.
fn ablation_pruning(config: &ExperimentConfig, dataset: &SynthDataset) {
    println!("--- Ablation: sparse-engine pruning threshold ---");
    let g = &dataset.graph;
    println!(
        "graph: {} queries, {} ads, {} edges\n",
        g.n_queries(),
        g.n_ads(),
        g.n_edges()
    );

    let exact_cfg = config.simrank.with_prune_threshold(0.0);
    let t0 = Instant::now();
    let exact = engine::run(g, &exact_cfg, &UniformTransition);
    let exact_time = t0.elapsed();

    // The same diagnostics come from the shared engine for the weighted walk.
    let walk = WeightedTransition {
        kind: exact_cfg.weight_kind,
        spread: SpreadMode::Exponential,
    };
    let weighted = engine::run(g, &exact_cfg, &walk);
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
        let t0 = Instant::now();
        let pruned_cfg = config.simrank.with_prune_threshold(threshold);
        let pruned = engine::run(g, &pruned_cfg, &UniformTransition);
        let dt = t0.elapsed();
        println!(
            "{:<12.0e} {:>12} {:>14.0} {:>16.2e} {:>11.2}x",
            threshold,
            pruned.queries.n_pairs(),
            dt.as_secs_f64() * 1e3,
            exact.queries.max_abs_diff(&pruned.queries),
            exact_time.as_secs_f64() / dt.as_secs_f64().max(1e-9)
        );
    }

    // Convergence-based early exit: run far past the fixed iteration budget
    // and let the tolerance stop the loop.
    let tol_cfg = config.simrank.with_iterations(100).with_tolerance(1e-6);
    let t0 = Instant::now();
    let tol = engine::run(g, &tol_cfg, &UniformTransition);
    println!(
        "\ntolerance 1e-6: stopped after {} iterations (converged = {}, last Δ = {:.2e}, {:.0} ms)",
        tol.iterations_run,
        tol.converged,
        tol.max_deltas.last().copied().unwrap_or(0.0),
        t0.elapsed().as_secs_f64() * 1e3
    );
}

/// §7: "In our experiments we used the first definition although
/// preliminary results with both formulas did not show substantial
/// differences." Coverage and P@X of evidence-based SimRank under Eq. 7.3
/// and Eq. 7.4, over the 200 most popular queries of the whole graph.
fn ablation_evidence(config: &ExperimentConfig, dataset: &SynthDataset) {
    println!("--- Ablation: geometric (Eq. 7.3) vs exponential (Eq. 7.4) evidence ---");
    let world = &dataset.world;
    let judge = EditorialJudge::new(world);
    let mut by_pop: Vec<usize> = (0..world.n_queries()).collect();
    by_pop.sort_by(|&a, &b| world.query_popularity[b].total_cmp(&world.query_popularity[a]));
    let sample: Vec<(QueryId, QueryId)> = by_pop
        .iter()
        .take(200)
        .map(|&q| (QueryId(q as u32), QueryId(q as u32)))
        .collect();

    println!(
        "{:<14} {:>10} {:>8} {:>8} {:>8}",
        "evidence", "coverage", "P@1", "P@3", "P@5"
    );
    for kind in [EvidenceKind::Geometric, EvidenceKind::Exponential] {
        let method = Method::compute_with(
            MethodKind::EvidenceSimrank,
            &dataset.graph,
            &config.simrank,
            kind,
            SpreadMode::Exponential,
        );
        let rewriter = Rewriter::new(&dataset.graph, method, RewriterConfig::default());
        let judged = judge_rewrites(&rewriter, &sample, &world.bids, &judge, |q| q);
        let p = |x| precision_at_x(&judged, x, RelevanceThreshold::Grade12);
        println!(
            "{:<14} {:>9.1}% {:>8.3} {:>8.3} {:>8.3}",
            kind.name(),
            coverage(&judged) * 100.0,
            p(1),
            p(3),
            p(5)
        );
    }
}

/// §8.2's `spread = e^(−variance)` factor on (the paper's definition) and
/// off (the pure normalized-weight walk), scored on Figure 12's trials over
/// the whole graph.
fn ablation_spread(config: &ExperimentConfig, dataset: &SynthDataset) {
    println!("--- Ablation: the §8.2 spread factor ---");
    let trials = whole_graph_trials(config, dataset);
    println!("{} trials prepared\n", trials.len());

    let modes = [SpreadMode::Exponential, SpreadMode::Off];
    let scorers = modes.map(|mode| {
        move |g: &ClickGraph, c: &SimrankConfig| {
            let kind = MethodKind::WeightedSimrank;
            Method::compute_with(kind, g, c, EvidenceKind::Geometric, mode)
        }
    });
    let predictions = score_trials(&dataset.graph, &trials, &config.simrank, &scorers);
    println!("{:<22} {:>12} {:>8}", "spread mode", "correct", "ties");
    for (mode, predictions) in modes.iter().zip(predictions) {
        let o = TrialSummary::from_predictions(&format!("{mode:?}"), &predictions);
        println!(
            "{:<22} {:>7}/{:<4} {:>8}",
            o.method, o.correct, o.trials, o.ties
        );
    }
}

/// §9.2: "In all our experiments that required the use of an edge weight we
/// used the expected click rate." Surviving (non-underflowed) score pairs
/// and desirability-prediction accuracy for each §2 edge weight: raw counts
/// have huge per-node variance, so `spread = e^(−variance)` underflows and
/// kills similarity propagation. Every weight is scored on the same trials,
/// whose ground truth `des` reads the expected click rate as §9.2 fixes it.
fn ablation_weights(config: &ExperimentConfig, dataset: &SynthDataset) {
    println!("--- Ablation: which §2 edge weight weighted SimRank consumes ---");
    let g = &dataset.graph;
    let trials = whole_graph_trials(config, dataset);
    println!(
        "{:<22} {:>14} {:>16} {:>18} {:>8}",
        "edge weight", "score pairs", "mean pair score", "desirability acc.", "ties"
    );
    let weighted =
        |g: &ClickGraph, c: &SimrankConfig| Method::compute(MethodKind::WeightedSimrank, g, c);
    for kind in WeightKind::ALL {
        let cfg = config.simrank.with_weight_kind(kind);
        let scores = weighted(g, &cfg).final_scores(g);
        let n_pairs = scores.n_pairs();
        let mean = scores.iter().map(|(_, _, v)| v).sum::<f64>() / n_pairs.max(1) as f64;
        let predictions = score_trials(g, &trials, &cfg, &[weighted]);
        let o = TrialSummary::from_predictions(kind.name(), &predictions[0]);
        println!(
            "{:<22} {:>14} {:>16.4} {:>13}/{:<4} {:>8}",
            o.method, n_pairs, mean, o.correct, o.trials, o.ties
        );
    }
}

/// Figure 12's trials, prepared on the whole graph with the experiment's
/// SimRank configuration (so `des` reads its edge weight).
fn whole_graph_trials(config: &ExperimentConfig, dataset: &SynthDataset) -> Vec<Trial> {
    prepare_trials(
        &dataset.graph,
        config.desirability_trials,
        &config.simrank,
        config.seed ^ 0xD5,
    )
}

fn iterates(k22: &[f64], k12: &[f64]) {
    println!(
        "{:<6} {:>26} {:>18}",
        "iter", "sim(camera,digital camera)", "sim(pc,camera)"
    );
    for k in 0..7 {
        println!("{:<6} {:>26.7} {:>18.7}", k + 1, k22[k], k12[k]);
    }
}

fn matrix(cell: impl Fn(u32, u32) -> String) {
    print!("{:<16}", "");
    for q in FIGURE3_QUERIES {
        print!("{q:>16}");
    }
    println!();
    for (i, a) in FIGURE3_QUERIES.iter().enumerate() {
        print!("{a:<16}");
        for (j, _) in FIGURE3_QUERIES.iter().enumerate() {
            if i == j {
                print!("{:>16}", "-");
            } else {
                print!("{:>16}", cell(i as u32, j as u32));
            }
        }
        println!();
    }
}
