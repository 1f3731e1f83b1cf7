//! The paper's tables and figures, from one binary.
//!
//! ```text
//! repro_all [SECTION ...]     SECTION = table1..table6 | fig8..fig12
//! ```
//!
//! With no section: Tables 1–5 and Figures 8–12 in one pass (the experiment
//! is computed once and every read-out printed). With sections: only those,
//! in paper order, each followed by the paper's own numbers to compare
//! against; the §9–§10 experiment runs only if Table 5 or a figure is asked
//! for. `table6` (the editorial rubric, demonstrated by the simulated judge)
//! prints only when named. Whenever the experiment ran, the machine-readable
//! report is written to `repro_report.json`.

use simrankpp_core::complete_bipartite::{km2_evidence_pair_iterates, km2_pair_iterates};
use simrankpp_core::evidence::EvidenceKind;
use simrankpp_core::naive::naive_scores;
use simrankpp_core::simrank::simrank;
use simrankpp_core::SimrankConfig;
use simrankpp_eval::report::{
    render_fig11, render_fig12, render_fig8, render_fig9_or_10, render_full, render_table5,
};
use simrankpp_eval::{run_experiment, ExperimentReport};
use simrankpp_graph::fixtures::{figure3_graph, FIGURE3_QUERIES};
use simrankpp_graph::{QueryId, WeightKind};
use simrankpp_synth::generator::generate;
use simrankpp_synth::{EditorialJudge, Grade};

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

fn main() {
    let asked: Vec<String> = std::env::args().skip(1).collect();
    let known = |id: &str| {
        id == "table6"
            || SMALL_TABLES.iter().any(|s| s.0 == id)
            || EVALUATION.iter().any(|s| s.0 == id)
    };
    if let Some(bad) = asked.iter().find(|id| !known(id)) {
        eprintln!("unknown section {bad:?}");
        eprintln!("usage: repro_all [table1..table6 | fig8..fig12 ...]");
        std::process::exit(2);
    }
    let everything = asked.is_empty();
    let wanted = |id: &str| everything || asked.iter().any(|a| a == id);

    let scale = simrankpp_bench::scale();
    if everything {
        simrankpp_bench::banner("repro_all", "Tables 1-5, Figures 8-12");
    } else {
        simrankpp_bench::banner("repro_all", &asked.join(", "));
    }
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
    if !everything && wanted("table6") {
        gap();
        table6(&scale);
    }
    if !(everything || EVALUATION.iter().any(|s| wanted(s.0))) {
        return;
    }

    let report = run_experiment(&simrankpp_bench::experiment_config(&scale));
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
    simrankpp_util::atomic_write_bytes(std::path::Path::new("repro_report.json"), json.as_bytes())
        .expect("write repro_report.json");
    println!("\nMachine-readable report written to repro_report.json");
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
    let sr = simrank(&figure3_graph(), &cfg);
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
fn table6(scale: &str) {
    println!("--- Table 6: editorial scoring rubric ---");
    println!("Score  Definition          Rubric on planted ground truth");
    println!("1      Precise rewrite     same intent, or shared core stem within a topic");
    println!("2      Approximate rewrite same (fine-grained) topic");
    println!("3      Possible rewrite    complementary (ring-adjacent) topic");
    println!("4      Clear mismatch      anything else\n");

    let dataset = generate(&simrankpp_bench::generator_config(scale));
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
