//! Paper-style text rendering of experiment results.
//!
//! `repro_all` prints these tables (README, "Reproducing the paper").

use crate::experiment::ExperimentReport;
use std::fmt::Write as _;

/// Renders Table 5 (dataset statistics).
pub fn render_table5(report: &ExperimentReport) -> String {
    let mut out = String::new();
    writeln!(out, "Table 5: Dataset statistics").unwrap();
    writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12}",
        "", "# Queries", "# Ads", "# Edges"
    )
    .unwrap();
    let n = report.table5.len();
    for (i, (q, a, e)) in report.table5.iter().enumerate() {
        let label = if i + 1 == n {
            "Total".to_owned()
        } else {
            format!("subgraph {}", i + 1)
        };
        writeln!(out, "{label:<14} {q:>12} {a:>12} {e:>12}").unwrap();
    }
    out
}

/// Renders Figure 8 (query coverage).
pub fn render_fig8(report: &ExperimentReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 8: Query coverage ({} eval queries)",
        report.eval_queries
    )
    .unwrap();
    for m in &report.methods {
        writeln!(
            out,
            "  {:<26} {:>5.1}%  {}",
            m.method,
            m.coverage * 100.0,
            bar(m.coverage, 40)
        )
        .unwrap();
    }
    out
}

/// Renders Figure 9 (P/R + P@X at grades {1,2}) or Figure 10 (grade {1}).
pub fn render_fig9_or_10(report: &ExperimentReport, threshold_one: bool) -> String {
    let mut out = String::new();
    let (fig, label) = if threshold_one {
        (10, "positive = {1}")
    } else {
        (9, "positive = {1,2}")
    };
    writeln!(out, "Figure {fig}: Precision at 11 recall levels ({label})").unwrap();
    write!(out, "  {:<26}", "recall:").unwrap();
    for i in 0..11 {
        write!(out, " {:>6.1}", i as f64 / 10.0).unwrap();
    }
    writeln!(out).unwrap();
    for m in &report.methods {
        let curve = if threshold_one {
            &m.pr_grade1
        } else {
            &m.pr_grade12
        };
        write!(out, "  {:<26}", m.method).unwrap();
        for p in curve.precision_at_recall {
            write!(out, " {:>6.3}", p).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(
        out,
        "\nFigure {fig}: Precision after X rewrites (P@X, {label})"
    )
    .unwrap();
    write!(out, "  {:<26}", "X:").unwrap();
    for x in 1..=5 {
        write!(out, " {x:>6}").unwrap();
    }
    writeln!(out).unwrap();
    for m in &report.methods {
        let p = if threshold_one {
            &m.p_at_x_grade1
        } else {
            &m.p_at_x_grade12
        };
        write!(out, "  {:<26}", m.method).unwrap();
        for v in p {
            write!(out, " {:>6.3}", v).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Renders Figure 11 (rewriting depth bands).
pub fn render_fig11(report: &ExperimentReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 11: Rewriting depth (fraction of sample queries)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<26} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
        "", "5", "4-5", "3-5", "2-5", "1-5", "mean"
    )
    .unwrap();
    for m in &report.methods {
        writeln!(
            out,
            "  {:<26} {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>7.2}",
            m.method,
            m.depth_bands[0] * 100.0,
            m.depth_bands[1] * 100.0,
            m.depth_bands[2] * 100.0,
            m.depth_bands[3] * 100.0,
            m.depth_bands[4] * 100.0,
            m.mean_depth
        )
        .unwrap();
    }
    out
}

/// Renders Figure 12 (desirability prediction).
pub fn render_fig12(report: &ExperimentReport) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 12: Correct desirability-order predictions").unwrap();
    for o in &report.desirability {
        writeln!(
            out,
            "  {:<26} {:>3}/{:<3} = {:>5.1}%  {}",
            o.method,
            o.correct,
            o.trials,
            o.accuracy() * 100.0,
            bar(o.accuracy(), 40)
        )
        .unwrap();
    }
    out
}

/// Renders the full report.
pub fn render_full(report: &ExperimentReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Evaluation sample: {} sampled from traffic, {} present in the evaluation graph\n",
        report.sampled_queries, report.eval_queries
    )
    .unwrap();
    out.push_str(&render_table5(report));
    out.push('\n');
    out.push_str(&render_fig8(report));
    out.push('\n');
    out.push_str(&render_fig9_or_10(report, false));
    out.push('\n');
    out.push_str(&render_fig9_or_10(report, true));
    out.push('\n');
    out.push_str(&render_fig11(report));
    out.push('\n');
    out.push_str(&render_fig12(report));
    out
}

fn bar(fraction: f64, width: usize) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '█' } else { '·' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::MethodReport;
    use crate::metrics::{PrCurve, TrialSummary};

    fn fake_report() -> ExperimentReport {
        let method = |name: &str, cov: f64| MethodReport {
            method: name.to_owned(),
            coverage: cov,
            p_at_x_grade12: [0.9, 0.8, 0.7, 0.6, 0.5],
            p_at_x_grade1: [0.4, 0.35, 0.3, 0.25, 0.2],
            pr_grade12: PrCurve {
                precision_at_recall: [0.9; 11],
                queries_scored: 10,
            },
            pr_grade1: PrCurve {
                precision_at_recall: [0.3; 11],
                queries_scored: 10,
            },
            mean_precision_grade12: 0.8,
            mean_recall_grade12: 0.6,
            depth_bands: [0.5, 0.6, 0.7, 0.8, 0.9],
            mean_depth: 3.4,
        };
        ExperimentReport {
            table5: vec![(100, 80, 250), (50, 40, 90), (150, 120, 340)],
            sampled_queries: 120,
            eval_queries: 25,
            methods: vec![method("Pearson", 0.41), method("Simrank", 0.98)],
            desirability: vec![TrialSummary {
                method: "weighted Simrank".into(),
                correct: 46,
                ties: 1,
                trials: 50,
            }],
            records: Default::default(),
        }
    }

    #[test]
    fn table5_lists_subgraphs_and_total() {
        let s = render_table5(&fake_report());
        assert!(s.contains("subgraph 1"));
        assert!(s.contains("subgraph 2"));
        assert!(s.contains("Total"));
        assert!(s.contains("340"));
    }

    #[test]
    fn fig8_shows_percentages() {
        let s = render_fig8(&fake_report());
        assert!(s.contains("41.0%"));
        assert!(s.contains("98.0%"));
    }

    #[test]
    fn fig9_and_10_render_both_sections() {
        let s9 = render_fig9_or_10(&fake_report(), false);
        assert!(s9.contains("Figure 9"));
        assert!(s9.contains("P@X"));
        let s10 = render_fig9_or_10(&fake_report(), true);
        assert!(s10.contains("Figure 10"));
        assert!(s10.contains("0.300"));
    }

    #[test]
    fn fig11_and_12_render() {
        let s = render_fig11(&fake_report());
        assert!(s.contains("4-5"));
        assert!(s.contains("3.40"));
        let s = render_fig12(&fake_report());
        assert!(s.contains("46/50"));
        assert!(s.contains("92.0%"));
    }

    #[test]
    fn full_report_contains_everything() {
        let s = render_full(&fake_report());
        for needle in [
            "Table 5",
            "Figure 8",
            "Figure 9",
            "Figure 10",
            "Figure 11",
            "Figure 12",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn bar_widths() {
        assert_eq!(bar(0.0, 10).chars().filter(|&c| c == '█').count(), 0);
        assert_eq!(bar(1.0, 10).chars().filter(|&c| c == '█').count(), 10);
        assert_eq!(bar(0.5, 10).chars().filter(|&c| c == '█').count(), 5);
    }
}
