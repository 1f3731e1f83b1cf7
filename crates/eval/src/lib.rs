//! Evaluation harness for the paper's §9–§10 experiments.
//!
//! * [`judgments`] — per-query judged rewrite lists (the unit all metrics
//!   consume);
//! * [`metrics`] — §9.4 metrics: precision/recall with pooled relevance,
//!   11-point interpolated precision-recall curves, P@X;
//! * [`depth`] — the Figure 11 rewriting-depth distribution;
//! * [`desirability`] — §9.3's desirability score and the edge-removal
//!   desirability-prediction experiment (Figure 12);
//! * [`experiment`] — the end-to-end driver: generate → extract five
//!   subgraphs → sample evaluation queries → run all four methods → judge →
//!   aggregate (regenerates Table 5 and Figures 8–12);
//! * [`report`] — paper-style text rendering of the results;
//! * [`spam`] — the §11 adversarial click-spam scenario: contamination of
//!   served rewrites against a spam-free reference, and the streamed
//!   timeline showing window expiry plus evidence weighting blunt a
//!   campaign.

pub mod depth;
pub mod desirability;
pub mod experiment;
pub mod judgments;
pub mod metrics;
pub mod report;
pub mod spam;

pub use depth::DepthDistribution;
pub use desirability::{run_desirability_experiment, DesirabilityOutcome};
pub use experiment::{run_experiment, ExperimentConfig, ExperimentReport, MethodReport};
pub use judgments::{JudgedRewrite, QueryJudgments};
pub use metrics::{interpolated_pr_curve, precision_at_x, PrCurve, RelevanceThreshold};
pub use spam::{
    run_windowed_spam_experiment, spam_contamination, SpamImpact, SpamTimeline, WindowedSpamOutcome,
};
