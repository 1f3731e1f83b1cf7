//! Evaluation harness for the paper's §9–§10 experiments.
//!
//! * [`judgments`] — per-query judged rewrite lists (the unit every §9.4
//!   metric consumes);
//! * [`desirability`] — §9.3's desirability score and the edge-removal
//!   trials of Figure 12, each scored into one `Correct | Wrong | Tie`
//!   [`Prediction`] per method (the unit Figure 12 counts);
//! * [`experiment`] — the end-to-end driver: generate → extract five
//!   subgraphs → sample evaluation queries → run all four methods → judge →
//!   score the trials. It returns its [`Records`] (every judged rewrite
//!   list and every trial prediction) beside the figures computed from
//!   them (Table 5 and Figures 8–12), and its presets per scale
//!   ([`ExperimentConfig::at_scale`]);
//! * [`metrics`] — every reported number as a function of the records:
//!   coverage, precision/recall with pooled relevance, 11-point
//!   interpolated precision-recall curves, P@X, depth bands and Figure 12's
//!   correct / tie counts;
//! * [`depth`] — the Figure 11 rewriting-depth distribution;
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
pub use desirability::Prediction;
pub use experiment::{run_experiment, ExperimentConfig, ExperimentReport, MethodReport, Records};
pub use judgments::{JudgedRewrite, QueryJudgments};
pub use metrics::{
    interpolated_pr_curve, precision_at_x, PrCurve, RelevanceThreshold, TrialSummary,
};
pub use spam::{
    run_windowed_spam_experiment, spam_contamination, SpamImpact, SpamTimeline, WindowedSpamOutcome,
};
