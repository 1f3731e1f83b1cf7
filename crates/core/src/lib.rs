//! Simrank++ core: the paper's primary contribution.
//!
//! This crate implements every similarity scheme the paper studies:
//!
//! * [`naive`] — §3's common-ad count (Table 1);
//! * [`engine`] — the unified sparse propagation engine all recursive
//!   variants run on: a [`engine::Walk`] value is the per-edge walk
//!   factor, one loop runs one chain of half-steps through one row-parallel
//!   pull kernel ([`engine::pull`]), with threshold pruning, `pair_counts`
//!   and a same-chain tolerance early exit;
//! * [`mod@simrank`] — §4's bipartite SimRank (Eq. 4.1/4.2), which is the
//!   engine with `Walk::Uniform`, and its dense
//!   cross-validation oracle;
//! * [`evidence`] — §7's evidence-based SimRank (Eq. 7.3–7.6): the uniform
//!   walk with the evidence factor applied at read-out;
//! * [`weighted`] — §8's weighted SimRank (spread × normalized-weight walk),
//!   the same engine kernel with `Walk::Weighted` (an
//!   [`engine::WeightedTransition`]);
//! * [`method`] — [`Method`], one query side of any scheme with its
//!   evidence applied at read-out;
//! * [`pearson`] — §9.1's Pearson-correlation baseline;
//! * [`complete_bipartite`] — closed forms on `K_{m,2}` (Theorems 6.1–7.1,
//!   Appendices A–B), used for paper-exactness tests and Tables 3–4;
//! * [`rewriter`] — the Figure 2 front-end: score → rank → stem-dedup →
//!   bid-filter → top-5 rewrites, the one ranking of every served row.
//!
//! There are two ways into the engine: [`engine::run`] returns both sides
//! of a walk as an [`engine::EngineRun`] with its diagnostics, and
//! [`Method::compute`] runs the query side only, the one serving and the
//! evaluation read. [`evidence::evidence_multiply`] materialises the §7
//! read-out of a run's two sides.
//!
//! The similarity conventions follow the paper exactly: `s(x,x) = 1`,
//! simultaneous (Jacobi) iteration from `s⁰ = I`, and decay factors
//! `C1` (query side) and `C2` (ad side). All iterated tables of the paper
//! (Tables 2–4) are reproduced digit-for-digit by the test suite.

pub mod complete_bipartite;
pub mod config;
pub mod engine;
pub mod evidence;
pub mod method;
pub mod naive;
pub mod pearson;
pub mod rewriter;
pub mod scores;
pub mod simrank;
pub mod weighted;

pub use config::{KernelKind, ShardStrategy, SimrankConfig};
pub use engine::{
    DiagonalCorrection, RowWorkspace, SingleSourceEngine, TransitionFactors, Walk,
    WeightedTransition,
};
pub use evidence::EvidenceKind;
pub use method::{Method, MethodKind};
pub use rewriter::{Rewrite, Rewriter, RewriterConfig};
pub use scores::{ScoreMatrix, ScoreMatrixBuilder};
