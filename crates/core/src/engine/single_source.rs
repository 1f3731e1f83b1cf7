//! Single-source SimRank: one query's row of `S^(k)` without the all-pairs
//! matrix.
//!
//! Every other path in this crate materializes the full O(n²) pair matrix
//! before a single score can be read. This module answers "scores of query
//! `q` against everyone" on demand — and answers what the matrix would: the
//! row [`crate::engine::run`] stores for `q` at the same [`SimrankConfig`].
//! The forward/backward sweeps are those of Maehara et al., *Efficient
//! SimRank Computation via Linearization*; the series they sum is not the
//! fixed point's but the finite one the engine's `k` iterations unroll into.
//!
//! # The unrolled series
//!
//! Let `A[q,a] = F(q,a)` and `B[a,q] = F(a,q)` be the transition-factor
//! matrices (the CSR [`TransitionFactors`], both orders). The engine starts
//! from `S^(0) = I` and iteration `t` computes, diagonal included,
//!
//! ```text
//! S_Q^(t) = C1·A·S_A^(t−1)·Aᵀ + diag(D_Q^(t))
//! S_A^(t) = C2·B·S_Q^(t−1)·Bᵀ + diag(D_A^(t))
//! ```
//!
//! where `D^(t)` is whatever the unit pin puts on the diagonal that
//! iteration: `D_Q^(t)[q] = 1 − C1·(A·S_A^(t−1)·Aᵀ)[q,q]`, and the mirror.
//! Substituting one line into the other removes the ad side,
//!
//! ```text
//! S_Q^(t) = c·T·S_Q^(t−2)·Tᵀ + E_t        c = C1·C2,  T = A·B,
//!           E_t = C1·A·diag(D_A^(t−1))·Aᵀ + diag(D_Q^(t))
//! ```
//!
//! (`D_A^(0) = I`, and `E_0 = S_Q^(0) = I`), and unrolling down to
//! `t ∈ {0, 1}` gives the row's series — finite and exact:
//!
//! ```text
//! S_Q^(k) = Σ_{j=0..⌊k/2⌋} c^j · T^j · E_{k−2j} · (Tᵀ)^j
//! ```
//!
//! `⌊k/2⌋+1` levels (4 at the paper's `k = 7`), level `j` carrying the
//! diagonals of iteration `k−2j`. One *row* of it needs only sparse vector
//! products:
//!
//! * forward: `u_j = (Tᵀ)^j e_q` for `j = 0..=⌊k/2⌋` (two CSR scatters per
//!   level, caching `y_j = Aᵀu_j`);
//! * backward (Horner): `v ← A(c·B·v + C1·D_A^(k−2j−1)⊙y_j) + D_Q^(k−2j)⊙u_j`
//!   for `j = ⌊k/2⌋..0`, starting from `v = 0`.
//!
//! The result `v` is `S_Q^(k)[q, ·]`, self entry included. The four scatters
//! consume all four factor layouts of [`TransitionFactors`]:
//! `Aᵀ` = `ad_to_query_by_query`, `Bᵀ` = `query_to_ad_by_ad`,
//! `B` = `query_to_ad`, `A` = `ad_to_query`.
//!
//! With `prune_threshold = 0` the row equals the engine's to rounding
//! (≤ 1e-12 over `k ∈ 1..=8`, both transitions —
//! `tests/single_source_equivalence.rs`). With a threshold the engine drops
//! small *pairs* after each half-step and the sweeps drop small *vector
//! entries* after each scatter — two truncations of the same sum, within
//! `1e-3` of each other at the production `1e-4` (measured `2.2e-4`).
//!
//! # The per-iteration diagonals
//!
//! `D^(t)` does not depend on the queried row, so it is recorded once per
//! graph (the "index build" of this mode) and reused by every query. The
//! pull kernel already has `T[q,·] = Σ_a F(q,a)·S_A[a,·]` in scratch when it
//! pins row `q`, so the value it pins away is `deg(q)` multiply-adds more.
//! Level `j` reads `D_Q^(k−2j)` and `D_A^(k−2j−1)`, both on the engine's
//! query chain, so [`DiagonalCorrection::whole_graph`]'s recording run is
//! that chain — `k` half-steps, one diagonal each, and no matrix frozen — and
//! keeps the `⌊k/2⌋+1` pairs the series reads.
//!
//! [`SingleSourceEngine::new`] does that **block-locally**: §9.2's click
//! graph is "one huge connected component and several smaller subgraphs",
//! the score matrix is block-diagonal over them
//! (`simrankpp_graph::Block`), so the engine runs once per component on
//! its induced subgraph at the caller's own [`SimrankConfig`], the block's
//! levels scatter through the block's monotone id maps and the block's
//! matrices are dropped before the next block runs. Peak memory is the
//! largest block's run, the steady state `O(k·n)`, and the result is
//! bit-identical to one whole-graph run. After a graph delta
//! [`SingleSourceEngine::refreshed`] re-runs only the dirty components and
//! copies every clean node's entries, level by level — the first build is
//! that same refresh with every component dirty.
//!
//! With `tolerance > 0` each block's chain stops at its own query-side check
//! (`S_Q^(t)` against `S_Q^(t−2)`), so its `k_b` has `k`'s parity and its
//! run is exactly the `k_b`-iteration chain. Its levels align from the top
//! (level `j` is always iteration `k_b − 2j` of *that block's* `k_b`) and are
//! zero below its own depth, so every query's row is its own block's
//! `engine::run` row. Components too small to hold a
//! same-side pair get no run: their diagonals are the same at every
//! iteration (`1 − c·Σ F²` over at most one edge), taken at the configured
//! depth.

use crate::config::SimrankConfig;
use crate::engine::accum::SparseAccum;
use crate::engine::parallel::run_dirty_blocks;
use crate::engine::transition::{Transition, TransitionFactors};
use crate::engine::{self, DiagonalHistory, Side};
use simrankpp_graph::{AdId, ClickGraph, DirtyComponents, QueryId};
use simrankpp_util::TopK;

/// Series level `j`'s diagonals: what the unit pin replaced at iteration
/// `k − 2j` on the query side and `k − 2j − 1` on the ad side.
#[derive(Debug, Clone, Default)]
pub struct CorrectionLevel {
    /// `D_Q^(k−2j)`: `d_query[q] = 1 − C1·(A·S_A^(k−2j−1)·Aᵀ)[q,q]`.
    pub d_query: Vec<f64>,
    /// `D_A^(k−2j−1)`: `d_ad[a] = 1 − C2·(B·S_Q^(k−2j−2)·Bᵀ)[a,a]`.
    pub d_ad: Vec<f64>,
}

/// The precomputed per-iteration diagonals, one [`CorrectionLevel`] per
/// series level, top (`j = 0`, iteration `k`) first. The default (no levels)
/// is the correction of the empty graph — what a first build refreshes from.
#[derive(Debug, Clone, Default)]
pub struct DiagonalCorrection {
    /// Levels `0..=⌊k/2⌋` for the configured `k`.
    pub levels: Vec<CorrectionLevel>,
}

/// The iterations whose diagonals series level `j` of a `k`-iteration run
/// reads: `(k − 2j, k − 2j − 1)` for the query and the ad side.
fn level_iterations(k: usize, j: usize) -> (isize, isize) {
    let t = k as isize - 2 * j as isize;
    (t, t - 1)
}

/// `D^(t)[i]` for any signed `t`: the recorded value of an executed
/// iteration, `1` at `t = 0` (`S^(0) = I`), `0` below — where the series has
/// no term.
fn diagonal_at(t: isize, recorded: impl FnOnce(usize) -> f64) -> f64 {
    match t {
        1.. => recorded(t as usize - 1),
        0 => 1.0,
        _ => 0.0,
    }
}

/// `F(q, ·)` over query `q`'s ad row.
fn query_factors<'a>(g: &ClickGraph, f: &'a TransitionFactors, q: QueryId) -> &'a [f64] {
    let lo = g.query_csr_offset(q);
    &f.ad_to_query_by_query[lo..lo + g.query_degree(q)]
}

/// `F(a, ·)` over ad `a`'s query row.
fn ad_factors<'a>(g: &ClickGraph, f: &'a TransitionFactors, a: AdId) -> &'a [f64] {
    let lo = g.ad_csr_offset(a);
    &f.query_to_ad_by_ad[lo..lo + g.ad_degree(a)]
}

/// The diagonal of a node no same-side pair can reach: with `S = I` on the
/// other side at every iteration the pin replaces `c·Σ F²` — the value the
/// kernel records for such a row, bit for bit.
fn pairless_diagonal(factors: &[f64], c: f64) -> f64 {
    let mut pinned = 0.0;
    for f in factors {
        pinned += f * f;
    }
    1.0 - c * pinned
}

/// One side of one level of [`DiagonalCorrection::block_local`]: a node
/// keeps its block's entry where a block covers it, takes `closed` when it is
/// dirty but in no block, and its entry of `previous` when it is clean.
fn merge_side(
    blocks: Vec<Option<f64>>,
    dirty: impl Fn(usize) -> bool,
    closed: impl Fn(usize) -> f64,
    previous: &[f64],
    side: &str,
) -> Result<Vec<f64>, String> {
    let stale = |i| format!("new {side} {i} is not marked dirty — stale delta analysis?");
    let merge = |(i, block): (usize, Option<f64>)| match block {
        Some(d) => Ok(d),
        None if dirty(i) => Ok(closed(i)),
        None => previous.get(i).copied().ok_or_else(|| stale(i)),
    };
    blocks.into_iter().enumerate().map(merge).collect()
}

impl DiagonalCorrection {
    /// The correction of one monolithic engine run over `g` at `config`: the
    /// diagonals the run records, picked per series level. `block_local`
    /// calls this per component block; over a whole graph it is the
    /// reference the block-local form is bit-identical to (when `tolerance`
    /// is 0 — otherwise each block stops on its own). Every diagonal a level
    /// reads lies on the query chain, so the run is that chain's half-steps,
    /// and the matrix it ends on is dropped.
    pub fn whole_graph<T: Transition>(
        g: &ClickGraph,
        config: &SimrankConfig,
        transition: &T,
    ) -> Self {
        let mut history = DiagonalHistory::new();
        engine::iterate(g, config, transition, Side::Query, Some(&mut history));
        // Entry `t − 1` is `D_Q^(t)` where `k − t` is even and `D_A^(t)`
        // where it is odd: exactly the iterations a level reads on each side.
        let level = |j| {
            let (t_q, t_a) = level_iterations(history.len(), j);
            CorrectionLevel {
                d_query: (0..g.n_queries())
                    .map(|q| diagonal_at(t_q, |t| history[t][q]))
                    .collect(),
                d_ad: (0..g.n_ads())
                    .map(|a| diagonal_at(t_a, |t| history[t][a]))
                    .collect(),
            }
        };
        DiagonalCorrection {
            levels: (0..=config.iterations / 2).map(level).collect(),
        }
    }

    /// The correction for `g` given `previous`, the correction of the graph
    /// `dirty` was computed against: every dirty component that can hold a
    /// same-side pair is re-run on its induced subgraph alone
    /// ([`run_dirty_blocks`]: `config.threads` workers over the blocks, each
    /// block serial inside), dirty components too small for that take
    /// the closed form, and every clean node keeps its entries of
    /// `previous` — ids are stable across deltas, so a node without them
    /// must be dirty. `factors` are `transition`'s over the whole of `g`.
    fn block_local<T: Transition>(
        previous: &DiagonalCorrection,
        g: &ClickGraph,
        factors: &TransitionFactors,
        dirty: &DirtyComponents,
        config: &SimrankConfig,
        transition: &T,
    ) -> Result<Self, String> {
        // Each block returns only its levels: the block's score matrices
        // die inside the closure.
        let blocks = run_dirty_blocks(g, dirty, config, |block, local| {
            Self::whole_graph(&block.graph, local, transition)
        })?;
        let (qid, aid) = (|q: usize| QueryId(q as u32), |a: usize| AdId(a as u32));
        let level = |j: usize| {
            let mut d_query = vec![None; g.n_queries()];
            let mut d_ad = vec![None; g.n_ads()];
            for (block, correction) in &blocks {
                for (&q, &d) in block.queries.iter().zip(&correction.levels[j].d_query) {
                    d_query[q as usize] = Some(d);
                }
                for (&a, &d) in block.ads.iter().zip(&correction.levels[j].d_ad) {
                    d_ad[a as usize] = Some(d);
                }
            }
            let old = previous.levels.get(j);
            let (t_q, t_a) = level_iterations(config.iterations, j);
            Ok(CorrectionLevel {
                d_query: merge_side(
                    d_query,
                    |q| dirty.query_dirty(qid(q)),
                    |q| {
                        let f = query_factors(g, factors, qid(q));
                        diagonal_at(t_q, |_| pairless_diagonal(f, config.c1))
                    },
                    old.map_or(&[], |l| &l.d_query),
                    "query",
                )?,
                d_ad: merge_side(
                    d_ad,
                    |a| dirty.ad_dirty(aid(a)),
                    |a| {
                        let f = ad_factors(g, factors, aid(a));
                        diagonal_at(t_a, |_| pairless_diagonal(f, config.c2))
                    },
                    old.map_or(&[], |l| &l.d_ad),
                    "ad",
                )?,
            })
        };
        let levels = (0..=config.iterations / 2)
            .map(level)
            .collect::<Result<_, String>>()?;
        Ok(DiagonalCorrection { levels })
    }
}

/// Moves `acc`'s entries (ascending id, pruned at `prune`) into `out`,
/// leaving `acc` zeroed for reuse.
fn drain_into(acc: &mut SparseAccum, prune: f64, out: &mut Vec<(u32, f64)>) {
    out.clear();
    acc.drain_ascending(0, |i, v| {
        if v.abs() > prune {
            out.push((i, v));
        }
    });
}

/// Reusable per-query scratch: dense accumulators for both sides plus the
/// stored forward levels (`u_j` query-space, `y_j = Aᵀu_j` ad-space).
#[derive(Debug)]
pub struct RowWorkspace {
    acc_q: SparseAccum,
    acc_a: SparseAccum,
    levels_u: Vec<Vec<(u32, f64)>>,
    levels_y: Vec<Vec<(u32, f64)>>,
    v: Vec<(u32, f64)>,
    m: Vec<(u32, f64)>,
}

impl RowWorkspace {
    /// Scratch sized for a graph with the given side cardinalities.
    pub fn new(n_queries: usize, n_ads: usize) -> Self {
        RowWorkspace {
            acc_q: SparseAccum::new(n_queries),
            acc_a: SparseAccum::new(n_ads),
            levels_u: Vec::new(),
            levels_y: Vec::new(),
            v: Vec::new(),
            m: Vec::new(),
        }
    }

    /// Re-sizes the scratch for a graph with the given side cardinalities
    /// (an update may add queries, ads, or both), keeping its allocations.
    pub fn resize(&mut self, n_queries: usize, n_ads: usize) {
        self.acc_q.resize(n_queries);
        self.acc_a.resize(n_ads);
    }

    /// Computes and stores `u_j = (Tᵀ)^j u_0` and `y_j = Aᵀu_j` for
    /// `j = 0..=levels`, pruning each level at `prune`.
    ///
    /// Kept out of line: with `sweep` its only caller the compiler inlines
    /// it there, and the fused body runs the row ≈ 3 % slower (49.7 vs
    /// 48.0 µs a row, medians of six alternated min-of-7 passes over every
    /// row at `k = 7`, prune 1e-4, weighted ECR, on a 3 000-query synth
    /// graph; 2-core x86-64 VM).
    #[inline(never)]
    fn forward(
        &mut self,
        g: &ClickGraph,
        f: &TransitionFactors,
        u0: &[(u32, f64)],
        levels: usize,
        prune: f64,
    ) {
        self.levels_u.resize_with(levels + 1, Vec::new);
        self.levels_y.resize_with(levels + 1, Vec::new);
        self.levels_u[0].clear();
        self.levels_u[0].extend_from_slice(u0);
        for j in 0..=levels {
            // y_j = Aᵀ u_j: (Aᵀu)[a] = Σ_q F(q,a)·u[q], query-major factors.
            for &(qi, x) in &self.levels_u[j] {
                let q = QueryId(qi);
                let (ads, _) = g.ads_of(q);
                let lo = g.query_csr_offset(q);
                for (k, &a) in ads.iter().enumerate() {
                    self.acc_a.add(a.0, f.ad_to_query_by_query[lo + k] * x);
                }
            }
            drain_into(&mut self.acc_a, prune, &mut self.levels_y[j]);
            if j == levels {
                break;
            }
            // u_{j+1} = Bᵀ y_j: (Bᵀy)[q] = Σ_a F(a,q)·y[a], ad-major factors.
            for &(ai, x) in &self.levels_y[j] {
                let a = AdId(ai);
                let (qs, _) = g.queries_of(a);
                let lo = g.ad_csr_offset(a);
                for (k, &q) in qs.iter().enumerate() {
                    self.acc_q.add(q.0, f.query_to_ad_by_ad[lo + k] * x);
                }
            }
            drain_into(&mut self.acc_q, prune, &mut self.levels_u[j + 1]);
        }
    }
}

/// The on-demand engine: precomputed factors + per-iteration diagonals,
/// ready to answer per-query rows and top-k requests.
///
/// Holds no reference to the graph; pass the *same* graph to every method
/// (checked only by side cardinality).
#[derive(Debug)]
pub struct SingleSourceEngine {
    factors: TransitionFactors,
    correction: DiagonalCorrection,
    c1: f64,
    c: f64,
    prune: f64,
}

impl SingleSourceEngine {
    /// Builds the engine for `g`: the block-local diagonals of the module
    /// docs, one engine run per connected component at `config` (the
    /// one-off precompute of this mode — everything per-query afterwards).
    /// This is [`SingleSourceEngine::refreshed`] from the empty graph, with
    /// every component dirty.
    pub fn new<T: Transition>(g: &ClickGraph, config: &SimrankConfig, transition: &T) -> Self {
        Self::refreshed(
            &DiagonalCorrection::default(),
            g,
            &DirtyComponents::all(g),
            config,
            transition,
        )
        .expect("an all-dirty refresh copies nothing from the previous correction")
    }

    /// The engine for the post-delta graph `g`, given the correction
    /// `previous` of the graph the delta applied to and the delta's `dirty`
    /// analysis over `g` (`simrankpp_graph::GraphDelta::dirty_components`):
    /// dirty components are re-run, clean ones keep their entries, so the
    /// result is bit-identical to [`SingleSourceEngine::new`] over `g`.
    /// Errors when `dirty` was computed for another graph or leaves a node
    /// `previous` does not cover clean.
    pub fn refreshed<T: Transition>(
        previous: &DiagonalCorrection,
        g: &ClickGraph,
        dirty: &DirtyComponents,
        config: &SimrankConfig,
        transition: &T,
    ) -> Result<Self, String> {
        config.validate().expect("invalid SimRank configuration");
        let factors = transition.factors(g);
        let correction =
            DiagonalCorrection::block_local(previous, g, &factors, dirty, config, transition)?;
        Ok(SingleSourceEngine {
            factors,
            correction,
            c1: config.c1,
            c: config.c1 * config.c2,
            prune: config.prune_threshold,
        })
    }

    /// The per-iteration diagonals in use.
    pub fn correction(&self) -> &DiagonalCorrection {
        &self.correction
    }

    /// Series levels a row sums: `⌊k/2⌋ + 1` for the configured `k`.
    pub fn levels(&self) -> usize {
        self.correction.levels.len()
    }

    /// Runs the forward and Horner sweeps for `q`, leaving `S_Q^(k)[q, ·]`
    /// in `ws.v` as ascending-id `(query, score)` pairs.
    fn sweep(&self, g: &ClickGraph, q: QueryId, ws: &mut RowWorkspace) {
        assert_eq!(
            (ws.acc_q.len(), ws.acc_a.len()),
            (g.n_queries(), g.n_ads()),
            "workspace sized for another graph"
        );
        // The accumulators are normally left clean by drain_into, but a call
        // that panicked mid-sweep (the serving layer reuses one workspace
        // across requests and recovers its lock from poisoning) leaves them
        // dirty; resetting at entry makes every call self-contained.
        ws.acc_q.reset();
        ws.acc_a.reset();
        let levels = &self.correction.levels;
        ws.forward(
            g,
            &self.factors,
            &[(q.0, 1.0)],
            levels.len() - 1,
            self.prune,
        );
        // Backward Horner: v ← A(c·B·v + C1·d_A⊙y_j) + d_Q⊙u_j, j = J..0,
        // with level j's own d_Q / d_A.
        ws.v.clear();
        for (j, level) in levels.iter().enumerate().rev() {
            // m = c·(B v) + C1·(d_A ⊙ y_j), assembled in the ad accumulator.
            for &(qi, x) in &ws.v {
                let qq = QueryId(qi);
                let (ads, _) = g.ads_of(qq);
                let lo = g.query_csr_offset(qq);
                for (k, &a) in ads.iter().enumerate() {
                    // B[a,q] = F(a,q), query-major layout.
                    ws.acc_a
                        .add(a.0, self.c * self.factors.query_to_ad[lo + k] * x);
                }
            }
            for &(ai, x) in &ws.levels_y[j] {
                ws.acc_a.add(ai, self.c1 * level.d_ad[ai as usize] * x);
            }
            drain_into(&mut ws.acc_a, self.prune, &mut ws.m);
            // v = A m + d_Q ⊙ u_j.
            for &(ai, x) in &ws.m {
                let a = AdId(ai);
                let (qs, _) = g.queries_of(a);
                let lo = g.ad_csr_offset(a);
                for (k, &qq) in qs.iter().enumerate() {
                    // A[q,a] = F(q,a), ad-major layout.
                    ws.acc_q.add(qq.0, self.factors.ad_to_query[lo + k] * x);
                }
            }
            for &(qi, x) in &ws.levels_u[j] {
                ws.acc_q.add(qi, level.d_query[qi as usize] * x);
            }
            drain_into(&mut ws.acc_q, self.prune, &mut ws.v);
        }
    }

    /// Computes `S_Q^(k)[q, ·]` into `out` as ascending-id `(query, score)`
    /// pairs (the self entry included, = 1 to rounding), reusing `ws` across
    /// calls.
    pub fn row_into(
        &self,
        g: &ClickGraph,
        q: QueryId,
        ws: &mut RowWorkspace,
        out: &mut Vec<(QueryId, f64)>,
    ) {
        self.sweep(g, q, ws);
        out.clear();
        out.extend(ws.v.iter().map(|&(qi, s)| (QueryId(qi), s)));
    }

    /// Allocating convenience over [`SingleSourceEngine::row_into`].
    pub fn row(&self, g: &ClickGraph, q: QueryId) -> Vec<(QueryId, f64)> {
        let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
        let mut out = Vec::new();
        self.row_into(g, q, &mut ws, &mut out);
        out
    }

    /// The `k` highest-scoring *other* queries for `q` (descending score,
    /// ties by ascending id — [`crate::ScoreMatrix::top_k`]'s order), written
    /// into `out`.
    pub fn top_k_into(
        &self,
        g: &ClickGraph,
        q: QueryId,
        k: usize,
        ws: &mut RowWorkspace,
        out: &mut Vec<(QueryId, f64)>,
    ) {
        self.sweep(g, q, ws);
        let mut top = TopK::new(k);
        for &(other, score) in &ws.v {
            if other != q.0 && score > 0.0 {
                top.push(other, score);
            }
        }
        out.clear();
        out.extend(
            top.into_sorted_vec()
                .into_iter()
                .map(|(i, s)| (QueryId(i), s)),
        );
    }

    /// Allocating convenience over [`SingleSourceEngine::top_k_into`].
    pub fn top_k(&self, g: &ClickGraph, q: QueryId, k: usize) -> Vec<(QueryId, f64)> {
        let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
        let mut out = Vec::new();
        self.top_k_into(g, q, k, &mut ws, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, EngineRun, UniformTransition};
    use simrankpp_graph::fixtures::{figure3_graph, figure4_k22};
    use simrankpp_graph::{dirty_blocks, Block, ClickGraphBuilder, EdgeData, GraphDelta};

    fn cfg(k: usize) -> SimrankConfig {
        SimrankConfig::default().with_iterations(k)
    }

    /// `base` plus `extra` edges and `spare` unclicked ids per side.
    fn extended(base: &ClickGraph, extra: &[(u32, u32)], spare: u32) -> ClickGraph {
        let mut b = ClickGraphBuilder::new();
        for (q, a, e) in base.edges() {
            b.add_edge(q, a, *e);
        }
        for &(q, a) in extra {
            b.add_edge(QueryId(q), AdId(a), EdgeData::from_clicks(3));
        }
        let sizes = (base.n_queries() as u32, base.n_ads() as u32);
        let (nq, na) = extra
            .iter()
            .fold(sizes, |(nq, na), &(q, a)| (nq.max(q + 1), na.max(a + 1)));
        b.reserve_queries(nq + spare);
        b.reserve_ads(na + spare);
        b.build()
    }

    /// Figure 3 plus what no block covers: a 1×1 edge component and an
    /// isolated node per side.
    fn figure3_with_pairless_components() -> ClickGraph {
        extended(&figure3_graph(), &[(5, 4)], 1)
    }

    /// Largest `|live row − engine row|` over every query, in both
    /// directions (spurious entries and missing ones alike).
    fn max_row_error(g: &ClickGraph, run: &EngineRun, ss: &SingleSourceEngine) -> f64 {
        let mut worst = 0.0f64;
        for q in g.queries() {
            let row = ss.row(g, q);
            for &(other, got) in &row {
                worst = worst.max((got - run.queries.get(q.0, other.0)).abs());
            }
            for other in g.queries() {
                if !row.iter().any(|&(w, _)| w == other) {
                    worst = worst.max(run.queries.get(q.0, other.0));
                }
            }
        }
        worst
    }

    fn bits(d: &[f64]) -> Vec<u64> {
        d.iter().map(|x| x.to_bits()).collect()
    }

    /// Overwrites `q`'s entry at every level with a per-level marker no run
    /// produces.
    fn poison(d: &mut DiagonalCorrection, q: QueryId, marker: f64) {
        for (j, level) in d.levels.iter_mut().enumerate() {
            level.d_query[q.index()] = marker + j as f64;
        }
    }

    fn assert_same_levels(a: &DiagonalCorrection, b: &DiagonalCorrection) {
        assert_eq!(a.levels.len(), b.levels.len());
        for (j, (la, lb)) in a.levels.iter().zip(&b.levels).enumerate() {
            assert_eq!(bits(&la.d_query), bits(&lb.d_query), "level {j} d_Q");
            assert_eq!(bits(&la.d_ad), bits(&lb.d_ad), "level {j} d_A");
        }
    }

    #[test]
    fn rows_are_the_engine_rows_at_every_iteration_count() {
        // Both parities: an even k ends the series on E_0 = I, an odd one on
        // E_1 with D_A^(0) = I; k = 0 is the identity alone.
        for g in [
            figure3_graph(),
            figure4_k22(),
            figure3_with_pairless_components(),
        ] {
            for k in 0..=8 {
                let run = engine::run(&g, &cfg(k), &UniformTransition);
                let ss = SingleSourceEngine::new(&g, &cfg(k), &UniformTransition);
                assert_eq!(ss.levels(), k / 2 + 1);
                let err = max_row_error(&g, &run, &ss);
                assert!(err < 1e-12, "k = {k}: live rows off by {err:e}");
            }
        }
    }

    #[test]
    fn new_reads_the_whole_graph_correction_block_by_block() {
        // Figure 3's two components are both blocks (flower's one query
        // still has an ad pair); the third graph adds what no block covers,
        // which takes the closed form at every level.
        for g in [
            figure3_graph(),
            figure4_k22(),
            figure3_with_pairless_components(),
        ] {
            for k in [4, 7] {
                let whole = DiagonalCorrection::whole_graph(&g, &cfg(k), &UniformTransition);
                let ss = SingleSourceEngine::new(&g, &cfg(k), &UniformTransition);
                assert_same_levels(ss.correction(), &whole);
            }
        }
    }

    #[test]
    fn refreshed_copies_clean_entries_and_refuses_a_stale_analysis() {
        let g = figure3_graph();
        let config = cfg(7);
        let old = SingleSourceEngine::new(&g, &config, &UniformTransition);
        let mut d = GraphDelta::new();
        d.upsert(
            g.query_by_name("camera").unwrap(),
            g.ad_by_name("hp.com").unwrap(),
            EdgeData::from_clicks(7),
        );
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);
        // A poisoned clean entry must come through verbatim at every level:
        // it was copied, not recomputed.
        let flower = g.query_by_name("flower").unwrap();
        let mut previous = old.correction().clone();
        poison(&mut previous, flower, 0.123);
        let next =
            SingleSourceEngine::refreshed(&previous, &g2, &dirty, &config, &UniformTransition)
                .unwrap();
        let scratch = SingleSourceEngine::new(&g2, &config, &UniformTransition);
        let mut poisoned = scratch.correction().clone();
        poison(&mut poisoned, flower, 0.123);
        assert_same_levels(next.correction(), &poisoned);

        // Nothing dirty and nothing to copy from: every node is "new".
        let clean = GraphDelta::new().dirty_components(&g2);
        let none = DiagonalCorrection::default();
        let err = SingleSourceEngine::refreshed(&none, &g2, &clean, &config, &UniformTransition)
            .unwrap_err();
        assert!(err.contains("not marked dirty"), "{err}");
        // An analysis of another graph.
        let other = DirtyComponents::all(&figure4_k22());
        assert!(
            SingleSourceEngine::refreshed(&none, &g2, &other, &config, &UniformTransition).is_err()
        );
    }

    /// Each block's own `engine::run` at `config`, beside its block.
    fn block_runs(g: &ClickGraph, config: &SimrankConfig) -> Vec<(Block, EngineRun)> {
        dirty_blocks(g, &DirtyComponents::all(g))
            .into_iter()
            .map(|block| {
                let run = engine::run(&block.graph, config, &UniformTransition);
                (block, run)
            })
            .collect()
    }

    #[test]
    fn blocks_that_stop_early_keep_their_own_rows() {
        // Under a tolerance the camera component takes a dozen iterations
        // and the q5,q6 → a4 star two (its one query pair is C1 from the
        // first iteration on): levels align from the top, zeros below.
        let g = extended(&figure3_graph(), &[(5, 4), (6, 4)], 0);
        let config = cfg(30).with_tolerance(1e-3);
        let blocks = block_runs(&g, &config);
        let depths: Vec<usize> = blocks.iter().map(|(_, run)| run.iterations_run).collect();
        assert!(depths.iter().any(|&d| d != depths[0]), "depths {depths:?}");
        let ss = SingleSourceEngine::new(&g, &config, &UniformTransition);
        assert_eq!(ss.levels(), 16);
        for (block, run) in &blocks {
            for lq in block.graph.queries() {
                let q = QueryId(block.queries[lq.index()]);
                for (other, got) in ss.row(&g, q) {
                    let want = block
                        .queries
                        .binary_search(&other.0)
                        .map_or(0.0, |lo| run.queries.get(lq.0, lo as u32));
                    assert!(
                        (got - want).abs() < 1e-12,
                        "S({q}, {other}) = {got}, block {want}"
                    );
                }
            }
        }

        // A delta that deepens the star (a second ad gives it an ad pair
        // that converges geometrically) leaves the other components clean:
        // their levels are copied verbatim, whatever depth the dirty one
        // now has.
        let mut d = GraphDelta::new();
        d.upsert(QueryId(6), AdId(5), EdgeData::from_clicks(2));
        let g2 = d.apply(&g);
        let star_depth = |g: &ClickGraph| {
            let runs = block_runs(g, &config);
            let star = runs
                .iter()
                .find(|(block, _)| block.queries.binary_search(&6).is_ok());
            star.expect("the star is a block").1.iterations_run
        };
        assert_ne!(star_depth(&g), star_depth(&g2));
        let mut previous = ss.correction().clone();
        let camera = figure3_graph().query_by_name("camera").unwrap();
        poison(&mut previous, camera, 0.5);
        let dirty = d.dirty_components(&g2);
        let next =
            SingleSourceEngine::refreshed(&previous, &g2, &dirty, &config, &UniformTransition)
                .unwrap();
        let mut want = SingleSourceEngine::new(&g2, &config, &UniformTransition)
            .correction()
            .clone();
        poison(&mut want, camera, 0.5);
        assert_same_levels(next.correction(), &want);
    }

    #[test]
    fn top_k_matches_matrix_top_k() {
        let g = figure3_graph();
        let run = engine::run(&g, &cfg(7), &UniformTransition);
        let ss = SingleSourceEngine::new(&g, &cfg(7), &UniformTransition);
        for q in g.queries() {
            let got = ss.top_k(&g, q, 3);
            let want = run.queries.top_k(q.0, 3);
            assert_eq!(
                got.iter().map(|&(i, _)| i.0).collect::<Vec<_>>(),
                want.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                "top-k ids for {:?}",
                q
            );
            for (a, b) in got.iter().zip(&want) {
                assert!((a.1 - b.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn disconnected_query_row_is_its_own_unit() {
        // "flower" shares no component with "camera"/"pc"/"tv" in Figure 3.
        let g = figure3_graph();
        let ss = SingleSourceEngine::new(&g, &cfg(7), &UniformTransition);
        let flower = g.query_by_name("flower").unwrap();
        let pc = g.query_by_name("pc").unwrap();
        let row = ss.row(&g, flower);
        assert!(row.iter().all(|&(w, _)| w != pc));
        assert!(ss.top_k(&g, pc, 10).iter().all(|&(w, _)| w != flower));
    }

    #[test]
    fn dirty_workspace_is_reset_at_entry() {
        // A computation that panicked mid-sweep leaves garbage in the dense
        // accumulators (drain_into never ran). The next row_into on the same
        // workspace must not inherit it.
        let g = figure3_graph();
        let ss = SingleSourceEngine::new(&g, &cfg(7), &UniformTransition);
        let camera = g.query_by_name("camera").unwrap();
        let clean = ss.row(&g, camera);

        let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
        // Simulate the abandoned call: touched-but-undrained entries on both
        // sides, exactly what an unwound forward/backward sweep leaves.
        ws.acc_q.add(0, 123.0);
        ws.acc_q.add(2, -7.5);
        ws.acc_a.add(1, 55.0);
        let mut row = Vec::new();
        ss.row_into(&g, camera, &mut ws, &mut row);
        assert_eq!(row, clean, "dirty accumulators leaked into the next row");
    }

    #[test]
    fn row_into_refuses_a_workspace_missized_on_either_side() {
        let g = figure3_graph();
        let ss = SingleSourceEngine::new(&g, &cfg(7), &UniformTransition);
        let camera = g.query_by_name("camera").unwrap();
        for (nq, na) in [
            (g.n_queries() - 1, g.n_ads()),
            (g.n_queries(), g.n_ads() - 1),
        ] {
            let mut ws = RowWorkspace::new(nq, na);
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ss.row_into(&g, camera, &mut ws, &mut Vec::new())
            }));
            let msg = *refused.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("workspace sized for another graph"), "{msg}");
            // Re-sized, the same workspace serves.
            ws.resize(g.n_queries(), g.n_ads());
            let mut row = Vec::new();
            ss.row_into(&g, camera, &mut ws, &mut row);
            assert_eq!(row, ss.row(&g, camera));
        }
    }
}
