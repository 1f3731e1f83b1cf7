//! Single-source SimRank: one query's score row without the all-pairs matrix.
//!
//! Every other path in this crate materializes the full O(n²) pair matrix
//! before a single score can be read. This module answers "scores of query
//! `q` against everyone" on demand, following the linearization idea of
//! Maehara et al., *Efficient SimRank Computation via Linearization*
//! (adapted here to the paper's bipartite click graph with two decay
//! factors and a pinned diagonal).
//!
//! # The linearized series
//!
//! Let `A[q,a] = F(q,a)` and `B[a,q] = F(a,q)` be the transition-factor
//! matrices (PR 5's CSR [`TransitionFactors`], both orders). At the fixed
//! point the paper's recurrences (Eq. 4.1/4.2 with the diagonal pinned to 1)
//! read, *including* the diagonal:
//!
//! ```text
//! S_Q = C1·A·S_A·Aᵀ + diag(d_Q)      S_A = C2·B·S_Q·Bᵀ + diag(d_A)
//! ```
//!
//! where `d_Q`/`d_A` are exactly the corrections that lift each diagonal
//! entry back to 1. Substituting one into the other gives a discrete
//! Lyapunov equation in `S_Q` alone:
//!
//! ```text
//! S_Q = c·T·S_Q·Tᵀ + E       c = C1·C2,  T = A·B,
//!                            E = C1·A·diag(d_A)·Aᵀ + diag(d_Q)
//! ```
//!
//! whose solution is the geometric series `S_Q = Σ_j c^j T^j E (Tᵀ)^j`.
//! One *row* of that series needs only sparse vector products:
//!
//! * forward: `u_j = (Tᵀ)^j e_q` for `j = 0..J` (two CSR scatters per
//!   level, caching `y_j = Aᵀu_j`);
//! * backward (Horner): `v ← A(c·B·v + C1·d_A⊙y_j) + d_Q⊙u_j` for
//!   `j = J..0`, starting from `v = 0`.
//!
//! The result `v` is `S_Q[q, ·]` up to the `c^{J+1}/(1−c)` series tail and
//! whatever the pruning threshold discards. The four scatters consume all
//! four factor layouts of [`TransitionFactors`]:
//! `Aᵀ` = `ad_to_query_by_query`, `Bᵀ` = `query_to_ad_by_ad`,
//! `B` = `query_to_ad`, `A` = `ad_to_query`.
//!
//! # The diagonal correction
//!
//! `d_Q`/`d_A` do not depend on the queried row, so they are precomputed
//! once per graph (the "index build" of this mode) and reused by every
//! query. There is one way to get them: read them off all-pairs score
//! matrices with [`DiagonalCorrection::from_scores`]
//! (`d_Q[q] = 1 − C1·(A·S_A·Aᵀ)[q,q]`, and the mirror on the ad side).
//!
//! [`SingleSourceEngine::new`] does that **block-locally**: §9.2's click
//! graph is "one huge connected component and several smaller subgraphs",
//! the score matrix is block-diagonal over them
//! (`simrankpp_graph::sharding`), so the one engine ([`crate::engine::run`],
//! at the caller's own [`SimrankConfig`]) runs once per component on its
//! induced subgraph, `from_scores` reads the block's `d`, the values scatter
//! through the shard's monotone id map and the block's matrices are dropped
//! before the next block runs. Peak memory is the largest block's run, the
//! steady state `O(n)`, and the result is bit-identical to `from_scores`
//! over one whole-graph run. After a graph delta
//! [`SingleSourceEngine::refreshed`] re-runs only the dirty components and
//! copies every clean node's entry — the first build is that same refresh
//! with every component dirty.
//!
//! The run is the configured `k`-iteration one, not a converged one, so the
//! correction is `D^(k)`, not the fixed point's `D`. The iterates are
//! monotone (§4: `S^(k) ≤ S^(k+1) ≤ S`), hence `D^(k) ≥ D` entrywise, and
//! the series is linear in `d` with non-negative coefficients: a live row
//! errs **high**, where the `S^(k)` row the same config puts in the offline
//! index errs low. `tests/single_source_equivalence.rs` pins both over 36
//! synthetic graph × transition cases pruned at `1e-4`: for `k ∈ {5, 7}`,
//! `max |live − S^(60)| ≤ max |S^(k) − S^(60)|` against the 60-iteration
//! unpruned oracle (in practice 2–4× closer), and at `k = 7` the live row
//! stays inside the `0.02` envelope (worst case there: `1.53e-2`).

use crate::config::SimrankConfig;
use crate::engine::parallel::run_indexed;
use crate::engine::transition::{Transition, TransitionFactors};
use crate::engine::NodeId;
use crate::scores::ScoreMatrix;
use simrankpp_graph::{AdId, ClickGraph, DirtyComponents, QueryId, Shard};
use simrankpp_util::TopK;

/// Truncation target for the series tail when the config's `tolerance` is 0
/// (its "run everything" convention does not bound a series).
const DEFAULT_SERIES_TARGET: f64 = 1e-8;

/// Smallest `J` with `c^(J+1)/(1−c) ≤ target`: the series tail beyond level
/// `J` cannot move any score by more than `target`.
fn levels_for(c: f64, target: f64) -> usize {
    if c <= 0.0 {
        return 0;
    }
    if c >= 1.0 {
        return 64;
    }
    let need = (target * (1.0 - c)).ln() / c.ln() - 1.0;
    (need.ceil().max(1.0) as usize).min(64)
}

/// The precomputed diagonal-correction vectors `d_Q` / `d_A`. The default
/// (both empty) is the correction of the empty graph — what a first build
/// refreshes from.
#[derive(Debug, Clone, Default)]
pub struct DiagonalCorrection {
    /// Query-side correction: `d_Q[q] = 1 − C1·(A·S_A·Aᵀ)[q,q]`.
    pub d_query: Vec<f64>,
    /// Ad-side correction: `d_A[a] = 1 − C2·(B·S_Q·Bᵀ)[a,a]`.
    pub d_ad: Vec<f64>,
}

/// `1 − c·Σ_{i,j} f_i·f_j·S(i,j)` over one node's CSR neighbor row `neigh`
/// with its per-edge `factors`, summed in row order; `score` supplies the
/// other side's `S` with its unit diagonal. With the query's ad row, `C1` and
/// `S_A` this is `d_Q[q]`; the mirror is `d_A[a]`.
fn correction<N: NodeId>(
    (neigh, factors): (&[N], &[f64]),
    c: f64,
    score: impl Fn(u32, u32) -> f64,
) -> f64 {
    let mut acc = 0.0;
    for (&i, &fi) in neigh.iter().zip(factors) {
        for (&j, &fj) in neigh.iter().zip(factors) {
            acc += fi * fj * score(i.raw(), j.raw());
        }
    }
    1.0 - c * acc
}

/// Query `q`'s ad row with `F(q, ·)`.
fn query_row<'a>(
    g: &'a ClickGraph,
    f: &'a TransitionFactors,
    q: QueryId,
) -> (&'a [AdId], &'a [f64]) {
    let (ads, _) = g.ads_of(q);
    let lo = g.query_csr_offset(q);
    (ads, &f.ad_to_query_by_query[lo..lo + ads.len()])
}

/// Ad `a`'s query row with `F(a, ·)`.
fn ad_row<'a>(g: &'a ClickGraph, f: &'a TransitionFactors, a: AdId) -> (&'a [QueryId], &'a [f64]) {
    let (qs, _) = g.queries_of(a);
    let lo = g.ad_csr_offset(a);
    (qs, &f.query_to_ad_by_ad[lo..lo + qs.len()])
}

/// One side of [`DiagonalCorrection::block_local`]: a node keeps its block's
/// entry where a block covers it, takes `closed` when it is dirty but in no
/// block, and its entry of `previous` when it is clean.
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
    /// Reads the correction off all-pairs score matrices. `queries`/`ads`
    /// must come from a run of the same transition on the same graph; the
    /// correction is exact for the fixed point when that run is converged
    /// (the differential-test oracle) and the over-estimate `D^(k)` the
    /// module docs describe when it is the configured `k`-iteration run.
    pub fn from_scores(
        g: &ClickGraph,
        factors: &TransitionFactors,
        c1: f64,
        c2: f64,
        queries: &ScoreMatrix,
        ads: &ScoreMatrix,
    ) -> Self {
        let d_q = |q| correction(query_row(g, factors, q), c1, |i, j| ads.get(i, j));
        let d_a = |a| correction(ad_row(g, factors, a), c2, |i, j| queries.get(i, j));
        DiagonalCorrection {
            d_query: g.queries().map(d_q).collect(),
            d_ad: g.ads().map(d_a).collect(),
        }
    }

    /// The correction for `g` given `previous`, the correction of the graph
    /// `dirty` was computed against: every dirty component that can hold a
    /// same-side pair is re-run on its induced subgraph alone
    /// ([`Shard::from_dirty`], `config.threads` workers over the blocks,
    /// each block serial inside), dirty components too small for that take
    /// [`DiagonalCorrection::from_scores`]' closed form at `S = I`, and every
    /// clean node keeps its entry of `previous` — ids are stable across
    /// deltas, so a node without one must be dirty. `factors` are
    /// `transition`'s over the whole of `g`.
    fn block_local<T: Transition>(
        previous: &DiagonalCorrection,
        g: &ClickGraph,
        factors: &TransitionFactors,
        dirty: &DirtyComponents,
        config: &SimrankConfig,
        transition: &T,
    ) -> Result<Self, String> {
        let labels = &dirty.components;
        if labels.query_label.len() != g.n_queries() || labels.ad_label.len() != g.n_ads() {
            return Err("dirty-component analysis was built for a different graph".into());
        }
        let shards = Shard::from_dirty(g, dirty);
        let local = config.with_threads(1);
        let workers = config.effective_threads().min(shards.len()).max(1);
        // Each worker returns only the block's two vectors: the block's
        // score matrices die inside the closure.
        let blocks = run_indexed(shards.len(), workers, |i| {
            let block = &shards[i].graph;
            let run = crate::engine::run(block, &local, transition);
            let f = transition.factors(block);
            Self::from_scores(block, &f, config.c1, config.c2, &run.queries, &run.ads)
        });
        let mut d_query = vec![None; g.n_queries()];
        let mut d_ad = vec![None; g.n_ads()];
        for (shard, block) in shards.iter().zip(blocks) {
            for (&q, d) in shard.mapping.queries.iter().zip(block.d_query) {
                d_query[q.index()] = Some(d);
            }
            for (&a, d) in shard.mapping.ads.iter().zip(block.d_ad) {
                d_ad[a.index()] = Some(d);
            }
        }
        let identity = |i: u32, j: u32| if i == j { 1.0 } else { 0.0 };
        let (qid, aid) = (|q: usize| QueryId(q as u32), |a: usize| AdId(a as u32));
        Ok(DiagonalCorrection {
            d_query: merge_side(
                d_query,
                |q| dirty.query_dirty(qid(q)),
                |q| correction(query_row(g, factors, qid(q)), config.c1, identity),
                &previous.d_query,
                "query",
            )?,
            d_ad: merge_side(
                d_ad,
                |a| dirty.ad_dirty(aid(a)),
                |a| correction(ad_row(g, factors, aid(a)), config.c2, identity),
                &previous.d_ad,
                "ad",
            )?,
        })
    }
}

/// Dense-scratch sparse accumulator over one node side: `O(1)` adds, drained
/// in ascending-id order (deterministic summation and output order).
#[derive(Debug)]
struct Accum {
    val: Vec<f64>,
    touched: Vec<u32>,
}

impl Accum {
    fn new(n: usize) -> Self {
        Accum {
            val: vec![0.0; n],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn add(&mut self, i: u32, v: f64) {
        if self.val[i as usize] == 0.0 {
            self.touched.push(i);
        }
        self.val[i as usize] += v;
    }

    /// Zeroes every touched entry without emitting: the recovery path for an
    /// accumulator an abandoned (panicked) computation left dirty.
    fn reset(&mut self) {
        for &i in &self.touched {
            self.val[i as usize] = 0.0;
        }
        self.touched.clear();
    }

    /// Moves the accumulated entries (ascending id, pruned at `prune`) into
    /// `out`, resetting the accumulator for reuse.
    fn drain_into(&mut self, prune: f64, out: &mut Vec<(u32, f64)>) {
        out.clear();
        self.touched.sort_unstable();
        for &i in &self.touched {
            let v = self.val[i as usize];
            self.val[i as usize] = 0.0;
            if v.abs() > prune {
                out.push((i, v));
            }
        }
        self.touched.clear();
    }
}

/// Reusable per-query scratch: dense accumulators for both sides plus the
/// stored forward levels (`u_j` query-space, `y_j = Aᵀu_j` ad-space).
#[derive(Debug)]
pub struct RowWorkspace {
    acc_q: Accum,
    acc_a: Accum,
    levels_u: Vec<Vec<(u32, f64)>>,
    levels_y: Vec<Vec<(u32, f64)>>,
    v: Vec<(u32, f64)>,
    m: Vec<(u32, f64)>,
}

impl RowWorkspace {
    /// Scratch sized for a graph with the given side cardinalities.
    pub fn new(n_queries: usize, n_ads: usize) -> Self {
        RowWorkspace {
            acc_q: Accum::new(n_queries),
            acc_a: Accum::new(n_ads),
            levels_u: Vec::new(),
            levels_y: Vec::new(),
            v: Vec::new(),
            m: Vec::new(),
        }
    }

    /// Re-sizes the scratch for a graph with the given side cardinalities
    /// (an update may add queries, ads, or both), keeping its allocations.
    pub fn resize(&mut self, n_queries: usize, n_ads: usize) {
        self.acc_q.reset();
        self.acc_a.reset();
        self.acc_q.val.resize(n_queries, 0.0);
        self.acc_a.val.resize(n_ads, 0.0);
    }

    /// Computes and stores `u_j = (Tᵀ)^j u_0` and `y_j = Aᵀu_j` for
    /// `j = 0..=levels`, pruning each level at `prune`.
    ///
    /// Kept out of line: with `row_into` its only caller the compiler inlines
    /// it there, and the fused body runs the row ≈ 6 % slower (153.5 vs
    /// 144.2 ms per 100 top-10 queries on the 10k `bench_ci` graph).
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
            self.acc_a.drain_into(prune, &mut self.levels_y[j]);
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
            self.acc_q.drain_into(prune, &mut self.levels_u[j + 1]);
        }
    }
}

/// The on-demand engine: precomputed factors + diagonal correction, ready to
/// answer per-query rows and top-k requests.
///
/// Holds no reference to the graph; pass the *same* graph to every method
/// (checked only by side cardinality).
#[derive(Debug)]
pub struct SingleSourceEngine {
    factors: TransitionFactors,
    correction: DiagonalCorrection,
    c1: f64,
    c: f64,
    levels: usize,
    prune: f64,
}

impl SingleSourceEngine {
    /// Builds the engine for `g`: the block-local diagonal correction of the
    /// module docs, one engine run per connected component at `config` (the
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
        let factors = transition.factors(g);
        let correction =
            DiagonalCorrection::block_local(previous, g, &factors, dirty, config, transition)?;
        Ok(Self::with_correction(config, factors, correction))
    }

    /// Builds the engine from an already-computed correction (e.g.
    /// [`DiagonalCorrection::from_scores`] over a converged run, the
    /// differential suites' oracle).
    pub fn with_correction(
        config: &SimrankConfig,
        factors: TransitionFactors,
        correction: DiagonalCorrection,
    ) -> Self {
        config.validate().expect("invalid SimRank configuration");
        let c = config.c1 * config.c2;
        let target = if config.tolerance > 0.0 {
            config.tolerance
        } else {
            DEFAULT_SERIES_TARGET
        };
        SingleSourceEngine {
            factors,
            correction,
            c1: config.c1,
            c,
            levels: levels_for(c, target),
            prune: config.prune_threshold,
        }
    }

    /// The diagonal correction in use.
    pub fn correction(&self) -> &DiagonalCorrection {
        &self.correction
    }

    /// Series truncation depth `J` (levels `0..=J` are accumulated).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Computes `S_Q[q, ·]` into `out` as ascending-id `(query, score)`
    /// pairs (the self entry included, ≈ 1), reusing `ws` across calls.
    pub fn row_into(
        &self,
        g: &ClickGraph,
        q: QueryId,
        ws: &mut RowWorkspace,
        out: &mut Vec<(QueryId, f64)>,
    ) {
        assert_eq!(
            (ws.acc_q.val.len(), ws.acc_a.val.len()),
            (g.n_queries(), g.n_ads()),
            "workspace sized for another graph"
        );
        // The accumulators are normally left clean by drain_into, but a call
        // that panicked mid-sweep (the serving layer reuses one workspace
        // across requests and recovers its lock from poisoning) leaves them
        // dirty; resetting at entry makes every call self-contained.
        ws.acc_q.reset();
        ws.acc_a.reset();
        ws.forward(g, &self.factors, &[(q.0, 1.0)], self.levels, self.prune);
        // Backward Horner: v ← A(c·B·v + C1·d_A⊙y_j) + d_Q⊙u_j, j = J..0.
        ws.v.clear();
        for j in (0..=self.levels).rev() {
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
                ws.acc_a
                    .add(ai, self.c1 * self.correction.d_ad[ai as usize] * x);
            }
            ws.acc_a.drain_into(self.prune, &mut ws.m);
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
                ws.acc_q.add(qi, self.correction.d_query[qi as usize] * x);
            }
            ws.acc_q.drain_into(self.prune, &mut ws.v);
        }
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
    /// ties by ascending id — [`ScoreMatrix::top_k`]'s order), written into
    /// `out`.
    pub fn top_k_into(
        &self,
        g: &ClickGraph,
        q: QueryId,
        k: usize,
        ws: &mut RowWorkspace,
        out: &mut Vec<(QueryId, f64)>,
    ) {
        let mut row = Vec::new();
        self.row_into(g, q, ws, &mut row);
        let mut top = TopK::new(k);
        for (other, score) in row {
            if other != q && score > 0.0 {
                top.push(other.0, score);
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
    use crate::engine::{self, UniformTransition};
    use simrankpp_graph::fixtures::{figure3_graph, figure4_k22};

    /// Converged-run settings: the linearized series approximates the fixed
    /// point, so the oracle must actually be at the fixed point.
    fn converged() -> SimrankConfig {
        SimrankConfig::default().with_iterations(60)
    }

    fn exact_engine(
        g: &ClickGraph,
        config: &SimrankConfig,
    ) -> (engine::EngineRun, SingleSourceEngine) {
        let run = engine::run(g, config, &UniformTransition);
        let factors = UniformTransition.factors(g);
        let d = DiagonalCorrection::from_scores(
            g,
            &factors,
            config.c1,
            config.c2,
            &run.queries,
            &run.ads,
        );
        let ss = SingleSourceEngine::with_correction(config, factors, d);
        (run, ss)
    }

    #[test]
    fn exact_correction_reproduces_engine_rows() {
        for g in [figure3_graph(), figure4_k22()] {
            let config = converged();
            let (run, ss) = exact_engine(&g, &config);
            for q in g.queries() {
                let row = ss.row(&g, q);
                for other in g.queries() {
                    let got = row
                        .iter()
                        .find(|&&(w, _)| w == other)
                        .map(|&(_, s)| s)
                        .unwrap_or(0.0);
                    let want = run.queries.get(q.0, other.0);
                    assert!(
                        (got - want).abs() < 1e-6,
                        "row({:?})[{:?}] = {got}, engine {want}",
                        q,
                        other
                    );
                }
            }
        }
    }

    #[test]
    fn new_reads_the_whole_graph_correction_block_by_block() {
        // Figure 3's two components are both blocks (flower's one query
        // still has an ad pair); the third graph adds what no block covers —
        // a 1×1 edge component and an isolated node per side, which take
        // the S = I closed form.
        let mut b = simrankpp_graph::ClickGraphBuilder::new();
        for (q, a, e) in figure3_graph().edges() {
            b.add_edge(q, a, *e);
        }
        b.add_edge(
            QueryId(5),
            AdId(4),
            simrankpp_graph::EdgeData::from_clicks(3),
        );
        b.reserve_queries(7);
        b.reserve_ads(6);
        for g in [figure3_graph(), figure4_k22(), b.build()] {
            let config = converged();
            let (_, exact) = exact_engine(&g, &config);
            let ss = SingleSourceEngine::new(&g, &config, &UniformTransition);
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&ss.correction().d_query),
                bits(&exact.correction().d_query)
            );
            assert_eq!(bits(&ss.correction().d_ad), bits(&exact.correction().d_ad));
        }
    }

    #[test]
    fn refreshed_copies_clean_entries_and_refuses_a_stale_analysis() {
        use simrankpp_graph::{EdgeData, GraphDelta};
        let g = figure3_graph();
        let config = converged();
        let old = SingleSourceEngine::new(&g, &config, &UniformTransition);
        let mut d = GraphDelta::new();
        d.upsert(
            g.query_by_name("camera").unwrap(),
            g.ad_by_name("hp.com").unwrap(),
            EdgeData::from_clicks(7),
        );
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);
        // A poisoned clean entry must come through verbatim: it was copied,
        // not recomputed.
        let flower = g.query_by_name("flower").unwrap();
        let mut previous = old.correction().clone();
        previous.d_query[flower.index()] = 0.123;
        let next =
            SingleSourceEngine::refreshed(&previous, &g2, &dirty, &config, &UniformTransition)
                .unwrap();
        assert_eq!(next.correction().d_query[flower.index()], 0.123);
        let scratch = SingleSourceEngine::new(&g2, &config, &UniformTransition);
        for q in g2.queries().filter(|&q| q != flower) {
            assert_eq!(
                next.correction().d_query[q.index()].to_bits(),
                scratch.correction().d_query[q.index()].to_bits()
            );
        }

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

    #[test]
    fn engine_rows_track_all_pairs() {
        let g = figure3_graph();
        let config = converged();
        let run = engine::run(&g, &config, &UniformTransition);
        let ss = SingleSourceEngine::new(&g, &config, &UniformTransition);
        for q in g.queries() {
            for (other, got) in ss.row(&g, q) {
                let want = run.queries.get(q.0, other.0);
                assert!(
                    (got - want).abs() < 0.02,
                    "row({:?})[{:?}] = {got}, engine {want}",
                    q,
                    other
                );
            }
        }
    }

    #[test]
    fn self_score_is_one() {
        let g = figure3_graph();
        let config = converged();
        let (_, ss) = exact_engine(&g, &config);
        for q in g.queries() {
            let row = ss.row(&g, q);
            let own = row.iter().find(|&&(w, _)| w == q).map(|&(_, s)| s);
            assert!(
                (own.unwrap_or(0.0) - 1.0).abs() < 1e-6,
                "self score of {:?}: {:?}",
                q,
                own
            );
        }
    }

    #[test]
    fn top_k_matches_matrix_top_k() {
        let g = figure3_graph();
        let config = converged();
        let (run, ss) = exact_engine(&g, &config);
        for q in g.queries() {
            let got = ss.top_k(&g, q, 3);
            let want: Vec<(QueryId, f64)> = run
                .queries
                .top_k(q.0, 3)
                .into_iter()
                .map(|(i, s)| (QueryId(i), s))
                .collect();
            assert_eq!(
                got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                want.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                "top-k ids for {:?}",
                q
            );
            for (a, b) in got.iter().zip(&want) {
                assert!((a.1 - b.1).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn disconnected_query_row_is_its_own_unit() {
        // "flower" shares no component with "camera"/"pc"/"tv" in Figure 3.
        let g = figure3_graph();
        let config = converged();
        let (_, ss) = exact_engine(&g, &config);
        let flower = g.query_by_name("flower").unwrap();
        let pc = g.query_by_name("pc").unwrap();
        let row = ss.row(&g, flower);
        assert!(row.iter().all(|&(w, _)| w != pc));
        assert!(ss.top_k(&g, pc, 10).iter().all(|&(w, _)| w != flower));
    }

    #[test]
    fn levels_for_bounds_the_tail() {
        let j = levels_for(0.64, 1e-8);
        assert!(0.64f64.powi(j as i32 + 1) / 0.36 <= 1e-8);
        assert!(0.64f64.powi(j as i32) / 0.36 > 1e-8);
        assert_eq!(levels_for(0.0, 1e-8), 0);
    }

    #[test]
    fn dirty_workspace_is_reset_at_entry() {
        // A computation that panicked mid-sweep leaves garbage in the dense
        // accumulators (drain_into never ran). The next row_into on the same
        // workspace must not inherit it.
        let g = figure3_graph();
        let config = converged();
        let (_, ss) = exact_engine(&g, &config);
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
        let (_, ss) = exact_engine(&g, &converged());
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
