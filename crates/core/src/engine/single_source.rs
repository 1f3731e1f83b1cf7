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
//! query. Two constructors:
//!
//! * [`DiagonalCorrection::from_scores`] — exact, read off a *converged*
//!   all-pairs run; the differential-test oracle.
//! * [`DiagonalCorrection::estimate`] — no all-pairs run: the diagonal
//!   constraints `diag(S_Q) = 1`, `diag(S_A) = 1` form a linear system in
//!   `(d_Q, d_A)` whose coefficients are squared walk masses. Each node's
//!   sparse coefficient row is computed once (pruned truncated walks,
//!   parallelized with [`run_chunked`]), then cheap Gauss–Seidel sweeps
//!   solve for `d` — the sweep matrix is a contraction with factor ≈ `c`.

use crate::config::SimrankConfig;
use crate::engine::parallel::run_chunked;
use crate::engine::transition::{Transition, TransitionFactors};
use crate::scores::ScoreMatrix;
use simrankpp_graph::{AdId, ClickGraph, QueryId};
use simrankpp_util::TopK;

/// Truncation target for the series tail when the config's `tolerance` is 0
/// (its "run everything" convention does not bound a series).
const DEFAULT_SERIES_TARGET: f64 = 1e-8;
/// The diagonal estimator's own accuracy target: serving needs ~1e-3 scores,
/// so the estimator walks fewer levels than the row computation.
const ESTIMATE_TARGET: f64 = 1e-4;
/// Walk entries below this are dropped while accumulating estimator
/// coefficients (their *squared* contribution is ≤ 1e-8 each).
const ESTIMATE_WALK_PRUNE: f64 = 1e-4;
/// Coefficient-row entries below this are not stored.
const ESTIMATE_COEFF_EPS: f64 = 1e-9;
/// Gauss–Seidel sweep budget / convergence cutoff for the `d` solve.
const MAX_SWEEPS: usize = 128;
const SWEEP_TOL: f64 = 1e-12;

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

/// The precomputed diagonal-correction vectors `d_Q` / `d_A`.
#[derive(Debug, Clone)]
pub struct DiagonalCorrection {
    /// Query-side correction: `d_Q[q] = 1 − C1·(A·S_A·Aᵀ)[q,q]`.
    pub d_query: Vec<f64>,
    /// Ad-side correction: `d_A[a] = 1 − C2·(B·S_Q·Bᵀ)[a,a]`.
    pub d_ad: Vec<f64>,
}

impl DiagonalCorrection {
    /// Reads the exact correction off converged all-pairs score matrices —
    /// the oracle constructor for differential tests. `queries`/`ads` must
    /// come from a run of the same transition on the same graph, iterated
    /// to (near-)convergence for the correction to be exact.
    pub fn from_scores(
        g: &ClickGraph,
        factors: &TransitionFactors,
        c1: f64,
        c2: f64,
        queries: &ScoreMatrix,
        ads: &ScoreMatrix,
    ) -> Self {
        let mut d_query = vec![1.0; g.n_queries()];
        for q in g.queries() {
            let (neigh, _) = g.ads_of(q);
            let lo = g.query_csr_offset(q);
            let mut acc = 0.0;
            for (x, &i) in neigh.iter().enumerate() {
                let fi = factors.ad_to_query_by_query[lo + x];
                for (y, &j) in neigh.iter().enumerate() {
                    let fj = factors.ad_to_query_by_query[lo + y];
                    acc += fi * fj * ads.get(i.0, j.0);
                }
            }
            d_query[q.index()] = 1.0 - c1 * acc;
        }
        let mut d_ad = vec![1.0; g.n_ads()];
        for a in g.ads() {
            let (neigh, _) = g.queries_of(a);
            let lo = g.ad_csr_offset(a);
            let mut acc = 0.0;
            for (x, &i) in neigh.iter().enumerate() {
                let fi = factors.query_to_ad_by_ad[lo + x];
                for (y, &j) in neigh.iter().enumerate() {
                    let fj = factors.query_to_ad_by_ad[lo + y];
                    acc += fi * fj * queries.get(i.0, j.0);
                }
            }
            d_ad[a.index()] = 1.0 - c2 * acc;
        }
        DiagonalCorrection { d_query, d_ad }
    }

    /// Estimates the correction without any all-pairs run.
    ///
    /// Expanding `S_Q[v,v] = 1` through the series turns each diagonal
    /// constraint into a linear equation over `(d_Q, d_A)` with squared
    /// truncated-walk masses as coefficients:
    ///
    /// ```text
    /// 1        = Σ_j c^j ( Σ_w u_j[w]²·d_Q[w] + C1·Σ_a y_j[a]²·d_A[a] )
    /// d_A[a]   = 1 − C2·Σ_j c^j ( Σ_w z_j[w]²·d_Q[w] + C1·Σ_b (Aᵀz_j)[b]²·d_A[b] )
    /// ```
    ///
    /// with `u_j = (Tᵀ)^j e_v` (resp. `z_j = (Tᵀ)^j Bᵀe_a`). The sparse
    /// coefficient rows are built once per node — the expensive part, run
    /// chunk-parallel across `threads` — then Gauss–Seidel sweeps solve the
    /// system: every row's diagonal coefficient dominates (the `j = 0` term
    /// contributes a full 1), so the sweeps contract with factor ≈ `c`.
    pub fn estimate(g: &ClickGraph, factors: &TransitionFactors, config: &SimrankConfig) -> Self {
        let c1 = config.c1;
        let c2 = config.c2;
        let c = c1 * c2;
        let levels = levels_for(c, ESTIMATE_TARGET);
        let prune = config.prune_threshold.max(ESTIMATE_WALK_PRUNE);
        let threads = config.effective_threads();

        // One coefficient row per query: (over d_Q, over d_A).
        type Row = (Vec<(u32, f64)>, Vec<(u32, f64)>);
        let q_rows: Vec<Row> = run_chunked(g.n_queries(), threads, |range| {
            let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
            let mut out = Vec::with_capacity(range.len());
            for v in range {
                ws.forward(g, factors, &[(v as u32, 1.0)], levels, prune);
                out.push(coefficient_row(&ws, c, c1, 1.0));
            }
            out
        })
        .into_iter()
        .flatten()
        .collect();
        let a_rows: Vec<Row> = run_chunked(g.n_ads(), threads, |range| {
            let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
            let mut z0: Vec<(u32, f64)> = Vec::new();
            let mut out = Vec::with_capacity(range.len());
            for a in range {
                // z_0 = Bᵀ e_a: ad a's row of F(a, ·), a query-space vector.
                z0.clear();
                let (qs, _) = g.queries_of(AdId(a as u32));
                let lo = g.ad_csr_offset(AdId(a as u32));
                for (x, &q) in qs.iter().enumerate() {
                    z0.push((q.0, factors.query_to_ad_by_ad[lo + x]));
                }
                ws.forward(g, factors, &z0, levels, prune);
                out.push(coefficient_row(&ws, c, c1, c2));
            }
            out
        })
        .into_iter()
        .flatten()
        .collect();

        // Gauss–Seidel on: q_rows[v]·d = 1   and   d_A[a] + a_rows[a]·d = 1.
        let mut d_query = vec![1.0; g.n_queries()];
        let mut d_ad = vec![1.0; g.n_ads()];
        for _ in 0..MAX_SWEEPS {
            let mut max_delta = 0.0f64;
            for (v, (pq, pa)) in q_rows.iter().enumerate() {
                let mut diag = 0.0;
                let mut rest = 0.0;
                for &(w, coef) in pq {
                    if w as usize == v {
                        diag += coef;
                    } else {
                        rest += coef * d_query[w as usize];
                    }
                }
                for &(a, coef) in pa {
                    rest += coef * d_ad[a as usize];
                }
                // The j = 0 term guarantees diag ≥ 1.
                let next = (1.0 - rest) / diag;
                max_delta = max_delta.max((next - d_query[v]).abs());
                d_query[v] = next;
            }
            for (a, (rq, sa)) in a_rows.iter().enumerate() {
                let mut diag = 1.0;
                let mut rest = 0.0;
                for &(w, coef) in rq {
                    rest += coef * d_query[w as usize];
                }
                for &(b, coef) in sa {
                    if b as usize == a {
                        diag += coef;
                    } else {
                        rest += coef * d_ad[b as usize];
                    }
                }
                let next = (1.0 - rest) / diag;
                max_delta = max_delta.max((next - d_ad[a]).abs());
                d_ad[a] = next;
            }
            if max_delta <= SWEEP_TOL {
                break;
            }
        }
        DiagonalCorrection { d_query, d_ad }
    }
}

/// A sparse coefficient row pair: weights over `d_Q` and over `d_A`.
type CoeffRow = (Vec<(u32, f64)>, Vec<(u32, f64)>);

/// Folds the workspace's stored walk levels into one sparse coefficient row
/// pair: `scale·Σ_j c^j u_j[w]²` over queries and `scale·C1·Σ_j c^j y_j[a]²`
/// over ads.
fn coefficient_row(ws: &RowWorkspace, c: f64, c1: f64, scale: f64) -> CoeffRow {
    let mut over_q: Vec<(u32, f64)> = Vec::new();
    let mut over_a: Vec<(u32, f64)> = Vec::new();
    let mut weight = scale;
    for (u, y) in ws.levels_u.iter().zip(&ws.levels_y) {
        for &(w, x) in u {
            over_q.push((w, weight * x * x));
        }
        for &(a, x) in y {
            over_a.push((a, weight * c1 * x * x));
        }
        weight *= c;
    }
    merge_coeffs(&mut over_q);
    merge_coeffs(&mut over_a);
    (over_q, over_a)
}

/// Sorts, sums duplicates, and drops negligible coefficient entries.
fn merge_coeffs(row: &mut Vec<(u32, f64)>) {
    row.sort_unstable_by_key(|&(i, _)| i);
    let mut out = 0usize;
    let mut i = 0usize;
    while i < row.len() {
        let (id, mut sum) = row[i];
        i += 1;
        while i < row.len() && row[i].0 == id {
            sum += row[i].1;
            i += 1;
        }
        if sum > ESTIMATE_COEFF_EPS {
            row[out] = (id, sum);
            out += 1;
        }
    }
    row.truncate(out);
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

    /// Computes and stores `u_j = (Tᵀ)^j u_0` and `y_j = Aᵀu_j` for
    /// `j = 0..=levels`, pruning each level at `prune`.
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
    /// Builds the engine for `g`, estimating the diagonal correction (the
    /// one-off precompute of this mode — everything per-query afterwards).
    pub fn new<T: Transition>(g: &ClickGraph, config: &SimrankConfig, transition: &T) -> Self {
        let factors = transition.factors(g);
        let correction = DiagonalCorrection::estimate(g, &factors, config);
        Self::with_correction(config, factors, correction)
    }

    /// Builds the engine from an already-computed correction (e.g. the exact
    /// [`DiagonalCorrection::from_scores`] oracle).
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
            ws.acc_q.val.len(),
            g.n_queries(),
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
    fn estimated_correction_close_to_exact() {
        for g in [figure3_graph(), figure4_k22()] {
            let config = converged();
            let run = engine::run(&g, &config, &UniformTransition);
            let factors = UniformTransition.factors(&g);
            let exact = DiagonalCorrection::from_scores(
                &g,
                &factors,
                config.c1,
                config.c2,
                &run.queries,
                &run.ads,
            );
            let est = DiagonalCorrection::estimate(&g, &factors, &config);
            for (e, s) in exact.d_query.iter().zip(&est.d_query) {
                assert!((e - s).abs() < 5e-3, "d_query exact {e} vs estimated {s}");
            }
            for (e, s) in exact.d_ad.iter().zip(&est.d_ad) {
                assert!((e - s).abs() < 5e-3, "d_ad exact {e} vs estimated {s}");
            }
        }
    }

    #[test]
    fn estimated_engine_tracks_all_pairs() {
        let g = figure3_graph();
        let config = converged();
        let run = engine::run(&g, &config, &UniformTransition);
        let ss = SingleSourceEngine::new(&g, &config, &UniformTransition);
        for q in g.queries() {
            for (other, got) in ss.row(&g, q) {
                let want = run.queries.get(q.0, other.0);
                assert!(
                    (got - want).abs() < 0.02,
                    "estimated row({:?})[{:?}] = {got}, engine {want}",
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
}
