//! The unified sparse propagation engine.
//!
//! The paper's recursive similarity methods — plain SimRank (§4, Eq. 4.1/4.2)
//! and weighted SimRank (§8.2) — are the *same* pair-propagation recurrence
//! with different per-edge transition factors:
//!
//! ```text
//! s_{k+1}(q,q') = C1 · Σ_{i∈E(q)} Σ_{j∈E(q')} F(q,i) · F(q',j) · s_k(i,j)
//! ```
//!
//! with `F(q,i) = 1/N(q)` for the uniform walk (§4) and
//! `F(q,i) = spread(i)·normalized_weight(q,i)` for the weighted walk (§8.2),
//! and the mirror equation on the ad side. This module factors that loop out
//! once:
//!
//! * [`Walk`] is the per-edge walk factor as a value (`Walk::Uniform`, or
//!   `Walk::Weighted` with a [`WeightedTransition`]); [`Walk::factors`]
//!   computes its [`TransitionFactors`] once per run.
//! * Every half-step is one call of the one propagation kernel, [`pull`]: two
//!   row-parallel Gustavson SpGEMM passes over CSR score rows
//!   (`S' = c·F·S·Fᵀ` with unit diagonal) — no contribution buffers, no
//!   sorting, no cross-worker merging, and bit-deterministic for any thread
//!   count.
//! * [`parallel::run_chunked`] supplies chunked scoped-thread parallelism for
//!   every variant, and [`parallel::run_chunked_stateful`] threads a reusable
//!   per-worker workspace pool through it, so scratch survives across
//!   half-steps.
//! * Diagnostics — stored pairs after every half-step, and with a tolerance
//!   the max score delta at every check — are recorded for every variant,
//!   and [`crate::SimrankConfig::tolerance`] enables early exit once the
//!   iteration becomes stationary.
//!
//! * The run is monolithic: one pass over the whole graph. The score matrix
//!   is block-diagonal over connected components (§9.2's "one huge connected
//!   component and several smaller subgraphs"), and the layer that exploits
//!   it is the index build (`simrankpp_serve`'s incremental refresh and
//!   segmented build run the engine once per component block) — the engine
//!   itself never decomposes.
//!
//! * [`single_source::SingleSourceEngine`] serves without keeping the
//!   all-pairs matrix: one query's row of `S^(k)` on demand, as the
//!   `⌊k/2⌋+1`-level series the `k` iterations unroll into (per-query sparse
//!   forward/backward passes over the per-iteration diagonals one query-chain
//!   run per component block records) — the same row [`run`] stores, which
//!   the differential suites pin.
//!
//! # One chain of half-steps
//!
//! Iteration `t` of Eq. 4.1/4.2 is two half-steps from `S^(0) = I`: `(Q,t)`
//! computes `S_Q^(t)` from `S_A^(t−1)`, and `(A,t)` is the mirror. So
//! `S_Q^(k)` reads only the chain `(Q,k), (A,k−1), (Q,k−2), …` down to `I`
//! (the substitution [`single_source`] unrolls), and `S_A^(k)` only the
//! mirror chain. The engine's one loop runs one such chain: `k` half-steps
//! ending on the side asked for, the half-step at `t` on that *end* side when
//! `k − t` is even and on the other side when it is odd, each iterate dropped
//! once the next one is built.
//!
//! * [`crate::Method::compute`] (the offline build, per-block index rows,
//!   ingest and the `serve` binary) and
//!   [`single_source::DiagonalCorrection::whole_graph`] (the live engine's
//!   per-block recording run, which keeps only the diagonals) run the query
//!   chain.
//! * [`run`] (the paper tables, the ablations and the differential suites,
//!   which read both sides or the diagnostics) runs the query chain, then
//!   the ad chain to the depth the first one reached. The two cover every
//!   `(side, t)` between them, so `pair_counts` keeps one `(query, ad)`
//!   entry per iteration.
//!
//! **Early exit.** With a tolerance the chain checks at its end-side steps
//! only, comparing `S_end^(t)` with `S_end^(t−2)` (the identity before the
//! first has a predecessor): two iterates of the same chain. A run that
//! stops at `t` has `t ≡ k (mod 2)`, and it *is* the chain of a
//! `t`-iteration run — the same sides from the same inputs, so the same
//! bits.
//!
//! # Reference
//!
//! [`reference::run_hashmap`] is not part of the engine: it is an independent
//! sparse implementation of the same recurrence (scatter into a hash map)
//! that the differential suites call by name beside the dense oracles. No
//! [`crate::SimrankConfig`] value reaches it.

pub mod accum;
pub mod parallel;
pub mod pull;
pub mod reference;
pub mod single_source;
pub mod transition;

pub use single_source::{CorrectionLevel, DiagonalCorrection, RowWorkspace, SingleSourceEngine};
pub use transition::{TransitionFactors, Walk, WeightedTransition};

use crate::config::SimrankConfig;
use crate::scores::ScoreMatrix;
use simrankpp_graph::{AdId, ClickGraph, QueryId};

/// Output of one engine run: frozen score matrices plus the diagnostics
/// shared by every variant.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Query-side similarity scores.
    pub queries: ScoreMatrix,
    /// Ad-side similarity scores.
    pub ads: ScoreMatrix,
    /// Stored (query-pairs, ad-pairs) after each executed iteration.
    pub pair_counts: Vec<(usize, usize)>,
    /// With a tolerance, the largest absolute per-pair change between
    /// query-side iterates two half-steps apart, one entry per query-side
    /// step of the query chain; empty at `tolerance == 0`.
    pub max_deltas: Vec<f64>,
    /// Iterations actually executed (< `config.iterations` on early exit).
    pub iterations_run: usize,
    /// Whether the run stopped because the max delta fell below
    /// `config.tolerance`.
    pub converged: bool,
}

/// Minimal id abstraction so one kernel walks both CSR directions.
pub(crate) trait NodeId: Copy + Sync {
    /// The raw dense id.
    fn raw(self) -> u32;
}

impl NodeId for QueryId {
    #[inline]
    fn raw(self) -> u32 {
        self.0
    }
}

impl NodeId for AdId {
    #[inline]
    fn raw(self) -> u32 {
        self.0
    }
}

/// One side of the bipartite graph: the side a half-step computes, and the
/// side a chain ends on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Side {
    Query,
    Ad,
}

impl Side {
    fn other(self) -> Side {
        match self {
            Side::Query => Side::Ad,
            Side::Ad => Side::Query,
        }
    }

    fn n_nodes(self, g: &ClickGraph) -> usize {
        match self {
            Side::Query => g.n_queries(),
            Side::Ad => g.n_ads(),
        }
    }
}

/// What the unit pin replaced on the diagonal at every executed half-step:
/// entry `t − 1` is `D^(t)` of the side the chain computed at `t` — the end
/// side where `k − t` is even, the other side where it is odd. For the query
/// chain that is `D_Q^(t)` of `S_Q^(t) = C1·A·S_A^(t−1)·Aᵀ + diag(D_Q^(t))`,
/// or the ad-side mirror.
pub(crate) type DiagonalHistory = Vec<Vec<f64>>;

/// What one chain ends on.
pub(crate) struct Chain {
    /// `S_end^(t)` at the last executed half-step `t`.
    pub(crate) scores: ScoreMatrix,
    /// Stored pairs after each executed half-step; its length is the
    /// iterations run.
    counts: Vec<usize>,
    /// One entry per end-side check, and only with a tolerance.
    max_deltas: Vec<f64>,
    converged: bool,
}

/// Runs `walk` on `g` and returns both sides' scores: the query chain,
/// then the ad chain to the depth the query chain reached (so a tolerance
/// decides the depth on the query side alone).
///
/// Exact (bar floating-point rounding) when `config.prune_threshold == 0`;
/// with a threshold, pairs whose scaled score falls at or below it are
/// dropped after each half-step.
pub fn run(g: &ClickGraph, config: &SimrankConfig, walk: &Walk) -> EngineRun {
    let factors = walk.factors(g);
    let q = iterate(g, config, &factors, Side::Query, None);
    let k = q.counts.len();
    let exact = config.with_iterations(k).with_tolerance(0.0);
    let a = iterate(g, &exact, &factors, Side::Ad, None);
    // The query chain is on the query side at `t` iff `k − t` is even, and
    // the ad chain then on the ad side.
    let pair_counts = (1..=k)
        .map(|t| {
            let (on, off) = (q.counts[t - 1], a.counts[t - 1]);
            if (k - t) % 2 == 0 {
                (on, off)
            } else {
                (off, on)
            }
        })
        .collect();
    EngineRun {
        queries: q.scores,
        ads: a.scores,
        pair_counts,
        max_deltas: q.max_deltas,
        iterations_run: k,
        converged: q.converged,
    }
}

/// The one loop: the chain of `config.iterations` half-steps ending on `end`
/// over a walk's transition `factors` on `g`, appending each executed
/// half-step's pinned-away diagonal to `diagonals` when it is set.
///
/// Every iterate is a frozen [`ScoreMatrix`], each score held once per
/// endpoint row, and a half-step holds only what it reads and writes: the
/// previous iterate (which the pull kernel reads in place) and its own
/// upper-triangle output rows. The previous iterate is dropped before the
/// output freezes in place, so the peak is the larger of that pair and the
/// new matrix, plus the factor tables and `O(nodes)` per-worker scratch —
/// at the last half-step, about the returned matrix itself. With a
/// tolerance the end side's iterate from two half-steps back is kept too.
pub(crate) fn iterate(
    g: &ClickGraph,
    config: &SimrankConfig,
    factors: &TransitionFactors,
    end: Side,
    mut diagonals: Option<&mut DiagonalHistory>,
) -> Chain {
    config.validate().expect("invalid SimRank configuration");

    // One pull workspace per worker, reused by every half-step.
    let mut workspaces: Vec<pull::PullWorkspace> = (0..config.effective_threads().max(1))
        .map(|_| pull::PullWorkspace::default())
        .collect();

    // The four CSR row views the kernel walks: the *output* node's own row
    // in pass 1 (output-major factors), inner rows in pass 2 (inner-major).
    let ad_row_qfac = |a: u32| (g.queries_of(AdId(a)).0, factors.toward_ad(g, AdId(a)));
    let query_row_afac = |q: u32| (g.ads_of(QueryId(q)).0, factors.toward_query(g, QueryId(q)));
    let query_row_qfac = |q: u32| (g.ads_of(QueryId(q)).0, factors.of_query(g, QueryId(q)));
    let ad_row_afac = |a: u32| (g.queries_of(AdId(a)).0, factors.of_ad(g, AdId(a)));

    // One half-step: `side`'s iterate from the other side's `prev`.
    let mut half_step = |side: Side, prev: &ScoreMatrix, diag: Option<&mut Vec<f64>>| match side {
        Side::Query => pull::propagate_pull(
            g.n_queries(),
            query_row_qfac,
            ad_row_qfac,
            prev,
            config.c1,
            config.prune_threshold,
            &mut workspaces,
            diag,
        ),
        Side::Ad => pull::propagate_pull(
            g.n_ads(),
            ad_row_afac,
            query_row_afac,
            prev,
            config.c2,
            config.prune_threshold,
            &mut workspaces,
            diag,
        ),
    };

    let k = config.iterations;
    // The side the chain computes at `t`; at `t = 0` that is the side whose
    // identity the first half-step reads.
    let side_at = |t: usize| if (k - t) % 2 == 0 { end } else { end.other() };
    let mut chain = Chain {
        scores: ScoreMatrix::empty(side_at(0).n_nodes(g)),
        counts: Vec::with_capacity(k),
        max_deltas: Vec::new(),
        converged: false,
    };
    // `S_end^(t−2)` for the early exit; the identity until an other-side
    // step hands one over.
    let mut two_back = ScoreMatrix::empty(end.n_nodes(g));
    for t in 1..=k {
        let on_end = (k - t) % 2 == 0;
        let side = side_at(t);
        let prev = std::mem::take(&mut chain.scores);
        let mut diagonal = Vec::new();
        let rows = half_step(side, &prev, diagonals.is_some().then_some(&mut diagonal));
        if config.tolerance > 0.0 && !on_end {
            // `prev` is `S_end^(t−1)`, the next check's `S_end^(t−2)`.
            two_back = prev;
        } else {
            // Freed before the freeze grows the output to both triangles.
            drop(prev);
        }
        chain.scores = ScoreMatrix::from_upper_rows(side.n_nodes(g), rows);
        chain.counts.push(chain.scores.n_pairs());
        if let Some(history) = diagonals.as_deref_mut() {
            history.push(diagonal);
        }
        if config.tolerance > 0.0 && on_end {
            let delta = chain.scores.max_abs_diff(&two_back);
            chain.max_deltas.push(delta);
            if delta <= config.tolerance {
                chain.converged = true;
                break;
            }
        }
    }
    chain
}

/// [`run`] of the weighted walk under its former name: `config.sharding`
/// used to pick a per-component run here, which was bit-identical to the
/// monolithic one. Kept only because the frozen `benchmark/` sources call
/// it; ROADMAP item 12 deletes it.
pub fn run_with_strategy(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &WeightedTransition,
) -> EngineRun {
    run(g, config, &Walk::Weighted(*transition))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::SpreadMode;
    use simrankpp_graph::fixtures::{figure3_graph, figure4_k22};
    use simrankpp_graph::WeightKind;

    fn cfg(k: usize) -> SimrankConfig {
        SimrankConfig::default().with_iterations(k)
    }

    fn bits(d: &[f64]) -> Vec<u64> {
        d.iter().map(|v| v.to_bits()).collect()
    }

    fn pair_bits(m: &ScoreMatrix) -> Vec<(u64, u64)> {
        m.sorted_pairs()
            .map(|(k, v)| (k.raw(), v.to_bits()))
            .collect()
    }

    #[test]
    fn uniform_engine_reproduces_table3() {
        let g = figure4_k22();
        let expected = [0.4, 0.56, 0.624, 0.6496, 0.65984, 0.663936, 0.6655744];
        for (k, &want) in expected.iter().enumerate() {
            let r = run(&g, &cfg(k + 1), &Walk::Uniform);
            assert!(
                (r.queries.get(0, 1) - want).abs() < 1e-9,
                "iteration {}",
                k + 1
            );
        }
    }

    #[test]
    fn diagnostics_recorded_every_iteration() {
        // Pair counts every iteration; deltas only under a tolerance, one per
        // query-side step of the query chain (t = 1, 3, 5 of k = 5).
        let g = figure3_graph();
        let r = run(&g, &cfg(5), &Walk::Uniform);
        assert_eq!(r.pair_counts.len(), 5);
        assert!(r.max_deltas.is_empty());
        assert_eq!(r.iterations_run, 5);
        assert!(!r.converged);
        let r = run(&g, &cfg(5).with_tolerance(1e-12), &Walk::Uniform);
        assert_eq!(r.max_deltas.len(), 3);
        assert!(!r.converged);
        // The first check compares S_Q^(1) with the identity: the largest.
        assert!(r.max_deltas[0] >= r.max_deltas[2]);
        assert!(r.max_deltas.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn tolerance_stops_early_and_flags_convergence() {
        let g = figure3_graph();
        let full = run(&g, &cfg(100), &Walk::Uniform);
        let tol = run(&g, &cfg(100).with_tolerance(1e-6), &Walk::Uniform);
        assert!(tol.converged);
        assert!(tol.iterations_run < full.iterations_run);
        assert_eq!(tol.iterations_run % 2, 0);
        assert_eq!(tol.pair_counts.len(), tol.iterations_run);
        // Early exit at tolerance t bounds the per-pair error by t·C/(1−C).
        assert!(full.queries.max_abs_diff(&tol.queries) < 1e-5);
    }

    #[test]
    fn recorded_diagonals_are_what_the_pin_replaces() {
        // D_Q^(t)[q] = 1 − C1·Σ_{a,a'} F(q,a)·F(q,a')·S_A^(t−1)(a,a') against
        // the previous iterate's own matrix (and the ad-side mirror), for a
        // chain that also exits early; recording leaves every score bit
        // alone.
        let g = figure3_graph();
        let f = Walk::Uniform.factors(&g);
        let config = cfg(15).with_tolerance(1e-2);
        let mut history = DiagonalHistory::new();
        let recorded = iterate(&g, &config, &f, Side::Query, Some(&mut history));
        let plain = run(&g, &config, &Walk::Uniform);
        let k = plain.iterations_run;
        assert!(recorded.converged && k < 15 && k % 2 == 1);
        assert_eq!(history.len(), k);
        assert_eq!(pair_bits(&recorded.scores), pair_bits(&plain.queries));
        // Σ_{i,j} f_i·f_j·S(i,j) over one node's neighbor ids and factors.
        let dense = |ids: Vec<u32>, f: &[f64], s: &ScoreMatrix| -> f64 {
            let mut sum = 0.0;
            for (x, &i) in ids.iter().enumerate() {
                for (y, &j) in ids.iter().enumerate() {
                    sum += f[x] * f[y] * s.get(i, j);
                }
            }
            sum
        };
        for (t, d) in (1..).zip(&history) {
            let prev = run(&g, &cfg(t - 1), &Walk::Uniform);
            if (k - t) % 2 == 0 {
                for q in g.queries() {
                    let ads: Vec<u32> = g.ads_of(q).0.iter().map(|a| a.0).collect();
                    let want = 1.0 - config.c1 * dense(ads, f.of_query(&g, q), &prev.ads);
                    assert!((d[q.index()] - want).abs() < 1e-12);
                }
            } else {
                for a in g.ads() {
                    let qs: Vec<u32> = g.queries_of(a).0.iter().map(|q| q.0).collect();
                    let want = 1.0 - config.c2 * dense(qs, f.of_ad(&g, a), &prev.queries);
                    assert!((d[a.index()] - want).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn recorded_diagonals_do_not_depend_on_the_worker_count() {
        // Enough rows on both sides for `run_chunked_stateful` to split them:
        // each worker's chunk lands in row order.
        use simrankpp_graph::{ClickGraphBuilder, EdgeData};
        let mut b = ClickGraphBuilder::new();
        let mut x: u64 = 29;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.add_edge(
                QueryId(((x >> 33) % 1500) as u32),
                AdId(((x >> 13) % 1200) as u32),
                EdgeData::from_clicks(1 + (x % 5)),
            );
        }
        let g = b.build();
        let f = Walk::Uniform.factors(&g);
        for end in [Side::Query, Side::Ad] {
            let record = |threads| {
                let mut history = DiagonalHistory::new();
                let config = cfg(3).with_threads(threads);
                iterate(&g, &config, &f, end, Some(&mut history));
                history
            };
            let (serial, parallel) = (record(1), record(3));
            assert_eq!(serial.len(), 3);
            let (n_end, n_other) = (end.n_nodes(&g), end.other().n_nodes(&g));
            assert_eq!((serial[2].len(), serial[1].len()), (n_end, n_other));
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(bits(s), bits(p));
            }
        }
    }

    #[test]
    fn a_chain_is_the_other_sides_shorter_chain_plus_one_half_step() {
        // The chain ending on one side at k runs, at every t < k, the
        // half-step the chain ending on the other side at k − 1 runs: same
        // side, same input, so the same pair counts and the same diagonals.
        let g = figure3_graph();
        let f = Walk::Uniform.factors(&g);
        let mut histories = Vec::new();
        for k in 0..=8 {
            let chains = [Side::Query, Side::Ad].map(|end| {
                let mut history = DiagonalHistory::new();
                let chain = iterate(&g, &cfg(k), &f, end, Some(&mut history));
                assert_eq!((chain.counts.len(), history.len()), (k, k));
                (chain, history)
            });
            if k > 0 {
                let shorter: &[(Chain, DiagonalHistory); 2] = &histories[k - 1];
                for (end, (chain, history)) in chains.iter().enumerate() {
                    let (prefix, prefix_history) = &shorter[1 - end];
                    assert_eq!(chain.counts[..k - 1], prefix.counts, "k = {k}");
                    for (t, (got, want)) in (1..).zip(history.iter().zip(prefix_history)) {
                        assert_eq!(bits(got), bits(want), "k = {k}, t = {t}");
                    }
                }
            }
            histories.push(chains);
        }
        // And `run`'s query scores are the query chain's.
        let chain = iterate(&g, &cfg(7), &f, Side::Query, None);
        let want = run(&g, &cfg(7), &Walk::Uniform).queries;
        assert_eq!(pair_bits(&chain.scores), pair_bits(&want));
    }

    #[test]
    fn weighted_transition_diagnostics_present() {
        let g = figure3_graph();
        let t = Walk::Weighted(WeightedTransition {
            kind: WeightKind::Clicks,
            spread: SpreadMode::Exponential,
        });
        let r = run(&g, &cfg(4), &t);
        assert_eq!(r.pair_counts.len(), 4);
        assert!(r.max_deltas.is_empty());
        assert!(r.pair_counts[3].0 > 0);
        let r = run(&g, &cfg(4).with_tolerance(1e-12), &t);
        assert_eq!(r.max_deltas.len(), 2);
    }

    #[test]
    fn engine_matches_hashmap_reference() {
        use simrankpp_graph::{AdId, ClickGraphBuilder, EdgeData, QueryId};
        let mut b = ClickGraphBuilder::new();
        let mut x: u64 = 17;
        for _ in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.add_edge(
                QueryId(((x >> 33) % 50) as u32),
                AdId(((x >> 13) % 40) as u32),
                EdgeData::from_clicks(1 + (x % 5)),
            );
        }
        let g = b.build();
        for walk in [
            Walk::Uniform,
            Walk::Weighted(WeightedTransition {
                kind: WeightKind::Clicks,
                spread: SpreadMode::Exponential,
            }),
        ] {
            let engine = run(&g, &cfg(5), &walk);
            let hashed = reference::run_hashmap(&g, &cfg(5), &walk);
            assert!(
                engine.queries.max_abs_diff(&hashed.queries) < 1e-12,
                "query drift {}",
                engine.queries.max_abs_diff(&hashed.queries)
            );
            assert!(engine.ads.max_abs_diff(&hashed.ads) < 1e-12);
        }
    }
}
