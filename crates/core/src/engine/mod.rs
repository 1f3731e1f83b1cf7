//! The unified sparse propagation engine.
//!
//! The paper's recursive similarity methods — plain SimRank (§4, Eq. 4.1/4.2)
//! and weighted SimRank (§8.2) — are the *same* Jacobi pair-propagation loop
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
//! * [`Transition`] abstracts the per-edge walk factor ([`UniformTransition`],
//!   [`WeightedTransition`]); new variants only supply factor tables.
//! * [`run`] drives the one propagation kernel, [`pull`]: each half-step is
//!   two row-parallel Gustavson SpGEMM passes over CSR score rows
//!   (`S' = c·F·S·Fᵀ` with unit diagonal) — no contribution buffers, no
//!   sorting, no cross-worker merging, and bit-deterministic for any thread
//!   count.
//! * [`parallel::run_chunked`] supplies chunked scoped-thread parallelism for
//!   every variant, and [`parallel::run_chunked_stateful`] threads a reusable
//!   per-worker workspace pool through it, so scratch survives across Jacobi
//!   half-steps.
//! * Per-iteration diagnostics — stored pair counts and the max score delta —
//!   are recorded for *all* variants on the both-sides run, and
//!   [`crate::SimrankConfig::tolerance`] enables early exit once the
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
//!   `⌊k/2⌋+1`-level series the `k` Jacobi iterations unroll into
//!   (per-query sparse forward/backward passes over the per-iteration
//!   diagonals one query-chain run per component block records) — the same
//!   row [`run`] stores, which the differential suites pin.
//!
//! # Two chains of half-steps
//!
//! Iteration `t` is two half-steps, `(Q,t)` computing `S_Q^(t)` from
//! `S_A^(t−1)` and `(A,t)` the mirror, from `S^(0) = I`. They fall into two
//! chains that never read each other: the **query chain**
//! `(Q,k), (A,k−1), (Q,k−2), …` down to `I` — `(Q,t)` with `k − t` even and
//! `(A,t)` with `k − t` odd — and the **ad chain**, every other half-step.
//! `S_Q^(k)` depends on the query chain alone (the substitution
//! [`single_source`] unrolls).
//!
//! * [`run`] — and the paper-table surface over it (`simrank`,
//!   `evidence_simrank`, `weighted_simrank`) — runs both chains: `2k`
//!   half-steps and both score matrices.
//! * The crate's query-side callers run the query chain alone, `k`
//!   half-steps, each iterate dropped once the next one is built:
//!   [`crate::Method::compute`] (the offline build, per-block index rows,
//!   ingest and the `serve` binary) and
//!   [`single_source::DiagonalCorrection::whole_graph`] (the live engine's
//!   per-block recording run, which freezes no matrix). With
//!   `tolerance > 0` they run both chains too: the early exit compares
//!   consecutive iterates of one side, and those lie on different chains.
//!
//! Either way the query scores are the same bits.
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
pub use transition::{Transition, TransitionFactors, UniformTransition, WeightedTransition};

use crate::config::SimrankConfig;
use crate::scores::ScoreMatrix;
use accum::{max_delta, PairVec};
use simrankpp_graph::{AdId, ClickGraph, QueryId};

/// Output of one engine run: frozen score matrices plus the per-iteration
/// diagnostics shared by every variant.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Query-side similarity scores.
    pub queries: ScoreMatrix,
    /// Ad-side similarity scores.
    pub ads: ScoreMatrix,
    /// Stored (query-pairs, ad-pairs) after each executed iteration.
    pub pair_counts: Vec<(usize, usize)>,
    /// Largest absolute per-pair score change (both sides) at each iteration.
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

/// What the unit pin replaced on each side's diagonal at every executed
/// iteration: entry `t − 1` holds `(D_Q^(t), D_A^(t))`, the diagonals of
/// `S_Q^(t) = C1·A·S_A^(t−1)·Aᵀ + diag(D_Q^(t))` and its ad-side mirror. A
/// query-chain run leaves the side it skipped at `t` empty.
pub(crate) type DiagonalHistory = Vec<(Vec<f64>, Vec<f64>)>;

/// Which Jacobi half-steps a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chains {
    /// Both sides at every iteration.
    Both,
    /// Only the half-steps `S_Q^(k)` depends on: `(Q,k), (A,k−1), (Q,k−2), …`.
    Query,
}

/// The iterates a run ends on, before any matrix is frozen.
pub(crate) struct Iterates {
    q_pairs: PairVec,
    a_pairs: PairVec,
    pair_counts: Vec<(usize, usize)>,
    max_deltas: Vec<f64>,
    converged: bool,
    /// Half-steps executed: `2·iterations_run` for [`Chains::Both`],
    /// `config.iterations` for [`Chains::Query`].
    half_steps: usize,
}

/// Runs the unified Jacobi propagation loop for `transition` on `g`.
///
/// Exact (bar floating-point rounding) when `config.prune_threshold == 0`;
/// with a threshold, pairs whose scaled score falls at or below it are
/// dropped after each iteration. When `config.tolerance > 0`, iteration stops
/// as soon as the largest per-pair change on either side is at or below it.
pub fn run<T: Transition>(g: &ClickGraph, config: &SimrankConfig, transition: &T) -> EngineRun {
    let it = iterate(g, config, transition, Chains::Both, None);
    debug_assert_eq!(it.half_steps, 2 * it.pair_counts.len());
    EngineRun {
        queries: ScoreMatrix::from_sorted_pairs(g.n_queries(), it.q_pairs),
        ads: ScoreMatrix::from_sorted_pairs(g.n_ads(), it.a_pairs),
        iterations_run: it.pair_counts.len(),
        pair_counts: it.pair_counts,
        max_deltas: it.max_deltas,
        converged: it.converged,
    }
}

/// The query side of [`run`] alone, appending each executed iteration's
/// pinned-away diagonals to `diagonals` when it is set: its query pairs are
/// the bits of `run(..).queries` either way, and nothing is frozen.
///
/// At `tolerance == 0` only the query chain's `k` half-steps run, and the
/// history holds `D_Q^(t)` where `k − t` is even and `D_A^(t)` where it is
/// odd — every diagonal the single-source series reads. With a tolerance
/// both chains run: the early exit compares consecutive iterates of one
/// side, and those lie on different chains.
pub(crate) fn run_query_side<T: Transition>(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &T,
    diagonals: Option<&mut DiagonalHistory>,
) -> Iterates {
    let chains = if config.tolerance > 0.0 {
        Chains::Both
    } else {
        Chains::Query
    };
    iterate(g, config, transition, chains, diagonals)
}

/// `S_Q^(k)` through [`run_query_side`], frozen.
pub(crate) fn query_scores<T: Transition>(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &T,
) -> ScoreMatrix {
    let Iterates { q_pairs, .. } = run_query_side(g, config, transition, None);
    ScoreMatrix::from_sorted_pairs(g.n_queries(), q_pairs)
}

/// The Jacobi loop over `chains`. Returns before any freeze, so the kernel
/// scratch and factor tables are freed before a caller builds a matrix's row
/// index: peak memory is the larger of the two phases, not their sum.
fn iterate<T: Transition>(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &T,
    chains: Chains,
    mut diagonals: Option<&mut DiagonalHistory>,
) -> Iterates {
    config.validate().expect("invalid SimRank configuration");
    let factors = transition.factors(g);

    // Kernel scratch — one pull workspace per worker plus the shared
    // iterate-CSR buffers — lives for the whole run, so no half-step
    // allocates.
    let mut workspaces: Vec<pull::PullWorkspace> = (0..config.effective_threads().max(1))
        .map(|_| pull::PullWorkspace::default())
        .collect();
    let mut csr = pull::CsrScratch::default();

    let k = config.iterations;
    let mut it = Iterates {
        q_pairs: PairVec::new(),
        a_pairs: PairVec::new(),
        pair_counts: Vec::new(),
        max_deltas: Vec::new(),
        converged: false,
        half_steps: 0,
    };

    // The four CSR row views the kernel walks: the *output* node's own row
    // in pass 1 (output-major factors), inner rows in pass 2 (inner-major).
    let ad_row_qfac = |a: u32| {
        let (qs, _) = g.queries_of(AdId(a));
        let lo = g.ad_csr_offset(AdId(a));
        (qs, &factors.ad_to_query[lo..lo + qs.len()])
    };
    let query_row_afac = |q: u32| {
        let (ads, _) = g.ads_of(QueryId(q));
        let lo = g.query_csr_offset(QueryId(q));
        (ads, &factors.query_to_ad[lo..lo + ads.len()])
    };
    let query_row_qfac = |q: u32| {
        let (ads, _) = g.ads_of(QueryId(q));
        let lo = g.query_csr_offset(QueryId(q));
        (ads, &factors.ad_to_query_by_query[lo..lo + ads.len()])
    };
    let ad_row_afac = |a: u32| {
        let (qs, _) = g.queries_of(AdId(a));
        let lo = g.ad_csr_offset(AdId(a));
        (qs, &factors.query_to_ad_by_ad[lo..lo + qs.len()])
    };

    // One half-step: the query side from the ad iterate `prev`, or the
    // mirror.
    let mut half_step = |query: bool, prev: &PairVec, diagonal: Option<&mut Vec<f64>>| {
        it.half_steps += 1;
        if query {
            pull::propagate_pull(
                g.n_queries(),
                g.n_ads(),
                query_row_qfac,
                ad_row_qfac,
                prev,
                config.c1,
                config.prune_threshold,
                &mut csr,
                &mut workspaces,
                diagonal,
            )
        } else {
            pull::propagate_pull(
                g.n_ads(),
                g.n_queries(),
                ad_row_afac,
                query_row_afac,
                prev,
                config.c2,
                config.prune_threshold,
                &mut csr,
                &mut workspaces,
                diagonal,
            )
        }
    };

    for t in 1..=k {
        let record = diagonals.is_some();
        let (mut d_q, mut d_a) = (Vec::new(), Vec::new());
        if chains == Chains::Query {
            // `(Q,t)` is on the chain iff `k − t` is even. The iterate it
            // reads is read by nothing after it, so it is dropped as it goes.
            if (k - t) % 2 == 0 {
                let prev = std::mem::take(&mut it.a_pairs);
                it.q_pairs = half_step(true, &prev, record.then_some(&mut d_q));
            } else {
                let prev = std::mem::take(&mut it.q_pairs);
                it.a_pairs = half_step(false, &prev, record.then_some(&mut d_a));
            }
        } else {
            // Jacobi: both sides advance from the *previous* iterate.
            let next_q = half_step(true, &it.a_pairs, record.then_some(&mut d_q));
            let next_a = half_step(false, &it.q_pairs, record.then_some(&mut d_a));
            let delta = max_delta(&it.q_pairs, &next_q).max(max_delta(&it.a_pairs, &next_a));
            it.q_pairs = next_q;
            it.a_pairs = next_a;
            it.pair_counts.push((it.q_pairs.len(), it.a_pairs.len()));
            it.max_deltas.push(delta);
            it.converged = config.tolerance > 0.0 && delta <= config.tolerance;
        }
        if let Some(history) = diagonals.as_deref_mut() {
            history.push((d_q, d_a));
        }
        if it.converged {
            break;
        }
    }
    it
}

/// [`run`] under its former name: `config.sharding` used to pick a
/// per-component run here, which was bit-identical to the monolithic one.
/// Kept only because the frozen `benchmark/` sources call it.
pub fn run_with_strategy<T: Transition>(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &T,
) -> EngineRun {
    run(g, config, transition)
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

    #[test]
    fn uniform_engine_reproduces_table3() {
        let g = figure4_k22();
        let expected = [0.4, 0.56, 0.624, 0.6496, 0.65984, 0.663936, 0.6655744];
        for (k, &want) in expected.iter().enumerate() {
            let r = run(&g, &cfg(k + 1), &UniformTransition);
            assert!(
                (r.queries.get(0, 1) - want).abs() < 1e-9,
                "iteration {}",
                k + 1
            );
        }
    }

    #[test]
    fn diagnostics_recorded_every_iteration() {
        let g = figure3_graph();
        let r = run(&g, &cfg(5), &UniformTransition);
        assert_eq!(r.pair_counts.len(), 5);
        assert_eq!(r.max_deltas.len(), 5);
        assert_eq!(r.iterations_run, 5);
        assert!(!r.converged);
        // First iteration jumps from the identity, so the delta is largest.
        assert!(r.max_deltas[0] >= r.max_deltas[4]);
        assert!(r.max_deltas.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn tolerance_stops_early_and_flags_convergence() {
        let g = figure3_graph();
        let full = run(&g, &cfg(100), &UniformTransition);
        let tol = run(&g, &cfg(100).with_tolerance(1e-6), &UniformTransition);
        assert!(tol.converged);
        assert!(tol.iterations_run < full.iterations_run);
        // Early exit at tolerance t bounds the per-pair error by t·C/(1−C).
        assert!(full.queries.max_abs_diff(&tol.queries) < 1e-5);
    }

    #[test]
    fn recorded_diagonals_are_what_the_pin_replaces() {
        // D_Q^(t)[q] = 1 − C1·Σ_{a,a'} F(q,a)·F(q,a')·S_A^(t−1)(a,a') against
        // the previous iterate's own matrix (and the ad-side mirror), for a
        // run that also exits early (so both chains run); recording leaves
        // every score bit alone.
        let g = figure3_graph();
        let f = UniformTransition.factors(&g);
        let config = cfg(9).with_tolerance(1e-2);
        let mut history = DiagonalHistory::new();
        let recorded = run_query_side(&g, &config, &UniformTransition, Some(&mut history));
        let plain = run(&g, &config, &UniformTransition);
        assert!(recorded.converged && plain.iterations_run < 9);
        assert_eq!(history.len(), plain.iterations_run);
        let bits = |pairs: &PairVec| -> Vec<(u64, u64)> {
            pairs.iter().map(|&(k, v)| (k.raw(), v.to_bits())).collect()
        };
        let plain_q: PairVec = plain.queries.sorted_pairs().collect();
        let plain_a: PairVec = plain.ads.sorted_pairs().collect();
        assert_eq!(bits(&recorded.q_pairs), bits(&plain_q));
        assert_eq!(bits(&recorded.a_pairs), bits(&plain_a));
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
        for (t, (d_q, d_a)) in history.iter().enumerate() {
            let prev = run(&g, &cfg(t), &UniformTransition);
            for q in g.queries() {
                let ads: Vec<u32> = g.ads_of(q).0.iter().map(|a| a.0).collect();
                let fac = &f.ad_to_query_by_query[g.query_csr_offset(q)..][..ads.len()];
                let want = 1.0 - config.c1 * dense(ads, fac, &prev.ads);
                assert!((d_q[q.index()] - want).abs() < 1e-12);
            }
            for a in g.ads() {
                let qs: Vec<u32> = g.queries_of(a).0.iter().map(|q| q.0).collect();
                let fac = &f.query_to_ad_by_ad[g.ad_csr_offset(a)..][..qs.len()];
                let want = 1.0 - config.c2 * dense(qs, fac, &prev.queries);
                assert!((d_a[a.index()] - want).abs() < 1e-12);
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
        let record = |threads| {
            let mut history = DiagonalHistory::new();
            let config = cfg(3).with_threads(threads);
            iterate(
                &g,
                &config,
                &UniformTransition,
                Chains::Both,
                Some(&mut history),
            );
            history
        };
        let (serial, parallel) = (record(1), record(3));
        assert_eq!(serial.len(), 3);
        assert_eq!(serial[2].0.len(), g.n_queries());
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(bits(&s.0), bits(&p.0));
            assert_eq!(bits(&s.1), bits(&p.1));
        }
    }

    #[test]
    fn the_query_chain_is_k_half_steps_with_the_full_runs_query_bits() {
        // At tolerance 0 the query-side run executes k half-steps against
        // run's 2k, ends on the same S_Q^(k) bits, and records at each t the
        // full history's diagonal of the side on the chain, the other side
        // empty. Under a tolerance it is the full run.
        let g = figure3_graph();
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let pair_bits = |pairs: &PairVec| -> Vec<(u64, u64)> {
            pairs.iter().map(|&(k, v)| (k.raw(), v.to_bits())).collect()
        };
        for k in 0..=8 {
            let mut full_history = DiagonalHistory::new();
            let full = iterate(
                &g,
                &cfg(k),
                &UniformTransition,
                Chains::Both,
                Some(&mut full_history),
            );
            let mut history = DiagonalHistory::new();
            let chain = run_query_side(&g, &cfg(k), &UniformTransition, Some(&mut history));
            assert_eq!((chain.half_steps, full.half_steps), (k, 2 * k));
            assert_eq!(
                pair_bits(&chain.q_pairs),
                pair_bits(&full.q_pairs),
                "k = {k}"
            );
            assert_eq!(history.len(), k);
            for (t, (got, want)) in (1..).zip(history.iter().zip(&full_history)) {
                let (on, off, want) = if (k - t) % 2 == 0 {
                    (&got.0, &got.1, &want.0)
                } else {
                    (&got.1, &got.0, &want.1)
                };
                assert_eq!(bits(on), bits(want), "k = {k}, t = {t}");
                assert!(off.is_empty(), "k = {k}, t = {t}");
            }

            let tolerant = cfg(k).with_tolerance(1e-3);
            let both = run(&g, &tolerant, &UniformTransition);
            let chain = run_query_side(&g, &tolerant, &UniformTransition, None);
            assert_eq!(chain.half_steps, 2 * both.iterations_run);
            let want: PairVec = both.queries.sorted_pairs().collect();
            assert_eq!(pair_bits(&chain.q_pairs), pair_bits(&want), "k = {k}");
        }
    }

    #[test]
    fn weighted_transition_diagnostics_present() {
        let g = figure3_graph();
        let t = WeightedTransition {
            kind: WeightKind::Clicks,
            spread: SpreadMode::Exponential,
        };
        let r = run(&g, &cfg(4), &t);
        assert_eq!(r.pair_counts.len(), 4);
        assert_eq!(r.max_deltas.len(), 4);
        assert!(r.pair_counts[3].0 > 0);
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
        for transition in [
            None,
            Some(WeightedTransition {
                kind: WeightKind::Clicks,
                spread: SpreadMode::Exponential,
            }),
        ] {
            let (engine, hashed) = match &transition {
                None => (
                    run(&g, &cfg(5), &UniformTransition),
                    reference::run_hashmap(&g, &cfg(5), &UniformTransition),
                ),
                Some(t) => (run(&g, &cfg(5), t), reference::run_hashmap(&g, &cfg(5), t)),
            };
            assert!(
                engine.queries.max_abs_diff(&hashed.queries) < 1e-12,
                "query drift {}",
                engine.queries.max_abs_diff(&hashed.queries)
            );
            assert!(engine.ads.max_abs_diff(&hashed.ads) < 1e-12);
        }
    }
}
