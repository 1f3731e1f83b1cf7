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
//!   every variant, and the `_stateful` variants thread a reusable per-worker
//!   workspace pool through it, so scratch survives across Jacobi half-steps
//!   and — in the sharded engine — across shards.
//! * Per-iteration diagnostics — stored pair counts and the max score delta —
//!   are recorded for *all* variants, and [`crate::SimrankConfig::tolerance`]
//!   enables early exit once the iteration becomes stationary.
//!
//! * [`sharded::run_sharded`] exploits the block-diagonal structure of the
//!   score matrix over connected components (§9.2's "one huge connected
//!   component and several smaller subgraphs"): one engine run per shard,
//!   scheduled largest-first across scoped threads, stitched back into
//!   global ids — exact for component sharding. [`run_with_strategy`]
//!   dispatches on [`crate::config::ShardStrategy`].
//!
//! * [`single_source::SingleSourceEngine`] escapes the all-pairs matrix
//!   entirely: one query's score row on demand via the linearized series
//!   (precomputed diagonal correction + per-query sparse forward/backward
//!   passes), with the all-pairs engine as the differential oracle.
//!
//! [`reference::run_hashmap`] is not part of the engine: it is an independent
//! sparse implementation of the same recurrence (scatter into a hash map)
//! that the differential suites call by name beside the dense oracles. No
//! [`crate::SimrankConfig`] value reaches it.

pub mod accum;
pub mod parallel;
pub mod pull;
pub mod reference;
pub mod sharded;
pub mod single_source;
pub mod transition;

pub use sharded::run_sharded;
pub use single_source::{DiagonalCorrection, RowWorkspace, SingleSourceEngine};
pub use transition::{Transition, TransitionFactors, UniformTransition, WeightedTransition};

use crate::config::{ShardStrategy, SimrankConfig};
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

/// [`run`] output before freezing into [`ScoreMatrix`] form: key-sorted
/// pair lists plus diagnostics. The sharded stitch consumes this directly —
/// remapping and merging sorted vectors — so per-shard runs skip the
/// per-shard `by_node` construction that [`EngineRun`] would pay, and the
/// stitched result is frozen exactly once.
#[derive(Debug)]
pub(crate) struct RawRun {
    pub(crate) q_pairs: PairVec,
    pub(crate) a_pairs: PairVec,
    pub(crate) pair_counts: Vec<(usize, usize)>,
    pub(crate) max_deltas: Vec<f64>,
    pub(crate) iterations_run: usize,
    pub(crate) converged: bool,
}

/// Runs the unified Jacobi propagation loop for `transition` on `g`.
///
/// Exact (bar floating-point rounding) when `config.prune_threshold == 0`;
/// with a threshold, pairs whose scaled score falls at or below it are
/// dropped after each iteration. When `config.tolerance > 0`, iteration stops
/// as soon as the largest per-pair change on either side is at or below it.
pub fn run<T: Transition>(g: &ClickGraph, config: &SimrankConfig, transition: &T) -> EngineRun {
    let raw = run_raw(g, config, transition);
    EngineRun {
        queries: ScoreMatrix::from_sorted_pairs(g.n_queries(), raw.q_pairs),
        ads: ScoreMatrix::from_sorted_pairs(g.n_ads(), raw.a_pairs),
        pair_counts: raw.pair_counts,
        max_deltas: raw.max_deltas,
        iterations_run: raw.iterations_run,
        converged: raw.converged,
    }
}

/// Reusable per-run kernel scratch: one pull workspace per worker plus the
/// shared iterate-CSR buffers. Created once per engine run and threaded
/// through every Jacobi half-step, so the kernel allocates no per-iteration
/// scratch; the sharded engine goes further and reuses one scratch per queue
/// worker across *all* its shards.
#[derive(Debug)]
pub(crate) struct EngineScratch {
    pull: Vec<pull::PullWorkspace>,
    csr: pull::CsrScratch,
}

impl EngineScratch {
    pub(crate) fn new(threads: usize) -> Self {
        EngineScratch {
            pull: (0..threads.max(1))
                .map(|_| pull::PullWorkspace::default())
                .collect(),
            csr: pull::CsrScratch::default(),
        }
    }
}

/// [`run`] without the final freeze — the sharded engine's per-shard entry.
pub(crate) fn run_raw<T: Transition>(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &T,
) -> RawRun {
    let mut scratch = EngineScratch::new(config.effective_threads());
    run_raw_with(g, config, transition, &mut scratch)
}

/// [`run_raw`] against caller-owned [`EngineScratch`], so a worker draining
/// a shard queue reuses its workspaces across every shard it claims.
pub(crate) fn run_raw_with<T: Transition>(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &T,
    scratch: &mut EngineScratch,
) -> RawRun {
    config.validate().expect("invalid SimRank configuration");
    let factors = transition.factors(g);

    let mut q_pairs: PairVec = Vec::new();
    let mut a_pairs: PairVec = Vec::new();
    let mut pair_counts = Vec::with_capacity(config.iterations);
    let mut max_deltas = Vec::with_capacity(config.iterations);
    let mut converged = false;

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

    for _ in 0..config.iterations {
        // Jacobi: both sides advance from the *previous* iterate.
        let next_q = pull::propagate_pull(
            g.n_queries(),
            g.n_ads(),
            query_row_qfac,
            ad_row_qfac,
            &a_pairs,
            config.c1,
            config.prune_threshold,
            &mut scratch.csr,
            &mut scratch.pull,
        );
        let next_a = pull::propagate_pull(
            g.n_ads(),
            g.n_queries(),
            ad_row_afac,
            query_row_afac,
            &q_pairs,
            config.c2,
            config.prune_threshold,
            &mut scratch.csr,
            &mut scratch.pull,
        );

        let delta = max_delta(&q_pairs, &next_q).max(max_delta(&a_pairs, &next_a));
        q_pairs = next_q;
        a_pairs = next_a;
        pair_counts.push((q_pairs.len(), a_pairs.len()));
        max_deltas.push(delta);

        if config.tolerance > 0.0 && delta <= config.tolerance {
            converged = true;
            break;
        }
    }

    let iterations_run = pair_counts.len();
    RawRun {
        q_pairs,
        a_pairs,
        pair_counts,
        max_deltas,
        iterations_run,
        converged,
    }
}

/// Runs the engine under `config.sharding`: monolithic ([`run`]) when `Off`,
/// per-connected-component ([`run_sharded`], exact) for `Components`, and
/// ACL-extracted blocks (approximate) for `Extracted`. This is the entry
/// point the `simrank`/`weighted` front-ends use, so the strategy knob
/// reaches every recursive variant and the serving index build.
pub fn run_with_strategy<T: Transition>(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &T,
) -> EngineRun {
    match config.sharding {
        ShardStrategy::Off => run(g, config, transition),
        ShardStrategy::Components => {
            let sharding = simrankpp_graph::Sharding::from_components(g);
            sharded::run_sharded(g, config, transition, &sharding)
        }
        ShardStrategy::Extracted(k) => {
            let sharding = simrankpp_partition::extraction_sharding(g, k);
            sharded::run_sharded(g, config, transition, &sharding)
        }
    }
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
