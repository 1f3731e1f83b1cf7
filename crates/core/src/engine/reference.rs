//! The independent sparse reference: the recurrence as a hash-map scatter.
//!
//! [`run_hashmap`] is the loop the engine ran before the pull kernel
//! replaced it, kept as a *test reference*: it shares the transition
//! factors and nothing else with [`super::pull`] (push instead of pull, a
//! hash map instead of dense row scratch, contribution order set by the
//! previous iterate instead of CSR rows), so agreement between the two to
//! rounding is evidence about both. The differential suites
//! (`tests/engine_equivalence.rs`, `tests/kernel_equivalence.rs`) call it by
//! name beside the dense oracles `simrank_dense`/`weighted_simrank_dense`,
//! at sizes the O(n²d²) dense forms cannot reach. It is not an engine
//! kernel: no [`SimrankConfig`] value selects it.

use super::parallel;
use super::{NodeId, Walk};
use crate::config::SimrankConfig;
use crate::scores::{ScoreMatrix, ScoreMatrixBuilder};
use simrankpp_graph::{AdId, ClickGraph, QueryId};
use simrankpp_util::PairKey;

/// Result of the reference run: score matrices only (no diagnostics — those
/// are an engine feature).
#[derive(Debug, Clone)]
pub struct ReferenceRun {
    /// Query-side scores.
    pub queries: ScoreMatrix,
    /// Ad-side scores.
    pub ads: ScoreMatrix,
}

/// Runs the same Jacobi recurrence as [`super::run`] with per-iteration
/// `FxHashMap` accumulation. Honors `config`'s decay factors, iteration
/// count, prune threshold and thread count; `tolerance` and `sharding` are
/// engine features and are ignored.
pub fn run_hashmap(g: &ClickGraph, config: &SimrankConfig, walk: &Walk) -> ReferenceRun {
    config.validate().expect("invalid SimRank configuration");
    let factors = walk.factors(g);
    let threads = config.effective_threads();

    let mut q_scores = ScoreMatrixBuilder::new(g.n_queries());
    let mut a_scores = ScoreMatrixBuilder::new(g.n_ads());

    for _ in 0..config.iterations {
        let a_entries: Vec<(PairKey, f64)> = a_scores.iter().collect();
        let next_q = propagate_hashmap(
            g.n_queries(),
            g.n_ads(),
            |a| (g.queries_of(AdId(a)).0, factors.toward_ad(g, AdId(a))),
            &a_entries,
            config.c1,
            config.prune_threshold,
            threads,
        );
        let q_entries: Vec<(PairKey, f64)> = q_scores.iter().collect();
        let next_a = propagate_hashmap(
            g.n_ads(),
            g.n_queries(),
            |q| (g.ads_of(QueryId(q)).0, factors.toward_query(g, QueryId(q))),
            &q_entries,
            config.c2,
            config.prune_threshold,
            threads,
        );
        q_scores = next_q;
        a_scores = next_a;
    }

    ReferenceRun {
        queries: q_scores.build(),
        ads: a_scores.build(),
    }
}

/// One Jacobi half-step: scatter every source's contributions into
/// per-chunk builders, merge them, scale by the decay `c` and prune.
fn propagate_hashmap<'g, I, RowFn>(
    n_targets: usize,
    n_sources: usize,
    row: RowFn,
    prev: &[(PairKey, f64)],
    c: f64,
    prune_threshold: f64,
    threads: usize,
) -> ScoreMatrixBuilder
where
    I: NodeId + 'g,
    RowFn: Fn(u32) -> (&'g [I], &'g [f64]) + Sync,
{
    let pieces = parallel::run_chunked(prev.len() + n_sources, threads, |range| {
        let mut acc = ScoreMatrixBuilder::new(n_targets);
        scatter_chunk(range, prev, &row, &mut acc);
        acc
    });
    let mut merged = ScoreMatrixBuilder::new(n_targets);
    for p in pieces {
        merged.merge(p);
    }
    merged.map_scores(|_, v| c * v);
    merged.prune(prune_threshold);
    merged
}

/// The scatter loop of one half-step, over one chunk of the combined item
/// space (`0..prev.len()` = stored source pairs, the rest = unit source
/// diagonals).
///
/// `row(src)` returns the source node's target neighbors together with the
/// matching factor slice (`F(target, src)` per edge). The stored pair
/// `(i, j, s)` contributes `F(t,i)·F(t',j)·s` to every ordered neighbor
/// combination `(t ∈ row(i), t' ∈ row(j))`, and each source's diagonal
/// (`s(i,i) = 1`) contributes `F(t,i)·F(t',i)` per unordered neighbor pair.
fn scatter_chunk<'g, I, RowFn>(
    range: std::ops::Range<usize>,
    prev: &[(PairKey, f64)],
    row: &RowFn,
    acc: &mut ScoreMatrixBuilder,
) where
    I: NodeId + 'g,
    RowFn: Fn(u32) -> (&'g [I], &'g [f64]),
{
    let n_pair_items = prev.len();
    for idx in range {
        if idx < n_pair_items {
            let (key, s) = prev[idx];
            let (i, j) = key.parts();
            let (targets_i, f_i) = row(i);
            let (targets_j, f_j) = row(j);
            for (x, ti) in targets_i.iter().enumerate() {
                let w = f_i[x] * s;
                for (y, tj) in targets_j.iter().enumerate() {
                    if ti.raw() != tj.raw() {
                        acc.add(ti.raw(), tj.raw(), w * f_j[y]);
                    }
                }
            }
        } else {
            let src = (idx - n_pair_items) as u32;
            let (targets, f) = row(src);
            for x in 0..targets.len() {
                for y in (x + 1)..targets.len() {
                    acc.add(targets[x].raw(), targets[y].raw(), f[x] * f[y]);
                }
            }
        }
    }
}
