//! Component-sharded propagation: one engine run per score block.
//!
//! The click graph's score matrix is block-diagonal over connected
//! components (see `simrankpp_graph::sharding` for the proof sketch), so
//! [`run_sharded`] runs the unified kernel **independently per shard** and
//! stitches the per-shard [`ScoreMatrix`] results back into global ids.
//! Stitching rejects duplicates: a pair produced by two shards means the
//! shards overlap, and the merge ([`super::accum::merge_all_disjoint`])
//! fails loudly instead of silently summing the colliding scores. It
//! exploits that each shard's remap is *monotone*: the remapped pair list is
//! already key-sorted, so a smallest-first galloping merge stitches the
//! blocks in effectively one bulk-copy pass over the data, no hashing.
//!
//! Scheduling: shards arrive largest-first from [`Sharding`] and are pulled
//! off an atomic queue by `config.effective_threads()` scoped workers, so
//! the giant §9.2 component starts immediately while satellites fill the
//! remaining workers. Each shard itself runs **serially** (`threads = 1`).
//!
//! Exactness contract, for [`Sharding::from_components`] (`exact == true`):
//!
//! * per-shard transition factors equal the global ones (both walks are
//!   local and components keep every incident edge);
//! * the monotone id remap preserves CSR neighbor order, so a shard replays
//!   the global contribution stream restricted to its component;
//! * the pull kernel fixes each output row's accumulation order as a
//!   function of CSR neighbor order alone, which the monotone remap
//!   preserves — **bit-identical** scores at any scale and any thread count;
//! * `prune_threshold` is a per-pair decision on identical values, so
//!   pruned runs decompose exactly too;
//! * `tolerance > 0` early exit is the one knob that breaks equivalence:
//!   a quiet shard may stop before the global run would have, leaving its
//!   scores short by at most `tolerance · C / (1 − C)`.
//!
//! Extraction sharding (`exact == false`) reuses the same machinery but cuts
//! edges; see `simrankpp_partition::shard`.

use super::accum::{merge_all_disjoint, PairVec};
use super::{EngineRun, RawRun, Transition};
use crate::config::SimrankConfig;
use crate::scores::ScoreMatrix;
use simrankpp_graph::{ClickGraph, Sharding};
use simrankpp_util::PairKey;

/// Runs the unified kernel per shard and stitches the blocks back together.
///
/// The returned [`EngineRun`] has global-id score matrices and aggregated
/// diagnostics: `pair_counts[i]` sums the shards' stored pairs at iteration
/// `i`, `max_deltas[i]` is the max across shards, `iterations_run` is the
/// maximum any shard executed, and `converged` means every shard converged.
/// Shards that stop early (tolerance) are padded with their final stationary
/// counts and a zero delta.
///
/// # Panics
/// Panics if `sharding` was built for a different graph (dimension
/// mismatch) or if two shards produce the same score pair (overlap).
pub fn run_sharded<T: Transition>(
    g: &ClickGraph,
    config: &SimrankConfig,
    transition: &T,
    sharding: &Sharding,
) -> EngineRun {
    config.validate().expect("invalid SimRank configuration");
    assert_eq!(
        (sharding.parent_n_queries(), sharding.parent_n_ads()),
        (g.n_queries(), g.n_ads()),
        "sharding was built for a different graph"
    );
    // Per-shard runs are serial and un-sharded; parallelism lives at the
    // shard level, and nested sharding would recompute components per shard.
    let shard_config = SimrankConfig {
        threads: 1,
        sharding: crate::config::ShardStrategy::Off,
        ..*config
    };
    let workers = config.effective_threads().min(sharding.n_shards()).max(1);
    let mut runs = run_all(sharding, &shard_config, transition, workers);

    // Stitch: remap each shard's (already key-sorted) raw pair list to
    // global ids in place — monotone remaps preserve the sort — then merge.
    // The merge rejects duplicate pairs, so overlapping shards fail loudly
    // instead of silently summing. Remapping leaves the stored f64s
    // untouched, so the stitched matrix is bit-identical to the per-shard
    // results, and the freeze into `ScoreMatrix` happens exactly once, on
    // the stitched whole.
    let (q_pieces, a_pieces) = remap_pieces(sharding, &mut runs);
    let queries = ScoreMatrix::from_sorted_pairs(
        g.n_queries(),
        merge_all_disjoint(q_pieces).expect("query-side shards overlap"),
    );
    let ads = ScoreMatrix::from_sorted_pairs(
        g.n_ads(),
        merge_all_disjoint(a_pieces).expect("ad-side shards overlap"),
    );

    let (pair_counts, max_deltas, iterations_run, converged) = aggregate_diagnostics(&runs, config);

    EngineRun {
        queries,
        ads,
        pair_counts,
        max_deltas,
        iterations_run,
        converged,
    }
}

/// Remaps each shard's raw pair lists to global ids in place (monotone
/// remaps preserve the key sort) and hands them back as per-shard pieces,
/// query side and ad side.
fn remap_pieces(sharding: &Sharding, runs: &mut [RawRun]) -> (Vec<PairVec>, Vec<PairVec>) {
    let mut q_pieces: Vec<PairVec> = Vec::with_capacity(runs.len());
    let mut a_pieces: Vec<PairVec> = Vec::with_capacity(runs.len());
    for (shard, run) in sharding.shards.iter().zip(runs) {
        let qmap = &shard.mapping.queries;
        let mut piece = std::mem::take(&mut run.q_pairs);
        for (k, _) in &mut piece {
            let (a, b) = k.parts();
            *k = PairKey::new(qmap[a as usize].0, qmap[b as usize].0);
        }
        q_pieces.push(piece);
        let amap = &shard.mapping.ads;
        let mut piece = std::mem::take(&mut run.a_pairs);
        for (k, _) in &mut piece {
            let (a, b) = k.parts();
            *k = PairKey::new(amap[a as usize].0, amap[b as usize].0);
        }
        a_pieces.push(piece);
    }
    (q_pieces, a_pieces)
}

/// Aggregates per-shard diagnostics: summed pair counts, max-of-max deltas,
/// the longest iteration count, and whether every shard converged. Shards
/// that stopped early are padded with their final stationary counts and a
/// zero delta.
fn aggregate_diagnostics(
    runs: &[RawRun],
    config: &SimrankConfig,
) -> (Vec<(usize, usize)>, Vec<f64>, usize, bool) {
    let iterations_run = if config.tolerance > 0.0 {
        runs.iter()
            .map(|r| r.iterations_run)
            .max()
            .unwrap_or_else(|| config.iterations.min(1))
    } else {
        config.iterations
    };
    let mut pair_counts = Vec::with_capacity(iterations_run);
    let mut max_deltas = Vec::with_capacity(iterations_run);
    for i in 0..iterations_run {
        let mut qp = 0usize;
        let mut ap = 0usize;
        let mut delta = 0.0f64;
        for r in runs {
            let (q, a) = r
                .pair_counts
                .get(i)
                .or(r.pair_counts.last())
                .copied()
                .unwrap_or((0, 0));
            qp += q;
            ap += a;
            delta = delta.max(r.max_deltas.get(i).copied().unwrap_or(0.0));
        }
        pair_counts.push((qp, ap));
        max_deltas.push(delta);
    }
    let converged =
        config.tolerance > 0.0 && config.iterations > 0 && runs.iter().all(|r| r.converged);
    (pair_counts, max_deltas, iterations_run, converged)
}

/// Runs the engine over every shard, pulling shard indices off an atomic
/// queue with `workers` scoped threads; results come back in shard order.
/// Each worker owns one [`super::EngineScratch`] for its whole drain, so
/// the dense pull scratch is allocated once per worker, not once per shard.
fn run_all<T: Transition>(
    sharding: &Sharding,
    config: &SimrankConfig,
    transition: &T,
    workers: usize,
) -> Vec<RawRun> {
    let shards = &sharding.shards;
    let mut scratches: Vec<super::EngineScratch> = (0..workers.max(1))
        .map(|_| super::EngineScratch::new(config.effective_threads()))
        .collect();
    super::parallel::run_indexed_stateful(shards.len(), &mut scratches, |scratch, i| {
        super::run_raw_with(&shards[i].graph, config, transition, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, UniformTransition, WeightedTransition};
    use crate::weighted::SpreadMode;
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::sharding::Shard;
    use simrankpp_graph::{AdId, ClickGraphBuilder, EdgeData, QueryId, WeightKind};

    fn cfg(k: usize) -> SimrankConfig {
        SimrankConfig::default().with_iterations(k)
    }

    /// Seeded multi-component random graph: `blocks` disjoint bipartite
    /// blobs with distinct densities.
    fn multi_component(blocks: usize, seed: u64) -> ClickGraph {
        let mut b = ClickGraphBuilder::new();
        let mut x = seed | 1;
        for blk in 0..blocks as u32 {
            let qo = blk * 12;
            let ao = blk * 9;
            for _ in 0..40 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let q = qo + ((x >> 33) % 12) as u32;
                let a = ao + ((x >> 13) % 9) as u32;
                b.add_edge(QueryId(q), AdId(a), EdgeData::from_clicks(1 + (x % 4)));
            }
        }
        b.build()
    }

    #[test]
    fn sharded_equals_monolithic_bitwise_uniform() {
        let g = multi_component(5, 17);
        let sharding = Sharding::from_components(&g);
        assert!(sharding.n_shards() >= 2, "fixture must be multi-component");
        let mono = run(&g, &cfg(6), &UniformTransition);
        let shard = run_sharded(&g, &cfg(6), &UniformTransition, &sharding);
        let mono_pairs: Vec<_> = mono.queries.iter().collect();
        let shard_pairs: Vec<_> = shard.queries.iter().collect();
        assert_eq!(mono_pairs, shard_pairs, "query scores must be identical");
        assert_eq!(
            mono.ads.iter().collect::<Vec<_>>(),
            shard.ads.iter().collect::<Vec<_>>()
        );
        assert_eq!(mono.pair_counts, shard.pair_counts);
        assert_eq!(mono.iterations_run, shard.iterations_run);
        assert_eq!(mono.max_deltas, shard.max_deltas);
    }

    #[test]
    fn sharded_equals_monolithic_bitwise_weighted_and_pruned() {
        let g = multi_component(4, 99);
        let sharding = Sharding::from_components(&g);
        let t = WeightedTransition {
            kind: WeightKind::Clicks,
            spread: SpreadMode::Exponential,
        };
        let c = cfg(5).with_prune_threshold(1e-3);
        let mono = run(&g, &c, &t);
        let shard = run_sharded(&g, &c, &t, &sharding);
        assert_eq!(
            mono.queries.iter().collect::<Vec<_>>(),
            shard.queries.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            mono.ads.iter().collect::<Vec<_>>(),
            shard.ads.iter().collect::<Vec<_>>()
        );
        assert_eq!(mono.pair_counts, shard.pair_counts);
    }

    #[test]
    fn sharded_multi_worker_matches_single_worker() {
        // Shard-level parallelism must not change anything: each shard is
        // serial inside, and stitching is order-deterministic.
        let g = multi_component(6, 5);
        let sharding = Sharding::from_components(&g);
        let serial = run_sharded(&g, &cfg(5).with_threads(1), &UniformTransition, &sharding);
        let parallel = run_sharded(&g, &cfg(5).with_threads(4), &UniformTransition, &sharding);
        assert_eq!(
            serial.queries.iter().collect::<Vec<_>>(),
            parallel.queries.iter().collect::<Vec<_>>()
        );
        assert_eq!(serial.pair_counts, parallel.pair_counts);
    }

    #[test]
    fn merged_matrix_has_no_cross_shard_pairs() {
        let g = figure3_graph();
        let sharding = Sharding::from_components(&g);
        let r = run_sharded(&g, &cfg(8), &UniformTransition, &sharding);
        let components = simrankpp_graph::components::connected_components(&g);
        for (a, b, _) in r.queries.iter() {
            assert_eq!(
                components.query_label[a as usize], components.query_label[b as usize],
                "stitched matrix leaked a cross-component pair ({a}, {b})"
            );
        }
        for (a, b, _) in r.ads.iter() {
            assert_eq!(
                components.ad_label[a as usize],
                components.ad_label[b as usize]
            );
        }
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let empty = ClickGraphBuilder::new().build();
        let s = Sharding::from_components(&empty);
        let r = run_sharded(&empty, &cfg(3), &UniformTransition, &s);
        assert_eq!(r.queries.n_pairs(), 0);
        assert_eq!(r.iterations_run, 3);
        assert_eq!(r.pair_counts, vec![(0, 0); 3]);

        // Singleton-query component only: still no pairs, dims preserved.
        let mut b = ClickGraphBuilder::new();
        b.reserve_queries(2);
        b.reserve_ads(2);
        b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1));
        let g = b.build();
        let s = Sharding::from_components(&g);
        let r = run_sharded(&g, &cfg(3), &UniformTransition, &s);
        assert_eq!(r.queries.n_nodes(), 2);
        assert_eq!(r.ads.n_nodes(), 2);
        assert_eq!(r.queries.n_pairs(), 0);
    }

    #[test]
    fn tolerance_converges_per_shard() {
        let g = multi_component(3, 7);
        let sharding = Sharding::from_components(&g);
        let c = cfg(200).with_tolerance(1e-9);
        let mono = run(&g, &c, &UniformTransition);
        let shard = run_sharded(&g, &c, &UniformTransition, &sharding);
        assert!(shard.converged);
        assert!(shard.iterations_run <= mono.iterations_run);
        // Early-exit error bound: t·C/(1−C) with C = 0.8, t = 1e-9.
        assert!(mono.queries.max_abs_diff(&shard.queries) < 1e-7);
    }

    #[test]
    #[should_panic(expected = "shards overlap")]
    fn overlapping_shards_panic_instead_of_summing() {
        let g = figure3_graph();
        let mut sharding = Sharding::from_components(&g);
        let dup = Shard {
            graph: sharding.shards[0].graph.clone(),
            mapping: sharding.shards[0].mapping.clone(),
            component: sharding.shards[0].component,
        };
        sharding.shards.push(dup);
        run_sharded(&g, &cfg(3), &UniformTransition, &sharding);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn mismatched_graph_rejected() {
        let g = figure3_graph();
        let sharding = Sharding::from_components(&g);
        let other = multi_component(2, 3);
        run_sharded(&other, &cfg(2), &UniformTransition, &sharding);
    }
}
