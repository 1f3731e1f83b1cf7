//! Differential harness: incremental recompute == from-scratch recompute.
//!
//! The score matrix is block-diagonal over connected components (see
//! `simrankpp::graph::Block`), and component decomposition lives in one
//! layer, the index build. This suite first pins the theorem that layer
//! rests on at **score level**: an engine run on each component block alone
//! reproduces that block of the monolithic run bit for bit (uniform and
//! weighted, pruned and unpruned), and the monolithic run never stores a
//! pair straddling two components — and so do the live single-source
//! engine's per-iteration diagonals, which those block runs record
//! (`incremental_live_correction_*`: block-local == one whole-graph run,
//! component-local refresh == scratch precompute, both on `to_bits()` at
//! every series level).
//! Then it pins the *temporal* consequence:
//! after a [`GraphDelta`], recomputing only the dirty components and copying
//! every clean query's row ([`RewriteIndex::rebuild_incremental`], the one
//! refresh path production runs) reproduces a from-scratch index build over
//! the updated graph **bit for bit** at test scale — for insert-only deltas,
//! component-merging inserts, removals (splits), and mixed batches.
//! Alongside the equivalence, the suite proves the accounting ISSUE 4
//! demands:
//!
//! * delta application is equivalent to rebuilding the graph from the
//!   concatenated edge list (insert-only; duplicate edges accumulate
//!   identically — same [`EdgeData::merge`] order — so even the merged ECR
//!   f64s are bit-identical);
//! * `dirty_components` is *sound*: every changed, created, or removed
//!   score pair lies in a dirty component of the new labeling;
//! * clean components are strictly zero-recompute: refreshed and copied
//!   row counts add up to the new graph's queries, exactly the dirty
//!   queries are refreshed, and every clean query's row is the previous
//!   generation's, verbatim.
//!
//! Runs in CI under `--release` too (`cargo test --release -- incremental`):
//! bit-identical stitching must survive optimized codegen.

mod support;

use proptest::prelude::*;
use simrankpp::core::engine::{self, Walk, WeightedTransition};
use simrankpp::core::weighted::SpreadMode;
use simrankpp::core::{DiagonalCorrection, RewriterConfig, ScoreMatrix, SingleSourceEngine};
use simrankpp::graph::components::connected_components;
use simrankpp::graph::delta::{dirty_for_endpoints, GraphDelta};
use simrankpp::graph::dirty_blocks;
use simrankpp::prelude::*;
use simrankpp::serve::RewriteIndex;
use simrankpp::synth::spam::{inject_click_spam, SpamConfig};
use support::{cfg, synth_graph, with_trivial_components};

/// A deterministic mixed delta over `g`'s id space: `n_upserts` edge
/// upserts (some onto existing edges, some new, some to brand-new node ids
/// when `grow`), plus up to `n_removals` removals of existing edges.
fn mixed_delta(
    g: &ClickGraph,
    seed: u64,
    n_upserts: usize,
    n_removals: usize,
    grow: bool,
) -> GraphDelta {
    let mut d = GraphDelta::new();
    let mut x = seed | 1;
    let mut step = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    let nq = g.n_queries() as u64;
    let na = g.n_ads() as u64;
    for i in 0..n_upserts {
        let grow_this = grow && i % 5 == 4;
        let q = if grow_this {
            nq + (step() % 3)
        } else {
            step() % nq.max(1)
        };
        let a = step() % na.max(1);
        d.upsert(
            QueryId(q as u32),
            AdId(a as u32),
            EdgeData::from_clicks(1 + step() % 7),
        );
    }
    let edges: Vec<(QueryId, AdId)> = g.edges().map(|(q, a, _)| (q, a)).collect();
    for _ in 0..n_removals {
        if edges.is_empty() {
            break;
        }
        let (q, a) = edges[(step() % edges.len() as u64) as usize];
        d.remove(q, a);
    }
    d
}

/// Runs the engine on every component block of `g` alone and checks the
/// blocks, remapped to global ids, are exactly the monolithic run: same pair
/// set, bit-identical f64s, same per-iteration stored-pair totals.
fn assert_blocks_equal_monolithic(g: &ClickGraph, c: &SimrankConfig, t: &Walk) {
    let mono = engine::run(g, c, t);
    let all_dirty = dirty_for_endpoints(g, g.edges().map(|(q, a, _)| (q, a)));
    let mut block_pairs = (0usize, 0usize);
    let mut pair_counts = vec![(0usize, 0usize); c.iterations];
    for blk in dirty_blocks(g, &all_dirty) {
        let block = engine::run(&blk.graph, c, t);
        assert_eq!(block.iterations_run, mono.iterations_run);
        for (sum, part) in pair_counts.iter_mut().zip(&block.pair_counts) {
            *sum = (sum.0 + part.0, sum.1 + part.1);
        }
        let (qmap, amap) = (&blk.queries, &blk.ads);
        for (a, b, v) in block.queries.iter() {
            let (ga, gb) = (qmap[a as usize], qmap[b as usize]);
            assert_eq!(
                v.to_bits(),
                mono.queries.get(ga, gb).to_bits(),
                "query pair ({ga}, {gb}) drifted"
            );
        }
        for (a, b, v) in block.ads.iter() {
            let (ga, gb) = (amap[a as usize], amap[b as usize]);
            assert_eq!(
                v.to_bits(),
                mono.ads.get(ga, gb).to_bits(),
                "ad pair ({ga}, {gb}) drifted"
            );
        }
        block_pairs.0 += block.queries.n_pairs();
        block_pairs.1 += block.ads.n_pairs();
    }
    // Distinct blocks remap to distinct global pairs, so equal totals mean
    // the monolithic run holds no pair outside the blocks either.
    assert_eq!(block_pairs, (mono.queries.n_pairs(), mono.ads.n_pairs()));
    assert_eq!(pair_counts, mono.pair_counts);
}

fn assert_same_correction(a: &DiagonalCorrection, b: &DiagonalCorrection, what: &str) {
    let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.levels.len(), b.levels.len(), "{what}: level count");
    for (j, (la, lb)) in a.levels.iter().zip(&b.levels).enumerate() {
        assert_eq!(
            bits(&la.d_query),
            bits(&lb.d_query),
            "{what}: level {j} d_Q"
        );
        assert_eq!(bits(&la.d_ad), bits(&lb.d_ad), "{what}: level {j} d_A");
    }
}

/// The live engine's block-local correction is the one a single whole-graph
/// run records, bit for bit at every level.
fn assert_live_correction_equals_monolithic(g: &ClickGraph, c: &SimrankConfig, t: &Walk) {
    let want = DiagonalCorrection::whole_graph(g, c, t);
    let live = SingleSourceEngine::new(g, c, t);
    assert_same_correction(live.correction(), &want, &format!("{t:?}"));
    // Block-level workers change nothing either.
    let parallel = SingleSourceEngine::new(g, &c.with_threads(3), t);
    assert_same_correction(parallel.correction(), &want, "3 workers");
}

/// Walks a chain of mixed deltas (edge upserts, removals, new queries, a
/// new ad every other step), refreshing the live engine component-locally
/// at each step: every generation equals a scratch precompute over its
/// graph bitwise, and a clean component's row does not move a bit.
fn assert_live_refresh_chain_equals_scratch(
    g0: &ClickGraph,
    c: &SimrankConfig,
    t: &Walk,
    seed: u64,
) {
    let mut g = g0.clone();
    let mut live = SingleSourceEngine::new(&g, c, t);
    for step in 0..4u64 {
        let mut d = mixed_delta(&g, seed ^ (step + 1), 4, 2, true);
        if step % 2 == 1 {
            let q = QueryId((seed.wrapping_add(step) % g.n_queries() as u64) as u32);
            d.upsert(q, AdId(g.n_ads() as u32), EdgeData::from_clicks(2));
        }
        let g1 = d.apply(&g);
        let dirty = d.dirty_components(&g1);
        let next = SingleSourceEngine::refreshed(live.correction(), &g1, &dirty, c, t).unwrap();
        let scratch = SingleSourceEngine::new(&g1, c, t);
        assert_same_correction(
            next.correction(),
            scratch.correction(),
            "refresh vs scratch",
        );
        let clean = g1
            .queries()
            .filter(|&q| !dirty.query_dirty(q) && g1.query_degree(q) > 0);
        for q in clean.take(3) {
            let bits = |row: Vec<(QueryId, f64)>| {
                row.into_iter()
                    .map(|(w, s)| (w, s.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                bits(live.row(&g, q)),
                bits(next.row(&g1, q)),
                "clean row of {q}"
            );
        }
        g = g1;
        live = next;
    }
}

fn build_index(g: &ClickGraph, kind: MethodKind, c: &SimrankConfig) -> RewriteIndex {
    let rewriter = Rewriter::new(g, Method::compute(kind, g, c), RewriterConfig::default());
    RewriteIndex::build(&rewriter, None, 1)
}

fn assert_same_rows(a: &RewriteIndex, b: &RewriteIndex, what: &str) {
    assert_eq!(a.n_queries(), b.n_queries(), "{what}: query count differs");
    assert_eq!(a.n_entries(), b.n_entries(), "{what}: entry count differs");
    for q in (0..a.n_queries() as u32).map(QueryId) {
        let (x, y) = (a.rewrites_of(q), b.rewrites_of(q));
        assert_eq!(x.ids(), y.ids(), "{what}: targets differ for query {q}");
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(x.scores()),
            bits(y.scores()),
            "{what}: scores differ for query {q}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn incremental_component_blocks_bit_identical_to_monolithic(
        n_topics in 1usize..6,
        n_queries in 30usize..120,
        seed in 0u64..1_000_000,
        variant in 0u8..8,
    ) {
        // The theorem `rebuild_incremental` and `build_segmented` rest on,
        // at score level: per-component engine runs == the monolithic run.
        let g = synth_graph(n_topics, n_queries, seed, variant & 2 == 2);
        let g = if variant & 1 == 1 {
            let spam = SpamConfig { n_spam_ads: 1, queries_per_ad: 8, clicks_per_edge: 25, seed };
            inject_click_spam(&g, &spam).0
        } else {
            g
        };
        let c = cfg(5).with_prune_threshold(if variant & 4 == 4 { 1e-4 } else { 0.0 });
        assert_blocks_equal_monolithic(&g, &c, &Walk::Uniform);
        let t = Walk::Weighted(WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential });
        assert_blocks_equal_monolithic(&g, &c, &t);
    }

    #[test]
    fn incremental_live_correction_blocks_bit_identical_to_monolithic(
        n_topics in 1usize..6,
        n_queries in 30usize..120,
        seed in 0u64..1_000_000,
        variant in 0u8..4,
    ) {
        // The same theorem one level up: the live engine's per-iteration
        // diagonals are the block runs' own, trivial components and isolated
        // nodes in closed form.
        let g = with_trivial_components(&synth_graph(n_topics, n_queries, seed, variant & 2 == 2));
        let c = cfg(5).with_prune_threshold(if variant & 1 == 1 { 1e-4 } else { 0.0 });
        assert_live_correction_equals_monolithic(&g, &c, &Walk::Uniform);
        let t = Walk::Weighted(WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential });
        assert_live_correction_equals_monolithic(&g, &c, &t);
    }

    #[test]
    fn incremental_live_correction_refresh_bit_identical_to_scratch(
        n_topics in 2usize..6,
        n_queries in 30usize..100,
        seed in 0u64..1_000_000,
        variant in 0u8..4,
    ) {
        let g = with_trivial_components(&synth_graph(n_topics, n_queries, seed, variant & 2 == 2));
        let c = cfg(5).with_prune_threshold(1e-4);
        if variant & 1 == 1 {
            let t = Walk::Weighted(WeightedTransition { kind: WeightKind::Clicks, spread: SpreadMode::Exponential });
            assert_live_refresh_chain_equals_scratch(&g, &c, &t, seed);
        } else {
            assert_live_refresh_chain_equals_scratch(&g, &c, &Walk::Uniform, seed);
        }
    }

    #[test]
    fn incremental_invariant_no_cross_component_scores(
        n_topics in 1usize..7,
        n_queries in 20usize..140,
        seed in 0u64..1_000_000,
    ) {
        // The invariant that makes decomposition exact: the monolithic
        // engine never stores a pair straddling two components, i.e. queries
        // (and ads) in different components have score exactly 0.0.
        let g = synth_graph(n_topics, n_queries, seed, true);
        let labels = connected_components(&g);
        let r = engine::run(&g, &cfg(8), &Walk::Uniform);
        for (a, b, v) in r.queries.iter() {
            prop_assert!(v > 0.0);
            prop_assert_eq!(
                labels.query_label[a as usize], labels.query_label[b as usize],
                "cross-component query pair ({}, {}) scored {}", a, b, v
            );
        }
        for (a, b, _) in r.ads.iter() {
            prop_assert_eq!(labels.ad_label[a as usize], labels.ad_label[b as usize]);
        }
        // Spot-check the contrapositive read-out: a pair from different
        // components reads exactly 0.0 through the matrix API.
        let cross = g.queries().find_map(|q1| {
            g.queries()
                .find(|q2| labels.query_label[q1.index()] != labels.query_label[q2.index()])
                .map(|q2| (q1, q2))
        });
        if let Some((q1, q2)) = cross {
            prop_assert_eq!(r.queries.get(q1.0, q2.0), 0.0);
        }
    }

    #[test]
    fn incremental_delta_apply_equals_concatenated_rebuild(
        n_queries in 20usize..100,
        seed in 0u64..1_000_000,
        n_upserts in 1usize..25,
    ) {
        // Insert-only deltas are order-free: applying the delta must equal
        // rebuilding from the concatenation of the old edge list and the
        // delta's edges — including duplicate-edge weight accumulation,
        // which must merge in the same order and therefore produce
        // bit-identical ECR floats.
        let g0 = synth_graph(3, n_queries, seed, false);
        let d = mixed_delta(&g0, seed ^ 0xD5, n_upserts, 0, true);
        let applied = d.apply(&g0);

        let mut b = ClickGraphBuilder::new();
        b.reserve_queries(g0.n_queries() as u32);
        b.reserve_ads(g0.n_ads() as u32);
        for (q, a, e) in g0.edges() {
            b.add_edge(q, a, *e);
        }
        for op in d.ops() {
            match *op {
                simrankpp::graph::delta::DeltaOp::Upsert { query, ad, data } => {
                    b.add_edge(query, ad, data)
                }
                simrankpp::graph::delta::DeltaOp::Remove { .. } => unreachable!(),
            }
        }
        let concat = b.build();

        prop_assert_eq!(applied.n_queries(), concat.n_queries());
        prop_assert_eq!(applied.n_ads(), concat.n_ads());
        prop_assert_eq!(applied.n_edges(), concat.n_edges());
        for (q, a, e) in concat.edges() {
            let got = applied.edge(q, a).expect("edge missing after apply");
            prop_assert_eq!(got.impressions, e.impressions);
            prop_assert_eq!(got.clicks, e.clicks);
            prop_assert_eq!(
                got.expected_click_rate.to_bits(),
                e.expected_click_rate.to_bits(),
                "ECR accumulation drifted on edge ({}, {})", q, a
            );
        }
        applied.validate().unwrap();
    }

    #[test]
    fn incremental_dirty_components_are_sound(
        n_queries in 20usize..100,
        seed in 0u64..1_000_000,
        n_upserts in 0usize..12,
        n_removals in 0usize..6,
    ) {
        // Soundness: every score that changed (value drift, new pair, or
        // vanished pair) lies in a dirty component of the new labeling.
        let g0 = synth_graph(4, n_queries, seed, true);
        let d = mixed_delta(&g0, seed ^ 0x50F7, n_upserts, n_removals, true);
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);

        let c = cfg(5);
        let before = engine::run(&g0, &c, &Walk::Uniform);
        let after = engine::run(&g1, &c, &Walk::Uniform);

        let changed_pairs = |old: &ScoreMatrix, new: &ScoreMatrix| {
            let mut out: Vec<(u32, u32)> = Vec::new();
            for (a, b, v) in new.iter() {
                if old.get(a, b).to_bits() != v.to_bits() {
                    out.push((a, b));
                }
            }
            for (a, b, v) in old.iter() {
                if new.get(a, b).to_bits() != v.to_bits() {
                    out.push((a, b));
                }
            }
            out
        };
        for (a, b) in changed_pairs(&before.queries, &after.queries) {
            prop_assert!(
                dirty.query_dirty(QueryId(a)) && dirty.query_dirty(QueryId(b)),
                "changed query pair ({}, {}) is not in a dirty component", a, b
            );
        }
        for (a, b) in changed_pairs(&before.ads, &after.ads) {
            prop_assert!(
                dirty.ad_dirty(AdId(a)) && dirty.ad_dirty(AdId(b)),
                "changed ad pair ({}, {}) is not in a dirty component", a, b
            );
        }
    }

    #[test]
    fn incremental_index_rebuild_equals_full_rebuild(
        n_queries in 20usize..80,
        seed in 0u64..1_000_000,
        n_upserts in 1usize..8,
        n_removals in 0usize..4,
        weighted in 0u8..2,
    ) {
        // End to end through the serving layer: refreshing only dirty rows
        // (and copying clean ones) reproduces a from-scratch index build
        // over the new graph, targets and scores bit-identical — for the
        // uniform and the weighted walk, pruned.
        let g0 = synth_graph(3, n_queries, seed, false);
        let d = mixed_delta(&g0, seed ^ 0x1DE, n_upserts, n_removals, false);
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        let c = cfg(5).with_prune_threshold(1e-4);
        let kind = if weighted == 1 { MethodKind::WeightedSimrank } else { MethodKind::Simrank };

        let old_index = build_index(&g0, kind, &c);
        let (inc, stats) = old_index
            .rebuild_incremental(&g1, &dirty, &c, &RewriterConfig::default(), None)
            .unwrap();
        inc.validate().unwrap();
        assert_same_rows(&inc, &build_index(&g1, kind, &c), "mixed delta");
        prop_assert_eq!(stats.refreshed_queries + stats.copied_queries, g1.n_queries());
        prop_assert_eq!(stats.refreshed_queries, dirty.dirty_query_count());
        // Strictly zero-recompute for clean components: every clean
        // query's row is the previous generation's, verbatim.
        for q in g1.queries().filter(|&q| !dirty.query_dirty(q)) {
            prop_assert_eq!(inc.rewrites_of(q).ids(), old_index.rewrites_of(q).ids());
            prop_assert_eq!(inc.rewrites_of(q).scores(), old_index.rewrites_of(q).scores());
        }
    }
}

#[test]
fn incremental_insert_only_merge_and_removal_cases() {
    // The three delta shapes ISSUE 4 names, pinned deterministically on a
    // multi-component graph: (a) insert within a component, (b) insert
    // bridging two components (merge), (c) removal splitting a component.
    let g0 = synth_graph(5, 80, 42, false);
    let c = cfg(6);
    let prev = build_index(&g0, MethodKind::Simrank, &c);
    let components = connected_components(&g0);
    assert!(components.count >= 2, "fixture must be multi-component");

    // (a) insert-only, component-local.
    let (q0, a0, _) = g0.edges().next().unwrap();
    let mut insert = GraphDelta::new();
    insert.upsert(q0, a0, EdgeData::from_clicks(5));

    // (b) merge: connect two queries from different components via a new ad
    // edge to the second component's ad.
    let mut merge = GraphDelta::new();
    let other_q = g0
        .queries()
        .find(|&q| {
            components.query_label[q.index()] != components.query_label[q0.index()]
                && g0.query_degree(q) > 0
        })
        .expect("a second component with a query");
    let (other_ads, _) = g0.ads_of(other_q);
    merge.upsert(q0, other_ads[0], EdgeData::from_clicks(2));

    // (c) removal.
    let mut removal = GraphDelta::new();
    removal.remove(q0, a0);

    for (name, d) in [("insert", insert), ("merge", merge), ("removal", removal)] {
        let g1 = d.apply(&g0);
        let dirty = d.dirty_components(&g1);
        let (inc, stats) = prev
            .rebuild_incremental(&g1, &dirty, &c, &RewriterConfig::default(), None)
            .unwrap();
        assert_same_rows(&inc, &build_index(&g1, MethodKind::Simrank, &c), name);
        assert!(
            stats.n_clean_components > 0,
            "{name}: fixture should leave some components clean"
        );
        assert!(stats.copied_entries > 0, "{name}: nothing was reused");
    }
}
