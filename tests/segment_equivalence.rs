//! Segmented-pipeline ⇔ monolithic differential suite.
//!
//! The beyond-RAM path must be invisible in the output: a store written in
//! component-group segments reassembles the original graph exactly, an
//! index built segment-at-a-time (`RewriteIndex::build_segmented`) equals
//! the monolithic build bit-for-bit (same targets, same score bits, same
//! names — the monotone local→global id maps preserve equal-score
//! tie-breaks), and a snapshot answers identically whether its bytes are
//! mmapped (`RewriteIndex::open`) or read into the heap and deep-checked
//! (`RewriteIndex::load`).
//!
//! Property tests drive all three over random bipartite click graphs and
//! random segment targets; a fixed synth-world case covers a realistic
//! shape on top.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simrankpp::graph::segments::{write_segmented, SegmentedStore};
use simrankpp::prelude::*;
use simrankpp::serve::RewriteIndex;
use simrankpp::synth::generator::generate;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique temp path per invocation so proptest cases never collide.
fn tmp(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("simrankpp_segeq_{}_{n}_{name}", std::process::id()))
}

/// Named bipartite graph from raw `(query, ad, clicks)` triples; repeated
/// pairs accumulate, names make the by-name serving path exercisable.
fn graph_from_edges(edges: &[(u8, u8, u8)]) -> ClickGraph {
    let mut b = ClickGraphBuilder::new();
    for &(q, a, c) in edges {
        b.add_named(
            &format!("q{q}"),
            &format!("ad{a}"),
            EdgeData::from_clicks(c as u64 + 1),
        );
    }
    b.build()
}

fn cfg() -> SimrankConfig {
    SimrankConfig::default()
        .with_iterations(5)
        .with_prune_threshold(1e-4)
}

fn monolithic_index(g: &ClickGraph) -> RewriteIndex {
    let method = Method::compute(MethodKind::WeightedSimrank, g, &cfg());
    let rewriter = Rewriter::new(g, method, RewriterConfig::default());
    RewriteIndex::build(&rewriter, None, 1)
}

fn segmented_index(g: &ClickGraph, target_nodes: usize, path: &Path) -> RewriteIndex {
    write_segmented(g, path, target_nodes).unwrap();
    let mut store = SegmentedStore::open(path).unwrap();
    RewriteIndex::build_segmented(
        &mut store,
        MethodKind::WeightedSimrank,
        &cfg(),
        RewriterConfig::default(),
        None,
    )
    .unwrap()
}

/// Every observable of two indexes, compared exactly (scores by f64 `==`:
/// the contract is identical bits, not mere closeness).
fn assert_indexes_identical(a: &RewriteIndex, b: &RewriteIndex) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.n_queries(), b.n_queries());
    prop_assert_eq!(a.n_entries(), b.n_entries());
    for q in 0..a.n_queries() as u32 {
        let q = QueryId(q);
        let (ra, rb) = (a.rewrites_of(q), b.rewrites_of(q));
        prop_assert_eq!(ra.ids(), rb.ids(), "targets differ at {:?}", q);
        prop_assert_eq!(ra.scores(), rb.scores(), "score bits differ at {:?}", q);
        prop_assert_eq!(a.query_name(q), b.query_name(q));
    }
    Ok(())
}

fn edge_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..40, 0u8..30, 0u8..20), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn segmented_store_reassembles_the_graph_exactly(
        edges in edge_strategy(),
        target in 1usize..64,
    ) {
        let g = graph_from_edges(&edges);
        let path = tmp("store.seg");
        write_segmented(&g, &path, target).unwrap();
        let mut store = SegmentedStore::open(&path).unwrap();
        prop_assert_eq!(store.total_queries(), g.n_queries() as u64);
        prop_assert_eq!(store.total_edges(), g.n_edges() as u64);
        let reassembled = store.load_all().unwrap();
        prop_assert_eq!(g.fingerprint(), reassembled.fingerprint());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segmented_build_matches_monolithic_bit_for_bit(
        edges in edge_strategy(),
        target in 1usize..48,
    ) {
        let g = graph_from_edges(&edges);
        let mono = monolithic_index(&g);
        let path = tmp("build.seg");
        let seg = segmented_index(&g, target, &path);
        assert_indexes_identical(&mono, &seg)?;
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_and_heap_loading_serve_identical_answers(
        edges in edge_strategy(),
    ) {
        let g = graph_from_edges(&edges);
        let index = monolithic_index(&g);
        let path = tmp("snap.idx");
        index.write_snapshot(File::create(&path).unwrap()).unwrap();

        let mapped = RewriteIndex::open(&path).unwrap();
        let heap = RewriteIndex::load(&path).unwrap();
        #[cfg(unix)]
        prop_assert_eq!(mapped.backing(), "mmap");
        prop_assert_eq!(heap.backing(), "heap");
        prop_assert_eq!(mapped.as_bytes(), index.as_bytes());
        prop_assert_eq!(heap.as_bytes(), index.as_bytes());
        assert_indexes_identical(&index, &mapped)?;
        assert_indexes_identical(&index, &heap)?;
        for q in 0..g.n_queries() as u32 {
            let name = g.query_name(QueryId(q)).unwrap();
            prop_assert_eq!(mapped.lookup(name), Some(QueryId(q)));
            prop_assert_eq!(heap.lookup(name), Some(QueryId(q)));
        }
        prop_assert_eq!(mapped.lookup("no such query"), None);
        std::fs::remove_file(&path).ok();
    }
}

/// The same three equivalences on one realistically shaped synth world —
/// a fixed case that fails loudly without proptest shrinking in the way.
#[test]
fn synth_world_survives_the_full_segmented_round_trip() {
    let g = generate(&GeneratorConfig::tiny()).graph;
    let mono = monolithic_index(&g);

    let store_path = tmp("synth.seg");
    let seg = segmented_index(&g, 16, &store_path);
    assert_eq!(mono.n_entries(), seg.n_entries());
    for q in 0..g.n_queries() as u32 {
        let q = QueryId(q);
        assert_eq!(mono.rewrites_of(q).ids(), seg.rewrites_of(q).ids());
        assert_eq!(mono.rewrites_of(q).scores(), seg.rewrites_of(q).scores());
    }

    let snap_path = tmp("synth.idx");
    seg.write_snapshot(File::create(&snap_path).unwrap())
        .unwrap();
    let mapped = RewriteIndex::open(&snap_path).unwrap();
    mapped.verify_deep().unwrap();
    for q in 0..g.n_queries() as u32 {
        let q = QueryId(q);
        let (t, s) = mapped.row(q);
        assert_eq!(t, mono.rewrites_of(q).ids());
        assert_eq!(s, mono.rewrites_of(q).scores());
    }
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&snap_path).ok();
}
