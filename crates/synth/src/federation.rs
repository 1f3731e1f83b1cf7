//! Federated scale-out: many independent synthetic worlds streamed into a
//! single segmented on-disk store.
//!
//! The paper's two-week Yahoo! click graph holds millions of queries; no
//! single synthetic world here gets close without blowing up build memory.
//! Federation sidesteps that: generate many *independent* worlds (disjoint
//! topic universes, distinct seeds) and append each as one self-contained
//! segment of a [`SegmentedStore`](simrankpp_graph::SegmentedStore). Only
//! one world is ever materialized at a time, so writing a million-query
//! store needs the memory of a two-thousand-query one.
//!
//! Worlds are disjoint by construction, so every segment is a union of
//! whole connected components — exactly the invariant the segmented
//! pipeline (`RewriteIndex::build_segmented`) relies on. Global ids are
//! assigned contiguously per world in append order, which keeps the
//! local→global maps monotone and therefore preserves equal-score
//! tie-breaks bit-for-bit against a monolithic build of the same graph.
//!
//! Names are stripped: at this scale the name blob would dominate the
//! store, and the scale benches address rows by id. A store for serving
//! by name should come from `serve segment` on a named TSV instead.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use simrankpp_graph::{Block, ClickGraph, ClickGraphBuilder, SegmentWriter};

use crate::generator::{generate, GeneratorConfig};

/// Base seed for federated worlds: world `w` generates with
/// `FEDERATION_SEED_BASE + w`, matching the bench harness convention.
pub const FEDERATION_SEED_BASE: u64 = 0xFEDE_0000;

/// What [`write_store`] produced, summed over all appended worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederationStats {
    /// Worlds generated (== segments in the store).
    pub n_worlds: usize,
    /// Total query nodes across all worlds.
    pub total_queries: u64,
    /// Total ad nodes across all worlds.
    pub total_ads: u64,
    /// Total edges across all worlds.
    pub total_edges: u64,
    /// Final store size in bytes.
    pub file_bytes: u64,
}

/// Rebuilds `g` without its interners, preserving node counts (isolated
/// nodes included) and every edge. CSR order is id-sorted either way, so
/// the nameless graph is structurally identical.
fn strip_names(g: &ClickGraph) -> ClickGraph {
    let mut b = ClickGraphBuilder::with_capacity(g.n_edges());
    b.reserve_queries(g.n_queries() as u32);
    b.reserve_ads(g.n_ads() as u32);
    for (q, a, e) in g.edges() {
        b.add_edge(q, a, *e);
    }
    b.build()
}

/// Streams freshly generated worlds into `sink` until at least
/// `target_queries` query nodes have been written, one segment per world.
/// World `w` uses `world.with_seed(FEDERATION_SEED_BASE + w)`, so the
/// output is a pure function of `(world, target_queries)`.
pub fn write_federation<W: Write>(
    world: &GeneratorConfig,
    target_queries: u64,
    sink: W,
) -> io::Result<(W, FederationStats)> {
    let mut writer = SegmentWriter::new(sink)?;
    let mut q_base: u64 = 0;
    let mut a_base: u64 = 0;
    let mut total_edges: u64 = 0;
    let mut n_worlds = 0usize;

    while q_base < target_queries {
        let cfg = world
            .clone()
            .with_seed(FEDERATION_SEED_BASE + n_worlds as u64);
        let dataset = generate(&cfg);
        let graph = strip_names(&dataset.graph);
        let (nq, na, ne) = (graph.n_queries(), graph.n_ads(), graph.n_edges());
        if q_base + nq as u64 > u32::MAX as u64 || a_base + na as u64 > u32::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "federated store exceeds u32 id space",
            ));
        }
        let queries: Vec<u32> = (0..nq as u32).map(|i| q_base as u32 + i).collect();
        let ads: Vec<u32> = (0..na as u32).map(|i| a_base as u32 + i).collect();
        writer.append(&Block {
            graph,
            queries,
            ads,
        })?;
        q_base += nq as u64;
        a_base += na as u64;
        total_edges += ne as u64;
        n_worlds += 1;
    }

    let (sink, file_bytes) = writer.finish()?;
    Ok((
        sink,
        FederationStats {
            n_worlds,
            total_queries: q_base,
            total_ads: a_base,
            total_edges,
            file_bytes,
        },
    ))
}

/// [`write_federation`] to a file path, buffered.
pub fn write_store(
    world: &GeneratorConfig,
    target_queries: u64,
    path: &Path,
) -> io::Result<FederationStats> {
    // A multi-gigabyte store is exactly the artifact a torn write hurts
    // most: stream into the temp sibling, then fsync + rename + dir-fsync.
    let (atomic, file) = simrankpp_util::AtomicFile::create(path)?;
    let (writer, stats) = write_federation(world, target_queries, BufWriter::new(file))?;
    let file = writer.into_inner().map_err(|e| e.into_error())?;
    atomic.commit(file)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_graph::SegmentedStore;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(name)
    }

    #[test]
    fn federated_store_roundtrips_with_contiguous_ids() {
        let path = tmp("simrankpp_federation_roundtrip.seg");
        let world = GeneratorConfig::tiny();
        let stats = write_store(&world, 150, &path).unwrap();
        assert!(
            stats.n_worlds >= 2,
            "tiny worlds should need several appends"
        );
        assert!(stats.total_queries >= 150);

        let mut store = SegmentedStore::open(&path).unwrap();
        assert_eq!(store.n_segments(), stats.n_worlds);
        assert_eq!(store.total_queries(), stats.total_queries);
        assert_eq!(store.total_ads(), stats.total_ads);
        assert_eq!(store.total_edges(), stats.total_edges);
        assert!(!store.has_names());
        assert_eq!(store.file_len(), stats.file_bytes);

        // Global ids are contiguous in append order on both sides.
        let (mut next_q, mut next_a) = (0u32, 0u32);
        for i in 0..store.n_segments() {
            let seg = store.load_segment(i).unwrap();
            seg.graph.validate().unwrap();
            assert!(!seg.has_names());
            for (local, &global) in seg.queries.iter().enumerate() {
                assert_eq!(global, next_q + local as u32);
            }
            for (local, &global) in seg.ads.iter().enumerate() {
                assert_eq!(global, next_a + local as u32);
            }
            next_q += seg.graph.n_queries() as u32;
            next_a += seg.graph.n_ads() as u32;
        }
        assert_eq!(next_q as u64, stats.total_queries);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn federation_is_deterministic() {
        let world = GeneratorConfig::tiny();
        let (a, sa) = write_federation(&world, 100, Vec::new()).unwrap();
        let (b, sb) = write_federation(&world, 100, Vec::new()).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a, b, "same config must produce identical bytes");
    }

    #[test]
    fn stripped_worlds_keep_structure() {
        let d = generate(&GeneratorConfig::tiny());
        let bare = strip_names(&d.graph);
        assert_eq!(bare.n_queries(), d.graph.n_queries());
        assert_eq!(bare.n_ads(), d.graph.n_ads());
        assert_eq!(bare.n_edges(), d.graph.n_edges());
        assert!(bare.query_interner().is_none());
        for (q, a, e) in d.graph.edges() {
            assert_eq!(bare.edge(q, a), Some(e));
        }
    }
}
