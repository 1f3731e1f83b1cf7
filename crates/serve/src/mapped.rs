//! Benchmark-pinned names for the one index type, kept until ROADMAP 4(c):
//! the frozen `benchmark/` sources spell them and implement one trait for
//! each of `RewriteIndex`, `MappedIndex` and `ServingIndex`, so these are
//! distinct newtypes (aliases would make those impls conflict) that
//! dereference to the view. Nothing else uses them.

use crate::index::RewriteIndex;
use crate::server::ServeState;
use simrankpp_graph::QueryId;

macro_rules! pinned {
    ($name:ident) => {
        /// A benchmark-pinned name for a [`RewriteIndex`].
        #[derive(Debug, Clone)]
        pub struct $name(pub RewriteIndex);

        // Inherent, not only reached through `Deref`: the benchmark calls
        // these two by path.
        impl $name {
            pub fn n_queries(&self) -> usize {
                self.0.n_queries()
            }
            pub fn row(&self, q: QueryId) -> (&[u32], &[f64]) {
                self.0.row(q)
            }
        }

        impl std::ops::Deref for $name {
            type Target = RewriteIndex;
            fn deref(&self) -> &RewriteIndex {
                &self.0
            }
        }
    };
}

pinned!(MappedIndex);
pinned!(ServingIndex);

impl MappedIndex {
    /// [`RewriteIndex::open`].
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<MappedIndex> {
        RewriteIndex::open(path).map(MappedIndex)
    }
}

impl ServeState {
    /// [`ServeState::fixed`] over an opened snapshot.
    pub fn mapped(index: MappedIndex) -> ServeState {
        ServeState::fixed(index.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::{same_index, section_range};
    use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::WeightKind;
    use std::path::PathBuf;

    fn fig3_index() -> RewriteIndex {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    }

    fn saved(name: &str) -> (RewriteIndex, PathBuf) {
        let index = fig3_index();
        let path = std::env::temp_dir().join(name);
        index.save(&path).unwrap();
        (index, path)
    }

    #[test]
    fn mapped_rows_match_heap_index_bit_for_bit() {
        let (index, path) = saved("simrankpp_mapped_rows.idx");
        let mapped = RewriteIndex::open(&path).unwrap();
        let loaded = RewriteIndex::load(&path).unwrap();
        #[cfg(unix)]
        assert_eq!(mapped.backing(), "mmap");
        assert_eq!(loaded.backing(), "heap");
        assert_eq!(mapped.as_bytes(), index.as_bytes());
        assert!(same_index(&mapped, &index));
        assert!(same_index(&loaded, &index));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_name_lookup_agrees_with_the_graph() {
        let (_, path) = saved("simrankpp_mapped_lookup.idx");
        let mapped = RewriteIndex::open(&path).unwrap();
        let g = figure3_graph();
        for q in g.queries() {
            let name = g.query_name(q).unwrap();
            assert_eq!(mapped.lookup(name), Some(q), "{name}");
        }
        assert_eq!(mapped.lookup("no such query"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rebuild_deep_checks_an_opened_generation_first() {
        // `open` defers payload checks; a rebuild must not copy corrupt
        // mapped rows into the next (heap) generation.
        use simrankpp_graph::GraphDelta;
        let (index, path) = saved("simrankpp_mapped_deep.idx");
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let d = GraphDelta::new();
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);
        let rebuild = |index: &RewriteIndex| {
            index.rebuild_incremental(&g2, &dirty, &cfg, &RewriterConfig::default(), None)
        };

        let mapped = RewriteIndex::open(&path).unwrap();
        mapped.verify_deep().unwrap();
        let (next, _) = rebuild(&mapped).unwrap();
        assert_eq!(next.backing(), "heap");
        assert_eq!(next.as_bytes(), index.as_bytes());
        drop(mapped); // unmap before the file is rewritten

        let mut bytes = index.as_bytes().to_vec();
        let score = section_range(&bytes, 0x04).start;
        bytes[score] ^= 0x40; // a score bit
        std::fs::write(&path, &bytes).unwrap();
        let corrupt = RewriteIndex::open(&path).unwrap();
        let err = rebuild(&corrupt).unwrap_err();
        assert!(err.contains("deep check"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_bit_flip_fails_open_serves_clean_rows_or_fails_verify_deep() {
        // `open` validates the section table only and defers payload
        // hashing to `verify_deep` by design, so the contract is weaker
        // than the deep load's refused-or-harmless: a mutant that opens and
        // serves anything but the clean index must fail `verify_deep`.
        // None may abort.
        use std::io::{Seek, SeekFrom, Write};
        let (index, path) = saved("simrankpp_mapped_bit_sweep.idx");
        let clean = std::fs::read(&path).unwrap();
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let mut poke = |at: usize, byte: u8| {
            file.seek(SeekFrom::Start(at as u64)).unwrap();
            file.write_all(&[byte]).unwrap();
        };
        let (mut refused, mut harmless, mut caught) = (0usize, 0usize, 0usize);
        for (at, &byte) in clean.iter().enumerate() {
            for bit in 0..8 {
                poke(at, byte ^ (1 << bit));
                match RewriteIndex::open(&path) {
                    Err(_) => refused += 1,
                    Ok(m) if same_index(&m, &index) => harmless += 1,
                    Ok(m) => {
                        assert!(
                            m.verify_deep().is_err(),
                            "byte {at} bit {bit} serves a different index and passes verify_deep"
                        );
                        caught += 1;
                    }
                }
            }
            poke(at, byte);
        }
        std::fs::remove_file(&path).ok();
        eprintln!("mapped bit flips: {refused} refused, {harmless} harmless, {caught} caught");
        assert_eq!(refused + harmless + caught, clean.len() * 8);
        assert!(caught > 0, "no payload mutant reached verify_deep");
    }

    #[test]
    fn out_of_range_row_is_empty_not_panic() {
        let (_, path) = saved("simrankpp_mapped_oob.idx");
        let mapped = RewriteIndex::open(&path).unwrap();
        let (t, s) = mapped.row(QueryId(u32::MAX));
        assert!(t.is_empty() && s.is_empty());
        assert_eq!(mapped.query_name(QueryId(u32::MAX)), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_refuses_v3_with_rebuild_hint() {
        let path = std::env::temp_dir().join("simrankpp_mapped_v3.idx");
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SRPPIDX\0");
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &buf).unwrap();
        let err = RewriteIndex::open(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported snapshot version 3"), "{msg}");
        assert!(msg.contains("rebuild"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_names_answer_like_the_view() {
        let (index, path) = saved("simrankpp_pinned_names.idx");
        let mapped = MappedIndex::open(&path).unwrap();
        let serving = ServingIndex(index.clone());
        assert_eq!(mapped.n_queries(), index.n_queries());
        assert_eq!(serving.n_queries(), index.n_queries());
        for q in (0..index.n_queries() as u32).map(QueryId) {
            assert_eq!(mapped.row(q), index.row(q));
            assert_eq!(serving.row(q), index.row(q));
            assert_eq!(mapped.lookup(index.query_name(q).unwrap()), Some(q));
        }
        let state = ServeState::mapped(mapped);
        assert_eq!(state.handle().load().as_bytes(), index.as_bytes());
        std::fs::remove_file(&path).ok();
    }
}
