//! Zero-copy serving over a mapped snapshot v4.
//!
//! [`MappedIndex::open`] does O(#sections) work: map (or read) the file,
//! check the version, shallow-parse the arena, and record each section's
//! byte range. No array is copied, hashed, or even touched — startup cost
//! is independent of index size, which is what lets a 1M-query index serve
//! its first request milliseconds after exec. The price is deferred
//! validation: per-row accessors are bounds-checked and answer "absent"
//! rather than panicking when a hostile file lies about its shape, and
//! [`MappedIndex::verify_deep`] re-hashes every section on demand.
//!
//! Name lookups binary-search the pre-sorted `NAME_HASH`/`NAME_IDS`
//! sections written at build time (colliding hashes are resolved by
//! comparing the actual name bytes), so the mapped path never materialises
//! a hash map.
//!
//! [`ServingIndex`] is what a server actually holds: either a classic
//! heap-owned [`RewriteIndex`] or a [`MappedIndex`], behind one lookup
//! surface.

use crate::index::{IndexMeta, RewriteIndex};
use crate::mmap::Backing;
use crate::snapshot::{
    self, check_version, decode_meta, MAGIC, SEC_META, SEC_NAME_BLOB, SEC_NAME_HASH, SEC_NAME_IDS,
    SEC_NAME_OFFS, SEC_OFFSETS, SEC_SCORES, SEC_TARGETS,
};
use simrankpp_graph::QueryId;
use simrankpp_util::{cast_slice, fnv1a, Arena, Pod};
use std::io;
use std::ops::Range;
use std::path::Path;

/// Byte ranges of the name sections within the backing buffer.
#[derive(Debug)]
struct NameRanges {
    offs: Range<usize>,
    blob: Range<usize>,
    hash: Range<usize>,
    ids: Range<usize>,
}

/// A read-only rewrite index served directly out of a snapshot v4 file's
/// bytes — mapped when the platform allows, heap-read otherwise.
#[derive(Debug)]
pub struct MappedIndex {
    backing: Backing,
    meta: IndexMeta,
    n_queries: u32,
    n_entries: u64,
    offsets: Range<usize>,
    targets: Range<usize>,
    scores: Range<usize>,
    names: Option<NameRanges>,
}

impl MappedIndex {
    /// Opens `path` preferring `mmap` (heap fallback). O(#sections).
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<MappedIndex> {
        Self::from_backing(Backing::open(path.as_ref())?)
    }

    /// Opens `path` into the heap unconditionally (differential tests).
    pub fn open_heap<P: AsRef<Path>>(path: P) -> io::Result<MappedIndex> {
        Self::from_backing(Backing::open_heap(path.as_ref())?)
    }

    /// Parses the arena shallowly and records section ranges. The only
    /// per-section work is an alignment/length check (`cast_slice` on a
    /// borrowed range); payloads are not hashed — see
    /// [`MappedIndex::verify_deep`].
    fn from_backing(backing: Backing) -> io::Result<MappedIndex> {
        let (meta, n_queries, n_entries, offsets, targets, scores, names) = {
            let bytes = backing.bytes();
            check_version(bytes)?;
            let arena = Arena::parse(bytes, MAGIC).map_err(|e| snapshot::corrupt(&e))?;

            let meta_words: &[u64] = arena.slice(SEC_META).map_err(|e| snapshot::corrupt(&e))?;
            let (meta, has_names, n_queries, n_entries) = decode_meta(meta_words)?;

            let offsets = typed_range::<u32>(&arena, bytes, SEC_OFFSETS)?;
            let targets = typed_range::<u32>(&arena, bytes, SEC_TARGETS)?;
            let scores = typed_range::<f64>(&arena, bytes, SEC_SCORES)?;
            // O(1) shape checks only: section lengths against header
            // counts, plus the two offset endpoints. Interior monotonicity
            // is *not* scanned here (that would make startup O(n)); row
            // accessors bounds-check instead.
            if (offsets.len() / 4) as u64 != n_queries + 1 {
                return Err(snapshot::corrupt(
                    "offsets section disagrees with header query count",
                ));
            }
            if (targets.len() / 4) as u64 != n_entries || (scores.len() / 8) as u64 != n_entries {
                return Err(snapshot::corrupt(
                    "entry sections disagree with header entry count",
                ));
            }
            {
                let offs: &[u32] =
                    cast_slice(&bytes[offsets.clone()]).map_err(|e| snapshot::corrupt(&e))?;
                if offs.first() != Some(&0) {
                    return Err(snapshot::corrupt("offsets must start at 0"));
                }
                if offs.last().map(|&o| o as u64) != Some(n_entries) {
                    return Err(snapshot::corrupt("offsets do not end at the entry count"));
                }
            }
            let names = if has_names {
                let offs = typed_range::<u64>(&arena, bytes, SEC_NAME_OFFS)?;
                let blob = byte_range(&arena, bytes, SEC_NAME_BLOB)?;
                let hash = typed_range::<u64>(&arena, bytes, SEC_NAME_HASH)?;
                let ids = typed_range::<u32>(&arena, bytes, SEC_NAME_IDS)?;
                if offs.is_empty() {
                    return Err(snapshot::corrupt("empty name offsets section"));
                }
                let n_names = offs.len() / 8 - 1;
                if hash.len() / 8 != n_names || ids.len() / 4 != n_names {
                    return Err(snapshot::corrupt(
                        "name lookup table disagrees with name count",
                    ));
                }
                Some(NameRanges {
                    offs,
                    blob,
                    hash,
                    ids,
                })
            } else {
                None
            };
            (meta, n_queries, n_entries, offsets, targets, scores, names)
        };
        Ok(MappedIndex {
            backing,
            meta,
            n_queries: n_queries as u32,
            n_entries,
            offsets,
            targets,
            scores,
            names,
        })
    }

    /// Build provenance.
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Number of indexed queries.
    pub fn n_queries(&self) -> usize {
        self.n_queries as usize
    }

    /// Total stored rewrites across all rows.
    pub fn n_entries(&self) -> usize {
        self.n_entries as usize
    }

    /// `"mmap"` or `"heap"`.
    pub fn backing_kind(&self) -> &'static str {
        self.backing.kind()
    }

    /// Size of the backing snapshot file in bytes.
    pub fn file_len(&self) -> u64 {
        self.backing.bytes().len() as u64
    }

    #[inline]
    fn slice_of<T: Pod>(&self, range: &Range<usize>) -> &[T] {
        // Validated at open; the backing is immutable, so the cast cannot
        // start failing later.
        cast_slice(&self.backing.bytes()[range.clone()]).expect("section validated at open")
    }

    /// The row of `q`: `(targets, scores)` slices borrowed from the file
    /// bytes. Bounds-checked — a corrupt (non-monotone or out-of-range)
    /// offset pair answers an empty row rather than panicking, because
    /// open-time validation is deliberately O(1).
    #[inline]
    pub fn row(&self, q: QueryId) -> (&[u32], &[f64]) {
        let offsets: &[u32] = self.slice_of(&self.offsets);
        let targets: &[u32] = self.slice_of(&self.targets);
        let scores: &[f64] = self.slice_of(&self.scores);
        let (Some(&lo), Some(&hi)) = (offsets.get(q.index()), offsets.get(q.index() + 1)) else {
            return (&[], &[]);
        };
        let (lo, hi) = (lo as usize, hi as usize);
        if lo > hi || hi > targets.len() || hi > scores.len() {
            return (&[], &[]);
        }
        (&targets[lo..hi], &scores[lo..hi])
    }

    /// Resolves a query display name to its id by binary search over the
    /// pre-sorted hash table (equal-hash neighbours are disambiguated by
    /// comparing the stored name bytes).
    pub fn lookup(&self, name: &str) -> Option<QueryId> {
        let ranges = self.names.as_ref()?;
        let hashes: &[u64] = self.slice_of(&ranges.hash);
        let ids: &[u32] = self.slice_of(&ranges.ids);
        let h = fnv1a(name.as_bytes());
        let mut i = hashes.partition_point(|&x| x < h);
        while i < hashes.len() && hashes[i] == h {
            let id = QueryId(*ids.get(i)?);
            if self.query_name(id) == Some(name) {
                return Some(id);
            }
            i += 1;
        }
        None
    }

    /// The display name of query `q`, when names were recorded.
    /// Bounds-checked and UTF-8-checked per access (`None` on corruption).
    pub fn query_name(&self, q: QueryId) -> Option<&str> {
        let ranges = self.names.as_ref()?;
        let offs: &[u64] = self.slice_of(&ranges.offs);
        let blob: &[u8] = &self.backing.bytes()[ranges.blob.clone()];
        let (&lo, &hi) = (offs.get(q.index())?, offs.get(q.index() + 1)?);
        let (lo, hi) = (lo as usize, hi as usize);
        if lo > hi || hi > blob.len() {
            return None;
        }
        std::str::from_utf8(&blob[lo..hi]).ok()
    }

    /// Re-hashes every section against its table checksum — O(file size),
    /// run on demand, never at open.
    pub fn verify_deep(&self) -> io::Result<()> {
        let arena = Arena::parse(self.backing.bytes(), MAGIC).map_err(|e| snapshot::corrupt(&e))?;
        arena.verify_deep().map_err(|e| snapshot::corrupt(&e))
    }

    /// Decodes the backing bytes into an owned heap [`RewriteIndex`]
    /// (deep-verified and structurally validated) — the bridge to code
    /// paths that need ownership, like incremental rebuilds.
    pub fn to_owned_index(&self) -> io::Result<RewriteIndex> {
        snapshot::decode_snapshot(self.backing.bytes())
    }
}

fn byte_range(arena: &Arena<'_>, bytes: &[u8], tag: u64) -> io::Result<Range<usize>> {
    let section = arena.require(tag).map_err(|e| snapshot::corrupt(&e))?;
    let base = bytes.as_ptr() as usize;
    let start = section.as_ptr() as usize - base;
    Ok(start..start + section.len())
}

fn typed_range<T: Pod>(arena: &Arena<'_>, bytes: &[u8], tag: u64) -> io::Result<Range<usize>> {
    let range = byte_range(arena, bytes, tag)?;
    // Alignment/length check once at open; later accesses re-cast the same
    // immutable bytes.
    cast_slice::<T>(&bytes[range.clone()])
        .map_err(|e| snapshot::corrupt(&format!("section {tag:#x}: {e}")))?;
    Ok(range)
}

/// The index a server actually serves from: heap-owned (built in-process or
/// fully decoded) or mapped (zero-copy over a snapshot file).
#[derive(Debug)]
pub enum ServingIndex {
    /// A heap-owned [`RewriteIndex`].
    Heap(RewriteIndex),
    /// A zero-copy [`MappedIndex`] over a snapshot v4 file.
    Mapped(MappedIndex),
}

impl ServingIndex {
    /// Build provenance.
    pub fn meta(&self) -> &IndexMeta {
        match self {
            ServingIndex::Heap(i) => i.meta(),
            ServingIndex::Mapped(i) => i.meta(),
        }
    }

    /// Number of indexed queries.
    pub fn n_queries(&self) -> usize {
        match self {
            ServingIndex::Heap(i) => i.n_queries(),
            ServingIndex::Mapped(i) => i.n_queries(),
        }
    }

    /// Total stored rewrites across all rows.
    pub fn n_entries(&self) -> usize {
        match self {
            ServingIndex::Heap(i) => i.n_entries(),
            ServingIndex::Mapped(i) => i.n_entries(),
        }
    }

    /// Name-keyed lookup: the query's id when it is indexed.
    pub fn lookup(&self, name: &str) -> Option<QueryId> {
        match self {
            ServingIndex::Heap(i) => i.lookup_id(name),
            ServingIndex::Mapped(i) => i.lookup(name),
        }
    }

    /// The row of `q`: `(targets, scores)` borrowed slices.
    pub fn row(&self, q: QueryId) -> (&[u32], &[f64]) {
        match self {
            ServingIndex::Heap(i) => {
                let set = i.rewrites_of(q);
                (set.ids(), set.scores())
            }
            ServingIndex::Mapped(i) => i.row(q),
        }
    }

    /// The display name of query `q`, when names were recorded.
    pub fn query_name(&self, q: QueryId) -> Option<&str> {
        match self {
            ServingIndex::Heap(i) => i.query_name(q),
            ServingIndex::Mapped(i) => i.query_name(q),
        }
    }

    /// Where the rows live: `"live"` for heap indexes, `"mmap"`/`"heap"`
    /// for snapshot-backed ones (surfaced by `serve info`).
    pub fn backing(&self) -> &'static str {
        match self {
            ServingIndex::Heap(_) => "live",
            ServingIndex::Mapped(i) => i.backing_kind(),
        }
    }

    /// The backing snapshot file size, when file-backed.
    pub fn file_len(&self) -> Option<u64> {
        match self {
            ServingIndex::Heap(_) => None,
            ServingIndex::Mapped(i) => Some(i.file_len()),
        }
    }

    /// An owned heap [`RewriteIndex`] with the same content (decoding the
    /// mapped bytes when necessary) — what incremental rebuilds start from.
    pub fn to_owned_index(&self) -> io::Result<RewriteIndex> {
        match self {
            ServingIndex::Heap(i) => Ok(i.clone()),
            ServingIndex::Mapped(i) => i.to_owned_index(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mapped = MappedIndex::open(&path).unwrap();
        assert_eq!(mapped.meta(), index.meta());
        assert_eq!(mapped.n_queries(), index.n_queries());
        assert_eq!(mapped.n_entries(), index.n_entries());
        for q in 0..index.n_queries() {
            let q = QueryId(q as u32);
            let (targets, scores) = mapped.row(q);
            let set = index.rewrites_of(q);
            assert_eq!(targets, set.ids());
            assert_eq!(scores.len(), set.scores().len());
            for (a, b) in scores.iter().zip(set.scores()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(mapped.query_name(q), index.query_name(q));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_name_lookup_agrees_with_interner() {
        let (index, path) = saved("simrankpp_mapped_lookup.idx");
        let mapped = MappedIndex::open(&path).unwrap();
        for q in 0..index.n_queries() {
            let name = index.query_name(QueryId(q as u32)).unwrap();
            assert_eq!(mapped.lookup(name), Some(QueryId(q as u32)), "{name}");
        }
        assert_eq!(mapped.lookup("no such query"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_verify_deep_and_owned_decode() {
        let (index, path) = saved("simrankpp_mapped_deep.idx");
        let mapped = MappedIndex::open(&path).unwrap();
        mapped.verify_deep().unwrap();
        let owned = mapped.to_owned_index().unwrap();
        assert_eq!(owned.meta(), index.meta());
        assert_eq!(owned.n_entries(), index.n_entries());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_bit_flip_fails_open_serves_clean_rows_or_fails_verify_deep() {
        // `open` validates the section table only and defers payload
        // hashing to `verify_deep` by design, so the contract is weaker
        // than the heap decoder's refused-or-harmless: a mutant that opens
        // and serves anything but the clean index must fail `verify_deep`.
        // None may abort.
        use std::io::{Seek, SeekFrom, Write};
        let (index, path) = saved("simrankpp_mapped_bit_sweep.idx");
        let clean = std::fs::read(&path).unwrap();
        let serves_clean = |m: &MappedIndex| {
            m.meta() == index.meta()
                && m.n_queries() == index.n_queries()
                && m.n_entries() == index.n_entries()
                && (0..index.n_queries() as u32).map(QueryId).all(|q| {
                    let (targets, scores) = m.row(q);
                    let set = index.rewrites_of(q);
                    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let name = index.query_name(q);
                    targets == set.ids()
                        && bits(scores) == bits(set.scores())
                        && m.query_name(q) == name
                        && name.map_or(true, |name| m.lookup(name) == Some(q))
                })
        };
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let mut poke = |at: usize, byte: u8| {
            file.seek(SeekFrom::Start(at as u64)).unwrap();
            file.write_all(&[byte]).unwrap();
        };
        let (mut refused, mut harmless, mut caught) = (0usize, 0usize, 0usize);
        for (at, &byte) in clean.iter().enumerate() {
            for bit in 0..8 {
                poke(at, byte ^ (1 << bit));
                match MappedIndex::open(&path) {
                    Err(_) => refused += 1,
                    Ok(m) if serves_clean(&m) => harmless += 1,
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
        assert_eq!(refused + harmless + caught, clean.len() * 8);
        assert!(caught > 0, "no payload mutant reached verify_deep");
    }

    #[test]
    fn out_of_range_row_is_empty_not_panic() {
        let (_, path) = saved("simrankpp_mapped_oob.idx");
        let mapped = MappedIndex::open(&path).unwrap();
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
        let err = MappedIndex::open(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported snapshot version 3"), "{msg}");
        assert!(msg.contains("rebuild"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serving_index_variants_answer_identically() {
        let (index, path) = saved("simrankpp_serving_enum.idx");
        let heap = ServingIndex::Heap(index.clone());
        let mapped = ServingIndex::Mapped(MappedIndex::open(&path).unwrap());
        assert_eq!(heap.meta(), mapped.meta());
        assert_eq!(heap.backing(), "live");
        assert!(matches!(mapped.backing(), "mmap" | "heap"));
        assert!(mapped.file_len().unwrap() > 0);
        for q in 0..index.n_queries() {
            let name = index.query_name(QueryId(q as u32)).unwrap().to_string();
            let hq = heap.lookup(&name).unwrap();
            let mq = mapped.lookup(&name).unwrap();
            assert_eq!(hq, mq);
            assert_eq!(heap.row(hq), mapped.row(mq));
        }
        std::fs::remove_file(&path).ok();
    }
}
