//! The immutable precomputed top-k rewrite index. `build` runs the §9.3
//! pipeline — top-100 candidates → stem-dedup → bid filter → top-5 — for
//! *every* query of the click graph, offline and in parallel, lays the rows
//! out flat
//!
//! ```text
//! offsets: [0, 2, 5, 5, ...]          one entry per query + end sentinel
//! targets: [q7, q3, q1, q9, q2, ...]  rewrite ids, ranking order per row
//! scores:  [.61, .43, ...]            parallel to targets
//! ```
//!
//! and encodes them with the names into one snapshot-v4 arena. The one index
//! type, [`RewriteIndex`], is a view over such bytes (built, loaded or
//! mapped): borrowed, bounds-checked slices, and a clone is an `Arc` bump.

use crate::mmap::Backing;
use crate::snapshot::{
    invalid, SEC_NAME_BLOB, SEC_NAME_HASH, SEC_NAME_IDS, SEC_NAME_OFFS, SEC_OFFSETS, SEC_SCORES,
    SEC_TARGETS,
};
use simrankpp_core::rewriter::FunnelScratch;
use simrankpp_core::{KernelKind, Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::{ClickGraph, DirtyComponents, Interner, QueryId, SegmentedStore, Shard};
use simrankpp_util::{fnv1a, unpack_names, FxHashSet, Layout, Pod};
use std::sync::Arc;

/// Provenance carried by an index (and through snapshots): what produced the
/// rows, so a server can refuse mismatched artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexMeta {
    /// The similarity method the rows were ranked by.
    pub method: MethodKind,
    /// The per-query row-length cap the pipeline ran with (paper: 5).
    pub max_rewrites: u32,
    /// Whether the §9.3 bid-term filter was applied at build time.
    pub bid_filtered: bool,
    /// Always `false`: the approximate `Extracted` sharding it recorded is
    /// gone and snapshots carrying it are refused (`crate::snapshot`).
    /// Benchmark-pinned: the frozen `benchmark/` sources spell it.
    pub approx_sharding: bool,
    /// Always [`KernelKind::Pull`], the one engine kernel; snapshots
    /// recording a removed kernel are refused, so a refresh never mixes
    /// kernels. Benchmark-pinned like `approx_sharding`.
    pub kernel: KernelKind,
    /// How many [`SegmentedStore`] segments the index was built from — `0`
    /// for a monolithic build. Provenance only (the two builds are
    /// bit-identical); surfaces in `serve info`.
    pub segments: u32,
}

/// A global query id and its `(global target, score)` row, ranking order.
type BlockRow = (u32, Vec<(u32, f64)>);

/// The rows of one component block — a store segment's graph or a dirty
/// [`Shard`]'s — computed on the block alone; `queries` maps local ids to
/// global ones (monotone) and `bid_terms` are global ids. Blocks hold whole
/// components and monotone ids keep equal-score tie-breaks, so the rows are
/// bit-identical to a whole-graph build's.
fn block_rows(
    kind: MethodKind,
    block: &ClickGraph,
    queries: &[u32],
    config: &SimrankConfig,
    rewriter_config: RewriterConfig,
    bid_terms: Option<&FxHashSet<QueryId>>,
) -> Vec<BlockRow> {
    let method = Method::compute(kind, block, config);
    let rewriter = Rewriter::new(block, method, rewriter_config);
    let local_bids: Option<FxHashSet<QueryId>> = bid_terms.map(|bids| {
        queries
            .iter()
            .enumerate()
            .filter(|(_, &global)| bids.contains(&QueryId(global)))
            .map(|(local, _)| QueryId(local as u32))
            .collect()
    });
    let mut scratch = FunnelScratch::default();
    let mut row = Vec::new();
    queries
        .iter()
        .enumerate()
        .map(|(local, &global)| {
            rewriter.rewrite_ids_with(
                QueryId(local as u32),
                local_bids.as_ref(),
                &mut scratch,
                &mut row,
            );
            let global_row = row.iter().map(|&(t, s)| (queries[t.index()], s)).collect();
            (global, global_row)
        })
        .collect()
}

/// The offset of a row ending at `total` entries: the one `u32` width check.
fn arena_offset(total: usize) -> Result<u32, String> {
    u32::try_from(total)
        .ok()
        .filter(|&t| t < u32::MAX)
        .ok_or_else(|| "index exceeds u32 arena offsets".to_string())
}

/// Lays rows, pushed in query-id order, out flat and encodes them into a
/// [`RewriteIndex`]: every build path (monolithic, segmented, incremental)
/// goes through this one type, so the row layout lives here only.
#[derive(Debug)]
pub(crate) struct RowAssembler {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    scores: Vec<f64>,
}

impl RowAssembler {
    /// An assembler expecting `n_queries` rows.
    pub(crate) fn with_capacity(n_queries: usize) -> RowAssembler {
        let mut offsets = Vec::with_capacity(n_queries + 1);
        offsets.push(0);
        RowAssembler {
            offsets,
            targets: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Appends the next query's row, in ranking order.
    pub(crate) fn push_row(
        &mut self,
        row: impl IntoIterator<Item = (u32, f64)>,
    ) -> Result<(), String> {
        for (t, s) in row {
            self.targets.push(t);
            self.scores.push(s);
        }
        self.offsets.push(arena_offset(self.targets.len())?);
        Ok(())
    }

    /// Appends every row of `chunk` after the rows already pushed — how the
    /// chunk-parallel build stitches its workers' output in order.
    pub(crate) fn append(&mut self, chunk: RowAssembler) -> Result<(), String> {
        let base = self.targets.len();
        for &end in &chunk.offsets[1..] {
            self.offsets.push(arena_offset(base + end as usize)?);
        }
        self.targets.extend_from_slice(&chunk.targets);
        self.scores.extend_from_slice(&chunk.scores);
        Ok(())
    }

    /// Encodes the rows and `names` into one arena and views it, reusing
    /// `previous`'s name sections when its names are `names`.
    pub(crate) fn finish(
        self,
        meta: IndexMeta,
        names: Option<&Interner>,
        previous: Option<&RewriteIndex>,
    ) -> RewriteIndex {
        let bytes = crate::snapshot::encode(
            &meta,
            &self.offsets,
            &self.targets,
            &self.scores,
            names,
            previous,
        );
        drop(self);
        RewriteIndex::view(Backing::Heap(bytes), true).expect("a freshly encoded index parses")
    }
}

/// Refresh accounting returned by [`RewriteIndex::rebuild_incremental`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildStats {
    /// Queries whose rows were recomputed (they live in dirty components).
    pub refreshed_queries: usize,
    /// Queries whose rows were copied verbatim from the previous generation.
    pub copied_queries: usize,
    /// Rewrite entries in the recomputed rows.
    pub refreshed_entries: usize,
    /// Rewrite entries copied verbatim.
    pub copied_entries: usize,
    /// Dirty components in the delta analysis.
    pub n_dirty_components: usize,
    /// Clean components whose queries were all copied.
    pub n_clean_components: usize,
}

impl RebuildStats {
    /// The accounting of one delta over a graph of `n_queries` queries: the
    /// queries of `dirty` components refreshed, every other one copied.
    pub fn new(
        dirty: &DirtyComponents,
        n_queries: usize,
        refreshed_entries: usize,
        copied_entries: usize,
    ) -> RebuildStats {
        let refreshed_queries = dirty.dirty_query_count();
        RebuildStats {
            refreshed_queries,
            copied_queries: n_queries - refreshed_queries,
            refreshed_entries,
            copied_entries,
            n_dirty_components: dirty.n_dirty(),
            n_clean_components: dirty.n_clean(),
        }
    }
}

/// An immutable query → top-k rewrites index over one click graph: a view
/// over the bytes of one snapshot-v4 arena.
#[derive(Debug, Clone)]
pub struct RewriteIndex {
    /// The arena: heap bytes (built or loaded) or a mapped file.
    pub(crate) bytes: Arc<Backing>,
    pub(crate) meta: IndexMeta,
    /// Payloads known good (encoded here or deep-loaded); an `open`ed view
    /// is checked before a rebuild reads it.
    pub(crate) checked: bool,
    /// Where each section lies within `bytes` (the name sections of an
    /// unnamed index are empty).
    pub(crate) layout: Layout,
}

impl RewriteIndex {
    /// Runs the offline pipeline for every query of `rewriter`'s graph on
    /// `threads` chunked workers (`0` = all cores), each with scratch of its
    /// own; stitching the chunks in order makes the result thread-count-free.
    pub fn build(
        rewriter: &Rewriter,
        bid_terms: Option<&FxHashSet<QueryId>>,
        threads: usize,
    ) -> RewriteIndex {
        let g = rewriter.graph();
        let chunks = simrankpp_core::engine::parallel::run_chunked(g.n_queries(), threads, |r| {
            let mut scratch = FunnelScratch::default();
            let mut row = Vec::new();
            let mut rows = RowAssembler::with_capacity(r.len());
            for q in r {
                rewriter.rewrite_ids_with(QueryId(q as u32), bid_terms, &mut scratch, &mut row);
                rows.push_row(row.iter().map(|&(t, s)| (t.0, s)))?;
            }
            Ok(rows)
        });
        let mut rows = RowAssembler::with_capacity(g.n_queries());
        for chunk in chunks {
            if let Err(e) = chunk.and_then(|c| rows.append(c)) {
                panic!("{e}");
            }
        }

        rows.finish(
            IndexMeta {
                method: rewriter.method().kind(),
                max_rewrites: rewriter.config().max_rewrites as u32,
                bid_filtered: bid_terms.is_some(),
                approx_sharding: false,
                kernel: KernelKind::Pull,
                segments: 0,
            },
            g.query_interner(),
            None,
        )
    }

    /// Builds from a [`SegmentedStore`] **one segment at a time** (peak
    /// memory: the largest segment plus the output rows), bit-identical to
    /// [`RewriteIndex::build`] over [`SegmentedStore::load_all`].
    /// `bid_terms` are global query ids.
    pub fn build_segmented(
        store: &mut SegmentedStore,
        kind: MethodKind,
        config: &SimrankConfig,
        rewriter_config: RewriterConfig,
        bid_terms: Option<&FxHashSet<QueryId>>,
    ) -> std::io::Result<RewriteIndex> {
        fn bad(msg: String) -> std::io::Error {
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        }

        let n_total = usize::try_from(store.total_queries())
            .map_err(|_| bad("store query count overflows usize".into()))?;
        let has_names = store.has_names();
        let mut rows: Vec<Option<Vec<(u32, f64)>>> = vec![None; n_total];
        let mut names: Vec<Option<String>> = vec![None; if has_names { n_total } else { 0 }];
        for i in 0..store.n_segments() {
            let seg = store.load_segment(i)?;
            let seg_rows = block_rows(
                kind,
                &seg.graph,
                &seg.queries,
                config,
                rewriter_config,
                bid_terms,
            );
            for ((global, row), local) in seg_rows.into_iter().zip(0u32..) {
                let slot = rows.get_mut(global as usize);
                let slot =
                    slot.ok_or_else(|| bad(format!("segment {i}: id {global} out of range")))?;
                if slot.replace(row).is_some() {
                    return Err(bad(format!(
                        "query id {global} is in more than one segment"
                    )));
                }
                if has_names {
                    names[global as usize] = seg.graph.query_name(QueryId(local)).map(Into::into);
                }
            }
        }

        let mut arena = RowAssembler::with_capacity(n_total);
        for (q, slot) in rows.into_iter().enumerate() {
            let row =
                slot.ok_or_else(|| bad(format!("global query id {q} missing from every segment")))?;
            arena.push_row(row).map_err(bad)?;
        }
        let interner = match names.into_iter().collect::<Option<Interner>>() {
            _ if !has_names => None,
            Some(interner) if interner.len() == n_total => Some(interner),
            _ => {
                return Err(bad(
                    "a query name is missing or duplicated across segments".into()
                ))
            }
        };

        Ok(arena.finish(
            IndexMeta {
                method: kind,
                max_rewrites: rewriter_config.max_rewrites as u32,
                bid_filtered: bid_terms.is_some(),
                approx_sharding: false,
                kernel: KernelKind::Pull,
                segments: store.n_segments() as u32,
            },
            interner.as_ref(),
            None,
        ))
    }

    /// Recomputes the **dirty** queries' rows after a graph delta (`dirty`:
    /// [`simrankpp_graph::GraphDelta::dirty_components`] over `new_graph`),
    /// each dirty component on its induced subgraph alone, and copies every
    /// clean row verbatim — bit-identical to `build` over `new_graph`. When
    /// `new_graph` names exactly the queries `self` names, the name sections
    /// are copied too, so only the rows are encoded afresh. The
    /// configs and `bid_terms` must match what built `self` (row cap and bid
    /// filtering are checked). Bytes never deep-checked (an `open`ed file)
    /// are checked first: corrupt rows never reach the next generation.
    pub fn rebuild_incremental(
        &self,
        new_graph: &ClickGraph,
        dirty: &DirtyComponents,
        config: &SimrankConfig,
        rewriter_config: &RewriterConfig,
        bid_terms: Option<&FxHashSet<QueryId>>,
    ) -> Result<(RewriteIndex, RebuildStats), String> {
        if !self.checked {
            let deep = self
                .verify_deep()
                .and_then(|()| self.validate().map_err(invalid));
            deep.map_err(|e| format!("the generation failed its deep check: {e}"))?;
        }
        if rewriter_config.max_rewrites as u32 != self.meta.max_rewrites {
            return Err(format!(
                "rewriter max_rewrites {} does not match the index's {}",
                rewriter_config.max_rewrites, self.meta.max_rewrites
            ));
        }
        if bid_terms.is_some() != self.meta.bid_filtered {
            return Err("bid filtering must match the original build".into());
        }
        let old_n = self.n_queries();
        let new_n = new_graph.n_queries();
        if new_n < old_n {
            return Err(format!(
                "updated graph has {new_n} queries but the index covers {old_n}: \
                 deltas never remove nodes"
            ));
        }
        if dirty.components.query_label.len() != new_n {
            return Err("dirty-component analysis was built for a different graph".into());
        }
        if let Some(q) = (old_n..new_n).find(|&q| !dirty.query_dirty(QueryId(q as u32))) {
            return Err(format!(
                "new query {q} is not marked dirty — stale delta analysis?"
            ));
        }

        // Parallelism lives at the block level: `config.threads` workers pull
        // shards (largest first) off a queue, each shard serial inside and
        // writing disjoint rows, so any worker count gives the same result.
        let local_cfg = config.with_threads(1);
        let shards = Shard::from_dirty(new_graph, dirty);
        let workers = config.effective_threads().min(shards.len()).max(1);
        let shard_rows: Vec<Vec<BlockRow>> =
            simrankpp_core::engine::parallel::run_indexed(shards.len(), workers, |i| {
                let shard = &shards[i];
                let queries: Vec<u32> = shard.mapping.queries.iter().map(|q| q.0).collect();
                block_rows(
                    self.meta.method,
                    &shard.graph,
                    &queries,
                    &local_cfg,
                    *rewriter_config,
                    bid_terms,
                )
            });
        let mut fresh: Vec<Option<Vec<(u32, f64)>>> = vec![None; new_n];
        for (q, row) in shard_rows.into_iter().flatten() {
            fresh[q as usize] = Some(row);
        }

        // Fresh rows for dirty queries (empty when their component holds no
        // candidates), verbatim copies for clean ones.
        let mut arena = RowAssembler::with_capacity(new_n);
        let mut refreshed_entries = 0usize;
        for (q, slot) in fresh.into_iter().enumerate() {
            let q = QueryId(q as u32);
            if dirty.query_dirty(q) {
                let row = slot.unwrap_or_default();
                refreshed_entries += row.len();
                arena.push_row(row)?;
            } else {
                let (targets, scores) = self.row(q);
                arena.push_row(targets.iter().copied().zip(scores.iter().copied()))?;
            }
        }
        let next = arena.finish(self.meta, new_graph.query_interner(), Some(self));
        let copied_entries = next.n_entries() - refreshed_entries;
        let stats = RebuildStats::new(dirty, new_n, refreshed_entries, copied_entries);
        Ok((next, stats))
    }

    /// An index covering **zero** queries, for live single-source serving:
    /// every lookup misses and only `meta` counts.
    pub fn empty(meta: IndexMeta) -> RewriteIndex {
        RowAssembler::with_capacity(0).finish(meta, None, None)
    }

    /// Build provenance.
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Number of indexed queries.
    pub fn n_queries(&self) -> usize {
        self.section::<u32>(SEC_OFFSETS).len() - 1
    }

    /// Total stored rewrites across all rows.
    pub fn n_entries(&self) -> usize {
        self.section::<u32>(SEC_TARGETS).len()
    }

    /// The snapshot-v4 bytes of the index — exactly what `save` writes.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.bytes()
    }

    /// `"mmap"` for an opened snapshot, `"heap"` for built, loaded and
    /// updated generations (surfaced by `serve info`).
    pub fn backing(&self) -> &'static str {
        self.bytes.kind()
    }

    #[inline]
    fn section<T: Pod>(&self, tag: u64) -> &[T] {
        self.layout.slice(self.as_bytes(), tag)
    }

    /// The row of `q`: `(targets, scores)` borrowed from the arena. An
    /// unknown id, or a corrupt offset pair in an `open`ed file, answers an
    /// empty row rather than panicking.
    #[inline]
    pub fn row(&self, q: QueryId) -> (&[u32], &[f64]) {
        let offsets: &[u32] = self.section(SEC_OFFSETS);
        let (Some(&lo), Some(&hi)) = (offsets.get(q.index()), offsets.get(q.index() + 1)) else {
            return (&[], &[]);
        };
        let (targets, scores): (&[u32], &[f64]) =
            (self.section(SEC_TARGETS), self.section(SEC_SCORES));
        match targets.get(lo as usize..hi as usize) {
            Some(t) => (t, &scores[lo as usize..hi as usize]), // |scores| = |targets|
            None => (&[], &[]),
        }
    }

    /// The precomputed rewrites of `q` — borrowed slices, no allocation.
    #[inline]
    pub fn rewrites_of(&self, q: QueryId) -> RewriteSet<'_> {
        let (targets, scores) = self.row(q);
        RewriteSet {
            index: self,
            targets,
            scores,
        }
    }

    /// Resolves a display name to its id: binary search over the sorted
    /// `NAME_HASH` table, equal hashes told apart by the stored name bytes.
    pub fn lookup(&self, name: &str) -> Option<QueryId> {
        let (hashes, ids): (&[u64], &[u32]) =
            (self.section(SEC_NAME_HASH), self.section(SEC_NAME_IDS));
        let h = fnv1a(name.as_bytes());
        let i = hashes.partition_point(|&x| x < h);
        hashes[i..]
            .iter()
            .zip(&ids[i..])
            .take_while(|&(&x, _)| x == h)
            .map(|(_, &id)| QueryId(id))
            .find(|&id| self.name_bytes(id) == Some(name.as_bytes()))
    }

    /// [`RewriteIndex::lookup`] (benchmark-pinned; goes with ROADMAP 12).
    pub fn lookup_id(&self, name: &str) -> Option<QueryId> {
        self.lookup(name)
    }

    /// The display name of query `q`, when names were recorded
    /// (bounds- and UTF-8-checked: `None` on corruption).
    pub fn query_name(&self, q: QueryId) -> Option<&str> {
        std::str::from_utf8(self.name_bytes(q)?).ok()
    }

    /// [`RewriteIndex::query_name`] as bytes to write: only an `open`ed view
    /// re-checks UTF-8 (a check worth ≈ 10 % of the server's throughput).
    pub(crate) fn name_to_write(&self, q: QueryId) -> Option<&[u8]> {
        let name = self.name_bytes(q)?;
        (self.checked || std::str::from_utf8(name).is_ok()).then_some(name)
    }

    /// Whether the name sections hold exactly `names`, in id order, byte
    /// for byte: one pass over the name bytes, no hashing.
    pub(crate) fn has_name_table(&self, names: &Interner) -> bool {
        let offs: &[u64] = self.section(SEC_NAME_OFFS);
        let blob: &[u8] = self.section(SEC_NAME_BLOB);
        offs.len() == names.len() + 1
            && offs.first() == Some(&0)
            && offs.last() == Some(&(blob.len() as u64))
            && names.iter().zip(offs.windows(2)).all(|((_, name), w)| {
                blob.get(w[0] as usize..w[1] as usize) == Some(name.as_bytes())
            })
    }

    fn name_bytes(&self, q: QueryId) -> Option<&[u8]> {
        let offs: &[u64] = self.section(SEC_NAME_OFFS);
        let (&lo, &hi) = (offs.get(q.index())?, offs.get(q.index() + 1)?);
        self.section::<u8>(SEC_NAME_BLOB)
            .get(lo as usize..hi as usize)
    }

    /// Checks what the O(1) parser leaves to a deep load: monotone offsets,
    /// in-range targets off the diagonal, finite scores in ranking order,
    /// rows within `meta.max_rewrites`, a well-formed name table, and every
    /// named id resolving to itself through the lookup table (a duplicated
    /// name or a wrong `NAME_IDS` entry would misroute lookups).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_queries();
        let offsets: &[u32] = self.section(SEC_OFFSETS);
        let (targets, scores): (&[u32], &[f64]) =
            (self.section(SEC_TARGETS), self.section(SEC_SCORES));
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotone".into());
        }
        for (q, w) in offsets.windows(2).enumerate() {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            if hi - lo > self.meta.max_rewrites as usize {
                return Err(format!("query {q}: row exceeds max_rewrites"));
            }
            for i in lo..hi {
                if targets[i] as usize >= n {
                    return Err(format!("query {q}: target id out of range"));
                }
                if targets[i] as usize == q {
                    return Err(format!("query {q}: listed as its own rewrite"));
                }
                if !scores[i].is_finite() {
                    return Err(format!("query {q}: non-finite score"));
                }
                if i > lo && scores[i] > scores[i - 1] {
                    return Err(format!("query {q}: scores not in ranking order"));
                }
            }
        }
        let name_offs: &[u64] = self.section(SEC_NAME_OFFS);
        if name_offs.is_empty() {
            return Ok(());
        }
        let names = unpack_names(name_offs, self.section(SEC_NAME_BLOB))?;
        if names.len() > n {
            return Err(format!("{} names for {n} queries", names.len()));
        }
        for (id, name) in (0..).zip(names) {
            if self.lookup(name) != Some(QueryId(id)) {
                return Err(format!(
                    "query {id} ({name:?}) does not resolve to itself: \
                     duplicate name or corrupt lookup table"
                ));
            }
        }
        Ok(())
    }
}

/// A borrowed view of one query's precomputed rewrites.
#[derive(Debug, Clone, Copy)]
pub struct RewriteSet<'i> {
    index: &'i RewriteIndex,
    targets: &'i [u32],
    scores: &'i [f64],
}

impl<'i> RewriteSet<'i> {
    /// Number of rewrites (the method's §9.4 *depth* for this query).
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// `true` when the pipeline left this query uncovered.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Rewrite target ids in ranking order.
    pub fn ids(&self) -> &'i [u32] {
        self.targets
    }

    /// Final scores, parallel to [`RewriteSet::ids`].
    pub fn scores(&self) -> &'i [f64] {
        self.scores
    }

    /// Iterates `(target, score, name)` in ranking order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, f64, Option<&'i str>)> + 'i {
        let index = self.index;
        self.targets
            .iter()
            .zip(self.scores)
            .map(move |(&t, &s)| (QueryId(t), s, index.query_name(QueryId(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::{reseal, same_index, section_range};
    use simrankpp_core::{Method, RewriterConfig, SimrankConfig};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::WeightKind;

    fn fig3_index() -> RewriteIndex {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    }

    /// The rewrites of the query named `name`.
    fn named<'i>(index: &'i RewriteIndex, name: &str) -> RewriteSet<'i> {
        index.rewrites_of(index.lookup(name).expect("indexed query"))
    }

    #[test]
    fn figure3_index_serves_expected_rewrites() {
        let index = fig3_index();
        index.validate().unwrap();
        assert_eq!(index.n_queries(), 5);
        assert_eq!(index.backing(), "heap");
        let camera = named(&index, "camera");
        assert!(!camera.is_empty());
        let (_, _, name) = camera.iter().next().unwrap();
        assert_eq!(name, Some("digital camera"));
        // flower is isolated from the rest of the graph.
        assert!(named(&index, "flower").is_empty());
        assert!(index.lookup("no such query").is_none());
        assert_eq!(index.lookup_id("camera"), index.lookup("camera"));
    }

    #[test]
    fn index_matches_live_rewriter() {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        let index = RewriteIndex::build(&rewriter, None, 1);
        for q in g.queries() {
            let live = rewriter.rewrites(q, None);
            let served = index.rewrites_of(q);
            assert_eq!(served.len(), live.len());
            for (got, want) in served.iter().zip(&live) {
                assert_eq!(got.0, want.query);
                assert_eq!(got.1, want.score);
                assert_eq!(got.2, want.name.as_deref());
            }
            assert_eq!(index.lookup(g.query_name(q).unwrap()), Some(q));
        }
    }

    #[test]
    fn bid_filter_recorded_and_applied() {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::Simrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        let mut bids = FxHashSet::default();
        bids.insert(g.query_by_name("digital camera").unwrap());
        let index = RewriteIndex::build(&rewriter, Some(&bids), 2);
        index.validate().unwrap();
        assert!(index.meta().bid_filtered);
        // camera, pc and tv all reach "digital camera" (the only bid term);
        // everything else is filtered, and flower reaches nothing.
        assert_eq!(named(&index, "camera").len(), 1);
        assert_eq!(named(&index, "tv").len(), 1);
        assert_eq!(named(&index, "pc").len(), 1);
        assert!(named(&index, "flower").is_empty());
    }

    #[test]
    fn arena_offsets_stop_short_of_u32_max() {
        assert_eq!(arena_offset(0), Ok(0));
        assert_eq!(arena_offset(u32::MAX as usize - 1), Ok(u32::MAX - 1));
        for total in [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
            let err = arena_offset(total).unwrap_err();
            assert!(err.contains("exceeds u32"), "{err}");
        }
    }

    #[test]
    fn assembler_appends_chunks_in_order() {
        let mut head = RowAssembler::with_capacity(2);
        head.push_row([(1, 0.5), (2, 0.25)]).unwrap();
        head.push_row([]).unwrap();
        let mut tail = RowAssembler::with_capacity(1);
        tail.push_row([(0, 0.125)]).unwrap();
        head.append(tail).unwrap();
        let index = head.finish(fig3_index().meta, None, None);
        index.validate().unwrap();
        assert_eq!(index.n_queries(), 3);
        assert_eq!(index.row(QueryId(0)), (&[1, 2][..], &[0.5, 0.25][..]));
        assert_eq!(index.row(QueryId(1)), (&[][..], &[][..]));
        assert_eq!(index.row(QueryId(2)), (&[0][..], &[0.125][..]));
        assert_eq!(index.row(QueryId(3)), (&[][..], &[][..]));
    }

    #[test]
    fn rebuild_incremental_matches_full_rebuild_and_copies_clean_rows() {
        use simrankpp_graph::{EdgeData, GraphDelta};
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let old = fig3_index();

        // Boost camera→bestbuy: only the big component is dirty; flower's
        // component (and row) must be copied untouched.
        let mut d = GraphDelta::new();
        d.upsert(
            g.query_by_name("camera").unwrap(),
            g.ad_by_name("bestbuy.com").unwrap(),
            EdgeData::from_clicks(50),
        );
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);

        let (inc, stats) = old
            .rebuild_incremental(&g2, &dirty, &cfg, &RewriterConfig::default(), None)
            .unwrap();
        inc.validate().unwrap();
        assert_eq!(stats.refreshed_queries, 4);
        assert_eq!(stats.copied_queries, 1);
        assert_eq!(stats.n_dirty_components, 1);
        assert_eq!(stats.n_clean_components, 1);

        // Bit-identical to a from-scratch build over the new graph.
        let method = Method::compute(MethodKind::WeightedSimrank, &g2, &cfg);
        let rewriter = Rewriter::new(&g2, method, RewriterConfig::default());
        let full = RewriteIndex::build(&rewriter, None, 1);
        assert_eq!(inc.as_bytes(), full.as_bytes());
    }

    #[test]
    fn name_sections_are_reused_only_for_the_same_name_table() {
        let index = fig3_index();
        let g = figure3_graph();
        let names = g.query_interner().unwrap();
        assert!(index.has_name_table(names));
        let mut grown = names.clone();
        grown.intern("laptop");
        assert!(!index.has_name_table(&grown));
        // Same count and lengths, one byte different.
        let renamed: Interner = names
            .iter()
            .map(|(_, n)| n.replace("camera", "camerb"))
            .collect();
        assert!(!index.has_name_table(&renamed));
        assert!(!RewriteIndex::empty(index.meta).has_name_table(names));

        // A reused encode is the fresh encode, byte for byte.
        let rows = || {
            let mut rows = RowAssembler::with_capacity(index.n_queries());
            for q in 0..index.n_queries() as u32 {
                let (t, s) = index.row(QueryId(q));
                rows.push_row(t.iter().copied().zip(s.iter().copied()))
                    .unwrap();
            }
            rows
        };
        let reused = rows().finish(index.meta, Some(names), Some(&index));
        assert_eq!(reused.as_bytes(), index.as_bytes());
        let fresh = rows().finish(index.meta, Some(&renamed), Some(&index));
        assert_eq!(fresh.lookup("camerb"), index.lookup("camera"));
    }

    #[test]
    fn rebuild_incremental_handles_new_queries() {
        use simrankpp_graph::delta::{apply_named, NamedOp};
        use simrankpp_graph::EdgeData;
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let old = fig3_index();
        let ops = vec![NamedOp::Upsert {
            query: "laptop".into(),
            ad: "hp.com".into(),
            data: EdgeData::from_clicks(4),
        }];
        let (g2, delta) = apply_named(&g, &ops).unwrap();
        let dirty = delta.dirty_components(&g2);
        let (inc, stats) = old
            .rebuild_incremental(&g2, &dirty, &cfg, &RewriterConfig::default(), None)
            .unwrap();
        inc.validate().unwrap();
        assert_eq!(inc.n_queries(), g.n_queries() + 1);
        assert_eq!(stats.copied_queries, 1); // flower only
        assert!(!named(&inc, "laptop").is_empty());

        let method = Method::compute(MethodKind::WeightedSimrank, &g2, &cfg);
        let rewriter = Rewriter::new(&g2, method, RewriterConfig::default());
        let full = RewriteIndex::build(&rewriter, None, 1);
        assert!(same_index(&inc, &full));
    }

    #[test]
    fn rebuild_incremental_rejects_mismatched_parameters() {
        use simrankpp_graph::GraphDelta;
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let old = fig3_index();
        let d = GraphDelta::new();
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);

        // Row cap mismatch.
        let narrow = RewriterConfig {
            max_rewrites: 3,
            ..RewriterConfig::default()
        };
        assert!(old
            .rebuild_incremental(&g2, &dirty, &cfg, &narrow, None)
            .is_err());
        // Bid-filter mismatch (the index was built without bids).
        let bids = FxHashSet::default();
        assert!(old
            .rebuild_incremental(&g2, &dirty, &cfg, &RewriterConfig::default(), Some(&bids))
            .is_err());
        // Wrong-graph dirty analysis.
        let other = {
            use simrankpp_graph::{ClickGraphBuilder, EdgeData};
            let mut b = ClickGraphBuilder::new();
            b.add_named("x", "y", EdgeData::from_clicks(1));
            b.build()
        };
        let other_dirty = GraphDelta::new().dirty_components(&other);
        assert!(old
            .rebuild_incremental(&g2, &other_dirty, &cfg, &RewriterConfig::default(), None)
            .is_err());
    }

    #[test]
    fn rebuild_incremental_parallel_workers_match_serial() {
        use simrankpp_graph::{EdgeData, GraphDelta};
        // Shard-level parallelism must not change a single byte of the
        // rebuilt arena (shards write disjoint rows; each stays serial).
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let old = fig3_index();
        let mut d = GraphDelta::new();
        // Dirty both components so there are two shards to schedule.
        d.upsert(
            g.query_by_name("camera").unwrap(),
            g.ad_by_name("hp.com").unwrap(),
            EdgeData::from_clicks(9),
        );
        d.upsert(
            g.query_by_name("flower").unwrap(),
            g.ad_by_name("orchids.com").unwrap(),
            EdgeData::from_clicks(2),
        );
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);
        let (serial, s_stats) = old
            .rebuild_incremental(&g2, &dirty, &cfg, &RewriterConfig::default(), None)
            .unwrap();
        let par_cfg = cfg.with_threads(4);
        let (parallel, p_stats) = old
            .rebuild_incremental(&g2, &dirty, &par_cfg, &RewriterConfig::default(), None)
            .unwrap();
        assert_eq!(s_stats, p_stats);
        assert_eq!(serial.as_bytes(), parallel.as_bytes());
    }

    #[test]
    fn validate_rejects_corruption() {
        // Each case mutates one section of a built index's bytes and
        // re-seals the checksums, so the deep load's `validate` is what
        // must refuse it.
        let good = fig3_index();
        let clean = good.as_bytes().to_vec();
        let n = good.n_queries() as u32;
        let at = |tag: u64| section_range(&clean, tag).start;
        let (offsets, targets, scores) = (at(0x02), at(0x03), at(0x04));
        let (name_blob, name_ids) = (at(0x06), at(0x08));
        let word = |buf: &[u8], at: usize| u32::from_ne_bytes(buf[at..at + 4].try_into().unwrap());
        let refused = |poke: &dyn Fn(&mut Vec<u8>), why: &str| {
            let mut buf = clean.clone();
            poke(&mut buf);
            reseal(&mut buf);
            let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
            assert!(err.to_string().contains(why), "{why}: {err}");
        };
        let mut resealed = clean.clone();
        reseal(&mut resealed);
        RewriteIndex::read_snapshot(resealed.as_slice()).unwrap();

        refused(
            &|b| b[targets..targets + 4].copy_from_slice(&n.to_ne_bytes()),
            "out of range",
        );
        refused(
            &|b| b[scores..scores + 8].copy_from_slice(&f64::NAN.to_ne_bytes()),
            "non-finite",
        );
        refused(
            &|b| {
                let past = word(b, offsets + 8) + 1;
                b[offsets + 4..offsets + 8].copy_from_slice(&past.to_ne_bytes());
            },
            "not monotone",
        );
        // The first target of the first non-empty row, pointed at its own
        // query.
        let q = (0..n)
            .find(|&q| !good.row(QueryId(q)).0.is_empty())
            .unwrap();
        refused(
            &|b| b[targets..targets + 4].copy_from_slice(&q.to_ne_bytes()),
            "own rewrite",
        );
        // Two equal-length names; the second's bytes overwritten with the
        // first's.
        let name = |q: u32| good.query_name(QueryId(q)).unwrap();
        let (a, b) = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .find(|&(a, b)| name(a).len() == name(b).len())
            .expect("two names of equal length");
        let start_of = |q: u32| (0..q).map(|p| name(p).len()).sum::<usize>();
        refused(
            &|buf| {
                let (to, len) = (name_blob + start_of(b), name(b).len());
                buf[to..to + len].copy_from_slice(name(a).as_bytes());
            },
            "does not resolve",
        );
        // A NAME_IDS entry pointing at the wrong name: swap the first two.
        refused(
            &|buf| {
                let (x, y) = (word(buf, name_ids), word(buf, name_ids + 4));
                buf[name_ids..name_ids + 4].copy_from_slice(&y.to_ne_bytes());
                buf[name_ids + 4..name_ids + 8].copy_from_slice(&x.to_ne_bytes());
            },
            "does not resolve",
        );
    }
}
