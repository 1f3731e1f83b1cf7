//! The immutable precomputed top-k rewrite index.
//!
//! `build` runs the full §9.3 pipeline — top-100 candidates → stem-dedup →
//! bid filter → top-5 — for *every* query of the click graph, offline and in
//! parallel, then freezes the results into one flat arena:
//!
//! ```text
//! offsets: [0, 2, 5, 5, ...]          one entry per query + end sentinel
//! targets: [q7, q3, q1, q9, q2, ...]  rewrite ids, ranking order per row
//! scores:  [.61, .43, ...]            parallel to targets
//! ```
//!
//! Lookups slice the arena — no per-request allocation — and an optional
//! cloned name interner answers `lookup("camera")` for the line protocol.

use simrankpp_core::rewriter::FunnelScratch;
use simrankpp_core::{KernelKind, Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::{ClickGraph, DirtyComponents, Interner, QueryId, SegmentedStore, Shard};
use simrankpp_util::FxHashSet;

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
    /// Selects nothing: the approximate (edge-cutting) `Extracted` sharding
    /// it recorded is gone, no build sets it, snapshots never write it, and
    /// a snapshot carrying the flag is refused on load (`crate::snapshot`).
    /// The field stays only because the frozen `benchmark/` sources spell
    /// it (benchmark-pinned).
    pub approx_sharding: bool,
    /// Always [`KernelKind::Pull`], the one engine kernel; the field and
    /// its snapshot META word stay only because the frozen `benchmark/`
    /// sources and existing snapshots spell them. Snapshots recording a
    /// removed kernel are refused on load (`crate::snapshot`), so a loaded
    /// index never carries rows that a refresh would mix with pull rows.
    pub kernel: KernelKind,
    /// How many segments of a [`simrankpp_graph::SegmentedStore`] the index
    /// was built from — `0` for a monolithic in-memory build. Provenance
    /// only: segmented and monolithic builds over the same graph are
    /// bit-identical (segments hold whole components, and component
    /// decomposition is exact), so nothing refuses on a mismatch; the
    /// count surfaces in `serve info`.
    pub segments: u32,
}

/// One row computed on a component block: the global query id plus its
/// `(global target id, score)` entries in ranking order.
type BlockRow = (u32, Vec<(u32, f64)>);

/// The rows of one component block — a store [`simrankpp_graph::Segment`]'s
/// graph or a dirty [`Shard`]'s — computed on the block alone: the method
/// runs on `block`, the §9.3 funnel per local query, and `queries` (global
/// query id per local id, monotone) carries ids back out. `bid_terms` are
/// global ids and are remapped into the block. Blocks hold whole connected
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

/// The arena offset of a row ending at `total` entries — the one place the
/// `u32` offset width is enforced.
fn arena_offset(total: usize) -> Result<u32, String> {
    u32::try_from(total)
        .ok()
        .filter(|&t| t < u32::MAX)
        .ok_or_else(|| "index exceeds u32 arena offsets".to_string())
}

/// Assembles rows, pushed in query-id order, into the flat
/// `offsets/targets/scores` arena of a [`RewriteIndex`]. Every build path —
/// monolithic, segmented, incremental — lays its rows out through this one
/// type, so the arena layout and its bound check live here only.
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

    /// Freezes the pushed rows into an index over exactly those queries.
    pub(crate) fn finish(mut self, meta: IndexMeta, names: Option<Interner>) -> RewriteIndex {
        self.targets.shrink_to_fit();
        self.scores.shrink_to_fit();
        RewriteIndex {
            meta,
            n_queries: (self.offsets.len() - 1) as u32,
            offsets: self.offsets,
            targets: self.targets,
            scores: self.scores,
            names,
        }
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

/// An immutable query → top-k rewrites index over one click graph.
#[derive(Debug, Clone)]
pub struct RewriteIndex {
    pub(crate) meta: IndexMeta,
    pub(crate) n_queries: u32,
    /// `offsets[q]..offsets[q + 1]` is query `q`'s row in the arenas.
    pub(crate) offsets: Vec<u32>,
    /// Rewrite target ids, ranking order within each row.
    pub(crate) targets: Vec<u32>,
    /// Final method scores, parallel to `targets`.
    pub(crate) scores: Vec<f64>,
    /// Query display names, when the source graph had them.
    pub(crate) names: Option<Interner>,
}

impl RewriteIndex {
    /// Runs the offline pipeline for every query of `rewriter`'s graph with
    /// `threads` chunked workers (`0` = all cores) and freezes the results.
    ///
    /// Each worker drives the name-free [`Rewriter::rewrite_ids_with`] with
    /// scratch of its own, freed with the build, and emits a chunk-local
    /// arena; stitching the chunks in order keeps the result deterministic
    /// for any thread count.
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
            chunk
                .and_then(|c| rows.append(c))
                .unwrap_or_else(|e: String| panic!("{e}"));
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
            g.query_interner().cloned(),
        )
    }

    /// Builds the index from a [`SegmentedStore`] **one segment at a time**:
    /// peak memory is bounded by the largest segment plus the (flat,
    /// row-cap-bounded) output arena, never the whole graph.
    ///
    /// Segments hold whole connected components and their local ids are
    /// monotone in global ids, so per-segment method computation and the
    /// §9.3 pipeline produce rows bit-identical to a monolithic
    /// [`RewriteIndex::build`] over [`SegmentedStore::load_all`] — including
    /// equal-score tie-breaks. `bid_terms` are global query ids and are
    /// remapped into each segment.
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
        let mut names: Vec<(u32, String)> = Vec::with_capacity(if has_names { n_total } else { 0 });

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
            for (global, row) in seg_rows {
                let slot = rows.get_mut(global as usize).ok_or_else(|| {
                    bad(format!(
                        "segment {i}: global query id {global} out of range"
                    ))
                })?;
                if slot.replace(row).is_some() {
                    return Err(bad(format!(
                        "global query id {global} appears in more than one segment"
                    )));
                }
            }
            if has_names {
                for (local, &global) in seg.queries.iter().enumerate() {
                    let name = seg
                        .graph
                        .query_name(QueryId(local as u32))
                        .ok_or_else(|| bad(format!("segment {i}: query {local} has no name")))?;
                    names.push((global, name.to_string()));
                }
            }
        }

        let mut arena = RowAssembler::with_capacity(n_total);
        for (q, slot) in rows.into_iter().enumerate() {
            let row =
                slot.ok_or_else(|| bad(format!("global query id {q} missing from every segment")))?;
            arena.push_row(row).map_err(bad)?;
        }

        let interner = if has_names {
            names.sort_unstable_by_key(|a| a.0);
            let mut interner = Interner::new();
            for (expect, (global, name)) in names.iter().enumerate() {
                if *global != expect as u32 {
                    return Err(bad(format!(
                        "query id {expect} missing or duplicated across segment name maps"
                    )));
                }
                if interner.intern(name) != *global {
                    return Err(bad(format!(
                        "duplicate query name {name:?} across segments"
                    )));
                }
            }
            Some(interner)
        } else {
            None
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
            interner,
        ))
    }

    /// Rebuilds only the **dirty** queries' rows after a graph delta,
    /// copying every clean query's row from `self` verbatim — the serving
    /// half of the incremental-update story.
    ///
    /// `new_graph` is the post-delta graph and `dirty` the analysis from
    /// [`simrankpp_graph::GraphDelta::dirty_components`] over it. For each
    /// dirty non-trivial component the similarity method named by
    /// `self.meta.method` is recomputed **on the induced component subgraph
    /// alone** (component decomposition is bit-exact, see
    /// `simrankpp_graph::sharding`) and the §9.3 pipeline re-runs for its
    /// queries; shard-local ids remap monotonically to global ones, so
    /// candidate ordering ties break identically to a full rebuild. Queries
    /// in clean components keep their exact rows: the result is
    /// bit-identical to `RewriteIndex::build` over the new graph.
    ///
    /// `config`/`rewriter_config`/`bid_terms` must match what built `self`
    /// (checked against `meta` where recorded: method family via
    /// `meta.method`, row cap via `meta.max_rewrites`, bid filtering via
    /// `meta.bid_filtered`). Recursive methods assume the default
    /// (geometric) evidence formula, as [`RewriteIndex::build`] callers use.
    ///
    /// Returns the next index generation plus the refresh accounting.
    pub fn rebuild_incremental(
        &self,
        new_graph: &ClickGraph,
        dirty: &DirtyComponents,
        config: &SimrankConfig,
        rewriter_config: &RewriterConfig,
        bid_terms: Option<&FxHashSet<QueryId>>,
    ) -> Result<(RewriteIndex, RebuildStats), String> {
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
        for q in old_n..new_n {
            if !dirty.query_dirty(QueryId(q as u32)) {
                return Err(format!(
                    "new query {q} is not marked dirty — stale delta analysis?"
                ));
            }
        }

        // Recompute the method per dirty component, on the induced subgraph
        // alone. Parallelism lives at the block level: `config.threads`
        // scoped workers pull shards (largest first) off an atomic queue,
        // each shard stays serial inside, and shards write disjoint query
        // rows, so the result is identical for any worker count.
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
        let mut refreshed_entries = 0usize;
        for (q, row) in shard_rows.into_iter().flatten() {
            refreshed_entries += row.len();
            fresh[q as usize] = Some(row);
        }

        // Assemble the next arena generation: fresh rows for dirty queries
        // (empty when their component holds no candidates), verbatim copies
        // for clean ones.
        let mut arena = RowAssembler::with_capacity(new_n);
        let mut refreshed_queries = 0usize;
        let mut copied_entries = 0usize;
        for (q, slot) in fresh.iter_mut().enumerate() {
            let qid = QueryId(q as u32);
            if dirty.query_dirty(qid) {
                refreshed_queries += 1;
                arena.push_row(slot.take().unwrap_or_default())?;
            } else {
                let old = self.rewrites_of(qid);
                copied_entries += old.len();
                arena.push_row(old.ids().iter().copied().zip(old.scores().iter().copied()))?;
            }
        }

        let stats = RebuildStats {
            refreshed_queries,
            copied_queries: new_n - refreshed_queries,
            refreshed_entries,
            copied_entries,
            n_dirty_components: dirty.n_dirty(),
            n_clean_components: dirty.n_clean(),
        };
        Ok((
            arena.finish(self.meta, new_graph.query_interner().cloned()),
            stats,
        ))
    }

    /// An index covering **zero** queries: every lookup misses. The
    /// single-source serving mode starts from this — the server skips the
    /// offline all-pairs build entirely and answers each query live, so the
    /// only thing an index contributes is the provenance in `meta`.
    pub fn empty(meta: IndexMeta) -> RewriteIndex {
        RewriteIndex {
            meta,
            n_queries: 0,
            offsets: vec![0],
            targets: Vec::new(),
            scores: Vec::new(),
            names: None,
        }
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
        self.targets.len()
    }

    /// The precomputed rewrites of `q` — borrowed slices, no allocation.
    #[inline]
    pub fn rewrites_of(&self, q: QueryId) -> RewriteSet<'_> {
        let lo = self.offsets[q.index()] as usize;
        let hi = self.offsets[q.index() + 1] as usize;
        RewriteSet {
            index: self,
            targets: &self.targets[lo..hi],
            scores: &self.scores[lo..hi],
        }
    }

    /// Name-keyed lookup for the serving front door.
    #[inline]
    pub fn lookup(&self, name: &str) -> Option<RewriteSet<'_>> {
        Some(self.rewrites_of(self.lookup_id(name)?))
    }

    /// Resolves a query display name to its id.
    #[inline]
    pub fn lookup_id(&self, name: &str) -> Option<QueryId> {
        Some(QueryId(self.names.as_ref()?.get(name)?))
    }

    /// The display name of an indexed query, when names were recorded.
    #[inline]
    pub fn query_name(&self, q: QueryId) -> Option<&str> {
        self.names.as_ref().and_then(|i| i.name(q.0))
    }

    /// Checks every structural invariant; snapshot loading runs this, so a
    /// corrupt or hand-edited artifact is rejected before it serves traffic.
    ///
    /// Verified: offset shape/monotonicity, arena lengths, target ids in
    /// range and off the diagonal, finite scores in non-increasing ranking
    /// order, row lengths within `meta.max_rewrites`, and that the name
    /// table is a bijection (a duplicated name would route lookups to the
    /// wrong query's row).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_queries as usize;
        if self.offsets.len() != n + 1 {
            return Err(format!(
                "offsets has {} entries for {} queries",
                self.offsets.len(),
                n
            ));
        }
        if self.offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotone".into());
        }
        if *self.offsets.last().unwrap() as usize != self.targets.len() {
            return Err("last offset != target count".into());
        }
        if self.targets.len() != self.scores.len() {
            return Err("targets/scores arenas must be parallel".into());
        }
        for q in 0..n {
            let (lo, hi) = (self.offsets[q] as usize, self.offsets[q + 1] as usize);
            if hi - lo > self.meta.max_rewrites as usize {
                return Err(format!("query {q}: row exceeds max_rewrites"));
            }
            for i in lo..hi {
                if self.targets[i] as usize >= n {
                    return Err(format!("query {q}: target id out of range"));
                }
                if self.targets[i] as usize == q {
                    return Err(format!("query {q}: listed as its own rewrite"));
                }
                if !self.scores[i].is_finite() {
                    return Err(format!("query {q}: non-finite score"));
                }
                if i > lo && self.scores[i] > self.scores[i - 1] {
                    return Err(format!("query {q}: scores not in ranking order"));
                }
            }
        }
        if let Some(names) = &self.names {
            if names.len() > n {
                return Err(format!(
                    "name table has {} entries for {} queries",
                    names.len(),
                    n
                ));
            }
            for (id, name) in names.iter() {
                if names.get(name) != Some(id) {
                    return Err(format!("duplicate query name {name:?} in name table"));
                }
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
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// `true` when the pipeline left this query uncovered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Rewrite target ids in ranking order.
    #[inline]
    pub fn ids(&self) -> &'i [u32] {
        self.targets
    }

    /// Final scores, parallel to [`RewriteSet::ids`].
    #[inline]
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

    #[test]
    fn figure3_index_serves_expected_rewrites() {
        let index = fig3_index();
        index.validate().unwrap();
        assert_eq!(index.n_queries(), 5);
        let camera = index.lookup("camera").unwrap();
        assert!(!camera.is_empty());
        let (_, _, name) = camera.iter().next().unwrap();
        assert_eq!(name, Some("digital camera"));
        // flower is isolated from the rest of the graph.
        assert!(index.lookup("flower").unwrap().is_empty());
        assert!(index.lookup("no such query").is_none());
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
        let camera = index.lookup("camera").unwrap();
        assert_eq!(camera.len(), 1);
        assert_eq!(index.lookup("tv").unwrap().len(), 1);
        assert_eq!(index.lookup("pc").unwrap().len(), 1);
        assert!(index.lookup("flower").unwrap().is_empty());
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
        let index = head.finish(fig3_index().meta, None);
        index.validate().unwrap();
        assert_eq!(index.offsets, [0, 2, 2, 3]);
        assert_eq!(index.targets, [1, 2, 0]);
        assert_eq!(index.scores, [0.5, 0.25, 0.125]);
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
        assert_eq!(inc.n_entries(), full.n_entries());
        for q in g2.queries() {
            assert_eq!(inc.rewrites_of(q).ids(), full.rewrites_of(q).ids());
            assert_eq!(inc.rewrites_of(q).scores(), full.rewrites_of(q).scores());
        }
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
        assert!(!inc.lookup("laptop").unwrap().is_empty());

        let method = Method::compute(MethodKind::WeightedSimrank, &g2, &cfg);
        let rewriter = Rewriter::new(&g2, method, RewriterConfig::default());
        let full = RewriteIndex::build(&rewriter, None, 1);
        for q in g2.queries() {
            assert_eq!(inc.rewrites_of(q).ids(), full.rewrites_of(q).ids());
            assert_eq!(inc.rewrites_of(q).scores(), full.rewrites_of(q).scores());
        }
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
        assert_eq!(serial.offsets, parallel.offsets);
        assert_eq!(serial.targets, parallel.targets);
        assert_eq!(serial.scores, parallel.scores);
    }

    #[test]
    fn validate_rejects_corruption() {
        let good = fig3_index();

        let mut bad = good.clone();
        bad.targets[0] = bad.n_queries; // out of range
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.scores[0] = f64::NAN;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.offsets[1] = bad.offsets[2] + 1; // non-monotone
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        if let Some(row_start) = bad.offsets.iter().position(|&o| o > 0) {
            let q = row_start - 1;
            bad.targets[0] = q as u32; // self rewrite
            assert!(bad.validate().is_err());
        }

        let mut bad = good;
        bad.scores.pop();
        assert!(bad.validate().is_err());
    }
}
