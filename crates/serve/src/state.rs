//! A server's state: the hot-swappable index handle and the one source of
//! its rows.
//!
//! A server has exactly one source of rows, named by the [`ServeState`]
//! constructor. An indexed server — a snapshot, a build, an updatable build
//! or an ingest loop's publishes — answers from its [`RewriteIndex`] and
//! nothing else: a query the index does not hold is `err\tunknown query`. A
//! live single-source server (the binary's `--mode single-source`, built with
//! a [`LiveContext`]) holds no rows at all: it resolves each query against
//! its click graph, computes the row on demand with
//! `simrankpp_core::SingleSourceEngine`, replays the §9.3 pipeline (rank →
//! stem-dedup → top-5; the live path carries no bid-term list, so the bid
//! filter does not apply), and answers `ok` exactly like an indexed hit. The
//! picked rows land in a bounded LRU ([`crate::rowcache::RowCache`]) of
//! scored ids keyed by query id, so a repeat of a cold query is a hash probe.
//! `respond` is the one place that picks the source of a row, and one row
//! writer ([`crate::protocol`]) renders index rows, live misses and cache hits
//! alike, so a hit is byte-identical to the miss that populated it.
//!
//! The `update` verb ([`ServeState::apply_update`]) applies a click-graph
//! delta (`simrankpp_graph::delta::read_delta_tsv` format) and atomically
//! swaps the next generation in — requests keep being answered throughout,
//! each against one consistent generation. An updatable server
//! ([`ServeState::updatable`]) rebuilds the dirty components' index rows; a
//! live server refreshes its engine for the post-delta graph — the diagonal
//! correction of the dirty components recomputed, the clean components'
//! copied — with the context lock released, so requests are answered by the
//! previous generation for as long as that takes; the commit swaps graph and
//! engine in and invalidates the cache (generation bump) under one momentary
//! lock. A snapshot or ingest server refuses `update` before opening the
//! file.

use crate::index::{RebuildStats, RewriteIndex};
use crate::ingest::IngestMetrics;
use crate::net::ServerMetrics;
use crate::protocol::{err_line, write_row};
use crate::rowcache::{Row, RowCache};
use crate::swap::AtomicHandle;
use simrankpp_core::rewriter::{candidates, funnel, stem_classes, FunnelScratch, StemClasses};
use simrankpp_core::{
    DiagonalCorrection, MethodKind, RewriterConfig, RowWorkspace, SimrankConfig, SingleSourceEngine,
};
use simrankpp_graph::delta::read_delta_tsv;
use simrankpp_graph::{ClickGraph, DirtyComponents, QueryId};
use std::fs::File;
use std::io::{self, BufReader, Write};
use std::sync::{Arc, Mutex, PoisonError};

/// The graph-and-config context an updatable indexed server rebuilds rows
/// with: the click graph the index was built from, plus the build
/// parameters an incremental rebuild must replay with.
#[derive(Debug)]
pub struct UpdateContext {
    /// The current click-graph generation (replaced on each update).
    pub graph: Arc<ClickGraph>,
    /// The similarity configuration the index was built with.
    pub config: SimrankConfig,
    /// The §9.3 pipeline parameters the index was built with.
    pub rewriter: RewriterConfig,
}

/// Everything a live single-source server needs to answer a query: the
/// click graph, the per-query engine over it, and the pipeline knobs that
/// make its answers rank like the offline build's.
///
/// The graph and the engine are immutable and shared (`Arc`): an `update`
/// reads them under a momentary lock, builds the next engine and the next
/// stem-class table with the lock released — requests keep being served —
/// and takes the lock again only to swap graph, engine and table in
/// together. The workspace and the three miss-path buffers beside it are the
/// only per-request mutable state: scratch, each cleared by the call that
/// fills it.
pub struct LiveContext {
    graph: Arc<ClickGraph>,
    method: MethodKind,
    config: SimrankConfig,
    rewriter: RewriterConfig,
    engine: Arc<SingleSourceEngine>,
    /// `stem_classes` of `graph` — ids mean nothing against another graph's.
    classes: StemClasses,
    ws: RowWorkspace,
    row: Vec<(QueryId, f64)>,
    funnel: FunnelScratch,
    picked: Vec<(QueryId, f64)>,
}

/// The single-source engine of `method` over the post-delta `graph`:
/// `dirty` components re-run at `config`, clean ones copied from `previous`
/// (`SingleSourceEngine::refreshed`), on the walk `method` propagates over
/// (`MethodKind::walk`). `Naive`/`Pearson` do not walk, have no
/// single-source formulation here and are refused.
fn live_engine(
    previous: &DiagonalCorrection,
    graph: &ClickGraph,
    dirty: &DirtyComponents,
    method: MethodKind,
    config: &SimrankConfig,
) -> Result<SingleSourceEngine, String> {
    let walk = method.walk(config.weight_kind).ok_or_else(|| {
        format!(
            "live single-source serving needs a recursive SimRank method, not {}",
            method.name()
        )
    })?;
    SingleSourceEngine::refreshed(previous, graph, dirty, config, &walk)
}

impl LiveContext {
    /// Builds the live engine for `graph`: the refresh every `update` runs,
    /// from the empty graph with every component dirty — one engine run per
    /// connected component at `config`.
    pub fn new(
        graph: ClickGraph,
        method: MethodKind,
        config: SimrankConfig,
        rewriter: RewriterConfig,
    ) -> Result<LiveContext, String> {
        let engine = live_engine(
            &DiagonalCorrection::default(),
            &graph,
            &DirtyComponents::all(&graph),
            method,
            &config,
        )?;
        let classes = stem_classes(&graph, &rewriter);
        let ws = RowWorkspace::new(graph.n_queries(), graph.n_ads());
        Ok(LiveContext {
            graph: Arc::new(graph),
            method,
            config,
            rewriter,
            engine: Arc::new(engine),
            classes,
            ws,
            row: Vec::new(),
            funnel: FunnelScratch::default(),
            picked: Vec::new(),
        })
    }

    /// Computes the rewrite row of one cold query, `(target, score)` in
    /// ranking order: single-source raw row → [`candidates`] with the
    /// method's [`MethodKind::evidence`], as index rows are formed → the
    /// shared §9.3 [`funnel`], without a bid filter (the live path carries no
    /// bid-term list).
    fn compute_row(&mut self, q: QueryId) -> &[(QueryId, f64)] {
        self.engine
            .row_into(&self.graph, q, &mut self.ws, &mut self.row);
        let (row, evidence) = (self.row.iter().copied(), self.method.evidence());
        candidates(&self.graph, q, row, evidence, &mut self.funnel);
        funnel(
            &self.classes,
            &self.rewriter,
            q,
            &mut self.funnel,
            None,
            &mut self.picked,
        );
        &self.picked
    }
}

impl std::fmt::Debug for LiveContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveContext")
            .field("method", &self.method)
            .field("queries", &self.graph.n_queries())
            .field("levels", &self.engine.levels())
            .finish_non_exhaustive()
    }
}

/// The row source of a live server: the swappable context, the row cache
/// that survives across requests (but not across graph generations), and
/// the lock that serializes updates.
#[derive(Debug)]
struct LiveState {
    ctx: Mutex<LiveContext>,
    cache: RowCache,
    /// Held for the whole of [`LiveState::update`]. Without it two
    /// concurrent updates can both read the same base graph before either
    /// commits, and the later commit silently drops the earlier delta (a
    /// lost update). Requests never take it.
    updating: Mutex<()>,
}

impl LiveState {
    /// Answers `query` from the cache or by live computation, with the graph
    /// that names the row's targets; `None` means the query is not in the
    /// graph at all. The caller renders the row after the context lock is
    /// released. A later graph names the same ids the same way (deltas only
    /// append names), and `update` empties the cache.
    ///
    /// Poisoning is recovered ([`PoisonError::into_inner`]): the context's
    /// only mutable state across requests is the engine workspace, which
    /// `row_into` resets at entry — a handler that panicked mid-computation
    /// leaves nothing a later request can observe, and propagating its
    /// poison would turn every other connection's next cold query into a
    /// panic.
    fn serve(&self, query: &str) -> Option<(Row, Arc<ClickGraph>)> {
        let mut ctx = self.ctx.lock().unwrap_or_else(PoisonError::into_inner);
        let q = ctx.graph.query_by_name(query)?;
        // Capture the generation before computing: an invalidation landing
        // mid-computation turns the insert below into a no-op.
        let generation = self.cache.generation();
        let row = match self.cache.get(q) {
            Some(hit) => hit,
            None => {
                let row: Row = Arc::from(ctx.compute_row(q));
                self.cache.insert(generation, q, Arc::clone(&row));
                row
            }
        };
        Some((row, Arc::clone(&ctx.graph)))
    }

    /// Applies the delta at `path`: the context moves to the post-delta
    /// graph — dirty components' corrections recomputed, clean ones copied
    /// — and every cached row is dropped (they priced the previous
    /// generation's scores). The stats count the dirty components' queries
    /// as refreshed; a live server stores no rows, so its entry counts are
    /// zero.
    ///
    /// The engine and the stem-class table are built with the context lock
    /// **released**: requests, cache hits and misses alike, are answered
    /// from the previous generation for as long as the precompute runs. The
    /// lock is taken twice, momentarily — to read the previous generation,
    /// and to swap the finished graph, engine and table in as one. Poisoning
    /// is recovered: the commit assigns fully-constructed values, consistent
    /// no matter what state a previous holder left behind. On error nothing
    /// was touched.
    fn update(&self, path: &str) -> Result<RebuildStats, String> {
        let _updating = self.updating.lock().unwrap_or_else(PoisonError::into_inner);
        let ctx = self.ctx.lock().unwrap_or_else(PoisonError::into_inner);
        let (graph, previous) = (Arc::clone(&ctx.graph), Arc::clone(&ctx.engine));
        let (method, config, rewriter) = (ctx.method, ctx.config, ctx.rewriter);
        drop(ctx);
        let (graph, dirty) = read_delta(&graph, path)?;
        let engine = live_engine(previous.correction(), &graph, &dirty, method, &config)?;
        let classes = stem_classes(&graph, &rewriter);
        simrankpp_util::fail_point!("live-rebuild-built", |msg: String| msg);
        let stats = RebuildStats::new(&dirty, graph.n_queries(), 0, 0);
        let mut ctx = self.ctx.lock().unwrap_or_else(PoisonError::into_inner);
        // An update may add queries, ads, or both.
        ctx.ws.resize(graph.n_queries(), graph.n_ads());
        ctx.graph = Arc::new(graph);
        ctx.engine = Arc::new(engine);
        ctx.classes = classes;
        self.cache.invalidate();
        Ok(stats)
    }
}

/// Reads the named-op delta at `path` and applies it to `graph`: the
/// post-delta graph and the components the delta touched.
fn read_delta(graph: &ClickGraph, path: &str) -> Result<(ClickGraph, DirtyComponents), String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let ops =
        read_delta_tsv(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let (graph, delta) = simrankpp_graph::delta::apply_named(graph, &ops)?;
    let dirty = delta.dirty_components(&graph);
    Ok((graph, dirty))
}

/// Where a server's rows come from, and what its `update` verb does.
#[derive(Debug)]
enum Source {
    /// A snapshot or a build; `update` is refused.
    Fixed,
    /// A click-log ingest loop publishes every generation; `update` is
    /// refused.
    Ingest(Arc<IngestMetrics>),
    /// `update` rebuilds the dirty rows of the index over the held graph.
    /// The lock serializes the whole read–apply–rebuild–swap sequence, so
    /// no delta is lost to a concurrent update; requests never take it.
    Rows(Mutex<UpdateContext>),
    /// Every row is computed on demand; the index is metadata only.
    Live(Box<LiveState>),
}

/// A running server's shared state: the hot-swappable index handle and the
/// one source of its rows, which the constructor names. Every generation
/// is a [`RewriteIndex`] — a mapped snapshot, a loaded one, or a built or
/// updated one — served and hot-swapped through the same handle.
#[derive(Debug)]
pub struct ServeState {
    index: AtomicHandle<RewriteIndex>,
    source: Source,
}

impl ServeState {
    /// A server over a frozen index — an opened snapshot or a build
    /// (snapshot mode): `update` is refused.
    pub fn fixed(index: RewriteIndex) -> ServeState {
        ServeState {
            index: AtomicHandle::new(index),
            source: Source::Fixed,
        }
    }

    /// A server whose index generations are published by a streaming
    /// ingest loop ([`crate::ingest::EpochIngestor`]): the manual `update`
    /// verb is refused, and `info` reports the shared ingest counters.
    pub fn ingesting(index: RewriteIndex, metrics: Arc<IngestMetrics>) -> ServeState {
        ServeState {
            source: Source::Ingest(metrics),
            ..ServeState::fixed(index)
        }
    }

    /// A server that can apply deltas and hot-swap index generations.
    pub fn updatable(index: RewriteIndex, ctx: UpdateContext) -> ServeState {
        ServeState {
            source: Source::Rows(Mutex::new(ctx)),
            ..ServeState::fixed(index)
        }
    }

    /// Makes a [`ServeState::fixed`] server live: every query is computed
    /// on demand through `live` and cached in an LRU of `cache_capacity`
    /// rows, and `update` refreshes the engine. The index serves no row; it
    /// names the method `info` reports (typically [`RewriteIndex::empty`]).
    pub fn with_live(self, live: LiveContext, cache_capacity: usize) -> ServeState {
        ServeState {
            source: Source::Live(Box::new(LiveState {
                ctx: Mutex::new(live),
                cache: RowCache::new(cache_capacity),
                updating: Mutex::new(()),
            })),
            ..self
        }
    }

    /// The live row cache's statistics, on a live server.
    pub fn cache_stats(&self) -> Option<crate::rowcache::CacheStats> {
        match &self.source {
            Source::Live(live) => Some(live.cache.stats()),
            _ => None,
        }
    }

    /// The swappable index handle (for out-of-band readers and tests).
    pub fn handle(&self) -> &AtomicHandle<RewriteIndex> {
        &self.index
    }

    /// The shared ingest counters, when this server is in ingest mode.
    pub fn ingest_metrics(&self) -> Option<&Arc<IngestMetrics>> {
        match &self.source {
            Source::Ingest(metrics) => Some(metrics),
            _ => None,
        }
    }

    /// The click graph an updatable server's next `update` applies its
    /// delta to; `None` on every other server.
    pub fn graph(&self) -> Option<Arc<ClickGraph>> {
        match &self.source {
            Source::Rows(ctx) => {
                let ctx = ctx.lock().unwrap_or_else(PoisonError::into_inner);
                Some(Arc::clone(&ctx.graph))
            }
            _ => None,
        }
    }

    /// Hot-swaps a new index generation in. Readers mid-request keep the
    /// generation they loaded; every later load sees the new one. This is
    /// the ingest loop's publication primitive — unlike
    /// [`ServeState::apply_update`] it carries no graph bookkeeping, since
    /// the [`crate::ingest::EpochIngestor`] owns the windowed graph.
    pub fn publish(&self, index: RewriteIndex) {
        self.index.swap(index);
    }

    /// Applies the named-op delta at `path` and swaps the next generation
    /// in; on error the previous generation keeps serving untouched. A
    /// snapshot or ingest server refuses before opening the file; an
    /// updatable one rebuilds the dirty components' rows under its context
    /// lock; a live one refreshes its engine. The stats count the queries of
    /// dirty components as refreshed and the rest as copied.
    pub fn apply_update(&self, path: &str) -> Result<RebuildStats, String> {
        match &self.source {
            Source::Fixed => Err("server was started without a live graph (snapshot mode)".into()),
            Source::Ingest(_) => Err(
                "this server ingests a click log; the index refreshes at epoch boundaries".into(),
            ),
            Source::Rows(ctx) => {
                // Poisoning recovered: the context's only mutation is the
                // trailing whole-value `ctx.graph` assignment — a holder that
                // panicked anywhere leaves the previous generation intact.
                let mut ctx = ctx.lock().unwrap_or_else(PoisonError::into_inner);
                let (graph, dirty) = read_delta(&ctx.graph, path)?;
                // An opened (mapped) generation is deep-checked by the
                // rebuild before its clean rows are copied; the rebuilt
                // generation serves from the heap — the snapshot file on disk
                // is a build artifact, not the live truth, once updates start
                // landing.
                let (next, stats) = self.index.load().rebuild_incremental(
                    &graph,
                    &dirty,
                    &ctx.config,
                    &ctx.rewriter,
                    None,
                )?;
                self.index.swap(next);
                ctx.graph = Arc::new(graph);
                Ok(stats)
            }
            Source::Live(live) => live.update(path),
        }
    }
}

/// Answers one query from the server's one row source: a live server's
/// engine, every other server's `index`. A query the source does not hold
/// answers `err\tunknown query`.
pub(crate) fn respond<W: Write>(
    state: &ServeState,
    index: &RewriteIndex,
    query: &str,
    out: &mut W,
    metrics: Option<&ServerMetrics>,
) -> io::Result<()> {
    let answered = match &state.source {
        Source::Live(live) => live.serve(query).map(|(row, graph)| {
            write_row(out, query, row.iter().copied(), |id| {
                graph.query_name(id).map(str::as_bytes)
            })
        }),
        _ => index.lookup(query).map(|q| {
            let (targets, scores) = index.row(q);
            let row = targets.iter().map(|&id| QueryId(id));
            write_row(out, query, row.zip(scores.iter().copied()), |id| {
                index.name_to_write(id)
            })
        }),
    };
    answered.unwrap_or_else(|| err_line(out, metrics, "unknown query", query))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::serve_session;
    use simrankpp_core::{Method, Rewriter};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::WeightKind;

    pub(crate) fn fig3_index() -> RewriteIndex {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    }

    pub(crate) fn fig3_state() -> ServeState {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        let index = RewriteIndex::build(&rewriter, None, 1);
        ServeState::updatable(
            index,
            UpdateContext {
                graph: Arc::new(g),
                config: cfg,
                rewriter: RewriterConfig::default(),
            },
        )
    }

    pub(crate) fn empty_meta() -> crate::index::IndexMeta {
        crate::index::IndexMeta {
            method: MethodKind::WeightedSimrank,
            max_rewrites: 5,
            bid_filtered: false,
            approx_sharding: false,
            kernel: simrankpp_core::KernelKind::default(),
            segments: 0,
        }
    }

    /// Live-only state over figure 3: empty index, every query served cold.
    pub(crate) fn live_state() -> ServeState {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let live = LiveContext::new(
            g,
            MethodKind::WeightedSimrank,
            cfg,
            RewriterConfig::default(),
        )
        .unwrap();
        ServeState::fixed(RewriteIndex::empty(empty_meta())).with_live(live, 64)
    }

    pub(crate) fn run_on(state: &ServeState, input: &str) -> String {
        let mut out = Vec::new();
        serve_session(state, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    pub(crate) fn run(input: &str) -> String {
        run_on(&ServeState::fixed(fig3_index()), input)
    }

    #[test]
    fn update_verb_hot_swaps_and_changes_only_dirty_answers() {
        let state = fig3_state();
        let delta_path = std::env::temp_dir().join("simrankpp_serve_update_test.tsv");
        // Boost pc→hp: the big component is dirty, flower's is not.
        std::fs::write(&delta_path, "+\tpc\thp.com\t100\t80\t0.8\n").unwrap();

        let mut before = Vec::new();
        serve_session(
            &state,
            "rewrite camera\nrewrite flower\n".as_bytes(),
            &mut before,
        )
        .unwrap();
        let mut out = Vec::new();
        serve_session(
            &state,
            format!(
                "update {}\nrewrite camera\nrewrite flower\n",
                delta_path.display()
            )
            .as_bytes(),
            &mut out,
        )
        .unwrap();
        std::fs::remove_file(&delta_path).ok();

        let before = String::from_utf8(before).unwrap();
        let out = String::from_utf8(out).unwrap();
        let before: Vec<&str> = before.lines().collect();
        let after: Vec<&str> = out.lines().collect();
        // updated\t<queries>\t<refreshed>\t<copied>\t<dirty>\t<clean>
        assert_eq!(
            after[0].split('\t').collect::<Vec<_>>(),
            vec!["updated", "5", "4", "1", "1", "1"]
        );
        assert_ne!(after[1], before[0], "dirty query's answer must change");
        assert_eq!(after[2], before[1], "clean query's answer must not");
    }

    #[test]
    fn update_verb_refused_without_live_graph_and_on_bad_delta() {
        // Snapshot mode: refused for what the server is, before the file
        // is opened.
        let out = run("update /no/such/delta.tsv\n");
        assert!(out.starts_with("err\tupdate failed\t"), "{out}");
        assert!(out.contains("snapshot mode"), "{out}");

        // Live graph, but unreadable delta: the old generation keeps serving.
        let state = fig3_state();
        let mut out = Vec::new();
        serve_session(
            &state,
            "update /no/such/delta.tsv\nrewrite camera\n".as_bytes(),
            &mut out,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err\tupdate failed\t"));
        assert!(lines[1].starts_with("ok\tcamera\t"));
    }

    #[test]
    fn live_fallback_serves_cold_query_and_repeat_hits_cache() {
        let state = live_state();
        let out = run_on(
            &state,
            "rewrite camera\nrewrite camera\nrewrite zzz\ninfo\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        let fields: Vec<&str> = lines[0].split('\t').collect();
        assert_eq!(fields[0], "ok");
        assert_eq!(fields[1], "camera");
        assert_eq!(fields[3], "digital camera", "{out}");
        // The warm answer is byte-identical to the cold one: the cached row
        // goes through the same writer.
        assert_eq!(lines[1], lines[0]);
        // A query absent from the graph is an error.
        assert!(lines[2].starts_with("err\tunknown query\tzzz"));
        assert!(lines[3].contains("rowcache=on"), "{out}");
        assert!(lines[3].contains("cache_hits=1"), "{out}");
        // zzz fails graph resolution before the cache probe: one miss only.
        assert!(lines[3].contains("cache_misses=1"), "{out}");
        assert!(lines[3].contains("cache_entries=1"), "{out}");
    }

    #[test]
    fn live_answers_rank_like_the_precomputed_index() {
        // For every figure-3 query the live pipeline must produce the same
        // rewrite names in the same order as the offline index build (the
        // scores may differ in trailing digits: the live engine evaluates
        // the converged series, the index a fixed iteration budget).
        let indexed = ServeState::fixed(fig3_index());
        let state = live_state();
        let g = figure3_graph();
        for q in g.queries() {
            let name = g.query_name(q).unwrap();
            let live_line = run_on(&state, &format!("rewrite {name}\n"));
            let indexed_line = run_on(&indexed, &format!("rewrite {name}\n"));
            let names = |line: &str| -> Vec<String> {
                line.trim_end()
                    .split('\t')
                    .skip(3)
                    .step_by(2)
                    .map(str::to_owned)
                    .collect()
            };
            assert_eq!(
                names(&live_line),
                names(&indexed_line),
                "live vs indexed rewrites diverge for {name}"
            );
        }
    }

    #[test]
    fn live_refuses_the_kinds_that_do_not_walk() {
        for kind in [MethodKind::Naive, MethodKind::Pearson] {
            let cfg = SimrankConfig::default();
            let live = LiveContext::new(figure3_graph(), kind, cfg, RewriterConfig::default());
            let Err(err) = live else {
                panic!("{} has no single-source form", kind.name());
            };
            let want = format!(
                "live single-source serving needs a recursive SimRank method, not {}",
                kind.name()
            );
            assert_eq!(err, want);
        }
    }

    #[test]
    fn update_rebuilds_live_engine_and_invalidates_cache() {
        let state = live_state();
        let delta_path = std::env::temp_dir().join("simrankpp_live_update_test.tsv");
        std::fs::write(&delta_path, "+\tpc\thp.com\t100\t80\t0.8\n").unwrap();
        let out = run_on(
            &state,
            &format!(
                "rewrite pc\nrewrite flower\nupdate {}\nrewrite pc\nrewrite flower\ninfo\n",
                delta_path.display()
            ),
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ok\tpc\t"), "{out}");
        // Live-only update: the `updated` line counts what was recomputed.
        // Figure 3 has one dirty component (pc's, 4 queries) and one clean
        // (flower's, 1 query, its correction copied).
        assert_eq!(
            lines[2].split('\t').collect::<Vec<_>>(),
            vec!["updated", "5", "4", "1", "1", "1"]
        );
        assert!(lines[3].starts_with("ok\tpc\t"), "{out}");
        assert_ne!(lines[3], lines[0], "boosted edge must change pc's answer");
        assert_eq!(lines[4], lines[1], "flower's component was not touched");
        assert!(lines[5].contains("cache_generation=1"), "{out}");
        assert!(lines[5].contains("cache_entries=2"), "{out}");

        // A delta that adds an ad but no query: the workspace must grow on
        // the ad side too, or the next cold row indexes out of bounds.
        std::fs::write(&delta_path, "+\tcamera\tnewad.com\t100\t80\t0.8\n").unwrap();
        let out = run_on(
            &state,
            &format!(
                "update {}\nrewrite camera\nrewrite flower\n",
                delta_path.display()
            ),
        );
        std::fs::remove_file(&delta_path).ok();
        let grown: Vec<&str> = out.lines().collect();
        assert_eq!(
            grown[0].split('\t').collect::<Vec<_>>(),
            vec!["updated", "5", "4", "1", "1", "1"]
        );
        assert!(grown[1].starts_with("ok\tcamera\t"), "{out}");
        assert_eq!(grown[2], lines[1], "flower's component was not touched");
    }

    #[test]
    fn non_utf8_name_in_an_opened_snapshot_renders_as_its_id() {
        // `open` checks no payload, so a corrupt name reaches the renderer:
        // it must answer `#<id>`, not write the invalid bytes.
        let index = fig3_index();
        let target = index.lookup("digital camera").unwrap();
        let mut bytes = index.as_bytes().to_vec();
        let blob = crate::snapshot::tests::section_range(&bytes, 0x06).start;
        let name_at = (0..target.0)
            .map(|q| index.query_name(QueryId(q)).unwrap().len())
            .sum::<usize>();
        bytes[blob + name_at] = 0xff;
        let path = std::env::temp_dir().join("simrankpp_non_utf8_name.idx");
        std::fs::write(&path, &bytes).unwrap();
        let out = run_on(
            &ServeState::fixed(RewriteIndex::open(&path).unwrap()),
            "rewrite camera\n",
        );
        std::fs::remove_file(&path).ok();
        let fields: Vec<&str> = out.trim_end().split('\t').collect();
        assert_eq!(fields[..2], ["ok", "camera"]);
        assert_eq!(fields[3], format!("#{}", target.0), "{out}");
    }

    #[test]
    fn concurrent_updates_do_not_lose_deltas() {
        // Two writers race apply_update on the live path. Before the
        // updater lock, both cloned ctx.graph before either rebuild
        // committed, so one delta was silently dropped and its query
        // answered `err\tunknown query` forever after.
        let state = std::sync::Arc::new(live_state());
        let dir = std::env::temp_dir();
        let path_a = dir.join("simrankpp_two_writer_a.tsv");
        let path_b = dir.join("simrankpp_two_writer_b.tsv");
        std::fs::write(&path_a, "+\tnewqa\thp.com\t10\t8\t0.8\n").unwrap();
        std::fs::write(&path_b, "+\tnewqb\thp.com\t10\t8\t0.8\n").unwrap();

        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            for path in [&path_a, &path_b] {
                let state = std::sync::Arc::clone(&state);
                let barrier = std::sync::Arc::clone(&barrier);
                let arg = path.display().to_string();
                s.spawn(move || {
                    barrier.wait();
                    state.apply_update(&arg).unwrap();
                });
            }
        });
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();

        let out = run_on(&state, "rewrite newqa\nrewrite newqb\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ok\tnewqa\t"), "delta A lost: {out}");
        assert!(lines[1].starts_with("ok\tnewqb\t"), "delta B lost: {out}");
    }
}
