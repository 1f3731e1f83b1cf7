//! The stdin/stdout line protocol spoken by the `serve` binary.
//!
//! Requests, one per line:
//!
//! * `rewrite <query>` — serve the precomputed rewrites of one query;
//! * `batch <path>` — serve every query listed in `<path>` (one per line,
//!   blank lines and `#` comments skipped), then a `done` summary;
//! * `update <delta.tsv>` — apply a click-graph delta
//!   (`simrankpp_graph::delta::read_delta_tsv` format) to the server's
//!   graph and atomically swap the next generation in — requests keep being
//!   answered throughout, each against one consistent generation. Needs a
//!   server that holds a graph ([`ServeState::updatable`] or
//!   [`ServeState::with_live`]); a snapshot or ingest server refuses it
//!   before opening the file;
//! * `info` — one line of index metadata (`backing=mmap` for an opened
//!   snapshot, `heap` for a loaded, built or updated generation, and
//!   `snapshot_bytes`, the size `save` would write) plus, on a live
//!   single-source server, the row-cache statistics (capacity, entries,
//!   hit/miss counters, invalidation generation);
//! * `quit` — clean shutdown (EOF works too).
//!
//! ## Row sources
//!
//! A server has exactly one source of rows. An indexed server — a
//! snapshot, a build, an updatable build or an ingest loop's publishes —
//! answers from its [`RewriteIndex`] and nothing else: a query the index
//! does not hold is `err\tunknown query`. A live single-source server (the
//! binary's `--mode single-source`, built with a [`LiveContext`]) holds no
//! rows at all: it resolves each query against its click graph, computes
//! the row on demand with `simrankpp_core::SingleSourceEngine`, replays the
//! §9.3 pipeline (rank → stem-dedup → top-5; the live path carries no
//! bid-term list, so the bid filter does not apply), and answers `ok`
//! exactly like an indexed hit. The picked rows land in a bounded LRU
//! ([`crate::rowcache::RowCache`]) of scored ids keyed by query id, so a
//! repeat of a cold query is a hash probe. One row writer renders index
//! rows, live misses and cache hits alike, so a hit is byte-identical to
//! the miss that populated it. A live server's `update` refreshes its
//! engine for the post-delta graph — the diagonal correction of the dirty
//! components recomputed, the clean components' copied — with the context
//! lock released, so requests are answered by the previous generation for
//! as long as that takes; the commit swaps graph and engine in and
//! invalidates the cache (generation bump) under one momentary lock.
//!
//! Responses are single tab-separated lines. TSV-loaded graphs cannot carry
//! tabs in names (`write_tsv` rejects them), but programmatically built
//! graphs and arbitrary client input can — every echoed field is therefore
//! sanitized (tabs/newlines become spaces) so one response is always exactly
//! one line with intact framing:
//!
//! * `ok\t<query>\t<k>[\t<name>\t<score>]...` — `k` rewrites in ranking
//!   order; an unnamed rewrite target prints as `#<id>`, and a score with
//!   six decimals, correctly rounded half to even (the bytes of `{:.6}`);
//! * `err\t<reason>\t<detail>` — unknown query / command / unreadable file;
//! * `done\t<count>` — closes a `batch` response block (always emitted, even
//!   when the batch file fails mid-read);
//! * `updated\t<queries>\t<refreshed>\t<copied>\t<dirty>\t<clean>` —
//!   acknowledges a hot-swapped `update` (totals, refreshed vs copied rows —
//!   on a live server, queries whose correction was recomputed vs
//!   copied — and dirty vs clean components);
//! * `bye` — acknowledges `quit`.
//!
//! Framing guarantee: responses are line-buffered and explicitly flushed
//! after every request *and* on every exit path — EOF, `quit`, and mid-read
//! I/O errors (a truncated stdin) — so the peer never observes a
//! half-written response line.
//!
//! ## Transports and the permission boundary
//!
//! The same session loop drives the local stdin/stdout pipe and every TCP
//! connection of [`crate::net`] — one code path, so a network answer is
//! byte-identical to the pipe's by construction. What differs per
//! [`Transport`] is the *verb surface*:
//!
//! * [`Transport::Stdin`] — the operator's own shell: every verb except
//!   `shutdown` (there is no listener to stop);
//! * [`Transport::NetData`] — untrusted remote clients: `rewrite` and
//!   `quit` only. `batch <path>` names a **server-side** file — over TCP
//!   that verb would echo any readable file (`/etc/passwd`, snapshots,
//!   delta logs) back through `err` lines, so it answers
//!   `err\tbatch not permitted`. `update`/`info`/`shutdown` are admin
//!   plane;
//! * [`Transport::NetAdmin`] — the separately-bound (typically
//!   loopback-only) admin listener: the full surface plus `shutdown`,
//!   which drains and stops the whole server.
//!
//! Sessions carry optional [`ServerMetrics`] (requests/errors/timeouts are
//! counted here, connection lifecycle in `net`) and an optional
//! [`ShutdownSignal`]; a draining server answers the next request of every
//! open session with `bye\tdraining` and closes it.

use crate::index::{RebuildStats, RewriteIndex};
use crate::ingest::IngestMetrics;
use crate::net::{ServerMetrics, ShutdownSignal};
use crate::rowcache::{Row, RowCache};
use crate::swap::AtomicHandle;
use simrankpp_core::rewriter::{candidates, funnel, stem_classes, FunnelScratch, StemClasses};
use simrankpp_core::weighted::SpreadMode;
use simrankpp_core::{
    DiagonalCorrection, MethodKind, RewriterConfig, RowWorkspace, SimrankConfig,
    SingleSourceEngine, UniformTransition, WeightedTransition,
};
use simrankpp_graph::delta::read_delta_tsv;
use simrankpp_graph::{ClickGraph, DirtyComponents, QueryId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

/// Writes an echoed field with each frame-breaking byte (tab, newline,
/// carriage return) replaced by a space, so a response stays one line with
/// intact framing.
fn write_clean<W: Write>(out: &mut W, field: &[u8]) -> io::Result<()> {
    let frame_breaking = |b: &u8| matches!(b, b'\t' | b'\n' | b'\r');
    if !field.iter().any(frame_breaking) {
        return out.write_all(field);
    }
    let spaced: Vec<u8> = field
        .iter()
        .map(|b| if frame_breaking(b) { b' ' } else { *b })
        .collect();
    out.write_all(&spaced)
}

/// Which transport a session speaks — the protocol's permission boundary
/// (see the module docs for the verb surface of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// The local stdin/stdout pipe: the operator's own shell.
    #[default]
    Stdin,
    /// A network data-plane connection: untrusted remote clients.
    NetData,
    /// The network admin plane: operator verbs, including `shutdown`.
    NetAdmin,
}

impl Transport {
    /// Whether `verb` may run on this transport. Unknown verbs pass — they
    /// fall through to the regular unknown-command error.
    fn permits(self, verb: &str) -> bool {
        match verb {
            "batch" | "update" | "info" | "shutdown" => !matches!(self, Transport::NetData),
            _ => true,
        }
    }
}

/// Per-session policy and instrumentation: which transport the peer speaks,
/// where to count traffic, and which shutdown signal to watch (and, for the
/// admin plane, to trigger).
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// The permission boundary this session runs under.
    pub transport: Transport,
    /// Request/error/timeout counters, shared with every other session of
    /// the same server and reported by the `info` verb.
    pub metrics: Option<Arc<ServerMetrics>>,
    /// When present: the session answers `bye\tdraining` and closes as soon
    /// as it observes the signal, and (admin plane only) the `shutdown`
    /// verb triggers it.
    pub shutdown: Option<Arc<ShutdownSignal>>,
    /// Enables the `debug-panic` verb, which panics the handler thread
    /// mid-request — the test hook behind the panic-survival suite. Never
    /// set outside tests.
    pub debug_verbs: bool,
}

impl SessionOptions {
    /// The historical stdin/stdout pipe: full verb surface, no counters.
    pub fn stdin() -> SessionOptions {
        SessionOptions::default()
    }

    /// A network session on `transport` sharing a server's counters and
    /// shutdown signal.
    pub fn network(
        transport: Transport,
        metrics: Arc<ServerMetrics>,
        shutdown: Arc<ShutdownSignal>,
    ) -> SessionOptions {
        SessionOptions {
            transport,
            metrics: Some(metrics),
            shutdown: Some(shutdown),
            debug_verbs: false,
        }
    }
}

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
/// (`SingleSourceEngine::refreshed`). Only the recursive SimRank methods run
/// on the propagation engine; `Naive`/`Pearson` have no single-source
/// formulation here and are refused.
fn live_engine(
    previous: &DiagonalCorrection,
    graph: &ClickGraph,
    dirty: &DirtyComponents,
    method: MethodKind,
    config: &SimrankConfig,
) -> Result<SingleSourceEngine, String> {
    match method {
        MethodKind::Simrank | MethodKind::EvidenceSimrank => {
            SingleSourceEngine::refreshed(previous, graph, dirty, config, &UniformTransition)
        }
        MethodKind::WeightedSimrank => SingleSourceEngine::refreshed(
            previous,
            graph,
            dirty,
            config,
            &WeightedTransition {
                kind: config.weight_kind,
                spread: SpreadMode::Exponential,
            },
        ),
        other => Err(format!(
            "live single-source serving needs a recursive SimRank method, not {}",
            other.name()
        )),
    }
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
        candidates(&self.graph, q, row, evidence, &mut self.funnel.candidates);
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

/// Drives the line protocol over any reader/writer pair until EOF or `quit`,
/// with the full stdin verb surface and no instrumentation — the historical
/// single-client entry point, now a thin wrapper over
/// [`serve_session_with`].
pub fn serve_session<R: BufRead, W: Write>(state: &ServeState, input: R, out: W) -> io::Result<()> {
    serve_session_with(state, input, out, &SessionOptions::stdin())
}

/// Longest request line a session reads, terminator excluded: a peer that
/// never sends `\n` must not grow the line buffer without bound.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

/// Writes one `err` response line, its detail sanitized, counting it when
/// metrics are wired.
fn err_line<W: Write>(
    out: &mut W,
    metrics: Option<&ServerMetrics>,
    reason: &str,
    detail: &str,
) -> io::Result<()> {
    if let Some(m) = metrics {
        m.errors.fetch_add(1, Ordering::Relaxed);
    }
    write!(out, "err\t{reason}\t")?;
    write_clean(out, detail.as_bytes())?;
    writeln!(out)
}

/// Renders the `health` response: liveness state plus, in ingest mode, the
/// window epoch, refresh count, and the age of the last durable checkpoint
/// — the fields an external supervisor needs to tell a wedged process from
/// a slow epoch. Permitted on every transport (a supervisor probes the
/// data port), and answered even while draining.
///
/// `health\tstate=ready|ingesting|draining[\tingest_epoch=N]`
/// `[\tingest_refreshes=N][\tlast_checkpoint_age_ms=N|none]`
fn health_line(state: &ServeState, draining: bool) -> String {
    let mut line = String::from("health\tstate=");
    line.push_str(if draining {
        "draining"
    } else if state.ingest_metrics().is_some() {
        "ingesting"
    } else {
        "ready"
    });
    if let Some(ing) = state.ingest_metrics() {
        use std::fmt::Write as _;
        let _ = write!(
            line,
            "\tingest_epoch={}\tingest_refreshes={}",
            ing.epoch.load(Ordering::Relaxed),
            ing.refreshes.load(Ordering::Relaxed)
        );
        let committed = ing.last_checkpoint_unix_ms.load(Ordering::Relaxed);
        if committed == 0 {
            line.push_str("\tlast_checkpoint_age_ms=none");
        } else {
            let now_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(committed);
            let _ = write!(
                line,
                "\tlast_checkpoint_age_ms={}",
                now_ms.saturating_sub(committed)
            );
        }
    }
    line
}

/// Drives the line protocol over any reader/writer pair until EOF, `quit`,
/// a read timeout, or server drain — under the permission boundary and
/// instrumentation of `opts`. Output is flushed after every request — and
/// on every exit path, including mid-read I/O errors — so interactive pipes
/// and sockets see responses immediately and a truncated input never leaves
/// a half-written response line.
///
/// A read timeout (`ErrorKind::TimedOut`/`WouldBlock`, produced by a socket
/// with `set_read_timeout`) is a *clean* exit: the peer stalled, gets a
/// best-effort `err\tread timeout` line, and the session returns `Ok` — the
/// connection thread is freed instead of pinned forever. A request line over
/// [`MAX_REQUEST_LINE_BYTES`] gets `err\tline too long\t<limit>` and a close.
pub fn serve_session_with<R: BufRead, W: Write>(
    state: &ServeState,
    mut input: R,
    out: W,
    opts: &SessionOptions,
) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    let metrics = opts.metrics.as_deref();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // `take` bounds what one request can make `buf` hold, newline or not.
        let read = (&mut input)
            .take(MAX_REQUEST_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf);
        match read {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                // Stalled peer: free the thread. Best-effort farewell — the
                // peer may be gone entirely, which must not turn a clean
                // timeout close into a session error.
                if let Some(m) = metrics {
                    m.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                let _ = writeln!(out, "err\tread timeout\tclosing stalled connection");
                let _ = out.flush();
                return Ok(());
            }
            Err(e) => {
                // A truncated or failing input must still flush every
                // complete response written so far before surfacing.
                out.flush()?;
                return Err(e);
            }
        }
        if buf.len() > MAX_REQUEST_LINE_BYTES && buf.last() != Some(&b'\n') {
            // The rest is unread and may never end: answer and close.
            err_line(
                &mut out,
                metrics,
                "line too long",
                &MAX_REQUEST_LINE_BYTES.to_string(),
            )?;
            return out.flush();
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            out.flush()?;
            return Err(io::ErrorKind::InvalidData.into());
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // A draining server finishes nothing new: the current request is
        // answered with the farewell and the session closes, letting the
        // accept loop's join complete. The one exception is `health` — a
        // supervisor probing a draining server must get the structured
        // state, not a bare farewell it can't tell from a shutdown verb's.
        if opts.shutdown.as_ref().is_some_and(|s| s.is_draining()) {
            if line == "health" || line.starts_with("health ") {
                writeln!(out, "{}", health_line(state, true))?;
            } else {
                writeln!(out, "bye\tdraining")?;
            }
            out.flush()?;
            break;
        }
        let (cmd, arg) = match line.split_once(' ') {
            Some((c, a)) => (c, a.trim()),
            None => (line, ""),
        };
        if let Some(m) = metrics {
            m.served.fetch_add(1, Ordering::Relaxed);
        }
        if !opts.transport.permits(cmd) {
            // The data plane's whole surface is rewrite/quit. `batch` in
            // particular names a *server-side* file: permitted over TCP it
            // would echo any readable file back through err lines — a
            // remote file-disclosure primitive, not a protocol verb.
            let scope = if cmd == "shutdown" {
                "admin transport only"
            } else {
                "admin or stdin transport only"
            };
            err_line(&mut out, metrics, &format!("{cmd} not permitted"), scope)?;
            out.flush()?;
            continue;
        }
        match cmd {
            "rewrite" => respond(state, &state.index.load(), arg, &mut out, opts)?,
            "batch" => match File::open(arg) {
                Err(e) => err_line(
                    &mut out,
                    metrics,
                    "cannot read batch file",
                    &format!("{arg}: {e}"),
                )?,
                Ok(f) => {
                    // One generation serves the whole batch: a mid-batch
                    // hot swap cannot mix generations within the block.
                    let index = state.index.load();
                    let mut served = 0usize;
                    for q in BufReader::new(f).lines() {
                        // A mid-file read error must not kill the serve loop
                        // or leave the response block without its `done`
                        // terminator — report it and close the batch.
                        let q = match q {
                            Ok(q) => q,
                            Err(e) => {
                                err_line(
                                    &mut out,
                                    metrics,
                                    "batch read failed",
                                    &format!("{arg}: {e}"),
                                )?;
                                break;
                            }
                        };
                        let q = q.trim();
                        if q.is_empty() || q.starts_with('#') {
                            continue;
                        }
                        respond(state, &index, q, &mut out, opts)?;
                        served += 1;
                    }
                    writeln!(out, "done\t{served}")?;
                }
            },
            "update" => match state.apply_update(arg) {
                Ok(s) => writeln!(
                    out,
                    "updated\t{}\t{}\t{}\t{}\t{}",
                    s.refreshed_queries + s.copied_queries,
                    s.refreshed_queries,
                    s.copied_queries,
                    s.n_dirty_components,
                    s.n_clean_components
                )?,
                Err(e) => err_line(&mut out, metrics, "update failed", &e)?,
            },
            "info" => {
                let index = state.index.load();
                write!(
                    out,
                    "info\tmethod={}\tqueries={}\tentries={}\tkernel={:?}\tbacking={}\
                     \tsnapshot_bytes={}",
                    index.meta().method.name(),
                    index.n_queries(),
                    index.n_entries(),
                    index.meta().kernel,
                    index.backing(),
                    index.as_bytes().len()
                )?;
                if index.meta().segments > 0 {
                    write!(out, "\tsegments={}", index.meta().segments)?;
                }
                if let Some(m) = metrics {
                    write!(out, "\t{m}")?;
                }
                if let Some(ing) = state.ingest_metrics() {
                    write!(out, "\t{ing}")?;
                }
                match state.cache_stats() {
                    Some(s) => writeln!(
                        out,
                        "\trowcache=on\tcache_capacity={}\tcache_entries={}\tcache_hits={}\
                         \tcache_misses={}\tcache_generation={}",
                        s.capacity, s.entries, s.hits, s.misses, s.generation
                    )?,
                    None => writeln!(out, "\trowcache=off")?,
                }
            }
            "shutdown" => match opts.shutdown.as_ref() {
                Some(signal) => {
                    // Acknowledge first (trigger wakes the accept loops,
                    // which may tear things down immediately after).
                    writeln!(out, "bye\tdraining")?;
                    out.flush()?;
                    signal.trigger();
                    break;
                }
                None => err_line(
                    &mut out,
                    metrics,
                    "shutdown not available",
                    "no network listener on this session",
                )?,
            },
            "health" => {
                writeln!(out, "{}", health_line(state, false))?;
            }
            "quit" => {
                writeln!(out, "bye")?;
                out.flush()?;
                break;
            }
            "debug-panic" if opts.debug_verbs => {
                // Test hook: a handler thread dying mid-request, with the
                // response flushed first so the peer can observe the abrupt
                // close that follows.
                writeln!(out, "ok\tdebug-panic\tpanicking this handler")?;
                out.flush()?;
                panic!("debug-panic verb");
            }
            _ => err_line(&mut out, metrics, "unknown command", cmd)?,
        }
        out.flush()?;
    }
    out.flush()
}

/// Answers one query from the server's one row source: a live server's
/// engine, every other server's `index`. A query the source does not hold
/// answers `err\tunknown query`.
fn respond<W: Write>(
    state: &ServeState,
    index: &RewriteIndex,
    query: &str,
    out: &mut W,
    opts: &SessionOptions,
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
    answered.unwrap_or_else(|| err_line(out, opts.metrics.as_deref(), "unknown query", query))
}

/// Writes one `ok` line — `ok\t<query>\t<k>[\t<name>\t<score>]...` — for
/// every row kind: `row` is `(target, score)` in ranking order, and a
/// target `name` cannot spell prints as `#<id>`.
fn write_row<'a, W: Write>(
    out: &mut W,
    query: &str,
    row: impl ExactSizeIterator<Item = (QueryId, f64)>,
    name: impl Fn(QueryId) -> Option<&'a [u8]>,
) -> io::Result<()> {
    out.write_all(b"ok\t")?;
    write_clean(out, query.as_bytes())?;
    write!(out, "\t{}", row.len())?;
    for (id, score) in row {
        out.write_all(b"\t")?;
        match name(id) {
            Some(name) => write_clean(out, name)?,
            None => write!(out, "#{}", id.0)?,
        }
        write_score(out, score)?;
    }
    writeln!(out)
}

/// `\t` and `score` with six decimals: the bytes of `{score:.6}` without
/// `core::fmt`. A score in `[0, 2^32)` is `m · 2^-shift` with `m < 2^53` and
/// `shift ≥ 21`, so `m · 10^6` fits a `u128` (below 2^73), and shifting it
/// right while rounding the dropped bits half to even is the correctly
/// rounded `score · 10^6`. Anything else (a set sign bit, NaN, ±∞, `2^32`
/// and up) takes the `format!` path.
fn write_score<W: Write>(out: &mut W, score: f64) -> io::Result<()> {
    const TWO_POW_32: u64 = 0x41F0_0000_0000_0000; // (2^32 as f64).to_bits()
    let bits = score.to_bits();
    if bits >= TWO_POW_32 {
        return write_score_fallback(out, score);
    }
    let biased = (bits >> 52) as u32; // 0 for zero and subnormals
    let m = bits & ((1 << 52) - 1) | u64::from(biased != 0) << 52;
    let shift = 1075 - biased.max(1);
    let micros = if shift >= 128 {
        0 // m · 10^6 < 2^73 < 2^(shift - 1): under half a millionth
    } else {
        let scaled = u128::from(m) * 1_000_000;
        let (q, dropped) = (scaled >> shift, scaled & ((1 << shift) - 1));
        let half = 1 << (shift - 1);
        (q + u128::from(dropped > half || (dropped == half && q & 1 == 1))) as u64
    }; // ≤ 2^32 · 10^6
    let mut buf = [0u8; 18]; // `\t`, ten integer digits, `.`, six decimals
    let mut at = buf.len();
    let (mut int, mut frac) = (micros / 1_000_000, micros % 1_000_000);
    for _ in 0..6 {
        at -= 1;
        buf[at] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    loop {
        at -= 1;
        buf[at] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    at -= 1;
    buf[at] = b'\t';
    out.write_all(&buf[at..])
}

#[cold]
#[inline(never)]
fn write_score_fallback<W: Write>(out: &mut W, score: f64) -> io::Result<()> {
    write!(out, "\t{score:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::WeightKind;

    fn fig3_index() -> RewriteIndex {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    }

    fn run(input: &str) -> String {
        run_on(&ServeState::fixed(fig3_index()), input)
    }

    #[test]
    fn rewrite_command_serves_ranked_names() {
        let out = run("rewrite camera\n");
        let line = out.lines().next().unwrap();
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields[0], "ok");
        assert_eq!(fields[1], "camera");
        let k: usize = fields[2].parse().unwrap();
        assert!(k >= 1);
        assert_eq!(fields[3], "digital camera");
        assert_eq!(fields.len(), 3 + 2 * k);
    }

    #[test]
    fn unknown_query_and_command_report_errors() {
        let out = run("rewrite zzz\nfrobnicate\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err\tunknown query\tzzz"));
        assert!(lines[1].starts_with("err\tunknown command\tfrobnicate"));
    }

    #[test]
    fn empty_depth_is_ok_zero() {
        // flower is indexed but has no rewrites: ok with k = 0, not an error.
        let out = run("rewrite flower\n");
        assert_eq!(out.lines().next().unwrap(), "ok\tflower\t0");
    }

    #[test]
    fn multiword_queries_reach_the_index() {
        let out = run("rewrite digital camera\n");
        assert!(out.starts_with("ok\tdigital camera\t"));
    }

    #[test]
    fn quit_acknowledged_and_stops() {
        let out = run("quit\nrewrite camera\n");
        assert_eq!(out, "bye\n");
    }

    #[test]
    fn batch_mode_serves_file() {
        let path = std::env::temp_dir().join("simrankpp_serve_batch_test.txt");
        std::fs::write(&path, "camera\n# comment\n\npc\nzzz\n").unwrap();
        let out = run(&format!("batch {}\n", path.display()));
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ok\tcamera\t"));
        assert!(lines[1].starts_with("ok\tpc\t"));
        assert!(lines[2].starts_with("err\tunknown query\tzzz"));
        assert_eq!(lines[3], "done\t3");
    }

    #[test]
    fn missing_batch_file_is_an_error_line() {
        let out = run("batch /no/such/file\n");
        assert!(out.starts_with("err\tcannot read batch file\t"));
    }

    #[test]
    fn tab_in_request_cannot_break_framing() {
        // A query containing a tab is echoed sanitized: the err response
        // stays exactly 3 tab-separated fields on one line.
        let out = run("rewrite a\tb\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0].split('\t').collect::<Vec<_>>(),
            vec!["err", "unknown query", "a b"]
        );
    }

    fn fig3_state() -> ServeState {
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

    /// A reader that yields `prefix` and then fails — a truncated stdin.
    struct TruncatedInput<'a> {
        prefix: &'a [u8],
        pos: usize,
    }

    impl io::Read for TruncatedInput<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.prefix.len() {
                let n = buf.len().min(self.prefix.len() - self.pos);
                buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "stdin truncated",
                ))
            }
        }
    }

    impl BufRead for TruncatedInput<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pos < self.prefix.len() {
                Ok(&self.prefix[self.pos..])
            } else {
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "stdin truncated",
                ))
            }
        }
        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    /// A writer that only exposes bytes an explicit `flush` pushed through,
    /// so the test observes exactly what a pipe's reader would see.
    #[derive(Default)]
    struct FlushTrackingWriter {
        flushed: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
        pending: Vec<u8>,
    }

    impl Write for FlushTrackingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.pending.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushed.borrow_mut().extend_from_slice(&self.pending);
            self.pending.clear();
            Ok(())
        }
    }

    #[test]
    fn truncated_stdin_flushes_complete_lines_and_surfaces_the_error() {
        // Two complete requests, then the input dies mid-stream. Every
        // response served so far must reach the peer as complete lines —
        // never a half-written `ok` — before the error surfaces.
        let index = fig3_index();
        let flushed = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let writer = FlushTrackingWriter {
            flushed: flushed.clone(),
            pending: Vec::new(),
        };
        let input = TruncatedInput {
            prefix: b"rewrite camera\nrewrite pc\n",
            pos: 0,
        };
        let err = serve_session(&ServeState::fixed(index), input, writer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let seen = String::from_utf8(flushed.borrow().clone()).unwrap();
        assert!(
            seen.ends_with('\n'),
            "flushed output ends mid-line: {seen:?}"
        );
        let lines: Vec<&str> = seen.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("ok\tcamera\t"));
        assert!(lines[1].starts_with("ok\tpc\t"));
    }

    fn empty_meta() -> crate::index::IndexMeta {
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
    fn live_state() -> ServeState {
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

    fn run_on(state: &ServeState, input: &str) -> String {
        let mut out = Vec::new();
        serve_session(state, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
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
    fn info_reports_rowcache_off_in_snapshot_mode() {
        let out = run("info\n");
        let line = out.lines().next().unwrap();
        assert!(
            line.starts_with("info\tmethod=weighted Simrank\t"),
            "{line}"
        );
        assert!(line.contains("\tqueries=5\t"), "{line}");
        assert!(line.ends_with("rowcache=off"), "{line}");
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
    fn tab_in_indexed_name_is_sanitized_on_output() {
        // Programmatically built graphs (not passing through write_tsv) can
        // carry tabs in names; the protocol must still frame correctly.
        use simrankpp_graph::{ClickGraphBuilder, EdgeData};
        let mut b = ClickGraphBuilder::new();
        b.add_named("x\ty", "ad", EdgeData::from_clicks(3));
        b.add_named("z", "ad", EdgeData::from_clicks(2));
        let g = b.build();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::Simrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        let index = RewriteIndex::build(&rewriter, None, 1);
        let out = run_on(&ServeState::fixed(index), "rewrite z\n");
        let fields: Vec<&str> = out.trim_end().split('\t').collect();
        assert_eq!(fields[..3], ["ok", "z", "1"]);
        assert_eq!(fields[3], "x y");
        assert_eq!(fields.len(), 5);

        // The same graph served live: the miss frames the same way, and the
        // cache hit that follows is the miss byte for byte.
        let live = LiveContext::new(g, MethodKind::Simrank, cfg, RewriterConfig::default());
        let state =
            ServeState::fixed(RewriteIndex::empty(empty_meta())).with_live(live.unwrap(), 4);
        let out = run_on(&state, "rewrite z\nrewrite z\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out:?}");
        let fields: Vec<&str> = lines[0].split('\t').collect();
        assert_eq!(fields[..4], ["ok", "z", "1", "x y"], "{out:?}");
        assert_eq!(fields.len(), 5);
        assert_eq!(lines[1], lines[0]);
        assert_eq!(
            state.cache_stats().map(|s| (s.hits, s.misses)),
            Some((1, 1))
        );
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

    fn run_with(state: &ServeState, input: &str, opts: &SessionOptions) -> String {
        let mut out = Vec::new();
        serve_session_with(state, input.as_bytes(), &mut out, opts).unwrap();
        String::from_utf8(out).unwrap()
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

    #[test]
    fn network_data_plane_rejects_restricted_verbs() {
        // Over the data plane, `batch` is a remote file-disclosure
        // primitive (it opens a *server-side* file named by the client) and
        // update/info/shutdown are management surface — all must be
        // refused, and the refusal must not close the session.
        let state = fig3_state();
        let opts = SessionOptions {
            transport: Transport::NetData,
            ..SessionOptions::default()
        };
        let out = run_with(
            &state,
            "batch /etc/passwd\nupdate x.tsv\ninfo\nshutdown\nrewrite camera\n",
            &opts,
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err\tbatch not permitted\t"), "{out}");
        assert!(lines[1].starts_with("err\tupdate not permitted\t"), "{out}");
        assert!(lines[2].starts_with("err\tinfo not permitted\t"), "{out}");
        assert!(
            lines[3].starts_with("err\tshutdown not permitted\t"),
            "{out}"
        );
        assert!(lines[4].starts_with("ok\tcamera\t"), "{out}");
    }

    #[test]
    fn admin_transport_keeps_the_full_verb_surface() {
        let state = fig3_state();
        let opts = SessionOptions {
            transport: Transport::NetAdmin,
            ..SessionOptions::default()
        };
        let path = std::env::temp_dir().join("simrankpp_admin_batch_test.txt");
        std::fs::write(&path, "camera\n").unwrap();
        let out = run_with(&state, &format!("batch {}\ninfo\n", path.display()), &opts);
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ok\tcamera\t"), "{out}");
        assert_eq!(lines[1], "done\t1");
        assert!(lines[2].starts_with("info\t"), "{out}");
    }

    #[test]
    fn stdin_shutdown_without_listener_reports_unavailable() {
        // Stdin permits the verb (it's the operator), but with no network
        // listener there is nothing to drain.
        let out = run("shutdown\nrewrite camera\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[0].starts_with("err\tshutdown not available\t"),
            "{out}"
        );
        assert!(lines[1].starts_with("ok\tcamera\t"), "{out}");
    }

    #[test]
    fn debug_panic_verb_is_gated() {
        let state = fig3_state();
        // Off by default: an unknown command, not a panic.
        let out = run_on(&state, "debug-panic\n");
        assert!(out.starts_with("err\tunknown command\t"), "{out}");
        // Enabled: panics after flushing its acknowledgement.
        let opts = SessionOptions {
            debug_verbs: true,
            ..SessionOptions::default()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with(&state, "debug-panic\n", &opts)
        }));
        assert!(err.is_err(), "debug-panic must panic when enabled");
    }

    #[test]
    fn draining_session_answers_bye_and_closes() {
        let state = fig3_state();
        let shutdown = Arc::new(crate::net::ShutdownSignal::new());
        shutdown.trigger();
        let opts = SessionOptions {
            shutdown: Some(shutdown),
            ..SessionOptions::default()
        };
        let out = run_with(&state, "rewrite camera\nrewrite pc\n", &opts);
        assert_eq!(out, "bye\tdraining\n");
    }

    /// A reader that times out (as a socket with `set_read_timeout` does)
    /// after yielding its prefix.
    struct StallingInput<'a> {
        prefix: &'a [u8],
        pos: usize,
    }

    impl io::Read for StallingInput<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.prefix.len() {
                let n = buf.len().min(self.prefix.len() - self.pos);
                buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out"))
            }
        }
    }

    impl BufRead for StallingInput<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pos < self.prefix.len() {
                Ok(&self.prefix[self.pos..])
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out"))
            }
        }
        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn fuzzed_sessions_end_cleanly_with_tagged_counted_lines() {
        // A seeded xorshift64 concatenates protocol fragments, stray tabs and
        // newlines, an over-long line, NUL bytes and invalid UTF-8. Every
        // session must end `Ok` or `InvalidData` (never by panic), every
        // response line must carry a protocol tag, and the `errors` counter
        // must equal the number of `err` lines. No fragment names a file, so
        // `batch`/`update` only ever miss.
        const PIECES: &[&[u8]] = &[
            b"rewrite ",
            b"rewrite camera\n",
            b"camera",
            b"digital camera",
            b"flower",
            b"zzz",
            b"batch ",
            b"update ",
            b"info",
            b"health",
            b"shutdown",
            b"debug-panic",
            b"quit",
            b" ",
            b"\t",
            b"\n",
            b"\r\n",
            b"\0",
            b"\xff",
            b"\xc3",
            "é".as_bytes(),
        ];
        const TAGS: [&str; 7] = ["ok", "err", "info", "health", "done", "bye", "updated"];
        let state = ServeState::fixed(fig3_index());
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let (mut clean, mut invalid) = (0usize, 0usize);
        for _ in 0..20_000 {
            let mut input = Vec::new();
            for _ in 0..below(12) {
                match below(60) {
                    0 => input.resize(input.len() + MAX_REQUEST_LINE_BYTES + below(64), b'x'),
                    _ => input.extend_from_slice(PIECES[below(PIECES.len())]),
                }
            }
            let metrics = Arc::new(crate::net::ServerMetrics::default());
            let opts = SessionOptions {
                metrics: Some(Arc::clone(&metrics)),
                ..SessionOptions::stdin()
            };
            let mut out = Vec::new();
            match serve_session_with(&state, input.as_slice(), &mut out, &opts) {
                Ok(()) => clean += 1,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    invalid += 1;
                }
            }
            let out = String::from_utf8(out).expect("responses are UTF-8");
            let mut err_lines = 0u64;
            for line in out.lines() {
                let tag = line.split('\t').next().unwrap();
                assert!(TAGS.contains(&tag), "untagged line {line:?}");
                err_lines += u64::from(tag == "err");
            }
            assert_eq!(metrics.errors.load(Ordering::Relaxed), err_lines, "{out}");
        }
        assert!(clean > 0 && invalid > 0, "{clean} clean, {invalid} invalid");
    }

    /// `write_score`'s bytes against its oracle, `{:.6}`.
    fn assert_score_matches_format(x: f64) {
        let mut got = Vec::new();
        write_score(&mut got, x).unwrap();
        let want = format!("\t{x:.6}");
        assert_eq!(got, want.as_bytes(), "{x:e} (bits {:#018x})", x.to_bits());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(20_000))]

        // Every bit pattern: about half take the fallback (sign, NaN, ∞,
        // 2^32 and up), the rest span subnormals to just below 2^32.
        #[test]
        fn score_writer_equals_format_on_any_bits(hi in 0u64..1 << 32, lo in 0u64..1 << 32) {
            assert_score_matches_format(f64::from_bits(hi << 32 | lo));
        }

        #[test]
        fn score_writer_equals_format_on_unit_scores(x in 0.0f64..1.0) {
            assert_score_matches_format(x);
        }

        // The only scores that tie at six decimals are odd multiples of
        // 1/128 (x · 10^6 = n + 1/2 needs 5^6 | 2n + 1): half to even.
        #[test]
        fn score_writer_rounds_dyadic_ties_to_even(int in 0u64..1 << 32, k in 0u64..128) {
            assert_score_matches_format(int as f64 + k as f64 / 128.0);
        }
    }

    #[test]
    fn score_writer_equals_format_on_edge_cases() {
        let below_two_pow_32 = f64::from_bits((4_294_967_296f64).to_bits() - 1);
        for x in [
            0.0,
            -0.0,
            0.0078125,
            0.0234375,
            0.9999995,
            0.0000005,
            0.00000049999999999999,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            below_two_pow_32,
            4_294_967_296.0,
            1e300,
            -0.306801,
        ] {
            assert_score_matches_format(x);
        }
        for k in 0..128 * 64 {
            assert_score_matches_format(k as f64 / 128.0);
        }
    }

    #[test]
    fn read_timeout_is_a_clean_close_not_an_error() {
        let state = fig3_state();
        let metrics = Arc::new(crate::net::ServerMetrics::default());
        let opts = SessionOptions {
            metrics: Some(Arc::clone(&metrics)),
            ..SessionOptions::default()
        };
        let mut out = Vec::new();
        let input = StallingInput {
            prefix: b"rewrite camera\n",
            pos: 0,
        };
        serve_session_with(&state, input, &mut out, &opts).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ok\tcamera\t"), "{out}");
        assert_eq!(lines[1], "err\tread timeout\tclosing stalled connection");
        assert_eq!(metrics.timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.served.load(Ordering::Relaxed), 1);
    }
}
