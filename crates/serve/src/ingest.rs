//! Streaming click-log ingestion: windowed epochs driving zero-downtime
//! index refreshes.
//!
//! The offline pipeline treats the click graph as a monthly batch artifact
//! (§3: "a specific time period"); production click traffic is a stream.
//! This module turns the incremental machinery (`GraphDelta` dirty
//! components → [`RewriteIndex::rebuild_incremental`] → `AtomicHandle`
//! hot-swap) into a *continuous* path:
//!
//! * an append-only **click log** (the delta TSV upsert shape with a
//!   leading epoch column, `simrankpp_graph::delta::ClickLogRecord`) is
//!   tailed as it grows ([`LogTailer`]);
//! * events accumulate into the current epoch bucket of a
//!   [`SlidingWindowGraph`]; `@ <epoch>` marker lines close epochs,
//!   retiring buckets older than the window and triggering a refresh;
//! * each refresh refreezes the window — re-folding only the edges an
//!   event **observed or retired** since the last refresh touched
//!   ([`SlidingWindowGraph::refreeze`]), so a small epoch never pays for
//!   the whole window — marks dirty exactly the components holding an
//!   endpoint of those events (sound because a frozen edge's data —
//!   decayed ECR included, see the window docs on per-edge age anchoring
//!   — depends only on its own surviving events), rebuilds those rows,
//!   and hot-swaps the new generation in while the TCP data plane keeps
//!   serving. The refreshed graph's fingerprint, which only a checkpoint
//!   reads, is hashed when a checkpoint first asks for it.
//!
//! The first refresh has no previous generation and runs a full build;
//! every later one is incremental, and is bit-identical to a from-scratch
//! build of the surviving window (`tests/stream_equivalence.rs` holds the
//! differential proof).
//!
//! [`IngestMetrics`] instruments the click-to-serve freshness story: how
//! long a refresh takes (`last_refresh_us`), and the end-to-end latency
//! from reading a batch's first event to the moment the swapped-in
//! generation reflects it (`last_freshness_us`). The protocol `info` verb
//! reports the counters; `bench_ci --tier stream` turns them into gated
//! `BENCH_stream.json` metrics.

use crate::index::{RebuildStats, RewriteIndex};
use crate::server::ServeState;
use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::delta::{dirty_for_endpoints, parse_click_log_line, ClickLogRecord};
use simrankpp_graph::{AdId, ClickGraph, EdgeData, Interner, QueryId, SlidingWindowGraph};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Parameters of one streaming ingest pipeline. The similarity and
/// rewriter configs play the same role as [`crate::server::UpdateContext`]:
/// every refresh must recompute with the parameters the previous
/// generation was built with, or the incremental rebuild would mix
/// regimes (and [`RewriteIndex::rebuild_incremental`] would refuse).
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Window length in epochs; events older than this retire.
    pub window: usize,
    /// Per-epoch ECR decay factor in `(0, 1]` (see
    /// [`SlidingWindowGraph::with_decay`]); 1 = no decay.
    pub decay: f64,
    /// The similarity method every generation is built with.
    pub method: MethodKind,
    /// The engine configuration every generation is built with.
    pub config: SimrankConfig,
    /// The §9.3 pipeline parameters every generation is built with.
    pub rewriter: RewriterConfig,
    /// Worker threads for the initial full build (`0` = all cores).
    pub threads: usize,
}

/// Shared atomic counters describing a running ingest pipeline, reported
/// by the protocol `info` verb (tab-separated `ingest_*=value` fields,
/// like [`crate::net::ServerMetrics`]).
#[derive(Debug, Default)]
pub struct IngestMetrics {
    /// Click events ingested (epoch marks excluded).
    pub events: AtomicU64,
    /// The window's current epoch.
    pub epoch: AtomicU64,
    /// Refreshes published (the first one is the full build).
    pub refreshes: AtomicU64,
    /// Cumulative index rows recomputed across refreshes.
    pub refreshed_rows: AtomicU64,
    /// Cumulative index rows copied verbatim across refreshes.
    pub copied_rows: AtomicU64,
    /// Wall-clock of the last refresh (freeze → rebuild → swap), in µs.
    pub last_refresh_us: AtomicU64,
    /// Click-to-serve freshness of the last refreshed batch: first event
    /// read → new generation swapped in, in µs.
    pub last_freshness_us: AtomicU64,
    /// Wall-clock of the last durable checkpoint commit, as milliseconds
    /// since the Unix epoch; 0 until the first commit (or when ingest runs
    /// without `--checkpoint`). The `health` verb turns this into an age.
    pub last_checkpoint_unix_ms: AtomicU64,
}

impl IngestMetrics {
    /// Stamps the last-checkpoint clock with the current wall time.
    pub fn mark_checkpoint(&self) {
        let now_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.last_checkpoint_unix_ms
            .store(now_ms, Ordering::Relaxed);
    }
}

impl std::fmt::Display for IngestMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ingest_epoch={}\tingest_events={}\tingest_refreshes={}\
             \tingest_refreshed_rows={}\tingest_copied_rows={}\
             \tingest_last_refresh_us={}\tingest_last_freshness_us={}",
            self.epoch.load(Ordering::Relaxed),
            self.events.load(Ordering::Relaxed),
            self.refreshes.load(Ordering::Relaxed),
            self.refreshed_rows.load(Ordering::Relaxed),
            self.copied_rows.load(Ordering::Relaxed),
            self.last_refresh_us.load(Ordering::Relaxed),
            self.last_freshness_us.load(Ordering::Relaxed)
        )
    }
}

/// The state machine between a click log and a served index: the sliding
/// window, the last published generation, and the endpoints whose
/// components the next refresh must recompute.
pub struct EpochIngestor {
    cfg: IngestConfig,
    window: SlidingWindowGraph,
    /// The last published index generation; `None` until the first
    /// refresh (which therefore runs a full build).
    index: Option<RewriteIndex>,
    /// `(query, ad)` endpoints of events observed or retired since the
    /// last refresh — the dirtiness frontier.
    pending: Vec<(QueryId, AdId)>,
    /// When the first event of the current unrefreshed batch was read.
    batch_started: Option<Instant>,
    /// For each recent epoch, the log byte offset of the record whose
    /// application advanced the window *into* that epoch — the offset a
    /// crash-recovery replay of that epoch's bucket must start from. Only
    /// populated by [`Self::apply_record_at`] (offset-aware callers);
    /// pruned to the epochs a future checkpoint could still need.
    advances: std::collections::VecDeque<(u64, u64)>,
    /// End offset of the last record applied via [`Self::apply_record_at`].
    applied_offset: u64,
    /// Index generations produced so far (survives resume: restored from
    /// the checkpoint so generation numbers stay monotonic across crashes).
    generation: u64,
    /// The window frozen by the last [`Self::refresh`].
    last_graph: Option<ClickGraph>,
    /// Its fingerprint, hashed the first time it is asked for.
    last_fingerprint: OnceLock<u64>,
}

impl EpochIngestor {
    /// An empty pipeline at epoch 0.
    pub fn new(cfg: IngestConfig) -> EpochIngestor {
        let window = SlidingWindowGraph::new(cfg.window).with_decay(cfg.decay);
        Self::with_window(cfg, window, 0)
    }

    /// A pipeline resumed mid-stream from checkpointed state: the window
    /// restarts at `epoch` with the full checkpointed name universe (see
    /// [`SlidingWindowGraph::resume`]) and generation numbering continues.
    /// The caller replays the click log tail before serving.
    pub fn resume(
        cfg: IngestConfig,
        epoch: u64,
        replay_offset: u64,
        query_names: Arc<Interner>,
        ad_names: Arc<Interner>,
        generation: u64,
    ) -> EpochIngestor {
        let window = SlidingWindowGraph::resume(cfg.window, epoch, query_names, ad_names)
            .with_decay(cfg.decay);
        let mut ing = Self::with_window(cfg, window, generation);
        // Seed the replay table with the bucket we were born into, so a
        // checkpoint committed at this same boundary still records a real
        // replay offset instead of falling back to a whole-log replay.
        ing.advances.push_back((epoch, replay_offset));
        ing.applied_offset = replay_offset;
        ing
    }

    fn with_window(
        cfg: IngestConfig,
        window: SlidingWindowGraph,
        generation: u64,
    ) -> EpochIngestor {
        EpochIngestor {
            cfg,
            window,
            index: None,
            pending: Vec::new(),
            batch_started: None,
            advances: std::collections::VecDeque::new(),
            applied_offset: 0,
            generation,
            last_graph: None,
            last_fingerprint: OnceLock::new(),
        }
    }

    /// The window's current epoch.
    pub fn epoch(&self) -> u64 {
        self.window.epoch()
    }

    /// The sliding window (checkpointing needs its interners).
    pub fn window(&self) -> &SlidingWindowGraph {
        &self.window
    }

    /// Index generations produced so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Fingerprint of the window frozen by the last refresh (0 before the
    /// first one), hashed on the first call after each refresh: an ingest
    /// that never checkpoints never pays for it.
    pub fn last_fingerprint(&self) -> u64 {
        self.last_graph.as_ref().map_or(0, |g| {
            *self.last_fingerprint.get_or_init(|| g.fingerprint())
        })
    }

    /// End offset of the last record applied with [`Self::apply_record_at`].
    pub fn applied_offset(&self) -> u64 {
        self.applied_offset
    }

    /// Where a crash-recovery replay must start to rebuild the current
    /// window: `(epoch, log byte offset)` of the first record belonging to
    /// the oldest surviving bucket. Falls back to `(0, 0)` — replay the
    /// whole log, always correct, just slower — when the window hasn't
    /// filled yet or offsets were never supplied.
    pub fn replay_start(&self) -> (u64, u64) {
        let epoch = self.window.epoch();
        let window = self.window.window() as u64;
        if epoch < window {
            return (0, 0);
        }
        let oldest = epoch - window + 1;
        self.advances
            .iter()
            .find(|&&(e, _)| e == oldest)
            .map(|&(e, off)| (e, off))
            .unwrap_or((0, 0))
    }

    /// Endpoints awaiting the next refresh.
    pub fn pending_endpoints(&self) -> usize {
        self.pending.len()
    }

    /// Records one click event into the current epoch bucket.
    pub fn observe(&mut self, query: &str, ad: &str, data: EdgeData) {
        if self.batch_started.is_none() {
            self.batch_started = Some(Instant::now());
        }
        let (q, a) = self.window.observe(query, ad, data);
        self.pending.push((q, a));
    }

    /// Advances the window to `epoch` (a no-op when not ahead), folding
    /// the retired events' endpoints into the dirtiness frontier.
    pub fn advance_to(&mut self, epoch: u64) {
        let retired = self.window.advance_to(epoch);
        self.pending.extend(retired);
    }

    /// Applies one parsed click-log record. Returns `true` when the record
    /// was an epoch mark that advanced the window — the signal that a
    /// refresh is due. Events stamped ahead of the current epoch advance
    /// it implicitly (their epoch just started — no refresh signal);
    /// events stamped behind it are late arrivals and fold into the
    /// current bucket.
    pub fn apply_record(&mut self, rec: &ClickLogRecord) -> bool {
        match rec {
            ClickLogRecord::Event {
                epoch,
                query,
                ad,
                data,
            } => {
                if *epoch > self.window.epoch() {
                    self.advance_to(*epoch);
                }
                self.observe(query, ad, *data);
                false
            }
            ClickLogRecord::EpochMark { epoch } => {
                if *epoch > self.window.epoch() {
                    self.advance_to(*epoch);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// [`Self::apply_record`] for offset-aware callers (checkpointed
    /// ingest): `span` is the record's `[start, end)` byte range in the
    /// click log. Every epoch the record advances the window into is noted
    /// with the record's *start* offset — replaying from there re-applies
    /// the advancing record itself, which is required when it was an
    /// event (the event belongs to the new bucket) and a harmless no-op
    /// advance when it was a mark.
    pub fn apply_record_at(&mut self, rec: &ClickLogRecord, span: (u64, u64)) -> bool {
        let before = self.window.epoch();
        let refresh_due = self.apply_record(rec);
        let after = self.window.epoch();
        // Keep only entries a future checkpoint can need: a boundary at
        // epoch E replays from bucket E − window + 1, and E only grows. So a
        // jump pushes at most `window` entries, however many epochs it skips.
        let keep_from = after.saturating_sub(self.window.window() as u64 - 1);
        if after > before {
            for epoch in (before + 1).max(keep_from)..=after {
                self.advances.push_back((epoch, span.0));
            }
        }
        while matches!(self.advances.front(), Some(&(e, _)) if e < keep_from) {
            self.advances.pop_front();
        }
        self.applied_offset = span.1;
        refresh_due
    }

    /// Refreezes the surviving window and produces the next index
    /// generation: a full parallel build the first time, an incremental
    /// rebuild of exactly the dirty components' rows afterwards. Returns
    /// the generation to publish, its rebuild stats (for a full build:
    /// every row refreshed, component counts zero), and whether it was
    /// the full build. On error the previous generation stays current and
    /// the dirtiness frontier is preserved for a retry.
    pub fn refresh(&mut self) -> Result<(RewriteIndex, RebuildStats, bool), String> {
        // The batch this refresh absorbs ends here — callers measuring
        // freshness ([`Self::refresh_and_publish`]) take the start first.
        self.batch_started = None;
        simrankpp_util::fail_point!("ingest-epoch-apply", |msg: String| msg);
        self.last_fingerprint = OnceLock::new();
        let graph = &*self.last_graph.insert(self.window.refreeze());
        match self.index.as_ref() {
            None => {
                let method = Method::compute(self.cfg.method, graph, &self.cfg.config);
                let rewriter = Rewriter::new(graph, method, self.cfg.rewriter);
                let index = RewriteIndex::build(&rewriter, None, self.cfg.threads);
                let stats = RebuildStats {
                    refreshed_queries: index.n_queries(),
                    copied_queries: 0,
                    refreshed_entries: index.n_entries(),
                    copied_entries: 0,
                    n_dirty_components: 0,
                    n_clean_components: 0,
                };
                self.pending.clear();
                self.index = Some(index.clone());
                self.generation += 1;
                Ok((index, stats, true))
            }
            Some(old) => {
                let dirty = dirty_for_endpoints(graph, self.pending.iter().copied());
                let (next, stats) = old.rebuild_incremental(
                    graph,
                    &dirty,
                    &self.cfg.config,
                    &self.cfg.rewriter,
                    None,
                )?;
                self.pending.clear();
                self.index = Some(next.clone());
                self.generation += 1;
                Ok((next, stats, false))
            }
        }
    }

    /// [`Self::refresh`] plus publication: hot-swaps the new generation
    /// into `state` and updates the state's [`IngestMetrics`] (refresh
    /// wall-clock, batch freshness, row counters). The serving index is
    /// never left mid-swap — readers see the old generation until the
    /// single atomic publish.
    pub fn refresh_and_publish(&mut self, state: &ServeState) -> Result<RebuildStats, String> {
        let batch_started = self.batch_started.take();
        let t0 = Instant::now();
        let (index, stats, _full) = self.refresh()?;
        simrankpp_util::fail_point!("ingest-publish", |msg: String| msg);
        state.publish(index);
        let refresh_us = t0.elapsed().as_micros() as u64;
        if let Some(m) = state.ingest_metrics() {
            m.epoch.store(self.window.epoch(), Ordering::Relaxed);
            m.refreshes.fetch_add(1, Ordering::Relaxed);
            m.refreshed_rows
                .fetch_add(stats.refreshed_queries as u64, Ordering::Relaxed);
            m.copied_rows
                .fetch_add(stats.copied_queries as u64, Ordering::Relaxed);
            m.last_refresh_us.store(refresh_us, Ordering::Relaxed);
            if let Some(start) = batch_started {
                m.last_freshness_us
                    .store(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }
        Ok(stats)
    }
}

impl std::fmt::Debug for EpochIngestor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochIngestor")
            .field("epoch", &self.window.epoch())
            .field("events_held", &self.window.events_held())
            .field("pending", &self.pending.len())
            .field("published", &self.index.is_some())
            .finish_non_exhaustive()
    }
}

/// One parsed click-log record together with its `[start, end)` byte span
/// in the log file — the unit of crash-recovery bookkeeping: a checkpoint
/// records span offsets so a restart can seek straight to the first record
/// of the oldest surviving window bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedRecord {
    /// Byte offset of the record's first byte.
    pub start: u64,
    /// Byte offset one past the record's terminating newline.
    pub end: u64,
    /// The parsed record.
    pub rec: ClickLogRecord,
}

/// Incremental reader of a growing click log. Each
/// [`LogTailer::drain_spanned`] call parses every *complete* line appended since the last call; a
/// partial trailing line (the writer mid-append) is left in the file for
/// the next drain, so records are never split, truncated, or re-applied.
///
/// The tailer tracks its own **absolute** byte offset (`offset` = the first
/// byte it has not consumed) and rewinds to it with `SeekFrom::Start`
/// whenever it reads an unterminated fragment. The offset only advances
/// over complete, newline-terminated lines, so a producer crash mid-append
/// can never shift the read position into the middle of a record.
#[derive(Debug)]
pub struct LogTailer {
    reader: BufReader<File>,
    line_no: usize,
    /// Absolute offset of the first unconsumed byte.
    offset: u64,
}

impl LogTailer {
    /// Opens `path` for tailing from the beginning.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<LogTailer> {
        Self::open_at(path, 0)
    }

    /// Opens `path` for tailing from absolute byte `offset` — the resume
    /// path, where a checkpoint supplies the replay offset. The offset must
    /// fall on a record boundary (checkpoints only ever store record
    /// boundaries). Line numbers in parse errors count from the seek point,
    /// so each error also names the line's absolute byte offset.
    pub fn open_at<P: AsRef<Path>>(path: P, offset: u64) -> io::Result<LogTailer> {
        let mut file = File::open(path)?;
        if offset > 0 {
            file.seek(SeekFrom::Start(offset))?;
        }
        Ok(LogTailer {
            reader: BufReader::new(file),
            line_no: 0,
            offset,
        })
    }

    /// Absolute byte offset of the first unconsumed byte: the end of the
    /// last complete line drained (partial fragments don't count).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads every complete record currently available, each with its byte
    /// span for checkpointing. Returns an empty vector at (momentary) EOF;
    /// parse errors carry the 1-based line number since open and the line's
    /// absolute byte offset. The unterminated tail, if any, is pushed back
    /// for the next call.
    pub fn drain_spanned(&mut self) -> io::Result<Vec<SpannedRecord>> {
        let mut records = Vec::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self.reader.read_line(&mut buf)?;
            if n == 0 {
                return Ok(records);
            }
            if !buf.ends_with('\n') {
                // The producer is mid-append: rewind to the last known
                // record boundary and let the next drain re-read the
                // completed line from its first byte.
                self.reader.seek(SeekFrom::Start(self.offset))?;
                return Ok(records);
            }
            let start = self.offset;
            self.offset += n as u64;
            self.line_no += 1;
            let parsed = parse_click_log_line(&buf, self.line_no)
                .map_err(|e| io::Error::new(e.kind(), format!("{e} (byte offset {start})")))?;
            if let Some(rec) = parsed {
                records.push(SpannedRecord {
                    start,
                    end: self.offset,
                    rec,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_graph::delta::write_click_log;
    use std::io::Write;

    fn cfg() -> IngestConfig {
        IngestConfig {
            window: 3,
            decay: 1.0,
            method: MethodKind::WeightedSimrank,
            config: SimrankConfig::default()
                .with_weight_kind(simrankpp_graph::WeightKind::ExpectedClickRate),
            rewriter: RewriterConfig::default(),
            threads: 1,
        }
    }

    fn ev(epoch: u64, q: &str, a: &str) -> ClickLogRecord {
        ClickLogRecord::Event {
            epoch,
            query: q.into(),
            ad: a.into(),
            data: EdgeData::new(10, 4, 0.4),
        }
    }

    #[test]
    fn first_refresh_is_full_then_incremental() {
        let mut ing = EpochIngestor::new(cfg());
        ing.observe("q1", "a1", EdgeData::new(10, 4, 0.4));
        ing.observe("q2", "a1", EdgeData::new(10, 6, 0.6));
        let (index, stats, full) = ing.refresh().unwrap();
        assert!(full);
        assert_eq!(index.n_queries(), 2);
        assert_eq!(stats.refreshed_queries, 2);

        ing.advance_to(1);
        ing.observe("q3", "a2", EdgeData::new(10, 5, 0.5));
        let (index2, stats2, full2) = ing.refresh().unwrap();
        assert!(!full2);
        assert_eq!(index2.n_queries(), 3);
        // q1/q2's component is untouched: copied, not refreshed.
        assert_eq!(stats2.copied_queries, 2);
        assert_eq!(stats2.refreshed_queries, 1);
    }

    #[test]
    fn apply_record_signals_refresh_only_on_advancing_marks() {
        let mut ing = EpochIngestor::new(cfg());
        assert!(!ing.apply_record(&ev(0, "q", "a")));
        // An event stamped ahead advances implicitly but is not a refresh
        // signal; the later mark for that epoch is a no-op.
        assert!(!ing.apply_record(&ev(2, "q2", "a2")));
        assert_eq!(ing.epoch(), 2);
        assert!(!ing.apply_record(&ClickLogRecord::EpochMark { epoch: 2 }));
        assert!(ing.apply_record(&ClickLogRecord::EpochMark { epoch: 3 }));
        assert!(!ing.apply_record(&ClickLogRecord::EpochMark { epoch: 1 }));
        assert_eq!(ing.epoch(), 3);
    }

    #[test]
    fn retired_events_mark_their_components_dirty() {
        let mut ing = EpochIngestor::new(cfg());
        ing.observe("stale", "ad", EdgeData::new(10, 4, 0.4));
        let _ = ing.refresh().unwrap();
        // Window of 3: epoch 3 retires the epoch-0 bucket.
        ing.advance_to(3);
        assert!(ing.pending_endpoints() > 0, "retirement must queue dirt");
        let (index, stats, _) = ing.refresh().unwrap();
        assert_eq!(stats.refreshed_queries, 1, "the stale component refreshes");
        // The retired query survives as an isolated node with no rewrites.
        assert!(index.row(index.lookup("stale").unwrap()).0.is_empty());
    }

    #[test]
    fn tailer_drains_complete_lines_and_defers_fragments() {
        let dir = std::env::temp_dir().join(format!(
            "simrankpp_tailer_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("click.log");
        // allow(file-create): test producer simulating the external log appender
        let mut f = File::create(&path).unwrap();
        write_click_log(&[ev(0, "q1", "a1")], &mut f).unwrap();
        f.flush().unwrap();

        let mut tailer = LogTailer::open(&path).unwrap();
        let mut drained = tailer.drain_spanned().unwrap().len();
        assert_eq!(drained, 1);
        assert!(
            tailer.drain_spanned().unwrap().is_empty(),
            "EOF drains empty"
        );

        // A partial line stays pending until its newline arrives.
        write!(f, "+\t1\tq2\ta2\t10").unwrap();
        f.flush().unwrap();
        assert!(tailer.drain_spanned().unwrap().is_empty());
        writeln!(f, "\t4\t0.4").unwrap();
        writeln!(f, "@\t2").unwrap();
        f.flush().unwrap();
        let records = tailer.drain_spanned().unwrap();
        drained += records.len();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].rec, ev(1, "q2", "a2"));
        assert_eq!(records[1].rec, ClickLogRecord::EpochMark { epoch: 2 });
        assert_eq!(records[0].end, records[1].start, "spans tile the log");
        assert_eq!(drained, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_reread_intact_never_truncated_or_doubled() {
        // Regression for the crash-mid-append case: the producer dies (or
        // is mid-write) after flushing only part of a line. The tailer
        // must (a) not consume the fragment, (b) re-read the completed
        // line from its first byte once the rest arrives, and (c) never
        // deliver any record twice — verified via byte spans, which a
        // checkpoint would persist.
        let dir = std::env::temp_dir().join(format!(
            "simrankpp_torn_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("click.log");
        // allow(file-create): test producer simulating the external log appender
        let mut f = File::create(&path).unwrap();
        write_click_log(&[ev(0, "q1", "a1")], &mut f).unwrap();
        // Producer crashes mid-append: a torn fragment with no newline.
        write!(f, "+\t1\tq2\ta2\t10\t4").unwrap();
        f.flush().unwrap();

        let mut tailer = LogTailer::open(&path).unwrap();
        let first = tailer.drain_spanned().unwrap();
        assert_eq!(first.len(), 1, "only the complete line is delivered");
        let boundary = first[0].end;
        assert_eq!(
            tailer.offset(),
            boundary,
            "fragment must not advance the offset"
        );

        // Polling again while the tail is still torn: no records, no
        // offset movement (this is where a relative seek could drift).
        for _ in 0..3 {
            assert!(tailer.drain_spanned().unwrap().is_empty());
            assert_eq!(tailer.offset(), boundary);
        }

        // The producer restarts and completes the line.
        writeln!(f, "\t0.4").unwrap();
        f.flush().unwrap();
        let rest = tailer.drain_spanned().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].rec, ev(1, "q2", "a2"), "fragment re-read intact");
        assert_eq!(rest[0].start, boundary, "no bytes skipped (no truncation)");

        // Spans tile the file exactly once: no gaps, no overlaps — which
        // is precisely "never truncates or double-applies".
        let mut all = first;
        all.extend(rest);
        let mut expect = 0;
        for s in &all {
            assert_eq!(s.start, expect, "span gap/overlap at byte {expect}");
            expect = s.end;
        }
        assert_eq!(expect, std::fs::metadata(&path).unwrap().len());

        // A tailer resumed at the checkpointed boundary sees exactly the
        // completed record, once.
        let mut resumed = LogTailer::open_at(&path, boundary).unwrap();
        let replay = resumed.drain_spanned().unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].rec, ev(1, "q2", "a2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumed_tailer_errors_name_the_byte_offset() {
        // Line numbers count from the seek point, so a tailer resumed mid-file
        // must name the malformed line by its absolute byte offset too.
        let dir = std::env::temp_dir().join(format!(
            "simrankpp_resume_err_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("click.log");
        // allow(file-create): test producer simulating the external log appender
        let mut f = File::create(&path).unwrap();
        write_click_log(&[ev(0, "q1", "a1"), ev(0, "q2", "a2")], &mut f).unwrap();
        let boundary = f.metadata().unwrap().len();
        write_click_log(&[ev(1, "q3", "a3")], &mut f).unwrap();
        let bad_at = f.metadata().unwrap().len();
        writeln!(f, "?\t1").unwrap();
        f.flush().unwrap();

        let mut resumed = LogTailer::open_at(&path, boundary).unwrap();
        let err = resumed.drain_spanned().unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains(&format!("byte offset {bad_at}")), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_record_at_tracks_replay_starts() {
        let mut ing = EpochIngestor::new(cfg()); // window 3
                                                 // Records with synthetic spans 10 bytes apart.
        let recs = [
            (ev(0, "q0", "a0"), (0, 10)),
            (ClickLogRecord::EpochMark { epoch: 1 }, (10, 20)),
            (ev(1, "q1", "a1"), (20, 30)),
            (ClickLogRecord::EpochMark { epoch: 2 }, (30, 40)),
            // A stamped-ahead event advances implicitly: its own start is
            // the replay point for epoch 3 (the event belongs to bucket 3).
            (ev(3, "q3", "a3"), (40, 50)),
            (ClickLogRecord::EpochMark { epoch: 4 }, (50, 60)),
        ];
        for (rec, span) in &recs {
            ing.apply_record_at(rec, *span);
        }
        assert_eq!(ing.epoch(), 4);
        assert_eq!(ing.applied_offset(), 60);
        // Window 3 at epoch 4: oldest surviving bucket is 2, whose
        // advancing record (the mark) starts at byte 30.
        assert_eq!(ing.replay_start(), (2, 30));
        // Advance further: epoch 5's oldest is 3 — the stamped-ahead
        // event's own start offset.
        ing.apply_record_at(&ClickLogRecord::EpochMark { epoch: 5 }, (60, 70));
        assert_eq!(ing.replay_start(), (3, 40));
    }

    #[test]
    fn a_mark_at_u64_max_is_one_step_with_bounded_bookkeeping() {
        let mut ing = EpochIngestor::new(cfg()); // window 3
        ing.apply_record_at(&ev(0, "q", "a"), (0, 10));
        ing.apply_record_at(&ClickLogRecord::EpochMark { epoch: 1 }, (10, 20));
        let started = Instant::now();
        assert!(ing.apply_record_at(&ClickLogRecord::EpochMark { epoch: u64::MAX }, (20, 30)));
        assert!(started.elapsed() < std::time::Duration::from_millis(50));
        assert_eq!(ing.epoch(), u64::MAX);
        assert_eq!(ing.window().events_held(), 0, "the window is empty");
        assert!(ing.advances.len() <= ing.window().window());
        assert_eq!(ing.replay_start(), (u64::MAX - 2, 20));
        let (index, _, _) = ing.refresh().unwrap();
        assert!(index.row(index.lookup("q").unwrap()).0.is_empty());
        assert_eq!(ing.last_fingerprint(), ing.window().freeze().fingerprint());
    }

    #[test]
    fn a_jump_past_the_window_equals_stepping_one_epoch_at_a_time() {
        // Both see the same records; the stepping one is told each epoch
        // of the jump by a mark with the jump's own byte span, so the two
        // differ only in how the window gets there.
        let prefix = [
            (ev(0, "q0", "a0"), (0, 10)),
            (ClickLogRecord::EpochMark { epoch: 1 }, (10, 20)),
            (ev(1, "q1", "a0"), (20, 30)),
            (ev(1, "q0", "a1"), (30, 40)),
        ];
        let (mut jump, mut step) = (EpochIngestor::new(cfg()), EpochIngestor::new(cfg()));
        for (rec, span) in &prefix {
            jump.apply_record_at(rec, *span);
            step.apply_record_at(rec, *span);
        }
        jump.refresh().unwrap();
        step.refresh().unwrap();
        let to = 1 + cfg().window as u64 + 3;
        jump.apply_record_at(&ClickLogRecord::EpochMark { epoch: to }, (40, 50));
        for epoch in 2..=to {
            step.apply_record_at(&ClickLogRecord::EpochMark { epoch }, (40, 50));
        }
        for ing in [&mut jump, &mut step] {
            ing.apply_record_at(&ev(to, "q2", "a1"), (50, 60));
            ing.refresh().unwrap();
        }
        assert_eq!(jump.last_fingerprint(), step.last_fingerprint());
        assert_eq!(
            jump.window().freeze().fingerprint(),
            step.window().freeze().fingerprint()
        );
        assert_eq!(jump.replay_start(), step.replay_start());
        assert_eq!(jump.replay_start(), (to - 2, 40));
        assert_eq!(jump.advances, step.advances);
    }

    #[test]
    fn refresh_and_publish_swaps_the_serving_index_and_counts() {
        let metrics = std::sync::Arc::new(IngestMetrics::default());
        let mut ing = EpochIngestor::new(cfg());
        ing.observe("q1", "a1", EdgeData::new(10, 4, 0.4));
        ing.observe("q2", "a1", EdgeData::new(10, 6, 0.6));
        let (first, _, _) = ing.refresh().unwrap();
        let state = ServeState::ingesting(first, std::sync::Arc::clone(&metrics));

        ing.advance_to(1);
        ing.observe("q3", "a1", EdgeData::new(10, 5, 0.5));
        ing.refresh_and_publish(&state).unwrap();
        assert_eq!(metrics.refreshes.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.epoch.load(Ordering::Relaxed), 1);
        assert!(metrics.last_freshness_us.load(Ordering::Relaxed) > 0);
        // The published generation serves the new query.
        let index = state.handle().load();
        assert!(index.lookup("q3").is_some());
        // Ingest mode refuses the update verb.
        let err = state.apply_update("/nonexistent").unwrap_err();
        assert!(err.contains("epoch boundaries"), "{err}");
    }
}
