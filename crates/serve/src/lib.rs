//! The rewrite-serving layer: Figure 2's online half.
//!
//! The paper's pipeline (§9.3) scores, dedups and filters candidates *per
//! incoming query* — far too expensive to run at sponsored-search traffic
//! rates. Following the offline/online split of "Efficient SimRank
//! Computation via Linearization", this crate precomputes the **entire**
//! pipeline for every query of the click graph and freezes the result:
//!
//! * [`RewriteIndex`] — an immutable flat-arena index mapping every query to
//!   its final top-5 rewrites, built in parallel with the engine's chunked
//!   scoped-thread workers. Single and batched lookups return borrowed
//!   slices: zero allocation on the hot path.
//!   [`RewriteIndex::rebuild_incremental`] refreshes only the dirty
//!   queries' rows after a click-graph delta, copying clean rows verbatim.
//! * [`snapshot`] — versioned, checksummed binary persistence, so an index
//!   is built once and loaded by server processes. Format v4 is an 8-aligned
//!   section arena written section-at-a-time.
//! * [`mmap`]/[`mapped`] — zero-copy loading: [`MappedIndex`] serves rows
//!   straight out of the snapshot file's bytes (`mmap` with a heap-read
//!   fallback), so startup is O(#sections) regardless of index size;
//!   [`ServingIndex`] unifies heap and mapped indexes behind one surface.
//! * [`swap`] — a hand-rolled `ArcSwap`-style [`AtomicHandle`] so a new
//!   index generation hot-swaps in while requests keep being answered.
//! * [`server`] — the line protocol (`rewrite <query>`, `batch <file>`,
//!   `update <delta.tsv>`, `info`) spoken by the `serve` binary over stdin
//!   or TCP. A server built with a [`LiveContext`] additionally answers
//!   queries the index does not cover by computing their row on demand with
//!   the single-source engine (`simrankpp_core::SingleSourceEngine`); an
//!   `update` refreshes that engine per dirty component, off the request
//!   path.
//! * [`net`] — the threaded TCP front-end ([`NetServer`]): bounded
//!   thread-per-connection pool, split data/admin planes, read timeouts,
//!   graceful drain, and shared [`ServerMetrics`] counters — all driving
//!   the same session loop as the pipe.
//! * [`rowcache`] — the bounded, generation-aware LRU of live-computed
//!   rows backing that fallback; invalidated on every `update` hot-swap.
//! * [`ingest`] — streaming ingestion: a click-log tailer feeding a
//!   sliding epoch window ([`EpochIngestor`]), with automatic
//!   dirty-component refresh and hot-swap at every epoch boundary and
//!   click-to-serve freshness counters ([`IngestMetrics`]).

pub mod checkpoint;
pub mod index;
pub mod ingest;
pub mod mapped;
pub mod mmap;
pub mod net;
pub mod rowcache;
pub mod server;
pub mod snapshot;
pub mod swap;

pub use checkpoint::{read_checkpoint, resume_ingestor, write_checkpoint, Checkpoint};
pub use index::{IndexMeta, RebuildStats, RewriteIndex, RewriteSet};
pub use ingest::{EpochIngestor, IngestConfig, IngestMetrics, LogTailer, SpannedRecord};
pub use mapped::{MappedIndex, ServingIndex};
pub use mmap::Backing;
pub use net::{NetConfig, NetServer, ServerMetrics, ShutdownSignal};
pub use rowcache::{CacheStats, RowCache};
pub use server::{
    serve_session, serve_session_with, LiveContext, ServeState, SessionOptions, Transport,
    UpdateContext, MAX_REQUEST_LINE_BYTES,
};
pub use swap::AtomicHandle;
