//! The rewrite-serving layer: Figure 2's online half.
//!
//! The paper's pipeline (§9.3) scores, dedups and filters candidates *per
//! incoming query* — far too expensive to run at sponsored-search traffic
//! rates. Following the offline/online split of "Efficient SimRank
//! Computation via Linearization", this crate precomputes the **entire**
//! pipeline for every query of the click graph and freezes the result:
//!
//! * [`RewriteIndex`] — the one index type: an immutable view over the
//!   bytes of a snapshot-v4 arena mapping every query to its final top-5
//!   rewrites. A build (parallel, with the engine's chunked scoped-thread
//!   workers) encodes its rows into heap bytes; [`RewriteIndex::open`] maps
//!   a snapshot file in O(#sections) and [`RewriteIndex::load`] reads and
//!   deep-checks one. Rows, names and the name lookup are borrowed slices
//!   of the arena: zero allocation on the hot path.
//!   [`RewriteIndex::rebuild_incremental`] refreshes only the dirty
//!   queries' rows after a click-graph delta, copying clean rows verbatim.
//! * [`snapshot`] — the versioned, checksummed v4 format (an 8-aligned
//!   section arena), its one parser, and persistence: `save` writes the
//!   view's bytes verbatim.
//! * [`mmap`] — the file mapping (`mmap` with a heap-read fallback) behind
//!   `open`; [`mapped`] keeps two benchmark-pinned names for the view.
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
pub use mapped::{MappedIndex, ServingIndex}; // benchmark-pinned (ROADMAP 4(c))
pub use mmap::Backing;
pub use net::{NetConfig, NetServer, ServerMetrics, ShutdownSignal};
pub use rowcache::{CacheStats, RowCache};
pub use server::{
    serve_session, serve_session_with, LiveContext, ServeState, SessionOptions, Transport,
    UpdateContext, MAX_REQUEST_LINE_BYTES,
};
pub use swap::AtomicHandle;
