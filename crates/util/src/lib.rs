//! Small shared utilities for the Simrank++ reproduction.
//!
//! This crate deliberately has no dependencies. It provides:
//!
//! * [`fx`] — an FxHash-style fast hasher and `HashMap`/`HashSet` aliases.
//!   The allowed offline dependency list does not include `rustc-hash`, and
//!   the algorithm is tiny, so we implement it here.
//! * [`stats`] — the population variance behind §8.2's spread factor.
//! * [`pairs`] — canonical symmetric pair keys for score matrices.
//! * [`durable`] — atomic temp+fsync+rename+dir-fsync file writes and
//!   corrupt-artifact quarantine; every artifact writer goes through it.
//! * [`failpoint`] — hand-rolled fault injection for the crash-recovery
//!   suite; sites compile out unless a crate's `failpoints` feature is on.

pub mod arena;
pub mod durable;
pub mod failpoint;
pub mod fx;
pub mod pairs;
pub mod stats;

pub use arena::{
    bytes_of, fnv1a, fnv1a_seeded, unpack_names, AlignedBytes, ArenaWriter, Format, Layout, Pod,
    Section, ENDIAN_MARK, HEADER_BYTES, MAX_NAME_BYTES, TABLE_ENTRY_BYTES,
};
pub use durable::{atomic_write, atomic_write_bytes, quarantine, temp_path, AtomicFile};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use pairs::PairKey;
pub use stats::population_variance;
