//! A bounded, generation-aware LRU cache of live rewrite rows.
//!
//! The live single-source path (see [`crate::state`]) computes a query's
//! rewrites on demand — milliseconds, not microseconds. The cache keeps the
//! row the §9.3 funnel picked, as scored ids (`(QueryId, f64)` in ranking
//! order) behind an `Arc`, so a warm repeat of a cold query is a hash probe
//! plus a pointer clone. The server renders a hit through the same row
//! writer as the miss that populated it (and as every index row), so the
//! two lines are byte-identical.
//!
//! Generations make hot-swaps safe: `invalidate` (called when a live
//! server's `update` commits the next graph) bumps the generation counter
//! and drops every cached row. A computation that began under an older generation may
//! still call [`RowCache::insert`] afterwards — the stale generation tag
//! makes that insert a no-op instead of poisoning the new graph's cache.
//!
//! All internal links are index-based (`usize::MAX` as the null sentinel)
//! over one slot arena, so `get`/`insert`/evict are O(1) and eviction
//! recycles slots without reallocating.
//!
//! ## Poisoning
//!
//! The internal mutex recovers from poisoning ([`PoisonError::into_inner`])
//! instead of propagating a previous holder's panic to every later caller:
//! in the multi-threaded server one panicking handler must not take the
//! cache — and with it every other connection's next `get` — down. Safety
//! argument: none of the LRU operations can panic *between* mutations that
//! must stay paired (link updates complete before map updates are even
//! attempted, and slot-index arithmetic cannot unwind), and the cache is
//! evictable data anyway — the worst conceivable inconsistency is a row
//! served from or dropped out of the wrong recency position, never a wrong
//! row for a key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use simrankpp_graph::QueryId;
use simrankpp_util::FxHashMap;

/// One live rewrite row: the funnel's picked `(target, score)` pairs in
/// ranking order.
pub type Row = Arc<[(QueryId, f64)]>;

/// Null link sentinel for the intrusive LRU list.
const NIL: usize = usize::MAX;

/// A point-in-time snapshot of cache occupancy and traffic counters,
/// reported by the `info` protocol verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Maximum number of cached rows.
    pub capacity: usize,
    /// Rows currently cached (current generation only).
    pub entries: usize,
    /// Lookups answered from the cache since startup.
    pub hits: u64,
    /// Lookups that fell through to live computation since startup.
    pub misses: u64,
    /// Invalidation epoch; bumped by every [`RowCache::invalidate`].
    pub generation: u64,
}

struct Slot {
    qid: u32,
    val: Row,
    prev: usize,
    next: usize,
}

struct Lru {
    capacity: usize,
    generation: u64,
    /// qid → slot index, current generation only (invalidate clears it).
    map: FxHashMap<u32, usize>,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot — the eviction candidate.
    tail: usize,
}

impl Lru {
    /// Detaches `i` from the recency list (it must be linked).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links `i` at the head (most recently used).
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }
}

/// A thread-safe bounded LRU of live rewrite rows keyed by query id.
///
/// See the module docs for the design; the public surface is
/// [`get`](RowCache::get) / [`insert`](RowCache::insert) /
/// [`invalidate`](RowCache::invalidate) / [`stats`](RowCache::stats).
pub struct RowCache {
    inner: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RowCache {
    /// Creates a cache holding at most `capacity` rows (minimum 1).
    pub fn new(capacity: usize) -> RowCache {
        RowCache {
            inner: Mutex::new(Lru {
                capacity: capacity.max(1),
                generation: 0,
                map: FxHashMap::default(),
                slots: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Locks the LRU, recovering from poisoning (see the module docs: the
    /// cache holds evictable data only, and no operation leaves half-paired
    /// mutations behind a panic point).
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current invalidation epoch. Capture this **before** computing a
    /// row and pass it to [`insert`](RowCache::insert) so a swap that lands
    /// mid-computation turns the insert into a no-op.
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Looks up the cached row of `q`, marking it most recently used.
    /// Counts a hit or a miss either way.
    pub fn get(&self, q: QueryId) -> Option<Row> {
        let mut lru = self.lock();
        match lru.map.get(&q.0).copied() {
            Some(i) => {
                lru.unlink(i);
                lru.push_front(i);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&lru.slots[i].val))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches `val` as the row of `q`, evicting the least recently used row
    /// when full. A `generation` older than the current epoch (the cache was
    /// invalidated after the caller started computing) drops the insert.
    pub fn insert(&self, generation: u64, q: QueryId, val: Row) {
        let mut lru = self.lock();
        if generation != lru.generation {
            return;
        }
        if let Some(&i) = lru.map.get(&q.0) {
            lru.slots[i].val = val;
            lru.unlink(i);
            lru.push_front(i);
            return;
        }
        let i = if lru.map.len() >= lru.capacity {
            // Recycle the LRU slot in place.
            let i = lru.tail;
            lru.unlink(i);
            let evicted = lru.slots[i].qid;
            lru.map.remove(&evicted);
            lru.slots[i].qid = q.0;
            lru.slots[i].val = val;
            i
        } else {
            lru.slots.push(Slot {
                qid: q.0,
                val,
                prev: NIL,
                next: NIL,
            });
            lru.slots.len() - 1
        };
        lru.push_front(i);
        lru.map.insert(q.0, i);
    }

    /// Bumps the generation and drops every cached row. Called after an
    /// `update` hot-swap: the new graph's scores share nothing with the old
    /// rows, and a stale hit would silently serve the previous generation.
    pub fn invalidate(&self) {
        let mut lru = self.lock();
        lru.generation += 1;
        lru.map.clear();
        lru.slots.clear();
        lru.head = NIL;
        lru.tail = NIL;
    }

    /// Occupancy and traffic counters for the `info` verb.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            capacity: lru.capacity,
            entries: lru.map.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            generation: lru.generation,
        }
    }
}

impl std::fmt::Debug for RowCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("RowCache")
            .field("capacity", &s.capacity)
            .field("entries", &s.entries)
            .field("generation", &s.generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-target row whose score tells rows apart.
    fn row(score: f64) -> Row {
        vec![(QueryId(0), score)].into()
    }

    fn score(row: Option<Row>) -> Option<f64> {
        row.map(|r| r[0].1)
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let c = RowCache::new(4);
        assert!(c.get(QueryId(1)).is_none());
        c.insert(c.generation(), QueryId(1), row(1.0));
        assert_eq!(score(c.get(QueryId(1))), Some(1.0));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.capacity), (1, 1, 1, 4));
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = RowCache::new(2);
        c.insert(0, QueryId(1), row(1.0));
        c.insert(0, QueryId(2), row(2.0));
        // Touch 1 so 2 becomes the eviction candidate.
        assert!(c.get(QueryId(1)).is_some());
        c.insert(0, QueryId(3), row(3.0));
        assert!(c.get(QueryId(2)).is_none(), "LRU entry must be evicted");
        assert!(c.get(QueryId(1)).is_some());
        assert!(c.get(QueryId(3)).is_some());
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let c = RowCache::new(2);
        c.insert(0, QueryId(1), row(1.0));
        c.insert(0, QueryId(2), row(2.0));
        c.insert(0, QueryId(1), row(1.5));
        c.insert(0, QueryId(3), row(3.0));
        assert!(c.get(QueryId(2)).is_none(), "2 was LRU after 1's reinsert");
        assert_eq!(score(c.get(QueryId(1))), Some(1.5));
    }

    #[test]
    fn invalidate_hides_old_generation() {
        let c = RowCache::new(4);
        c.insert(0, QueryId(1), row(1.0));
        c.invalidate();
        assert_eq!(c.generation(), 1);
        assert!(c.get(QueryId(1)).is_none(), "old-generation row must miss");
        assert_eq!(c.stats().entries, 0);
        // The key is cached afresh under the new generation.
        c.insert(1, QueryId(1), row(1.25));
        assert_eq!(score(c.get(QueryId(1))), Some(1.25));
    }

    #[test]
    fn stale_generation_insert_is_dropped() {
        let c = RowCache::new(4);
        let gen_before = c.generation();
        c.invalidate();
        c.insert(gen_before, QueryId(7), row(9.0));
        assert!(c.get(QueryId(7)).is_none(), "stale insert must be a no-op");
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn capacity_floor_is_one() {
        let c = RowCache::new(0);
        c.insert(0, QueryId(1), row(1.0));
        c.insert(0, QueryId(2), row(2.0));
        assert!(c.get(QueryId(1)).is_none());
        assert!(c.get(QueryId(2)).is_some());
        assert_eq!(c.stats().capacity, 1);
    }

    #[test]
    fn heavy_churn_keeps_list_consistent() {
        let c = RowCache::new(8);
        for round in 0u32..50 {
            for q in 0u32..20 {
                c.insert(0, QueryId((q * 7 + round) % 32), row(0.5));
                c.get(QueryId((q * 13 + round) % 32));
            }
        }
        let s = c.stats();
        assert!(s.entries <= 8);
        // Every mapped slot is reachable by walking the list from the head.
        let lru = c.inner.lock().unwrap();
        let mut seen = 0usize;
        let mut i = lru.head;
        let mut prev = NIL;
        while i != NIL {
            assert_eq!(lru.slots[i].prev, prev);
            assert_eq!(lru.map.get(&lru.slots[i].qid), Some(&i));
            prev = i;
            i = lru.slots[i].next;
            seen += 1;
        }
        assert_eq!(lru.tail, prev);
        assert_eq!(seen, lru.map.len());
    }

    #[test]
    fn poisoned_cache_keeps_serving() {
        // A handler thread panics while holding the cache lock — before the
        // into_inner recovery every later lookup() on every other connection
        // panicked on the poisoned mutex instead of serving.
        let c = Arc::new(RowCache::new(4));
        c.insert(0, QueryId(1), row(1.0));
        let c2 = Arc::clone(&c);
        let _ = std::thread::spawn(move || {
            let _guard = c2.inner.lock().unwrap();
            panic!("handler dies mid-hold");
        })
        .join();
        assert!(c.inner.is_poisoned(), "the panic must actually poison");
        assert_eq!(
            score(c.get(QueryId(1))),
            Some(1.0),
            "get() must survive a poisoned cache"
        );
        c.insert(c.generation(), QueryId(2), row(2.0));
        assert!(c.get(QueryId(2)).is_some(), "insert() must survive too");
        c.invalidate();
        assert_eq!(c.stats().entries, 0);
    }
}
