//! Hand-rolled `ArcSwap`-style atomic handle for zero-downtime index swaps.
//!
//! The serving loop must keep answering while an incremental rebuild
//! installs a new index generation. [`AtomicHandle`] holds the current
//! generation behind an `Arc`; readers [`load`](AtomicHandle::load) a clone
//! of the `Arc` (a refcount bump under a briefly-held mutex — nanoseconds,
//! never blocked by a rebuild, which happens entirely *outside* the handle)
//! and keep serving from that generation for as long as they hold it, while
//! [`swap`](AtomicHandle::swap) atomically publishes the next generation.
//! An in-flight request therefore always sees one consistent generation —
//! never a half-written index — and the old generation is freed when its
//! last reader drops it.
//!
//! This is the standard-library equivalent of the `arc-swap` crate's
//! happy path (vendoring policy: no new dependencies). The mutex makes
//! `load` slower than a true lock-free `ArcSwap`: on a 2-core Xeon, a
//! session answering lookups from a mmapped snapshot spends ≈ 40 ns per
//! request in `load`, ≈ 3.6 % of its ≈ 1.1 µs per request. Small, but no
//! longer hidden behind float formatting; ROADMAP 2(a) proposes an epoch
//! check that skips the mutex.
//!
//! ## Poisoning
//!
//! The mutex guards a single `Arc` slot whose every mutation is one
//! assignment — there is no intermediate state a panicking holder could
//! leave behind, so poisoning carries no information here. `load`/`swap`
//! recover the guard with [`PoisonError::into_inner`] instead of
//! propagating the panic: in a multi-threaded server one panicking handler
//! must not turn every subsequent `load` on every other connection into a
//! cascade of poison panics.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An atomically swappable shared handle to an immutable value.
#[derive(Debug)]
pub struct AtomicHandle<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> AtomicHandle<T> {
    /// Wraps the initial generation.
    pub fn new(value: T) -> Self {
        AtomicHandle {
            slot: Mutex::new(Arc::new(value)),
        }
    }

    /// As [`AtomicHandle::new`] from an already-shared value.
    pub fn from_arc(value: Arc<T>) -> Self {
        AtomicHandle {
            slot: Mutex::new(value),
        }
    }

    /// Locks the slot, recovering from poisoning: the slot's only mutation
    /// is an atomic `Arc` replacement, so the data is consistent no matter
    /// where a previous holder panicked.
    fn lock(&self) -> MutexGuard<'_, Arc<T>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current generation. The returned `Arc` stays valid (and keeps
    /// serving its generation) across any number of concurrent swaps.
    pub fn load(&self) -> Arc<T> {
        self.lock().clone()
    }

    /// Publishes `next` as the current generation, returning the previous
    /// one (which lives until its last outstanding reader drops it).
    pub fn swap(&self, next: T) -> Arc<T> {
        self.swap_arc(Arc::new(next))
    }

    /// As [`AtomicHandle::swap`] with an already-shared next generation.
    pub fn swap_arc(&self, next: Arc<T>) -> Arc<T> {
        // The publish instant: a crash on either side of the replacement
        // must leave a servable state, which the chaos suite proves by
        // aborting here. The site sits *before* the lock so an abort never
        // takes the slot down mid-poison; `return` has no error channel in
        // a swap, so it escalates to a panic rather than silently skipping
        // the publish.
        #[cfg(feature = "failpoints")]
        if let Some(msg) = simrankpp_util::failpoint::eval("handle-swap") {
            panic!("{msg} (no error channel in swap; escalated to panic)");
        }
        std::mem::replace(&mut *self.lock(), next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_swap_generations() {
        let h = AtomicHandle::new(1u64);
        let g1 = h.load();
        let old = h.swap(2);
        assert_eq!(*old, 1);
        assert_eq!(*g1, 1, "outstanding reader keeps the old generation");
        assert_eq!(*h.load(), 2);
    }

    #[test]
    fn concurrent_readers_always_see_a_whole_generation() {
        // Generations are (n, n): a reader observing a torn value would see
        // mismatched halves. Swaps run concurrently with the readers.
        let h = AtomicHandle::new((0u64, 0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        let g = h.load();
                        assert_eq!(g.0, g.1, "torn generation observed");
                    }
                });
            }
            s.spawn(|| {
                for n in 1..=1_000u64 {
                    h.swap((n, n));
                }
            });
        });
        let last = h.load();
        assert_eq!(last.0, last.1);
        assert_eq!(last.0, 1_000);
    }

    #[test]
    fn poisoned_handle_keeps_serving() {
        // One handler thread panics while holding the slot lock — before the
        // into_inner recovery this poisoned the mutex and every later load()
        // (i.e. every other connection's next request) panicked too.
        let h = Arc::new(AtomicHandle::new(7u64));
        let h2 = Arc::clone(&h);
        let _ = std::thread::spawn(move || {
            let _guard = h2.slot.lock().unwrap();
            panic!("handler dies mid-hold");
        })
        .join();
        assert!(h.slot.is_poisoned(), "the panic must actually poison");
        assert_eq!(*h.load(), 7, "load() must survive a poisoned slot");
        let old = h.swap(8);
        assert_eq!(*old, 7);
        assert_eq!(*h.load(), 8, "swap() must survive a poisoned slot");
    }
}
