//! The batch build's memory stays the size of its answer.
//!
//! A counting global allocator records the live heap bytes of this test
//! binary and their high-water mark. `Method::compute(WeightedSimrank, …)`
//! on a synthetic world must peak at no more than twice the bytes of the
//! score matrix it returns, with one worker and with two, and keep no more
//! than that matrix once it returns. The allocator counts every thread, so
//! this binary holds one test and runs alone.
//!
//! A `realloc` counts as the new block allocated before the old one is
//! freed, as a copying realloc is: the bound holds for any allocator.

use simrankpp::core::{Method, MethodKind, SimrankConfig};
use simrankpp::graph::WeightKind;
use simrankpp::synth::generator::generate;
use simrankpp::synth::GeneratorConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bytes of a frozen matrix over `n` nodes with `pairs` stored pairs:
/// row offsets, plus each pair's partner id and score in both endpoint rows.
fn matrix_bytes(n: usize, pairs: usize) -> usize {
    (n + 1) * 8 + 2 * pairs * (4 + 8)
}

#[test]
fn weighted_simrank_peaks_within_twice_its_matrix() {
    let g = generate(&GeneratorConfig::small()).graph;
    for threads in [1, 2] {
        let config = SimrankConfig::default()
            .with_decay(0.8, 0.8)
            .with_iterations(7)
            .with_weight_kind(WeightKind::ExpectedClickRate)
            .with_threads(threads);
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let m = Method::compute(MethodKind::WeightedSimrank, &g, &config);
        let peak = PEAK.load(Relaxed) - base;
        let kept = LIVE.load(Relaxed) - base;
        let s = m.stored_scores();
        let answer = matrix_bytes(s.n_nodes(), s.n_pairs());
        let ratio = peak as f64 / answer as f64;
        println!(
            "threads {threads}: {} pairs, matrix {answer} B, kept {kept} B, peak {peak} B ({ratio:.2}x)",
            s.n_pairs()
        );
        assert!(
            s.n_pairs() > 100 * s.n_nodes(),
            "the world is too sparse to bound"
        );
        // What the build keeps is the matrix at its exact size (give or
        // take a worker thread's bookkeeping).
        assert!(kept <= answer + 4096, "threads {threads}: kept {kept} B");
        assert!(
            ratio <= 2.0,
            "threads {threads}: peak {peak} B is {ratio:.2}x the {answer} B matrix"
        );
        drop(m);
    }
}
