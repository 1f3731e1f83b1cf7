//! Scoped-thread parallelism shared by the engine and the serving layer:
//! contiguous chunks ([`run_chunked`], with per-worker state in
//! [`run_chunked_stateful`] — the pull kernel's rows) and an index queue
//! ([`run_indexed`]), which [`run_dirty_blocks`] runs the dirty component
//! blocks of an incremental refresh on. Generic over the per-item result,
//! `std::thread::scope` only.

use crate::config::SimrankConfig;
use simrankpp_graph::{dirty_blocks, Block, ClickGraph, DirtyComponents};
use std::ops::Range;

/// Below this item count the threading overhead outweighs the work; run
/// serially regardless of the configured thread count.
const PARALLEL_THRESHOLD: usize = 1024;

/// Splits `0..n_items` into `threads` contiguous chunks (`0` = all available
/// cores), runs `work` on each (serially when one thread or the range is
/// small), and returns the per-chunk results in chunk order — deterministic
/// given deterministic `work`.
pub fn run_chunked<T, F>(n_items: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let mut states = vec![(); threads.max(1)];
    run_chunked_stateful(n_items, &mut states, |_, range| work(range))
}

/// [`run_chunked`] with one reusable per-worker state: chunk `t` runs with
/// exclusive access to `states[t]`, so a workspace pool allocated once by
/// the caller survives across every call (the engine reuses scratch across
/// Jacobi half-steps this way). `states.len()` fixes the worker count;
/// results come back in chunk order.
pub fn run_chunked_stateful<S, T, F>(n_items: usize, states: &mut [S], work: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, Range<usize>) -> T + Sync,
{
    let threads = states.len();
    if threads <= 1 || n_items < PARALLEL_THRESHOLD {
        let state = states.first_mut().expect("at least one worker state");
        return vec![work(state, 0..n_items)];
    }
    let threads = threads.min(n_items);
    let chunk = n_items.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = states[..threads]
            .iter_mut()
            .enumerate()
            .map(|(t, state)| {
                let lo = (t * chunk).min(n_items);
                let hi = ((t + 1) * chunk).min(n_items);
                let work = &work;
                scope.spawn(move || work(state, lo..hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine worker panicked"))
            .collect()
    })
}

/// Runs `work(i)` for every `i in 0..n_items` with `workers` scoped threads
/// pulling indices off an atomic queue, returning the results **in index
/// order** — the greedy schedule the serving layer's incremental rebuild
/// runs its dirty component blocks on (items sorted largest-first amortize
/// best). Serial when `workers <= 1` or there is at most one item.
/// Deterministic output for deterministic `work` regardless of the worker
/// count.
pub fn run_indexed<T, F>(n_items: usize, workers: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n_items <= 1 {
        return (0..n_items).map(work).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n_items).map(|_| None).collect();
    let finished: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n_items))
            .map(|_| {
                let next = &next;
                let work = &work;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n_items {
                            break;
                        }
                        out.push((i, work(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("queue worker panicked"))
            .collect()
    });
    for (i, v) in finished.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|v| v.expect("every index was claimed"))
        .collect()
}

/// The one dirty-block schedule, shared by the serving layer's incremental
/// index rebuild and the live engine's refresh: `work` runs on every block of
/// [`dirty_blocks`]`(g, dirty)` at `config` with one thread (each block is
/// serial inside), `config.threads` workers pull the blocks largest first,
/// and each block comes back beside its result, in block order — so any
/// worker count gives the same result. Errors when `dirty` labels another
/// graph.
pub fn run_dirty_blocks<T, F>(
    g: &ClickGraph,
    dirty: &DirtyComponents,
    config: &SimrankConfig,
    work: F,
) -> Result<Vec<(Block, T)>, String>
where
    T: Send,
    F: Fn(&Block, &SimrankConfig) -> T + Sync,
{
    let labels = &dirty.components;
    if labels.query_label.len() != g.n_queries() || labels.ad_label.len() != g.n_ads() {
        return Err("dirty-component analysis was built for a different graph".into());
    }
    let blocks = dirty_blocks(g, dirty);
    let local = config.with_threads(1);
    let workers = config.effective_threads().min(blocks.len()).max(1);
    let results = run_indexed(blocks.len(), workers, |i| work(&blocks[i], &local));
    Ok(blocks.into_iter().zip(results).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_orders_results_for_any_worker_count() {
        for workers in [1, 2, 7] {
            let out = run_indexed(23, workers, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn serial_and_parallel_cover_the_same_items() {
        let serial: usize = run_chunked(10, 1, |r| r.sum::<usize>()).into_iter().sum();
        let parallel: usize = run_chunked(5000, 4, |r| r.sum::<usize>()).into_iter().sum();
        assert_eq!(serial, (0..10).sum());
        assert_eq!(parallel, (0..5000).sum());
    }

    #[test]
    fn chunks_are_ordered() {
        let pieces = run_chunked(4096, 4, |r| r.start);
        assert!(pieces.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn stateful_chunked_reuses_worker_state_across_calls() {
        let mut states = vec![0usize; 3];
        for round in 1..=2 {
            let out = run_chunked_stateful(6000, &mut states, |s, r| {
                *s += r.len();
                r.len()
            });
            assert_eq!(out.iter().sum::<usize>(), 6000);
            assert_eq!(states.iter().sum::<usize>(), 6000 * round);
        }
    }
}
