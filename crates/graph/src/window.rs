//! Sliding-window click-graph accumulation.
//!
//! §2 defines the click graph "for a specific time period"; the evaluation
//! uses "a two-weeks click graph" that a production back-end maintains as a
//! rolling window: new click/impression events arrive continuously, and
//! buckets older than the window retire. [`SlidingWindowGraph`] implements
//! exactly that: per-epoch event buckets, [`SlidingWindowGraph::advance`]
//! to rotate out the oldest bucket (reporting which edges it retired, so
//! an incremental refresh knows what went stale), and
//! [`SlidingWindowGraph::freeze`] to build an immutable [`ClickGraph`] of
//! the surviving window for the front-end to score.
//!
//! Names are interned once in a shared interner so node ids are stable
//! across freezes — a query keeps its id for its entire lifetime, which
//! lets downstream caches (score matrices, rewrite index rows) be diffed
//! across windows. Retired nodes stay interned and simply appear isolated.
//!
//! Buckets hold **raw events in arrival order**, not pre-accumulated
//! per-edge data. That is deliberate: [`EdgeData::merge`] averages ECR with
//! an fp division per step, so the merge is not associative at the bit
//! level — folding per-bucket partials would produce graphs that differ in
//! the last ulp from a from-scratch build of the same events, and every
//! downstream bit-identity harness (segmented == monolithic, incremental ==
//! full) would see phantom diffs. Replaying raw events in arrival order
//! makes `freeze()` bit-identical to a scratch [`ClickGraphBuilder`] fed
//! the surviving events, by construction.
//!
//! **Recency decay** ([`SlidingWindowGraph::with_decay`]): inside the
//! window, old evidence can be down-weighted rather than trusted equally.
//! With decay factor `λ < 1`, `freeze()` replaces each edge's ECR with the
//! recency-weighted average of its surviving events,
//!
//! ```text
//! ecr = Σ_e λ^gap(e) · impressions(e) · ecr(e)
//!     / Σ_e λ^gap(e) · impressions(e)
//! ```
//!
//! where `gap(e)` is the event's age in epochs **behind the edge's own
//! newest surviving event** (impressions/clicks stay undecayed counts).
//! Anchoring the ages per edge — rather than to the current epoch — is
//! what keeps the streaming refresh incremental: an edge's ECR depends
//! only on its own surviving event set, so merely advancing the window
//! leaves every untouched edge's ECR bit-identical, and the only
//! components an epoch boundary can dirty are those holding an observed
//! or retired event. (An absolute per-epoch decay would re-age every edge
//! on every advance and force a full recompute each epoch.) The flip side
//! is a deliberate division of labour: decay re-mixes evidence *within*
//! an edge toward recency; making stale edges vanish outright is the
//! window's job. Edges whose surviving events carry zero impressions fall
//! back to a λ-weighted mean of their ECRs. `λ = 1` dispatches to the
//! exact replay path so the undecayed configuration stays bit-identical
//! to a scratch build.

use crate::builder::ClickGraphBuilder;
use crate::edge::EdgeData;
use crate::graph::ClickGraph;
use crate::ids::{AdId, QueryId};
use crate::interner::Interner;
use simrankpp_util::FxHashMap;
use std::collections::VecDeque;

/// A rolling multi-bucket click-graph accumulator.
#[derive(Debug, Clone)]
pub struct SlidingWindowGraph {
    /// Window length in buckets (e.g. 14 for two weeks of daily buckets).
    window: usize,
    /// Oldest → newest per-bucket raw events, each in arrival order.
    buckets: VecDeque<Vec<(u32, u32, EdgeData)>>,
    query_names: Interner,
    ad_names: Interner,
    /// Number of `advance()` calls so far (the current bucket's index).
    epoch: u64,
    /// Per-epoch ECR decay factor in `(0, 1]`; 1 = no decay.
    decay: f64,
}

impl SlidingWindowGraph {
    /// Creates a window of `window` buckets (≥ 1), starting with one empty
    /// current bucket and no decay.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one bucket");
        let mut buckets = VecDeque::with_capacity(window);
        buckets.push_back(Vec::new());
        SlidingWindowGraph {
            window,
            buckets,
            query_names: Interner::new(),
            ad_names: Interner::new(),
            epoch: 0,
            decay: 1.0,
        }
    }

    /// Sets the per-epoch ECR decay factor (see the module docs). `1.0`
    /// keeps freezes bit-identical to scratch builds; smaller values
    /// down-weight older buckets' ECR evidence geometrically.
    ///
    /// # Panics
    /// Panics unless `0 < decay ≤ 1`.
    pub fn with_decay(mut self, decay: f64) -> Self {
        assert!(
            decay > 0.0 && decay <= 1.0,
            "decay must be in (0, 1], got {decay}"
        );
        self.decay = decay;
        self
    }

    /// The configured window length in buckets.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The configured per-epoch ECR decay factor.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// The current bucket's index (starts at 0, +1 per [`Self::advance`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of buckets currently held (≤ window).
    pub fn buckets_held(&self) -> usize {
        self.buckets.len()
    }

    /// The query-name interner (stable ids across the window's lifetime).
    pub fn query_names(&self) -> &Interner {
        &self.query_names
    }

    /// The ad-name interner (stable ids across the window's lifetime).
    pub fn ad_names(&self) -> &Interner {
        &self.ad_names
    }

    /// Reconstructs a window mid-stream from checkpointed state: the
    /// interners carry every name ever observed (so ids stay stable across
    /// the crash — retired nodes keep appearing isolated, exactly as in the
    /// uninterrupted run), and the window restarts at `epoch` with a single
    /// empty current bucket. The caller then replays the click log from the
    /// first record of bucket `epoch`; because bucket assignment is purely
    /// position-relative to epoch marks, the replay rebuilds the surviving
    /// buckets bit-identically.
    pub fn resume(window: usize, epoch: u64, query_names: Interner, ad_names: Interner) -> Self {
        assert!(window >= 1, "window must hold at least one bucket");
        let mut buckets = VecDeque::with_capacity(window);
        buckets.push_back(Vec::new());
        SlidingWindowGraph {
            window,
            buckets,
            query_names,
            ad_names,
            epoch,
            decay: 1.0,
        }
    }

    /// Number of surviving (un-retired) raw events across all buckets.
    pub fn events_held(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Records an observation of `(query, ad)` in the current bucket.
    /// Returns the stable ids.
    pub fn observe(&mut self, query: &str, ad: &str, data: EdgeData) -> (QueryId, AdId) {
        let q = QueryId(self.query_names.intern(query));
        let a = AdId(self.ad_names.intern(ad));
        self.push_event(q, a, data);
        (q, a)
    }

    /// Records by stable ids (for callers that interned up front).
    pub fn observe_ids(&mut self, q: QueryId, a: AdId, data: EdgeData) {
        assert!(
            (q.0 as usize) < self.query_names.len() && (a.0 as usize) < self.ad_names.len(),
            "ids must come from this window's interners"
        );
        self.push_event(q, a, data);
    }

    fn push_event(&mut self, q: QueryId, a: AdId, data: EdgeData) {
        self.buckets
            .back_mut()
            .expect("always at least one bucket")
            .push((q.0, a.0, data));
    }

    /// Closes the current bucket and opens a new one; the oldest bucket
    /// retires once more than `window` are held. Ids remain stable.
    ///
    /// Returns the deduplicated `(query, ad)` endpoints of every event the
    /// call retired — exactly the edges whose accumulated data the next
    /// [`Self::freeze`] may change, which is what an incremental index
    /// refresh needs to mark dirty.
    pub fn advance(&mut self) -> Vec<(QueryId, AdId)> {
        self.buckets.push_back(Vec::new());
        self.epoch += 1;
        let mut retired = Vec::new();
        while self.buckets.len() > self.window {
            let bucket = self.buckets.pop_front().expect("len > window ≥ 1");
            retired.extend(bucket.iter().map(|&(q, a, _)| (QueryId(q), AdId(a))));
        }
        retired.sort_unstable_by_key(|&(q, a)| (q.0, a.0));
        retired.dedup();
        retired
    }

    /// Advances until the current bucket is `epoch`, accumulating retired
    /// endpoints across all the rotations. A no-op (empty result) when
    /// `epoch` is not ahead of the current one — a click log can repeat or
    /// reorder epoch marks without corrupting the window.
    pub fn advance_to(&mut self, epoch: u64) -> Vec<(QueryId, AdId)> {
        let mut retired = Vec::new();
        while self.epoch < epoch {
            retired.extend(self.advance());
        }
        retired.sort_unstable_by_key(|&(q, a)| (q.0, a.0));
        retired.dedup();
        retired
    }

    /// Freezes the current window into an immutable [`ClickGraph`].
    ///
    /// Node ids in the frozen graph equal the stable interned ids (every
    /// query and ad ever observed keeps its id, even if all its edges have
    /// retired — it simply appears isolated).
    ///
    /// With no decay configured this **replays the surviving raw events in
    /// arrival order** through a fresh [`ClickGraphBuilder`], so the result
    /// is bit-identical — ECR included — to a scratch build of the same
    /// events (see the module docs for why per-bucket pre-accumulation
    /// cannot deliver that). With `decay < 1` the decayed fold described in
    /// the module docs runs instead.
    pub fn freeze(&self) -> ClickGraph {
        let g = if self.decay >= 1.0 {
            let mut b = self.universe_builder();
            for bucket in &self.buckets {
                for &(q, a, data) in bucket {
                    b.add_edge(QueryId(q), AdId(a), data);
                }
            }
            b.build()
        } else {
            self.freeze_decayed()
        };
        debug_assert!(g.validate().is_ok());
        g
    }

    /// The decayed fold: per-edge undecayed impression/click sums plus the
    /// recency-weighted ECR average, folded over events oldest → newest
    /// with ages anchored to each edge's own newest surviving event (see
    /// the module docs for why the anchoring matters).
    fn freeze_decayed(&self) -> ClickGraph {
        struct Acc {
            impressions: u64,
            clicks: u64,
            /// Σ λ^gap · impressions · ecr
            num: f64,
            /// Σ λ^gap · impressions
            den: f64,
            /// Σ λ^gap · ecr (zero-impression fallback numerator)
            wnum: f64,
            /// Σ λ^gap (zero-impression fallback denominator)
            wden: f64,
        }
        // Pass 1: each edge's newest bucket index — the decay anchor.
        let mut newest: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        for (i, bucket) in self.buckets.iter().enumerate() {
            for &(q, a, _) in bucket {
                newest.insert((q, a), i);
            }
        }
        // Pass 2: fold in arrival order with per-edge-anchored weights.
        let mut acc: FxHashMap<(u32, u32), Acc> = FxHashMap::default();
        for (i, bucket) in self.buckets.iter().enumerate() {
            for &(q, a, data) in bucket {
                let gap = (newest[&(q, a)] - i) as i32;
                let weight = self.decay.powi(gap);
                let e = acc.entry((q, a)).or_insert(Acc {
                    impressions: 0,
                    clicks: 0,
                    num: 0.0,
                    den: 0.0,
                    wnum: 0.0,
                    wden: 0.0,
                });
                // Saturating like `EdgeData::merge`: counters come from
                // outside and `u64::MAX` parses.
                e.impressions = e.impressions.saturating_add(data.impressions);
                e.clicks = e.clicks.saturating_add(data.clicks);
                e.num += weight * data.impressions as f64 * data.expected_click_rate;
                e.den += weight * data.impressions as f64;
                e.wnum += weight * data.expected_click_rate;
                e.wden += weight;
            }
        }
        let mut edges: Vec<((u32, u32), Acc)> = acc.into_iter().collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        let mut b = self.universe_builder();
        for ((q, a), e) in edges {
            let ecr = if e.den > 0.0 {
                e.num / e.den
            } else {
                e.wnum / e.wden
            };
            b.add_edge(
                QueryId(q),
                AdId(a),
                EdgeData {
                    impressions: e.impressions,
                    clicks: e.clicks,
                    expected_click_rate: ecr,
                },
            );
        }
        b.build()
    }

    /// A fresh builder with the window's full name universe pre-interned in
    /// id order, so scratch builds share the window's stable id space.
    pub fn universe_builder(&self) -> ClickGraphBuilder {
        let mut b = ClickGraphBuilder::new();
        for (_, name) in self.query_names.iter() {
            b.intern_query(name);
        }
        for (_, name) in self.ad_names.iter() {
            b.intern_ad(name);
        }
        b
    }

    /// Looks up a query's stable id without inserting.
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.query_names.get(name).map(QueryId)
    }

    /// Looks up an ad's stable id without inserting.
    pub fn ad_id(&self, name: &str) -> Option<AdId> {
        self.ad_names.get(name).map(AdId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn click() -> EdgeData {
        EdgeData::new(10, 2, 0.2)
    }

    fn bits(g: &ClickGraph, q: &str, a: &str) -> u64 {
        let e = g
            .edge(g.query_by_name(q).unwrap(), g.ad_by_name(a).unwrap())
            .unwrap();
        e.expected_click_rate.to_bits()
    }

    #[test]
    fn accumulates_within_a_bucket() {
        let mut w = SlidingWindowGraph::new(3);
        w.observe("camera", "hp.com", click());
        w.observe("camera", "hp.com", click());
        let g = w.freeze();
        let q = g.query_by_name("camera").unwrap();
        let a = g.ad_by_name("hp.com").unwrap();
        let e = g.edge(q, a).unwrap();
        assert_eq!(e.impressions, 20);
        assert_eq!(e.clicks, 4);
    }

    #[test]
    fn saturating_counters_keep_the_frozen_edge_valid() {
        // Same defect as the builder's, through both freeze paths.
        for decay in [1.0, 0.5] {
            let mut w = SlidingWindowGraph::new(3).with_decay(decay);
            w.observe("camera", "hp.com", EdgeData::new(u64::MAX, u64::MAX, 0.5));
            w.advance();
            w.observe("camera", "hp.com", EdgeData::new(u64::MAX, 0, 0.5));
            let g = w.freeze();
            g.validate().unwrap();
            let e = g
                .edge(
                    g.query_by_name("camera").unwrap(),
                    g.ad_by_name("hp.com").unwrap(),
                )
                .unwrap();
            assert_eq!(
                (e.impressions, e.clicks),
                (u64::MAX, u64::MAX),
                "decay {decay}"
            );
            assert!(e.expected_click_rate.is_finite() && e.expected_click_rate >= 0.0);
        }
    }

    #[test]
    fn window_retires_old_buckets() {
        let mut w = SlidingWindowGraph::new(2);
        w.observe("old", "ad1", click());
        w.advance(); // bucket 1
        w.observe("mid", "ad2", click());
        w.advance(); // bucket 2: "old" bucket retires
        w.observe("new", "ad3", click());

        let g = w.freeze();
        let old = g.query_by_name("old").unwrap();
        assert_eq!(g.query_degree(old), 0, "retired edges must vanish");
        let mid = g.query_by_name("mid").unwrap();
        assert_eq!(g.query_degree(mid), 1);
        let new = g.query_by_name("new").unwrap();
        assert_eq!(g.query_degree(new), 1);
    }

    #[test]
    fn ids_are_stable_across_freezes() {
        let mut w = SlidingWindowGraph::new(2);
        let (q0, _) = w.observe("camera", "hp.com", click());
        let snap1 = w.freeze();
        w.advance();
        w.observe("flower", "teleflora.com", click());
        let snap2 = w.freeze();
        assert_eq!(snap1.query_by_name("camera"), Some(q0));
        assert_eq!(snap2.query_by_name("camera"), Some(q0));
        assert_eq!(w.query_id("camera"), Some(q0));
    }

    #[test]
    fn same_edge_across_buckets_merges_in_freeze() {
        let mut w = SlidingWindowGraph::new(3);
        w.observe("q", "ad", click());
        w.advance();
        w.observe("q", "ad", click());
        let g = w.freeze();
        let e = g
            .edge(g.query_by_name("q").unwrap(), g.ad_by_name("ad").unwrap())
            .unwrap();
        assert_eq!(e.impressions, 20);
        assert_eq!(e.clicks, 4);
    }

    /// The reason buckets hold raw events: `EdgeData::merge` is not
    /// bit-associative, so the old per-bucket pre-accumulation (fold each
    /// bucket, then merge bucket partials) diverged from a scratch replay
    /// in the last ulp. These constants are a found counterexample — under
    /// the old freeze they produce a different ECR bit pattern than the
    /// scratch build below, so this test fails against that implementation.
    #[test]
    fn freeze_bit_identical_to_scratch_build_of_surviving_events() {
        let events = [
            (0u64, 19, 5, 0.93),
            (0, 16, 4, 0.81),
            (1, 17, 3, 0.40),
            (1, 2, 1, 0.48),
        ];
        let mut w = SlidingWindowGraph::new(4);
        for &(epoch, impr, clicks, ecr) in &events {
            w.advance_to(epoch);
            w.observe("q", "ad", EdgeData::new(impr, clicks, ecr));
        }
        let frozen = w.freeze();

        // Scratch build: same universe, same events, arrival order.
        let mut b = w.universe_builder();
        for &(_, impr, clicks, ecr) in &events {
            b.add_edge(
                w.query_id("q").unwrap(),
                w.ad_id("ad").unwrap(),
                EdgeData::new(impr, clicks, ecr),
            );
        }
        let scratch = b.build();

        assert_eq!(frozen.n_queries(), scratch.n_queries());
        assert_eq!(frozen.n_ads(), scratch.n_ads());
        assert_eq!(frozen.n_edges(), scratch.n_edges());
        for (q, a, e) in frozen.edges() {
            let s = scratch.edge(q, a).unwrap();
            assert_eq!(e.impressions, s.impressions);
            assert_eq!(e.clicks, s.clicks);
            assert_eq!(
                e.expected_click_rate.to_bits(),
                s.expected_click_rate.to_bits(),
                "ECR must match bitwise, not just approximately"
            );
        }
    }

    #[test]
    fn advance_reports_retired_endpoints() {
        let mut w = SlidingWindowGraph::new(1);
        let (q1, a1) = w.observe("q1", "a1", click());
        let (q2, a2) = w.observe("q2", "a2", click());
        w.observe("q1", "a1", click()); // duplicate: deduped in the report
        let retired = w.advance();
        assert_eq!(retired, vec![(q1, a1), (q2, a2)]);
        // Nothing left to retire.
        assert_eq!(w.advance(), vec![]);
    }

    #[test]
    fn advance_to_jumps_and_tolerates_stale_epochs() {
        let mut w = SlidingWindowGraph::new(2);
        let (q, a) = w.observe("q", "a", click());
        let retired = w.advance_to(5);
        assert_eq!(w.epoch(), 5);
        assert_eq!(retired, vec![(q, a)]);
        assert!(w.advance_to(3).is_empty(), "stale epoch mark is a no-op");
        assert_eq!(w.epoch(), 5);
    }

    #[test]
    fn decay_downweights_old_evidence_within_an_edge() {
        // One edge, equal-impression observations two epochs apart with
        // different ECRs: the recency-weighted average sits closer to the
        // fresh observation than the plain impression-weighted average.
        let mut w = SlidingWindowGraph::new(8).with_decay(0.5);
        w.observe("q", "ad", EdgeData::new(10, 5, 0.8));
        w.advance();
        w.advance();
        w.observe("q", "ad", EdgeData::new(10, 5, 0.2));
        let g = w.freeze();
        let e = g
            .edge(g.query_by_name("q").unwrap(), g.ad_by_name("ad").unwrap())
            .unwrap();
        // Weights: old λ²·10 = 2.5, new 10 → (2.5·0.8 + 10·0.2) / 12.5.
        assert!((e.expected_click_rate - 0.32).abs() < 1e-12);
        assert!(e.expected_click_rate < 0.5, "must sit below the plain mean");
        // Counts stay undecayed.
        assert_eq!(e.impressions, 20);
        assert_eq!(e.clicks, 10);
    }

    #[test]
    fn decay_is_monotone_in_the_age_gap() {
        // Fixed old (high-ECR) and fresh (low-ECR) observations on one
        // edge: as the epoch gap between them grows, the old evidence
        // counts for less and the mixed ECR falls toward the fresh value.
        let mut last = f64::INFINITY;
        for gap in 1..6 {
            let mut w = SlidingWindowGraph::new(16).with_decay(0.7);
            w.observe("q", "ad", EdgeData::new(10, 4, 0.9));
            for _ in 0..gap {
                w.advance();
            }
            w.observe("q", "ad", EdgeData::new(10, 4, 0.1));
            let g = w.freeze();
            let ecr = g
                .edge(g.query_by_name("q").unwrap(), g.ad_by_name("ad").unwrap())
                .unwrap()
                .expected_click_rate;
            assert!(ecr < last, "gap {gap}: {ecr} not below {last}");
            assert!(ecr > 0.1, "the old evidence still contributes");
            last = ecr;
        }
    }

    #[test]
    fn decay_untouched_edges_are_bit_stable_across_advances() {
        // The incremental-refresh soundness property: advancing the window
        // without touching an edge (and without retiring its events) must
        // leave its decayed ECR bit-identical — ages are anchored to the
        // edge's own newest event, not the current epoch.
        let mut w = SlidingWindowGraph::new(32).with_decay(0.6);
        w.observe("q", "ad", EdgeData::new(19, 5, 0.93));
        w.advance();
        w.observe("q", "ad", EdgeData::new(17, 3, 0.40));
        let before = bits(&w.freeze(), "q", "ad");
        w.advance();
        w.observe("other", "ad2", click()); // unrelated traffic
        w.advance();
        let after = bits(&w.freeze(), "q", "ad");
        assert_eq!(before, after, "aging alone must not change the ECR bits");
    }

    #[test]
    fn decay_one_is_the_exact_replay_path() {
        let build = |decay: f64| {
            let mut w = SlidingWindowGraph::new(4).with_decay(decay);
            w.observe("q", "ad", EdgeData::new(19, 5, 0.93));
            w.advance();
            w.observe("q", "ad", EdgeData::new(17, 3, 0.40));
            w.freeze()
        };
        let (a, b) = (build(1.0), build(1.0));
        assert_eq!(bits(&a, "q", "ad"), bits(&b, "q", "ad"));
        // And λ=1 through the decayed fold would differ in association;
        // the dispatch guarantees we never take that path.
        let plain = {
            let mut w = SlidingWindowGraph::new(4);
            w.observe("q", "ad", EdgeData::new(19, 5, 0.93));
            w.advance();
            w.observe("q", "ad", EdgeData::new(17, 3, 0.40));
            w.freeze()
        };
        assert_eq!(bits(&a, "q", "ad"), bits(&plain, "q", "ad"));
    }

    #[test]
    fn decay_zero_impression_events_fall_back_to_weighted_mean() {
        let mut w = SlidingWindowGraph::new(4).with_decay(0.5);
        w.observe("q", "ad", EdgeData::new(0, 0, 0.8));
        w.advance();
        w.observe("q", "ad", EdgeData::new(0, 0, 0.4));
        let g = w.freeze();
        let e = g
            .edge(g.query_by_name("q").unwrap(), g.ad_by_name("ad").unwrap())
            .unwrap();
        // λ-weighted mean: (0.5·0.8 + 1·0.4) / (0.5 + 1)
        assert!((e.expected_click_rate - (0.5 * 0.8 + 0.4) / 1.5).abs() < 1e-12);
        assert_eq!(e.impressions, 0);
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1]")]
    fn decay_out_of_range_rejected() {
        let _ = SlidingWindowGraph::new(2).with_decay(0.0);
    }

    #[test]
    fn epoch_counts_advances() {
        let mut w = SlidingWindowGraph::new(14);
        assert_eq!(w.epoch(), 0);
        for _ in 0..5 {
            w.advance();
        }
        assert_eq!(w.epoch(), 5);
        assert_eq!(w.buckets_held(), 6);
        for _ in 0..20 {
            w.advance();
        }
        assert_eq!(w.buckets_held(), 14);
    }

    #[test]
    fn observe_ids_requires_interned_ids() {
        let mut w = SlidingWindowGraph::new(2);
        let (q, a) = w.observe("q", "ad", click());
        w.observe_ids(q, a, click());
        let g = w.freeze();
        assert_eq!(g.edge(q, a).unwrap().clicks, 4);
    }

    #[test]
    #[should_panic(expected = "interners")]
    fn observe_ids_rejects_foreign_ids() {
        let mut w = SlidingWindowGraph::new(2);
        w.observe_ids(QueryId(99), AdId(0), click());
    }

    #[test]
    fn two_week_simulation_end_to_end() {
        // 14 daily buckets over 20 days: only the last 14 days survive.
        let mut w = SlidingWindowGraph::new(14);
        for day in 0..20u64 {
            w.observe("q", &format!("ad-day{day}"), click());
            if day < 19 {
                w.advance();
            }
        }
        let g = w.freeze();
        let q = g.query_by_name("q").unwrap();
        assert_eq!(g.query_degree(q), 14, "exactly the last 14 days of edges");
        // The earliest retired day's ad is isolated.
        let ad0 = g.ad_by_name("ad-day0").unwrap();
        assert_eq!(g.ad_degree(ad0), 0);
        // The newest day's ad is connected.
        let ad19 = g.ad_by_name("ad-day19").unwrap();
        assert_eq!(g.ad_degree(ad19), 1);
    }
}
