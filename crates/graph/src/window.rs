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
//!
//! **Two freezes.** [`SlidingWindowGraph::freeze`] is the reference: it
//! replays every surviving event into a fresh builder, so it costs the
//! whole window each call. A streaming refresh admits a few dozen events
//! into a window of thousands of edges, so it calls
//! [`SlidingWindowGraph::refreeze`] instead. That re-folds only the edges
//! observed or retired since the last refreeze, each from its own
//! surviving events with the same per-edge, arrival-order fold, and keeps
//! every other edge's data from the last refreeze. Because an edge's
//! frozen data depends on its own surviving events alone (the per-edge
//! anchoring above), the two agree bit for bit; the tests hold
//! `refreeze() == freeze()` over random observe, advance and resume
//! sequences. Both share the window's name tables with the graph they
//! return, so neither copies a name.

use crate::builder::{lay_out, ClickGraphBuilder};
use crate::edge::EdgeData;
use crate::graph::ClickGraph;
use crate::ids::{AdId, QueryId};
use crate::interner::Interner;
use simrankpp_util::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// A rolling multi-bucket click-graph accumulator.
#[derive(Debug, Clone)]
pub struct SlidingWindowGraph {
    /// Window length in buckets (e.g. 14 for two weeks of daily buckets).
    window: usize,
    /// Oldest → newest per-bucket raw events, each in arrival order. The
    /// newest bucket is epoch `epoch`, and the buckets' epochs run
    /// contiguously.
    buckets: VecDeque<Vec<(u32, u32, EdgeData)>>,
    query_names: Arc<Interner>,
    ad_names: Arc<Interner>,
    /// Number of `advance()` calls so far (the current bucket's index).
    epoch: u64,
    /// Per-epoch ECR decay factor in `(0, 1]`; 1 = no decay.
    decay: f64,
    /// The surviving events of every edge that has some, or had some at the
    /// last [`Self::refreeze`]: one lookup per observed or retired event.
    events: FxHashMap<(u32, u32), EdgeEvents>,
    /// Edges observed or retired since the last [`Self::refreeze`], each
    /// once.
    touched: Vec<(u32, u32)>,
    /// The last refreeze's edges, sorted by `(query, ad)`.
    frozen: Vec<((u32, u32), EdgeData)>,
}

/// One edge's surviving events, and whether it changed since the last
/// refreeze.
#[derive(Debug, Clone, Default)]
struct EdgeEvents {
    /// `(epoch, index in that epoch's bucket)` per event, in arrival order:
    /// what [`SlidingWindowGraph::refreeze`] folds.
    at: VecDeque<(u64, usize)>,
    /// Listed in `SlidingWindowGraph::touched`.
    touched: bool,
}

/// The decayed fold of one edge's events, oldest → newest (see the module
/// docs): undecayed impression/click sums plus the recency-weighted ECR.
#[derive(Default)]
struct DecayedFold {
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

impl DecayedFold {
    fn add(&mut self, weight: f64, data: &EdgeData) {
        // Saturating like `EdgeData::merge`: counters come from outside
        // and `u64::MAX` parses.
        self.impressions = self.impressions.saturating_add(data.impressions);
        self.clicks = self.clicks.saturating_add(data.clicks);
        self.num += weight * data.impressions as f64 * data.expected_click_rate;
        self.den += weight * data.impressions as f64;
        self.wnum += weight * data.expected_click_rate;
        self.wden += weight;
    }

    fn edge(&self) -> EdgeData {
        let ecr = if self.den > 0.0 {
            self.num / self.den
        } else {
            self.wnum / self.wden
        };
        EdgeData {
            impressions: self.impressions,
            clicks: self.clicks,
            expected_click_rate: ecr,
        }
    }
}

impl SlidingWindowGraph {
    /// Creates a window of `window` buckets (≥ 1), starting with one empty
    /// current bucket and no decay.
    pub fn new(window: usize) -> Self {
        Self::resume(window, 0, Arc::default(), Arc::default())
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

    /// The query-name interner (stable ids across the window's lifetime),
    /// shared with every graph frozen since its last new name.
    pub fn query_names(&self) -> &Arc<Interner> {
        &self.query_names
    }

    /// The ad-name interner (stable ids across the window's lifetime),
    /// shared like [`Self::query_names`].
    pub fn ad_names(&self) -> &Arc<Interner> {
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
    pub fn resume(
        window: usize,
        epoch: u64,
        query_names: Arc<Interner>,
        ad_names: Arc<Interner>,
    ) -> Self {
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
            events: FxHashMap::default(),
            touched: Vec::new(),
            frozen: Vec::new(),
        }
    }

    /// Number of surviving (un-retired) raw events across all buckets.
    pub fn events_held(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Records an observation of `(query, ad)` in the current bucket.
    /// Returns the stable ids.
    pub fn observe(&mut self, query: &str, ad: &str, data: EdgeData) -> (QueryId, AdId) {
        let q = QueryId(Interner::intern_shared(&mut self.query_names, query));
        let a = AdId(Interner::intern_shared(&mut self.ad_names, ad));
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
        let bucket = self.buckets.back_mut().expect("always at least one bucket");
        let key = (q.0, a.0);
        let at = (self.epoch, bucket.len());
        bucket.push((q.0, a.0, data));
        let edge = self.events.entry(key).or_default();
        edge.at.push_back(at);
        if !std::mem::replace(&mut edge.touched, true) {
            self.touched.push(key);
        }
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
            self.retire(&bucket, &mut retired);
        }
        sorted_unique(retired)
    }

    /// Advances until the current bucket is `epoch`, accumulating retired
    /// endpoints across all the rotations. A no-op (empty result) when
    /// `epoch` is not ahead of the current one — a click log can repeat or
    /// reorder epoch marks without corrupting the window.
    ///
    /// A jump of at least `window` epochs retires every held bucket in one
    /// step, so its cost is the events held, never the epochs skipped: an
    /// epoch mark of `u64::MAX` returns at once. The one empty current
    /// bucket it leaves stands for the empty ones stepping would leave, as
    /// after [`Self::resume`].
    pub fn advance_to(&mut self, epoch: u64) -> Vec<(QueryId, AdId)> {
        if epoch.saturating_sub(self.epoch) < self.window as u64 {
            let mut retired = Vec::new();
            while self.epoch < epoch {
                retired.extend(self.advance());
            }
            return sorted_unique(retired);
        }
        let mut retired = Vec::new();
        for bucket in std::mem::take(&mut self.buckets) {
            self.retire(&bucket, &mut retired);
        }
        self.buckets.push_back(Vec::new());
        self.epoch = epoch;
        sorted_unique(retired)
    }

    /// Drops a retired bucket's events from the per-edge event lists (they
    /// are each edge's oldest) and marks their edges touched.
    fn retire(&mut self, bucket: &[(u32, u32, EdgeData)], retired: &mut Vec<(QueryId, AdId)>) {
        for &(q, a, _) in bucket {
            let key = (q, a);
            let edge = self.events.get_mut(&key).expect("a held event is indexed");
            edge.at.pop_front();
            if !std::mem::replace(&mut edge.touched, true) {
                self.touched.push(key);
            }
            retired.push((QueryId(q), AdId(a)));
        }
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
        // Pass 1: each edge's newest bucket index — the decay anchor.
        let mut newest: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        for (i, bucket) in self.buckets.iter().enumerate() {
            for &(q, a, _) in bucket {
                newest.insert((q, a), i);
            }
        }
        // Pass 2: fold in arrival order with per-edge-anchored weights.
        let mut acc: FxHashMap<(u32, u32), DecayedFold> = FxHashMap::default();
        for (i, bucket) in self.buckets.iter().enumerate() {
            for &(q, a, data) in bucket {
                let gap = (newest[&(q, a)] - i) as i32;
                acc.entry((q, a))
                    .or_default()
                    .add(self.decay.powi(gap), &data);
            }
        }
        let mut edges: Vec<((u32, u32), DecayedFold)> = acc.into_iter().collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        let mut b = self.universe_builder();
        for ((q, a), e) in edges {
            b.add_edge(QueryId(q), AdId(a), e.edge());
        }
        b.build()
    }

    /// [`Self::freeze`] at the cost of what changed: re-folds only the edges
    /// observed or retired since the last refreeze, each from its own
    /// surviving events in arrival order (the fold `freeze` applies, decayed
    /// or not), splices them into the last refreeze's id-sorted edge list,
    /// and lays the CSR out from that list without hashing or sorting it.
    /// The result equals `freeze()` bit for bit (see the module docs).
    pub fn refreeze(&mut self) -> ClickGraph {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        let mut frozen = Vec::with_capacity(self.frozen.len() + touched.len());
        let mut kept = self.frozen.iter().copied().peekable();
        for key in touched {
            while let Some(edge) = kept.next_if(|&(k, _)| k < key) {
                frozen.push(edge);
            }
            kept.next_if(|&(k, _)| k == key);
            if let Some(data) = self.fold(key) {
                frozen.push((key, data));
            }
            // Clean again; an edge whose events all retired leaves the index.
            let edge = self
                .events
                .get_mut(&key)
                .expect("a touched edge is indexed");
            if edge.at.is_empty() {
                self.events.remove(&key);
            } else {
                edge.touched = false;
            }
        }
        frozen.extend(kept);
        self.frozen = frozen;
        let g = lay_out(
            self.query_names.len(),
            self.ad_names.len(),
            &self.frozen,
            Some(Arc::clone(&self.query_names)),
            Some(Arc::clone(&self.ad_names)),
        );
        debug_assert!(g.validate().is_ok());
        g
    }

    /// One edge's frozen data from its surviving events, `None` once they
    /// have all retired.
    fn fold(&self, key: (u32, u32)) -> Option<EdgeData> {
        let at = &self.events.get(&key)?.at;
        // The buckets' epochs run contiguously up to the current one (which
        // may be `u64::MAX`).
        let oldest = self.epoch - (self.buckets.len() as u64 - 1);
        let data = |&(epoch, i): &(u64, usize)| self.buckets[(epoch - oldest) as usize][i].2;
        if self.decay >= 1.0 {
            let mut events = at.iter().map(data);
            let mut e = events.next()?;
            for d in events {
                e.merge(&d);
            }
            Some(e)
        } else {
            let newest = at.back()?.0;
            let mut acc = DecayedFold::default();
            for p in at {
                acc.add(self.decay.powi((newest - p.0) as i32), &data(p));
            }
            Some(acc.edge())
        }
    }

    /// A fresh builder over the window's full name universe in id order,
    /// so scratch builds share the window's stable id space (and its name
    /// tables, until the builder interns a name of its own).
    pub fn universe_builder(&self) -> ClickGraphBuilder {
        ClickGraphBuilder::with_names(Arc::clone(&self.query_names), Arc::clone(&self.ad_names))
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

/// Retired endpoints sorted by id, each once.
fn sorted_unique(mut retired: Vec<(QueryId, AdId)>) -> Vec<(QueryId, AdId)> {
    retired.sort_unstable_by_key(|&(q, a)| (q.0, a.0));
    retired.dedup();
    retired
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

    #[test]
    fn a_mark_at_u64_max_retires_everything_at_once() {
        let mut w = SlidingWindowGraph::new(14);
        let (q, a) = w.observe("q", "ad", click());
        w.advance();
        w.observe("q2", "ad", click());
        let _ = w.refreeze();
        let started = std::time::Instant::now();
        let retired = w.advance_to(u64::MAX);
        assert!(started.elapsed() < std::time::Duration::from_millis(50));
        assert_eq!(w.epoch(), u64::MAX);
        assert_eq!(w.events_held(), 0);
        assert_eq!(retired, vec![(q, a), (w.query_id("q2").unwrap(), a)]);
        let g = w.refreeze();
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.fingerprint(), w.freeze().fingerprint());
        assert!(w.advance_to(7).is_empty(), "stale epoch mark is a no-op");
        // The last epoch still takes events.
        w.observe("q", "ad", click());
        assert_eq!(w.refreeze().fingerprint(), w.freeze().fingerprint());
    }

    #[test]
    fn shared_name_tables_are_copied_only_for_a_new_name() {
        let mut w = SlidingWindowGraph::new(2);
        w.observe("q", "ad", click());
        let g = w.refreeze();
        let shared = Arc::as_ptr(w.query_names());
        assert_eq!(g.query_interner().map(|i| i as *const _), Some(shared));
        w.observe("q", "ad", click());
        assert_eq!(Arc::as_ptr(w.query_names()), shared, "known name: no copy");
        w.observe("new", "ad", click());
        assert_ne!(Arc::as_ptr(w.query_names()), shared, "new name: copy");
        assert_eq!(g.n_queries(), 1, "the frozen graph keeps its names");
        assert_eq!(w.query_names().len(), 2);
    }

    /// Asserts two graphs equal in every array, edge bit, name and count.
    fn assert_same_graph(inc: &ClickGraph, scratch: &ClickGraph) {
        let bits = |edges: &[EdgeData]| -> Vec<(u64, u64, u64)> {
            edges
                .iter()
                .map(|e| (e.impressions, e.clicks, e.expected_click_rate.to_bits()))
                .collect()
        };
        assert_eq!(inc.n_queries(), scratch.n_queries());
        assert_eq!(inc.n_ads(), scratch.n_ads());
        assert_eq!(inc.q_offsets, scratch.q_offsets);
        assert_eq!(inc.q_nbrs, scratch.q_nbrs);
        assert_eq!(bits(&inc.q_edges), bits(&scratch.q_edges));
        assert_eq!(inc.a_offsets, scratch.a_offsets);
        assert_eq!(inc.a_nbrs, scratch.a_nbrs);
        assert_eq!(bits(&inc.a_edges), bits(&scratch.a_edges));
        assert_eq!(inc.query_interner(), scratch.query_interner());
        assert_eq!(inc.ad_interner(), scratch.ad_interner());
        assert_eq!(inc.fingerprint(), scratch.fingerprint());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // `refreeze` is `freeze` at the cost of what changed: after every
        // call, over random observe / late-event / advance / resume
        // sequences, it equals the scratch reference in every array, edge
        // bit, name table and fingerprint, decayed or not. (0.5 scales every
        // weight of an edge exactly, so 0.7 is what catches a wrong age
        // anchor.)
        #[test]
        fn refreeze_equals_freeze(
            window in 1usize..5,
            ops in proptest::collection::vec(
                (0u32..12, 0u32..35, 0u64..30, 0.0f64..1.0),
                1..60,
            ),
        ) {
            for decay in [1.0, 0.5, 0.7] {
                let mut w = SlidingWindowGraph::new(window).with_decay(decay);
                let check = |w: &mut SlidingWindowGraph| {
                    let inc = w.refreeze();
                    assert_same_graph(&inc, &w.freeze());
                };
                // An edge whose events all retire while it is frozen.
                w.observe("gone", "gone-ad", click());
                check(&mut w);
                w.advance_to(w.epoch() + window as u64);
                check(&mut w);
                for (i, &(kind, qa, impressions, ecr)) in ops.iter().enumerate() {
                    let (q, a) = (qa / 5, qa % 5);
                    let data = EdgeData::new(impressions, impressions / 3, ecr);
                    match kind {
                        // Observations into the current bucket: on time or
                        // late, the window folds them the same way.
                        0..=4 => {
                            w.observe(&format!("q{q}"), &format!("ad{a}"), data);
                        }
                        // A name first seen mid-stream.
                        5 => {
                            w.observe(&format!("new{i}"), &format!("ad{a}"), data);
                        }
                        // Advance by 0 to window + 2 epochs: steps and jumps.
                        6 | 7 => {
                            w.advance_to(w.epoch() + (q as u64 % (window as u64 + 3)));
                        }
                        8 => {
                            let names = (Arc::clone(w.query_names()), Arc::clone(w.ad_names()));
                            w = SlidingWindowGraph::resume(window, w.epoch(), names.0, names.1)
                                .with_decay(decay);
                        }
                        _ => check(&mut w),
                    }
                }
                check(&mut w);
            }
        }
    }
}
