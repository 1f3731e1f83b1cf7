//! The immutable CSR click graph.
//!
//! Both adjacency directions are materialized (query→ads and ad→queries),
//! each as a compressed sparse row structure with neighbor lists sorted by
//! id. Sorted neighbor lists make common-neighbor intersection — the kernel
//! of the evidence score (Eq. 7.3), the naive similarity (§3), and the
//! Pearson baseline (§9.1) — a linear merge.

use crate::edge::{EdgeData, WeightKind};
use crate::ids::{AdId, NodeRef, QueryId};
use crate::interner::Interner;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An immutable weighted bipartite click graph in CSR form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClickGraph {
    // Query -> ads adjacency.
    pub(crate) q_offsets: Vec<u32>,
    pub(crate) q_nbrs: Vec<AdId>,
    pub(crate) q_edges: Vec<EdgeData>,
    // Ad -> queries adjacency.
    pub(crate) a_offsets: Vec<u32>,
    pub(crate) a_nbrs: Vec<QueryId>,
    pub(crate) a_edges: Vec<EdgeData>,
    // Optional display names, shared with the builder or window they came
    // from (a new name copies the table on the writer's side only).
    pub(crate) query_names: Option<Arc<Interner>>,
    pub(crate) ad_names: Option<Arc<Interner>>,
}

impl ClickGraph {
    /// Number of query nodes `|Q|`.
    #[inline]
    pub fn n_queries(&self) -> usize {
        self.q_offsets.len() - 1
    }

    /// Number of ad nodes `|A|`.
    #[inline]
    pub fn n_ads(&self) -> usize {
        self.a_offsets.len() - 1
    }

    /// Number of (query, ad) edges `|E|`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.q_nbrs.len()
    }

    /// Total node count `|Q| + |A|`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_queries() + self.n_ads()
    }

    /// The ads clicked for query `q` (the paper's `E(q)`), sorted by id,
    /// paired with their edge data.
    #[inline]
    pub fn ads_of(&self, q: QueryId) -> (&[AdId], &[EdgeData]) {
        let lo = self.q_offsets[q.index()] as usize;
        let hi = self.q_offsets[q.index() + 1] as usize;
        (&self.q_nbrs[lo..hi], &self.q_edges[lo..hi])
    }

    /// The queries that clicked ad `α` (the paper's `E(α)`), sorted by id,
    /// paired with their edge data.
    #[inline]
    pub fn queries_of(&self, a: AdId) -> (&[QueryId], &[EdgeData]) {
        let lo = self.a_offsets[a.index()] as usize;
        let hi = self.a_offsets[a.index() + 1] as usize;
        (&self.a_nbrs[lo..hi], &self.a_edges[lo..hi])
    }

    /// `N(q) = |E(q)|`: the number of ads adjacent to query `q`.
    #[inline]
    pub fn query_degree(&self, q: QueryId) -> usize {
        (self.q_offsets[q.index() + 1] - self.q_offsets[q.index()]) as usize
    }

    /// `N(α) = |E(α)|`: the number of queries adjacent to ad `α`.
    #[inline]
    pub fn ad_degree(&self, a: AdId) -> usize {
        (self.a_offsets[a.index() + 1] - self.a_offsets[a.index()]) as usize
    }

    /// Degree of either-side node.
    pub fn degree(&self, node: NodeRef) -> usize {
        match node {
            NodeRef::Query(q) => self.query_degree(q),
            NodeRef::Ad(a) => self.ad_degree(a),
        }
    }

    /// The edge data for `(q, α)`, if the edge exists (binary search).
    pub fn edge(&self, q: QueryId, a: AdId) -> Option<&EdgeData> {
        let (nbrs, edges) = self.ads_of(q);
        nbrs.binary_search(&a).ok().map(|i| &edges[i])
    }

    /// `true` when `(q, α)` is an edge.
    pub fn has_edge(&self, q: QueryId, a: AdId) -> bool {
        self.edge(q, a).is_some()
    }

    /// Iterates all edges as `(query, ad, &EdgeData)` in query-major order.
    pub fn edges(&self) -> impl Iterator<Item = (QueryId, AdId, &EdgeData)> {
        (0..self.n_queries()).flat_map(move |qi| {
            let q = QueryId(qi as u32);
            let (nbrs, edges) = self.ads_of(q);
            nbrs.iter().zip(edges).map(move |(&a, e)| (q, a, e))
        })
    }

    /// All query ids.
    pub fn queries(&self) -> impl Iterator<Item = QueryId> {
        (0..self.n_queries() as u32).map(QueryId)
    }

    /// All ad ids.
    pub fn ads(&self) -> impl Iterator<Item = AdId> {
        (0..self.n_ads() as u32).map(AdId)
    }

    /// All nodes of both sides.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.queries()
            .map(NodeRef::Query)
            .chain(self.ads().map(NodeRef::Ad))
    }

    /// Common-ad count `|E(q) ∩ E(q')|` between two queries (linear merge of
    /// sorted neighbor lists).
    pub fn common_ads(&self, q1: QueryId, q2: QueryId) -> usize {
        let (n1, _) = self.ads_of(q1);
        let (n2, _) = self.ads_of(q2);
        sorted_intersection_len(n1, n2)
    }

    /// Common-query count `|E(α) ∩ E(α')|` between two ads.
    pub fn common_queries(&self, a1: AdId, a2: AdId) -> usize {
        let (n1, _) = self.queries_of(a1);
        let (n2, _) = self.queries_of(a2);
        sorted_intersection_len(n1, n2)
    }

    /// Iterates the ads common to `q1` and `q2`, yielding
    /// `(ad, edge-from-q1, edge-from-q2)`.
    pub fn common_ads_iter(
        &self,
        q1: QueryId,
        q2: QueryId,
    ) -> impl Iterator<Item = (AdId, &EdgeData, &EdgeData)> {
        let (n1, e1) = self.ads_of(q1);
        let (n2, e2) = self.ads_of(q2);
        SortedPairMerge {
            left: n1,
            left_data: e1,
            right: n2,
            right_data: e2,
            i: 0,
            j: 0,
        }
    }

    /// Sum of the `kind` weights on edges incident to query `q`
    /// (the denominator of `normalized_weight(q, ·)` in §8.2).
    pub fn query_weight_sum(&self, q: QueryId, kind: WeightKind) -> f64 {
        self.ads_of(q).1.iter().map(|e| e.weight(kind)).sum()
    }

    /// Sum of the `kind` weights on edges incident to ad `α`.
    pub fn ad_weight_sum(&self, a: AdId, kind: WeightKind) -> f64 {
        self.queries_of(a).1.iter().map(|e| e.weight(kind)).sum()
    }

    /// The display name of a query, if names were recorded.
    pub fn query_name(&self, q: QueryId) -> Option<&str> {
        self.query_names.as_ref().and_then(|i| i.name(q.0))
    }

    /// The display name of an ad, if names were recorded.
    pub fn ad_name(&self, a: AdId) -> Option<&str> {
        self.ad_names.as_ref().and_then(|i| i.name(a.0))
    }

    /// Finds a query id by display name.
    pub fn query_by_name(&self, name: &str) -> Option<QueryId> {
        self.query_names
            .as_ref()
            .and_then(|i| i.get(name))
            .map(QueryId)
    }

    /// Finds an ad id by display name.
    pub fn ad_by_name(&self, name: &str) -> Option<AdId> {
        self.ad_names.as_ref().and_then(|i| i.get(name)).map(AdId)
    }

    /// The query-name interner, if present.
    pub fn query_interner(&self) -> Option<&Interner> {
        self.query_names.as_deref()
    }

    /// The ad-name interner, if present.
    pub fn ad_interner(&self) -> Option<&Interner> {
        self.ad_names.as_deref()
    }

    /// Start offset of `q`'s row in the query→ad CSR edge arrays, exposed so
    /// per-edge side tables (e.g. weighted-SimRank transition factors) can be
    /// kept aligned with `ads_of` order. `q == n_queries()` is the end
    /// sentinel.
    #[inline]
    pub fn query_csr_offset(&self, q: QueryId) -> usize {
        self.q_offsets[q.index()] as usize
    }

    /// Start offset of `a`'s row in the ad→query CSR edge arrays
    /// (see [`ClickGraph::query_csr_offset`]).
    #[inline]
    pub fn ad_csr_offset(&self, a: AdId) -> usize {
        self.a_offsets[a.index()] as usize
    }

    /// Rebuilds the interners' reverse indices. Call after deserializing a
    /// graph (serde skips the redundant name→id maps).
    pub fn rebuild_name_indices(&mut self) {
        for names in [&mut self.query_names, &mut self.ad_names] {
            if let Some(i) = names.as_mut() {
                Arc::make_mut(i).rebuild_index();
            }
        }
    }

    /// A deterministic FNV-1a digest of the graph's full logical content:
    /// node counts, the forward CSR (offsets, neighbors, per-edge weights bit
    /// patterns), and display names in id order. Two graphs with equal
    /// fingerprints have identical CSR arrays and name tables — the backward
    /// CSR is a function of the forward one, so it needs no separate hashing.
    /// Used by the segmented-store differential tests to assert bit-for-bit
    /// reconstruction.
    pub fn fingerprint(&self) -> u64 {
        use simrankpp_util::{bytes_of, fnv1a_seeded};
        let mut h = fnv1a_seeded(
            simrankpp_util::fnv1a(&[]),
            &(self.n_queries() as u64).to_ne_bytes(),
        );
        h = fnv1a_seeded(h, &(self.n_ads() as u64).to_ne_bytes());
        h = fnv1a_seeded(h, bytes_of(&self.q_offsets));
        for &a in &self.q_nbrs {
            h = fnv1a_seeded(h, &a.0.to_ne_bytes());
        }
        for e in &self.q_edges {
            h = fnv1a_seeded(h, &e.impressions.to_ne_bytes());
            h = fnv1a_seeded(h, &e.clicks.to_ne_bytes());
            h = fnv1a_seeded(h, &e.expected_click_rate.to_bits().to_ne_bytes());
        }
        for interner in [&self.query_names, &self.ad_names] {
            match interner {
                None => h = fnv1a_seeded(h, &[0]),
                Some(i) => {
                    h = fnv1a_seeded(h, &[1]);
                    for (_, name) in i.iter() {
                        h = fnv1a_seeded(h, &(name.len() as u64).to_ne_bytes());
                        h = fnv1a_seeded(h, name.as_bytes());
                    }
                }
            }
        }
        h
    }

    /// Checks structural invariants; used by tests and after deserialization.
    ///
    /// Verified: offset monotonicity, neighbor sortedness + in-range ids,
    /// forward/backward edge-count agreement, clicks ≤ impressions, and that
    /// each direction is the exact transpose of the other.
    pub fn validate(&self) -> Result<(), String> {
        if self.q_offsets.is_empty() || self.a_offsets.is_empty() {
            return Err("offset arrays must have at least one entry".into());
        }
        if self.q_nbrs.len() != self.q_edges.len() || self.a_nbrs.len() != self.a_edges.len() {
            return Err("neighbor/edge-data arrays must be parallel".into());
        }
        if self.q_nbrs.len() != self.a_nbrs.len() {
            return Err(format!(
                "forward ({}) and backward ({}) edge counts differ",
                self.q_nbrs.len(),
                self.a_nbrs.len()
            ));
        }
        check_csr(&self.q_offsets, &self.q_nbrs, self.n_ads(), "query")?;
        check_csr_q(&self.a_offsets, &self.a_nbrs, self.n_queries(), "ad")?;
        for (q, a, e) in self.edges() {
            if e.clicks > e.impressions {
                return Err(format!("edge ({q},{a}): clicks exceed impressions"));
            }
            let (back, back_edges) = self.queries_of(a);
            match back.binary_search(&q) {
                Ok(i) => {
                    if back_edges[i] != *e {
                        return Err(format!("edge ({q},{a}): forward/backward data mismatch"));
                    }
                }
                Err(_) => return Err(format!("edge ({q},{a}) missing from transpose")),
            }
        }
        Ok(())
    }
}

fn check_csr(offsets: &[u32], nbrs: &[AdId], n_other: usize, side: &str) -> Result<(), String> {
    if *offsets.last().unwrap() as usize != nbrs.len() {
        return Err(format!("{side}: last offset != neighbor count"));
    }
    for w in offsets.windows(2) {
        if w[0] > w[1] {
            return Err(format!("{side}: offsets not monotone"));
        }
        let row = &nbrs[w[0] as usize..w[1] as usize];
        for pair in row.windows(2) {
            if pair[0] >= pair[1] {
                return Err(format!("{side}: neighbors not strictly sorted"));
            }
        }
        if let Some(last) = row.last() {
            if last.index() >= n_other {
                return Err(format!("{side}: neighbor id out of range"));
            }
        }
    }
    Ok(())
}

fn check_csr_q(
    offsets: &[u32],
    nbrs: &[QueryId],
    n_other: usize,
    side: &str,
) -> Result<(), String> {
    if *offsets.last().unwrap() as usize != nbrs.len() {
        return Err(format!("{side}: last offset != neighbor count"));
    }
    for w in offsets.windows(2) {
        if w[0] > w[1] {
            return Err(format!("{side}: offsets not monotone"));
        }
        let row = &nbrs[w[0] as usize..w[1] as usize];
        for pair in row.windows(2) {
            if pair[0] >= pair[1] {
                return Err(format!("{side}: neighbors not strictly sorted"));
            }
        }
        if let Some(last) = row.last() {
            if last.index() >= n_other {
                return Err(format!("{side}: neighbor id out of range"));
            }
        }
    }
    Ok(())
}

fn sorted_intersection_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

struct SortedPairMerge<'g> {
    left: &'g [AdId],
    left_data: &'g [EdgeData],
    right: &'g [AdId],
    right_data: &'g [EdgeData],
    i: usize,
    j: usize,
}

impl<'g> Iterator for SortedPairMerge<'g> {
    type Item = (AdId, &'g EdgeData, &'g EdgeData);

    fn next(&mut self) -> Option<Self::Item> {
        while self.i < self.left.len() && self.j < self.right.len() {
            match self.left[self.i].cmp(&self.right[self.j]) {
                std::cmp::Ordering::Less => self.i += 1,
                std::cmp::Ordering::Greater => self.j += 1,
                std::cmp::Ordering::Equal => {
                    let out = (
                        self.left[self.i],
                        &self.left_data[self.i],
                        &self.right_data[self.j],
                    );
                    self.i += 1;
                    self.j += 1;
                    return Some(out);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ClickGraphBuilder;
    use crate::edge::{EdgeData, WeightKind};
    use crate::ids::{AdId, QueryId};

    fn small() -> crate::ClickGraph {
        let mut b = ClickGraphBuilder::new();
        b.add_named("pc", "hp.com", EdgeData::from_clicks(1));
        b.add_named("camera", "hp.com", EdgeData::from_clicks(2));
        b.add_named("camera", "bestbuy.com", EdgeData::from_clicks(3));
        b.build()
    }

    #[test]
    fn counts() {
        let g = small();
        assert_eq!(g.n_queries(), 2);
        assert_eq!(g.n_ads(), 2);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.n_nodes(), 4);
    }

    #[test]
    fn adjacency_both_directions() {
        let g = small();
        let pc = g.query_by_name("pc").unwrap();
        let camera = g.query_by_name("camera").unwrap();
        let hp = g.ad_by_name("hp.com").unwrap();
        assert_eq!(g.query_degree(pc), 1);
        assert_eq!(g.query_degree(camera), 2);
        assert_eq!(g.ad_degree(hp), 2);
        let (qs, _) = g.queries_of(hp);
        assert_eq!(qs, &[pc, camera]);
    }

    #[test]
    fn edge_lookup() {
        let g = small();
        let camera = g.query_by_name("camera").unwrap();
        let bb = g.ad_by_name("bestbuy.com").unwrap();
        assert_eq!(g.edge(camera, bb).unwrap().clicks, 3);
        let pc = g.query_by_name("pc").unwrap();
        assert!(!g.has_edge(pc, bb));
    }

    #[test]
    fn common_ads_merge() {
        let g = small();
        let pc = g.query_by_name("pc").unwrap();
        let camera = g.query_by_name("camera").unwrap();
        assert_eq!(g.common_ads(pc, camera), 1);
        let common: Vec<_> = g.common_ads_iter(pc, camera).collect();
        assert_eq!(common.len(), 1);
        assert_eq!(common[0].1.clicks, 1);
        assert_eq!(common[0].2.clicks, 2);
    }

    #[test]
    fn weight_sums() {
        let g = small();
        let camera = g.query_by_name("camera").unwrap();
        assert_eq!(g.query_weight_sum(camera, WeightKind::Clicks), 5.0);
        let hp = g.ad_by_name("hp.com").unwrap();
        assert_eq!(g.ad_weight_sum(hp, WeightKind::Clicks), 3.0);
    }

    #[test]
    fn edges_iterator_covers_everything() {
        let g = small();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        let total_clicks: u64 = edges.iter().map(|(_, _, e)| e.clicks).sum();
        assert_eq!(total_clicks, 6);
    }

    #[test]
    fn validate_accepts_well_formed() {
        small().validate().unwrap();
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = ClickGraphBuilder::new().build();
        assert_eq!(g.n_queries(), 0);
        assert_eq!(g.n_ads(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn ids_out_of_order_input_still_sorted() {
        let mut b = ClickGraphBuilder::new();
        b.add_edge(QueryId(0), AdId(3), EdgeData::from_clicks(1));
        b.add_edge(QueryId(0), AdId(1), EdgeData::from_clicks(1));
        b.add_edge(QueryId(0), AdId(2), EdgeData::from_clicks(1));
        let g = b.build();
        let (nbrs, _) = g.ads_of(QueryId(0));
        assert_eq!(nbrs, &[AdId(1), AdId(2), AdId(3)]);
        g.validate().unwrap();
    }
}
