//! Component blocks: carving the click graph into independent score blocks.
//!
//! §9.2 observes the click graph "consists of one huge connected component
//! and several smaller subgraphs". SimRank similarity (uniform *and*
//! weighted, §4/§8.2) propagates exclusively along edges, so two nodes in
//! different connected components have score exactly 0 at every iteration —
//! the only nonzero base-case entries are the diagonal `s(x,x) = 1`, and a
//! propagation step only mixes scores of nodes with a common neighbor.
//! Consequently the score matrix is block-diagonal over components, and a
//! run over one component's induced subgraph reproduces that component's
//! block of the whole-graph run without changing a single value. A [`Shard`]
//! is one such block — induced subgraph plus old↔new id remap — and
//! [`Shard::from_dirty`] carves the blocks an incremental index refresh
//! recomputes (`simrankpp_serve`'s `rebuild_incremental`; the segmented
//! store in [`crate::segments`] groups whole components the same way). The
//! engine itself runs monolithic: decomposition lives in the index build.
//!
//! Why decomposition is *exact* for SimRank, in detail:
//!
//! 1. every per-edge transition factor used by either walk is local — the
//!    uniform factor `1/N(q)` depends only on `q`'s degree, the weighted
//!    factor `spread(i)·normalized_weight(q,i)` only on the weights of edges
//!    incident to `q` and `i` — and an induced component subgraph preserves
//!    *all* edges incident to its members;
//! 2. a propagation step for pair `(a, b)` reads only pairs of neighbors of
//!    `a` and `b`, which lie in the same component;
//! 3. the remap is monotone (ids are assigned in ascending parent order), so
//!    sorted CSR neighbor lists stay in the same relative order and the
//!    block-local iteration replays the global one contribution for
//!    contribution.

use crate::delta::DirtyComponents;
use crate::graph::ClickGraph;
use crate::subgraph::{induced_subgraph, SubgraphMapping};

/// One independent score block: an induced subgraph plus its id remap.
#[derive(Debug)]
pub struct Shard {
    /// The induced subgraph with re-densified ids.
    pub graph: ClickGraph,
    /// Parent↔shard id correspondence (monotone on each side).
    pub mapping: SubgraphMapping,
}

impl Shard {
    /// The incremental-update decomposition: one shard per **dirty**
    /// component of the updated graph (see
    /// [`crate::delta::GraphDelta::dirty_components`]) that can hold a
    /// same-side pair (≥ 2 queries or ≥ 2 ads), largest first (by node
    /// count) so a greedy scheduler starts the long poles early. Clean
    /// components get no shard — their rows are reused from the previous
    /// generation — and neither do trivial ones, which cannot contribute an
    /// off-diagonal score.
    pub fn from_dirty(g: &ClickGraph, dirty: &DirtyComponents) -> Vec<Shard> {
        let groups = dirty
            .components
            .group_members(|id, (q, a)| dirty.is_dirty(id) && (q >= 2 || a >= 2));
        let mut shards: Vec<Shard> = groups
            .iter()
            .filter(|nodes| !nodes.is_empty())
            .map(|nodes| {
                let (graph, mapping) = induced_subgraph(g, nodes);
                Shard { graph, mapping }
            })
            .collect();
        shards.sort_by_key(|s| std::cmp::Reverse(s.graph.n_nodes()));
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClickGraphBuilder;
    use crate::components::connected_components;
    use crate::delta::{dirty_for_endpoints, GraphDelta};
    use crate::edge::EdgeData;
    use crate::fixtures::figure3_graph;
    use crate::ids::{AdId, QueryId};

    /// Every component with an edge marked dirty: the full decomposition.
    fn all_dirty(g: &ClickGraph) -> Vec<Shard> {
        Shard::from_dirty(
            g,
            &dirty_for_endpoints(g, g.edges().map(|(q, a, _)| (q, a))),
        )
    }

    /// Seeded multi-component graph: `blocks` disjoint bipartite blobs of
    /// different sizes, interleaved ids, plus isolated nodes.
    fn blobs(blocks: u32, seed: u64) -> ClickGraph {
        let mut b = ClickGraphBuilder::new();
        let mut x = seed | 1;
        for blk in 0..blocks {
            for _ in 0..(10 + 6 * blk) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let q = blk + blocks * ((x >> 33) % (4 + blk as u64)) as u32;
                let a = blk + blocks * ((x >> 13) % (3 + blk as u64)) as u32;
                b.add_edge(QueryId(q), AdId(a), EdgeData::from_clicks(1 + x % 4));
            }
        }
        b.reserve_queries(blocks * (4 + blocks) + 2);
        b.reserve_ads(blocks * (3 + blocks) + 1);
        b.build()
    }

    #[test]
    fn figure3_splits_into_its_two_components_largest_first() {
        let g = figure3_graph();
        let s = all_dirty(&g);
        assert_eq!(s.len(), 2);
        // Largest-first: {pc, camera, digital camera, tv} × {hp, bestbuy}.
        assert_eq!(s[0].graph.n_queries(), 4);
        assert_eq!(s[0].graph.n_ads(), 2);
        assert_eq!(s[1].graph.n_queries(), 1);
        assert_eq!(s[1].graph.n_ads(), 2);
    }

    #[test]
    fn from_dirty_shards_only_dirty_components() {
        // Touch only the big component: the flower component stays clean and
        // gets no shard.
        let g = figure3_graph();
        let mut d = GraphDelta::new();
        d.upsert(
            g.query_by_name("camera").unwrap(),
            g.ad_by_name("hp.com").unwrap(),
            EdgeData::from_clicks(1),
        );
        let g2 = d.apply(&g);
        let s = Shard::from_dirty(&g2, &d.dirty_components(&g2));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].graph.n_queries(), 4);
        // An empty delta shards nothing.
        let clean = GraphDelta::new().dirty_components(&g2);
        assert!(Shard::from_dirty(&g2, &clean).is_empty());
    }

    #[test]
    fn sharding_component_sizes_total_node_counts() {
        // The labeling partitions the nodes, and the all-dirty decomposition
        // is exactly its non-trivial components: disjoint, largest first,
        // every edge kept.
        for seed in [1u64, 7, 42, 0xC0FFEE] {
            let g = blobs(2 + (seed % 4) as u32, seed);
            let c = connected_components(&g);
            let sizes = c.sizes();
            assert_eq!(sizes.len(), c.count);
            assert_eq!(sizes.iter().map(|s| s.0).sum::<usize>(), g.n_queries());
            assert_eq!(sizes.iter().map(|s| s.1).sum::<usize>(), g.n_ads());

            let shards = all_dirty(&g);
            let non_trivial = sizes.iter().filter(|&&(q, a)| q >= 2 || a >= 2).count();
            assert_eq!(shards.len(), non_trivial);
            assert!(shards
                .windows(2)
                .all(|w| w[0].graph.n_nodes() >= w[1].graph.n_nodes()));
            let mut seen_q = vec![false; g.n_queries()];
            let mut seen_a = vec![false; g.n_ads()];
            for shard in &shards {
                for &pq in &shard.mapping.queries {
                    assert!(!std::mem::replace(&mut seen_q[pq.index()], true));
                }
                for &pa in &shard.mapping.ads {
                    assert!(!std::mem::replace(&mut seen_a[pa.index()], true));
                }
            }
            let edges: usize = shards.iter().map(|s| s.graph.n_edges()).sum();
            assert_eq!(edges, g.n_edges(), "component shards keep all edges");
        }
    }

    #[test]
    fn sharding_remap_round_trip_is_identity() {
        // shard-local → global → shard-local over every node of every shard;
        // names and edge data travel with the remap.
        for g in [figure3_graph(), blobs(4, 7)] {
            let shards = all_dirty(&g);
            assert!(!shards.is_empty());
            for shard in &shards {
                for q in shard.graph.queries() {
                    let parent = shard.mapping.to_parent_query(q);
                    assert_eq!(shard.mapping.to_sub_query(parent), Some(q));
                    assert_eq!(shard.graph.query_name(q), g.query_name(parent));
                }
                for a in shard.graph.ads() {
                    let parent = shard.mapping.to_parent_ad(a);
                    assert_eq!(shard.mapping.to_sub_ad(parent), Some(a));
                }
                for (q, a, e) in shard.graph.edges() {
                    let pq = shard.mapping.to_parent_query(q);
                    let pa = shard.mapping.to_parent_ad(a);
                    assert_eq!(g.edge(pq, pa), Some(e));
                }
            }
        }
    }

    #[test]
    fn remap_is_monotone_per_shard() {
        // Monotone remaps preserve sorted CSR order — the property the
        // bit-exactness of per-block propagation rests on.
        for shard in all_dirty(&blobs(5, 3)) {
            assert!(shard.mapping.queries.windows(2).all(|w| w[0] < w[1]));
            assert!(shard.mapping.ads.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn trivial_components_are_skipped_and_ad_pairs_kept() {
        // q0-a0 is a 1×1 edge component (no same-side pair) beside isolated
        // q1, q2, a1: nothing to shard.
        let mut b = ClickGraphBuilder::new();
        b.reserve_queries(3);
        b.reserve_ads(2);
        b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1));
        assert!(all_dirty(&b.build()).is_empty());
        assert!(all_dirty(&ClickGraphBuilder::new().build()).is_empty());

        // One query clicking two ads: no query pair, but an ad pair exists,
        // so the component must become a shard.
        let mut b = ClickGraphBuilder::new();
        b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1));
        b.add_edge(QueryId(0), AdId(1), EdgeData::from_clicks(1));
        let s = all_dirty(&b.build());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].graph.n_ads(), 2);
    }
}
