//! Component blocks: groups of whole connected components, each carved out
//! of the click graph as its own induced subgraph.
//!
//! One [`Block`] type serves every place the workspace scores
//! block-diagonally: the segmented store's segments ([`crate::segments`]),
//! the dirty blocks an incremental refresh recomputes ([`dirty_blocks`]),
//! and the per-block runs of the serving layer's row build and the live
//! engine's precompute, which run on the engine's one dirty-block schedule.

use crate::delta::DirtyComponents;
use crate::graph::ClickGraph;
use crate::ids::NodeRef;
use crate::subgraph::induced_subgraph;

/// One independent score block: the induced subgraph of a group of whole
/// connected components, plus its local → global id maps
/// (`queries[local] == global`, likewise for ads), both monotone.
///
/// §9.2 observes the click graph "consists of one huge connected component
/// and several smaller subgraphs". SimRank similarity (uniform *and*
/// weighted, §4/§8.2) propagates exclusively along edges, so two nodes in
/// different connected components have score exactly 0 at every iteration —
/// the only nonzero base-case entries are the diagonal `s(x,x) = 1`, and a
/// propagation step only mixes scores of nodes with a common neighbor.
/// Consequently the score matrix is block-diagonal over components, and a
/// run over a block reproduces that block of the whole-graph run without
/// changing a single value:
///
/// 1. every per-edge transition factor used by either walk is local — the
///    uniform factor `1/N(q)` depends only on `q`'s degree, the weighted
///    factor `spread(i)·normalized_weight(q,i)` only on the weights of edges
///    incident to `q` and `i` — and an induced component subgraph preserves
///    *all* edges incident to its members;
/// 2. a propagation step for pair `(a, b)` reads only pairs of neighbors of
///    `a` and `b`, which lie in the same component;
/// 3. the maps are monotone (local ids are assigned in ascending global
///    order), so sorted CSR neighbor lists stay in the same relative order,
///    the block-local iteration replays the global one contribution for
///    contribution, and equal-score candidate tie-breaks (which compare ids)
///    come out as in a whole-graph build.
#[derive(Debug, Clone)]
pub struct Block {
    /// The induced subgraph of the block (local, dense ids).
    pub graph: ClickGraph,
    /// Global query id per local query id.
    pub queries: Vec<u32>,
    /// Global ad id per local ad id.
    pub ads: Vec<u32>,
}

impl Block {
    /// The block of `g` induced by `nodes`, which must be whole components
    /// for the block to score exactly. The nodes are ordered queries first,
    /// each side ascending by global id, so the id maps are monotone.
    pub(crate) fn from_nodes(g: &ClickGraph, mut nodes: Vec<NodeRef>) -> Block {
        nodes.sort_unstable_by_key(|n| match n {
            NodeRef::Query(q) => (0u8, q.0),
            NodeRef::Ad(a) => (1u8, a.0),
        });
        let (graph, mapping) = induced_subgraph(g, &nodes);
        Block {
            graph,
            queries: mapping.queries.iter().map(|q| q.0).collect(),
            ads: mapping.ads.iter().map(|a| a.0).collect(),
        }
    }

    /// Whether this block carries display names (both sides, matching
    /// [`induced_subgraph`]'s carry-over rule).
    pub fn has_names(&self) -> bool {
        self.graph.query_interner().is_some() && self.graph.ad_interner().is_some()
    }
}

/// The incremental-update decomposition: one block per **dirty** component
/// of the updated graph (see [`crate::delta::GraphDelta::dirty_components`])
/// that can hold a same-side pair (≥ 2 queries or ≥ 2 ads), largest first
/// (by node count) so a greedy scheduler starts the long poles early. Clean
/// components get no block — their rows are reused from the previous
/// generation — and neither do trivial ones, which cannot contribute an
/// off-diagonal score.
pub fn dirty_blocks(g: &ClickGraph, dirty: &DirtyComponents) -> Vec<Block> {
    let groups = dirty
        .components
        .group_members(|id, (q, a)| dirty.is_dirty(id) && (q >= 2 || a >= 2));
    let mut blocks: Vec<Block> = groups
        .into_iter()
        .filter(|nodes| !nodes.is_empty())
        .map(|nodes| Block::from_nodes(g, nodes))
        .collect();
    blocks.sort_by_key(|b| std::cmp::Reverse(b.graph.n_nodes()));
    blocks
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
    use crate::segments::component_segments;

    /// Every component with an edge marked dirty: the full decomposition.
    fn all_dirty(g: &ClickGraph) -> Vec<Block> {
        dirty_blocks(
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
    fn block_figure3_splits_into_its_two_components_largest_first() {
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
    fn block_dirty_covers_only_dirty_components() {
        // Touch only the big component: the flower component stays clean and
        // gets no block.
        let g = figure3_graph();
        let mut d = GraphDelta::new();
        d.upsert(
            g.query_by_name("camera").unwrap(),
            g.ad_by_name("hp.com").unwrap(),
            EdgeData::from_clicks(1),
        );
        let g2 = d.apply(&g);
        let s = dirty_blocks(&g2, &d.dirty_components(&g2));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].graph.n_queries(), 4);
        // An empty delta leaves nothing to recompute.
        let clean = GraphDelta::new().dirty_components(&g2);
        assert!(dirty_blocks(&g2, &clean).is_empty());
    }

    #[test]
    fn block_component_sizes_total_node_counts() {
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

            let blocks = all_dirty(&g);
            let non_trivial = sizes.iter().filter(|&&(q, a)| q >= 2 || a >= 2).count();
            assert_eq!(blocks.len(), non_trivial);
            assert!(blocks
                .windows(2)
                .all(|w| w[0].graph.n_nodes() >= w[1].graph.n_nodes()));
            let mut seen_q = vec![false; g.n_queries()];
            let mut seen_a = vec![false; g.n_ads()];
            for block in &blocks {
                for &pq in &block.queries {
                    assert!(!std::mem::replace(&mut seen_q[pq as usize], true));
                }
                for &pa in &block.ads {
                    assert!(!std::mem::replace(&mut seen_a[pa as usize], true));
                }
            }
            let edges: usize = blocks.iter().map(|s| s.graph.n_edges()).sum();
            assert_eq!(edges, g.n_edges(), "component blocks keep all edges");
        }
    }

    #[test]
    fn block_remap_round_trip_is_identity() {
        // block-local → global → block-local over every node of every block
        // (the maps are sorted, so a binary search is the reverse map);
        // names and edge data travel with the remap.
        for g in [figure3_graph(), blobs(4, 7)] {
            let blocks = all_dirty(&g);
            assert!(!blocks.is_empty());
            for block in &blocks {
                for q in block.graph.queries() {
                    let parent = block.queries[q.index()];
                    assert_eq!(block.queries.binary_search(&parent), Ok(q.index()));
                    assert_eq!(block.graph.query_name(q), g.query_name(QueryId(parent)));
                }
                for a in block.graph.ads() {
                    let parent = block.ads[a.index()];
                    assert_eq!(block.ads.binary_search(&parent), Ok(a.index()));
                }
                for (q, a, e) in block.graph.edges() {
                    let pq = QueryId(block.queries[q.index()]);
                    let pa = AdId(block.ads[a.index()]);
                    assert_eq!(g.edge(pq, pa), Some(e));
                }
            }
        }
    }

    #[test]
    fn block_remap_is_monotone() {
        // Monotone remaps preserve sorted CSR order — the property the
        // bit-exactness of per-block propagation rests on — whether the
        // blocks are dirty components or the store's component groups.
        let g = blobs(5, 3);
        for block in all_dirty(&g).iter().chain(&component_segments(&g, 9)) {
            assert!(block.queries.windows(2).all(|w| w[0] < w[1]));
            assert!(block.ads.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn block_skips_trivial_components_and_keeps_ad_pairs() {
        // q0-a0 is a 1×1 edge component (no same-side pair) beside isolated
        // q1, q2, a1: nothing to recompute.
        let mut b = ClickGraphBuilder::new();
        b.reserve_queries(3);
        b.reserve_ads(2);
        b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1));
        assert!(all_dirty(&b.build()).is_empty());
        assert!(all_dirty(&ClickGraphBuilder::new().build()).is_empty());

        // One query clicking two ads: no query pair, but an ad pair exists,
        // so the component must become a block.
        let mut b = ClickGraphBuilder::new();
        b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1));
        b.add_edge(QueryId(0), AdId(1), EdgeData::from_clicks(1));
        let s = all_dirty(&b.build());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].graph.n_ads(), 2);
    }
}
