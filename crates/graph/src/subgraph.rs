//! Induced subgraph extraction with id remapping.
//!
//! The evaluation dataset (§9.2 / Table 5) is five subgraphs carved out of
//! the giant component by local partitioning. After carving, node ids are
//! re-densified; [`SubgraphMapping`] remembers the correspondence back to the
//! parent graph so evaluation queries can be located in the subgraphs.

use crate::builder::ClickGraphBuilder;
use crate::graph::ClickGraph;
use crate::ids::{AdId, NodeRef, QueryId};
use simrankpp_util::FxHashMap;

/// Id correspondence between a parent graph and an extracted subgraph.
#[derive(Debug, Clone, Default)]
pub struct SubgraphMapping {
    /// Parent query id per subgraph query id (indexed by the new id).
    pub queries: Vec<QueryId>,
    /// Parent ad id per subgraph ad id.
    pub ads: Vec<AdId>,
    query_rev: FxHashMap<u32, u32>,
    ad_rev: FxHashMap<u32, u32>,
}

impl SubgraphMapping {
    /// The parent id of subgraph query `q`.
    pub fn to_parent_query(&self, q: QueryId) -> QueryId {
        self.queries[q.index()]
    }

    /// The parent id of subgraph ad `a`.
    pub fn to_parent_ad(&self, a: AdId) -> AdId {
        self.ads[a.index()]
    }

    /// The subgraph id of parent query `q`, if included.
    pub fn to_sub_query(&self, q: QueryId) -> Option<QueryId> {
        self.query_rev.get(&q.0).copied().map(QueryId)
    }
}

/// Extracts the subgraph induced by `nodes`: every edge of `g` whose both
/// endpoints are in the set survives. Display names carry over when present.
pub fn induced_subgraph(g: &ClickGraph, nodes: &[NodeRef]) -> (ClickGraph, SubgraphMapping) {
    let mut mapping = SubgraphMapping::default();
    for &node in nodes {
        match node {
            NodeRef::Query(q) => {
                if !mapping.query_rev.contains_key(&q.0) {
                    let new_id = mapping.queries.len() as u32;
                    mapping.query_rev.insert(q.0, new_id);
                    mapping.queries.push(q);
                }
            }
            NodeRef::Ad(a) => {
                if !mapping.ad_rev.contains_key(&a.0) {
                    let new_id = mapping.ads.len() as u32;
                    mapping.ad_rev.insert(a.0, new_id);
                    mapping.ads.push(a);
                }
            }
        }
    }

    let mut b = ClickGraphBuilder::new();
    let has_names = g.query_interner().is_some() && g.ad_interner().is_some();
    if has_names {
        // Pre-intern in new-id order so names line up with remapped ids.
        for &pq in &mapping.queries {
            b.intern_query(g.query_name(pq).unwrap_or(""));
        }
        for &pa in &mapping.ads {
            b.intern_ad(g.ad_name(pa).unwrap_or(""));
        }
    } else {
        b.reserve_queries(mapping.queries.len() as u32);
        b.reserve_ads(mapping.ads.len() as u32);
    }

    for (new_q, &parent_q) in mapping.queries.iter().enumerate() {
        let (ads, edges) = g.ads_of(parent_q);
        for (&pa, e) in ads.iter().zip(edges) {
            if let Some(&new_a) = mapping.ad_rev.get(&pa.0) {
                b.add_edge(QueryId(new_q as u32), AdId(new_a), *e);
            }
        }
    }

    let sub = b.build();
    debug_assert!(sub.validate().is_ok());
    (sub, mapping)
}

/// Returns a copy of `g` with the listed `(query, ad)` edges removed
/// (node set and names unchanged). Used by the §9.3 desirability experiment,
/// which deletes the direct-evidence edges between a query and its
/// candidates' ads.
pub fn remove_edges(g: &ClickGraph, remove: &[(QueryId, AdId)]) -> ClickGraph {
    let removed: FxHashMap<(u32, u32), ()> =
        remove.iter().map(|&(q, a)| ((q.0, a.0), ())).collect();
    let mut b = ClickGraphBuilder::new();
    if g.query_interner().is_some() && g.ad_interner().is_some() {
        for q in g.queries() {
            b.intern_query(g.query_name(q).unwrap_or(""));
        }
        for a in g.ads() {
            b.intern_ad(g.ad_name(a).unwrap_or(""));
        }
    } else {
        b.reserve_queries(g.n_queries() as u32);
        b.reserve_ads(g.n_ads() as u32);
    }
    for (q, a, e) in g.edges() {
        if !removed.contains_key(&(q.0, a.0)) {
            b.add_edge(q, a, *e);
        }
    }
    let out = b.build();
    debug_assert!(out.validate().is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure3_graph;

    #[test]
    fn extract_camera_cluster() {
        let g = figure3_graph();
        let nodes = vec![
            NodeRef::Query(g.query_by_name("camera").unwrap()),
            NodeRef::Query(g.query_by_name("digital camera").unwrap()),
            NodeRef::Ad(g.ad_by_name("hp.com").unwrap()),
            NodeRef::Ad(g.ad_by_name("bestbuy.com").unwrap()),
        ];
        let (sub, mapping) = induced_subgraph(&g, &nodes);
        assert_eq!(sub.n_queries(), 2);
        assert_eq!(sub.n_ads(), 2);
        assert_eq!(sub.n_edges(), 4); // K2,2
                                      // Names carried over.
        assert!(sub.query_by_name("camera").is_some());
        // Mapping round-trips.
        let cam_sub = sub.query_by_name("camera").unwrap();
        let cam_parent = mapping.to_parent_query(cam_sub);
        assert_eq!(g.query_name(cam_parent), Some("camera"));
        assert_eq!(mapping.to_sub_query(cam_parent), Some(cam_sub));
    }

    #[test]
    fn edges_to_outside_are_dropped() {
        let g = figure3_graph();
        // pc + hp.com only: camera's edges to hp must not survive.
        let nodes = vec![
            NodeRef::Query(g.query_by_name("pc").unwrap()),
            NodeRef::Ad(g.ad_by_name("hp.com").unwrap()),
        ];
        let (sub, _) = induced_subgraph(&g, &nodes);
        assert_eq!(sub.n_edges(), 1);
        assert_eq!(sub.n_queries(), 1);
        assert_eq!(sub.n_ads(), 1);
    }

    #[test]
    fn empty_node_set() {
        let g = figure3_graph();
        let (sub, mapping) = induced_subgraph(&g, &[]);
        assert_eq!(sub.n_edges(), 0);
        assert!(mapping.queries.is_empty());
    }

    #[test]
    fn duplicate_nodes_deduplicated() {
        let g = figure3_graph();
        let pc = NodeRef::Query(g.query_by_name("pc").unwrap());
        let (sub, mapping) = induced_subgraph(&g, &[pc, pc]);
        assert_eq!(sub.n_queries(), 1);
        assert_eq!(mapping.queries.len(), 1);
    }

    #[test]
    fn remove_edges_drops_only_listed() {
        let g = figure3_graph();
        let camera = g.query_by_name("camera").unwrap();
        let hp = g.ad_by_name("hp.com").unwrap();
        let g2 = remove_edges(&g, &[(camera, hp)]);
        assert_eq!(g2.n_edges(), g.n_edges() - 1);
        assert_eq!(g2.n_queries(), g.n_queries());
        let camera2 = g2.query_by_name("camera").unwrap();
        let hp2 = g2.ad_by_name("hp.com").unwrap();
        assert!(!g2.has_edge(camera2, hp2));
        // Everything else intact.
        let bb2 = g2.ad_by_name("bestbuy.com").unwrap();
        assert!(g2.has_edge(camera2, bb2));
    }

    #[test]
    fn remove_edges_empty_list_is_identity() {
        let g = figure3_graph();
        let g2 = remove_edges(&g, &[]);
        assert_eq!(g2.n_edges(), g.n_edges());
    }

    #[test]
    fn unmapped_parent_returns_none() {
        let g = figure3_graph();
        let pc = NodeRef::Query(g.query_by_name("pc").unwrap());
        let (_, mapping) = induced_subgraph(&g, &[pc]);
        let tv = g.query_by_name("tv").unwrap();
        assert!(mapping.to_sub_query(tv).is_none());
    }
}
