//! Connected components of the bipartite click graph.
//!
//! §9.2: the Yahoo! click graph "consists of one huge connected component and
//! several smaller subgraphs". The partition crate carves the giant component
//! further; this module finds the components in the first place (BFS over the
//! union of both sides).

use crate::graph::ClickGraph;
use crate::ids::{AdId, NodeRef, QueryId};
use std::collections::VecDeque;

/// Component labeling of all nodes.
#[derive(Debug, Clone)]
pub struct Components {
    /// Component id per query node.
    pub query_label: Vec<u32>,
    /// Component id per ad node.
    pub ad_label: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Component id of `node`.
    pub fn label(&self, node: NodeRef) -> u32 {
        match node {
            NodeRef::Query(q) => self.query_label[q.index()],
            NodeRef::Ad(a) => self.ad_label[a.index()],
        }
    }

    /// Sizes (query count, ad count) per component id.
    pub fn sizes(&self) -> Vec<(usize, usize)> {
        let mut sizes = vec![(0usize, 0usize); self.count];
        for &l in &self.query_label {
            sizes[l as usize].0 += 1;
        }
        for &l in &self.ad_label {
            sizes[l as usize].1 += 1;
        }
        sizes
    }

    /// The id of the component with the most nodes (queries + ads);
    /// `None` on an empty graph.
    pub fn largest(&self) -> Option<u32> {
        self.sizes()
            .iter()
            .enumerate()
            .max_by_key(|(_, &(q, a))| q + a)
            .map(|(i, _)| i as u32)
    }

    /// Buckets nodes by component label in one pass: entry `id` lists the
    /// members of component `id`, queries then ads, each side ascending by
    /// id (the monotone order [`crate::subgraph::induced_subgraph`] needs to
    /// keep CSR neighbor lists in the parent's relative order). `keep`
    /// sees each component's id and `(query, ad)` counts; components it
    /// rejects get an empty, unallocated list.
    pub fn group_members(&self, keep: impl Fn(u32, (usize, usize)) -> bool) -> Vec<Vec<NodeRef>> {
        let mut groups: Vec<Option<Vec<NodeRef>>> = self
            .sizes()
            .into_iter()
            .enumerate()
            .map(|(id, (q, a))| keep(id as u32, (q, a)).then(|| Vec::with_capacity(q + a)))
            .collect();
        for (i, &l) in self.query_label.iter().enumerate() {
            if let Some(group) = &mut groups[l as usize] {
                group.push(NodeRef::Query(QueryId(i as u32)));
            }
        }
        for (i, &l) in self.ad_label.iter().enumerate() {
            if let Some(group) = &mut groups[l as usize] {
                group.push(NodeRef::Ad(AdId(i as u32)));
            }
        }
        groups.into_iter().map(Option::unwrap_or_default).collect()
    }

    /// The member nodes of component `id`.
    pub fn members(&self, id: u32) -> Vec<NodeRef> {
        let mut out = Vec::new();
        for (i, &l) in self.query_label.iter().enumerate() {
            if l == id {
                out.push(NodeRef::Query(QueryId(i as u32)));
            }
        }
        for (i, &l) in self.ad_label.iter().enumerate() {
            if l == id {
                out.push(NodeRef::Ad(AdId(i as u32)));
            }
        }
        out
    }
}

/// Labels every node with its connected component (BFS; isolated nodes each
/// form their own component).
pub fn connected_components(g: &ClickGraph) -> Components {
    const UNSET: u32 = u32::MAX;
    let mut query_label = vec![UNSET; g.n_queries()];
    let mut ad_label = vec![UNSET; g.n_ads()];
    let mut count = 0u32;
    let mut queue: VecDeque<NodeRef> = VecDeque::new();

    let start_from = |seed: NodeRef,
                      query_label: &mut Vec<u32>,
                      ad_label: &mut Vec<u32>,
                      count: &mut u32,
                      queue: &mut VecDeque<NodeRef>| {
        let label = *count;
        *count += 1;
        match seed {
            NodeRef::Query(q) => query_label[q.index()] = label,
            NodeRef::Ad(a) => ad_label[a.index()] = label,
        }
        queue.push_back(seed);
        while let Some(node) = queue.pop_front() {
            match node {
                NodeRef::Query(q) => {
                    let (ads, _) = g.ads_of(q);
                    for &a in ads {
                        if ad_label[a.index()] == UNSET {
                            ad_label[a.index()] = label;
                            queue.push_back(NodeRef::Ad(a));
                        }
                    }
                }
                NodeRef::Ad(a) => {
                    let (qs, _) = g.queries_of(a);
                    for &q in qs {
                        if query_label[q.index()] == UNSET {
                            query_label[q.index()] = label;
                            queue.push_back(NodeRef::Query(q));
                        }
                    }
                }
            }
        }
    };

    for qi in 0..g.n_queries() {
        if query_label[qi] == UNSET {
            start_from(
                NodeRef::Query(QueryId(qi as u32)),
                &mut query_label,
                &mut ad_label,
                &mut count,
                &mut queue,
            );
        }
    }
    for ai in 0..g.n_ads() {
        if ad_label[ai] == UNSET {
            start_from(
                NodeRef::Ad(AdId(ai as u32)),
                &mut query_label,
                &mut ad_label,
                &mut count,
                &mut queue,
            );
        }
    }

    Components {
        query_label,
        ad_label,
        count: count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClickGraphBuilder;
    use crate::edge::EdgeData;
    use crate::fixtures::figure3_graph;

    #[test]
    fn figure3_has_two_components() {
        // {pc, camera, digital camera, tv} × {hp, bestbuy} plus
        // {flower} × {teleflora, orchids}.
        let g = figure3_graph();
        let c = connected_components(&g);
        assert_eq!(c.count, 2);
        let flower = g.query_by_name("flower").unwrap();
        let pc = g.query_by_name("pc").unwrap();
        let tv = g.query_by_name("tv").unwrap();
        assert_ne!(c.label(NodeRef::Query(flower)), c.label(NodeRef::Query(pc)));
        assert_eq!(c.label(NodeRef::Query(tv)), c.label(NodeRef::Query(pc)));
    }

    #[test]
    fn sizes_and_largest() {
        let g = figure3_graph();
        let c = connected_components(&g);
        let sizes = c.sizes();
        let total_q: usize = sizes.iter().map(|s| s.0).sum();
        let total_a: usize = sizes.iter().map(|s| s.1).sum();
        assert_eq!(total_q, g.n_queries());
        assert_eq!(total_a, g.n_ads());
        let big = c.largest().unwrap();
        assert_eq!(sizes[big as usize], (4, 2));
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let mut b = ClickGraphBuilder::new();
        b.reserve_queries(3);
        b.reserve_ads(2);
        b.add_edge(
            crate::ids::QueryId(0),
            crate::ids::AdId(0),
            EdgeData::from_clicks(1),
        );
        let g = b.build();
        let c = connected_components(&g);
        // Component 0: q0-a0. Then q1, q2, a1 are singletons.
        assert_eq!(c.count, 4);
    }

    #[test]
    fn members_cover_component() {
        let g = figure3_graph();
        let c = connected_components(&g);
        let flower = g.query_by_name("flower").unwrap();
        let label = c.label(NodeRef::Query(flower));
        let members = c.members(label);
        assert_eq!(members.len(), 3); // flower + 2 ads
    }

    #[test]
    fn group_members_buckets_kept_components_only() {
        let g = figure3_graph();
        let c = connected_components(&g);
        let all = c.group_members(|_, _| true);
        assert_eq!(all.len(), c.count);
        for (id, group) in all.iter().enumerate() {
            assert_eq!(group, &c.members(id as u32));
        }
        let big = c.largest().unwrap();
        let only_big = c.group_members(|_, (q, a)| q + a > 3);
        for (id, group) in only_big.iter().enumerate() {
            assert_eq!(group.is_empty(), id as u32 != big);
        }
    }

    #[test]
    fn empty_graph() {
        let g = ClickGraphBuilder::new().build();
        let c = connected_components(&g);
        assert_eq!(c.count, 0);
        assert!(c.largest().is_none());
    }
}
