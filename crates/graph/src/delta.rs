//! Incremental click-graph updates.
//!
//! The click graph is not static: new (query, ad) clicks arrive continuously
//! while a production rewriter serves traffic. A [`GraphDelta`] is one batch
//! of edge mutations — inserts / weight accumulations ([`DeltaOp::Upsert`],
//! which merges like [`ClickGraphBuilder::add_edge`] does for duplicate
//! edges) and removals ([`DeltaOp::Remove`]) — applied to an immutable
//! [`ClickGraph`] to produce the next graph generation.
//!
//! The payoff is [`GraphDelta::dirty_components`]: SimRank scores are
//! block-diagonal over connected components (see [`crate::sharding`]), and a
//! delta can only change scores inside the components its edge endpoints
//! touch. `dirty_components` labels the **new** graph's components and marks
//! the minimal dirty set:
//!
//! * an **insert** marks the component now containing both endpoints — if
//!   the edge bridged two old components, the *merged* component is one
//!   dirty component and both old blocks are recomputed;
//! * a **removal** marks the component(s) of both (still existing —
//!   removal never deletes nodes) endpoints — if the edge was a bridge, the
//!   component *split* and each half is dirty, which conservatively covers
//!   every score the split could have changed;
//! * a component containing **no** delta endpoint keeps its exact node and
//!   edge set (any edge mutation would have marked its endpoints, and a
//!   merge into it would require an endpoint inside it), so its score block
//!   is provably unchanged and can be reused verbatim.
//!
//! The serving layer (`simrankpp-serve`'s `RewriteIndex::rebuild_incremental`)
//! recomputes only the dirty components and copies every clean query's index
//! row from the previous generation verbatim.
//!
//! Deltas travel as TSV, read by [`read_delta_tsv`]: one op per line,
//! `+ \t query \t ad \t impressions \t clicks \t ecr` for upserts and
//! `- \t query \t ad` for removals, `#` comments and blank lines skipped.
//! Named ops resolve against a named graph via [`apply_named`], interning
//! unseen names as fresh dense ids.
//!
//! Streaming ingestion extends the same wire format with a timestamp: a
//! **click log** ([`read_click_log`] / [`write_click_log`]) is an
//! append-only TSV whose upsert lines carry a leading epoch column
//! (`+ \t epoch \t query \t ad \t impressions \t clicks \t ecr`) and whose
//! `@ \t epoch` marker lines declare every earlier epoch complete. A click
//! log carries no removals — expiry is the reader's job (the sliding window
//! in [`crate::window`] retires whole epochs), which keeps the log
//! append-only and replayable from any offset.

use crate::builder::ClickGraphBuilder;
use crate::components::{connected_components, Components};
use crate::edge::EdgeData;
use crate::graph::ClickGraph;
use crate::ids::{AdId, QueryId};
use crate::io::check_tsv_name;
use std::io::{self, BufRead, BufWriter, Write};

/// One edge mutation, by dense id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// Insert the edge, or accumulate onto it if present
    /// (via [`EdgeData::merge`] — the duplicate-edge semantics of
    /// [`ClickGraphBuilder::add_edge`]). Ids beyond the current node counts
    /// grow the graph.
    Upsert {
        /// Query endpoint.
        query: QueryId,
        /// Ad endpoint.
        ad: AdId,
        /// Observation window to merge onto the edge.
        data: EdgeData,
    },
    /// Remove the edge entirely (a no-op if absent). The endpoints remain
    /// as (possibly isolated) nodes: ids never shift.
    Remove {
        /// Query endpoint.
        query: QueryId,
        /// Ad endpoint.
        ad: AdId,
    },
}

impl DeltaOp {
    /// The op's `(query, ad)` endpoints.
    pub fn endpoints(&self) -> (QueryId, AdId) {
        match *self {
            DeltaOp::Upsert { query, ad, .. } | DeltaOp::Remove { query, ad } => (query, ad),
        }
    }
}

/// An ordered batch of edge mutations against one [`ClickGraph`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    ops: Vec<DeltaOp>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an upsert (insert-or-accumulate) op.
    pub fn upsert(&mut self, query: QueryId, ad: AdId, data: EdgeData) -> &mut Self {
        self.ops.push(DeltaOp::Upsert { query, ad, data });
        self
    }

    /// Appends a removal op.
    pub fn remove(&mut self, query: QueryId, ad: AdId) -> &mut Self {
        self.ops.push(DeltaOp::Remove { query, ad });
        self
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the delta holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the delta to `g`, producing the next graph generation.
    ///
    /// Ops replay in order on a thawed builder ([`ClickGraphBuilder::from_graph`]),
    /// so an upsert after a removal of the same edge re-creates it with only
    /// the upsert's data, and an insert-only delta is equivalent to building
    /// from the concatenation of `g`'s edge list and the delta's edges
    /// (duplicate edges accumulate identically either way). Node ids are
    /// stable: existing ids keep their names and neighbors, new ids extend
    /// the id space.
    pub fn apply(&self, g: &ClickGraph) -> ClickGraph {
        let mut b = ClickGraphBuilder::from_graph(g);
        for op in &self.ops {
            match *op {
                DeltaOp::Upsert { query, ad, data } => b.add_edge(query, ad, data),
                DeltaOp::Remove { query, ad } => {
                    b.remove_edge(query, ad);
                }
            }
        }
        b.build()
    }

    /// Maps the delta to the minimal set of affected components of the
    /// **already-updated** graph (`new_graph` must be `self.apply(old)`).
    ///
    /// A component is dirty iff it contains an endpoint of any op. This is
    /// sound — every score change lies in a dirty component, because scores
    /// only depend on a component's own edges and every mutated edge's
    /// endpoints are marked — and it handles merges (the bridged component
    /// contains both endpoints) and splits (each half contains one endpoint
    /// of the removed edge) by construction. Removal endpoints whose ids
    /// exceed the new graph's dimensions (a removal of a never-seen edge)
    /// are ignored.
    pub fn dirty_components(&self, new_graph: &ClickGraph) -> DirtyComponents {
        dirty_for_endpoints(new_graph, self.ops.iter().map(|op| op.endpoints()))
    }

    /// The edge-level difference `new − old`, as a delta whose
    /// [`GraphDelta::apply`] on `old` reproduces `new`'s exact edge set
    /// (data compared bitwise, so even an ECR recomputed to the same value
    /// through a different fp path counts as a change). Ids are compared
    /// positionally — both graphs must share an id space, as two window
    /// freezes over the same interners do. Nodes that appear in `new`
    /// without any incident edge are not expressible as edge ops and are
    /// ignored; callers that need them (the window keeps every interned
    /// name) already share the node universe.
    ///
    /// This is the oracle for endpoint-tracked dirtiness: the cheap
    /// streaming path marks components from observed/retired event
    /// endpoints, and `diff(old, new).dirty_components(new)` must mark a
    /// subset of them (every changed edge came from some event).
    pub fn diff(old: &ClickGraph, new: &ClickGraph) -> GraphDelta {
        let bit_eq = |a: &EdgeData, b: &EdgeData| {
            a.impressions == b.impressions
                && a.clicks == b.clicks
                && a.expected_click_rate.to_bits() == b.expected_click_rate.to_bits()
        };
        let mut d = GraphDelta::new();
        for (q, a, e) in new.edges() {
            let before = (q.index() < old.n_queries() && a.index() < old.n_ads())
                .then(|| old.edge(q, a))
                .flatten();
            match before {
                Some(prev) if bit_eq(prev, e) => {}
                Some(_) => {
                    // Replace: wipe the accumulated history, then set the
                    // new data verbatim (upsert alone would merge onto it).
                    d.remove(q, a).upsert(q, a, *e);
                }
                None => {
                    d.upsert(q, a, *e);
                }
            }
        }
        for (q, a, _) in old.edges() {
            let gone =
                q.index() >= new.n_queries() || a.index() >= new.n_ads() || !new.has_edge(q, a);
            if gone {
                d.remove(q, a);
            }
        }
        d
    }
}

/// Marks the components of `new_graph` containing any of the given
/// `(query, ad)` endpoints as dirty — the same labeling
/// [`GraphDelta::dirty_components`] computes from a delta's ops, but driven
/// by a raw endpoint stream. The streaming ingest path uses this with the
/// endpoints of events observed since the last refresh plus the endpoints
/// of events the window retired, which covers every edge the epoch
/// boundary could have changed. Endpoints beyond the graph's dimensions
/// are ignored.
pub fn dirty_for_endpoints<I>(new_graph: &ClickGraph, endpoints: I) -> DirtyComponents
where
    I: IntoIterator<Item = (QueryId, AdId)>,
{
    let components = connected_components(new_graph);
    let mut dirty = vec![false; components.count];
    for (q, a) in endpoints {
        if q.index() < new_graph.n_queries() {
            dirty[components.query_label[q.index()] as usize] = true;
        }
        if a.index() < new_graph.n_ads() {
            dirty[components.ad_label[a.index()] as usize] = true;
        }
    }
    let n_dirty = dirty.iter().filter(|&&d| d).count();
    DirtyComponents {
        components,
        dirty,
        n_dirty,
    }
}

/// The dirty/clean component labeling a delta induces on the updated graph.
#[derive(Debug, Clone)]
pub struct DirtyComponents {
    /// Component labeling of the **new** (post-delta) graph.
    pub components: Components,
    dirty: Vec<bool>,
    n_dirty: usize,
}

impl DirtyComponents {
    /// Every component of `g` dirty — isolated nodes included, which no
    /// endpoint stream can name: the analysis of a first build, where there
    /// is no previous generation to copy anything from.
    pub fn all(g: &ClickGraph) -> DirtyComponents {
        let components = connected_components(g);
        DirtyComponents {
            dirty: vec![true; components.count],
            n_dirty: components.count,
            components,
        }
    }

    /// Total number of components in the new graph.
    pub fn n_components(&self) -> usize {
        self.components.count
    }

    /// Number of dirty components.
    pub fn n_dirty(&self) -> usize {
        self.n_dirty
    }

    /// Number of clean (score-block-reusable) components.
    pub fn n_clean(&self) -> usize {
        self.components.count - self.n_dirty
    }

    /// Whether component `id` is dirty.
    #[inline]
    pub fn is_dirty(&self, id: u32) -> bool {
        self.dirty[id as usize]
    }

    /// Whether query `q`'s component is dirty.
    #[inline]
    pub fn query_dirty(&self, q: QueryId) -> bool {
        self.dirty[self.components.query_label[q.index()] as usize]
    }

    /// Whether ad `a`'s component is dirty.
    #[inline]
    pub fn ad_dirty(&self, a: AdId) -> bool {
        self.dirty[self.components.ad_label[a.index()] as usize]
    }

    /// Number of queries living in dirty components.
    pub fn dirty_query_count(&self) -> usize {
        self.components
            .query_label
            .iter()
            .filter(|&&l| self.dirty[l as usize])
            .count()
    }
}

/// One edge mutation by display name — the wire form of a delta TSV line.
#[derive(Debug, Clone, PartialEq)]
pub enum NamedOp {
    /// Insert-or-accumulate, interning unseen names.
    Upsert {
        /// Query display name.
        query: String,
        /// Ad display name.
        ad: String,
        /// Observation window to merge onto the edge.
        data: EdgeData,
    },
    /// Remove the named edge. Both names must already exist in the graph.
    Remove {
        /// Query display name.
        query: String,
        /// Ad display name.
        ad: String,
    },
}

/// Applies a batch of named ops to a **named** graph, returning the next
/// graph generation together with the id-resolved [`GraphDelta`] (for
/// [`GraphDelta::dirty_components`] against the returned graph).
///
/// Upserts intern unseen names as fresh dense ids, in first-appearance
/// order. Removals must reference names the graph (or an earlier upsert in
/// the same batch) knows — a typo'd removal is an error, not a silent no-op.
pub fn apply_named(g: &ClickGraph, ops: &[NamedOp]) -> Result<(ClickGraph, GraphDelta), String> {
    if g.query_interner().is_none() || g.ad_interner().is_none() {
        return Err("named deltas need a graph with display names on both sides".into());
    }
    let mut b = ClickGraphBuilder::from_graph(g);
    let mut delta = GraphDelta::new();
    for op in ops {
        match op {
            NamedOp::Upsert { query, ad, data } => {
                let q = b.intern_query(query);
                let a = b.intern_ad(ad);
                b.add_edge(q, a, *data);
                delta.upsert(q, a, *data);
            }
            NamedOp::Remove { query, ad } => {
                let q = b
                    .query_id(query)
                    .ok_or_else(|| format!("remove references unknown query {query:?}"))?;
                let a = b
                    .ad_id(ad)
                    .ok_or_else(|| format!("remove references unknown ad {ad:?}"))?;
                b.remove_edge(q, a);
                delta.remove(q, a);
            }
        }
    }
    Ok((b.build(), delta))
}

/// Reads a delta TSV: `+ \t query \t ad \t impressions \t clicks \t ecr`
/// per upsert, `- \t query \t ad` per removal; blank lines and `#` comments
/// skipped. The leading op field makes the format self-describing and keeps
/// names free to start with `-`.
pub fn read_delta_tsv<R: BufRead>(input: R) -> io::Result<Vec<NamedOp>> {
    let mut ops = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        let line_no = i + 1;
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split('\t').collect();
        match fields.as_slice() {
            ["+", q, a, impr, clicks, ecr] => {
                let data = EdgeData::parse_tsv_fields(impr, clicks, ecr)
                    .map_err(|e| bad_line(line_no, &e))?;
                ops.push(NamedOp::Upsert {
                    query: (*q).to_owned(),
                    ad: (*a).to_owned(),
                    data,
                });
            }
            ["-", q, a] => ops.push(NamedOp::Remove {
                query: (*q).to_owned(),
                ad: (*a).to_owned(),
            }),
            [op, ..] if *op != "+" && *op != "-" => {
                return Err(bad_line(
                    line_no,
                    &format!("unknown op {op:?} (expected '+' or '-')"),
                ))
            }
            _ => {
                return Err(bad_line(
                    line_no,
                    "wrong field count (upsert: 6 fields, removal: 3)",
                ))
            }
        }
    }
    Ok(ops)
}

fn bad_line(line_no: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("delta TSV line {line_no}: {msg}"),
    )
}

/// One line of an append-only click log — the delta TSV upsert shape with a
/// leading epoch column, plus epoch-advance markers.
#[derive(Debug, Clone, PartialEq)]
pub enum ClickLogRecord {
    /// `+ \t epoch \t query \t ad \t impressions \t clicks \t ecr`: one
    /// observation window to accumulate onto the named edge, stamped with
    /// the epoch it belongs to.
    Event {
        /// Epoch the observation belongs to.
        epoch: u64,
        /// Query display name.
        query: String,
        /// Ad display name.
        ad: String,
        /// Observation window to merge onto the edge.
        data: EdgeData,
    },
    /// `@ \t epoch`: every epoch **before** `epoch` is complete; the writer
    /// has moved on. Readers batching events into epochs treat this as the
    /// signal to retire expired buckets and refresh — without it, a reader
    /// could not distinguish "epoch still filling" from "epoch done but
    /// quiet".
    EpochMark {
        /// The epoch the writer has advanced to.
        epoch: u64,
    },
}

/// Parses one click-log line. Returns `Ok(None)` for blank lines and `#`
/// comments. `line_no` is 1-based, for error messages. Tail-following
/// readers call this per line as the file grows; [`read_click_log`] wraps
/// it for whole files.
pub fn parse_click_log_line(line: &str, line_no: usize) -> io::Result<Option<ClickLogRecord>> {
    let trimmed = line.trim_end_matches(['\n', '\r']);
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let bad = |msg: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("click log line {line_no}: {msg}"),
        )
    };
    let fields: Vec<&str> = trimmed.split('\t').collect();
    match fields.as_slice() {
        ["+", epoch, q, a, impr, clicks, ecr] => {
            let epoch: u64 = epoch
                .parse()
                .map_err(|_| bad(&format!("bad epoch field {epoch:?}")))?;
            let data = EdgeData::parse_tsv_fields(impr, clicks, ecr).map_err(|e| bad(&e))?;
            Ok(Some(ClickLogRecord::Event {
                epoch,
                query: (*q).to_owned(),
                ad: (*a).to_owned(),
                data,
            }))
        }
        ["@", epoch] => {
            let epoch: u64 = epoch
                .parse()
                .map_err(|_| bad(&format!("bad epoch field {epoch:?}")))?;
            Ok(Some(ClickLogRecord::EpochMark { epoch }))
        }
        [op, ..] if *op != "+" && *op != "@" => {
            Err(bad(&format!("unknown op {op:?} (expected '+' or '@')")))
        }
        _ => Err(bad("wrong field count (event: 7 fields, epoch mark: 2)")),
    }
}

/// Reads a whole click log: one [`ClickLogRecord`] per non-blank,
/// non-comment line, in file order.
pub fn read_click_log<R: BufRead>(input: R) -> io::Result<Vec<ClickLogRecord>> {
    let mut records = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if let Some(rec) = parse_click_log_line(&line?, i + 1)? {
            records.push(rec);
        }
    }
    Ok(records)
}

/// Writes click-log records in the [`read_click_log`] format. Names
/// containing a tab or newline are rejected — they would shift every
/// following field.
pub fn write_click_log<W: Write>(records: &[ClickLogRecord], out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    for rec in records {
        match rec {
            ClickLogRecord::Event {
                epoch,
                query,
                ad,
                data,
            } => {
                check_tsv_name("query", query)?;
                check_tsv_name("ad", ad)?;
                writeln!(
                    w,
                    "+\t{epoch}\t{query}\t{ad}\t{}\t{}\t{}",
                    data.impressions, data.clicks, data.expected_click_rate
                )?;
            }
            ClickLogRecord::EpochMark { epoch } => writeln!(w, "@\t{epoch}")?,
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure3_graph;
    use crate::ids::NodeRef;

    fn fig3_delta_merge() -> GraphDelta {
        // Bridge the flower component into the big one.
        let g = figure3_graph();
        let mut d = GraphDelta::new();
        d.upsert(
            g.query_by_name("flower").unwrap(),
            g.ad_by_name("hp.com").unwrap(),
            EdgeData::from_clicks(1),
        );
        d
    }

    #[test]
    fn upsert_accumulates_like_builder() {
        let g = figure3_graph();
        let camera = g.query_by_name("camera").unwrap();
        let hp = g.ad_by_name("hp.com").unwrap();
        let before = *g.edge(camera, hp).unwrap();
        let mut d = GraphDelta::new();
        d.upsert(camera, hp, EdgeData::from_clicks(3));
        let g2 = d.apply(&g);
        let after = g2.edge(camera, hp).unwrap();
        assert_eq!(after.clicks, before.clicks + 3);
        assert_eq!(g2.n_edges(), g.n_edges());
        g2.validate().unwrap();
    }

    #[test]
    fn removal_keeps_nodes_dense() {
        let g = figure3_graph();
        let flower = g.query_by_name("flower").unwrap();
        let tele = g.ad_by_name("teleflora.com").unwrap();
        let orchids = g.ad_by_name("orchids.com").unwrap();
        let mut d = GraphDelta::new();
        d.remove(flower, tele).remove(flower, orchids);
        let g2 = d.apply(&g);
        assert_eq!(g2.n_queries(), g.n_queries());
        assert_eq!(g2.n_ads(), g.n_ads());
        assert_eq!(g2.n_edges(), g.n_edges() - 2);
        assert_eq!(g2.query_degree(flower), 0);
        assert_eq!(g2.query_name(flower), Some("flower"));
        g2.validate().unwrap();
    }

    #[test]
    fn ops_replay_in_order() {
        let g = figure3_graph();
        let camera = g.query_by_name("camera").unwrap();
        let hp = g.ad_by_name("hp.com").unwrap();
        let mut d = GraphDelta::new();
        d.remove(camera, hp)
            .upsert(camera, hp, EdgeData::from_clicks(9));
        let g2 = d.apply(&g);
        // The removal wiped the accumulated history; the upsert starts fresh.
        assert_eq!(g2.edge(camera, hp).unwrap().clicks, 9);
    }

    #[test]
    fn new_ids_grow_the_graph() {
        let g = figure3_graph();
        let mut d = GraphDelta::new();
        let new_q = QueryId(g.n_queries() as u32);
        let new_a = AdId(g.n_ads() as u32);
        d.upsert(new_q, new_a, EdgeData::from_clicks(2));
        let g2 = d.apply(&g);
        assert_eq!(g2.n_queries(), g.n_queries() + 1);
        assert_eq!(g2.n_ads(), g.n_ads() + 1);
        assert!(g2.has_edge(new_q, new_a));
        g2.validate().unwrap();
    }

    #[test]
    fn empty_delta_reproduces_the_graph_exactly() {
        let g = figure3_graph();
        let g2 = GraphDelta::new().apply(&g);
        assert_eq!(g2.n_queries(), g.n_queries());
        assert_eq!(g2.n_ads(), g.n_ads());
        assert_eq!(g2.n_edges(), g.n_edges());
        for (q, a, e) in g.edges() {
            assert_eq!(g2.edge(q, a), Some(e));
            assert_eq!(g2.query_name(q), g.query_name(q));
        }
    }

    #[test]
    fn dirty_components_marks_insert_merge() {
        // Figure 3 has two components; a flower→hp edge merges them into
        // one, which must be the single dirty component.
        let g = figure3_graph();
        let d = fig3_delta_merge();
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);
        assert_eq!(dirty.n_components(), 1);
        assert_eq!(dirty.n_dirty(), 1);
        assert_eq!(dirty.n_clean(), 0);
        assert!(dirty.query_dirty(g.query_by_name("pc").unwrap()));
        assert!(dirty.query_dirty(g.query_by_name("flower").unwrap()));
    }

    #[test]
    fn dirty_components_marks_both_halves_of_a_split() {
        // Removing flower→teleflora splits {flower, teleflora, orchids}:
        // flower+orchids stay joined, teleflora is orphaned. Both resulting
        // components are dirty; the big component is clean.
        let g = figure3_graph();
        let flower = g.query_by_name("flower").unwrap();
        let tele = g.ad_by_name("teleflora.com").unwrap();
        let mut d = GraphDelta::new();
        d.remove(flower, tele);
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);
        assert_eq!(dirty.n_components(), 3);
        assert_eq!(dirty.n_dirty(), 2);
        assert_eq!(dirty.n_clean(), 1);
        assert!(dirty.query_dirty(flower));
        assert!(dirty.ad_dirty(tele));
        assert!(!dirty.query_dirty(g.query_by_name("camera").unwrap()));
    }

    #[test]
    fn untouched_component_stays_clean() {
        let g = figure3_graph();
        let camera = g.query_by_name("camera").unwrap();
        let hp = g.ad_by_name("hp.com").unwrap();
        let mut d = GraphDelta::new();
        d.upsert(camera, hp, EdgeData::from_clicks(1));
        let g2 = d.apply(&g);
        let dirty = d.dirty_components(&g2);
        assert_eq!(dirty.n_components(), 2);
        assert_eq!(dirty.n_dirty(), 1);
        let flower = g.query_by_name("flower").unwrap();
        assert!(!dirty.query_dirty(flower));
        assert!(dirty.query_dirty(camera));
        // The clean component's members and edges are untouched.
        let label = dirty.components.label(NodeRef::Query(flower));
        assert!(!dirty.is_dirty(label));
        assert_eq!(dirty.dirty_query_count(), 4);
    }

    #[test]
    fn apply_named_interns_new_names_and_resolves() {
        let g = figure3_graph();
        let ops = vec![
            NamedOp::Upsert {
                query: "rose".into(),
                ad: "teleflora.com".into(),
                data: EdgeData::from_clicks(2),
            },
            NamedOp::Remove {
                query: "flower".into(),
                ad: "orchids.com".into(),
            },
        ];
        let (g2, delta) = apply_named(&g, &ops).unwrap();
        assert_eq!(delta.len(), 2);
        let rose = g2.query_by_name("rose").unwrap();
        assert_eq!(rose.index(), g.n_queries()); // fresh dense id
        assert!(g2.has_edge(rose, g2.ad_by_name("teleflora.com").unwrap()));
        let flower = g2.query_by_name("flower").unwrap();
        assert!(!g2.has_edge(flower, g2.ad_by_name("orchids.com").unwrap()));
        g2.validate().unwrap();
    }

    #[test]
    fn apply_named_rejects_unknown_removal_and_unnamed_graph() {
        let g = figure3_graph();
        let err = apply_named(
            &g,
            &[NamedOp::Remove {
                query: "no such".into(),
                ad: "hp.com".into(),
            }],
        )
        .unwrap_err();
        assert!(err.contains("unknown query"), "{err}");

        let mut b = ClickGraphBuilder::new();
        b.add_edge(QueryId(0), AdId(0), EdgeData::from_clicks(1));
        let unnamed = b.build();
        assert!(apply_named(&unnamed, &[]).is_err());
    }

    #[test]
    fn delta_tsv_skips_comments_and_rejects_garbage() {
        let ok = "# comment\n\n+\tq\ta\t5\t2\t0.4\n-\tq\ta\n";
        assert_eq!(
            read_delta_tsv(ok.as_bytes()).unwrap(),
            vec![
                NamedOp::Upsert {
                    query: "q".into(),
                    ad: "a".into(),
                    data: EdgeData::new(5, 2, 0.4),
                },
                NamedOp::Remove {
                    query: "q".into(),
                    ad: "a".into(),
                },
            ]
        );
        for bad in [
            "*\tq\ta\n",              // unknown op
            "+\tq\ta\t5\n",           // wrong field count
            "+\tq\ta\t5\tsix\t0.4\n", // bad clicks
            "+\tq\ta\t5\t9\t0.4\n",   // clicks > impressions
            "+\tq\ta\t5\t2\tNaN\n",   // non-finite ecr
            "-\tq\ta\textra\n",       // removal with extra field
        ] {
            assert!(read_delta_tsv(bad.as_bytes()).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn removal_of_out_of_range_ids_is_harmless() {
        let g = figure3_graph();
        let mut d = GraphDelta::new();
        d.remove(QueryId(999), AdId(999));
        let g2 = d.apply(&g);
        assert_eq!(g2.n_edges(), g.n_edges());
        // dirty_components must not index out of bounds.
        let dirty = d.dirty_components(&g2);
        assert_eq!(dirty.n_dirty(), 0);
    }

    #[test]
    fn diff_applied_to_old_reproduces_new() {
        let g = figure3_graph();
        let mut d = GraphDelta::new();
        let camera = g.query_by_name("camera").unwrap();
        let hp = g.ad_by_name("hp.com").unwrap();
        let flower = g.query_by_name("flower").unwrap();
        let tele = g.ad_by_name("teleflora.com").unwrap();
        d.upsert(camera, hp, EdgeData::from_clicks(3)) // change
            .remove(flower, tele) // removal
            .upsert(QueryId(g.n_queries() as u32), AdId(g.n_ads() as u32), {
                EdgeData::new(4, 2, 0.5) // growth
            });
        let g2 = d.apply(&g);
        let diff = GraphDelta::diff(&g, &g2);
        let replayed = diff.apply(&g);
        assert_eq!(replayed.n_edges(), g2.n_edges());
        for (q, a, e) in g2.edges() {
            let r = replayed.edge(q, a).expect("edge missing after replay");
            assert_eq!(r.impressions, e.impressions);
            assert_eq!(r.clicks, e.clicks);
            assert_eq!(
                r.expected_click_rate.to_bits(),
                e.expected_click_rate.to_bits()
            );
        }
        // Identical graphs diff to an empty delta.
        assert!(GraphDelta::diff(&g2, &g2).is_empty());
    }

    #[test]
    fn endpoint_dirtiness_covers_diff_dirtiness() {
        let g = figure3_graph();
        let d = fig3_delta_merge();
        let g2 = d.apply(&g);
        let via_endpoints = dirty_for_endpoints(&g2, d.ops().iter().map(|op| op.endpoints()));
        let via_diff = GraphDelta::diff(&g, &g2).dirty_components(&g2);
        assert_eq!(via_endpoints.n_components(), via_diff.n_components());
        for c in 0..via_endpoints.n_components() as u32 {
            // Every component the diff marks dirty is marked by endpoints.
            assert!(
                !via_diff.is_dirty(c) || via_endpoints.is_dirty(c),
                "diff marked component {c} but endpoint tracking missed it"
            );
        }
        // Out-of-range endpoints are ignored, not a panic.
        let out = dirty_for_endpoints(&g2, [(QueryId(999), AdId(999))]);
        assert_eq!(out.n_dirty(), 0);
    }

    #[test]
    fn click_log_round_trips() {
        let records = vec![
            ClickLogRecord::Event {
                epoch: 0,
                query: "camera".into(),
                ad: "hp.com".into(),
                data: EdgeData::new(10, 4, 0.25),
            },
            ClickLogRecord::EpochMark { epoch: 1 },
            ClickLogRecord::Event {
                epoch: 1,
                query: "flower".into(),
                ad: "teleflora.com".into(),
                data: EdgeData::new(8, 8, 0.9),
            },
        ];
        let mut buf = Vec::new();
        write_click_log(&records, &mut buf).unwrap();
        assert_eq!(read_click_log(buf.as_slice()).unwrap(), records);
    }

    #[test]
    fn click_log_skips_comments_and_rejects_garbage() {
        let ok = "# streaming log\n\n+\t3\tq\ta\t5\t2\t0.4\n@\t4\n";
        let records = read_click_log(ok.as_bytes()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], ClickLogRecord::EpochMark { epoch: 4 });
        for bad in [
            "-\tq\ta\n",               // removals have no place in a click log
            "+\tq\ta\t5\t2\t0.4\n",    // missing epoch column
            "+\tx\tq\ta\t5\t2\t0.4\n", // non-numeric epoch
            "+\t1\tq\ta\t5\t9\t0.4\n", // clicks > impressions
            "+\t1\tq\ta\t5\t2\tinf\n", // non-finite ecr
            "@\n",                     // epoch mark without epoch
            "@\t1\textra\n",           // epoch mark with extra field
            "*\t1\tq\ta\t5\t2\t0.4\n", // unknown op
        ] {
            assert!(read_click_log(bad.as_bytes()).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn write_click_log_rejects_tab_names() {
        let records = vec![ClickLogRecord::Event {
            epoch: 0,
            query: "a\tb".into(),
            ad: "x".into(),
            data: EdgeData::from_clicks(1),
        }];
        assert!(write_click_log(&records, Vec::new()).is_err());
    }

    /// Seeded xorshift64: a deterministic fuzz source with no dependency.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// One fuzz input: valid click-log lines and fields, stray tabs and
    /// newlines, numbers at and past their limits, over-long fields, NUL
    /// bytes and invalid UTF-8, concatenated at random.
    fn fuzzed_log(rng: &mut XorShift) -> Vec<u8> {
        const PIECES: &[&[u8]] = &[
            b"+\t3\tq\ta\t10\t4\t0.4\n",
            b"@\t4\n",
            b"# comment\n",
            b"+",
            b"@",
            b"-",
            b"\t",
            b"\n",
            b"\r\n",
            b"0",
            b"18446744073709551615",
            b"18446744073709551616",
            b"-1",
            b"camera",
            b"10",
            b"0.4",
            b"NaN",
            b"inf",
            b"1e308",
            b" ",
            b"\0",
            b"\xff",
            b"\xc3",
            b"\xe2\x82",
            "é".as_bytes(),
        ];
        let mut out = Vec::new();
        for _ in 0..rng.below(14) {
            match rng.below(40) {
                0 => out.resize(out.len() + 1 + rng.below(70_000), b'x'),
                _ => out.extend_from_slice(PIECES[rng.below(PIECES.len())]),
            }
        }
        out
    }

    #[test]
    fn fuzzed_click_logs_parse_or_fail_structured() {
        // Every input parses or is refused with `InvalidData` — the whole
        // log through `read_click_log`, and each UTF-8 line through the
        // tailer's `parse_click_log_line` — and none panics.
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let (mut parsed, mut refused) = (0usize, 0usize);
        for _ in 0..20_000 {
            let log = fuzzed_log(&mut rng);
            match read_click_log(log.as_slice()) {
                Ok(_) => parsed += 1,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    refused += 1;
                }
            }
            for (i, line) in log.split(|&b| b == b'\n').enumerate() {
                let Ok(line) = std::str::from_utf8(line) else {
                    continue;
                };
                if let Err(e) = parse_click_log_line(line, i + 1) {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    assert!(e.to_string().contains(&format!("line {}", i + 1)), "{e}");
                }
            }
        }
        assert!(
            parsed > 0 && refused > 0,
            "{parsed} parsed, {refused} refused"
        );
    }
}
