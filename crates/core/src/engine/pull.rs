//! Row-parallel pull propagation: the Jacobi half-step as two Gustavson
//! SpGEMM passes over CSR score rows.
//!
//! The half-step is the matrix recurrence (query side shown; the ad side is
//! the mirror image):
//!
//! ```text
//! S_Q' = C1 · P · S_A · Pᵀ        P[q, a] = F(q, a) on click edges,
//! ```
//!
//! with `S_A` the ad-side iterate carrying an implicit unit diagonal — the
//! linearized form "Efficient SimRank Computation via Linearization"
//! (Maehara et al.) computes with, specialized to the bipartite click graph.
//! Each **output row** `q` is *pulled* in two fused Gustavson passes against
//! a per-worker dense scratch:
//!
//! 1. `T[q, ·] = Σ_{a ∈ E(q)} F(q, a) · S_A[a, ·]` — scan `q`'s own
//!    neighbor list in CSR order, stream each neighbor's (sorted) score row
//!    into a `SparseAccum` over the inner side;
//! 2. `S_Q'[q, q'] = C1 · Σ_{a'} T[q, a'] · F(q', a')` — drain `T` in
//!    first-touch order, scattering each column through the inner node's
//!    neighbor list into a `SparseAccum` over the output side, restricted
//!    to `q' > q` (the symmetric half above the diagonal; `q' < q` is
//!    produced by row `q'`, the diagonal is pinned at 1). Where that
//!    restriction starts in a neighbor list is a per-chunk cursor on the
//!    inner node: rows ascend within a chunk, so it only moves forward.
//!
//! No `F(t,i)·F(t',j)·s(i,j)` contribution is ever materialized, so there is
//! nothing to sort or merge: the row is emitted by draining the output
//! accumulator in ascending id from `q + 1`, a scan of its occupancy
//! bitmap words with `trailing_zeros`.
//!
//! **Shared rows.** Most tail queries of a click graph click one ad, and
//! many of them click the same ad. A row `q` whose only neighbor is `a`,
//! with factor `F(q, a)` bit-equal to that of an earlier row `p` of the same
//! worker chunk whose only neighbor is also `a`, runs neither pass: it
//! copies `p`'s emitted entries above `q`, and `p`'s recorded diagonal. The
//! bits hold because pass 1 of both rows is the same ops on the same
//! values (`F·(e_a + S[a, ·])`, one neighbor, equal factor bits), so `T` is
//! the same cells touched in the same order; pass 2 replays that drain, and
//! the only difference, the `q' > p` versus `q' > q` restriction, removes
//! whole cells, never an add to a cell above `q`. So every cell above `q`
//! sums the same values in the same order, and meets the same prune test;
//! the diagonal reads the same `F·T[a]`. The earlier row is found through a
//! dense slot per inner node, the latest such row of the chunk; a factor
//! mismatch computes the row and makes it the slot's. Copies stay inside a
//! chunk, so which rows copy depends on the worker count, but the bits do
//! not.
//! Each worker's contiguous block of rows comes back as one `UpperRows`
//! block, and the caller freezes the blocks in place into the next
//! iterate's [`ScoreMatrix`] once the previous one is dropped
//! (`ScoreMatrix::from_upper_rows`). So a half-step holds the previous
//! iterate, once, and its own output rows, and nothing past its end.
//!
//! **Determinism.** Each output row is computed start-to-finish by exactly
//! one worker, and every accumulation order inside a row is a function of
//! CSR neighbor order alone — never of chunk boundaries or surrounding
//! elements. Consequences the differential suites pin down:
//!
//! * thread-count invariance: any worker count produces bit-identical
//!   iterates, whether a shared row is copied or computed;
//! * sharded == monolithic and incremental == from-scratch stay
//!   **bit-identical at any scale**: a component shard's monotone remap
//!   preserves CSR neighbor order, so each row replays the identical
//!   floating-point op sequence.

use super::accum::SparseAccum;
use super::{parallel, NodeId};
use crate::scores::{ScoreMatrix, UpperRows};

/// One worker's dense-scratch workspace: a `SparseAccum` per SpGEMM pass
/// and one [`InnerNode`] per inner node. Sized lazily to the two node
/// counts, kept zeroed between rows by its drains, and reused across every
/// half-step of a run — `O(nodes)`, never `O(pairs)`: the previous iterate
/// is read in place, and the output rows are the half-step's own.
#[derive(Debug, Default)]
pub struct PullWorkspace {
    /// Pass-1 accumulator over the inner side (`T[q, ·]`).
    t: SparseAccum,
    /// Pass-2 accumulator over the output side (`S'[q, ·]`, upper half).
    o: SparseAccum,
    /// The pinned-away diagonal values of this worker's rows, in row order,
    /// when the half-step records them (empty otherwise).
    diag: Vec<f64>,
    /// Per inner node, its cursor and shared row in the chunk under way.
    nodes: Vec<InnerNode>,
    /// The chunk under way, counted from 1 over the workspace's life; an
    /// [`InnerNode`] stamped with another chunk is stale.
    chunk: u32,
}

/// What one chunk has learnt about an inner node, valid while `chunk` is
/// the workspace's chunk under way (a stale entry reads as fresh).
#[derive(Debug, Clone, Copy)]
struct InnerNode {
    chunk: u32,
    /// Index into the node's neighbor list of its first partner above the
    /// last row that scattered through it; [`UNSET`] before the first.
    next: u32,
    /// Chunk-local index of the latest row whose only neighbor is this
    /// node; [`UNSET`] before the first.
    shared: u32,
}

/// An [`InnerNode`] field with nothing recorded in this chunk.
const UNSET: u32 = u32::MAX;

impl InnerNode {
    const STALE: InnerNode = InnerNode {
        chunk: 0,
        next: UNSET,
        shared: UNSET,
    };

    /// This entry for `chunk`, reset if it was stamped with another.
    #[inline]
    fn current(&mut self, chunk: u32) -> &mut InnerNode {
        if self.chunk != chunk {
            *self = InnerNode {
                chunk,
                ..InnerNode::STALE
            };
        }
        self
    }

    /// The index of the first of `outs` above row `q`. Rows ascend within a
    /// chunk, so after a binary search on the chunk's first touch the cursor
    /// only moves forward: `O(deg)` a chunk, not `O(log deg)` a touch.
    #[inline]
    fn first_above<J: NodeId>(&mut self, q: u32, outs: &[J]) -> usize {
        let mut i = if self.next == UNSET {
            outs.partition_point(|x| x.raw() <= q)
        } else {
            self.next as usize
        };
        while i < outs.len() && outs[i].raw() <= q {
            i += 1;
        }
        self.next = i as u32;
        i
    }
}

impl PullWorkspace {
    /// Sizes the scratch to the half-step's node counts and opens a chunk:
    /// every [`InnerNode`] from an earlier chunk turns stale.
    fn begin_chunk(&mut self, n_out: usize, n_inner: usize) {
        if self.t.len() < n_inner {
            self.t.resize(n_inner);
        }
        if self.o.len() < n_out {
            self.o.resize(n_out);
        }
        if self.nodes.len() < n_inner {
            self.nodes.resize(n_inner, InnerNode::STALE);
        }
        self.chunk = self.chunk.wrapping_add(1);
        if self.chunk == 0 {
            // The stamp wrapped: forget every entry rather than alias one.
            self.nodes.fill(InnerNode::STALE);
            self.chunk = 1;
        }
    }
}

/// One Jacobi half-step on the pull path.
///
/// `out_row(x)` is output node `x`'s neighbor list with the matching
/// `F(x, inner)` factors (output-major); `inner_row(y)` is inner node `y`'s
/// neighbor list with the matching `F(out', y)` factors (inner-major).
/// `prev` is the inner side's iterate. Output rows are partitioned into one
/// contiguous block per workspace; each block's pruned, `c`-scaled upper
/// rows come back as one [`UpperRows`], in row order.
///
/// With `diagonal` set, the half-step also records — one entry per output
/// row, in row order — the value the unit pin replaces on the diagonal:
/// `1 − c·Σ_{a ∈ E(q)} F(q, a)·T[q, a]`, read off the pass-1 scratch
/// (`deg(q)` multiply-adds a row; no emitted pair changes).
#[allow(clippy::too_many_arguments)]
pub(crate) fn propagate_pull<'g, I, J, OutRow, InnerRow>(
    n_out: usize,
    out_row: OutRow,
    inner_row: InnerRow,
    prev: &ScoreMatrix,
    c: f64,
    prune_threshold: f64,
    workspaces: &mut [PullWorkspace],
    diagonal: Option<&mut Vec<f64>>,
) -> Vec<UpperRows>
where
    I: NodeId + 'g,
    J: NodeId + 'g,
    OutRow: Fn(u32) -> (&'g [I], &'g [f64]) + Sync,
    InnerRow: Fn(u32) -> (&'g [J], &'g [f64]) + Sync,
{
    let n_inner = prev.n_nodes();
    let record = diagonal.is_some();
    let blocks = parallel::run_chunked_stateful(n_out, workspaces, |ws, range| {
        ws.begin_chunk(n_out, n_inner);
        let mut out = UpperRows::new(range.len());
        for q in range.clone() {
            pull_row(
                q as u32,
                range.start as u32,
                &out_row,
                &inner_row,
                prev,
                c,
                prune_threshold,
                ws,
                &mut out,
                record,
            );
            out.end_row();
        }
        out
    });
    if let Some(diagonal) = diagonal {
        // Chunk `t` ran on workspace `t`: draining them in order is row order.
        diagonal.clear();
        for ws in workspaces.iter_mut() {
            diagonal.append(&mut ws.diag);
        }
    }
    blocks
}

/// Computes one output row (both fused passes) and appends its surviving
/// entries — `(q', score)` for `q' > q`, ascending — to `out`'s open row,
/// and, when `record` is set, the row's pinned-away diagonal value to
/// `ws.diag`. `start` is the first row of the chunk `out` holds. A row
/// whose only neighbor and factor match an earlier row of the chunk copies
/// that row's entries above `q` and its diagonal instead.
#[allow(clippy::too_many_arguments)]
#[inline]
fn pull_row<'g, I, J, OutRow, InnerRow>(
    q: u32,
    start: u32,
    out_row: &OutRow,
    inner_row: &InnerRow,
    prev: &ScoreMatrix,
    c: f64,
    prune_threshold: f64,
    ws: &mut PullWorkspace,
    out: &mut UpperRows,
    record: bool,
) where
    I: NodeId + 'g,
    J: NodeId + 'g,
    OutRow: Fn(u32) -> (&'g [I], &'g [f64]),
    InnerRow: Fn(u32) -> (&'g [J], &'g [f64]),
{
    let (inner, f_out) = out_row(q);
    if inner.is_empty() {
        // Nothing propagates into an isolated node: the pin replaces 1.
        if record {
            ws.diag.push(1.0);
        }
        return;
    }
    let PullWorkspace {
        t,
        o,
        diag,
        nodes,
        chunk,
    } = ws;
    let chunk = *chunk;

    if let [only] = inner {
        let node = nodes[only.raw() as usize].current(chunk);
        let source = std::mem::replace(&mut node.shared, q - start);
        // `source` is an earlier row of this chunk with the same only
        // neighbor; equal factor bits make its passes this row's, op for op.
        if source != UNSET && out_row(start + source).1[0].to_bits() == f_out[0].to_bits() {
            out.push_tail_of(source as usize, q);
            if record {
                diag.push(diag[source as usize]);
            }
            return;
        }
    }

    // Pass 1: T[q, ·] = Σ_{a ∈ E(q)} F(q, a) · S[a, ·], unit diagonal
    // included. Scan order (E(q) outer, each score row inner, both in CSR
    // order) fixes every cell's summation order.
    for (x, a) in inner.iter().enumerate() {
        let f = f_out[x];
        t.add(a.raw(), f);
        let (cols, vals) = prev.row(a.raw());
        for (i, &col) in cols.iter().enumerate() {
            t.add(col, f * vals[i]);
        }
    }

    // The diagonal cell pass 2 never emits: S'[q, q] = c·Σ_a F(q, a)·T[q, a],
    // summed in CSR order like every other cell.
    if record {
        let mut pinned = 0.0;
        for (x, a) in inner.iter().enumerate() {
            pinned += f_out[x] * t.get(a.raw());
        }
        diag.push(1.0 - c * pinned);
    }

    // Pass 2: drain T in first-touch order, scattering through each inner
    // node's neighbor list restricted to q' > q.
    t.drain_touched(|a2, ta| {
        let (outs, f_in) = inner_row(a2);
        let above = nodes[a2 as usize].current(chunk).first_above(q, outs);
        for (y, id) in outs[above..].iter().enumerate() {
            o.add(id.raw(), ta * f_in[above + y]);
        }
    });

    // Emit: every partner id is above q, drained ascending.
    o.drain_ascending(q + 1, |oid, s| {
        let v = c * s;
        if v > prune_threshold && v > 0.0 {
            out.push(oid, v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimrankConfig;
    use crate::engine::{run, Walk};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_util::PairKey;

    #[test]
    fn pull_rows_emit_sorted_pairs() {
        let g = figure3_graph();
        let r = run(&g, &SimrankConfig::default(), &Walk::Uniform);
        let pairs: Vec<_> = r.queries.sorted_pairs().collect();
        assert!(!pairs.is_empty());
        assert!(pairs.windows(2).all(|w| w[0].0.raw() < w[1].0.raw()));
    }

    /// Single-ad queries on shared ads interleaved with multi-ad queries,
    /// and ads clicked by one query alone, several on the same query.
    fn shared_rows_graph() -> simrankpp_graph::ClickGraph {
        use simrankpp_graph::{AdId, ClickGraphBuilder, EdgeData, QueryId};
        let clicks: [&[(u32, u64)]; 16] = [
            &[(0, 3)],
            &[(0, 1), (1, 4)],
            &[(0, 5)],
            &[(1, 2)],
            &[(2, 1), (3, 2), (5, 7), (6, 1)],
            &[(0, 2)],
            &[(1, 1)],
            &[(2, 3)],
            &[(0, 2), (2, 2), (7, 3)],
            &[(2, 4)],
            &[(3, 1)],
            &[(1, 6)],
            &[(4, 2)],
            &[(0, 1)],
            &[(3, 5), (4, 1)],
            &[(2, 2)],
        ];
        let mut b = ClickGraphBuilder::new();
        for (q, row) in clicks.iter().enumerate() {
            for &(a, c) in row.iter() {
                b.add_edge(QueryId(q as u32), AdId(a), EdgeData::from_clicks(c));
            }
        }
        b.build()
    }

    /// The half-step over every row in one chunk, where each later
    /// single-neighbor row copies an earlier one, against every row
    /// computed alone in a chunk of its own: the same entries and
    /// diagonals, bit for bit.
    fn assert_shared_rows_match_alone<'g, I, J>(
        n: usize,
        out_row: impl Fn(u32) -> (&'g [I], &'g [f64]) + Sync,
        inner_row: impl Fn(u32) -> (&'g [J], &'g [f64]) + Sync,
        prev: &ScoreMatrix,
        prune: f64,
    ) where
        I: NodeId + 'g,
        J: NodeId + 'g,
    {
        let mut ws = vec![PullWorkspace::default()];
        let mut diag = Vec::new();
        let shared = propagate_pull(
            n,
            &out_row,
            &inner_row,
            prev,
            0.8,
            prune,
            &mut ws,
            Some(&mut diag),
        );
        let (mut alone, mut alone_diag) = (Vec::new(), Vec::new());
        let w = &mut ws[0];
        for q in 0..n as u32 {
            w.begin_chunk(n, prev.n_nodes());
            let mut row = UpperRows::new(1);
            pull_row(
                q, q, &out_row, &inner_row, prev, 0.8, prune, w, &mut row, true,
            );
            row.end_row();
            alone.push(row);
            alone_diag.append(&mut w.diag);
        }
        let bits = |m: &ScoreMatrix| {
            m.iter()
                .map(|(a, b, v)| (a, b, v.to_bits()))
                .collect::<Vec<_>>()
        };
        let (shared, alone) = (
            ScoreMatrix::from_upper_rows(n, shared),
            ScoreMatrix::from_upper_rows(n, alone),
        );
        assert!(shared.n_pairs() > 0);
        assert_eq!(bits(&shared), bits(&alone), "prune {prune}, {n} rows");
        let diag_bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            diag_bits(&diag),
            diag_bits(&alone_diag),
            "prune {prune}, {n} rows"
        );
    }

    #[test]
    fn shared_rows_copy_what_computing_them_emits() {
        use crate::engine::{Walk, WeightedTransition};
        use simrankpp_graph::{AdId, QueryId, WeightKind};
        let g = shared_rows_graph();
        let walk = Walk::Weighted(WeightedTransition {
            kind: WeightKind::Clicks,
            spread: crate::weighted::SpreadMode::Exponential,
        });
        let f = walk.factors(&g);
        let r = run(&g, &SimrankConfig::default().with_iterations(3), &walk);
        for prune in [0.0, 0.02] {
            // Query rows from the ad iterate, then ad rows from the query one.
            assert_shared_rows_match_alone(
                g.n_queries(),
                |q| (g.ads_of(QueryId(q)).0, f.of_query(&g, QueryId(q))),
                |a| (g.queries_of(AdId(a)).0, f.toward_ad(&g, AdId(a))),
                &r.ads,
                prune,
            );
            assert_shared_rows_match_alone(
                g.n_ads(),
                |a| (g.queries_of(AdId(a)).0, f.of_ad(&g, AdId(a))),
                |q| (g.ads_of(QueryId(q)).0, f.toward_query(&g, QueryId(q))),
                &r.queries,
                prune,
            );
        }
    }

    #[test]
    fn workspace_stays_zeroed_between_rows() {
        // After a full run every scratch cell must have been drained — a
        // leaked cell would corrupt the next row (or the next half-step).
        let g = figure3_graph();
        let factors = Walk::Uniform.factors(&g);
        let mut ws = vec![PullWorkspace::default()];
        let prev = ScoreMatrix::from_sorted_pairs(g.n_ads(), vec![(PairKey::new(0, 1), 0.5)]);
        for _ in 0..2 {
            let _ = propagate_pull(
                g.n_queries(),
                |q| {
                    let q = simrankpp_graph::QueryId(q);
                    (g.ads_of(q).0, factors.of_query(&g, q))
                },
                |a| {
                    let a = simrankpp_graph::AdId(a);
                    (g.queries_of(a).0, factors.toward_ad(&g, a))
                },
                &prev,
                0.8,
                0.0,
                &mut ws,
                None,
            );
            for acc in [&ws[0].t, &ws[0].o] {
                let (vals, words, touched) = acc.parts();
                assert!(vals.iter().all(|&v| v == 0.0));
                assert!(words.iter().all(|&w| w == 0));
                assert!(touched.is_empty());
            }
        }
    }
}
