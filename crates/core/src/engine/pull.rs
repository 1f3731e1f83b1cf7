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
//!    produced by row `q'`, the diagonal is pinned at 1).
//!
//! No `F(t,i)·F(t',j)·s(i,j)` contribution is ever materialized, so there is
//! nothing to sort or merge: the row is emitted by draining the output
//! accumulator in ascending id from `q + 1`, a scan of its occupancy
//! bitmap words with `trailing_zeros`.
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
//!   iterates;
//! * sharded == monolithic and incremental == from-scratch stay
//!   **bit-identical at any scale**: a component shard's monotone remap
//!   preserves CSR neighbor order, so each row replays the identical
//!   floating-point op sequence.

use super::accum::SparseAccum;
use super::{parallel, NodeId};
use crate::scores::{ScoreMatrix, UpperRows};

/// One worker's dense-scratch workspace: a `SparseAccum` per SpGEMM pass.
/// Sized lazily to the two node counts, kept zeroed between rows by its
/// drains, and reused across every half-step of a run — `O(nodes)`, never
/// `O(pairs)`: the previous iterate is read in place, and the output rows
/// are the half-step's own.
#[derive(Debug, Default)]
pub struct PullWorkspace {
    /// Pass-1 accumulator over the inner side (`T[q, ·]`).
    t: SparseAccum,
    /// Pass-2 accumulator over the output side (`S'[q, ·]`, upper half).
    o: SparseAccum,
    /// The pinned-away diagonal values of this worker's rows, in row order,
    /// when the half-step records them (empty otherwise).
    diag: Vec<f64>,
}

impl PullWorkspace {
    fn ensure(&mut self, n_out: usize, n_inner: usize) {
        if self.t.len() < n_inner {
            self.t.resize(n_inner);
        }
        if self.o.len() < n_out {
            self.o.resize(n_out);
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
        ws.ensure(n_out, n_inner);
        let mut out = UpperRows::new(range.len());
        for q in range {
            pull_row(
                q as u32,
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
/// `ws.diag`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn pull_row<'g, I, J, OutRow, InnerRow>(
    q: u32,
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
    let PullWorkspace { t, o, diag } = ws;

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
        let start = outs.partition_point(|x| x.raw() <= q);
        for (y, id) in outs[start..].iter().enumerate() {
            o.add(id.raw(), ta * f_in[start + y]);
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
