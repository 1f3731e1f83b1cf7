//! Sparse symmetric score storage.
//!
//! SimRank scores are symmetric with unit diagonal, so engines accumulate
//! only off-diagonal unordered pairs in a hash map ([`ScoreMatrixBuilder`]),
//! then freeze into a per-node sorted adjacency form ([`ScoreMatrix`]) for
//! fast `get`, per-node top-k, and iteration.

use simrankpp_util::{FxHashMap, PairKey};

/// Fills a flat symmetric CSR arena (`offsets`/`partners`/`scores`) from a
/// key-sorted, duplicate-free pair list, reusing the caller's buffers.
///
/// One counting pass over `pairs` sizes every row, a prefix sum turns counts
/// into offsets, and a placement pass scatters each pair into both endpoint
/// rows. **Rows come out sorted without any per-row sort**: scanning pairs in
/// `(min, max)` order, row `r` first receives its partners `< r` (one per
/// `min`-block `m < r`, in ascending `m`) and then its partners `> r` (the
/// `min == r` block, ascending `max`) — two ascending runs whose
/// concatenation is ascending. This replaces the old per-node
/// `Vec<Vec<(u32, f64)>>` push-then-sort construction and doubles as the
/// per-half-step iterate CSR of the pull kernel (`engine::pull`).
pub(crate) fn fill_sym_csr(
    n: usize,
    pairs: &[(PairKey, f64)],
    offsets: &mut Vec<u64>,
    cursor: &mut Vec<usize>,
    partners: &mut Vec<u32>,
    scores: &mut Vec<f64>,
) {
    debug_assert!(
        pairs.windows(2).all(|w| w[0].0.raw() < w[1].0.raw()),
        "pairs must be strictly sorted by key"
    );
    offsets.clear();
    offsets.resize(n + 1, 0);
    for &(k, _) in pairs {
        let (a, b) = k.parts();
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let nnz = offsets[n] as usize;
    partners.clear();
    partners.resize(nnz, 0);
    scores.clear();
    scores.resize(nnz, 0.0);
    cursor.clear();
    cursor.extend(offsets[..n].iter().map(|&o| o as usize));
    for &(k, v) in pairs {
        let (a, b) = k.parts();
        let (ai, bi) = (a as usize, b as usize);
        partners[cursor[ai]] = b;
        scores[cursor[ai]] = v;
        cursor[ai] += 1;
        partners[cursor[bi]] = a;
        scores[cursor[bi]] = v;
        cursor[bi] += 1;
    }
    debug_assert!(
        (0..n).all(|r| partners[offsets[r] as usize..offsets[r + 1] as usize]
            .windows(2)
            .all(|w| w[0] < w[1]))
    );
}

/// Accumulating builder: an unordered-pair → score map.
#[derive(Debug, Clone, Default)]
pub struct ScoreMatrixBuilder {
    n: usize,
    entries: FxHashMap<PairKey, f64>,
}

impl ScoreMatrixBuilder {
    /// Creates a builder for a side with `n` nodes.
    pub fn new(n: usize) -> Self {
        ScoreMatrixBuilder {
            n,
            entries: FxHashMap::default(),
        }
    }

    /// Adds `delta` to the score of unordered pair `(a, b)`.
    ///
    /// # Panics
    /// Panics in debug builds on diagonal pairs — the diagonal is fixed at 1.
    #[inline]
    pub fn add(&mut self, a: u32, b: u32, delta: f64) {
        debug_assert_ne!(a, b, "diagonal scores are fixed at 1");
        *self.entries.entry(PairKey::new(a, b)).or_insert(0.0) += delta;
    }

    /// Sets the score of unordered pair `(a, b)`.
    #[inline]
    pub fn set(&mut self, a: u32, b: u32, value: f64) {
        debug_assert_ne!(a, b, "diagonal scores are fixed at 1");
        self.entries.insert(PairKey::new(a, b), value);
    }

    /// Current number of stored pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops entries with score below `threshold` (or non-positive).
    pub fn prune(&mut self, threshold: f64) {
        self.entries.retain(|_, v| *v > threshold && *v > 0.0);
    }

    /// Merges another builder's entries additively (parallel reduction).
    ///
    /// The node count widens to the larger of the two sides, so merging a
    /// wider builder into a narrower (e.g. freshly-constructed empty) one
    /// cannot make `build()` index out of bounds.
    pub fn merge(&mut self, other: ScoreMatrixBuilder) {
        self.n = self.n.max(other.n);
        if self.entries.is_empty() {
            self.entries = other.entries;
            return;
        }
        for (k, v) in other.entries {
            *self.entries.entry(k).or_insert(0.0) += v;
        }
    }

    /// Applies `f` to every stored score (e.g. evidence multiplication).
    pub fn map_scores(&mut self, mut f: impl FnMut(PairKey, f64) -> f64) {
        for (k, v) in self.entries.iter_mut() {
            *v = f(*k, *v);
        }
    }

    /// Freezes into the read-optimized [`ScoreMatrix`]. Non-positive scores
    /// are dropped.
    pub fn build(self) -> ScoreMatrix {
        let mut sorted: Vec<(PairKey, f64)> =
            self.entries.into_iter().filter(|&(_, v)| v > 0.0).collect();
        sorted.sort_unstable_by_key(|&(k, _)| k.raw());
        ScoreMatrix::from_sorted_pairs(self.n, sorted)
    }

    /// Read access during iteration: score of `(a, b)` with unit diagonal.
    #[inline]
    pub fn get(&self, a: u32, b: u32) -> f64 {
        if a == b {
            1.0
        } else {
            self.entries
                .get(&PairKey::new(a, b))
                .copied()
                .unwrap_or(0.0)
        }
    }

    /// Iterates stored `(pair, score)` entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (PairKey, f64)> + '_ {
        self.entries.iter().map(|(&k, &v)| (k, v))
    }
}

/// Frozen symmetric sparse score matrix with unit diagonal.
///
/// The per-node view is a flat CSR arena (`offsets`/`partners`/`scores`)
/// rather than the historical `Vec<Vec<(u32, f64)>>`: one allocation per
/// side instead of one per node, `O(1)` [`ScoreMatrix::row`] slice
/// views, and the layout the pull kernel consumes directly.
#[derive(Debug, Clone, Default)]
pub struct ScoreMatrix {
    n: usize,
    /// Packed [`PairKey`]s of the off-diagonal pairs, strictly ascending.
    pair_keys: Vec<u64>,
    /// Scores aligned with `pair_keys`; strictly positive.
    pair_scores: Vec<f64>,
    /// Row bounds into `partners`/`scores`: node `a`'s row is
    /// `offsets[a]..offsets[a + 1]`. Length `n + 1`.
    offsets: Vec<u64>,
    /// Partner ids, ascending within each row.
    partners: Vec<u32>,
    /// Scores aligned with `partners`.
    scores: Vec<f64>,
}

impl ScoreMatrix {
    /// An empty matrix (all off-diagonal scores zero) over `n` nodes.
    pub fn empty(n: usize) -> Self {
        ScoreMatrix {
            n,
            offsets: vec![0; n + 1],
            ..ScoreMatrix::default()
        }
    }

    /// Freezes an already key-sorted, duplicate-free pair list (the unified
    /// engine's iterate format) without the hash-map detour of
    /// [`ScoreMatrixBuilder`]. Non-positive scores are dropped. The CSR
    /// arena is built with a counting pass — no per-node pushes, no per-row
    /// sorts (see [`fill_sym_csr`]).
    ///
    /// # Panics
    /// Debug builds panic if `pairs` is not strictly sorted by packed key.
    pub fn from_sorted_pairs(n: usize, mut pairs: Vec<(PairKey, f64)>) -> Self {
        pairs.retain(|&(_, v)| v > 0.0);
        let mut offsets = Vec::new();
        let mut cursor = Vec::new();
        let mut partners = Vec::new();
        let mut scores = Vec::new();
        fill_sym_csr(
            n,
            &pairs,
            &mut offsets,
            &mut cursor,
            &mut partners,
            &mut scores,
        );
        let mut pair_keys = Vec::with_capacity(pairs.len());
        let mut pair_scores = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            pair_keys.push(k.raw());
            pair_scores.push(v);
        }
        ScoreMatrix {
            n,
            pair_keys,
            pair_scores,
            offsets,
            partners,
            scores,
        }
    }

    /// Number of nodes on this side.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of stored (positive, off-diagonal) pairs.
    pub fn n_pairs(&self) -> usize {
        self.pair_keys.len()
    }

    /// Score of `(a, b)`: 1 on the diagonal, 0 for unstored pairs.
    pub fn get(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 1.0;
        }
        let (ids, vals) = self.row(a);
        ids.binary_search(&b).map(|i| vals[i]).unwrap_or(0.0)
    }

    /// The stored off-diagonal pairs in packed-key-sorted order — the
    /// engine's iterate format.
    pub fn sorted_pairs(&self) -> impl Iterator<Item = (PairKey, f64)> + '_ {
        self.pair_keys
            .iter()
            .zip(self.pair_scores.iter())
            .map(|(&k, &v)| (PairKey::from_raw(k), v))
    }

    /// All stored `(a, b, score)` with `a < b`, ascending by `(a, b)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.sorted_pairs().map(|(k, v)| {
            let (a, b) = k.parts();
            (a, b, v)
        })
    }

    /// Node `a`'s row of the CSR arena as `O(1)` parallel slices:
    /// ascending partner ids and their scores.
    #[inline]
    pub fn row(&self, a: u32) -> (&[u32], &[f64]) {
        let (lo, hi) = (
            self.offsets[a as usize] as usize,
            self.offsets[a as usize + 1] as usize,
        );
        (&self.partners[lo..hi], &self.scores[lo..hi])
    }

    /// The stored partners of node `a` with their scores, ascending by id.
    pub fn partners(&self, a: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (ids, vals) = self.row(a);
        ids.iter().copied().zip(vals.iter().copied())
    }

    /// The `k` highest-scoring partners of `a` (descending score, ties by
    /// ascending id).
    pub fn top_k(&self, a: u32, k: usize) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        self.top_k_into(a, k, &mut out);
        out
    }

    /// As [`ScoreMatrix::top_k`], but writing into `out` (cleared first) so
    /// batched per-node extraction reuses one buffer instead of allocating
    /// per call. NaN scores are skipped (as [`TopK`](simrankpp_util::TopK)
    /// does), keeping the comparator total; selection is O(m) + O(k log k)
    /// rather than a full row sort.
    pub fn top_k_into(&self, a: u32, k: usize, out: &mut Vec<(u32, f64)>) {
        out.clear();
        if k == 0 {
            return;
        }
        out.extend(self.partners(a).filter(|&(_, s)| !s.is_nan()));
        let descending = |x: &(u32, f64), y: &(u32, f64)| {
            y.1.partial_cmp(&x.1)
                .expect("NaN scores are filtered above")
                .then_with(|| x.0.cmp(&y.0))
        };
        if out.len() > k {
            out.select_nth_unstable_by(k - 1, descending);
            out.truncate(k);
        }
        out.sort_unstable_by(descending);
    }

    /// Largest absolute score difference against another matrix over the
    /// union of stored pairs (convergence / engine cross-check metric).
    pub fn max_abs_diff(&self, other: &ScoreMatrix) -> f64 {
        let mut max = 0.0f64;
        for (k, v) in self.sorted_pairs() {
            let (a, b) = k.parts();
            max = max.max((v - other.get(a, b)).abs());
        }
        for (k, v) in other.sorted_pairs() {
            let (a, b) = k.parts();
            max = max.max((v - self.get(a, b)).abs());
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_symmetrically() {
        let mut b = ScoreMatrixBuilder::new(4);
        b.add(1, 2, 0.25);
        b.add(2, 1, 0.25); // same unordered pair
        let m = b.build();
        assert_eq!(m.n_pairs(), 1);
        assert!((m.get(1, 2) - 0.5).abs() < 1e-12);
        assert!((m.get(2, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn diagonal_is_one_and_missing_zero() {
        let m = ScoreMatrixBuilder::new(3).build();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn prune_drops_small_entries() {
        let mut b = ScoreMatrixBuilder::new(4);
        b.set(0, 1, 0.5);
        b.set(0, 2, 1e-9);
        b.set(0, 3, -0.1);
        b.prune(1e-6);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn build_drops_nonpositive() {
        let mut b = ScoreMatrixBuilder::new(3);
        b.set(0, 1, 0.0);
        b.set(1, 2, 0.3);
        let m = b.build();
        assert_eq!(m.n_pairs(), 1);
    }

    #[test]
    fn merge_adds() {
        let mut a = ScoreMatrixBuilder::new(3);
        a.set(0, 1, 0.2);
        let mut b = ScoreMatrixBuilder::new(3);
        b.set(0, 1, 0.3);
        b.set(1, 2, 0.1);
        a.merge(b);
        assert!((a.get(0, 1) - 0.5).abs() < 1e-12);
        assert!((a.get(1, 2) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn merge_widens_node_count() {
        // Regression: merging a wider builder into a narrower empty one used
        // to keep the narrow `n`, so `build()` indexed `by_node` out of
        // bounds for the stolen entries.
        let mut a = ScoreMatrixBuilder::new(2);
        let mut b = ScoreMatrixBuilder::new(6);
        b.set(4, 5, 0.3);
        a.merge(b);
        let m = a.build();
        assert_eq!(m.n_nodes(), 6);
        assert!((m.get(4, 5) - 0.3).abs() < 1e-12);

        // Same widening on the non-empty path.
        let mut c = ScoreMatrixBuilder::new(2);
        c.set(0, 1, 0.1);
        let mut d = ScoreMatrixBuilder::new(9);
        d.set(7, 8, 0.2);
        c.merge(d);
        let m = c.build();
        assert_eq!(m.n_nodes(), 9);
        assert!((m.get(7, 8) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn top_k_into_ranks_and_reuses_buffer() {
        let mut b = ScoreMatrixBuilder::new(6);
        b.set(0, 1, 0.1);
        b.set(0, 2, 0.9);
        b.set(0, 3, 0.5);
        b.set(0, 4, 0.5); // tie with node 3: smaller id first
        let m = b.build();
        let mut buf = vec![(99u32, 0.0)];
        m.top_k_into(0, 3, &mut buf);
        assert_eq!(buf, vec![(2, 0.9), (3, 0.5), (4, 0.5)]);
        assert_eq!(m.top_k(0, 2), vec![(2, 0.9), (3, 0.5)]);
        m.top_k_into(0, 0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn top_k_skips_nan_scores() {
        // A NaN entry (only constructible via from_sorted_pairs-free paths
        // like map_scores misuse) must be dropped, not ranked arbitrarily.
        let mut b = ScoreMatrixBuilder::new(4);
        b.set(0, 1, 0.4);
        b.set(0, 2, 0.7);
        let mut m = b.build();
        let lo = m.offsets[0] as usize;
        assert_eq!(m.partners[lo], 1);
        m.scores[lo] = f64::NAN; // partner id 1 of node 0
        let mut buf = Vec::new();
        m.top_k_into(0, 3, &mut buf);
        assert_eq!(buf, vec![(2, 0.7)]);
    }

    #[test]
    fn top_k_orders_descending() {
        let mut b = ScoreMatrixBuilder::new(5);
        b.set(0, 1, 0.1);
        b.set(0, 2, 0.9);
        b.set(0, 3, 0.5);
        b.set(2, 3, 0.7); // unrelated to node 0
        let m = b.build();
        let top = m.top_k(0, 2);
        assert_eq!(top.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(m.top_k(4, 3), vec![]);
    }

    #[test]
    fn partners_sorted_by_id() {
        let mut b = ScoreMatrixBuilder::new(4);
        b.set(2, 0, 0.3);
        b.set(2, 3, 0.1);
        b.set(2, 1, 0.2);
        let m = b.build();
        let ids: Vec<u32> = m.partners(2).map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 3]);
        let (row_ids, row_scores) = m.row(2);
        assert_eq!(row_ids, &[0, 1, 3]);
        assert_eq!(row_scores.len(), 3);
        assert!((row_scores[0] - 0.3).abs() < 1e-12);
        // Node 1's only partner is 2; its row is the matching O(1) slice.
        assert_eq!(m.row(1).0, &[2]);
    }

    #[test]
    fn iter_is_sorted_min_major() {
        let mut b = ScoreMatrixBuilder::new(4);
        b.set(2, 3, 0.1);
        b.set(0, 3, 0.2);
        b.set(0, 1, 0.3);
        let m = b.build();
        let keys: Vec<(u32, u32)> = m.iter().map(|(a, b, _)| (a, b)).collect();
        assert_eq!(keys, vec![(0, 1), (0, 3), (2, 3)]);
    }

    #[test]
    fn max_abs_diff_covers_union() {
        let mut a = ScoreMatrixBuilder::new(3);
        a.set(0, 1, 0.5);
        let ma = a.build();
        let mut b = ScoreMatrixBuilder::new(3);
        b.set(1, 2, 0.4);
        let mb = b.build();
        assert!((ma.max_abs_diff(&mb) - 0.5).abs() < 1e-12);
        assert!((mb.max_abs_diff(&ma) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn map_scores_applies() {
        let mut b = ScoreMatrixBuilder::new(3);
        b.set(0, 1, 0.5);
        b.set(1, 2, 0.25);
        b.map_scores(|_, v| v * 2.0);
        assert!((b.get(0, 1) - 1.0).abs() < 1e-12);
        assert!((b.get(1, 2) - 0.5).abs() < 1e-12);
    }
}
