//! Sparse symmetric score storage.
//!
//! SimRank scores are symmetric with unit diagonal, so only off-diagonal
//! pairs are stored, and each score is stored once per endpoint row: a frozen
//! [`ScoreMatrix`] is one per-node CSR arena for fast `get` and id-sorted
//! row reads, and its pair list is the arena's upper triangle. Ranking a row
//! is [`crate::rewriter::funnel`]'s job, not the matrix's.
//!
//! The engine (`engine::pull`) emits each half-step's upper-triangle rows
//! (`UpperRows`) and freezes them into that arena in place, so an iterate
//! never exists as a pair list beside its matrix. [`ScoreMatrixBuilder`], an
//! unordered-pair → score hash map, is the accumulating path of the Naive and
//! Pearson scores, the hash-map reference engine and tests.

use simrankpp_util::{FxHashMap, PairKey};

/// Upper-triangle rows over a contiguous block of row ids, as the pull
/// kernel emits them: block row `r` holds its partners above its own id,
/// ascending, at `partners[offsets[r]..offsets[r + 1]]` (with `scores`
/// aligned). [`ScoreMatrix::from_upper_rows`] freezes blocks that cover
/// every row, in row order.
#[derive(Debug)]
pub(crate) struct UpperRows {
    offsets: Vec<u64>,
    partners: Vec<u32>,
    scores: Vec<f64>,
}

impl UpperRows {
    /// No rows yet, with room for `rows` row bounds.
    pub(crate) fn new(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        UpperRows {
            offsets,
            partners: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Appends one entry to the row under construction.
    #[inline]
    pub(crate) fn push(&mut self, partner: u32, score: f64) {
        self.partners.push(partner);
        self.scores.push(score);
    }

    /// Appends to the row under construction the entries of block row
    /// `source` whose partner is above `above`.
    #[inline]
    pub(crate) fn push_tail_of(&mut self, source: usize, above: u32) {
        let (lo, hi) = (
            self.offsets[source] as usize,
            self.offsets[source + 1] as usize,
        );
        let from = lo + self.partners[lo..hi].partition_point(|&p| p <= above);
        self.partners.extend_from_within(from..hi);
        self.scores.extend_from_within(from..hi);
    }

    /// Closes the row under construction.
    #[inline]
    pub(crate) fn end_row(&mut self) {
        self.offsets.push(self.partners.len() as u64);
    }
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
/// One flat CSR arena (`offsets`/`partners`/`scores`) holds every stored
/// score once per endpoint row: one allocation per side instead of one per
/// node, `O(1)` [`ScoreMatrix::row`] slice views, and the layout the pull
/// kernel reads its previous iterate from. The pair list
/// ([`ScoreMatrix::sorted_pairs`]) is read off the arena's upper triangle,
/// not stored beside it.
#[derive(Debug, Clone, Default)]
pub struct ScoreMatrix {
    n: usize,
    /// Row bounds into `partners`/`scores`: node `a`'s row is
    /// `offsets[a]..offsets[a + 1]`. Length `n + 1`.
    offsets: Vec<u64>,
    /// Partner ids, ascending within each row.
    partners: Vec<u32>,
    /// Scores aligned with `partners`; strictly positive.
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

    /// Freezes an already key-sorted, duplicate-free pair list without the
    /// hash-map detour of [`ScoreMatrixBuilder`]. Non-positive scores are
    /// dropped. The list is consumed into upper-triangle rows and frozen
    /// like the engine's (see `ScoreMatrix::from_upper_rows`).
    ///
    /// # Panics
    /// Debug builds panic if the kept pairs are not strictly sorted by
    /// packed key.
    pub fn from_sorted_pairs(n: usize, pairs: Vec<(PairKey, f64)>) -> Self {
        let m = pairs.iter().filter(|&&(_, v)| v > 0.0).count();
        let mut rows = UpperRows {
            offsets: vec![0; n + 1],
            partners: Vec::with_capacity(2 * m),
            scores: Vec::with_capacity(2 * m),
        };
        let mut last = None;
        for (k, v) in pairs.into_iter().filter(|&(_, v)| v > 0.0) {
            debug_assert!(last < Some(k.raw()), "pairs must be strictly sorted by key");
            last = Some(k.raw());
            let (a, b) = k.parts();
            rows.offsets[a as usize + 1] += 1;
            rows.push(b, v);
        }
        for i in 0..n {
            rows.offsets[i + 1] += rows.offsets[i];
        }
        ScoreMatrix::from_upper_rows(n, vec![rows])
    }

    /// Freezes upper-triangle row blocks that cover rows `0..n` in order
    /// into the symmetric arena, in place.
    ///
    /// The first block's buffers grow once to hold both triangles and the
    /// later blocks are appended to them, each freed as it is copied. Then a
    /// counting pass sizes every row's lower run, each row's upper run
    /// shifts right past it — last row first, so a run only ever lands on
    /// slots no earlier row still occupies — and one scan of the upper
    /// triangle in row order writes every lower run. Row `r` first receives
    /// its partners `< r` in ascending order and then holds its own upper
    /// run, so **rows come out sorted without any per-row sort**, and the
    /// pair list and its arena are never held at once.
    pub(crate) fn from_upper_rows(n: usize, blocks: Vec<UpperRows>) -> Self {
        let m: usize = blocks.iter().map(|b| b.partners.len()).sum();
        let mut blocks = blocks.into_iter();
        let mut rows = blocks.next().unwrap_or_else(|| UpperRows::new(0));
        rows.partners.reserve_exact(2 * m - rows.partners.len());
        rows.scores.reserve_exact(2 * m - rows.scores.len());
        for block in blocks {
            let base = rows.partners.len() as u64;
            rows.offsets
                .extend(block.offsets[1..].iter().map(|&o| base + o));
            rows.partners.extend_from_slice(&block.partners);
            rows.scores.extend_from_slice(&block.scores);
        }
        let UpperRows {
            mut offsets,
            mut partners,
            mut scores,
        } = rows;
        assert_eq!(offsets.len(), n + 1, "row blocks must cover every row");

        // `cursor[r]`: row r's lower-run length, then its next lower slot.
        let mut cursor = vec![0usize; n];
        for &p in &partners {
            cursor[p as usize] += 1;
        }
        partners.resize(2 * m, 0);
        scores.resize(2 * m, 0.0);
        // A no-op unless a tiny first block came with more room than both
        // triangles need.
        partners.shrink_to_fit();
        scores.shrink_to_fit();
        let (mut below, mut upper_end) = (m, m);
        offsets[n] = 2 * m as u64;
        for r in (0..n).rev() {
            below -= cursor[r];
            let lo = offsets[r] as usize;
            let start = lo + below;
            partners.copy_within(lo..upper_end, start + cursor[r]);
            scores.copy_within(lo..upper_end, start + cursor[r]);
            offsets[r] = start as u64;
            cursor[r] = start;
            upper_end = lo;
        }
        // Every row below `q` has written its entry into row q's lower run
        // by the time the scan reaches q, so `cursor[q]` is where q's upper
        // run starts.
        for q in 0..n {
            for i in cursor[q]..offsets[q + 1] as usize {
                let p = partners[i] as usize;
                partners[cursor[p]] = q as u32;
                scores[cursor[p]] = scores[i];
                cursor[p] += 1;
            }
        }
        debug_assert!(
            (0..n).all(|r| partners[offsets[r] as usize..offsets[r + 1] as usize]
                .windows(2)
                .all(|w| w[0] < w[1]))
        );
        ScoreMatrix {
            n,
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
        self.partners.len() / 2
    }

    /// Score of `(a, b)`: 1 on the diagonal, 0 for unstored pairs.
    pub fn get(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 1.0;
        }
        let (ids, vals) = self.row(a);
        ids.binary_search(&b).map(|i| vals[i]).unwrap_or(0.0)
    }

    /// The stored off-diagonal pairs in packed-key-sorted order — the upper
    /// triangle of the arena, row by row.
    pub fn sorted_pairs(&self) -> impl Iterator<Item = (PairKey, f64)> + '_ {
        self.iter().map(|(a, b, v)| (PairKey::new(a, b), v))
    }

    /// All stored `(a, b, score)` with `a < b`, ascending by `(a, b)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.n as u32).flat_map(move |a| {
            let (ids, vals) = self.row(a);
            let above = ids.partition_point(|&b| b < a);
            ids[above..]
                .iter()
                .zip(&vals[above..])
                .map(move |(&b, &v)| (a, b, v))
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

    /// Largest absolute score difference against another matrix over the
    /// union of stored pairs, an unstored pair reading 0 (the engine's
    /// convergence check and the cross-engine metric): one merge of the two
    /// upper triangles.
    pub fn max_abs_diff(&self, other: &ScoreMatrix) -> f64 {
        let (mut a, mut b) = (
            self.sorted_pairs().peekable(),
            other.sorted_pairs().peekable(),
        );
        let mut max = 0.0f64;
        loop {
            let d = match (a.peek(), b.peek()) {
                (Some(&(ka, va)), Some(&(kb, vb))) => match ka.raw().cmp(&kb.raw()) {
                    std::cmp::Ordering::Less => {
                        a.next();
                        va.abs()
                    }
                    std::cmp::Ordering::Greater => {
                        b.next();
                        vb.abs()
                    }
                    std::cmp::Ordering::Equal => {
                        a.next();
                        b.next();
                        (va - vb).abs()
                    }
                },
                (Some(&(_, v)), None) => {
                    a.next();
                    v.abs()
                }
                (None, Some(&(_, v))) => {
                    b.next();
                    v.abs()
                }
                (None, None) => return max,
            };
            max = max.max(d);
        }
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
        // Shared pairs compare by difference, one-sided ones by magnitude.
        let ma = ScoreMatrix::from_sorted_pairs(
            6,
            vec![(PairKey::new(0, 1), 0.5), (PairKey::new(2, 3), 0.1)],
        );
        let mb = ScoreMatrix::from_sorted_pairs(
            6,
            vec![(PairKey::new(0, 1), 0.4), (PairKey::new(4, 5), 0.3)],
        );
        assert!((ma.max_abs_diff(&mb) - 0.3).abs() < 1e-15);
        assert_eq!(
            ScoreMatrix::empty(4).max_abs_diff(&ScoreMatrix::empty(2)),
            0.0
        );
    }

    /// Splits a key-sorted pair list at rows `cuts` (taken modulo `n + 1`)
    /// into the upper-row blocks that one pull worker per chunk emits.
    fn blocks_of(n: usize, pairs: &[(PairKey, f64)], cuts: &[usize]) -> Vec<UpperRows> {
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        bounds.dedup();
        bounds
            .windows(2)
            .map(|w| {
                let mut rows = UpperRows::new(w[1] - w[0]);
                for r in w[0]..w[1] {
                    for &(k, v) in pairs.iter().filter(|(k, _)| k.parts().0 as usize == r) {
                        rows.push(k.parts().1, v);
                    }
                    rows.end_row();
                }
                rows
            })
            .collect()
    }

    fn bits(pairs: impl Iterator<Item = (PairKey, f64)>) -> Vec<(u64, u64)> {
        pairs.map(|(k, v)| (k.raw(), v.to_bits())).collect()
    }

    #[test]
    fn a_frozen_matrix_holds_exactly_both_triangles() {
        // Rows 0 and 3 are empty, node 4 = n − 1 has partners only below
        // it, and the three blocks are copied into the first one's buffers.
        let pairs = vec![
            (PairKey::new(1, 2), 0.5),
            (PairKey::new(1, 4), 0.25),
            (PairKey::new(2, 4), 0.125),
        ];
        let m = ScoreMatrix::from_upper_rows(5, blocks_of(5, &pairs, &[2, 3]));
        assert_eq!(m.offsets, vec![0, 0, 2, 4, 4, 6]);
        assert_eq!(m.partners, vec![2, 4, 1, 4, 1, 2]);
        assert_eq!(m.scores, vec![0.5, 0.25, 0.5, 0.125, 0.25, 0.125]);
        assert_eq!((m.partners.capacity(), m.scores.capacity()), (6, 6));
        assert_eq!(m.n_pairs(), 3);
        assert_eq!(bits(m.sorted_pairs()), bits(pairs.into_iter()));
        let m = ScoreMatrix::from_upper_rows(0, Vec::new());
        assert_eq!((m.n_nodes(), m.n_pairs()), (0, 0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn the_upper_triangle_reads_back_the_pair_list(
            n in 1usize..48,
            raw in proptest::collection::vec((0u32..1 << 16, 0u32..1 << 16, 0u64..1 << 52), 0..200),
            cuts in proptest::collection::vec(0usize..64, 0..4),
        ) {
            // Positive scores with arbitrary mantissas; many rows stay empty
            // at small pair counts, and node n − 1 has partners only below.
            let mut pairs: Vec<(PairKey, f64)> = raw
                .iter()
                .map(|&(a, b, m)| (a % n as u32, b % n as u32, m))
                .filter(|&(a, b, _)| a != b)
                .map(|(a, b, m)| (PairKey::new(a, b), f64::from_bits(0x3f00_0000_0000_0000 | m)))
                .collect();
            pairs.sort_unstable_by_key(|&(k, _)| k.raw());
            pairs.dedup_by_key(|(k, _)| k.raw());
            let m = ScoreMatrix::from_sorted_pairs(n, pairs.clone());
            proptest::prop_assert_eq!(bits(m.sorted_pairs()), bits(pairs.iter().copied()));
            proptest::prop_assert_eq!(m.n_pairs(), pairs.len());
            proptest::prop_assert_eq!(m.partners.capacity(), 2 * pairs.len());
            proptest::prop_assert_eq!(m.scores.capacity(), 2 * pairs.len());
            for &(k, v) in &pairs {
                let (a, b) = k.parts();
                proptest::prop_assert_eq!(m.get(a, b).to_bits(), v.to_bits());
                proptest::prop_assert_eq!(m.get(b, a).to_bits(), v.to_bits());
            }
            // The engine's path: the same rows in blocks, frozen in place.
            let blocked = ScoreMatrix::from_upper_rows(n, blocks_of(n, &pairs, &cuts));
            proptest::prop_assert_eq!(&blocked.offsets, &m.offsets);
            proptest::prop_assert_eq!(&blocked.partners, &m.partners);
            proptest::prop_assert_eq!(bits(blocked.sorted_pairs()), bits(m.sorted_pairs()));
            proptest::prop_assert_eq!(blocked.partners.capacity(), 2 * pairs.len());
            proptest::prop_assert_eq!(blocked.scores.capacity(), 2 * pairs.len());
        }
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
