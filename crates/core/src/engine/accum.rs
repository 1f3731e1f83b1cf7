//! The engine's iterate format and the two whole-vector operations on it.
//!
//! A Jacobi iterate is a [`PairVec`]: pair scores sorted by key, one entry
//! per pair — the order [`crate::scores::ScoreMatrix`] freezes from and the
//! order the pull kernel ([`super::pull`]) emits row by row.
//! [`merge_all_disjoint`] stitches per-shard iterates back together and
//! [`max_delta`] measures the change between two iterates (the convergence
//! diagnostic).

use simrankpp_util::PairKey;

/// Sorted-by-key, duplicate-free pair scores — the engine's iterate format.
pub type PairVec = Vec<(PairKey, f64)>;

/// Merges two sorted vectors whose key sets must be disjoint; a shared key
/// is an error (used by the sharded stitch, where a duplicate means two
/// shards claim the same pair). Walks the smaller side and gallops
/// (binary-searches) through the larger, copying the skipped span in bulk —
/// `O(small · log big)` comparisons plus one pass of bulk copies, so merging
/// a satellite component into the §9.2 giant costs ~memcpy, not an
/// element-by-element walk of the giant.
fn merge_two_disjoint(a: PairVec, b: PairVec) -> Result<PairVec, String> {
    if a.is_empty() {
        return Ok(b);
    }
    if b.is_empty() {
        return Ok(a);
    }
    let (big, small) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(big.len() + small.len());
    let mut i = 0usize;
    for &(k, v) in &small {
        let pos = i + big[i..].partition_point(|&(bk, _)| bk.raw() < k.raw());
        out.extend_from_slice(&big[i..pos]);
        if pos < big.len() && big[pos].0 == k {
            let (x, y) = k.parts();
            return Err(format!("pair ({x}, {y}) produced by two shards"));
        }
        out.push((k, v));
        i = pos;
    }
    out.extend_from_slice(&big[i..]);
    Ok(out)
}

/// Merges sorted, pairwise-disjoint vectors into one sorted vector, erroring
/// on any key that appears twice. The sharded engine's stitch path.
///
/// Pieces are merged smallest-pair-first (the optimal-merge-tree order): the
/// component stitch sees one giant piece and hundreds of tiny satellites,
/// and pairing by size collapses the satellites among themselves before the
/// giant is touched exactly once. A balanced tournament re-copied the giant
/// `log k` times, which dominated the whole sharded run at 10k-query scale.
pub fn merge_all_disjoint(pieces: Vec<PairVec>) -> Result<PairVec, String> {
    let pieces: Vec<PairVec> = pieces.into_iter().filter(|p| !p.is_empty()).collect();
    if pieces.is_empty() {
        return Ok(Vec::new());
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, usize)>> = pieces
        .iter()
        .enumerate()
        .map(|(i, p)| std::cmp::Reverse((p.len(), i)))
        .collect();
    let mut slots: Vec<Option<PairVec>> = pieces.into_iter().map(Some).collect();
    while heap.len() > 1 {
        let std::cmp::Reverse((_, i)) = heap.pop().unwrap();
        let std::cmp::Reverse((_, j)) = heap.pop().unwrap();
        let merged = merge_two_disjoint(
            slots[i].take().expect("heap entries own live slots"),
            slots[j].take().expect("heap entries own live slots"),
        )?;
        heap.push(std::cmp::Reverse((merged.len(), i)));
        slots[i] = Some(merged);
    }
    let std::cmp::Reverse((_, i)) = heap.pop().unwrap();
    Ok(slots[i].take().expect("final slot holds the merge result"))
}

/// Largest absolute score difference between two sorted pair vectors, over
/// the union of their keys (missing entries count as 0).
pub fn max_delta(a: &[(PairKey, f64)], b: &[(PairKey, f64)]) -> f64 {
    let mut max = 0.0f64;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.raw().cmp(&b[j].0.raw()) {
            std::cmp::Ordering::Less => {
                max = max.max(a[i].1.abs());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                max = max.max(b[j].1.abs());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                max = max.max((a[i].1 - b[j].1).abs());
                i += 1;
                j += 1;
            }
        }
    }
    for &(_, s) in &a[i..] {
        max = max.max(s.abs());
    }
    for &(_, s) in &b[j..] {
        max = max.max(s.abs());
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_all_disjoint_merges_and_rejects_overlap() {
        let a = vec![(PairKey::new(0, 1), 1.0), (PairKey::new(4, 5), 2.0)];
        let b = vec![(PairKey::new(2, 3), 0.5)];
        let m = merge_all_disjoint(vec![a.clone(), b]).unwrap();
        assert_eq!(m.len(), 3);
        assert!(m.windows(2).all(|w| w[0].0.raw() < w[1].0.raw()));

        let overlap = vec![(PairKey::new(4, 5), 0.1)];
        let err = merge_all_disjoint(vec![a, overlap]).unwrap_err();
        assert!(err.contains("(4, 5)"), "{err}");
        assert!(merge_all_disjoint(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn max_delta_covers_union() {
        let a = vec![(PairKey::new(0, 1), 0.5), (PairKey::new(2, 3), 0.1)];
        let b = vec![(PairKey::new(0, 1), 0.4), (PairKey::new(4, 5), 0.3)];
        assert!((max_delta(&a, &b) - 0.3).abs() < 1e-15);
        assert_eq!(max_delta(&[], &[]), 0.0);
    }
}
