//! The engine's iterate format and the one whole-vector operation on it.
//!
//! A Jacobi iterate is a [`PairVec`]: pair scores sorted by key, one entry
//! per pair — the order [`crate::scores::ScoreMatrix`] freezes from and the
//! order the pull kernel ([`super::pull`]) emits row by row. [`max_delta`]
//! measures the change between two iterates (the convergence diagnostic).

use simrankpp_util::PairKey;

/// Sorted-by-key, duplicate-free pair scores — the engine's iterate format.
pub type PairVec = Vec<(PairKey, f64)>;

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
    fn max_delta_covers_union() {
        let a = vec![(PairKey::new(0, 1), 0.5), (PairKey::new(2, 3), 0.1)];
        let b = vec![(PairKey::new(0, 1), 0.4), (PairKey::new(4, 5), 0.3)];
        assert!((max_delta(&a, &b) - 0.3).abs() < 1e-15);
        assert_eq!(max_delta(&[], &[]), 0.0);
    }
}
