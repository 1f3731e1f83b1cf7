//! Canonical symmetric pair keys.
//!
//! SimRank scores are symmetric: `s(a,b) = s(b,a)`. Storing one entry per
//! unordered pair halves memory. A [`PairKey`] packs the two `u32` ids into a
//! single `u64` with the smaller id in the high half, so it is `Copy`, hashes
//! as one word, and sorts in (min, max) lexicographic order.

/// An unordered pair of `u32` ids packed into a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairKey(u64);

impl PairKey {
    /// Builds the canonical key for `(a, b)`; order of arguments is irrelevant.
    #[inline]
    pub fn new(a: u32, b: u32) -> Self {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        PairKey(((lo as u64) << 32) | hi as u64)
    }

    /// The smaller id of the pair.
    #[inline]
    pub fn first(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The larger id of the pair.
    #[inline]
    pub fn second(self) -> u32 {
        self.0 as u32
    }

    /// Unpacks into `(min, max)`.
    #[inline]
    pub fn parts(self) -> (u32, u32) {
        (self.first(), self.second())
    }

    /// `true` when both ids are the same node.
    #[inline]
    pub fn is_diagonal(self) -> bool {
        self.first() == self.second()
    }

    /// Raw packed representation (stable across runs; useful for sorting).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl From<(u32, u32)> for PairKey {
    fn from((a, b): (u32, u32)) -> Self {
        PairKey::new(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_construction() {
        assert_eq!(PairKey::new(3, 9), PairKey::new(9, 3));
    }

    #[test]
    fn parts_are_sorted() {
        let k = PairKey::new(9, 3);
        assert_eq!(k.parts(), (3, 9));
        assert_eq!(k.first(), 3);
        assert_eq!(k.second(), 9);
    }

    #[test]
    fn diagonal_detection() {
        assert!(PairKey::new(5, 5).is_diagonal());
        assert!(!PairKey::new(5, 6).is_diagonal());
    }

    #[test]
    fn ordering_is_min_major() {
        let a = PairKey::new(1, 100);
        let b = PairKey::new(2, 3);
        assert!(a < b, "pairs sort by smaller id first");
    }

    #[test]
    fn extremes_roundtrip() {
        let k = PairKey::new(u32::MAX, 0);
        assert_eq!(k.parts(), (0, u32::MAX));
    }
}
