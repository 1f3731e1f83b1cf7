//! The one sparse accumulator every row is summed in.
//!
//! A row under construction is a `SparseAccum`: the pull kernel's two
//! Gustavson passes ([`super::pull`]) and the single-source sweeps
//! ([`super::single_source`]) all add into one, and drain it either in
//! first-touch order or in ascending id.

/// A dense-scratch sparse accumulator over ids `0..len()`: dense values, a
/// `u64` occupancy bitmap and the touched ids in first-touch order.
///
/// An add is `O(1)`. A drain hands every touched cell to the caller exactly
/// once and leaves the accumulator zeroed — every value `0.0`, every bitmap
/// word `0`, the touched list empty — so one scratch serves every row of a
/// run without a clear proportional to `len()`. Values are never tested
/// against zero: a cell is touched when its bit is set, so adds that cancel
/// or add `0.0` stay touched and are drained like any other.
#[derive(Debug, Default)]
pub(crate) struct SparseAccum {
    vals: Vec<f64>,
    bits: Vec<u64>,
    touched: Vec<u32>,
    /// One past the highest bitmap word a touch has set since the last
    /// drain (0 when nothing is touched): where an ascending scan stops.
    end_word: usize,
}

impl SparseAccum {
    /// A zeroed accumulator over ids `0..n`.
    pub fn new(n: usize) -> Self {
        let mut acc = SparseAccum::default();
        acc.resize(n);
        acc
    }

    /// The id range's size: ids `0..len()` may be added.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Zeroes the accumulator ([`SparseAccum::reset`]) and re-sizes it to
    /// ids `0..n`, keeping its allocations.
    pub fn resize(&mut self, n: usize) {
        self.reset();
        self.vals.resize(n, 0.0);
        self.bits.resize(n.div_ceil(64), 0);
    }

    /// Adds `v` into `id`'s cell, marking it touched on first contact.
    #[inline(always)]
    pub fn add(&mut self, id: u32, v: f64) {
        let i = id as usize;
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.bits[w] & bit == 0 {
            self.bits[w] |= bit;
            self.touched.push(id);
            self.end_word = self.end_word.max(w + 1);
        }
        self.vals[i] += v;
    }

    /// `id`'s accumulated value (`0.0` when untouched).
    #[inline]
    pub fn get(&self, id: u32) -> f64 {
        self.vals[id as usize]
    }

    /// Zeroes every touched cell without handing it out: the recovery path
    /// for an accumulator an abandoned (panicked) computation left dirty.
    pub fn reset(&mut self) {
        for &id in &self.touched {
            self.vals[id as usize] = 0.0;
            self.bits[id as usize / 64] = 0;
        }
        self.touched.clear();
        self.end_word = 0;
    }

    /// Hands every touched `(id, value)` to `f` in first-touch order and
    /// leaves the accumulator zeroed.
    #[inline]
    pub fn drain_touched(&mut self, mut f: impl FnMut(u32, f64)) {
        for &id in &self.touched {
            // Every set bit of the word is a touched id this loop drains.
            self.bits[id as usize / 64] = 0;
            f(id, std::mem::take(&mut self.vals[id as usize]));
        }
        self.touched.clear();
        self.end_word = 0;
    }

    /// Hands every touched `(id, value)` to `f` in ascending id and leaves
    /// the accumulator zeroed, scanning the bitmap words with
    /// `trailing_zeros` from `from`'s word to the highest touched one.
    /// `from` is a lower bound the caller guarantees for every touched id;
    /// it narrows the scan.
    #[inline]
    pub fn drain_ascending(&mut self, from: u32, mut f: impl FnMut(u32, f64)) {
        if self.touched.is_empty() {
            return;
        }
        let (first, end) = (from as usize / 64, self.end_word);
        let mut drained = 0;
        for (w, word) in self.bits[first..end].iter_mut().enumerate() {
            let mut set = std::mem::take(word);
            let base = (first + w) * 64;
            while set != 0 {
                let i = base + set.trailing_zeros() as usize;
                set &= set - 1;
                f(i as u32, std::mem::take(&mut self.vals[i]));
                drained += 1;
            }
        }
        debug_assert_eq!(drained, self.touched.len(), "touched ids below {from}");
        self.touched.clear();
        self.end_word = 0;
    }

    /// The raw state — values, bitmap words, touched list — for zero-state
    /// assertions.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&[f64], &[u64], &[u32]) {
        (&self.vals, &self.bits, &self.touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeMap;

    /// Every value, bitmap word and the touched list are zero or empty.
    fn assert_zeroed(acc: &SparseAccum) {
        let (vals, words, touched) = acc.parts();
        assert!(vals.iter().all(|&v| v.to_bits() == 0), "a value survived");
        assert!(words.iter().all(|&w| w == 0), "a bitmap word survived");
        assert!(touched.is_empty(), "the touched list survived");
        assert_eq!(acc.end_word, 0);
        assert_eq!(words.len(), vals.len().div_ceil(64));
    }

    fn ascending(acc: &mut SparseAccum, from: u32) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        acc.drain_ascending(from, |i, v| out.push((i, v.to_bits())));
        assert_zeroed(acc);
        out
    }

    #[test]
    fn word_edges_drain_in_ascending_id() {
        let n = 64 * 40 + 5;
        let last = n as u32 - 1;
        let edges = [last, 64, 0, 63];
        let mut acc = SparseAccum::new(n);
        for (k, &id) in edges.iter().enumerate() {
            acc.add(id, k as f64 + 0.5);
        }
        let want = vec![
            (0, 2.5f64.to_bits()),
            (63, 3.5f64.to_bits()),
            (64, 1.5f64.to_bits()),
            (last, 0.5f64.to_bits()),
        ];
        assert_eq!(ascending(&mut acc, 0), want);
        // The same four among every third id.
        let filler: Vec<u32> = (1..last).filter(|i| i % 3 == 1 && *i != 64).collect();
        for &id in edges.iter().chain(&filler) {
            acc.add(id, 1.0);
        }
        let got = ascending(&mut acc, 0);
        let mut ids: Vec<u32> = edges.iter().chain(&filler).copied().collect();
        ids.sort_unstable();
        assert_eq!(got.iter().map(|&(i, _)| i).collect::<Vec<_>>(), ids);
    }

    #[test]
    fn a_lower_bound_narrows_the_scan() {
        let n = 1000;
        for from in [1u32, 63, 64, 130, 999] {
            let mut acc = SparseAccum::new(n);
            acc.add(999, 2.0);
            acc.add(from, 1.0);
            let want = if from == 999 {
                vec![(999, 3.0f64.to_bits())]
            } else {
                vec![(from, 1.0f64.to_bits()), (999, 2.0f64.to_bits())]
            };
            assert_eq!(ascending(&mut acc, from), want, "from {from}");
            // Every id from the bound up.
            for id in from..n as u32 {
                acc.add(id, -0.25);
            }
            let got = ascending(&mut acc, from);
            assert_eq!(got.len(), n - from as usize, "from {from}");
            assert!(got.iter().zip(from..).all(|(&(i, _), want)| i == want));
        }
    }

    #[test]
    fn every_row_shape_drains_in_ascending_id() {
        // Few ids over a wide span, dense runs, ids on word edges (every
        // edge of 40 words, then a few edges far apart), and a bound inside
        // the first word; each id takes two adds.
        let n = 64 * 300;
        let rows: [(Vec<u32>, u32); 5] = [
            (vec![64 * 299 + 5, 3, 64 * 150, 64 * 77 + 63], 0),
            ((200..1400).rev().chain(2000..2100).collect(), 200),
            (
                (0..40).rev().flat_map(|w| [64 * w + 63, 64 * w]).collect(),
                0,
            ),
            (vec![127, 64, 0, 63, 64 * 300 - 1], 0),
            (
                vec![64 * 40 + 9, 64 * 40 + 62, 64 * 41, 64 * 280],
                64 * 40 + 9,
            ),
        ];
        let mut acc = SparseAccum::new(n);
        for (ids, from) in rows {
            let mut oracle = BTreeMap::new();
            for (k, &id) in ids.iter().enumerate() {
                for v in [0.1 * k as f64 - 1.0, 1e-3] {
                    acc.add(id, v);
                    *oracle.entry(id).or_insert(0.0) += v;
                }
            }
            let want: Vec<_> = oracle.iter().map(|(&i, v)| (i, v.to_bits())).collect();
            assert_eq!(ascending(&mut acc, from), want, "from {from}");
        }
    }

    #[test]
    fn zero_negative_and_repeated_adds_stay_touched() {
        let mut acc = SparseAccum::new(200);
        acc.add(5, 0.0);
        acc.add(7, 1.0);
        acc.add(7, -1.0);
        acc.add(150, -3.0);
        acc.add(150, -0.5);
        acc.add(7, 0.25);
        let mut order = Vec::new();
        acc.drain_touched(|i, v| order.push((i, v)));
        assert_eq!(order, [(5, 0.0), (7, 0.25), (150, -3.5)]);
        assert_zeroed(&acc);
        // A cell that cancels to exactly zero is still handed out.
        acc.add(9, 1.5);
        acc.add(9, -1.5);
        assert_eq!(ascending(&mut acc, 0), [(9, 0.0f64.to_bits())]);
    }

    #[test]
    fn pruning_filters_the_drain() {
        let mut acc = SparseAccum::new(300);
        for (id, v) in [(3, 1e-5), (70, -2e-4), (71, 5e-5), (290, 0.3), (3, 1e-5)] {
            acc.add(id, v);
        }
        let mut kept = Vec::new();
        acc.drain_ascending(0, |i, v| {
            if v.abs() > 1e-4 {
                kept.push(i);
            }
        });
        assert_eq!(kept, [70, 290]);
        assert_zeroed(&acc);
    }

    #[test]
    fn reset_and_growth_zero_an_abandoned_accumulator() {
        let mut acc = SparseAccum::new(130);
        for id in [0, 64, 129, 64] {
            acc.add(id, 7.0);
        }
        acc.reset();
        assert_zeroed(&acc);
        // Growth with cells pending, then shrinking: zeroed, new ids usable.
        acc.add(129, 1.0);
        acc.resize(4000);
        assert_zeroed(&acc);
        assert_eq!(acc.len(), 4000);
        acc.add(3999, 2.0);
        acc.add(129, 1.0);
        assert_eq!(
            ascending(&mut acc, 0),
            [(129, 1.0f64.to_bits()), (3999, 2.0f64.to_bits())]
        );
        acc.add(3000, 1.0);
        acc.resize(65);
        assert_zeroed(&acc);
        acc.add(64, 1.0);
        assert_eq!(ascending(&mut acc, 64), [(64, 1.0f64.to_bits())]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn drains_match_a_btreemap_oracle(
            n in 1usize..4000,
            lower in 0usize..100,
            ops in proptest::collection::vec((0usize..1 << 20, -2.0f64..2.0, 0u8..4), 0..400),
            few in 0u8..2,
        ) {
            // Ids fall in [from, n); a quarter of the adds repeat the last
            // id. Half the cases keep at most 12 adds: sparse words.
            let ops = &ops[..if few == 1 { ops.len().min(12) } else { ops.len() }];
            let from = n * lower / 100;
            let mut acc = SparseAccum::new(n);
            for round in 0..2 {
                let mut oracle: BTreeMap<u32, f64> = BTreeMap::new();
                let mut first_touch = Vec::new();
                let mut last = from as u32;
                for &(raw, v, repeat) in ops {
                    let id = if repeat == 0 { last } else { (from + raw % (n - from)) as u32 };
                    last = id;
                    acc.add(id, v);
                    let cell = oracle.entry(id).or_insert_with(|| {
                        first_touch.push(id);
                        0.0
                    });
                    *cell += v;
                }
                for (&id, &v) in &oracle {
                    proptest::prop_assert_eq!(acc.get(id).to_bits(), v.to_bits());
                }
                let got = if round == 0 {
                    ascending(&mut acc, from as u32)
                } else {
                    let mut out = Vec::new();
                    acc.drain_touched(|i, v| out.push((i, v.to_bits())));
                    assert_zeroed(&acc);
                    let want: Vec<_> = first_touch.iter().map(|i| (*i, oracle[i].to_bits())).collect();
                    proptest::prop_assert_eq!(&out, &want);
                    out.sort_unstable();
                    out
                };
                let want: Vec<_> = oracle.iter().map(|(&i, v)| (i, v.to_bits())).collect();
                proptest::prop_assert_eq!(got, want);
            }
        }
    }
}
