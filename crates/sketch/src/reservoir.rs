//! Deterministic bottom-k row sampling.
//!
//! A classic reservoir sample (Vitter's algorithm R) depends on the order
//! rows are offered in. The *bottom-k* formulation does not — hash every row
//! index under a seed and keep the `k` smallest hashes. Selection is then a
//! pure function of the offered index **set** and the seed: offering in any
//! order reproduces the same sample exactly.

use std::collections::BTreeSet;

use crate::hash::seeded;

/// A bottom-k sample over global row indices (see the module docs).
#[derive(Debug, Clone)]
pub struct RowReservoir {
    capacity: usize,
    seed: u64,
    /// The `capacity` smallest `(hash, index)` pairs seen so far. The
    /// ordered-set representation both deduplicates re-offered indices and
    /// keeps eviction of the current maximum O(log k).
    entries: BTreeSet<(u64, usize)>,
}

impl RowReservoir {
    /// An empty reservoir holding at most `capacity` rows (clamped ≥ 1),
    /// sampling under `seed`.
    pub fn new(capacity: usize, seed: u64) -> RowReservoir {
        RowReservoir { capacity: capacity.max(1), seed, entries: BTreeSet::new() }
    }

    /// The sample-size bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of rows currently sampled (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the reservoir holds no rows yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offer one global row index. Re-offering an index is a no-op.
    pub fn offer(&mut self, index: usize) {
        let key = (seeded(self.seed, index as u64), index);
        if self.entries.len() < self.capacity {
            self.entries.insert(key);
            return;
        }
        let max = *self.entries.iter().next_back().expect("reservoir at capacity is non-empty");
        if key < max && self.entries.insert(key) {
            self.entries.pop_last();
        }
    }

    /// Offer every index of a range.
    pub fn offer_range(&mut self, rows: std::ops::Range<usize>) {
        for index in rows {
            self.offer(index);
        }
    }

    /// The sampled row indices in ascending order (the canonical gather
    /// order for building a row-subset view of a dataset).
    pub fn selected_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.entries.iter().map(|&(_, index)| index).collect();
        rows.sort_unstable();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_order_independent() {
        let mut forward = RowReservoir::new(10, 99);
        forward.offer_range(0..1000);
        let mut backward = RowReservoir::new(10, 99);
        for i in (0..1000).rev() {
            backward.offer(i);
        }
        assert_eq!(forward.selected_rows(), backward.selected_rows());
        assert_eq!(forward.len(), 10);
    }

    #[test]
    fn different_seeds_draw_different_samples() {
        let mut a = RowReservoir::new(20, 1);
        let mut b = RowReservoir::new(20, 2);
        a.offer_range(0..10_000);
        b.offer_range(0..10_000);
        assert_ne!(a.selected_rows(), b.selected_rows());
    }

    #[test]
    fn undersized_streams_keep_every_row() {
        let mut r = RowReservoir::new(100, 3);
        r.offer_range(0..30);
        assert_eq!(r.selected_rows(), (0..30).collect::<Vec<_>>());
        assert!(!r.is_empty());
        // Re-offering changes nothing.
        r.offer(5);
        assert_eq!(r.len(), 30);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // A bottom-k sample of half the stream must cover both halves of the
        // index space — catches accidental bias towards low/high indices.
        let mut r = RowReservoir::new(500, 11);
        r.offer_range(0..1000);
        let low = r.selected_rows().iter().filter(|&&i| i < 500).count();
        assert!((150..=350).contains(&low), "suspiciously skewed sample: {low}/500 low indices");
    }

    #[test]
    fn capacity_is_clamped() {
        let mut r = RowReservoir::new(0, 1);
        r.offer_range(0..10);
        assert_eq!(r.len(), 1);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.seed(), 1);
    }
}
