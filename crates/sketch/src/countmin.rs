//! Count-min sketch: conservative frequency estimation in fixed space.
//!
//! A count-min sketch is a `depth × width` grid of counters. Each key hashes
//! to one cell per row; `add` increments all of them and `estimate` takes the
//! minimum. Collisions only ever *inflate* a cell, so the estimate is a hard
//! upper bound on the true count — never an undercount — and the expected
//! overestimate is `N / width` per row, driven down exponentially by taking
//! the minimum over `depth` independent rows.
//!
//! All row hashes derive from a caller-provided seed (splitmix64, see
//! `crate::hash`), so estimates are reproducible across runs.

use crate::hash::seeded;

/// A seeded count-min frequency sketch (see the module docs).
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    /// Cells per row; a power of two so hash → cell is a mask, not a modulo.
    width: usize,
    depth: usize,
    seed: u64,
    /// Row-major `depth × width` counter grid.
    cells: Vec<u64>,
    /// Total weight added across all keys.
    total: u64,
}

impl CountMinSketch {
    /// An empty sketch with at least `width` cells per row (rounded up to a
    /// power of two, clamped ≥ 16) and `depth` rows (clamped to 1..=8).
    pub fn new(width: usize, depth: usize, seed: u64) -> CountMinSketch {
        let width = width.max(16).next_power_of_two();
        let depth = depth.clamp(1, 8);
        CountMinSketch { width, depth, seed, cells: vec![0; width * depth], total: 0 }
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of hash rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total weight added so far (the `N` in the `N / width` error bound).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Add `weight` occurrences of `key`.
    pub fn add(&mut self, key: u64, weight: u64) {
        for row in 0..self.depth {
            let cell = self.cell_index(row, key);
            self.cells[cell] += weight;
        }
        self.total += weight;
    }

    /// Estimated count of `key`: the minimum over rows. Guaranteed ≥ the
    /// true count; overestimates by more than `e·N/width` with probability
    /// at most `e^-depth` for keys drawn independently of the seed.
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.depth).map(|row| self.cells[self.cell_index(row, key)]).min().unwrap_or(0)
    }

    fn cell_index(&self, row: usize, key: u64) -> usize {
        let hash = seeded(self.seed.wrapping_add(row as u64), key);
        row * self.width + (hash as usize & (self.width - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn shape_is_normalised() {
        let sketch = CountMinSketch::new(100, 0, 1);
        assert_eq!(sketch.width(), 128);
        assert_eq!(sketch.depth(), 1);
        assert_eq!(CountMinSketch::new(0, 99, 1).depth(), 8);
    }

    proptest! {
        /// The one-sided guarantee is absolute: `estimate(key)` never falls
        /// below the true count, for any stream and seed.
        #[test]
        fn never_underestimates(
            keys in proptest::collection::vec(0u64..200, 1..2000),
            seed in 0u64..50,
        ) {
            let mut sketch = CountMinSketch::new(64, 4, seed);
            let mut exact: HashMap<u64, u64> = HashMap::new();
            for &key in &keys {
                sketch.add(key, 1);
                *exact.entry(key).or_default() += 1;
            }
            for (&key, &count) in &exact {
                prop_assert!(sketch.estimate(key) >= count, "undercounted key {key}");
            }
            // Keys never added can only be inflated by collisions, never
            // credited a full stream.
            prop_assert!(sketch.estimate(10_000) <= sketch.total());
        }

        /// The overestimate stays within the probabilistic bound for almost
        /// all keys: with depth 4, the chance a key exceeds `4·N/width` in
        /// every row is ≲ 4^-4, so allow at most a small handful of outliers.
        #[test]
        fn overestimates_are_bounded(
            keys in proptest::collection::vec(0u64..500, 100..3000),
            seed in 0u64..50,
        ) {
            let mut sketch = CountMinSketch::new(256, 4, seed);
            let mut exact: HashMap<u64, u64> = HashMap::new();
            for &key in &keys {
                sketch.add(key, 1);
                *exact.entry(key).or_default() += 1;
            }
            let slack = 4 * sketch.total() / sketch.width() as u64 + 1;
            let overs = exact
                .iter()
                .filter(|&(&key, &count)| sketch.estimate(key) > count + slack)
                .count();
            let allowed = (exact.len() / 8).max(1);
            prop_assert!(
                overs <= allowed,
                "{overs}/{} keys overestimated beyond {slack} (allowed {allowed})",
                exact.len()
            );
        }
    }
}
