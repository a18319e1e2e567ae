//! A KLL-style quantile sketch with a tracked worst-case rank-error bound.
//!
//! The sketch is a hierarchy of *compactors*: level `h` holds items that
//! each represent `2^h` original observations. When a level overflows its
//! capacity `k`, it is sorted and every other item is promoted to the level
//! above (the rest are discarded) — halving the level's footprint while at
//! most shifting any rank by the level's weight. Where the textbook KLL
//! flips a random coin to pick the surviving parity, this implementation
//! draws the bit from a counter-seeded splitmix64 stream, so the sketch is
//! **deterministic**: the same update sequence always yields the same
//! summary.
//!
//! Every compaction's worst-case rank perturbation (`2^h`) is accumulated
//! into [`KllSketch::error_bound`], giving a per-instance *certificate*:
//! any estimated rank is within `error_bound` of the truth. The proptests
//! assert against this certificate rather than an asymptotic formula.

use crate::hash::mix64;

/// Minimum compactor capacity (tiny capacities make the bound useless).
const MIN_K: usize = 8;

/// A deterministic KLL-style quantile sketch over `f64` observations (see
/// the module docs). Non-finite updates are ignored.
#[derive(Debug, Clone)]
pub struct KllSketch {
    /// Capacity of each compactor level.
    k: usize,
    /// `levels[h]` holds items of weight `2^h`, unsorted between compactions.
    levels: Vec<Vec<f64>>,
    /// Total observations absorbed.
    count: u64,
    /// Accumulated worst-case rank error across all compactions so far.
    error_bound: u64,
    /// Counter state of the deterministic parity stream.
    coin: u64,
}

impl KllSketch {
    /// An empty sketch with per-level capacity `k` (clamped ≥ 8) and the
    /// given parity-stream seed.
    pub fn new(k: usize, seed: u64) -> KllSketch {
        KllSketch { k: k.max(MIN_K), levels: vec![Vec::new()], count: 0, error_bound: 0, coin: mix64(seed) }
    }

    /// Total observations absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether any observation has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The certified worst-case rank error of this sketch instance: every
    /// [`KllSketch::rank`] estimate is within this many observations of the
    /// exact rank. Grows by `2^h` per level-`h` compaction.
    pub fn error_bound(&self) -> u64 {
        self.error_bound
    }

    /// Absorb one observation. Non-finite values are ignored (they carry no
    /// order information).
    pub fn update(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.levels[0].push(value);
        self.count += 1;
        self.compact_overfull();
    }

    /// Estimated number of absorbed observations strictly less than `value`.
    pub fn rank(&self, value: f64) -> u64 {
        let mut rank = 0u64;
        for (level, items) in self.levels.iter().enumerate() {
            let weight = 1u64 << level;
            rank += weight * items.iter().filter(|&&x| x < value).count() as u64;
        }
        rank
    }

    /// Estimated `phi`-quantile (`phi` clamped to `[0, 1]`); `None` while
    /// empty. The estimate is an absorbed observation whose estimated rank
    /// is nearest the target, so it is always a value that actually occurred.
    pub fn quantile(&self, phi: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let target = ((phi * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut weighted: Vec<(f64, u64)> = Vec::new();
        for (level, items) in self.levels.iter().enumerate() {
            let weight = 1u64 << level;
            weighted.extend(items.iter().map(|&x| (x, weight)));
        }
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cumulative = 0u64;
        for (value, weight) in &weighted {
            cumulative += weight;
            if cumulative >= target {
                return Some(*value);
            }
        }
        weighted.last().map(|&(value, _)| value)
    }

    /// `buckets` cut points splitting the observed distribution into
    /// `buckets + 1` roughly equal-mass ranges: the `i/(buckets+1)`
    /// quantiles, deduplicated and sorted — ready for `partition_point`
    /// bucketing of raw values.
    pub fn bucket_boundaries(&self, buckets: usize) -> Vec<f64> {
        if self.count == 0 || buckets == 0 {
            return Vec::new();
        }
        let mut cuts: Vec<f64> =
            (1..=buckets).filter_map(|i| self.quantile(i as f64 / (buckets + 1) as f64)).collect();
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        cuts
    }

    /// Compact every level that reached capacity, bottom-up (a compaction
    /// can overflow the level above).
    fn compact_overfull(&mut self) {
        let mut level = 0;
        while level < self.levels.len() {
            if self.levels[level].len() >= self.k {
                self.compact_level(level);
            }
            level += 1;
        }
    }

    /// Sort level `h`, keep every other item (parity drawn from the
    /// deterministic coin stream) and promote the survivors to level `h+1`.
    /// An odd item count leaves the maximum behind at level `h`, so only an
    /// even number of items is ever halved.
    fn compact_level(&mut self, h: usize) {
        if self.levels.len() <= h + 1 {
            self.levels.push(Vec::new());
        }
        let mut items = std::mem::take(&mut self.levels[h]);
        items.sort_by(f64::total_cmp);
        if items.len() % 2 == 1 {
            let leftover = items.pop().expect("odd-length level is non-empty");
            self.levels[h].push(leftover);
        }
        if items.is_empty() {
            return;
        }
        self.coin = mix64(self.coin);
        let offset = (self.coin & 1) as usize;
        let promoted: Vec<f64> = items.iter().skip(offset).step_by(2).copied().collect();
        self.levels[h + 1].extend(promoted);
        // Halving weight-2^h pairs perturbs any rank by at most 2^h.
        self.error_bound += 1u64 << h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exact_rank(data: &[f64], value: f64) -> u64 {
        data.iter().filter(|&&x| x < value).count() as u64
    }

    #[test]
    fn small_streams_are_exact() {
        let mut sketch = KllSketch::new(64, 1);
        for i in 0..50 {
            sketch.update(i as f64);
        }
        assert_eq!(sketch.error_bound(), 0, "no compaction below capacity");
        assert_eq!(sketch.rank(25.0), 25);
        // target rank ceil(0.5 * 50) = 25 → the 25th smallest value, 24.
        assert_eq!(sketch.quantile(0.5), Some(24.0));
        assert_eq!(sketch.count(), 50);
    }

    #[test]
    fn ignores_non_finite_values() {
        let mut sketch = KllSketch::new(16, 1);
        sketch.update(f64::NAN);
        sketch.update(f64::INFINITY);
        assert!(sketch.is_empty());
        assert_eq!(sketch.quantile(0.5), None);
    }

    #[test]
    fn deterministic_per_seed() {
        let build = |seed| {
            let mut s = KllSketch::new(32, seed);
            for i in 0..5000 {
                s.update(((i * 37) % 1000) as f64);
            }
            s
        };
        let a = build(9);
        let b = build(9);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.error_bound(), b.error_bound());
    }

    #[test]
    fn bucket_boundaries_are_sorted_and_deduped() {
        let mut sketch = KllSketch::new(64, 2);
        for i in 0..1000 {
            sketch.update((i % 10) as f64);
        }
        let cuts = sketch.bucket_boundaries(4);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
        assert!(cuts.len() <= 4);
        assert!(KllSketch::new(8, 0).bucket_boundaries(4).is_empty());
    }

    proptest! {
        /// The tracked error bound is a hard certificate: every rank
        /// estimate is within `error_bound` of the exact rank, for adversarial
        /// value streams and small capacities.
        #[test]
        fn rank_error_within_certificate(
            values in proptest::collection::vec(-1000i32..1000, 1..4000),
            k in 8usize..64,
            seed in 0u64..100,
        ) {
            let data: Vec<f64> = values.iter().map(|&v| v as f64).collect();
            let mut sketch = KllSketch::new(k, seed);
            for &v in &data {
                sketch.update(v);
            }
            prop_assert_eq!(sketch.count(), data.len() as u64);
            for probe in [-1500.0, -500.0, -1.0, 0.0, 1.0, 500.0, 1500.0] {
                let estimated = sketch.rank(probe) as i64;
                let exact = exact_rank(&data, probe) as i64;
                prop_assert!(
                    (estimated - exact).unsigned_abs() <= sketch.error_bound(),
                    "rank({}) = {} vs exact {} exceeds certificate {}",
                    probe, estimated, exact, sketch.error_bound()
                );
            }
        }

        /// At practical capacities the certificate is far below n — the
        /// property that makes the sketch worth querying at all. (Tiny
        /// capacities like k = 8 have vacuous certificates; the fit path
        /// uses k in the hundreds.)
        #[test]
        fn certificate_is_sublinear_at_practical_capacity(seed in 0u64..20) {
            let n = 10_000u64;
            let mut sketch = KllSketch::new(200, seed);
            for i in 0..n {
                sketch.update(((i * 31) % 997) as f64);
            }
            prop_assert!(
                sketch.error_bound() <= n / 10,
                "certificate {} exceeds n/10 = {}",
                sketch.error_bound(), n / 10
            );
        }

        /// Quantile estimates always return observed values with a rank near
        /// the target.
        #[test]
        fn quantiles_hit_observed_values(
            values in proptest::collection::vec(0i32..10_000, 1..1500),
            phi in 0.0f64..1.0,
        ) {
            let data: Vec<f64> = values.iter().map(|&v| v as f64).collect();
            let mut sketch = KllSketch::new(48, 5);
            for &v in &data {
                sketch.update(v);
            }
            let q = sketch.quantile(phi).unwrap();
            prop_assert!(data.contains(&q), "quantile {q} was never observed");
            let target = (phi * data.len() as f64).ceil().clamp(1.0, data.len() as f64) as i64;
            let exact = exact_rank(&data, q) as i64;
            // rank(q) counts items strictly below q; allow the duplicate run
            // containing q on top of the certificate.
            let duplicates = data.iter().filter(|&&x| x == q).count() as i64;
            prop_assert!(
                (exact - target).unsigned_abs() <= sketch.error_bound() + duplicates as u64,
                "quantile({}) = {} has exact rank {} vs target {} (cert {}, dup {})",
                phi, q, exact, target, sketch.error_bound(), duplicates
            );
        }
    }
}
