//! Deterministic, mergeable sketches for sub-linear model fitting.
//!
//! Exact fitting is O(rows × column-pairs); at scale the statistics feeding
//! *structure search* do not need that precision. This crate provides the
//! summaries the budgeted fit path (`BCleanConfig::fit_budget`) is built
//! from:
//!
//! * [`RowReservoir`] — a bottom-k row sample: deterministic per seed,
//!   order-independent, and shard-composable (merging per-shard reservoirs
//!   yields exactly the one-shot sample);
//! * [`KllSketch`] — a KLL-style quantile sketch replacing exact sorts for
//!   numeric/ordinal summaries, with a worst-case rank-error bound;
//! * [`CountMinSketch`] — conservative frequency estimation (never
//!   underestimates);
//! * [`SpaceSaving`] — heavy-hitter candidate tracking with the classic
//!   `N / capacity` admission guarantee;
//! * [`heavy_hitter_codes`] — the space-saving + count-min composition the
//!   structure learner uses to pick the tracked top-K codes of a
//!   high-cardinality dictionary.
//!
//! Every sketch here is **deterministic**: all hashing is seeded splitmix64,
//! KLL compaction offsets come from a counter-derived bit stream, and no
//! sketch consults ambient randomness or time. Rebuilding a sketch from the
//! same stream (in any order, via any merge tree for the mergeable ones)
//! reproduces it exactly — the property the budgeted fit's per-seed
//! reproducibility tests lean on.

mod hash;

pub mod budget;
pub mod countmin;
pub mod kll;
pub mod reservoir;
pub mod spacesaving;

pub use budget::{BudgetParams, FitBudget};
pub use countmin::CountMinSketch;
pub use kll::KllSketch;
pub use reservoir::RowReservoir;
pub use spacesaving::SpaceSaving;

/// Select (up to) the `k` most frequent codes of a stream in one pass,
/// composing the two summaries: [`SpaceSaving`] (capacity `2k`) nominates
/// candidate heavy hitters — anything occurring more than `N / 2k` times is
/// guaranteed to be tracked — and a [`CountMinSketch`] refines the
/// candidates' overestimated counts so the final top-`k` ranking is driven
/// by the tighter of the two bounds. Ties break towards the smaller code, so
/// the selection is a pure function of the multiset of codes and the seed.
///
/// The returned codes are sorted ascending (a canonical set representation
/// for building code→bucket maps), not by frequency.
pub fn heavy_hitter_codes<I>(codes: I, k: usize, seed: u64) -> Vec<u32>
where
    I: IntoIterator<Item = u32>,
{
    if k == 0 {
        return Vec::new();
    }
    let mut candidates = SpaceSaving::new(2 * k);
    let mut counts = CountMinSketch::new(8 * k, 4, seed);
    for code in codes {
        candidates.offer(code as u64);
        counts.add(code as u64, 1);
    }
    let mut ranked: Vec<(u64, u32)> = candidates
        .entries()
        .into_iter()
        .map(|(key, count, _err)| (count.min(counts.estimate(key)), key as u32))
        .collect();
    // Highest refined count first, then smaller code; keep k and canonicalise.
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    let mut selected: Vec<u32> = ranked.into_iter().map(|(_, code)| code).collect();
    selected.sort_unstable();
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_hitters_find_the_frequent_codes() {
        // 8 frequent codes (1000 each) over a long tail of singletons.
        let mut stream = Vec::new();
        for code in 0..8u32 {
            stream.extend(std::iter::repeat_n(code, 1000));
        }
        stream.extend(1000..3000u32);
        let selected = heavy_hitter_codes(stream.iter().copied(), 8, 42);
        assert_eq!(selected, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn heavy_hitters_are_order_independent_and_seeded() {
        let forward: Vec<u32> = (0..500).map(|i| i % 40).collect();
        let mut backward = forward.clone();
        backward.reverse();
        let a = heavy_hitter_codes(forward.iter().copied(), 10, 7);
        let b = heavy_hitter_codes(backward.iter().copied(), 10, 7);
        // Uniform frequencies: ties resolve by code, identically per seed.
        assert_eq!(a, heavy_hitter_codes(forward.iter().copied(), 10, 7));
        assert_eq!(a.len(), 10);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn heavy_hitters_edge_cases() {
        assert!(heavy_hitter_codes(std::iter::empty(), 8, 1).is_empty());
        assert!(heavy_hitter_codes([1u32, 2, 3], 0, 1).is_empty());
        // Fewer distinct codes than k: everything is returned.
        assert_eq!(heavy_hitter_codes([5u32, 5, 2], 8, 1), vec![2, 5]);
    }
}
