//! The shared parallel execution layer of the BClean workspace.
//!
//! Every parallel hot path — the cleaning loop in [`crate::BCleanModel::clean`]
//! and the per-dataset method runs of the evaluation harness — goes through
//! [`ParallelExecutor`] instead of hand-rolling `std::thread::scope` chunking.
//! The executor splits an index space `[0, items)` into fixed-size blocks and
//! lets worker threads claim blocks from a shared queue as they become idle,
//! so an unlucky thread that lands on expensive rows does not stall the rest
//! of the pool.
//!
//! Determinism is a hard requirement: cleaning results must not depend on the
//! thread count or on scheduling luck. Two properties guarantee it:
//!
//! * the block partition is a pure function of `items` (never of the thread
//!   count), so every run processes identical ranges;
//! * block results are reassembled in block order before they are merged, so
//!   the merged output is byte-identical to a sequential left-to-right run.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::config::BCleanConfig;
use crate::report::CleaningStats;

/// Minimum rows per scheduling block. Small enough to balance skewed
/// workloads at bench scale (hundreds to thousands of rows), large enough to
/// amortise the (tiny) cost of claiming a block.
const MIN_BLOCK_SIZE: usize = 32;

/// Upper bound on the number of scheduling blocks a single workload is split
/// into. Million-row workloads under the old fixed 32-row blocks produced
/// tens of thousands of blocks, and the per-block costs (queue claim, result
/// `Vec` allocation, tagged merge) started to rival the per-row work; capping
/// the block count keeps the scheduling overhead flat while still leaving
/// ~256 blocks per worker for load balancing.
const MAX_BLOCKS: usize = 1024;

/// The scheduling block size for a workload of `items` units: a **pure
/// function of `items`** — never of the thread count — so the partition, and
/// therefore the merged output, is identical for every thread count.
fn adaptive_block_size(items: usize) -> usize {
    items.div_ceil(MAX_BLOCKS).max(MIN_BLOCK_SIZE)
}

/// A scoped thread pool that self-schedules fixed-size blocks of an index
/// space across worker threads and merges results deterministically.
///
/// ```
/// use bclean_core::exec::ParallelExecutor;
///
/// let squares = ParallelExecutor::new(4).execute(10, |range| {
///     range.map(|i| i * i).collect::<Vec<_>>()
/// });
/// let flat: Vec<usize> = squares.into_iter().flatten().collect();
/// assert_eq!(flat, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: usize,
    /// Explicit block-size override; 0 selects [`adaptive_block_size`].
    block_size: usize,
}

impl ParallelExecutor {
    /// An executor with an explicit worker count (clamped to at least 1) and
    /// workload-adaptive block sizing.
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor { threads: threads.max(1), block_size: 0 }
    }

    /// The executor configured by a [`BCleanConfig`] for a workload of
    /// `items` units: honours [`BCleanConfig::effective_threads`] and never
    /// spawns more workers than there are items.
    pub fn for_config(config: &BCleanConfig, items: usize) -> ParallelExecutor {
        ParallelExecutor::new(config.effective_threads().min(items.max(1)))
    }

    /// Override the scheduling block size (mainly for tests; the default
    /// suits row-level cleaning work).
    pub fn with_block_size(mut self, block_size: usize) -> ParallelExecutor {
        self.block_size = block_size.max(1);
        self
    }

    /// The number of worker threads this executor uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Process `[0, items)` in blocks, calling `worker` once per block, and
    /// return the per-block results **in block order** regardless of which
    /// thread produced them. With one worker thread (or a workload of at most
    /// one block) everything runs on the calling thread.
    pub fn execute<T, F>(&self, items: usize, worker: F) -> Vec<T>
    where
        F: Fn(Range<usize>) -> T + Sync,
        T: Send,
    {
        if items == 0 {
            return Vec::new();
        }
        let block_size = if self.block_size == 0 { adaptive_block_size(items) } else { self.block_size };
        let num_blocks = items.div_ceil(block_size);
        let block_range = |block: usize| {
            let lo = block * block_size;
            lo..((block + 1) * block_size).min(items)
        };

        if self.threads <= 1 || num_blocks <= 1 {
            return (0..num_blocks).map(|b| worker(block_range(b))).collect();
        }

        // Self-scheduling queue: idle workers claim the next unprocessed
        // block, so load imbalance between blocks is absorbed automatically.
        let next_block = AtomicUsize::new(0);
        let workers = self.threads.min(num_blocks);
        let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced = Vec::new();
                        loop {
                            let block = next_block.fetch_add(1, Ordering::Relaxed);
                            if block >= num_blocks {
                                break;
                            }
                            produced.push((block, worker(block_range(block))));
                        }
                        produced
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("parallel executor worker panicked"))
                .collect()
        });
        tagged.sort_by_key(|(block, _)| *block);
        tagged.into_iter().map(|(_, result)| result).collect()
    }

    /// Convenience over [`ParallelExecutor::execute`]: process each index as
    /// its own work unit (block size 1). Suited to coarse-grained items such
    /// as the evaluation harness's per-method runs, where one item is an
    /// entire fit/clean cycle.
    pub fn map<T, F>(&self, items: usize, f: F) -> Vec<T>
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        ParallelExecutor { threads: self.threads, block_size: 1 }.execute(items, |range| f(range.start))
    }
}

/// Merge per-block cleaning batches into one repair list and one aggregate
/// statistics record. Batches must arrive in block order (as produced by
/// [`ParallelExecutor::execute`]); since each worker emits repairs in
/// (row, column) order within its block, the concatenation is already
/// globally sorted. Generic over the repair representation — the encoded
/// clean path merges code-space repairs, the reference path merges decoded
/// [`crate::report::Repair`]s.
pub fn merge_cleaning_batches<R>(batches: Vec<(Vec<R>, CleaningStats)>) -> (Vec<R>, CleaningStats) {
    let mut repairs = Vec::new();
    let mut stats = CleaningStats::default();
    for (mut batch_repairs, batch_stats) in batches {
        repairs.append(&mut batch_repairs);
        stats.merge(&batch_stats);
    }
    (repairs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Repair;
    use bclean_data::CellRef;
    use bclean_data::Value;

    fn collatz_steps(mut n: usize) -> usize {
        let mut steps = 0;
        while n > 1 {
            n = if n.is_multiple_of(2) { n / 2 } else { 3 * n + 1 };
            steps += 1;
        }
        steps
    }

    #[test]
    fn single_and_multi_thread_results_are_identical() {
        // An intentionally skewed workload: per-item cost varies wildly.
        let worker = |range: std::ops::Range<usize>| range.map(|i| collatz_steps(i + 1)).collect::<Vec<_>>();
        let serial = ParallelExecutor::new(1).execute(1000, worker);
        let parallel = ParallelExecutor::new(8).execute(1000, worker);
        assert_eq!(serial, parallel);
        let flat: Vec<usize> = serial.into_iter().flatten().collect();
        assert_eq!(flat.len(), 1000);
        assert_eq!(flat[0], collatz_steps(1));
    }

    #[test]
    fn empty_workload_yields_no_batches() {
        let out = ParallelExecutor::new(4).execute(0, |range| range.len());
        assert!(out.is_empty());
        let mapped = ParallelExecutor::new(4).map(0, |i| i);
        assert!(mapped.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = ParallelExecutor::new(64).with_block_size(1).execute(3, |range| range.start * 10);
        assert_eq!(out, vec![0, 10, 20]);
        let mapped = ParallelExecutor::new(64).map(2, |i| i + 100);
        assert_eq!(mapped, vec![100, 101]);
    }

    #[test]
    fn blocks_cover_the_index_space_exactly_once() {
        for items in [1, 31, 32, 33, 64, 100, 1023] {
            for threads in [1, 2, 7] {
                let ranges = ParallelExecutor::new(threads).execute(items, |range| range);
                let mut covered = Vec::new();
                for range in ranges {
                    covered.extend(range);
                }
                assert_eq!(covered, (0..items).collect::<Vec<_>>(), "items={items} threads={threads}");
            }
        }
    }

    #[test]
    fn adaptive_blocks_are_a_pure_function_of_items() {
        // Small workloads keep the fine-grained 32-row blocks; large ones cap
        // the block count so scheduling overhead stays flat.
        assert_eq!(adaptive_block_size(100), MIN_BLOCK_SIZE);
        assert_eq!(adaptive_block_size(32 * MAX_BLOCKS), MIN_BLOCK_SIZE);
        assert_eq!(adaptive_block_size(1_000_000), 977);
        // The partition never depends on the thread count.
        let one = ParallelExecutor::new(1).execute(100_000, |range| range);
        let eight = ParallelExecutor::new(8).execute(100_000, |range| range);
        assert_eq!(one, eight);
        assert!(one.len() <= MAX_BLOCKS, "{} blocks", one.len());
        let mut covered = Vec::new();
        for range in one {
            covered.extend(range);
        }
        assert_eq!(covered.len(), 100_000);
        assert!(covered.iter().enumerate().all(|(i, &r)| i == r));
    }

    #[test]
    fn executor_respects_config_threads() {
        let config = BCleanConfig::default().with_threads(3);
        assert_eq!(ParallelExecutor::for_config(&config, 1000).threads(), 3);
        // Never more workers than items.
        assert_eq!(ParallelExecutor::for_config(&config, 2).threads(), 2);
        // Empty workloads still get a valid executor.
        assert_eq!(ParallelExecutor::for_config(&config, 0).threads(), 1);
    }

    #[test]
    fn merge_preserves_order_and_sums_stats() {
        let repair = |row: usize| Repair {
            at: CellRef::new(row, 0),
            attribute: "a".into(),
            from: Value::Null,
            to: Value::text("x"),
            score_gain: 1.0,
        };
        let stats = |examined: usize| CleaningStats { cells_examined: examined, ..Default::default() };
        let (repairs, merged) = merge_cleaning_batches(vec![
            (vec![repair(0), repair(1)], stats(2)),
            (vec![], stats(1)),
            (vec![repair(5)], stats(3)),
        ]);
        assert_eq!(repairs.iter().map(|r| r.at.row).collect::<Vec<_>>(), vec![0, 1, 5]);
        assert_eq!(merged.cells_examined, 6);
    }
}
