//! FDX-style similarity sampling.
//!
//! The structure learner of the paper (§4) extends the FDX method: for pairs
//! of tuples it records, per attribute, the *similarity* of the two values
//! (a softened functional-dependency signal that tolerates typos). Following
//! the paper's Remarks, tuples are first sorted by each attribute and only
//! adjacent tuples in each sort order are compared, so the sampling costs
//! `O(n·m·log n)` instead of `O(n²)`.
//!
//! The resulting samples-by-attributes matrix is treated as draws from a
//! multivariate Gaussian whose inverse covariance is then estimated with the
//! graphical lasso.

use bclean_data::{AttrType, Dataset, EncodedDataset};
use bclean_linalg::Matrix;

use crate::codehash::CodeMap;
use crate::sim::value_similarity_typed;

/// Dense similarity memos above this cell count (`code_space²`) fall back
/// to the hash-map layout (8 MiB of `f64` cells per column at the cap).
const DENSE_SIM_CELL_CAP: usize = 1 << 20;

/// One column's `(code, code) → similarity` memo for one sampling pass (see
/// [`similarity_samples_encoded`]), laid out once for the column's code
/// space: a dense `code_space²` matrix (NaN = not yet computed) for small
/// domains — one load per probe on the sampling hot loop — or a hash map
/// for large ones.
enum SimilarityMemo {
    Dense { space: usize, cells: Vec<f64> },
    Map(CodeMap<(u32, u32), f64>),
}

impl SimilarityMemo {
    fn new(space: usize) -> SimilarityMemo {
        if space.saturating_mul(space) <= DENSE_SIM_CELL_CAP {
            SimilarityMemo::Dense { space, cells: vec![f64::NAN; space * space] }
        } else {
            SimilarityMemo::Map(CodeMap::default())
        }
    }

    /// The memoised similarity of a code pair, computing (and storing) it on
    /// first sight.
    #[inline]
    fn get_or_insert_with(&mut self, pair: (u32, u32), compute: impl FnOnce() -> f64) -> f64 {
        match self {
            SimilarityMemo::Dense { space, cells } => {
                let slot = pair.0 as usize * *space + pair.1 as usize;
                if cells[slot].is_nan() {
                    cells[slot] = compute();
                }
                cells[slot]
            }
            SimilarityMemo::Map(map) => *map.entry(pair).or_insert_with(compute),
        }
    }
}

/// Configuration of the similarity sampler.
#[derive(Debug, Clone, Copy)]
pub struct FdxConfig {
    /// Maximum number of adjacent pairs sampled per sort attribute. Caps the
    /// sample matrix size on very large datasets.
    pub max_pairs_per_attribute: usize,
}

impl Default for FdxConfig {
    fn default() -> Self {
        FdxConfig { max_pairs_per_attribute: 2000 }
    }
}

/// Build the similarity sample matrix: one row per sampled tuple pair, one
/// column per attribute, entries in `[0, 1]`.
///
/// Returns `None` when the dataset has fewer than two rows (no pairs exist).
pub fn similarity_samples(dataset: &Dataset, config: FdxConfig) -> Option<Matrix> {
    let n = dataset.num_rows();
    let m = dataset.num_columns();
    if n < 2 || m == 0 {
        return None;
    }
    let types: Vec<_> = (0..m).map(|c| dataset.schema().attribute(c).expect("column in range").ty).collect();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for sort_attr in 0..m {
        let order = dataset.argsort_by_column(sort_attr).expect("sort attribute index is in range");
        let pairs = n - 1;
        // Evenly subsample adjacent pairs if there are too many.
        let step = if pairs > config.max_pairs_per_attribute {
            pairs as f64 / config.max_pairs_per_attribute as f64
        } else {
            1.0
        };
        let mut k = 0.0;
        while (k as usize) < pairs {
            let i = k as usize;
            let a = dataset.row(order[i]).expect("row in range");
            let b = dataset.row(order[i + 1]).expect("row in range");
            let sims: Vec<f64> = (0..m).map(|c| value_similarity_typed(types[c], &a[c], &b[c])).collect();
            rows.push(sims);
            k += step;
        }
    }
    Matrix::from_rows(&rows).ok()
}

/// Code-space [`similarity_samples`]: the identical sample matrix, built
/// from a dictionary-encoded dataset.
///
/// Two properties of the encoding make this fast without changing a single
/// sample:
///
/// * sorting a column is a stable counting sort over codes
///   ([`EncodedDataset::argsort_by_column`] reproduces the `Value` argsort
///   permutation exactly), and
/// * similarities are **memoised per code pair**: adjacent tuples in a sort
///   order overwhelmingly repeat the same few value pairs, so the expensive
///   edit-distance kernel runs once per distinct `(code, code)` pair per
///   column instead of once per sampled pair. The cached value is exactly
///   what [`crate::sim::value_similarity_typed`] returns for the decoded
///   values, so the matrix is bit-identical to the `Value`-path matrix.
///
/// `types` are the schema attribute types, in column order.
pub fn similarity_samples_encoded(
    encoded: &EncodedDataset,
    types: &[AttrType],
    config: FdxConfig,
) -> Option<Matrix> {
    let n = encoded.num_rows();
    let m = encoded.num_columns();
    if n < 2 || m == 0 {
        return None;
    }
    debug_assert_eq!(types.len(), m);
    let mut memos: Vec<SimilarityMemo> =
        (0..m).map(|c| SimilarityMemo::new(encoded.dict(c).code_space())).collect();
    // Samples are assembled straight into the flat row-major matrix buffer
    // (the per-sample `Vec` allocations of the `Value`-path twin would
    // dominate the memoised loop).
    let mut data: Vec<f64> = Vec::new();
    let mut sample_rows = 0usize;
    for sort_attr in 0..m {
        let order = encoded.argsort_by_column(sort_attr);
        let pairs = n - 1;
        let step = if pairs > config.max_pairs_per_attribute {
            pairs as f64 / config.max_pairs_per_attribute as f64
        } else {
            1.0
        };
        let mut k = 0.0;
        while (k as usize) < pairs {
            let i = k as usize;
            let (ra, rb) = (order[i], order[i + 1]);
            for (c, memo) in memos.iter_mut().enumerate() {
                let pair = (encoded.code(ra, c), encoded.code(rb, c));
                data.push(memo.get_or_insert_with(pair, || {
                    let dict = encoded.dict(c);
                    value_similarity_typed(types[c], dict.decode(pair.0), dict.decode(pair.1))
                }));
            }
            sample_rows += 1;
            k += step;
        }
    }
    Matrix::from_flat(sample_rows, m, data).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bclean_data::dataset_from;

    fn ds() -> Dataset {
        dataset_from(
            &["Zip", "State", "Noise"],
            &[
                vec!["35150", "CA", "q"],
                vec!["35150", "CA", "w"],
                vec!["35960", "KT", "e"],
                vec!["35960", "KT", "r"],
                vec!["35151", "CA", "t"],
                vec!["35961", "KT", "y"],
            ],
        )
    }

    #[test]
    fn sample_matrix_shape() {
        let samples = similarity_samples(&ds(), FdxConfig::default()).unwrap();
        // 3 sort attributes × 5 adjacent pairs = 15 sample rows, 3 columns.
        assert_eq!(samples.shape(), (15, 3));
    }

    #[test]
    fn samples_are_in_unit_interval() {
        let samples = similarity_samples(&ds(), FdxConfig::default()).unwrap();
        for r in 0..samples.nrows() {
            for c in 0..samples.ncols() {
                let v = samples.get(r, c);
                assert!((0.0..=1.0).contains(&v), "sample ({r},{c}) = {v}");
            }
        }
    }

    #[test]
    fn dependent_columns_have_correlated_similarities() {
        let samples = similarity_samples(&ds(), FdxConfig::default()).unwrap();
        let zip_col = samples.col(0);
        let state_col = samples.col(1);
        let noise_col = samples.col(2);
        let dep = bclean_linalg::pearson(&zip_col, &state_col).unwrap();
        let indep = bclean_linalg::pearson(&zip_col, &noise_col).unwrap();
        assert!(dep > indep, "Zip~State correlation {dep} should exceed Zip~Noise {indep}");
    }

    #[test]
    fn subsampling_caps_rows() {
        let rows: Vec<Vec<&str>> = (0..100).map(|_| vec!["a", "b"]).collect();
        let big = dataset_from(&["x", "y"], &rows);
        let samples = similarity_samples(&big, FdxConfig { max_pairs_per_attribute: 10 }).unwrap();
        assert!(samples.nrows() <= 2 * 11, "rows = {}", samples.nrows());
        assert_eq!(samples.ncols(), 2);
    }

    #[test]
    fn tiny_datasets_return_none() {
        let one = dataset_from(&["x"], &[vec!["a"]]);
        assert!(similarity_samples(&one, FdxConfig::default()).is_none());
        let encoded = EncodedDataset::from_dataset(&one);
        assert!(similarity_samples_encoded(&encoded, &[AttrType::Text], FdxConfig::default()).is_none());
    }

    /// The encoded sampler must reproduce the `Value`-path sample matrix
    /// bit-for-bit, including under subsampling and with nulls present.
    #[test]
    fn encoded_samples_match_value_samples() {
        let mut data = ds();
        // Add nulls and duplicates to exercise the null-first sort key and
        // the memoised pairs.
        let with_nulls = dataset_from(
            &["Zip", "State", "Noise"],
            &[
                vec!["35150", "CA", "q"],
                vec!["", "CA", "w"],
                vec!["35960", "", "e"],
                vec!["35960", "KT", "r"],
                vec!["35150", "CA", "q"],
                vec!["", "KT", "y"],
            ],
        );
        for config in [
            FdxConfig::default(),
            FdxConfig { max_pairs_per_attribute: 3 },
            FdxConfig { max_pairs_per_attribute: 1 },
        ] {
            for dataset in [&mut data, &mut with_nulls.clone()] {
                let types: Vec<AttrType> =
                    (0..dataset.num_columns()).map(|c| dataset.schema().attribute(c).unwrap().ty).collect();
                let encoded = EncodedDataset::from_dataset(dataset);
                let reference = similarity_samples(dataset, config).unwrap();
                let fast = similarity_samples_encoded(&encoded, &types, config).unwrap();
                assert_eq!(reference.shape(), fast.shape());
                for r in 0..reference.nrows() {
                    for c in 0..reference.ncols() {
                        assert_eq!(
                            reference.get(r, c).to_bits(),
                            fast.get(r, c).to_bits(),
                            "sample ({r}, {c})"
                        );
                    }
                }
            }
        }
    }
}
