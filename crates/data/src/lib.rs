//! # bclean-data
//!
//! The relational data model shared by every crate in the BClean workspace:
//! cell [`Value`]s, typed [`Schema`]s, dense [`Dataset`]s, per-attribute
//! [`Domains`], a small CSV reader/writer and dataset diffing utilities.
//!
//! This corresponds to the "observed dataset `D`" abstraction of the paper
//! (§2): `n` tuples over `m` attributes, where every attribute `A_j` has an
//! observed domain `dom(A_j)` from which candidate repairs are drawn.
//!
//! ```
//! use bclean_data::{dataset_from, Domains, Value};
//!
//! let d = dataset_from(
//!     &["City", "State", "ZipCode"],
//!     &[
//!         vec!["sylacauga", "CA", "35150"],
//!         vec!["sylacauga", "CA", "35150"],
//!         vec!["centre", "KT", "35960"],
//!     ],
//! );
//! let domains = Domains::compute(&d);
//! assert_eq!(domains.attribute(1).cardinality(), 2);
//! assert_eq!(domains.attribute(1).mode(), Some(&Value::text("CA")));
//! ```

#![warn(missing_docs)]

pub mod cooc;
pub mod csv;
pub mod dataset;
pub mod diff;
pub mod domain;
pub mod encoded;
pub mod error;
pub mod schema;
pub mod stream;
pub mod value;

pub use cooc::{
    bucketed_mode_share, column_code_counts, mode_share, BucketedPairCounts, CodeBuckets, PairCounts,
    DENSE_CELL_CAP,
};
pub use csv::{parse_csv, push_csv_record, read_csv_file, to_csv, write_csv_file};
pub use dataset::{dataset_from, dataset_with_attrs, CellRef, Dataset};
pub use diff::{diff, error_cells, noise_rate, CellChange};
pub use domain::{AttributeDomain, Domains};
pub use encoded::{ColumnDict, EncodedDataset, EncodedDatasetBuilder};
pub use error::{DataError, DataResult};
pub use schema::{AttrType, Attribute, Schema};
pub use stream::{
    approx_dataset_bytes, approx_row_bytes, approx_values_bytes, ChunkLimits, ChunkSource, CsvChunkReader,
    CsvFileChunks, DatasetChunks,
};
pub use value::{format_number, Value};
