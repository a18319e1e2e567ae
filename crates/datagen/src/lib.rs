//! # bclean-datagen
//!
//! Synthetic benchmark data for the BClean reproduction: seeded generators
//! for the six datasets of the paper's Table 2 (Hospital, Flights, Soccer,
//! Beers, Inpatient, Facilities) and an error-injection engine for the four
//! error types of §7.1 (typos, missing values, inconsistencies, swaps).
//!
//! The real benchmark files are not redistributable; these generators
//! reproduce their schemas, sizes, value formats and — most importantly —
//! their inter-attribute functional dependencies, which is the signal every
//! evaluated cleaning system exploits.
//!
//! ```
//! use bclean_datagen::{BenchmarkDataset, ErrorType};
//!
//! let bench = BenchmarkDataset::Hospital.build_sized(200, 42);
//! assert_eq!(bench.dirty.num_rows(), 200);
//! assert!(bench.num_errors() > 0);
//! assert!(bench.errors_by_type().contains_key(&ErrorType::Typo));
//! ```

#![warn(missing_docs)]

pub mod errors;
pub mod generators;
pub mod scale;
pub mod spec;
pub mod vocab;

pub use errors::{inject_errors, DirtyDataset, ErrorSpec, ErrorType, InjectedError, SwapMode};
pub use scale::{build_at_scale, build_wide, build_wide_at_scale, ScaleFactor};
pub use spec::BenchmarkDataset;
