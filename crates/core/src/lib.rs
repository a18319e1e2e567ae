//! # bclean-core
//!
//! The BClean Bayesian data cleaning algorithm (Qin et al., ICDE 2024):
//! user constraints, the compensatory scoring model, MAP inference over a
//! learned Bayesian network (Algorithm 1), and the §6 efficiency
//! optimisations (partitioned inference, tuple pruning, domain pruning).
//!
//! The typical flow is:
//!
//! ```
//! use bclean_core::{BClean, BCleanConfig, ConstraintSet, UserConstraint, Variant};
//! use bclean_data::dataset_from;
//!
//! // A dirty table: row 2 has an inconsistent State for its ZipCode.
//! let dirty = dataset_from(
//!     &["City", "State", "ZipCode"],
//!     &[
//!         vec!["sylacauga", "CA", "35150"],
//!         vec!["sylacauga", "CA", "35150"],
//!         vec!["sylacauga", "KT", "35150"],
//!         vec!["sylacauga", "CA", "35150"],
//!         vec!["sylacauga", "CA", "35150"],
//!         vec!["centre", "KT", "35960"],
//!         vec!["centre", "KT", "35960"],
//!         vec!["centre", "KT", "35960"],
//!     ],
//! );
//!
//! // Lightweight user constraints (Table 3 style).
//! let mut ucs = ConstraintSet::new();
//! ucs.add("ZipCode", UserConstraint::pattern("^[1-9][0-9]{4,4}$").unwrap());
//! ucs.add("State", UserConstraint::MaxLength(2));
//!
//! let model = BClean::new(Variant::PartitionedInference.config())
//!     .with_constraints(ucs)
//!     .fit(&dirty);
//! let result = model.clean(&dirty);
//! assert_eq!(result.cleaned.cell(2, 1).unwrap().to_string(), "CA");
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod cleaner;
pub mod compensatory;
pub mod config;
pub mod constraints;
pub mod exec;
pub mod persist;
pub mod reference;
pub mod report;
pub mod stream;

pub use artifact::ModelArtifact;
pub use cleaner::{BClean, BCleanModel};
pub use compensatory::{CompensatoryModel, CompensatoryParams};
pub use config::{BCleanConfig, Variant};
pub use constraints::{AttributeConstraints, ConstraintKind, ConstraintSet, UserConstraint};
pub use exec::ParallelExecutor;
pub use reference::ReferenceModel;
pub use report::{repairs_to_csv, CleaningResult, CleaningStats, Repair};
pub use stream::{clean_stream, clean_stream_with_model, StreamOptions, StreamOutcome};

// Re-export the pieces of the substrate crates that appear in this crate's
// public API, so downstream users need only one import path.
pub use bclean_bayesnet::{NetworkEdit, StructureConfig};
pub use bclean_sketch::{BudgetParams, FitBudget};
pub use bclean_store::{StoreError, FORMAT_VERSION};
