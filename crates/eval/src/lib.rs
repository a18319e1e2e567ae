//! # bclean-eval
//!
//! The evaluation harness of the BClean reproduction: cleaning-quality
//! metrics (precision / recall / F1), per-error-type recall, the per-dataset
//! expert inputs each system receives (user constraints, denial constraints,
//! PClean models, Raha labels), a uniform method runner and plain-text table
//! rendering used by the `experiments` binary in `bclean-bench`.
//!
//! ```
//! use bclean_core::Variant;
//! use bclean_datagen::BenchmarkDataset;
//! use bclean_eval::{run_method, Method};
//!
//! let bench = BenchmarkDataset::Hospital.build_sized(150, 1);
//! let run = run_method(Method::BClean(Variant::PartitionedInference), BenchmarkDataset::Hospital, &bench);
//! assert!(run.metrics.f1 > 0.0);
//! ```

#![warn(missing_docs)]

pub mod error_types;
pub mod harness;
pub mod inputs;
pub mod metrics;
pub mod report;

pub use error_types::ErrorTypeRecall;
pub use harness::{run_bclean, run_bclean_evaluated, run_method, run_methods, Method, MethodRun};
pub use inputs::{bclean_constraints, holoclean_constraints, pclean_model, raha_labels};
pub use metrics::{evaluate, Metrics};
pub use report::{format_duration, TextTable};
