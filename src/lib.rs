//! # bclean
//!
//! A Rust reproduction of **BClean: A Bayesian Data Cleaning System**
//! (Qin et al., ICDE 2024). This facade crate re-exports the whole workspace
//! so applications can depend on a single crate:
//!
//! * [`data`] — relational data model, domains, CSV I/O, dataset diffing;
//! * [`regex`] — the small regex engine used by pattern user constraints;
//! * [`rules`] — the expression language for arithmetic / tuple-level user
//!   constraints;
//! * [`linalg`] — matrices, decompositions, lasso and graphical lasso;
//! * [`bayesnet`] — Bayesian networks: structure learning, code-space CPT
//!   counting, the compiled Markov-blanket scoring model and interactive
//!   structure editing;
//! * [`core`] — the BClean cleaner itself: user constraints, compensatory
//!   scoring, MAP inference (Algorithm 1) and the §6 optimisations;
//! * [`profile`] — dataset profiling, outlier screening and automatic
//!   user-constraint suggestion;
//! * [`store`] — versioned, checksummed `.bclean` model containers (the
//!   persistence layer behind `ModelArtifact::{save, load}` and the
//!   `bclean` CLI's fit / clean / ingest / inspect lifecycle);
//! * [`serve`] — the resident cleaning daemon behind `bclean serve`: a
//!   multi-model registry with atomic snapshot swap, a minimal HTTP/1.1
//!   layer over `std::net`, and the bounded-worker server loop;
//! * [`datagen`] — synthetic benchmark generators and error injection;
//! * [`baselines`] — HoloClean-lite, Raha+Baran-lite, PClean-lite, Garf-lite;
//! * [`eval`] — metrics, per-dataset expert inputs, the experiment harness.
//!
//! ```
//! use bclean::prelude::*;
//!
//! let bench = BenchmarkDataset::Hospital.build_sized(200, 42);
//! let constraints = bclean::eval::bclean_constraints(BenchmarkDataset::Hospital);
//! let model = BClean::new(Variant::PartitionedInference.config())
//!     .with_constraints(constraints)
//!     .fit(&bench.dirty);
//! let result = model.clean(&bench.dirty);
//! let metrics = bclean::eval::evaluate(&bench.dirty, &result.cleaned, &bench.clean).unwrap();
//! assert!(metrics.f1 > 0.0);
//! ```

#![warn(missing_docs)]

pub use bclean_baselines as baselines;
pub use bclean_bayesnet as bayesnet;
pub use bclean_core as core;
pub use bclean_data as data;
pub use bclean_datagen as datagen;
pub use bclean_eval as eval;
pub use bclean_linalg as linalg;
pub use bclean_profile as profile;
pub use bclean_regex as regex;
pub use bclean_rules as rules;
pub use bclean_serve as serve;
pub use bclean_store as store;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use bclean_baselines::{Cleaner, GarfLite, HoloCleanLite, PCleanLite, RahaBaranLite};
    pub use bclean_bayesnet::{Dag, NetworkEdit, StructureConfig};
    pub use bclean_core::{
        BClean, BCleanConfig, BCleanModel, CleaningResult, CompensatoryParams, ConstraintSet, ModelArtifact,
        UserConstraint, Variant,
    };
    pub use bclean_data::{
        dataset_from, CellRef, ColumnDict, Dataset, Domains, EncodedDataset, Schema, Value,
    };
    pub use bclean_datagen::{BenchmarkDataset, DirtyDataset, ErrorSpec, ErrorType};
    pub use bclean_eval::{evaluate, Method, Metrics};
    pub use bclean_rules::Rule;
    pub use bclean_serve::{ModelRegistry, Server, ServerConfig};
    pub use bclean_store::{StoreError, FORMAT_VERSION};
}
