//! Structure learning: FDX-style similarity sampling, graphical-lasso
//! skeleton construction and the sample-budgeted variant.

pub mod budgeted;
pub mod fdx;
pub mod skeleton;

pub use budgeted::{budget_row_sample, learn_structure_budgeted};
pub use fdx::{
    similarity_samples, similarity_samples_encoded, similarity_samples_encoded_cached, CodePairHasher,
    FdxConfig, SimilarityCache,
};
pub use skeleton::{
    autoregression_matrix, learn_structure, learn_structure_encoded, learn_structure_encoded_cached,
    threshold_to_dag, LearnedStructure, StructureCaches, StructureConfig,
};
