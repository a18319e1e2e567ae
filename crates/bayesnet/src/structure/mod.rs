//! Structure learning: FDX-style similarity sampling and graphical-lasso
//! skeleton construction.

pub mod fdx;
pub mod skeleton;

pub use fdx::{similarity_samples, similarity_samples_encoded, FdxConfig};
pub use skeleton::{
    autoregression_matrix, learn_structure, learn_structure_encoded, threshold_to_dag, LearnedStructure,
    StructureConfig,
};
