//! # bclean-bayesnet
//!
//! Bayesian networks for BClean: DAG structure, automatic structure
//! learning (FDX-style similarity sampling + graphical lasso +
//! `Θ = (I − B) Ω (I − B)ᵀ` decomposition), code-space CPT counting
//! ([`NodeCounts`]), the code-indexed [`CompiledNetwork`] every cleaning
//! path scores through, and an interactive editor for user adjustments of
//! the learned structure. The `Value`-keyed [`BayesianNetwork`] and [`Cpt`]
//! survive only as the reference oracle's model.
//!
//! This crate implements the *construction stage* of the paper (§4) and the
//! Markov-blanket scoring used by the inference stage (§5–6); the cleaning
//! algorithm itself (user constraints, compensatory score, Algorithm 1) lives
//! in `bclean-core`.
//!
//! ```
//! use bclean_bayesnet::{learn_structure, CompiledCpt, CompiledNetwork, NodeCounts, StructureConfig};
//! use bclean_data::{dataset_from, EncodedDataset};
//!
//! let data = dataset_from(
//!     &["Zip", "State"],
//!     &(0..32).map(|i| if i % 2 == 0 { vec!["35150", "CA"] } else { vec!["35960", "KT"] })
//!         .collect::<Vec<_>>(),
//! );
//! let dag = learn_structure(&data, StructureConfig::default()).dag;
//! let encoded = EncodedDataset::from_dataset(&data);
//! let cpts = (0..dag.num_nodes())
//!     .map(|node| CompiledCpt::from_counts(&NodeCounts::accumulate(&encoded, node, &dag.parents(node)), 0.1))
//!     .collect();
//! let network = CompiledNetwork::from_parts(cpts, &dag);
//! assert_eq!(network.num_nodes(), 2);
//! ```

#![warn(missing_docs)]

mod codehash;
pub mod compiled;
pub mod counts;
pub mod cpt;
pub mod edit;
pub mod graph;
pub mod network;
pub mod sim;
pub mod structure;

pub use compiled::{CompiledCpt, CompiledNetwork};
pub use counts::{CountsSnapshot, NodeCounts};
pub use cpt::Cpt;
pub use edit::{EditError, NetworkEdit, NetworkEditor};
pub use graph::{Dag, GraphError};
pub use network::{log_softmax_to_probs, BayesianNetwork, DEFAULT_ALPHA};
pub use sim::{edit_similarity, levenshtein, numeric_similarity, value_similarity, value_similarity_typed};
pub use structure::{
    autoregression_matrix, learn_structure, learn_structure_encoded, similarity_samples,
    similarity_samples_encoded, threshold_to_dag, FdxConfig, LearnedStructure, StructureConfig,
};
