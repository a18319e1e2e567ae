//! # bclean-baselines
//!
//! Reimplementations of the data cleaning systems BClean is compared against
//! in the paper's evaluation (§7): HoloClean (denial-constraint driven
//! probabilistic repair), Raha+Baran (semi-supervised detection + context
//! correction), PClean (generative cleaning from a hand-specified model) and
//! Garf (self-supervised rule learning). Each is a faithful-behaviour "lite"
//! version — same signals, same user inputs, same failure modes — documented
//! per module.
//!
//! All baselines implement the [`Cleaner`] trait, so the evaluation harness
//! treats them and BClean uniformly.

#![warn(missing_docs)]

pub mod common;
pub mod dc;
pub mod garf;
pub mod holoclean;
pub mod pclean;
pub mod raha_baran;

pub use common::{Cleaner, MajorityCleaner, NoOpCleaner};
pub use dc::{discover_fds, FunctionalDependency};
pub use garf::{GarfConfig, GarfLite, Rule};
pub use holoclean::{HoloCleanConfig, HoloCleanLite};
pub use pclean::{AttributeModel, PCleanLite, PCleanModel};
pub use raha_baran::{char_pattern, LabelledCell, RahaBaranConfig, RahaBaranLite};
