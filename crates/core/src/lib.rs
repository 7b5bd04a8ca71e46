//! # slim-core
//!
//! The public SlimCodeML API: positive-selection tests under the
//! branch-site model, with selectable computational backends.
//!
//! ```no_run
//! use slim_core::{Analysis, AnalysisOptions, Backend};
//! use slim_bio::{parse_newick, CodonAlignment};
//!
//! let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
//! let aln = CodonAlignment::from_fasta(">A\nATGCCC\n>B\nATGCCA\n>C\nATGCCC\n").unwrap();
//! let analysis = Analysis::new(&tree, &aln, AnalysisOptions::default()).unwrap();
//! let result = analysis.test_positive_selection().unwrap();
//! println!("lnL0 = {}, lnL1 = {}, p = {}", result.h0.lnl, result.h1.lnl, result.lrt.p_value);
//! ```
//!
//! The [`Backend`] enum selects the numerics: [`Backend::CodeMlStyle`]
//! reproduces CodeML v4.4c's computational profile (the paper's baseline),
//! [`Backend::Slim`] the optimized SlimCodeML profile, and
//! [`Backend::SlimPlus`]/[`Backend::SlimSymmetric`] the further
//! improvements the paper describes but did not measure.

mod analysis;
mod backend;
mod beb;
mod bootstrap;
mod error;
mod fit;
mod obsm;
mod scan;
mod sites;
mod stderr;

pub use analysis::{Analysis, AnalysisOptions, TestResult};
pub use backend::Backend;
pub use beb::BebOptions;
pub use bootstrap::{parametric_bootstrap_lrt, BootstrapOptions, BootstrapResult};
pub use error::CoreError;
pub use fit::Fit;
pub use obsm::register_metrics;
pub use scan::{scan_all_branches, BranchScanEntry};
pub use sites::{sites_test, SitesFit, SitesTestResult};
pub use stderr::StandardErrors;

// Re-exports so downstream users need only slim-core for common flows.
pub use slim_model::{BranchSiteModel, Hypothesis, SiteModel, SitesHypothesis};
pub use slim_opt::GradMode;
pub use slim_stat::LrtResult;
