//! # slimcodeml
//!
//! Facade crate for the SlimCodeML reproduction (Schabauer et al.,
//! IPDPSW 2012): maximum-likelihood detection of positive selection on a
//! phylogenetic-tree branch under the branch-site codon model, with the
//! paper's optimized linear-algebra pipeline and its CodeML-style baseline
//! implemented side by side.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`linalg`] | `slim-linalg` | dense kernels (gemm/syrk/gemv/symv), symmetric eigensolvers |
//! | [`bio`] | `slim-bio` | genetic code, alignments, Newick trees, site patterns |
//! | [`model`] | `slim-model` | Eq. 1 codon rate matrices, branch-site model A |
//! | [`expm`] | `slim-expm` | `P(t) = e^{Qt}` via Eq. 9 / Eq. 10 / Eq. 12 |
//! | [`lik`] | `slim-lik` | Felsenstein pruning engine with selectable backends |
//! | [`opt`] | `slim-opt` | BFGS, transforms, numeric gradients |
//! | [`stat`] | `slim-stat` | χ², LRT (boundary mixture null), NEB posteriors |
//! | [`sim`] | `slim-sim` | Yule trees, BSM sequence simulation, Table II presets |
//! | [`core`] | `slim-core` | the public `Analysis` API |
//! | [`batch`] | `slim-batch` | multi-gene batch runs: manifest, worker pool, checkpoint/resume |
//! | [`obs`] | `slim-obs` | spans from static sites feeding a metrics registry (counters, gauges, histograms) and a trace flight recorder |
//! | [`trace`] | `slim-obs` (`slim_obs::trace`) | the trace sink: flight recorder, Chrome trace export, `trace-report` |
//!
//! ## Quickstart
//!
//! ```
//! use slimcodeml::core::{Analysis, AnalysisOptions};
//! use slimcodeml::bio::{parse_newick, CodonAlignment};
//!
//! let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
//! let aln = CodonAlignment::from_fasta(">A\nATGCCC\n>B\nATGCCA\n>C\nATGCCC\n").unwrap();
//! let options = AnalysisOptions { max_iterations: 5, ..Default::default() };
//! let analysis = Analysis::new(&tree, &aln, options).unwrap();
//! let fit = analysis.fit(slimcodeml::core::Hypothesis::H0).unwrap();
//! assert!(fit.lnl.is_finite());
//! ```

pub use slim_batch as batch;
pub use slim_bio as bio;
pub use slim_core as core;
pub use slim_expm as expm;
pub use slim_lik as lik;
pub use slim_linalg as linalg;
pub use slim_model as model;
pub use slim_obs as obs;
pub use slim_obs::trace;
pub use slim_opt as opt;
pub use slim_sim as sim;
pub use slim_stat as stat;
