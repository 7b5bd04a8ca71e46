//! # slim-lik
//!
//! The branch-site-model likelihood engine: Felsenstein's pruning
//! algorithm (§II-B of the paper) over codon site patterns, with the four
//! site classes of Table I mixed at the root.
//!
//! The engine is configuration-driven so that the *same* likelihood code
//! can be run as either comparand of the paper's evaluation:
//!
//! * [`EngineConfig::codeml_style`] — Eq. 9 reconstruction through naive
//!   textbook kernels, per-site naive matrix×vector CPV updates, no
//!   eigendecomposition reuse across evaluations: CodeML v4.4c's
//!   computational profile;
//! * [`EngineConfig::slim`] — Eq. 10 (`dsyrk`-style symmetric rank-k)
//!   reconstruction through blocked kernels and per-site `gemv`: the
//!   configuration the paper measured as SlimCodeML;
//! * [`EngineConfig::slim_plus`] — adds the §III-B bundled BLAS-3 site
//!   products and the Eq. 12 symmetric CPV application the paper derived
//!   after its evaluation, plus a cross-evaluation eigendecomposition
//!   cache.
//!
//! Every branch-site likelihood is computed by one evaluator,
//! [`ReuseEvaluator`], through one pruning kernel. It keeps the previous
//! evaluation's transition operators and conditional probability vectors
//! and recomputes only what its bitwise parameter diff marks dirty. A
//! stateless call ([`log_likelihood`], [`site_class_log_likelihoods`]) is
//! one evaluation on a fresh evaluator, whose empty state marks every unit
//! dirty. Thread count ([`EngineConfig::threads`]), SIMD dispatch and
//! kept-vs-cleared state never change a bit of the result.
//!
//! Numerical scaling keeps per-pattern conditional probabilities in range
//! on large trees; per-class per-pattern log-likelihoods are exposed for
//! empirical-Bayes site identification.

#![allow(clippy::needless_range_loop)] // indexed loops mirror the math

pub mod ancestral;
pub mod branch_model;
mod engine;
pub mod m0;
mod obsm;
mod par;
mod problem;
mod pruning;
mod reuse;
pub mod site_models;

pub use engine::{EngineConfig, ExpmPath, DEFAULT_PATTERN_BLOCK};
pub use obsm::register_metrics;
pub use problem::LikelihoodProblem;
pub use pruning::{log_likelihood, site_class_log_likelihoods, LikelihoodValue};
pub use reuse::ReuseEvaluator;
pub use slim_linalg::simd;
pub use slim_linalg::{SimdBackend, SimdMode};
