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
//!   textbook kernels, per-site naive matrix×vector CPV updates, each
//!   site class pruned on its own: CodeML v4.4c's computational profile;
//! * [`EngineConfig::slim`] — Eq. 10 (`dsyrk`-style symmetric rank-k)
//!   reconstruction through blocked kernels and per-site `gemv`: the
//!   configuration the paper measured as SlimCodeML;
//! * [`EngineConfig::slim_plus`] — adds the §III-B bundled BLAS-3 site
//!   products the paper proposed after its evaluation;
//! * [`EngineConfig::slim_symmetric`] — the Eq. 12 symmetric CPV
//!   application (§II-C2) instead of per-site `gemv`.
//!
//! Every likelihood — branch-site model A and the §V-B further models
//! ([`m0`], [`site_models`] M1a/M2a, the [`branch_model`] two-ratio
//! model) — is computed by one evaluator, [`ReuseEvaluator`], through one
//! pruning kernel: each model is a mixture of site classes over at most
//! three ω rate matrices. The evaluator keeps its last evaluation's
//! decompositions, transition operators and conditional probability
//! vectors, for the exact gradient, the outside pass and a repeat of that
//! point; every other point is computed whole. A stateless call
//! ([`log_likelihood`], [`site_class_log_likelihoods`], the auxiliary
//! models' functions) is one evaluation on a fresh evaluator. Thread count
//! ([`EngineConfig::threads`]), SIMD dispatch and kept-vs-fresh state
//! never change a bit of the result.
//!
//! The evaluator also runs a preorder outside pass over the CPVs it keeps,
//! through the same operators transposed; [`ancestral`] reconstruction is
//! inside × outside on it.
//!
//! Numerical scaling keeps per-pattern conditional probabilities in range
//! on large trees; per-class per-pattern log-likelihoods are exposed for
//! empirical-Bayes site identification.

#![allow(clippy::needless_range_loop)] // indexed loops mirror the math

pub mod ancestral;
pub mod branch_model;
mod engine;
mod gradient;
pub mod m0;
mod mixture;
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
