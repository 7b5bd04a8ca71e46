//! # slim-model
//!
//! Codon substitution models for the SlimCodeML reproduction.
//!
//! * [`codon_model`]: the Goldman–Yang-style rate matrix of Eq. 1 — rates
//!   between codons differing by one nucleotide, parameterized by the
//!   transition/transversion ratio κ, the selective pressure ω, and the
//!   equilibrium codon frequencies π. Also builds the symmetric forms the
//!   paper's expm optimization relies on: the exchangeability matrix `S`
//!   (with `Q = SΠ`) and `A = Π^{1/2} S Π^{1/2}` (Eq. 2).
//! * [`branch_site`]: branch-site model A (Table I) with its four site
//!   classes, the alternative hypothesis H1 (ω₂ ≥ 1 free) and the null H0
//!   (ω₂ = 1 fixed).

pub mod branch_site;
pub mod codon_model;
pub mod site_model;

pub use branch_site::{BranchSiteModel, Hypothesis, SiteClass, N_SITE_CLASSES};
pub use codon_model::{
    build_rate_matrix, build_rate_matrix_mg94, rate_components, Fluxes, KappaOmega, RateComponents,
    RateMatrix, ScalePolicy,
};
pub use site_model::{OmegaClass, SiteModel, SitesHypothesis};
