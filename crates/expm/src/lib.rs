//! # slim-expm
//!
//! Transition-probability matrices `P(t) = e^{Qt}` for codon models — the
//! computational core of the paper (§II-C1, §III-A).
//!
//! Given the symmetric form `A = Π^{1/2} S Π^{1/2}` of a time-reversible
//! rate matrix `Q = SΠ`, one eigendecomposition `A = X Λ Xᵀ` serves every
//! branch length `t`:
//!
//! ```text
//! e^{Qt} = Π^{-1/2} · X e^{Λt} Xᵀ · Π^{1/2}        (Eqs. 5–8)
//! ```
//!
//! Three reconstruction paths are implemented:
//!
//! * **Eq. 9** (CodeML-style baseline): `Z = (X e^{Λt}) · Xᵀ` — a general
//!   matrix product, ≈ 2n³ flops, here in both naive-kernel and
//!   tuned-kernel flavors;
//! * **Eq. 10** (SlimCodeML): `Z = Y·Yᵀ` with `Y = X e^{Λt/2}` — a
//!   symmetric rank-k update (`dsyrk`), ≈ n³ flops: the paper's headline
//!   optimization;
//! * **Eq. 12** (post-hoc improvement): keep the *symmetric* matrix
//!   `M = Ŷ Ŷᵀ` with `Ŷ = Π^{-1/2} X e^{Λt/2}` and apply
//!   `e^{Qt} w = M (Π w)` — halving memory traffic of every per-site
//!   matrix×vector product.
//!
//! A scaling-and-squaring Taylor expm serves as an accuracy oracle.

pub mod cpv;
mod eigensystem;
mod taylor;

pub use cpv::{CpvScratch, CpvStrategy, SymTransition};
pub use eigensystem::EigenSystem;
pub use taylor::expm_taylor;
