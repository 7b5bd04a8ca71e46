//! # slim-opt
//!
//! Numerical optimization substrate: the paper's §II-B names
//! Newton-Raphson-family iterative maximization and specifically BFGS as
//! the way CodeML maximizes the branch-site likelihood. This crate
//! provides:
//!
//! * [`bfgs`]: dense BFGS with an Armijo backtracking line search
//!   (quadratic interpolation) and iteration accounting (the
//!   "Iterations" column of the paper's Table III);
//! * [`transform`]: smooth bijections between bounded model parameters
//!   (κ > 0, 0 < ω0 < 1, ω2 ≥ 1, simplex proportions, branch lengths) and
//!   the unconstrained space BFGS works in;
//! * [`numgrad`]: central/forward finite-difference gradients, the
//!   oracle for the objectives' exact gradients ([`GradMode::Analytic`]).

pub mod bfgs;
pub mod numgrad;
mod obsm;
pub mod transform;

pub use bfgs::{minimize, BfgsOptions, BfgsResult, Objective, TerminationReason};
pub use numgrad::{central_gradient, forward_gradient, GradMode};
pub use obsm::register_metrics;
pub use transform::{Block, BlockTransform};
