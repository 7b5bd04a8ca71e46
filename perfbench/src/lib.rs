//! The repository benchmark: converged branch-site positive-selection
//! tests on seeded genes, measured end to end with instrumentation off,
//! plus a separate traced run that times the calls into each layer.
//! `README.md` in this directory explains the workloads and metrics.

pub mod calib;
pub mod gate;
pub mod gen;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod workloads;
