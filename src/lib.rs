//! # tapeflow
//!
//! Facade crate re-exporting the full Tapeflow reproduction API.
//! See the individual crates for details.

pub use tapeflow_autodiff as autodiff;
pub use tapeflow_bench as bench;
pub use tapeflow_benchmarks as benchmarks;
pub use tapeflow_core as core;
pub use tapeflow_ir as ir;
pub use tapeflow_sim as sim;

/// README.md's code blocks, compiled and run as doctests so its
/// quickstart cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
