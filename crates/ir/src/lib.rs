//! # tapeflow-ir
//!
//! A small SSA, structured-loop intermediate representation used by the
//! Tapeflow reproduction. It plays the role LLVM-IR plays in the paper:
//! the substrate on which reverse-mode AD (the Enzyme substitute,
//! `tapeflow-autodiff`) and the four Tapeflow compiler passes
//! (`tapeflow-core`) operate.
//!
//! The IR models exactly the program shapes the paper exercises:
//!
//! * perfect and imperfect loop nests with compile-time trip counts,
//! * scalar SSA arithmetic over `f64` and `i64`,
//! * loads/stores with affine **and indirect** (loaded-index) addressing,
//! * `select`-based data-dependent dataflow,
//! * loop-carried state through memory *cells* (one-element arrays), and
//! * the tape/scratchpad/stream operations the Tapeflow passes introduce
//!   (`ArrayKind::Tape` arrays, [`Op::SpadLoad`], [`Op::StreamOut`], ...).
//!
//! Besides the data structures, the crate ships:
//!
//! * [`FunctionBuilder`] — ergonomic construction of loop nests,
//! * [`verify::verify`] — structural and type checking,
//! * [`interp`] — a reference interpreter (used for finite-difference
//!   gradient checking),
//! * [`trace`] — expansion of a function into its **dynamic dataflow
//!   graph** (the unrolled dataflow the paper's figures characterize and
//!   the simulator executes), and
//! * [`analysis`] — the Chapter-2 tape characterizations (edge
//!   distribution, lifetimes, working set).
//!
//! ## Example
//!
//! ```rust
//! use tapeflow_ir::{FunctionBuilder, ArrayKind, Scalar};
//!
//! // u = sum_i exp(x[i])   (the `logsum` kernel's forward skeleton)
//! let mut b = FunctionBuilder::new("logsum");
//! let x = b.array("x", 16, ArrayKind::Input, Scalar::F64);
//! let u = b.cell_f64("u", 0.0);
//! b.for_loop("i", 0, 16, |b, i| {
//!     let xi = b.load(x, i);
//!     let e = b.exp(xi);
//!     let acc = b.load_cell(u);
//!     let s = b.fadd(acc, e);
//!     b.store_cell(u, s);
//! });
//! let f = b.finish();
//! tapeflow_ir::verify::verify(&f).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod builder;
pub mod function;
pub mod ids;
pub mod interp;
pub mod lint;
pub mod memory;
pub mod ops;
pub mod opt;
pub mod parse;
pub mod pretty;
pub mod trace;
pub mod transform;
pub mod types;
pub mod verify;
pub mod vra;

pub use builder::FunctionBuilder;
pub use function::{
    ArrayDecl, ArrayKind, Bound, DeclRange, Function, Inst, LoopInfo, Provenance, Stmt, ValueDef,
};
pub use ids::{ArrayId, InstId, LoopId, NodeId, TapeGroupId, ValueId};
pub use memory::Memory;
pub use ops::{CmpKind, Op, OpClass};
pub use trace::{NodeColumns, Phase, Trace};
pub use types::{Const, Scalar};
