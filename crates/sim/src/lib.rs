//! # tapeflow-sim
//!
//! A cycle-level simulator for the paper's target hardware — the
//! gem5-SALAM substitute. It executes the dynamic dataflow graph
//! ([`tapeflow_ir::Trace`]) of a gradient program on a model of the
//! spatial accelerator from §3.1 / Table 4.2:
//!
//! * a 4×4 grid of processing elements with dual double-precision FPUs
//!   (dataflow issue, operation latencies per class);
//! * a set-associative, write-back/write-allocate **cache** with a limited
//!   number of ports, for all non-tape accesses (and for tape accesses in
//!   the Enzyme baseline);
//! * a banked **scratchpad** (16 banks × 8 entries in the paper's
//!   baseline) serving Tapeflow's tape accesses;
//! * two decoupled **stream engines** (`FWD-Stream`, `REV-Stream`) moving
//!   tape tiles between scratchpad and DRAM;
//! * a bandwidth/latency **DRAM** model shared by cache fills, write-backs
//!   and streams;
//! * a CACTI-style per-access **energy** table seeded from Table 4.2.
//!
//! The same datapath is used for every memory configuration, which is the
//! paper's apples-to-apples methodology: only the memory model changes
//! between `Enzyme_N` and `Tflow_N`.
//!
//! ```rust
//! use tapeflow_ir::{ArrayKind, FunctionBuilder, Memory, Scalar};
//! use tapeflow_ir::trace::{trace_function, TraceOptions};
//! use tapeflow_sim::{simulate, SimOptions, SystemConfig};
//!
//! let mut b = FunctionBuilder::new("axpy");
//! let x = b.array("x", 64, ArrayKind::Input, Scalar::F64);
//! let y = b.array("y", 64, ArrayKind::InOut, Scalar::F64);
//! let a = b.f64(3.0);
//! b.for_loop("i", 0, 64, |b, i| {
//!     let xi = b.load(x, i);
//!     let yi = b.load(y, i);
//!     let t = b.fmul(a, xi);
//!     let s = b.fadd(t, yi);
//!     b.store(y, i, s);
//! });
//! let f = b.finish();
//! let mut mem = Memory::for_function(&f);
//! let trace = trace_function(&f, &mut mem, TraceOptions::default()).unwrap();
//! let cfg = SystemConfig::with_cache_bytes(1024);
//! let report = simulate(&trace, &cfg, &SimOptions::default()).unwrap();
//! assert!(report.cycles > 0);
//! assert_eq!(report.cache.accesses(), 192); // 128 loads + 64 stores
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
pub mod json;
pub mod prep;
pub mod probe;
pub mod report;
pub mod sweep;

/// The scalar per-cycle loop the event core replaced, compiled into this
/// crate's unit tests only, from the one copy the equivalence suite
/// keeps as its oracle, so engine tests can check it cycle for cycle.
#[cfg(test)]
#[path = "../../bench/tests/equivalence/oracle.rs"]
mod legacy;
// Lets the oracle name this crate by its public path from inside it.
#[cfg(test)]
extern crate self as tapeflow_sim;

pub use cache::{Cache, ReplacementPolicy};
pub use config::{
    CacheConfig, ClassPrints, DramConfig, EnergyTable, PeConfig, SpadConfig, SystemConfig,
};
pub use engine::{
    simulate, simulate_prepared, simulate_prepared_probed, simulate_probed, SimOptions,
};
pub use error::SimError;
pub use prep::PreparedSim;
pub use probe::{
    AttributionProbe, CycleBreakdown, InstBreakdown, NoProbe, ProbeGeometry, SamplingProbe,
    SimProbe, StallKind, TraceRecorder,
};
pub use report::{CacheStats, EnergyReport, SimReport};
pub use sweep::{plan_order, run_group, SweepSession};

// The bench harness shares configurations and reports across worker
// threads; keep them thread-safe by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemConfig>();
    assert_send_sync::<SimReport>();
    assert_send_sync::<SimOptions>();
    // The prepared-sim arena is shared (`Arc`) across sweep workers.
    assert_send_sync::<PreparedSim>();
    assert_send_sync::<SimError>();
};
