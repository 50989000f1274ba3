//! Host constants shared with the repository benchmark (`perfbench/`).
//!
//! [`LADDER`] is the cache-size ladder perfbench's `sweep` workload
//! drives through one `SweepSession` per program, and [`host_meta`]
//! snapshots the host line every perfbench run prints. Host-speed
//! figures come from perfbench alone; the blessed reference is
//! `results/BENCH_perfbench.json`.

const KIB: usize = 1024;

/// The cache-size ladder (bytes, descending): a miss-ratio-curve grid
/// at four points per octave ({1, 1.25, 1.5, 1.75} x 2^k) from 2 MiB
/// down to 16 KiB — the resolution a cache study needs to place the
/// working-set knee — then power-of-two steps through the tail where
/// every tiny-scale trace is far off-knee. Descending order maximizes
/// prefix reuse in the session: every access that hits in an N-byte
/// cache also hits in the larger predecessors that recorded the
/// outcome stream, so shrinking sweeps diverge late (or not at all
/// once the working set stops fitting either size).
pub const LADDER: [usize; 33] = [
    2048 * KIB,
    1792 * KIB,
    1536 * KIB,
    1280 * KIB,
    1024 * KIB,
    896 * KIB,
    768 * KIB,
    640 * KIB,
    512 * KIB,
    448 * KIB,
    384 * KIB,
    320 * KIB,
    256 * KIB,
    224 * KIB,
    192 * KIB,
    160 * KIB,
    128 * KIB,
    112 * KIB,
    96 * KIB,
    80 * KIB,
    64 * KIB,
    56 * KIB,
    48 * KIB,
    40 * KIB,
    32 * KIB,
    28 * KIB,
    24 * KIB,
    20 * KIB,
    16 * KIB,
    8 * KIB,
    4 * KIB,
    2 * KIB,
    KIB,
];

/// Identity of the machine and binary that produced a measurement —
/// the `host` line of a perfbench run. Throughput numbers are only
/// comparable when these match.
#[derive(Clone, Debug)]
pub struct HostMeta {
    /// Logical CPUs visible to the process.
    pub logical_cpus: usize,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: String,
    /// Cargo `opt-level` the binary was built at.
    pub opt_level: String,
    /// Worker threads the measured run uses.
    pub jobs: usize,
}

/// Snapshots the host identity; `jobs` is the worker count the caller
/// runs with (after clamping).
pub fn host_meta(jobs: usize) -> HostMeta {
    HostMeta {
        logical_cpus: crate::pool::available_jobs(),
        rustc: env!("TAPEFLOW_RUSTC_VERSION").to_string(),
        opt_level: env!("TAPEFLOW_OPT_LEVEL").to_string(),
        jobs,
    }
}
