//! Locks in the paper's §4.5.2 working-set crossover (Figure 4.9): the
//! cache wins while it captures the whole tape; streaming wins once the
//! tape overflows it.

use tapeflow_benchmarks::pathfinder_sized;
use tapeflow_core::{compile, CompileOptions};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, Memory};
use tapeflow_sim::{simulate_prepared, PreparedSim, SimOptions, SystemConfig};

/// Steady-state DRAM bytes per program access for both configurations
/// at the given grid size, on a 32 KB cache. The one-time cool-down
/// flush (`flush_writebacks`) is excluded: it charges every resident
/// dirty line once at the end regardless of grid size, which would
/// mask the in-run traffic difference the crossover is about.
fn dram_per_access(rows: usize, cols: usize) -> (f64, f64) {
    let bench = pathfinder_sized(rows, cols);
    let grad = bench.gradient();
    let cfg = SystemConfig::baseline_32k();
    let run = |func: &tapeflow_ir::Function, barrier| {
        let mut mem = Memory::for_function(func);
        for i in 0..bench.func.arrays().len() {
            mem.clone_array_from(&bench.mem, ArrayId::new(i));
        }
        mem.set_f64_at(grad.shadow_of(bench.loss.array).unwrap(), 0, 1.0);
        let t = trace_function(
            func,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(barrier),
            },
        )
        .unwrap();
        let r = simulate_prepared(&PreparedSim::new(&t).unwrap(), &cfg, &SimOptions::default());
        let flush_bytes = r.cache.flush_writebacks * cfg.cache.line_bytes as u64;
        (r.dram_bytes() - flush_bytes) as f64 / (r.cache.accesses() + r.spad_accesses).max(1) as f64
    };
    let enzyme = run(&grad.func, grad.phase_barrier);
    let compiled = compile(&grad, &CompileOptions::default()).unwrap();
    let tapeflow = run(&compiled.func, compiled.phase_barrier);
    (enzyme, tapeflow)
}

#[test]
fn cache_wins_small_streaming_wins_large() {
    // Small grid: tape ≈ 1/3 of the cache — Enzyme keeps it resident,
    // Tapeflow streams it out and back anyway.
    let (ez_small, tf_small) = dram_per_access(10, 24);
    assert!(
        tf_small > ez_small,
        "small working set must favour the cache: tflow {tf_small:.2} vs enzyme {ez_small:.2}"
    );
    // Large grid: tape ≈ 3x the cache — Enzyme thrashes, streams do not.
    let (ez_large, tf_large) = dram_per_access(40, 64);
    assert!(
        tf_large < ez_large,
        "overflowing tape must favour streaming: tflow {tf_large:.2} vs enzyme {ez_large:.2}"
    );
    // Tapeflow's traffic per access is insensitive to the working set.
    let drift = (tf_large - tf_small).abs() / tf_small;
    assert!(
        drift < 0.25,
        "stream traffic should be flat, drifted {drift:.2}"
    );
}
