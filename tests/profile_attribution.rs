//! Property-style tests for the cycle-attribution probe on the real
//! sample programs: across both simulated variants (the Enzyme-baseline
//! gradient and the Tapeflow build), a sweep of cache sizes and two
//! scratchpad sizes, every simulated PE-cycle must be attributed to
//! exactly one cause (`sum(units) == cycles * PEs`), the occupancy
//! histogram must account for every cycle, and the probed run must
//! report exactly what the unprobed engine reports.

use tapeflow::autodiff::{AdOptions, Gradient, TapePolicy};
use tapeflow::core::pipeline::PipelineBuilder;
use tapeflow::core::{CompileOptions, CompiledProgram};
use tapeflow::ir::trace::{trace_function, TraceOptions};
use tapeflow::ir::{parse, ArrayId, ArrayKind, Function, Memory, Scalar};
use tapeflow::sim::{
    simulate_prepared, simulate_prepared_probed, AttributionProbe, PreparedSim, SimOptions,
    StallKind, SystemConfig,
};

/// Deterministic inputs matching the CLI: f64 ramps, i64 identity
/// indices.
fn default_memory(func: &Function) -> Memory {
    let mut mem = Memory::for_function(func);
    for (i, a) in func.arrays().iter().enumerate() {
        if a.kind != ArrayKind::Input {
            continue;
        }
        let id = ArrayId::new(i);
        match a.elem {
            Scalar::F64 => {
                let data: Vec<f64> = (0..a.len).map(|k| 0.05 + 0.01 * k as f64).collect();
                mem.set_f64(id, &data);
            }
            Scalar::I64 => {
                let data: Vec<i64> = (0..a.len).map(|k| k as i64).collect();
                mem.set_i64(id, &data);
            }
        }
    }
    mem
}

/// Compiles `file` through the CLI's simulate pipeline at `spad_bytes`.
fn build(file: &str, wrt: &[&str], loss: &str, spad_bytes: usize) -> Setup {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file}: {e}"));
    let func = parse::parse(&text).unwrap();
    let wrt = wrt
        .iter()
        .map(|n| func.array_by_name(n).unwrap_or_else(|| panic!("array {n}")))
        .collect();
    let loss = func.array_by_name(loss).expect("loss array");
    let opts = AdOptions::new(wrt, vec![loss]).with_policy(TapePolicy::Conservative);
    let builder = PipelineBuilder::from_names(
        &["ad", "regions", "layering", "streams", "spad-index"],
        CompileOptions::with_spad_bytes(spad_bytes),
        Some(opts.clone()),
    )
    .unwrap();
    let run = builder
        .run_source(&func)
        .unwrap_or_else(|e| panic!("{file}: {e}"));
    let grad = run.state.gradient.clone().expect("gradient");
    let compiled = run.into_compiled().expect("compiled program");
    Setup {
        func,
        opts,
        grad,
        compiled,
    }
}

struct Setup {
    func: Function,
    opts: AdOptions,
    grad: Gradient,
    compiled: CompiledProgram,
}

impl Setup {
    /// The variant's memory: shared base arrays plus a unit loss-shadow
    /// seed (mirrors the CLI's `variant_memory`).
    fn memory(&self, variant: &Function) -> Memory {
        let base = default_memory(&self.func);
        let mut mem = Memory::for_function(variant);
        for i in 0..self.func.arrays().len() {
            mem.clone_array_from(&base, ArrayId::new(i));
        }
        mem.set_f64_at(
            self.grad
                .shadow_of(self.opts.seeds[0])
                .expect("loss shadow"),
            0,
            1.0,
        );
        mem
    }
}

/// Simulates one variant probed and unprobed on `sys` and checks every
/// attribution invariant.
fn check_variant(label: &str, setup: &Setup, variant_is_tapeflow: bool, sys: &SystemConfig) {
    let (f, barrier) = if variant_is_tapeflow {
        (&setup.compiled.func, setup.compiled.phase_barrier)
    } else {
        (&setup.grad.func, setup.grad.phase_barrier)
    };
    let mut mem = setup.memory(f);
    let trace = trace_function(
        f,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(barrier),
        },
    )
    .unwrap_or_else(|e| panic!("{label}: {e}"));
    let prep = PreparedSim::new(&trace).unwrap();
    let plain = simulate_prepared(&prep, sys, &SimOptions::default());
    let mut probe = AttributionProbe::new();
    let probed = simulate_prepared_probed(&prep, sys, &SimOptions::default(), &mut probe);

    // The probe must be invisible: identical report, counter by counter.
    assert_eq!(plain.cycles, probed.cycles, "{label}: cycles");
    assert_eq!(plain.fwd_cycles, probed.fwd_cycles, "{label}: fwd_cycles");
    assert_eq!(plain.cache, probed.cache, "{label}: cache stats");
    assert_eq!(plain.spad_accesses, probed.spad_accesses, "{label}: spad");
    assert_eq!(plain.stream_cmds, probed.stream_cmds, "{label}: streams");
    assert_eq!(plain.fp_ops, probed.fp_ops, "{label}: fp ops");
    assert_eq!(plain.int_ops, probed.int_ops, "{label}: int ops");
    assert_eq!(
        plain.dram_fill_bytes, probed.dram_fill_bytes,
        "{label}: dram fills"
    );

    let bd = probe.into_breakdown();
    bd.check().unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(bd.cycles, probed.cycles, "{label}: breakdown cycles");
    assert_eq!(
        bd.attributed(),
        bd.cycles * bd.pes as u64,
        "{label}: every PE-cycle attributed exactly once"
    );
    assert!(
        bd.get(StallKind::FpBusy) > 0,
        "{label}: a real program keeps FP units busy at least once"
    );
    // The occupancy histogram covers every cycle with one bin per
    // possible busy-PE count (check() verifies the sum; pin the shape).
    assert_eq!(bd.pe_occupancy.len(), bd.pes + 1, "{label}: occupancy bins");
    let busy: u64 = bd.pe_occupancy.iter().skip(1).sum();
    assert!(busy > 0, "{label}: some cycle had a busy PE");
}

fn sweep(file: &str, wrt: &[&str], loss: &str) {
    for spad_bytes in [256usize, 1024] {
        let setup = build(file, wrt, loss, spad_bytes);
        for cache_bytes in [1024usize, 4096, 32768] {
            let sys = SystemConfig::with_cache_bytes(cache_bytes);
            let tag = format!("{file} spad={spad_bytes} cache={cache_bytes}");
            check_variant(&format!("{tag} Enzyme"), &setup, false, &sys);
            check_variant(&format!("{tag} Tapeflow"), &setup, true, &sys);
        }
    }
}

#[test]
fn sumexp_attribution_invariants_hold_across_configs() {
    sweep("programs/sumexp.tf", &["x"], "loss");
}

#[test]
fn pathfinder_mini_attribution_invariants_hold_across_configs() {
    sweep("programs/pathfinder_mini.tf", &["w", "src"], "loss");
}
