//! Every paper benchmark must survive the full stack: differentiate,
//! compile through all four Tapeflow passes at several scratchpad sizes,
//! execute bit-identically to the plain gradient, and simulate.

use tapeflow_benchmarks::{suite, Benchmark, Scale};
use tapeflow_core::{compile, CompileMode, CompileOptions};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, Memory};
use tapeflow_sim::{simulate, SimOptions, SystemConfig};

fn shadows_after(
    func: &tapeflow_ir::Function,
    b: &Benchmark,
    grad: &tapeflow_autodiff::Gradient,
) -> Vec<Vec<f64>> {
    let mut mem = Memory::for_function(func);
    for i in 0..b.func.arrays().len() {
        mem.clone_array_from(&b.mem, ArrayId::new(i));
    }
    mem.set_f64_at(grad.shadow_of(b.loss.array).unwrap(), b.loss.index, 1.0);
    tapeflow_ir::interp::run(func, &mut mem).unwrap_or_else(|e| panic!("{}: {e}", func.name));
    b.wrt
        .iter()
        .map(|&w| mem.get_f64(grad.shadow_of(w).unwrap()))
        .collect()
}

#[test]
fn full_pipeline_bit_identical_on_all_benchmarks() {
    for b in suite(Scale::Small) {
        let grad = b.gradient();
        let baseline = shadows_after(&grad.func, &b, &grad);
        for opts in [
            CompileOptions::default(),
            CompileOptions::with_spad_bytes(256),
            CompileOptions {
                mode: CompileMode::AosOnly,
                ..CompileOptions::default()
            },
        ] {
            let c = compile(&grad, &opts)
                .unwrap_or_else(|e| panic!("{}: compile {opts:?}: {e}", b.name));
            tapeflow_ir::verify::verify(&c.func).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let got = shadows_after(&c.func, &b, &grad);
            assert_eq!(baseline, got, "{}: {opts:?}", b.name);
        }
    }
}

#[test]
fn all_benchmarks_simulate_both_configs() {
    let cfg = SystemConfig::with_cache_bytes(2048);
    for b in suite(Scale::Small) {
        let grad = b.gradient();
        // Enzyme baseline.
        let mut mem = b.gradient_memory(&grad);
        let t = trace_function(
            &grad.func,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(grad.phase_barrier),
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let ez = simulate(&t, &cfg, &SimOptions::default()).unwrap();
        assert!(ez.cycles > 0, "{}", b.name);
        assert!(
            ez.cache.tape_hits + ez.cache.tape_misses > 0,
            "{}: baseline must have cache tape traffic",
            b.name
        );
        // Tapeflow.
        let c = compile(&grad, &CompileOptions::default()).unwrap();
        let mut mem2 = Memory::for_function(&c.func);
        for i in 0..b.func.arrays().len() {
            mem2.clone_array_from(&b.mem, ArrayId::new(i));
        }
        mem2.set_f64_at(grad.shadow_of(b.loss.array).unwrap(), b.loss.index, 1.0);
        let t2 = trace_function(
            &c.func,
            &mut mem2,
            TraceOptions {
                phase_barrier: Some(c.phase_barrier),
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let tf = simulate(&t2, &cfg, &SimOptions::default()).unwrap();
        assert!(tf.cycles > 0, "{}", b.name);
        // Only unmanaged top-level scalars may remain on the cache path
        // (one store + one load each).
        let unmanaged_cap = 2 * c.plan.unmanaged.len() as u64;
        assert!(
            tf.cache.tape_hits + tf.cache.tape_misses <= unmanaged_cap,
            "{}: {} cache tape accesses > {unmanaged_cap} unmanaged",
            b.name,
            tf.cache.tape_hits + tf.cache.tape_misses
        );
        assert!(tf.spad_accesses > 0, "{}", b.name);
        assert!(tf.stream_cmds > 0, "{}", b.name);
    }
}

#[test]
fn layer_counts_are_substantial() {
    // Table 4.1's layer-count column: every benchmark should split into
    // many layers at the baseline scratchpad.
    for b in suite(Scale::Small) {
        let grad = b.gradient();
        let c = compile(&grad, &CompileOptions::default()).unwrap();
        assert!(
            c.stats.fwd_layers >= 4,
            "{}: only {} layers",
            b.name,
            c.stats.fwd_layers
        );
    }
}

#[test]
fn tape_fraction_matches_paper_band() {
    // Obs 1.1: tape accesses are roughly 20-40% of DRAM accesses in the
    // Enzyme baseline. Allow a wider band for scaled inputs.
    for b in suite(Scale::Small) {
        let grad = b.gradient();
        let mut mem = b.gradient_memory(&grad);
        let t = trace_function(
            &grad.func,
            &mut mem,
            TraceOptions {
                phase_barrier: Some(grad.phase_barrier),
            },
        )
        .unwrap();
        let stats = tapeflow_ir::analysis::trace_stats(&t);
        let frac = stats.tape_access_fraction();
        assert!(
            (0.05..=0.7).contains(&frac),
            "{}: tape fraction {frac:.2} out of band",
            b.name
        );
    }
}
