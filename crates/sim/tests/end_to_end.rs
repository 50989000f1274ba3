//! Whole-stack integration: AD → Tapeflow passes → trace → simulation.
//!
//! These tests assert the paper's *qualitative* results on a synthetic
//! irregular workload: under cache pressure the Tapeflow configuration
//! is faster, touches DRAM less, improves REV hit rate and spends less
//! on-chip energy than the Enzyme baseline.

use tapeflow_autodiff::{differentiate, AdOptions, Gradient};
use tapeflow_core::{compile, CompileOptions};
use tapeflow_ir::trace::{trace_function, TraceOptions};
use tapeflow_ir::{ArrayId, ArrayKind, Function, FunctionBuilder, Memory, Scalar};
use tapeflow_sim::{simulate_prepared, PreparedSim, SimOptions, SimReport, SystemConfig};

/// An irregular kernel in the paper's regime: a deep taped chain per
/// iteration makes the tape the dominant share of the working set
/// (Fig 1.3's 2–4× state expansion), while the non-tape state (input +
/// shadow) stays cache-sized.
fn irregular(n: usize) -> (Function, Gradient, Memory, ArrayId) {
    let mut b = FunctionBuilder::new("irregular");
    let x = b.array("x", n, ArrayKind::Input, Scalar::F64);
    let loss = b.array("loss", 1, ArrayKind::Output, Scalar::F64);
    b.for_loop("i", 0, n as i64, |b, i| {
        let xi = b.load(x, i);
        // Six taped intermediates per iteration.
        let e = b.exp(xi);
        let t = b.tanh(e);
        let m1 = b.fmul(t, e);
        let s1 = b.sqrt(m1);
        let t2 = b.tanh(s1);
        let m2 = b.fmul(t2, t);
        let c = b.load_cell(loss);
        let s = b.fadd(c, m2);
        b.store_cell(loss, s);
    });
    let f = b.finish();
    let grad = differentiate(&f, &AdOptions::new(vec![x], vec![loss])).unwrap();
    let mut mem = Memory::for_function(&f);
    let fill: Vec<f64> = (0..n).map(|i| 0.1 + 0.003 * i as f64).collect();
    mem.set_f64(x, &fill);
    (f, grad, mem, loss)
}

fn run(
    func: &Function,
    orig: &Function,
    grad: &Gradient,
    base: &Memory,
    loss: ArrayId,
    phase_barrier: tapeflow_ir::InstId,
    cfg: &SystemConfig,
) -> SimReport {
    let mut mem = Memory::for_function(func);
    for i in 0..orig.arrays().len() {
        mem.clone_array_from(base, ArrayId::new(i));
    }
    mem.set_f64_at(grad.shadow_of(loss).unwrap(), 0, 1.0);
    let trace = trace_function(
        func,
        &mut mem,
        TraceOptions {
            phase_barrier: Some(phase_barrier),
        },
    )
    .unwrap();
    let prep = PreparedSim::new(&trace).unwrap();
    simulate_prepared(&prep, cfg, &SimOptions::default())
}

#[test]
fn tapeflow_beats_enzyme_under_cache_pressure() {
    let n = 512;
    let (orig, grad, base, loss) = irregular(n);
    // The cache comfortably holds the non-tape working set (~8 KB input +
    // shadow) but not the 16 KB tape on top.
    let cfg = SystemConfig::with_cache_bytes(8 * 1024);

    let enzyme = run(
        &grad.func,
        &orig,
        &grad,
        &base,
        loss,
        grad.phase_barrier,
        &cfg,
    );
    let compiled = compile(&grad, &CompileOptions::default()).unwrap();
    let tapeflow = run(
        &compiled.func,
        &orig,
        &grad,
        &base,
        loss,
        compiled.phase_barrier,
        &cfg,
    );

    // The tape goes through the scratchpad: no tape cache traffic left.
    assert_eq!(tapeflow.cache.tape_hits + tapeflow.cache.tape_misses, 0);
    assert!(tapeflow.spad_accesses > 0);
    assert!(tapeflow.stream_cmds > 0);
    // Enzyme's tape accesses are a significant fraction (Obs 1.1).
    let tape_frac =
        (enzyme.cache.tape_hits + enzyme.cache.tape_misses) as f64 / enzyme.cache.accesses() as f64;
    assert!(
        tape_frac > 0.15,
        "tape should be a large share of accesses, got {tape_frac:.2}"
    );

    // Headline direction: faster, less DRAM, better REV hit rate, less
    // on-chip energy.
    let speedup = tapeflow.speedup_over(&enzyme);
    assert!(speedup > 1.0, "speedup {speedup:.2} <= 1");
    assert!(
        tapeflow.dram_bytes() < enzyme.dram_bytes(),
        "DRAM {} vs {}",
        tapeflow.dram_bytes(),
        enzyme.dram_bytes()
    );
    assert!(
        tapeflow.cache.rev_hit_rate() >= enzyme.cache.rev_hit_rate(),
        "REV hit rate {:.3} vs {:.3}",
        tapeflow.cache.rev_hit_rate(),
        enzyme.cache.rev_hit_rate()
    );
    assert!(
        tapeflow.energy.on_chip_pj() < enzyme.energy.on_chip_pj(),
        "on-chip energy {:.0} vs {:.0}",
        tapeflow.energy.on_chip_pj(),
        enzyme.energy.on_chip_pj()
    );
}

#[test]
fn iso_perform_small_cache_stays_competitive() {
    // Tflow with a small cache should stay close to Enzyme with a much
    // larger one (the ISO-perform argument of §4.4.3). Sized so the
    // working set exceeds the 32 KB cache — the regime the paper
    // evaluates; §4.5.2 concedes the cache wins when everything fits.
    let n = 2048;
    let (orig, grad, base, loss) = irregular(n);
    let enzyme_big = run(
        &grad.func,
        &orig,
        &grad,
        &base,
        loss,
        grad.phase_barrier,
        &SystemConfig::with_cache_bytes(32 * 1024),
    );
    let compiled = compile(&grad, &CompileOptions::default()).unwrap();
    let tflow_small = run(
        &compiled.func,
        &orig,
        &grad,
        &base,
        loss,
        compiled.phase_barrier,
        &SystemConfig::with_cache_bytes(8 * 1024),
    );
    let slowdown = enzyme_big.cycles as f64 / tflow_small.cycles as f64;
    assert!(
        slowdown > 0.8,
        "Tflow_8k should be within 25% of Enzyme_32k, ratio {slowdown:.2}"
    );
    // And it must be much cheaper per access on-chip.
    assert!(tflow_small.energy.on_chip_pj() < 0.5 * enzyme_big.energy.on_chip_pj());
}

#[test]
fn larger_scratchpads_do_not_hurt() {
    let n = 256;
    let (orig, grad, base, loss) = irregular(n);
    let cfg = SystemConfig::with_cache_bytes(1024);
    let mut cycles = Vec::new();
    for bytes in [64, 256, 1024] {
        let compiled = compile(&grad, &CompileOptions::with_spad_bytes(bytes)).unwrap();
        let r = run(
            &compiled.func,
            &orig,
            &grad,
            &base,
            loss,
            compiled.phase_barrier,
            &cfg,
        );
        cycles.push(r.cycles);
    }
    // Monotone-ish: the largest scratchpad is at least as fast as the
    // smallest (Fig 4.7's direction).
    assert!(
        cycles[2] <= cycles[0],
        "1 KB spad ({}) should not be slower than 64 B ({})",
        cycles[2],
        cycles[0]
    );
}

#[test]
fn double_buffering_helps_or_ties() {
    let n = 256;
    let (orig, grad, base, loss) = irregular(n);
    let cfg = SystemConfig::with_cache_bytes(1024);
    let mut res = Vec::new();
    for db in [true, false] {
        let opts = CompileOptions {
            double_buffer: db,
            ..CompileOptions::default()
        };
        let compiled = compile(&grad, &opts).unwrap();
        let r = run(
            &compiled.func,
            &orig,
            &grad,
            &base,
            loss,
            compiled.phase_barrier,
            &cfg,
        );
        res.push(r.cycles);
    }
    // Not a strict theorem at every size (single buffering gets bigger
    // tiles), but overlap should keep double buffering competitive.
    let ratio = res[0] as f64 / res[1] as f64;
    assert!(
        ratio < 1.5,
        "double buffering should not be much slower: ratio {ratio:.2}"
    );
}

#[test]
fn gradients_survive_the_whole_stack() {
    // The simulated program is the traced program: its memory image holds
    // gradients identical to the plain interpreter's.
    let n = 128;
    let (orig, grad, base, loss) = irregular(n);
    let compiled = compile(&grad, &CompileOptions::default()).unwrap();
    let x = ArrayId::new(0);

    let mut plain = grad.prepare_memory(&orig, &base);
    plain.set_f64_at(grad.shadow_of(loss).unwrap(), 0, 1.0);
    tapeflow_ir::interp::run(&grad.func, &mut plain).unwrap();

    let mut tf_mem = Memory::for_function(&compiled.func);
    for i in 0..orig.arrays().len() {
        tf_mem.clone_array_from(&base, ArrayId::new(i));
    }
    tf_mem.set_f64_at(grad.shadow_of(loss).unwrap(), 0, 1.0);
    let _trace = trace_function(&compiled.func, &mut tf_mem, TraceOptions::default()).unwrap();

    assert_eq!(
        plain.get_f64(grad.shadow_of(x).unwrap()),
        tf_mem.get_f64(grad.shadow_of(x).unwrap())
    );
}
